"""End-to-end engine behavior: backend equivalence, independence from
checkpoint placement, invariant bookkeeping, and structural reductions.

``backend="numba"`` runs the scalar loop kernel, compiled or, without
numba, as plain Python; it is the reference the numpy kernel must match.
"""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import yaml

from draa import engine
from draa.adversary import make_adversary
from draa.agents import build_schedule, init_epoch1
from draa.cli import main
from draa.comm import MessageLog
from draa.config import validate_config
from draa.engine import run_single
from draa.errors import InvariantError
from draa.kernels import BACKENDS, run_segment
from draa.model import build_instance
from draa.oracle import _artifacts
from draa.runner import execute_run

ADVERSARIES = [
    None,
    {"kind": "budgeted_targeted", "target_arm": 1, "magnitude": 0.5,
     "budget": 60.0},
    {"kind": "gap_flip", "magnitude": 0.7, "budget": 90.0},
    {"kind": "epoch_flood", "target_arm": 0, "start_epoch": 2,
     "direction": "up", "budget": 50.0},
]


def small_instance(reward_model="bernoulli"):
    return build_instance({
        "num_arms": 3,
        "num_agents": 2,
        "arm_sets": [[0, 1], [1, 2]],
        "means": [0.9, 0.5, 0.4],
        "reward_model": reward_model,
    })


def small_schedule(inst, horizon=2500):
    return build_schedule(inst, horizon, delta=0.05, lam_scale=16)


def assert_same_trace(a, b):
    """Equal pulls and rewards; regret and C within 1e-9."""
    np.testing.assert_array_equal(a.pulls, b.pulls)
    np.testing.assert_array_equal(a.observed, b.observed)
    np.testing.assert_array_equal(a.clean, b.clean)
    assert abs(a.corruption["C"] - b.corruption["C"]) < 1e-9
    assert abs(a.total_regret - b.total_regret) < 1e-9


@pytest.mark.parametrize("adv_cfg", ADVERSARIES)
@pytest.mark.parametrize("reward_model", ["bernoulli", "beta"])
def test_numpy_matches_numba(adv_cfg, reward_model):
    inst = small_instance(reward_model)
    sched = small_schedule(inst)
    a = run_single(inst, sched, make_adversary(adv_cfg), 5,
                   backend="numpy", trace=True)
    b = run_single(inst, sched, make_adversary(adv_cfg), 5,
                   backend="numba", trace=True)
    assert_same_trace(a, b)


@pytest.mark.parametrize("adv_cfg", ADVERSARIES)
def test_kernel_matches_reference_path(adv_cfg):
    inst = small_instance()
    sched = small_schedule(inst, horizon=1500)
    ref = run_single(inst, sched, make_adversary(adv_cfg), 9,
                     backend="numba", trace=True)
    eng = run_single(inst, sched, make_adversary(adv_cfg), 9,
                     backend="numpy", trace=True)
    assert_same_trace(ref, eng)
    np.testing.assert_allclose(ref.corruption["C_per_epoch"],
                               eng.corruption["C_per_epoch"], rtol=0,
                               atol=1e-9)
    for re, ee in zip(ref.epochs, eng.epochs):
        for a, b in zip(re.probs + re.estimates, ee.probs + ee.estimates):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("budget", [20.3, 140.7])
@pytest.mark.parametrize("reward_model", ["bernoulli", "beta"])
def test_budget_crossing_exact_across_kernels_and_checkpoints(reward_model,
                                                               budget):
    """A non-dyadic budget runs out at the same cell on both kernels and
    whatever the checkpoints, so segments that start with budget already
    spent must keep the loop's running sum exactly."""
    inst = small_instance(reward_model)
    sched = small_schedule(inst)
    every_7 = range(7, sum(sched.lengths) + 1, 7)
    cfg = {"kind": "gap_flip", "magnitude": 0.7, "budget": budget}
    for seed in range(10):
        loop = run_single(inst, sched, make_adversary(cfg), seed,
                          backend="numba", trace=True)
        vec = run_single(inst, sched, make_adversary(cfg), seed,
                         backend="numpy", trace=True)
        chunked = run_single(inst, sched, make_adversary(cfg), seed,
                             backend="numpy", trace=True,
                             checkpoints=every_7)
        assert_same_trace(loop, vec)
        assert_same_trace(vec, chunked)
        assert loop.corruption["C"] <= budget


def test_adversary_object_is_reusable():
    """The run, not the adversary, holds the budget state: an adversary
    whose budget closed in one run drives the next like a fresh one."""
    inst = small_instance()
    sched = small_schedule(inst)
    cfg = {"kind": "gap_flip", "magnitude": 0.7, "budget": 20.3}
    shared = make_adversary(cfg)
    first = run_single(inst, sched, shared, 0, backend="numpy")
    # the gate closes in epoch 2 of 3
    assert first.corruption["C"] > 20.3 - 0.7
    assert first.corruption["C_per_epoch"][-1] == 0.0
    for seed in (0, 1):
        reused = run_single(inst, sched, shared, seed, backend="numpy")
        fresh = run_single(inst, sched, make_adversary(cfg), seed,
                           backend="numpy")
        assert reused.corruption == fresh.corruption
        assert reused.total_regret == fresh.total_regret
        assert len(reused.epochs) == len(fresh.epochs)
        for a, b in zip(reused.epochs, fresh.epochs):
            np.testing.assert_equal(vars(a), vars(b))


def test_estimator_choice_changes_behavior_only_when_heterogeneous():
    # homogeneous: every holder has the same probability, so the two
    # estimators coincide and the runs are identical
    inst = build_instance({
        "num_arms": 2, "num_agents": 2,
        "arm_sets": [[0, 1], [0, 1]],
        "means": [0.8, 0.4]})
    sched = small_schedule(inst)
    w = run_single(inst, sched, make_adversary(None), 4,
                   estimator="weighted", backend="numpy", trace=True)
    n = run_single(inst, sched, make_adversary(None), 4,
                   estimator="naive", backend="numpy", trace=True)
    np.testing.assert_array_equal(w.pulls, n.pulls)


def test_checkpoint_rows_monotone_and_final():
    inst = small_instance()
    sched = small_schedule(inst)
    result = run_single(inst, sched, make_adversary(None), 2,
                        backend="numpy")
    ts = result.checkpoints.t.tolist()
    assert ts == sorted(ts)
    assert ts[-1] == sum(sched.lengths)
    regrets = result.checkpoints.regret.sum(axis=1).tolist()
    assert all(b >= a - 1e-12 for a, b in zip(regrets, regrets[1:]))
    assert regrets[-1] == pytest.approx(result.total_regret)


def test_comm_cost_is_l_times_epochs():
    # the engine reads comm_cost before an epoch's posts, so every row
    # inside epoch m counts the L(m-1) messages of the epochs before it
    inst = small_instance()
    sched = small_schedule(inst)
    L = inst.num_agents
    for adv_cfg in ADVERSARIES:
        for checkpoints in (None, range(7, sum(sched.lengths) + 1, 7)):
            result = run_single(inst, sched, make_adversary(adv_cfg), 2,
                                backend="numpy", checkpoints=checkpoints)
            assert result.comm_cost == L * result.num_epochs
            cps = result.checkpoints
            for t, cost in zip(cps.t.tolist(), cps.comm_cost.tolist()):
                m = next(e.m for e in result.epochs if t <= e.end)
                assert cost == L * (m - 1), (adv_cfg, t)


def test_regret_upper_bound():
    inst = small_instance()
    sched = small_schedule(inst)
    result = run_single(inst, sched, make_adversary(None), 2,
                        backend="numpy")
    worst_gap = max(float(inst.means[best] - inst.means[list(arms)].min())
                    for arms, best in zip(inst.arm_sets, inst.best_arms))
    assert (result.total_regret
            <= sum(sched.lengths) * inst.num_agents * worst_gap)


def test_homogeneous_agents_have_bit_identical_state():
    inst = build_instance({
        "num_arms": 3, "num_agents": 3,
        "arm_sets": [[0, 1, 2]] * 3,
        "means": [0.8, 0.5, 0.3]})
    sched = small_schedule(inst, horizon=4000)
    result = run_single(inst, sched, make_adversary(None), 6,
                        backend="numpy")
    for epoch in result.epochs:
        for ell in range(1, 3):
            np.testing.assert_array_equal(epoch.probs[0], epoch.probs[ell])
            np.testing.assert_array_equal(epoch.gaps[0], epoch.gaps[ell])
            assert epoch.active_sets[0] == epoch.active_sets[ell]


def test_no_bracket_or_gap_violations_on_clean_run():
    inst = small_instance()
    sched = small_schedule(inst)
    result = run_single(inst, sched, make_adversary(None), 1,
                        backend="numpy")
    assert result.prob_bracket_violations() == 0
    assert result.gap_range_violations() == 0


def test_checkpoints_default_to_epoch_ends():
    inst = small_instance()
    sched = small_schedule(inst)
    result = run_single(inst, sched, make_adversary(None), 1,
                        backend="numpy")
    assert result.checkpoints.t.dtype == np.int64
    assert np.array_equal(result.checkpoints.t, np.cumsum(sched.lengths))
    assert result.checkpoints.t[-1] == sum(sched.lengths)


@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoints_are_a_set_of_rounds(backend):
    """Any iterable of integers in [1, T] gives the artifacts of its
    sorted, deduplicated list: order, repeats and container are ignored."""
    config = validate_config({
        "schema_version": 1, "horizon": 1500, "seeds": [0],
        "instance": {"num_arms": 3, "num_agents": 2,
                     "arm_sets": [[0, 1], [1, 2]], "means": [0.9, 0.5, 0.4]},
        "adversary": {"kind": "gap_flip", "magnitude": 0.7, "budget": 90.0},
        "algorithm": {"lam_scale": 16}})
    sched = build_schedule(config.instance, config.horizon, config.delta,
                           config.lam_scale)
    marks = [1, 3, 100, 307, 308, 999, 1500]
    shuffled = [999, 3, 1500, 308, 1, 3, 100, 307, 999, 1500]

    def artifacts(checkpoints):
        result = run_single(config.instance, sched, config.adversary, 4,
                            backend=backend, checkpoints=checkpoints)
        return _artifacts(result, config)

    expected = artifacts(marks)
    for checkpoints in (shuffled, tuple(shuffled),
                        np.array(shuffled, dtype=np.int64)):
        assert artifacts(checkpoints) == expected
    for outside in (0, sum(sched.lengths) + 1):
        with pytest.raises(ValueError,
                           match=r"checkpoints must lie in \[1, T\]"):
            artifacts([*marks, outside])
    # a checkpoint is a round, not a number to truncate
    for fractional in ([*marks, 2.9], np.array(marks, dtype=float)):
        with pytest.raises(TypeError):
            artifacts(fractional)


def test_corruption_ledger_reaches_budget():
    inst = small_instance()
    sched = small_schedule(inst)
    cfg = {"kind": "budgeted_targeted", "target_arm": 1, "magnitude": 1.0,
           "budget": 40.0}
    result = run_single(inst, sched, make_adversary(cfg), 3,
                        backend="numpy")
    assert result.corruption["C"] <= 40.0
    assert result.corruption["C"] > 38.0  # integer Bernoulli contributions


def test_trace_shapes():
    inst = small_instance()
    sched = small_schedule(inst, horizon=1200)
    result = run_single(inst, sched, make_adversary(None), 8,
                        backend="numpy", trace=True)
    assert result.pulls.shape == (1200, 2)
    assert result.observed.shape == (1200, 2)
    # pulls are always local arms
    for ell in range(2):
        assert set(np.unique(result.pulls[:, ell])) <= set(inst.arm_sets[ell])


@pytest.mark.parametrize("backend", ["numpy", "numba"])
def test_one_kernel_call_per_epoch(monkeypatch, backend):
    """Checkpoints are read out of the epoch's one call, never a reason
    for another."""
    inst = small_instance()
    sched = small_schedule(inst, horizon=1500)
    plans = []

    def spy(plan, *args, **kwargs):
        plans.append(plan)
        return run_segment(plan, *args, **kwargs)

    monkeypatch.setattr(engine, "run_segment", spy)
    marks = [1, 2, 3, 100, 307, 308, 999, 1500]
    result = run_single(inst, sched, make_adversary(None), 4,
                        backend=backend, checkpoints=marks)
    assert len(plans) == sched.num_epochs
    ends = np.cumsum(sched.lengths).tolist()
    assert [(p.t_start, p.t_end) for p in plans] == [
        (end - length + 1, end) for end, length in zip(ends, sched.lengths)]
    assert result.checkpoints.t.tolist() == marks


#: ten agents over twelve arms, holding one to six arms each
WIDE = {"num_arms": 12, "num_agents": 10,
        "arm_sets": [[0, 1, 2, 3, 4, 5], [1, 6], [2, 7, 8], [3],
                     [4, 9, 10, 11], [5, 6, 7, 8, 9], [10, 11], [0, 11],
                     [6, 7, 8, 9, 10], [1, 3, 5, 7, 9, 11]],
        "means": [0.85, 0.786, 0.723, 0.659, 0.595, 0.532, 0.468, 0.405,
                  0.341, 0.277, 0.214, 0.15]}


def per_cut_fold(plans, results, marks, L):
    """The checkpoint rows as a Python loop folds them: cut by cut, each
    segment's regret and charges added into running (L,) sums, and a row
    read at every cut that is a checkpoint."""
    ledger = np.zeros((len(plans), L))
    cum_regret = np.zeros(L)
    rows = []
    for m, (plan, result) in enumerate(zip(plans, results), start=1):
        charged_before = float(ledger[:m - 1].sum())
        for cut, regret, charges in zip(plan.cuts.tolist(), result.regret,
                                        result.corruption):
            cum_regret += regret
            ledger[m - 1] += charges
            if cut in marks:
                rows.append((cut, float(cum_regret.sum()), cum_regret.copy(),
                             charged_before + float(ledger[m - 1].sum()),
                             L * (m - 1)))
    return rows, cum_regret, ledger


@pytest.mark.parametrize("every", [None, 1, 7])
@pytest.mark.parametrize("backend", BACKENDS)
def test_checkpoints_equal_the_per_cut_fold(backend, every):
    """The engine's cumulative sums give every checkpoint row the bits
    of the per-cut loop, on ragged arm sets, with a budget that closes
    between two checkpoints of the last epoch."""
    inst = build_instance(WIDE)
    sched = small_schedule(inst, horizon=1500)
    adversary = make_adversary({"kind": "gap_flip", "magnitude": 0.7,
                                "budget": 1000.3})
    marks = (np.cumsum(sched.lengths).tolist() if every is None
             else list(range(every, sum(sched.lengths) + 1, every)))
    results = []

    def keep(*args, **kwargs):
        results.append(run_segment(*args, **kwargs))
        return results[-1]

    with mock.patch.object(engine, "run_segment", wraps=keep) as kernel:
        result = run_single(inst, sched, adversary, 5, backend=backend,
                            checkpoints=None if every is None else marks)
    plans = [call.args[0] for call in kernel.call_args_list]
    rows, cum_regret, ledger = per_cut_fold(plans, results, set(marks),
                                            inst.num_agents)
    cps = result.checkpoints
    assert cps.t.tolist() == [row[0] for row in rows] == marks
    assert cps.regret.sum(axis=1).tolist() == [row[1] for row in rows]
    assert np.array_equal(cps.regret, np.array([row[2] for row in rows]))
    assert cps.corruption.tolist() == [row[3] for row in rows]
    assert cps.comm_cost.tolist() == [row[4] for row in rows]
    assert np.array_equal(result.per_agent_regret, cum_regret)
    assert result.corruption["C_per_epoch"] == ledger.sum(axis=1).tolist()
    # the gate closed in the last epoch, short of the budget, after row
    # ``closed - 1``; with dense checkpoints, rows after it stay flat
    assert sched.num_epochs == 2 and not results[-1].adv_active
    closed = int(np.argmax(cps.corruption == cps.corruption[-1]))
    assert cps.t[closed] > sched.lengths[0]
    assert cps.corruption[closed - 1] < cps.corruption[-1] < 1000.3
    assert every is None or closed < cps.t.size - 1


@pytest.mark.parametrize("every", [None, 7])
@pytest.mark.parametrize("backend", BACKENDS)
def test_record_pull_counts_are_the_traced_pulls(backend, every):
    """Each epoch's record holds, per agent and local arm, the number of
    that agent's traced pulls in the epoch, and each agent's counts sum
    to the epoch's length; read after the run, so a later epoch's call
    must not have overwritten an earlier record's counts."""
    inst = build_instance(WIDE)
    sched = small_schedule(inst, horizon=6000)
    adversary = make_adversary({"kind": "gap_flip", "magnitude": 0.7,
                                "budget": 1000.3})
    marks = (None if every is None
             else list(range(every, sum(sched.lengths) + 1, every)))
    result = run_single(inst, sched, adversary, 5, backend=backend,
                        checkpoints=marks, trace=True)
    assert sched.num_epochs == 3 and result.corruption["C"] > 0
    for record in result.epochs:
        pulls = result.pulls[record.start - 1:record.end]
        for ell, arms in enumerate(inst.arm_sets):
            counts = [int(np.sum(pulls[:, ell] == arm)) for arm in arms]
            assert record.pull_counts[ell].tolist() == counts
            assert sum(counts) == record.length


def test_traced_run_holds_its_trace_once():
    """A traced run's peak memory is its three (T, L) trace arrays, 24 B
    per agent-round, plus little: the kernel fills the epoch's rows in
    place rather than returning them for a copy.  The largest epoch
    spans most of the horizon, so a second copy of it would show."""
    horizon = 200_000
    config = validate_config({
        "schema_version": 1, "horizon": horizon, "seeds": [0],
        "instance": {
            "num_arms": 8, "num_agents": 4,
            "arm_sets": [[0, 2, 3, 6], [0, 3, 4, 7], [1, 4, 5, 6],
                         [1, 2, 5, 7]],
            "means": [0.9, 0.85, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1]},
        "adversary": {"kind": "gap_flip", "magnitude": 0.5,
                      "budget": 10000.3},
        "algorithm": {"lam_scale": 64}})
    agent_rounds = horizon * config.instance.num_agents
    tracemalloc.start()
    try:
        result = execute_run(config, 0, backend="numpy", trace=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(e.length for e in result.epochs) >= horizon / 2
    assert result.pulls.shape == (horizon, config.instance.num_agents)
    assert peak / agent_rounds <= 28


#: three agents over eight arms; agents 0 and 1 hold four each, so their
#: rows of the padded arm table end in four pads.  Every arm has two
#: holders, so in epoch 4 a bad arm's bracket is [2**-18, 2**-4] and an
#: active arm's is [3 / (4 n), 1 / n], n the agent's active count.
RAGGED = {"num_arms": 8, "num_agents": 3,
          "arm_sets": [[0, 1, 2, 3], [4, 5, 6, 7], list(range(8))],
          "means": [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2]}
#: a horizon whose fourth and last epoch is 6 rounds long
RAGGED_HORIZON = 14630
#: per agent, an epoch-4 state inside every bracket and gap range
CLEAN_EPOCH_4 = [{"probs": [0.25] * 4, "active": [True] * 4,
                  "gaps": [1.0] * 4, "fallback": False}] * 2 + [
    {"probs": [0.125] * 8, "active": [True] * 8, "gaps": [1.0] * 8,
     "fallback": False}]


def enter_epoch_4(monkeypatch, fields):
    """Make the agents of every run of ``RAGGED`` enter epoch 4 with
    ``CLEAN_EPOCH_4`` updated by ``fields`` (agent -> AgentState fields)."""
    advance_epoch = engine.advance_epoch

    def advance(state, *args, **kwargs):
        advance_epoch(state, *args, **kwargs)
        if state.epoch == 4:
            for name, value in {**CLEAN_EPOCH_4[state.ell],
                                **fields.get(state.ell, {})}.items():
                setattr(state, name, value if name == "fallback"
                        else np.array(value))

    monkeypatch.setattr(engine, "advance_epoch", advance)


def run_ragged():
    inst = build_instance(RAGGED)
    sched = build_schedule(inst, RAGGED_HORIZON, delta=0.05, lam_scale=16)
    assert sched.num_epochs == 4
    return run_single(inst, sched, make_adversary(None), 0, backend="numpy")


def test_each_agent_posts_once_per_epoch(monkeypatch):
    """Each epoch's kernel call is followed by L posts, post k carrying
    agent k's arms, so the log's count is L per completed epoch."""
    events = []
    run_segment, post = engine.run_segment, MessageLog.post

    def segment(*args, **kwargs):
        events.append("epoch")
        return run_segment(*args, **kwargs)

    def spy(log, broadcast):
        events.append(broadcast.arms.tolist())
        post(log, broadcast)

    monkeypatch.setattr(engine, "run_segment", segment)
    monkeypatch.setattr(MessageLog, "post", spy)
    inst = build_instance(RAGGED)
    sched = build_schedule(inst, RAGGED_HORIZON, delta=0.05, lam_scale=16)
    result = run_single(inst, sched, make_adversary(ADVERSARIES[2]), 0,
                        backend="numpy")
    assert result.corruption["C"] > 0
    assert events == (["epoch"] + RAGGED["arm_sets"]) * sched.num_epochs
    assert result.comm_cost == inst.num_agents * sched.num_epochs


THREE_ACTIVE = [True, True, True, False]


@pytest.mark.parametrize("fields,brackets,gap_range", [
    ({}, 0, 0),
    ({0: {"probs": [(1 - 1e-7) / 3] * 3 + [1e-7], "active": THREE_ACTIVE}},
     1, 0),
    ({0: {"probs": [0.3, 0.3, 0.3, 0.1], "active": THREE_ACTIVE}}, 1, 0),
    ({2: {"probs": [0.3, 0.3, 0.2] + [0.04] * 5,
          "active": [True] * 3 + [False] * 5}}, 1, 0),
    ({1: {"probs": [0.34, 0.3, 0.3, 0.06], "active": THREE_ACTIVE}}, 1, 0),
    ({0: {"probs": [0.3, 0.3, 0.3, 0.1], "active": THREE_ACTIVE,
          "fallback": True}}, 0, 0),
    ({0: {"probs": [0.3, 0.3, 0.3, 0.1], "active": THREE_ACTIVE},
      1: {"probs": [0.34, 0.3, 0.3, 0.06], "active": THREE_ACTIVE},
      2: {"probs": [0.3, 0.3, 0.2] + [0.04] * 5,
          "active": [True] * 3 + [False] * 5}}, 3, 0),
    ({1: {"gaps": [0.1, 1.0, 1.0, 2.0]},
      2: {"gaps": [0.0] + [1.0] * 7, "fallback": True}}, 0, 3),
], ids=["clean", "bad-below", "bad-above", "active-below", "active-above",
        "fallback-skipped", "three-agents", "gap-range"])
def test_epoch_start_counts_each_violation_once(monkeypatch, fields,
                                                brackets, gap_range):
    """Each probability outside its bracket counts once, on agents off
    the fallback; each gap outside [GAP_FLOOR, GAP_CAP] counts once, on
    every agent; the pads of a short arm set never count."""
    enter_epoch_4(monkeypatch, fields)
    epoch = run_ragged().epochs[3]
    assert epoch.prob_bracket_violations == brackets
    assert epoch.gap_range_violations == gap_range


#: a hard-invariant breach at the start of epoch 4 and its message
BREACHES = [
    pytest.param({1: {"probs": [0.375] * 4}}, "probability simplex: agent "
                 "1 epoch 4: sum(p) = 1.5", id="off-simplex"),
    pytest.param({1: {"probs": [0.5, 0.5, 0.0, 0.0]}}, "positive "
                 "probabilities: agent 1 epoch 4 has a nonpositive entry",
                 id="zero-entry"),
    pytest.param({2: {"probs": [0.25] * 4 + [0.125] * 2 + [-0.125] * 2}},
                 "positive probabilities: agent 2 epoch 4 has a nonpositive "
                 "entry", id="negative-entry"),
    pytest.param({1: {"probs": [0.75, 0.75, 0.0, 0.0]}}, "probability "
                 "simplex: agent 1 epoch 4: sum(p) = 1.5", id="simplex-first"),
    pytest.param({1: {"probs": [0.5, 0.5, 0.0, 0.0]},
                  2: {"probs": [0.25] * 8}}, "positive probabilities: agent "
                 "1 epoch 4 has a nonpositive entry", id="first-agent"),
    pytest.param({0: {"probs": [0.375] * 4},
                  1: {"probs": [0.5, 0.5, 0.0, 0.0]}}, "probability "
                 "simplex: agent 0 epoch 4: sum(p) = 1.5",
                 id="first-agent-simplex"),
]


@pytest.mark.parametrize("fields,message", BREACHES)
def test_epoch_start_raises_for_the_first_breach(monkeypatch, fields,
                                                 message):
    enter_epoch_4(monkeypatch, fields)
    with mock.patch.object(engine, "run_segment", wraps=run_segment) as \
            kernel, pytest.raises(InvariantError) as raised:
        run_ragged()
    assert str(raised.value) == message
    assert kernel.call_count == 3  # epoch 4's never ran


@pytest.mark.parametrize("fields,message", BREACHES[:2])
def test_breach_exits_3(monkeypatch, tmp_path, capsys, fields, message):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({
        "schema_version": 1, "name": "breach", "instance": RAGGED,
        "algorithm": {"lam_scale": 16}, "horizon": RAGGED_HORIZON,
        "seeds": [0], "output_dir": str(tmp_path)}))
    enter_epoch_4(monkeypatch, fields)
    assert main(["run", str(path), "--backend", "numpy"]) == 3
    assert capsys.readouterr().err == f"invariant violated: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]


def test_epoch_start_closes_each_cdf_at_one():
    """Ten probabilities of 0.1 sum to 0.9999999999999999; the CDF's last
    held entry is raised to 1.0, the pads after it are at least 1.0, and
    every other entry is the plain cumulative sum."""
    inst = build_instance({"num_arms": 10, "num_agents": 3,
                           "arm_sets": [list(range(10)), [0, 5], [3]],
                           "means": np.linspace(0.9, 0.1, 10).tolist()})
    states = [init_epoch1(inst, ell) for ell in range(3)]
    assert np.cumsum(states[0].probs)[-1] == 0.9999999999999999
    cdf = engine._epoch_start(states, 1, inst)[2]
    for ell, state in enumerate(states):
        n = len(state.arms)
        assert np.array_equal(cdf[ell, :n - 1], np.cumsum(state.probs)[:-1])
        assert cdf[ell, n - 1] == 1.0
        assert (cdf[ell, n:] >= 1.0).all()
