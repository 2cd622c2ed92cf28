"""End-to-end engine behavior: backend equivalence, independence from
checkpoint placement, invariant bookkeeping, and structural reductions.

``backend="numba"`` runs the scalar loop kernel, compiled or, without
numba, as plain Python; it is the reference the numpy kernel must match.
"""
import numpy as np
import pytest

from draa import engine
from draa.adversary import make_adversary
from draa.agents import build_schedule
from draa.engine import default_checkpoints, run_single
from draa.kernels import run_segment
from draa.model import build_instance

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
    every_7 = range(7, sched.horizon + 1, 7)
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
    ts = [cp.t for cp in result.checkpoints]
    assert ts == sorted(ts)
    assert ts[-1] == sched.horizon
    regrets = [cp.total_regret for cp in result.checkpoints]
    assert all(b >= a - 1e-12 for a, b in zip(regrets, regrets[1:]))
    assert regrets[-1] == pytest.approx(result.total_regret)


def test_comm_cost_is_l_times_epochs():
    inst = small_instance()
    sched = small_schedule(inst)
    result = run_single(inst, sched, make_adversary(None), 2,
                        backend="numpy")
    assert result.comm_cost == inst.num_agents * result.num_epochs


def test_regret_upper_bound():
    inst = small_instance()
    sched = small_schedule(inst)
    result = run_single(inst, sched, make_adversary(None), 2,
                        backend="numpy")
    worst_gap = max(float(inst.means[best] - inst.means[list(arms)].min())
                    for arms, best in zip(inst.arm_sets, inst.best_arms))
    assert result.total_regret <= sched.horizon * inst.num_agents * worst_gap


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


def test_default_checkpoints_cover_epoch_ends():
    inst = small_instance()
    sched = small_schedule(inst)
    marks = default_checkpoints(sched)
    for m in range(1, sched.num_epochs + 1):
        assert sched.epoch_bounds(m)[1] in marks


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
    assert [(p.t_start, p.t_end) for p in plans] == [
        sched.epoch_bounds(m) for m in range(1, sched.num_epochs + 1)]
    assert [cp.t for cp in result.checkpoints] == marks
