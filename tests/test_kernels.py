"""The numpy segment kernel against its per-agent predecessor, bit for bit,
and both kernels against themselves cut anywhere.

``_oracle_segment`` is the numpy kernel as it was before it drew all
agents in one pass: one agent at a time, every draw hashed from the
stream prefix.  Its budget gate is a cumsum over ``[spent, *c]``, the
loop kernel's running sum, and it reduces each cut segment on its own.
The vectorized kernel must reproduce every field of its
``SegmentResult`` and every traced row exactly.  Every plan keeps the
adversary's edit contract: each target is -1 or one of its agent's arms,
and an agent's two targets differ.
"""
import contextlib
import dataclasses
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draa import kernels
from draa.kernels import BACKENDS, SegmentPlan, run_segment
from draa.rng import _mix64_np, stream_prefix, uniform_array

from conftest import Traced, assert_identical, run_plan, traced

_U64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_U64_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MUL2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0 ** -53


def _oracle_mix64(x):
    with np.errstate(over="ignore"):
        x = x + _U64_GAMMA
        x = (x ^ (x >> np.uint64(30))) * _U64_MUL1
        x = (x ^ (x >> np.uint64(27))) * _U64_MUL2
    return x ^ (x >> np.uint64(31))


def _oracle_uniform(prefix, t, agent, arm):
    h = _oracle_mix64(np.uint64(prefix) ^ t)
    h = _oracle_mix64(h ^ np.uint64(agent))
    h = _oracle_mix64(h ^ np.asarray(arm, dtype=np.uint64))
    return (h >> np.uint64(11)) * _INV_2_53


def _oracle_reward(model, means, arms, u, table):
    if model == 0:
        return (u < means[arms]).astype(np.float64)
    n = table.shape[1]
    pos = u * (n - 1)
    idx = np.minimum(pos.astype(np.int64), n - 2)
    frac = pos - idx
    lo = table[arms, idx]
    hi = table[arms, idx + 1]
    return lo + (hi - lo) * frac


def _oracle_segment(plan):
    L, kmax = plan.arms.shape
    t_len = plan.t_end - plan.t_start + 1
    ts = np.arange(plan.t_start, plan.t_end + 1, dtype=np.uint64)
    reward_sums = np.zeros((L, kmax))
    pull_counts = np.zeros((L, kmax), dtype=np.int64)
    regret = np.zeros((plan.cuts.size, L))
    charges = np.zeros((t_len, L))

    pulled_idx = np.empty((t_len, L), dtype=np.int64)
    pulled_arm = np.empty((t_len, L), dtype=np.int64)
    clean = np.empty((t_len, L))
    for ell in range(L):
        u_pull = _oracle_uniform(plan.pull_prefix, ts, ell, 0)
        idx = np.searchsorted(plan.cdf[ell], u_pull, side="right")
        arm = plan.arms[ell, idx]
        u_env = _oracle_uniform(plan.env_prefix, ts, ell, arm)
        pulled_idx[:, ell] = idx
        pulled_arm[:, ell] = arm
        clean[:, ell] = _oracle_reward(plan.reward_model, plan.means, arm,
                                       u_env, plan.beta_table)

    observed = clean.copy()
    spent = plan.spent
    adv_active = plan.adv_active

    if adv_active and np.any(plan.targets >= 0):
        contrib = np.zeros((t_len, L))
        delivered = clean.copy()
        for ell in range(L):
            for j in range(2):
                k = int(plan.targets[ell, j])
                if k < 0:
                    continue
                u_env = _oracle_uniform(plan.env_prefix, ts, ell, k)
                cj = _oracle_reward(plan.reward_model, plan.means,
                                    np.full(t_len, k, dtype=np.int64), u_env,
                                    plan.beta_table)
                dj = np.clip(cj + plan.pushes[ell, j], 0.0, 1.0)
                contrib[:, ell] = np.maximum(contrib[:, ell], np.abs(dj - cj))
                hit = pulled_arm[:, ell] == k
                delivered[hit, ell] = dj[hit]
        flat = contrib.reshape(-1)
        # the loop kernel's running `spent += c` chain
        cum = np.cumsum(np.concatenate(([plan.spent], flat)))[1:]
        accepted = (cum <= plan.budget)
        first_reject = np.argmax(~accepted) if not accepted.all() else flat.size
        accepted[first_reject:] = False
        accepted = accepted.reshape(t_len, L)
        spent = float(cum[first_reject - 1]) if first_reject > 0 else plan.spent
        adv_active = bool(first_reject == flat.size)
        # an untargeted agent's cells charge 0 and deliver clean rewards
        charges = np.where(accepted, contrib, 0.0)
        observed = np.where(accepted, delivered, observed)

    ends = plan.cuts - plan.t_start + 1
    bounds = list(zip([0, *ends[:-1]], ends))
    for ell in range(L):
        for a, b in bounds:
            reward_sums[ell] += np.bincount(
                pulled_idx[a:b, ell], weights=observed[a:b, ell],
                minlength=kmax)
        pull_counts[ell] = np.bincount(pulled_idx[:, ell], minlength=kmax)
        regret[:, ell] = [plan.best_means[ell] * (b - a)
                          - plan.means[pulled_arm[a:b, ell]].sum()
                          for a, b in bounds]
    corruption = np.array([charges[a:b].sum(axis=0) for a, b in bounds])

    return Traced(
        reward_sums=reward_sums, pull_counts=pull_counts, regret=regret,
        corruption=corruption, spent=float(spent), adv_active=adv_active,
        pulls=pulled_arm, observed=observed, clean=clean,
    )


def make_plan(rng, L, t_start, t_len, beta, spent, budget_frac,
              adv_active=True, num_arms=9, max_local=9, pad=0, means=None,
              num_cuts=1):
    """A random plan over ``t_len`` rounds cut at ``num_cuts`` random
    rounds, the last one its end; the budget is ``spent`` plus ``budget_frac`` of what the
    adversary would spend over the plan without a budget."""
    sizes = rng.integers(1, max_local + 1, size=L)
    kmax = int(sizes.max()) + pad
    arms = np.full((L, kmax), -1, dtype=np.int64)
    cdf = np.ones((L, kmax))
    for ell, n in enumerate(sizes):
        arms[ell, :n] = np.sort(rng.choice(num_arms, size=n, replace=False))
        p = rng.random(n) ** 3
        p[rng.random(n) < 0.2] = 0.0
        if p.sum() == 0.0:
            p[-1] = 1.0
        cdf[ell, :n] = np.cumsum(p / p.sum())
        if rng.random() < 0.2:  # a CDF short of 1: the last arm takes the rest
            cdf[ell, :n] *= 0.8
        # closed as the engine closes it: at least 1.0 from the last arm on
        cdf[ell, n - 1] = max(cdf[ell, n - 1], 1.0)
    if means is None:
        means = rng.random(num_arms)
        means[rng.random(num_arms) < 0.15] = 0.0
        means[rng.random(num_arms) < 0.15] = 1.0
    table = np.zeros((0, 0))
    if beta:
        width = int(rng.integers(2, 40))
        table = np.sort(rng.random((num_arms, width)), axis=1)
        table[:, 0], table[:, -1] = 0.0, 1.0
    # targets: each slot -1 or one of the agent's arms, the two distinct
    targets = np.full((L, 2), -1, dtype=np.int64)
    for ell, n in enumerate(sizes):
        picks = rng.permutation(arms[ell, :n])[:2]
        named = rng.random(picks.size) < 0.8
        targets[ell, :picks.size][named] = picks[named]
    t_end = t_start + t_len - 1
    plan = SegmentPlan(
        t_start=t_start, cuts=np.array([t_end]),
        env_prefix=stream_prefix(int(rng.integers(2**63)), 0),
        pull_prefix=stream_prefix(int(rng.integers(2**63)), 2),
        arms=arms, cdf=cdf, means=means,
        best_means=np.array([means[arms[ell, :n]].max()
                             for ell, n in enumerate(sizes)]),
        reward_model=int(beta), beta_table=table, targets=targets,
        pushes=rng.uniform(-1.0, 1.0, size=(L, 2)) * 0.7,
        budget=np.inf, spent=spent, adv_active=adv_active,
    )
    if num_cuts > 1 and t_len > 1:
        inner = rng.choice(t_len - 1, size=min(num_cuts, t_len) - 1,
                           replace=False)
        plan.cuts = np.append(np.sort(inner) + t_start, t_end)
    unbudgeted = _oracle_segment(plan).corruption.sum()
    return dataclasses.replace(plan, budget=spent + budget_frac * unbudgeted)


def caps(cells):
    """Groups and blocks of at most ``cells`` cells each, as one constant
    capped both before they were split; None keeps the kernel's caps."""
    if cells is None:
        return contextlib.nullcontext()
    return mock.patch.multiple(kernels, _GROUP_CELLS=cells,
                               _BLOCK_CELLS=cells)


def assert_same(plan):
    old = _oracle_segment(plan)
    assert_identical(traced(plan, "numpy"), old)
    return old


@given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 64),
       t_start=st.one_of(st.integers(1, 10**6), st.integers(2**32, 2**40)),
       t_len=st.integers(1, 300), beta=st.booleans(),
       spent=st.sampled_from([0.0, 0.1, 3.7, 41.3]),
       budget_frac=st.floats(0.0, 1.2), adv_active=st.booleans(),
       pad=st.integers(0, 2), num_cuts=st.integers(1, 40),
       block_cells=st.sampled_from([None, 1, 37, 256]))
@settings(max_examples=150, deadline=None)
def test_matches_per_agent_oracle(seed, L, t_start, t_len, beta, spent,
                                  budget_frac, adv_active, pad, num_cuts,
                                  block_cells):
    rng = np.random.default_rng(seed)
    plan = make_plan(rng, L, t_start, t_len, beta, spent, budget_frac,
                     adv_active=adv_active, pad=pad, num_cuts=num_cuts)
    with caps(block_cells):
        assert_same(plan)


@pytest.mark.parametrize("beta", [False, True])
@pytest.mark.parametrize("L", [1, 3, 64])
def test_budget_crossed_inside_ragged_blocks(L, beta):
    """Every listed case at once, each asserted to occur: ragged arm sets
    with -1 padding, a non-dyadic budget crossed mid-segment from
    ``spent > 0``, agents with one target and with none, several blocks
    with a partial last one, and rounds beyond 2**32."""
    block_cells = 448
    rows = block_cells // L
    rng = np.random.default_rng(2024 + L)
    plan = make_plan(rng, L, 2**32 + 17, 2 * rows + 3, beta, spent=12.3,
                     budget_frac=0.55, num_arms=12, max_local=8, pad=1,
                     means=np.linspace(0.1, 0.9, 12))
    plan.targets[-1] = [plan.arms[-1, 0], -1]
    plan.pushes[-1] = [-0.37, 0.29]
    if L > 1:
        plan.targets[0] = [-1, -1]
    plan = dataclasses.replace(
        plan, budget=plan.spent + 0.55 * _oracle_segment(plan).corruption.sum())
    with caps(block_cells):
        old = assert_same(plan)
    assert (plan.t_end - plan.t_start + 1) % rows != 0
    assert (plan.arms == -1).any()
    assert not old.adv_active and old.spent > plan.spent
    assert 0.0 < old.corruption.sum() < plan.budget
    assert not np.array_equal(old.observed, old.clean)


def test_rounds_beyond_block_and_default_block():
    rng = np.random.default_rng(7)
    plan = make_plan(rng, 4, 1, 3 * kernels._BLOCK_CELLS // 4 + 5, True,
                     spent=0.0, budget_frac=0.4)
    assert_same(plan)


@given(seed=st.integers(0, 2**32 - 1), L=st.sampled_from([1, 3, 64]),
       t_len=st.integers(1, 150), beta=st.booleans(),
       spent=st.sampled_from([0.0, 2.9]), budget_frac=st.floats(0.0, 1.2),
       num_cuts=st.integers(1, 150),
       block_cells=st.sampled_from([None, 1, 37]))
@settings(max_examples=40, deadline=None)
def test_cuts_change_no_bit(seed, L, t_len, beta, spent, budget_frac,
                            num_cuts, block_cells):
    """Both kernels: one call over random cuts equals its chain of
    one-cut calls (``conftest.run_plan``)."""
    rng = np.random.default_rng(seed)
    plan = make_plan(rng, L, 1 + seed % 5000, t_len, beta, spent,
                     budget_frac, num_cuts=num_cuts)
    with caps(block_cells):
        run_plan(plan)


def _cell_charges(plan):
    """Each (round, agent) cell's charge with no budget, from the oracle
    cut at every round."""
    every_round = np.arange(plan.t_start, plan.t_end + 1)
    return _oracle_segment(dataclasses.replace(
        plan, cuts=every_round, budget=np.inf, spent=0.0)).corruption


@pytest.mark.parametrize("where", ["short", "long", "cut"])
@pytest.mark.parametrize("block_cells", [1, 37, kernels._GROUP_CELLS])
@pytest.mark.parametrize("beta", [False, True])
@pytest.mark.parametrize("L", [1, 3, 64])
def test_budget_crossed_inside_a_group_or_at_a_cut(L, beta, block_cells,
                                                   where):
    """Cuts make 1-round segments, segments sharing a group and segments
    longer than a group.  The budget closes inside the 3-round segment
    (which shares its group when a group holds 5 rounds), inside the
    segment longer than a group, or exactly at a cut: spent then equals
    the budget, and the next cell's charge overruns it."""
    rows = max(1, block_cells // L)
    lengths = [1, 1, 3, rows + 2, 1, 2, 5, 1, 4, 1]
    rng = np.random.default_rng(97 + L)
    plan = make_plan(rng, L, 2**32 + 5, sum(lengths), beta, spent=3.7,
                     budget_frac=1.0, num_arms=12, max_local=8, pad=1,
                     means=np.linspace(0.1, 0.9, 12))
    plan.cuts = plan.t_start - 1 + np.cumsum(lengths)
    # as gap_flip: each agent's best arm pushed down, its worst pushed up
    # unless it has only one arm
    sizes = (plan.arms >= 0).sum(axis=1)
    plan.targets[:, 0] = plan.arms[np.arange(L), sizes - 1]
    plan.targets[:, 1] = np.where(sizes > 1, plan.arms[:, 0], -1)
    plan.pushes[:] = [-0.3719, 0.2903]
    flat = _cell_charges(plan).reshape(-1)
    cum = np.cumsum(np.concatenate(([plan.spent], flat)))[1:]
    seg_start = np.concatenate(([0], np.cumsum(lengths)[:-1])) * L
    if where == "cut":
        # the first cut from the fourth on whose next cell is charged
        seg = next(k for k in range(3, len(lengths)) if flat[seg_start[k]])
        cell = seg_start[seg]
        budget = cum[cell - 1]
    else:
        seg = 2 if where == "short" else 3
        cell = next(c for c in range(seg_start[seg] + L, seg_start[seg + 1])
                    if flat[c])
        budget = cum[cell - 1] + 0.5 * flat[cell]
    plan = dataclasses.replace(plan, budget=budget)
    with caps(block_cells):
        result = run_plan(plan)
    assert result.spent == cum[cell - 1] and not result.adv_active
    assert (result.corruption[seg + 1:] == 0).all()
    assert result.corruption[:seg].sum() > 0
    assert budget % 2.0**-20 != 0  # not a dyadic rational of small scale


def _gate_positions():
    """(agent, row, group rounds) of the first overrun, blocks of 5 rounds.

    With 5-round groups: each agent of a round in the middle of the
    third group, or of its last round.  With one 30-round group: the
    first cell of its third block, and the last cell of that block,
    which does not end the group.
    """
    for last in (False, True):
        for agent in range(3):
            yield pytest.param(agent, 14 if last else 12, 5,
                               id=f"{agent}-{last}")
    yield pytest.param(0, 10, 30, id="block-start")
    yield pytest.param(2, 14, 30, id="block-end")


@pytest.mark.parametrize("agent,row,group", _gate_positions())
def test_gate_closes_at_every_agent_position(agent, row, group):
    """The first overrun falls on the given cell, after two earlier
    blocks carried the spend.  From that cell on, round-major, the
    numpy kernel delivers clean rewards and charges nothing, as the
    oracle does."""
    L, block = 3, 5
    rng = np.random.default_rng(31)
    plan = make_plan(rng, L, 2**32 + 9, 6 * block, True, spent=2.3,
                     budget_frac=1.0, num_arms=12, max_local=8, pad=1,
                     means=np.linspace(0.1, 0.9, 12))
    plan.cuts = plan.t_start - 1 + block * np.arange(1, 7)
    sizes = (plan.arms >= 0).sum(axis=1)
    plan.targets[:, 0] = plan.arms[np.arange(L), sizes - 1]
    plan.targets[:, 1] = np.where(sizes > 1, plan.arms[:, 0], -1)
    plan.pushes[:] = [-0.3719, 0.2903]
    # pulls split between the two targets, so corrupted rewards land
    plan.cdf[:] = np.where(np.arange(plan.arms.shape[1]) < sizes[:, None] - 1,
                           0.5, 1.0)
    flat = _cell_charges(plan).reshape(-1)
    cum = np.cumsum(np.concatenate(([plan.spent], flat)))[1:]
    cell = row * L + agent
    assert flat[cell] > 0
    plan = dataclasses.replace(plan, budget=cum[cell - 1] + 0.5 * flat[cell])
    with mock.patch.multiple(kernels, _GROUP_CELLS=group * L,
                             _BLOCK_CELLS=block * L):
        old = assert_same(plan)
    assert old.spent == cum[cell - 1] and not old.adv_active
    observed, clean = old.observed.reshape(-1), old.clean.reshape(-1)
    assert np.array_equal(observed[cell:], clean[cell:])
    assert not np.array_equal(observed[:cell], clean[:cell])


def _narrow_plan():
    """L = 4, Beta, two targets per agent, one 31,250-round segment whose
    budget closes inside it."""
    L, rounds = 4, 31_250
    rng = np.random.default_rng(3)
    arms = np.array([[0, 2, 3, 6], [0, 3, 4, 7], [1, 4, 5, 6], [1, 2, 5, 7]])
    means = np.linspace(0.9, 0.1, 8)
    table = np.sort(rng.random((8, 4097)), axis=1)
    table[:, 0], table[:, -1] = 0.0, 1.0
    return SegmentPlan(
        t_start=1, cuts=np.array([rounds]), env_prefix=stream_prefix(1, 0),
        pull_prefix=stream_prefix(1, 2), arms=arms,
        cdf=np.tile([0.7, 0.8, 0.9, 1.0], (L, 1)), means=means,
        best_means=means[arms].max(axis=1), reward_model=1,
        beta_table=table, targets=arms[:, [0, 3]],
        pushes=np.tile([-0.5, 0.5], (L, 1)), budget=10_000.3, spent=0.0,
        adv_active=True)


def _wide_plan():
    """L = 64, Bernoulli, 128 of 512 arms per agent, no targets, one
    875-round segment: the largest plan of a wide-boundary run."""
    L, K, held, rounds = 64, 512, 128, 875
    arms = np.sort((8 * np.arange(L)[:, None] + np.arange(held)) % K, axis=1)
    means = np.linspace(0.05, 0.95, K)
    cdf = np.cumsum(np.full((L, held), 1.0 / held), axis=1)
    cdf[:, -1] = 1.0
    return SegmentPlan(
        t_start=1, cuts=np.array([rounds]), env_prefix=stream_prefix(1, 0),
        pull_prefix=stream_prefix(1, 2), arms=arms, cdf=cdf, means=means,
        best_means=means[arms].max(axis=1), reward_model=0,
        beta_table=np.zeros((0, 0)), targets=np.full((L, 2), -1),
        pushes=np.zeros((L, 2)), budget=0.0, spent=0.0, adv_active=True)


@pytest.mark.parametrize("layout", ["narrow", "wide"])
def test_numpy_kernel_peak_memory_per_cell(layout):
    """The kernel's peak, its own workspace included, stays within 42 B
    per (round, agent) cell.  Narrow: the group's slots, rewards and
    charges at 8 B a cell, its rounds, the Beta steps and one block's
    arrays; one more group-sized array, such as a transposed copy of the
    charges, would pass the bound.  Wide: slots and rewards, the blocks
    and the binary search's rows."""
    plan = _narrow_plan() if layout == "narrow" else _wide_plan()
    tracemalloc.start()
    try:
        result = kernels.run_segment_numpy(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if layout == "narrow":
        assert not result.adv_active and 0 < result.spent <= plan.budget
    assert peak / plan.arms.shape[0] / plan.t_end <= 42


@pytest.mark.parametrize("L", [2, 3, 5])
@pytest.mark.parametrize("seed", range(12))
def test_corruption_rows_match_the_loop_kernel(L, seed):
    """With two agents or more, the numpy kernel's per-segment charges,
    ``contrib[a:b].sum(axis=0)`` over round-major (rounds, L) rows, add
    each agent's column in round order from 0.0, as the loop kernel's
    running sums do, so the rows agree bit for bit.  With one agent numpy
    sums the (rounds, 1) column pairwise instead, and the last bits may
    differ, so L = 1 is left out."""
    rng = np.random.default_rng(seed)
    plan = make_plan(rng, L, 1 + seed, 120, True, spent=0.7,
                     budget_frac=0.8, num_cuts=4)
    loop, vec = (traced(plan, backend) for backend in BACKENDS)
    assert np.count_nonzero(vec.corruption) > 1
    assert np.array_equal(loop.corruption, vec.corruption)


def test_untraced_result_matches_traced():
    rng = np.random.default_rng(11)
    plan = make_plan(rng, 6, 100, 50, False, spent=1.0, budget_frac=0.5)
    for backend in BACKENDS:
        with_rows = traced(plan, backend)
        plain = run_segment(plan, backend=backend)
        for name, value in vars(plain).items():
            assert np.array_equal(value, getattr(with_rows, name)), name


def test_scalar_mixing_is_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = np.array(2**64 - 1, dtype=np.uint64)
        assert int(_mix64_np(x)) == int(_oracle_mix64(np.uint64(2**64 - 1)))
        prefix = stream_prefix(3, 0)
        drawn = float(uniform_array(prefix, 2**40, 5, 7))
        assert drawn == float(_oracle_uniform(prefix, np.uint64(2**40), 5, 7))
