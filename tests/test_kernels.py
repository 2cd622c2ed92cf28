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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from draa import kernels
from draa.kernels import BACKENDS, SegmentPlan, run_segment
from draa.rng import _mix64_np, stream_prefix, uniform_array

from conftest import Traced, assert_identical, run_plan, trace_rows, traced

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
    # each agent's charges in round order, as the loop kernel adds them
    corruption = np.array([np.cumsum(charges[a:b], axis=0)[-1]
                           for a, b in bounds])

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
    """Blocks of at most ``cells`` cells, which also bound the whole
    segments that share a group; None keeps the kernel's cap."""
    if cells is None:
        return contextlib.nullcontext()
    return mock.patch.object(kernels, "_BLOCK_CELLS", cells)


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


@pytest.mark.parametrize("L", [1, 4, 64])
def test_rounds_beyond_block_and_default_block(L):
    """Groups of several blocks at the kernel's own caps: each block draws
    its pulls, and each segment's rows are reduced whole."""
    rng = np.random.default_rng(7)
    plan = make_plan(rng, L, 1, 3 * kernels._BLOCK_CELLS // L + 5, True,
                     spent=0.0, budget_frac=0.4, num_cuts=3)
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


def test_groups_are_segments_in_one_block_or_one_segment():
    """Every group the numpy kernel draws is either whole segments within
    one block's rounds or a single segment, however long, over random
    cuts and caps; each kind occurs, and every result is the oracle's."""
    kinds = set()

    @given(seed=st.integers(0, 2**32 - 1), L=st.sampled_from([1, 3, 64]),
           t_len=st.integers(1, 150), num_cuts=st.integers(1, 60),
           block_cells=st.sampled_from([None, 1, 37]))
    @example(seed=0, L=1, t_len=150, num_cuts=10, block_cells=37)
    @example(seed=0, L=3, t_len=60, num_cuts=2, block_cells=37)
    @example(seed=0, L=1, t_len=1, num_cuts=1, block_cells=1)
    @settings(max_examples=40, deadline=None)
    def walk(seed, L, t_len, num_cuts, block_cells):
        rng = np.random.default_rng(seed)
        # at most 3 arms per agent, so that many segments' bins fit a block
        plan = make_plan(rng, L, 1 + seed % 5000, t_len, seed % 2 == 1,
                         spent=0.5, budget_frac=0.7, max_local=3,
                         num_cuts=num_cuts)
        with caps(block_cells), mock.patch.object(
                kernels, "_draw_group", wraps=kernels._draw_group) as draw:
            assert_same(plan)
        for call in draw.call_args_list:
            ws, slot, bounds = call.args[1], call.args[3], call.args[6]
            assert len(bounds) == 1 or slot.shape[1] <= ws.rows
            kinds.add("shared" if len(bounds) > 1
                      else "long" if slot.shape[1] > ws.rows else "one")

    walk()
    assert kinds == {"shared", "long", "one"}


@pytest.mark.parametrize("edits", ["none", "gap_flip", "gap_flip-budget"])
@pytest.mark.parametrize("beta", [False, True])
@pytest.mark.parametrize("cut_every", [1, 7, "uneven"])
@pytest.mark.parametrize("L", [1, 4, 64])
def test_many_segments_per_group_at_default_caps(L, cut_every, beta, edits):
    """At the kernel's own caps a group holds many whole segments, folded
    in array passes: cuts every round, every 7 rounds or at uneven places
    over two groups and more.  With gap_flip-style targets the budget may
    close inside a group that holds several segments."""
    rows = max(1, kernels._BLOCK_CELLS // L)
    t_len = 2 * rows + 11
    rng = np.random.default_rng(1000 + L)
    plan = make_plan(rng, L, 2**32 + 3, t_len, beta, spent=1.3,
                     budget_frac=1.0, num_arms=12, max_local=8, pad=1,
                     means=np.linspace(0.1, 0.9, 12))
    if cut_every == "uneven":
        lengths = np.resize([1, 2, 9, 3, 40, 1, 17], t_len)
        ends = np.cumsum(lengths)
        cuts = np.append(ends[ends < t_len], t_len)
    else:
        cuts = np.append(np.arange(cut_every, t_len, cut_every), t_len)
    plan.cuts = plan.t_start - 1 + np.unique(cuts)
    if edits == "none":
        plan.targets[:] = -1
    else:
        sizes = (plan.arms >= 0).sum(axis=1)
        plan.targets[:, 0] = plan.arms[np.arange(L), sizes - 1]
        plan.targets[:, 1] = np.where(sizes > 1, plan.arms[:, 0], -1)
        plan.pushes[:] = [-0.3719, 0.2903]
    unbudgeted = _oracle_segment(dataclasses.replace(plan, budget=np.inf))
    if edits == "gap_flip-budget":
        # closes in the middle of the first group, which holds several
        # segments
        charges = _cell_charges(plan).reshape(-1)
        cell = (rows // 2) * L
        plan = dataclasses.replace(
            plan, budget=plan.spent + charges[:cell].sum())
    else:
        plan = dataclasses.replace(plan, budget=np.inf)
    old = assert_same(plan)
    assert plan.cuts.size > 2 * (t_len // (rows + 1))
    assert (np.searchsorted(plan.cuts, plan.t_start - 1 + rows,
                            "right") > 1)
    if edits == "gap_flip-budget":
        assert not old.adv_active
        assert 0.0 < old.corruption.sum() < unbudgeted.corruption.sum()
    else:
        assert old.adv_active


def _cell_charges(plan):
    """Each (round, agent) cell's charge with no budget, from the oracle
    cut at every round."""
    every_round = np.arange(plan.t_start, plan.t_end + 1)
    return _oracle_segment(dataclasses.replace(
        plan, cuts=every_round, budget=np.inf, spent=0.0)).corruption


@pytest.mark.parametrize("where", ["short", "long", "cut"])
@pytest.mark.parametrize("block_cells", [1, 37, 4096,
                                         kernels._BLOCK_CELLS])
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
    """(agent, row, segment rounds) of the first overrun, blocks of 5
    rounds.

    With six 5-round segments, each a block: each agent of a round in
    the middle of the third, or of its last round.  With one 30-round
    segment drawn block by block: the first cell of its third block,
    and the last cell of that block, which does not end the segment.
    """
    for last in (False, True):
        for agent in range(3):
            yield pytest.param(agent, 14 if last else 12, 5,
                               id=f"{agent}-{last}")
    yield pytest.param(0, 10, 30, id="block-start")
    yield pytest.param(2, 14, 30, id="block-end")


@pytest.mark.parametrize("agent,row,segment", _gate_positions())
def test_gate_closes_at_every_agent_position(agent, row, segment):
    """The first overrun falls on the given cell, after two earlier
    blocks carried the spend.  From that cell on, round-major, the
    numpy kernel delivers clean rewards and charges nothing, as the
    oracle does."""
    L, block = 3, 5
    rng = np.random.default_rng(31)
    plan = make_plan(rng, L, 2**32 + 9, 6 * block, True, spent=2.3,
                     budget_frac=1.0, num_arms=12, max_local=8, pad=1,
                     means=np.linspace(0.1, 0.9, 12))
    plan.cuts = plan.t_start - 1 + np.arange(segment, 6 * block + 1, segment)
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
    with caps(block * L):
        old = assert_same(plan)
    assert old.spent == cum[cell - 1] and not old.adv_active
    observed, clean = old.observed.reshape(-1), old.clean.reshape(-1)
    assert np.array_equal(observed[cell:], clean[cell:])
    assert not np.array_equal(observed[:cell], clean[:cell])


_BUCKET = 2.0 ** -kernels._GUIDE_BITS  # one guide bucket's share of [0, 1)


def _search_cdf(rng, L, max_width, pad):
    """(L, kmax) CDF rows that stress the pull search: rows of 1 to
    ``max_width`` arms whose entries lie on bucket edges, on multiples of
    2**-53 next to them, at tiny values or anywhere, closed at 1.0 or a
    few ulps above from the last arm on, then ``pad`` columns more."""
    widths = rng.integers(1, max_width + 1, size=L)
    kmax = int(widths.max()) + pad
    cdf = np.empty((L, kmax))
    for ell, n in enumerate(widths):
        edges = rng.integers(0, 257, n) * _BUCKET
        pools = (edges, edges + rng.integers(-3, 4, n) * 2.0**-53,
                 rng.choice([5e-324, 1e-300, 2.0**-60, 2.0**-53, 3 * 2.0**-53,
                             0.0], n),
                 rng.random(n) * _BUCKET * rng.integers(1, 257, n))
        row = np.sort(np.clip(np.choose(rng.integers(0, 4, n), pools), 0, 1))
        tail = 1.0
        for _ in range(int(rng.integers(0, 4))):
            tail = np.nextafter(tail, 2.0)
        cdf[ell, :n - 1] = row[:n - 1]
        cdf[ell, n - 1:] = np.maximum.accumulate(
            tail + rng.integers(0, 3, kmax - n + 1) * 2.0**-52)
    return cdf


def _search_hashes(rng, cdf):
    """(L, n) pull hashes whose top 53 bits are 0, 2**53 - 1, each of the
    row's thresholds ceil(c * 2**53) less 1, at it and 1 above, each
    bucket edge and the hash below it, then random; low bits random."""
    top = 2**53 - 1
    thresholds = np.ceil(np.minimum(cdf, 1.0) * 2.0**53).astype(np.int64)
    edges = np.arange(257, dtype=np.int64) << (53 - kernels._GUIDE_BITS)
    rows = [np.concatenate(([0, top], thresholds[ell] - 1, thresholds[ell],
                            thresholds[ell] + 1, edges, edges - 1))
            for ell in range(cdf.shape[0])]
    n = max(map(len, rows)) + 8
    bits = rng.integers(0, 2**53, size=(cdf.shape[0], n))
    for ell, row in enumerate(rows):
        bits[ell, :len(row)] = np.clip(row, 0, top)
    low = rng.integers(0, 2**11, size=bits.shape)
    return bits.astype(np.uint64) << np.uint64(11) | low.astype(np.uint64)


def assert_search_exact(cdf, hashes):
    """The workspace's guided search of ``hashes`` gives the float binary
    search of their uniforms in each CDF row, offset by ``ell * kmax``;
    returns the workspace."""
    L, kmax = cdf.shape
    ws = kernels.Workspace(L, [(1, np.array([1]))], np.zeros((0, 0)))
    ws.index(cdf)
    slot = np.empty(hashes.shape, dtype=np.int64)
    ws.search(hashes, slot)
    uniforms = (hashes >> np.uint64(11)).astype(np.int64) * 2.0**-53
    for ell in range(L):
        expected = np.searchsorted(cdf[ell], uniforms[ell], "right")
        np.testing.assert_array_equal(slot[ell] - ell * kmax, expected,
                                      err_msg=f"row {ell}")
    return ws


@given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 8),
       max_width=st.sampled_from([1, 3, 40, 300]), pad=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_guided_pull_search_is_exact(seed, L, max_width, pad):
    """Rows up to 300 arms wide, some with more thresholds than buckets;
    entries on bucket edges, on multiples of 2**-53 or tiny; tails of 1.0
    and a few ulps above; hashes at 0, at the top, around every threshold
    and at every bucket edge."""
    rng = np.random.default_rng(seed)
    cdf = _search_cdf(rng, L, max_width, pad)
    assert_search_exact(cdf, _search_hashes(rng, cdf))


@pytest.mark.parametrize("seed", range(2))
def test_guided_pull_search_past_one_key_run(seed):
    """1100 rows: a row offset of 1100 * 2**53 would overflow int64, and
    rows from 1023 on search a second run of keys."""
    rng = np.random.default_rng(seed)
    cdf = _search_cdf(rng, 1100, 6, 1)
    hashes = _search_hashes(rng, cdf)
    ws = assert_search_exact(cdf, hashes)
    # both runs hold cells that the key search placed
    buckets = (hashes >> np.uint64(64 - kernels._GUIDE_BITS)).astype(np.int64)
    split = np.take_along_axis(ws.guide.reshape(1100, -1), buckets, 1) < 0
    assert split[:kernels._KEY_ROWS].any() and split[kernels._KEY_ROWS:].any()


def _pull_buckets(plan):
    """The guide bucket of each (agent, round) pull hash of ``plan``."""
    ts = np.arange(plan.t_start, plan.t_end + 1, dtype=np.uint64)
    h = _oracle_mix64(np.uint64(plan.pull_prefix) ^ ts)
    agents = np.arange(plan.arms.shape[0], dtype=np.uint64)[:, None]
    h = _oracle_mix64(_oracle_mix64(h ^ agents) ^ np.uint64(0))
    return (h >> np.uint64(64 - kernels._GUIDE_BITS)).astype(np.int64)


def test_reused_workspace_indexes_every_plan():
    """Plans with other CDFs and widths, one of 300 arms, more than the
    guide's 256 buckets, run through one workspace: each equals a run on
    a fresh workspace, and the loop kernel's pulls and rewards, bit for
    bit.  Most cells of the wide plan take the key search, the rest the
    guide."""
    L, t_len = 5, 300
    rng = np.random.default_rng(19)
    narrow = [make_plan(rng, L, 1 + 400 * i, t_len, False, spent=0.0,
                        budget_frac=0.5, num_arms=400) for i in range(3)]
    # 300 arms per agent: one of them holds 0.4 of the mass and the rest
    # share 0.6, so each of their buckets holds a threshold
    arms = np.sort((7 * np.arange(L)[:, None] + np.arange(300)) % 400, axis=1)
    p = np.full((L, 300), 0.6 / 299)
    p[np.arange(L), rng.integers(0, 300, L)] = 0.4
    cdf = np.cumsum(p, axis=1)
    cdf[:, -1] = 1.0
    wide = dataclasses.replace(
        narrow[1], t_start=1201, cuts=np.array([1200 + t_len]), arms=arms,
        cdf=cdf, best_means=narrow[1].means[arms].max(axis=1),
        targets=arms[:, [0, 5]], pushes=np.tile([0.3, -0.3], (L, 1)))
    plans = [narrow[0], wide, narrow[1], wide, narrow[2]]
    ws = kernels.Workspace(L, [(p.t_start, p.cuts) for p in plans],
                           np.zeros((0, 0)))
    for plan in plans:
        rows = trace_rows(plan)
        reused = run_segment(plan, backend="numpy", trace=rows, workspace=ws)
        reused = Traced(**vars(reused), pulls=rows[0], observed=rows[1],
                        clean=rows[2])
        assert_identical(reused, traced(plan, "numpy"))
        loop = traced(plan, "numba")
        for name in ("pulls", "observed", "clean", "reward_sums",
                     "pull_counts", "spent", "adv_active"):
            assert np.array_equal(getattr(reused, name),
                                  getattr(loop, name)), name
    ws.index(wide.cdf)
    guide = ws.guide.reshape(L, -1)
    split = np.take_along_axis(guide, _pull_buckets(wide), 1) < 0
    assert 0.5 < split.mean() < 1.0


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
    """The kernel's peak, its own workspace included, per (round, agent)
    cell.  Narrow, within 34 B: the group's slots and rewards at 8 B a
    cell, its rounds, the Beta steps and one block's arrays, the charges
    among them (31 B); one more group-sized array of 8 B a cell, such as
    the group's charges, would exceed the bound.  Wide, within 42 B:
    slots and rewards, the blocks and the pull search's guide and keys."""
    plan = _narrow_plan() if layout == "narrow" else _wide_plan()
    tracemalloc.start()
    try:
        result = kernels.run_segment_numpy(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if layout == "narrow":
        assert not result.adv_active and 0 < result.spent <= plan.budget
    bound = 34 if layout == "narrow" else 42
    assert peak / plan.arms.shape[0] / plan.t_end <= bound


@pytest.mark.parametrize("L", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", range(12))
def test_corruption_rows_match_the_loop_kernel(L, seed):
    """The numpy kernel's per-segment charges, the last row of a
    ``cumsum`` over round-major (rounds, L) rows, add each agent's column
    in round order, as the loop kernel's running sums do, so the rows
    agree bit for bit at every L, a single agent's included."""
    rng = np.random.default_rng(seed)
    plan = make_plan(rng, L, 1 + seed, 120, True, spent=0.7,
                     budget_frac=0.8, num_cuts=4)
    loop, vec = (traced(plan, backend) for backend in BACKENDS)
    assert np.count_nonzero(vec.corruption) > 1
    assert np.array_equal(loop.corruption, vec.corruption)


@pytest.mark.parametrize("budget_frac", [0.9, 1.2])
@pytest.mark.parametrize("seed", range(4))
def test_corruption_rows_carried_across_blocks(seed, budget_frac):
    """Blocks of 7 rounds, so short segments share one and segments
    longer than 7 rounds are drawn block by block: each block's charges
    are added into their segments' rows as it is gated, a long segment's
    carried from its earlier blocks, and every row matches the oracle
    bit for bit, whether or not the budget closes."""
    L = 3
    rng = np.random.default_rng(100 + seed)
    plan = make_plan(rng, L, 1 + seed, 100, seed % 2 == 1, spent=0.4,
                     budget_frac=budget_frac, num_cuts=12)
    assert np.diff(plan.cuts).max() > 7
    with caps(7 * L):
        old = assert_same(plan)
    assert np.count_nonzero(old.corruption.sum(axis=1)) > 4
    assert old.adv_active == (budget_frac > 1)


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
