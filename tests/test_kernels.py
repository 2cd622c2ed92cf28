"""The numpy segment kernel against its per-agent predecessor, bit for bit.

``_oracle_segment`` is the numpy kernel as it was before it drew all
agents in one pass: one agent at a time, every draw hashed from the
stream prefix.  Its budget gate is a cumsum over ``[spent, *c]``, the
loop kernel's running sum.  The vectorized kernel must reproduce every
field of its ``SegmentResult`` exactly, traced arrays included.
"""
import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draa import kernels
from draa.kernels import SegmentPlan, SegmentResult, run_segment_numpy
from draa.rng import _mix64_np, stream_prefix, uniform_array

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


def _oracle_segment(plan, trace=False):
    L, kmax = plan.arms.shape
    t_len = plan.t_end - plan.t_start + 1
    ts = np.arange(plan.t_start, plan.t_end + 1, dtype=np.uint64)
    reward_sums = np.zeros((L, kmax))
    pull_counts = np.zeros((L, kmax), dtype=np.int64)
    regret = np.zeros(L)
    corruption = np.zeros(L)

    pulled_idx = np.empty((t_len, L), dtype=np.int64)
    pulled_arm = np.empty((t_len, L), dtype=np.int64)
    clean = np.empty((t_len, L))
    for ell in range(L):
        n = int(plan.n_local[ell])
        u_pull = _oracle_uniform(plan.pull_prefix, ts, ell, 0)
        idx = np.searchsorted(plan.cdf[ell, :n], u_pull, side="right")
        idx = np.minimum(idx, n - 1)
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
        delivered = np.zeros((t_len, L, 2))
        has_slot = np.zeros((L, 2), dtype=bool)
        for ell in range(L):
            n = int(plan.n_local[ell])
            local = set(int(a) for a in plan.arms[ell, :n])
            for j in range(2):
                k = int(plan.targets[ell, j])
                if k < 0 or k not in local:
                    continue
                u_env = _oracle_uniform(plan.env_prefix, ts, ell, k)
                cj = _oracle_reward(plan.reward_model, plan.means,
                                    np.full(t_len, k, dtype=np.int64), u_env,
                                    plan.beta_table)
                dj = np.clip(cj + plan.pushes[ell, j], 0.0, 1.0)
                delivered[:, ell, j] = dj
                contrib[:, ell] = np.maximum(contrib[:, ell], np.abs(dj - cj))
                has_slot[ell, j] = True
        if has_slot.any():
            flat = contrib.reshape(-1)
            # the loop kernel's running `spent += c` chain
            cum = np.cumsum(np.concatenate(([plan.spent], flat)))[1:]
            accepted = (cum <= plan.budget)
            first_reject = np.argmax(~accepted) if not accepted.all() else flat.size
            accepted[first_reject:] = False
            accepted = accepted.reshape(t_len, L)
            targeted = has_slot.any(axis=1)[np.newaxis, :] & np.ones(
                (t_len, 1), dtype=bool)
            applied = accepted & targeted
            spent = float(cum[first_reject - 1]) if first_reject > 0 else plan.spent
            adv_active = bool(first_reject == flat.size)
            corruption += np.where(applied, contrib, 0.0).sum(axis=0)
            for j in range(2):
                hit = applied & (pulled_arm == plan.targets[:, j][np.newaxis, :]) \
                    & has_slot[:, j][np.newaxis, :]
                observed = np.where(hit, delivered[:, :, j], observed)

    for ell in range(L):
        n = int(plan.n_local[ell])
        reward_sums[ell, :n] = np.bincount(pulled_idx[:, ell],
                                           weights=observed[:, ell],
                                           minlength=n)[:n]
        pull_counts[ell, :n] = np.bincount(pulled_idx[:, ell], minlength=n)[:n]
        regret[ell] = plan.best_means[ell] * t_len - plan.means[pulled_arm[:, ell]].sum()

    return SegmentResult(
        reward_sums=reward_sums, pull_counts=pull_counts, regret=regret,
        corruption=corruption, spent=float(spent), adv_active=adv_active,
        pulls=pulled_arm if trace else None,
        observed=observed if trace else None,
        clean=clean if trace else None,
    )


def make_plan(rng, L, t_start, t_len, beta, spent, budget_frac,
              adv_active=True, num_arms=9, max_local=9, pad=0, means=None):
    """A random segment plan; the budget is ``spent`` plus ``budget_frac``
    of what the adversary would spend over the segment without a budget."""
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
        if rng.random() < 0.2:  # a CDF short of 1 exercises the last-arm clamp
            cdf[ell, :n] *= 0.8
    if means is None:
        means = rng.random(num_arms)
        means[rng.random(num_arms) < 0.15] = 0.0
        means[rng.random(num_arms) < 0.15] = 1.0
    table = np.zeros((0, 0))
    if beta:
        width = int(rng.integers(2, 40))
        table = np.sort(rng.random((num_arms, width)), axis=1)
        table[:, 0], table[:, -1] = 0.0, 1.0
    # targets: -1, a local arm, or any arm (often outside the arm set)
    targets = rng.integers(-1, num_arms, size=(L, 2))
    own = rng.random((L, 2)) < 0.5
    for ell, j in zip(*np.nonzero(own)):
        targets[ell, j] = arms[ell, rng.integers(sizes[ell])]
    plan = SegmentPlan(
        t_start=t_start, t_end=t_start + t_len - 1,
        env_prefix=stream_prefix(int(rng.integers(2**63)), 0),
        pull_prefix=stream_prefix(int(rng.integers(2**63)), 2),
        arms=arms, n_local=sizes.astype(np.int64), cdf=cdf, means=means,
        best_means=np.array([means[arms[ell, :n]].max()
                             for ell, n in enumerate(sizes)]),
        reward_model=int(beta), beta_table=table, targets=targets,
        pushes=rng.uniform(-1.0, 1.0, size=(L, 2)) * 0.7,
        budget=np.inf, spent=spent, adv_active=adv_active,
    )
    unbudgeted = _oracle_segment(plan).corruption.sum()
    return dataclasses.replace(plan, budget=spent + budget_frac * unbudgeted)


def assert_same(plan):
    new = run_segment_numpy(plan, trace=True)
    old = _oracle_segment(plan, trace=True)
    for field in dataclasses.fields(SegmentResult):
        a, b = getattr(new, field.name), getattr(old, field.name)
        assert np.array_equal(a, b), field.name
        assert np.asarray(a).dtype == np.asarray(b).dtype, field.name
    return old


@given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 64),
       t_start=st.one_of(st.integers(1, 10**6), st.integers(2**32, 2**40)),
       t_len=st.integers(1, 300), beta=st.booleans(),
       spent=st.sampled_from([0.0, 0.1, 3.7, 41.3]),
       budget_frac=st.floats(0.0, 1.2), adv_active=st.booleans(),
       pad=st.integers(0, 2),
       block_cells=st.sampled_from([kernels._BLOCK_CELLS, 1, 37, 256]))
@settings(max_examples=150, deadline=None)
def test_matches_per_agent_oracle(seed, L, t_start, t_len, beta, spent,
                                  budget_frac, adv_active, pad, block_cells):
    rng = np.random.default_rng(seed)
    plan = make_plan(rng, L, t_start, t_len, beta, spent, budget_frac,
                     adv_active=adv_active, pad=pad)
    with mock.patch.object(kernels, "_BLOCK_CELLS", block_cells):
        assert_same(plan)


@pytest.mark.parametrize("beta", [False, True])
@pytest.mark.parametrize("L", [1, 3, 64])
def test_budget_crossed_inside_ragged_blocks(L, beta):
    """Every listed case at once, each asserted to occur: ragged arm sets
    with -1 padding, a non-dyadic budget crossed mid-segment from
    ``spent > 0``, targets that are -1 or outside the arm set, several
    blocks with a partial last one, and rounds beyond 2**32."""
    block_cells = 448
    rows = block_cells // L
    rng = np.random.default_rng(2024 + L)
    plan = make_plan(rng, L, 2**32 + 17, 2 * rows + 3, beta, spent=12.3,
                     budget_frac=0.55, num_arms=12, max_local=8, pad=1,
                     means=np.linspace(0.1, 0.9, 12))

    def outside(ell):
        return next(k for k in range(12)
                    if k not in plan.arms[ell, :plan.n_local[ell]])

    plan.targets[-1] = [plan.arms[-1, 0], outside(L - 1)]
    plan.pushes[-1] = [-0.37, 0.29]
    if L > 1:
        plan.targets[0] = [-1, outside(0)]
    plan = dataclasses.replace(
        plan, budget=plan.spent + 0.55 * _oracle_segment(plan).corruption.sum())
    with mock.patch.object(kernels, "_BLOCK_CELLS", block_cells):
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


def test_untraced_result_matches_traced():
    rng = np.random.default_rng(11)
    plan = make_plan(rng, 6, 100, 50, False, spent=1.0, budget_frac=0.5)
    traced = run_segment_numpy(plan, trace=True)
    plain = run_segment_numpy(plan)
    assert plain.pulls is None and plain.observed is None
    assert plain.clean is None
    for name in ("reward_sums", "pull_counts", "regret", "corruption",
                 "spent", "adv_active"):
        assert np.array_equal(getattr(plain, name), getattr(traced, name))


def test_scalar_mixing_is_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = np.array(2**64 - 1, dtype=np.uint64)
        assert int(_mix64_np(x)) == int(_oracle_mix64(np.uint64(2**64 - 1)))
        prefix = stream_prefix(3, 0)
        drawn = float(uniform_array(prefix, 2**40, 5, 7))
        assert drawn == float(_oracle_uniform(prefix, np.uint64(2**40), 5, 7))
