"""Epoch scheduling, set splitting, probabilities and estimators.

The numeric expectations in this file were frozen from hand evaluation
of the update formulas before the implementation was written.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from draa import engine
from draa.adversary import make_adversary
from draa.agents import (GAP_CAP, GAP_FLOOR, assign_probabilities,
                         build_schedule, init_epoch1, pool_estimates,
                         raw_epoch_length, split_sets, split_threshold,
                         update_gaps, update_rmax)
from draa.comm import freeze_broadcast
from draa.engine import run_single
from draa.errors import ConfigError, InvariantError
from draa.model import build_instance


def make_instance(**overrides):
    desc = {
        "num_arms": 4,
        "num_agents": 2,
        "arm_sets": [[0, 1], [2, 3]],
        "means": [0.9, 0.5, 0.6, 0.4],
    }
    desc.update(overrides)
    return build_instance(desc)


class TestEpochLength:
    def test_hand_value(self):
        assert raw_epoch_length(1024, 4, 2, 1) == 2048

    def test_quadrupling(self):
        assert raw_epoch_length(1024, 4, 2, 2) == 8192
        assert raw_epoch_length(1024, 4, 2, 3) == 4 * 8192

    def test_truncation_at_horizon(self):
        inst = make_instance()
        sched = build_schedule(inst, horizon=5000, delta=0.05, lam_scale=16)
        assert sum(sched.lengths) == 5000
        assert sched.lengths[-1] == 5000 - sum(sched.lengths[:-1])
        # untruncated epochs quadruple exactly
        for m in range(1, sched.num_epochs - 1):
            assert sched.lengths[m] == raw_epoch_length(
                sched.lam, inst.num_arms, inst.l_min, m + 1)

    def test_boundaries_partition_horizon(self):
        inst = make_instance()
        sched = build_schedule(inst, horizon=7777, delta=0.1, lam_scale=20)
        covered = []
        for m in range(1, sched.num_epochs + 1):
            lo, hi = sched.epoch_bounds(m)
            covered.extend(range(lo, hi + 1))
        assert covered == list(range(1, 7778))

    def test_lambda_logged_value(self):
        inst = make_instance()
        sched = build_schedule(inst, horizon=10000, delta=0.05, lam_scale=64)
        expected = 64 * math.log(8 * 4 * 2 * math.log(10000) / 0.05)
        assert sched.lam == pytest.approx(expected)

    def test_lam_scale_floor(self):
        inst = make_instance()
        with pytest.raises(ConfigError, match="lam_scale"):
            build_schedule(inst, horizon=10000, delta=0.05, lam_scale=8)


class TestInitEpoch1:
    def test_uniform_probabilities(self):
        inst = build_instance({
            "num_arms": 3, "num_agents": 1,
            "arm_sets": [[0, 1, 2]], "means": [0.5, 0.4, 0.3]})
        state = init_epoch1(inst, 0)
        np.testing.assert_allclose(state.probs, [1 / 3, 1 / 3, 1 / 3])
        assert state.active.all()
        np.testing.assert_array_equal(state.gaps, [1.0, 1.0, 1.0])

    def test_singleton_arm_set(self):
        inst = build_instance({
            "num_arms": 2, "num_agents": 2,
            "arm_sets": [[0, 1], [1]], "means": [0.5, 0.4]})
        state = init_epoch1(inst, 1)
        np.testing.assert_array_equal(state.probs, [1.0])

    def test_identical_arm_sets_identical_states(self):
        inst = build_instance({
            "num_arms": 2, "num_agents": 2,
            "arm_sets": [[0, 1], [0, 1]], "means": [0.5, 0.4]})
        s0, s1 = init_epoch1(inst, 0), init_epoch1(inst, 1)
        np.testing.assert_array_equal(s0.probs, s1.probs)
        np.testing.assert_array_equal(s0.gaps, s1.gaps)


class TestSplitSets:
    def test_homogeneous_threshold_value(self):
        # L_min = L, m = 1: threshold = 1/16 - 3/128 = 0.0390625
        assert split_threshold(1, 2, 2) == pytest.approx(0.0390625)

    def test_threshold_splits_arms(self):
        r = np.array([0.50, 0.47, 0.45])  # r_max - r: 0, 0.03, 0.05
        active, fallback = split_sets(r, 0.5, m=1, l_min=2, num_agents=2)
        assert not fallback
        assert list(active) == [True, True, False]

    def test_identical_estimates_all_active(self):
        r = np.full(4, 0.3)
        active, fallback = split_sets(r, 0.3, m=1, l_min=1, num_agents=1)
        assert active.all() and not fallback

    def test_negative_threshold_triggers_fallback(self):
        # L_min/L tiny and m large make the threshold negative
        assert split_threshold(6, 1, 16) < 0
        r = np.array([0.2, 0.8, 0.8])
        active, fallback = split_sets(r, 0.8, m=6, l_min=1, num_agents=16)
        assert fallback
        assert list(active) == [False, True, False]  # lowest index on ties

    def test_strict_inequality_at_threshold(self):
        thr = split_threshold(1, 1, 1)
        r_max = 0.5
        r = np.array([r_max - thr, r_max])  # difference == threshold: bad
        active, fallback = split_sets(r, r_max, m=1, l_min=1, num_agents=1)
        assert list(active) == [False, True]


class TestAssignProbabilities:
    def test_hand_value(self):
        # one bad arm, unit gaps, K=4, two local arms each held by 2 of
        # 2 agents: bad mass 2^-4 * (1/2) * 1 * (1/2) = 0.015625
        active = np.array([True, False])
        gaps = np.array([1.0, 1.0])
        holders = np.array([2, 2])
        p = assign_probabilities(active, gaps, 2, holders, l_min=2, num_arms=4)
        assert p[1] == pytest.approx(0.015625, abs=1e-15)
        assert p[0] == pytest.approx(0.984375, abs=1e-15)

    def test_hand_value_within_bracket(self):
        # the bad-arm mass sits inside its documented bracket for m=2
        lo = 2.0 ** (-2 * 2 - 7) * (2 / 2) / 4
        hi = 2.0 ** (-2 * 2 + 7) * (2 / 2) / 4
        assert lo <= 0.015625 <= hi

    def test_empty_bad_set_uniform(self):
        active = np.array([True, True, True])
        p = assign_probabilities(active, np.full(3, 0.125), 3,
                                 np.array([1, 1, 1]), 1, 3)
        np.testing.assert_allclose(p, [1 / 3, 1 / 3, 1 / 3])

    def test_simplex(self):
        active = np.array([True, False, False, True])
        gaps = np.array([0.125, 0.5, 1.0, 0.125])
        p = assign_probabilities(active, gaps, 3, np.array([2, 1, 3, 2]), 1, 6)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p > 0).all()

    def test_empty_active_set_is_fatal(self):
        with pytest.raises(InvariantError, match="empty active set"):
            assign_probabilities(np.array([False, False]), np.ones(2), 2,
                                 np.array([1, 1]), 1, 2)


class TestPull:
    """Pulls and accumulators as the segment kernels produce them."""

    def test_degenerate_distribution(self, rounds):
        inst = make_instance()
        out = rounds(inst, [np.array([1.0, 0.0]), np.array([0.5, 0.5])],
                     rounds=99, seed=1)
        assert (out.pulls[:, 0] == 0).all()
        assert out.pull_counts[0].tolist() == [99, 0]

    def test_frequencies_match_probabilities(self, rounds):
        inst = make_instance()
        half = np.array([0.5, 0.5])
        n = 20000
        out = rounds(inst, [half, half], rounds=n, seed=2)
        # both agents' first local arm, over 2n fair draws
        assert abs(out.pull_counts[:, 0].sum() / (2 * n) - 0.5) < 0.01

    def test_deterministic_sequence(self, rounds):
        inst = make_instance()
        probs = [init_epoch1(inst, ell).probs for ell in range(2)]
        seq1 = rounds(inst, probs, rounds=49, seed=3).pulls
        seq2 = rounds(inst, probs, rounds=49, seed=3).pulls
        np.testing.assert_array_equal(seq1, seq2)


class TestRecordObservation:
    def test_accumulates(self, rounds):
        inst = make_instance()
        out = rounds(inst, [1, 0], rewards=(0.9, 0.25, 0.6, 0.4), rounds=4)
        assert out.reward_sums[0, 1] == 1.0
        assert out.pull_counts[0].tolist() == [0, 4]

    def test_zero_observations_contribute_zero(self, rounds):
        inst = make_instance()
        out = rounds(inst, [1, 0], rewards=(0.9, 0.25, 0.6, 0.4), rounds=4)
        assert out.reward_sums[0, 0] == 0.0


def two_agent_broadcasts(probs, sums):
    return [
        freeze_broadcast([0], [sums[0]], [probs[0]]),
        freeze_broadcast([0], [sums[1]], [probs[1]]),
    ]


class TestEstimators:
    def test_weighted_hand_value(self):
        bc = two_agent_broadcasts(probs=(0.5, 0.25), sums=(30.0, 10.0))
        assert pool_estimates(bc, 1, 100, "weighted")[0] == \
            pytest.approx(0.5, abs=1e-15)

    def test_naive_hand_value(self):
        bc = two_agent_broadcasts(probs=(0.5, 0.25), sums=(30.0, 10.0))
        assert pool_estimates(bc, 1, 100, "naive")[0] == \
            pytest.approx(40.0 / 75.0, abs=1e-12)

    def test_all_zero_sums(self):
        bc = two_agent_broadcasts(probs=(0.5, 0.25), sums=(0.0, 0.0))
        assert pool_estimates(bc, 1, 100, "weighted")[0] == 0.0
        assert pool_estimates(bc, 1, 100, "naive")[0] == 0.0

    def test_single_holder_estimators_coincide(self):
        bc = [freeze_broadcast([0, 1, 2, 3], [1.0, 2.0, 3.0, 12.0],
                               [0.2, 0.2, 0.2, 0.4])]
        w = pool_estimates(bc, 4, 50, "weighted")[3]
        n = pool_estimates(bc, 4, 50, "naive")[3]
        assert w == pytest.approx(n, abs=1e-12)
        assert w == pytest.approx(12.0 / (0.4 * 50), abs=1e-12)

    def test_weighted_not_clipped(self):
        # heavy reward sum with a tiny probability overshoots 1
        bc = [freeze_broadcast([0], [10.0], [0.05])]
        assert pool_estimates(bc, 1, 20, "weighted")[0] > 1.0

    def test_uncovered_arm_rejected(self):
        bc = [freeze_broadcast([0, 3], [1.0, 2.0], [0.5, 0.5]),
              freeze_broadcast([2], [1.0], [1.0])]
        for estimator in ("weighted", "naive"):
            with pytest.raises(ValueError, match="arm 1$"):
                pool_estimates(bc, 4, 10, estimator)

    def test_no_broadcasts_rejected(self):
        for estimator in ("weighted", "naive"):
            with pytest.raises(ValueError, match="no broadcast covers arm 0$"):
                pool_estimates([], 3, 10, estimator)

    def test_unknown_estimator_rejected(self):
        bc = two_agent_broadcasts(probs=(0.5, 0.25), sums=(30.0, 10.0))
        with pytest.raises(ConfigError, match="estimator"):
            pool_estimates(bc, 1, 100, "mean")


def per_arm_oracle(broadcasts, num_arms, epoch_len, estimator):
    """Reference pooling: for each arm, a scalar loop over the broadcasts
    in list (sender-ascending) order.  ``pool_estimates`` must match it
    bit for bit."""
    out = np.empty(num_arms)
    for arm in range(num_arms):
        num = 0.0
        den = 0.0 if estimator == "naive" else 0
        for b in broadcasts:
            if arm in b.arms:
                idx = b.arms.tolist().index(arm)
                if estimator == "weighted":
                    num += b.reward_sums[idx] / b.probs[idx]
                    den += 1
                else:
                    num += b.reward_sums[idx]
                    den += b.probs[idx]
        out[arm] = num / (den * epoch_len)
    return out


@st.composite
def epoch_broadcasts(draw):
    """Irregular arm sets covering every arm, with non-dyadic sums and
    probabilities; senders ascend with list position."""
    num_arms = draw(st.integers(1, 64))
    num_agents = draw(st.integers(1, 16))
    arm_sets = [draw(st.lists(st.integers(0, num_arms - 1), min_size=1,
                              max_size=num_arms, unique=True))
                for _ in range(num_agents)]
    for k in set(range(num_arms)) - set().union(*arm_sets):
        arm_sets[k % num_agents].append(k)
    broadcasts = []
    for arms in arm_sets:
        n = len(arms)
        sums = draw(st.lists(st.floats(0.0, 1e5), min_size=n, max_size=n))
        probs = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
        broadcasts.append(freeze_broadcast(arms, sums, probs))
    return broadcasts, num_arms


@given(case=epoch_broadcasts(), epoch_len=st.integers(1, 10 ** 7),
       estimator=st.sampled_from(["weighted", "naive"]))
@settings(max_examples=300, deadline=None)
def test_pool_estimates_bit_identical_to_per_arm_loop(case, epoch_len,
                                                      estimator):
    broadcasts, num_arms = case
    pooled = pool_estimates(broadcasts, num_arms, epoch_len, estimator)
    expected = per_arm_oracle(broadcasts, num_arms, epoch_len, estimator)
    assert np.array_equal(pooled, expected)


@pytest.mark.parametrize("estimator", ["weighted", "naive"])
def test_engine_boundary_estimates_match_oracle(estimator):
    # K=64, L=16, 16 consecutive arms per agent (4 holders per arm); Beta
    # rewards make the reward sums non-dyadic
    inst = build_instance({
        "num_arms": 64, "num_agents": 16,
        "arm_sets": [[(4 * ell + j) % 64 for j in range(16)]
                     for ell in range(16)],
        "means": [0.05 + 0.9 * k / 63 for k in range(64)],
        "reward_model": "beta"})
    sched = build_schedule(inst, 20_000, delta=0.05, lam_scale=16)
    assert sched.num_epochs >= 3
    with mock.patch.object(engine, "pool_estimates",
                           wraps=engine.pool_estimates) as spy:
        result = run_single(inst, sched, make_adversary(None), 3,
                            estimator=estimator, backend="numpy")
    assert spy.call_count == sched.num_epochs - 1
    for m, call in enumerate(spy.call_args_list, start=1):
        broadcasts = call.args[0]
        # broadcast ell is agent ell's, of epoch m
        for ell, b in enumerate(broadcasts):
            assert np.array_equal(b.probs, result.epochs[m - 1].probs[ell])
            assert b.arms.tolist() == list(inst.arm_sets[ell])
        expected = per_arm_oracle(broadcasts,
                                  inst.num_arms, sched.epoch_length(m),
                                  estimator)
        for ell, estimates in enumerate(result.epochs[m].estimates):
            assert np.array_equal(estimates,
                                  expected[list(inst.arm_sets[ell])])


class TestGapUpdates:
    def test_rmax_hand_value(self):
        r = np.array([0.9, 0.5])
        gaps = np.array([0.125, 0.125])
        assert update_rmax(r, gaps) == pytest.approx(0.8921875, abs=1e-15)

    def test_rmax_singleton(self):
        assert update_rmax(np.array([0.6]), np.array([0.125])) == \
            pytest.approx(0.5921875, abs=1e-15)

    def test_rmax_symmetry(self):
        r = np.full(3, 0.7)
        gaps = np.full(3, 0.25)
        assert update_rmax(r, gaps) == pytest.approx(0.7 - 0.25 / 16)

    def test_gap_hand_value(self):
        g = update_gaps(0.7, np.array([0.5]))  # difference 0.2
        assert g[0] == pytest.approx(0.2234375, abs=1e-15)

    def test_gap_floor(self):
        g = update_gaps(0.7, np.array([0.7]))
        assert g[0] == GAP_FLOOR == 0.125

    def test_gap_cap_value(self):
        g = update_gaps(1.0, np.array([0.0]))  # difference 1
        assert g[0] == pytest.approx(1.0234375, abs=1e-15)
        assert g[0] == pytest.approx(GAP_CAP)


@given(r_max=st.floats(-0.5, 1.5),
       estimates=hnp.arrays(np.float64, st.integers(1, 8),
                            elements=st.floats(-0.5, 1.5)))
@settings(max_examples=200, deadline=None)
def test_gaps_always_floored(r_max, estimates):
    g = update_gaps(r_max, estimates)
    assert np.all(g >= GAP_FLOOR)


@given(n=st.integers(2, 8), m_next=st.integers(2, 10),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_probabilities_form_simplex(n, m_next, data):
    gaps = np.array(data.draw(st.lists(
        st.floats(GAP_FLOOR, GAP_CAP), min_size=n, max_size=n)))
    active = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)))
    if not active.any():
        active[0] = True
    holders = np.array(data.draw(st.lists(st.integers(1, 5), min_size=n,
                                          max_size=n)))
    l_min = int(holders.min())
    p = assign_probabilities(active, gaps, m_next, holders, l_min, n + 2)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert (p > 0).all()
