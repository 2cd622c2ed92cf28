"""Oracles: exact estimator expectations by enumeration, and the checks
of ``draa verify`` (the artifact replay and the pull-count rows)."""
import math

import numpy as np
import pytest

from draa.agents import pool_estimates
from draa.comm import freeze_broadcast
from draa.config import validate_config
from draa.errors import ConfigError
from draa.oracle import pull_count_reports, replay_check
from draa.model import build_instance
from draa.runner import execute_run

from conftest import exhaustive_estimator_mean


def single_arm_instance(mu):
    return build_instance({
        "num_arms": 1, "num_agents": 1,
        "arm_sets": [[0]], "means": [mu]})


def shared_arm_instance():
    return build_instance({
        "num_arms": 2, "num_agents": 2,
        "arm_sets": [[0, 1], [0, 1]],
        "means": [0.5, 0.25]})


class TestExhaustiveEstimator:
    def test_single_arm_exact(self):
        inst = single_arm_instance(0.5)
        val = exhaustive_estimator_mean(inst, [[1.0]], 3, 0)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_zero_mean(self):
        inst = single_arm_instance(0.0)
        assert exhaustive_estimator_mean(inst, [[1.0]], 3, 0) == 0.0

    def test_shared_arm_weighted_unbiased_unequal_probs(self):
        inst = shared_arm_instance()
        probs = [[0.5, 0.5], [0.75, 0.25]]
        for arm, mu in ((0, 0.5), (1, 0.25)):
            val = exhaustive_estimator_mean(inst, probs, 2, arm)
            assert val == pytest.approx(mu, abs=1e-12)

    def test_pooled_expected_sums(self):
        # the estimator is linear in the reward sums, so pooling their
        # means T*p*mu gives the estimate's expectation
        inst = shared_arm_instance()
        probs = [np.array([0.5, 0.5]), np.array([0.75, 0.25])]
        expected = [freeze_broadcast([0, 1], 2 * p * inst.means, p)
                    for p in probs]
        pooled = pool_estimates(expected, 2, 2, "weighted")
        for arm in (0, 1):
            exact = exhaustive_estimator_mean(inst, probs, 2, arm)
            assert pooled[arm] == pytest.approx(exact, abs=1e-12)

    def test_state_space_guard(self):
        inst = build_instance({
            "num_arms": 4, "num_agents": 4,
            "arm_sets": [[0, 1, 2, 3]] * 4,
            "means": [0.5, 0.4, 0.3, 0.2]})
        probs = [[0.25] * 4] * 4
        with pytest.raises(ConfigError, match="too large"):
            exhaustive_estimator_mean(inst, probs, 12, 0)

    def test_beta_rewards_rejected(self):
        inst = build_instance({
            "num_arms": 1, "num_agents": 1, "arm_sets": [[0]],
            "means": [0.5], "reward_model": "beta"})
        with pytest.raises(ConfigError, match="Bernoulli"):
            exhaustive_estimator_mean(inst, [[1.0]], 2, 0)


def monte_carlo_estimate_mean(instance, probabilities, epoch_len, arm,
                              estimator, n_epochs, seed=0):
    """Monte-Carlo mean and standard error of an estimator.

    Simulates ``n_epochs`` isolated epochs with numpy's own generator
    (not the engine RNG), pooling the holders' reward sums exactly as
    the estimator definition prescribes.
    """
    rng = np.random.default_rng(seed)
    L = instance.num_agents
    probs = [np.asarray(p, dtype=np.float64) for p in probabilities]
    holders = [ell for ell in range(L) if arm in instance.arm_sets[ell]]
    values = np.empty(n_epochs)
    for i in range(n_epochs):
        sums = np.zeros(L)
        for ell in range(L):
            arms = instance.arm_sets[ell]
            pulls = rng.choice(len(arms), size=epoch_len, p=probs[ell])
            for local_idx in pulls:
                k = arms[local_idx]
                if k == arm:
                    sums[ell] += float(rng.random() < instance.means[k])
        if estimator == "weighted":
            values[i] = sum(
                sums[ell] / probs[ell][instance.arm_sets[ell].index(arm)]
                for ell in holders
            ) / (len(holders) * epoch_len)
        else:
            denom = sum(probs[ell][instance.arm_sets[ell].index(arm)]
                        for ell in holders) * epoch_len
            values[i] = sums[holders].sum() / denom
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_epochs))


class TestMonteCarloOracle:
    """The exhaustive oracle agrees with an independent sampler."""

    def test_converges_to_exhaustive_value(self):
        inst = shared_arm_instance()
        probs = [[0.5, 0.5], [0.75, 0.25]]
        exact = exhaustive_estimator_mean(inst, probs, 2, 0)
        mean, se = monte_carlo_estimate_mean(inst, probs, 2, 0, "weighted",
                                             4000, seed=1)
        assert abs(mean - exact) <= 3 * se


def replay_config(seed_list=(3,), adversary=None, reward_model="bernoulli",
                  num_checkpoints=64):
    return validate_config({
        "schema_version": 1,
        "instance": {
            "num_arms": 3, "num_agents": 2,
            "arm_sets": [[0, 1], [1, 2]],
            "means": [0.9, 0.5, 0.4],
            "reward_model": reward_model},
        "adversary": adversary,
        "algorithm": {"estimator": "weighted", "lam_scale": 16,
                      "delta": 0.05},
        "horizon": 2500,
        "seeds": list(seed_list),
        "num_checkpoints": num_checkpoints,
    })


def assert_same_cells(a, b):
    """Two traced runs' pulls, delivered and clean rewards, bit for bit."""
    for name in ("pulls", "observed", "clean"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestReplay:
    def test_same_seed_zero_deviation(self):
        config = replay_config()
        ref, again = (execute_run(config, 3, backend="numpy", trace=True)
                      for _ in range(2))
        assert_same_cells(ref, again)
        report = replay_check(config, ref, backend="numpy")
        assert report.matches
        assert report.abs_deviation == 0.0

    def test_tampered_trace_detected(self):
        # a checkpoint regret one bit off, or one epoch pull count off
        config = replay_config()
        ref = execute_run(config, 3, backend="numpy")
        ref.checkpoints.regret.view(np.int64)[10, 0] ^= 1
        report = replay_check(config, ref, backend="numpy")
        assert "mismatch" in report.note
        ref = execute_run(config, 3, backend="numpy")
        ref.epochs[1].pull_counts[0][0] += 1
        report = replay_check(config, ref, backend="numpy")
        assert "mismatch" in report.note

    def test_replays_the_run_that_draa_run_executes(self):
        # 7 checkpoints cut the kernel calls elsewhere than the epoch
        # ends, which moves the last bits of regret and Beta estimates
        config = replay_config(
            adversary={"kind": "gap_flip", "magnitude": 0.7, "budget": 140.7},
            reward_model="beta", num_checkpoints=7)
        ref, again = (execute_run(config, 3, backend="numpy", trace=True)
                      for _ in range(2))
        assert_same_cells(ref, again)
        report = replay_check(config, ref, backend="numpy")
        assert report.matches
        assert report.abs_deviation == 0.0


def wide_config():
    """Four agents, each holding three or four of six arms."""
    return validate_config({
        "schema_version": 1,
        "instance": {
            "num_arms": 6, "num_agents": 4,
            "arm_sets": [[0, 1, 2], [1, 2, 3, 4], [3, 4, 5], [0, 2, 5]],
            "means": [0.9, 0.8, 0.6, 0.5, 0.45, 0.3]},
        "algorithm": {"estimator": "weighted", "lam_scale": 16,
                      "delta": 0.05},
        "horizon": 20_000,
        "seeds": [0],
    })


class TestPullCounts:
    def test_no_false_alarm(self):
        config = wide_config()
        for seed in range(40):
            result = execute_run(config, seed, backend="numpy")
            reports = pull_count_reports(result, config.instance.arm_sets)
            assert [r.quantity.split(" pulls")[0] for r in reports] == [
                f"epoch {m}" for m in range(1, result.num_epochs + 1)]
            assert all(r.matches for r in reports), seed

    def test_row_is_the_least_likely_count(self):
        config = wide_config()
        result = execute_run(config, 0, backend="numpy")
        e = result.epochs[0]
        e.pull_counts[2][1] += 100  # agent 2, arm 4: over ten sigma high
        row = pull_count_reports(result, config.instance.arm_sets)[0]
        assert row.quantity == "epoch 1 pulls (agent 2, arm 4)"
        assert row.oracle_value == e.length * e.probs[2][1]
        assert row.engine_value == e.pull_counts[2][1]
        assert "tests" in row.note and not row.matches

    def test_single_arm_agents_test_nothing(self):
        config = validate_config({
            "schema_version": 1,
            "instance": {"num_arms": 2, "num_agents": 2,
                         "arm_sets": [[0], [1]], "means": [0.7, 0.4]},
            "algorithm": {"estimator": "weighted", "lam_scale": 16,
                          "delta": 0.05},
            "horizon": 3000, "seeds": [0]})
        result = execute_run(config, 0, backend="numpy")
        assert pull_count_reports(result, config.instance.arm_sets) == []
