"""Brute-force oracles: exact estimator expectations and the
determinism replay check."""
import math

import numpy as np
import pytest

from draa.config import validate_config
from draa.errors import ConfigError
from draa.oracle import exhaustive_estimator_mean, replay_check
from draa.model import build_instance
from draa.runner import execute_run


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


class TestReplay:
    def test_same_seed_zero_deviation(self):
        config = replay_config()
        ref = execute_run(config, 3, backend="numpy", trace=True)
        report = replay_check(config, ref, backend="numpy")
        assert report.matches
        assert report.abs_deviation == 0.0

    def test_tampered_trace_detected(self):
        config = replay_config()
        ref = execute_run(config, 3, backend="numpy", trace=True)
        ref.pulls[100, 0] = (ref.pulls[100, 0] + 1) % 2
        report = replay_check(config, ref, backend="numpy")
        assert "mismatch" in report.note

    def test_replays_the_run_that_draa_run_executes(self):
        # 7 checkpoints cut the kernel calls elsewhere than the epoch
        # ends, which moves the last bits of regret and Beta estimates
        config = replay_config(
            adversary={"kind": "gap_flip", "magnitude": 0.7, "budget": 140.7},
            reward_model="beta", num_checkpoints=7)
        ref = execute_run(config, 3, backend="numpy", trace=True)
        report = replay_check(config, ref, backend="numpy")
        assert report.matches
        assert report.abs_deviation == 0.0
