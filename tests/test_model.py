"""Instance validation and the reward environment."""
import numpy as np
import pytest

from draa.errors import ConfigError
from draa.model import REWARD_MODELS, build_instance, reward_array
from draa.rng import ENV_STREAM, stream_prefix, uniform_array


def small_descriptor(**overrides):
    desc = {
        "num_arms": 3,
        "num_agents": 2,
        "arm_sets": [[0, 1], [1, 2]],
        "means": [0.9, 0.5, 0.4],
    }
    desc.update(overrides)
    return desc


def test_valid_instance_derived_fields():
    inst = build_instance(small_descriptor())
    assert inst.l_min == 1
    assert list(inst.agents_per_arm) == [1, 2, 1]
    assert inst.best_arms == (0, 1)


def test_local_gaps():
    inst = build_instance(small_descriptor())
    np.testing.assert_allclose(inst.local_gaps(0), [0.0, 0.4])
    np.testing.assert_allclose(inst.local_gaps(1), [0.0, 0.1])
    assert inst.min_positive_gap == pytest.approx(0.1)


def test_tie_break_lowest_index():
    inst = build_instance(small_descriptor(means=[0.5, 0.5, 0.2]))
    assert inst.best_arms[0] == 0
    assert inst.best_arms[1] == 1


@pytest.mark.parametrize("patch,msg", [
    ({"means": [0.9, 1.5, 0.4]}, "mean outside"),
    ({"arm_sets": [[0, 1], []]}, "empty arm-set"),
    ({"arm_sets": [[0, 0], [1, 2]]}, "duplicate arms"),
    ({"arm_sets": [[0, 5], [1, 2]]}, "out of range"),
    ({"arm_sets": [[0, 1], [1, 0]]}, "covered by no agent"),
    ({"num_arms": 0}, "must be positive"),
    ({"reward_model": "gaussian"}, "unknown reward model"),
    ({"means": [0.9, 0.5]}, "expected 3 means"),
])
def test_invalid_descriptors(patch, msg):
    with pytest.raises(ConfigError, match=msg):
        build_instance(small_descriptor(**patch))


def test_means_are_read_only():
    inst = build_instance(small_descriptor())
    with pytest.raises(ValueError):
        inst.means[0] = 0.1


def draw(inst, seed, t, ell, arms):
    """Clean rewards of ``arms`` for agent ``ell`` in round(s) ``t``."""
    u = uniform_array(stream_prefix(seed, ENV_STREAM), t, ell, arms)
    table = inst.beta_table() if inst.reward_model == "beta" else None
    return reward_array(REWARD_MODELS.index(inst.reward_model), inst.means,
                        arms, u, table)


def test_bernoulli_rewards_are_binary_and_degenerate_means_exact():
    inst = build_instance(small_descriptor(means=[0.0, 1.0, 0.5]))
    u = np.array([0.0, 0.3, 0.999])
    r = reward_array(0, inst.means, np.array([0, 1, 2]), u, None)
    assert r[0] == 0.0  # mean 0 never pays
    assert r[1] == 1.0  # mean 1 always pays
    assert r[2] in (0.0, 1.0)


ROUNDS = np.arange(1, 20001, dtype=np.uint64)


def test_bernoulli_empirical_mean():
    inst = build_instance(small_descriptor())
    vals = draw(inst, 3, ROUNDS, 0, 0)
    assert abs(vals.mean() - 0.9) < 0.01


def test_beta_rewards_bounded_with_correct_mean():
    inst = build_instance(small_descriptor(reward_model="beta"))
    vals = draw(inst, 11, ROUNDS, 0, 0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert abs(vals.mean() - 0.9) < 0.01
    assert np.unique(vals).size > 100  # continuous, not binary


def test_sampling_is_deterministic():
    inst = build_instance(small_descriptor(reward_model="beta"))
    arms = np.array(inst.arm_sets[1])
    np.testing.assert_array_equal(draw(inst, 9, 5, 1, arms),
                                  draw(inst, 9, 5, 1, arms))
