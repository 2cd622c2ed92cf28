"""Instance validation and the reward environment."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import draa
from draa.errors import ConfigError
from draa.kernels import _reward_nb
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


#: uniforms at the ends of [0, 1) and on every point of a 4097-entry
#: table's grid, where the interpolation's integer part changes
EDGE_UNIFORMS = np.array([0.0, 2.0**-53, *(np.arange(4096) / 4096),
                          1.0 - 2.0**-53])


@pytest.mark.parametrize("in_place", [False, True])
@pytest.mark.parametrize("shape", ["agents", "planes"])
@pytest.mark.parametrize("model", REWARD_MODELS)
def test_reward_array_matches_the_loop_kernels_scalar_map(model, shape,
                                                         in_place):
    """Every reward equals the loop kernel's ``_reward_nb`` bit for bit,
    with ``arms`` of shape (L,) against uniforms of shape (rows, L), and
    (P, L, 1) against (P, L, n), into a fresh array and into ``u``."""
    inst = build_instance(small_descriptor(
        num_arms=5, means=[0.0, 0.13, 0.5, 0.91, 1.0], reward_model=model,
        arm_sets=[[0, 1, 2, 3, 4], [1, 2]]))
    code = REWARD_MODELS.index(model)
    table = inst.beta_table() if model == "beta" else np.zeros((1, 2))
    if shape == "agents":
        arms = np.arange(5)
        u = np.repeat(EDGE_UNIFORMS[:, None], 5, axis=1)
    else:
        arms = np.array([4, 0, 3, 1, 2, 2]).reshape(2, 3, 1)
        u = np.broadcast_to(EDGE_UNIFORMS, (2, 3, EDGE_UNIFORMS.size)).copy()
    arm_of = np.broadcast_to(arms, u.shape)
    want = np.array([_reward_nb(code, inst.means[k], x, table, k)
                     for k, x in zip(arm_of.reshape(-1).tolist(),
                                     u.reshape(-1).tolist())]).reshape(u.shape)
    if in_place:
        got = reward_array(code, inst.means, arms, u, table, out=u)
        assert got is u
    else:
        got = reward_array(code, inst.means, arms, u, table)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want)


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


@settings(max_examples=60, deadline=None)
@given(means=st.lists(st.floats(0, 1), min_size=3, max_size=3),
       nu=st.floats(0, 1e6, exclude_min=True, exclude_max=True))
def test_beta_table_is_the_beta_ppf(means, nu):
    """The table equals scipy's Beta quantile function on every admissible
    (mean, concentration) pair, bit for bit."""
    from scipy.stats import beta

    try:
        inst = build_instance(small_descriptor(
            reward_model="beta", beta_concentration=nu, means=means))
    except ConfigError:
        assume(False)
    table = inst.beta_table()
    grid = np.linspace(0.0, 1.0, table.shape[1])
    for mu, row in zip(means, table):
        expected = (beta.ppf(grid, mu * nu, (1 - mu) * nu) if 0 < mu < 1
                    else np.full_like(grid, mu))
        np.testing.assert_array_equal(row, expected)


def test_beta_run_leaves_scipy_stats_unimported(tmp_path):
    config = {"schema_version": 1, "name": "beta", "horizon": 500,
              "seeds": [1], "output_dir": str(tmp_path),
              "instance": small_descriptor(reward_model="beta")}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    argv = ["run", str(path), "--backend", "numpy"]
    script = ("import sys\n"
              "from draa.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "assert 'scipy.special' in sys.modules\n"
              "sys.exit('scipy.stats' in sys.modules)\n")
    src = str(Path(draa.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "beta" / "seed_1_summary.json").exists()
