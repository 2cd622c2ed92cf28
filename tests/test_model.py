"""Instance validation, the reward environment and the Beta table cache."""
import importlib.machinery
import importlib.util
import io
import os
import platform
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
from draa import beta_tables
from draa.beta_tables import cache_path
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
    ({"reward_model": 1}, "reward_model must be a str, got 1"),
    ({"reward_model": None}, "reward_model must be a str, got None"),
    ({"reward_model": ["beta"]}, "reward_model must be a str, got"),
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


def cached_files(cache: Path) -> list[Path]:
    return sorted((cache / "draa").iterdir())


@pytest.fixture
def betaincinv_calls(monkeypatch):
    """The calls made to ``scipy.special.betaincinv`` from here on."""
    import scipy.special

    calls = []
    inverse = scipy.special.betaincinv
    monkeypatch.setattr(scipy.special, "betaincinv",
                        lambda *args: calls.append(1) or inverse(*args))
    return calls


def test_beta_table_is_built_once_then_loaded(cold_beta_cache,
                                              betaincinv_calls):
    """A cold cache builds the table and stores it; a second instance with
    the same means loads the same bits, read-only, with no call to
    ``betaincinv``."""
    descriptor = small_descriptor(reward_model="beta")
    built = build_instance(descriptor).beta_table()
    assert len(betaincinv_calls) == 3
    [path] = cached_files(cold_beta_cache)
    assert path == cache_path(np.array([0.9, 0.5, 0.4]), 4.0)
    loaded = build_instance(descriptor).beta_table()
    assert len(betaincinv_calls) == 3
    assert loaded.tobytes() == built.tobytes()
    assert loaded.dtype == np.float64 and loaded.shape == built.shape
    assert loaded.flags.c_contiguous and not loaded.flags.writeable


def _npy(array, **kwargs) -> bytes:
    out = io.BytesIO()
    np.save(out, array, **kwargs)
    return out.getvalue()


def _one_bit_flipped(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


@pytest.mark.parametrize("corrupt", [
    lambda data, table: data[:len(data) // 2],
    lambda data, table: data[:-1],
    lambda data, table: b"",
    lambda data, table: _npy(table[:2]),
    lambda data, table: _npy(table.T.copy()),
    lambda data, table: _npy(np.asfortranarray(table)),
    lambda data, table: _npy(table.astype(np.float32)),
    lambda data, table: _npy(table.astype(">f8")),
    lambda data, table: _npy(table.astype(object), allow_pickle=True),
    lambda data, table: _npy(table),
    lambda data, table: _one_bit_flipped(data, len(data) - 40),
    lambda data, table: _one_bit_flipped(data, len(data) - 1),
    lambda data, table: data + b"\0",
], ids=["truncated", "one-byte-short", "empty", "wrong-shape",
        "transposed", "fortran-order", "float32", "big-endian",
        "pickled-objects", "no-digest", "altered-data", "altered-digest",
        "trailing-byte"])
def test_bad_cache_file_is_rebuilt_and_replaced(cold_beta_cache, corrupt):
    """A file that is not the table's ``.npy`` and its data's digest, as
    one well formed but for one flipped bit of data, is rebuilt."""
    descriptor = small_descriptor(reward_model="beta")
    table = build_instance(descriptor).beta_table()
    [path] = cached_files(cold_beta_cache)
    good = path.read_bytes()
    path.write_bytes(corrupt(good, table))
    assert build_instance(descriptor).beta_table().tobytes() == table.tobytes()
    assert cached_files(cold_beta_cache) == [path]
    assert path.read_bytes() == good


@pytest.mark.parametrize("fail", ["mkstemp", "replace"])
def test_unwritable_cache_still_builds_the_table(cold_beta_cache,
                                                 monkeypatch, fail):
    """A write that fails leaves no file behind, not even a temporary."""
    import tempfile

    table = build_instance(small_descriptor(reward_model="beta")).beta_table()

    def refuse(*args, **kwargs):
        raise PermissionError("read-only")

    monkeypatch.setattr(*((tempfile, "mkstemp") if fail == "mkstemp"
                          else (os, "replace")), refuse)
    means = [0.9, 0.5, 0.3]
    rebuilt = build_instance(small_descriptor(reward_model="beta",
                                              means=means)).beta_table()
    assert rebuilt[:2].tobytes() == table[:2].tobytes()
    assert len(cached_files(cold_beta_cache)) == 1


def test_beta_cache_key_covers_every_input(monkeypatch, tmp_path):
    """One ulp of one mean, the concentration, the table size, the table
    module's source, numpy's version, scipy's ``version.py`` and the
    machine each give a new key."""
    means = np.array([0.9, 0.5, 0.4])
    base = cache_path(means, 4.0)
    assert base == cache_path(means.copy(), 4.0)
    keys = [base,
            cache_path(np.array([0.9, np.nextafter(0.5, 1), 0.4]), 4.0),
            cache_path(means, 4.5)]
    with monkeypatch.context() as patch:
        patch.setattr(beta_tables, "_TABLE_SIZE", 4096)
        keys.append(cache_path(means, 4.0))
    edited = tmp_path / "beta_tables.py"
    edited.write_bytes(Path(beta_tables.__file__).read_bytes() + b"\n")
    with monkeypatch.context() as patch:
        patch.setattr(beta_tables, "__file__", str(edited))
        keys.append(cache_path(means, 4.0))
    with monkeypatch.context() as patch:
        patch.setattr(np, "__version__", np.__version__ + "+local")
        keys.append(cache_path(means, 4.0))
    with monkeypatch.context() as patch:
        patch.setattr(platform, "machine", lambda: "other")
        keys.append(cache_path(means, 4.0))
    fake = tmp_path / "site" / "scipy"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    spec = importlib.machinery.ModuleSpec("scipy", None,
                                          origin=str(fake / "__init__.py"))
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: spec if name == "scipy" else None)
    for revision in ("a", "b"):
        (fake / "version.py").write_text(f'git_revision = "{revision}"\n')
        keys.append(cache_path(means, 4.0))
    assert None not in keys
    assert len(set(keys)) == len(keys)
    assert len({key.parent for key in keys}) == 1


def test_beta_cache_location(monkeypatch, tmp_path):
    """``$XDG_CACHE_HOME`` when absolute, else ``~/.cache``; no cache
    without the table module's source or an installed scipy."""
    means = np.array([0.5])
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert cache_path(means, 4.0).parent == tmp_path / "xdg" / "draa"
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    for value in ("relative/cache", ""):
        monkeypatch.setenv("XDG_CACHE_HOME", value)
        assert (cache_path(means, 4.0).parent
                == tmp_path / "home" / ".cache" / "draa")
    with monkeypatch.context() as patch:
        patch.setattr(beta_tables, "__file__", str(tmp_path / "missing.py"))
        assert cache_path(means, 4.0) is None
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    assert cache_path(means, 4.0) is None


def test_warm_beta_run_leaves_scipy_unimported(tmp_path):
    """After one run has filled the cache, a fresh process runs the same
    Beta instance without importing scipy at all."""
    from draa.cli import main

    config = {"schema_version": 1, "name": "beta", "horizon": 500,
              "seeds": [1], "output_dir": str(tmp_path),
              "instance": small_descriptor(reward_model="beta")}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    argv = ["run", str(path), "--backend", "numpy"]
    assert main(argv) == 0
    script = ("import sys\n"
              "from draa.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "scipy = [m for m in sys.modules\n"
              "         if m.split('.')[0] == 'scipy']\n"
              "assert not scipy, scipy\n")
    src = str(Path(draa.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
