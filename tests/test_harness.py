"""Config validation, persistence, sweeps, env overrides and the CLI."""
import concurrent.futures
import contextlib
import copy
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import draa
from draa import cli
from draa import config as config_module
from draa import engine, kernels, runner
from draa.agents import build_schedule
from draa.cli import main
from draa.config import (load_config, load_yaml, validate_config,
                         validate_sweep)
from draa.errors import ConfigError
from draa.runner import (evenly_spaced_checkpoints, run_experiment,
                         run_sweep)

ROOT = Path(__file__).resolve().parents[1]


def base_config(**overrides):
    data = {
        "schema_version": 1,
        "name": "unit",
        "instance": {
            "num_arms": 3, "num_agents": 2,
            "arm_sets": [[0, 1], [1, 2]],
            "means": [0.9, 0.5, 0.4]},
        "algorithm": {"estimator": "weighted", "lam_scale": 16,
                      "delta": 0.05},
        "horizon": 2000,
        "seeds": [7],
        "output_dir": "results",
        "num_checkpoints": 8,
    }
    data.update(overrides)
    return data


def instance(**overrides):
    """``base_config``'s instance section with ``overrides`` applied."""
    return dict(base_config()["instance"], **overrides)


def write_config(tmp_path, patch=None, **overrides):
    """``base_config`` with ``overrides``, then the mapping ``patch`` (whose
    keys need not be strings), written as YAML."""
    path = tmp_path / "config.yaml"
    data = base_config(output_dir=str(tmp_path), **overrides)
    with open(path, "w") as fh:
        yaml.safe_dump({**data, **(patch or {})}, fh)
    return path


#: Rows whose values make a run allocate in proportion to them; they are
#: checked through ``validate_config`` only, so that a build which wrongly
#: accepts them fails fast instead of trying to run them.
_VALIDATE_ONLY = ({"horizon": 1e30}, {"horizon": 50, "num_checkpoints": 1e9})


def assert_well_formed(config):
    """Every numeric field of ``config`` is finite, in range and typed, its
    name is one path component, and its adversary is the kind it names."""
    def number(x, kind, lo=-math.inf, hi=math.inf):
        # a Python int is always finite, and math.isfinite overflows on one
        # past the float range
        assert type(x) is kind and lo <= x <= hi, x
        assert kind is int or math.isfinite(x), x

    assert config.raw["schema_version"] == 1
    assert not isinstance(config.raw["schema_version"], bool)
    assert isinstance(config.name, str) and isinstance(config.output_dir, str)
    assert config.name not in ("", ".", "..")
    assert "/" not in config.name and "\0" not in config.name
    number(config.horizon, int, 3, 2**53 - 1)
    number(config.num_checkpoints, int, 1, config.horizon)
    number(config.delta, float, 0, 1)
    assert 0 < config.delta < 1
    number(config.lam_scale, float, 16)
    assert config.seeds
    for seed in config.seeds:
        number(seed, int, 0, 2**64 - 1)
    inst = config.instance
    number(inst.num_arms, int, 1)
    number(inst.num_agents, int, 1)
    assert inst.means.dtype == np.float64 and inst.means.shape == (
        inst.num_arms,)
    assert np.all((inst.means >= 0) & (inst.means <= 1))
    for arms in inst.arm_sets:
        for k in arms:
            number(k, int, 0, inst.num_arms - 1)
    number(inst.beta_concentration, float, 0)
    assert inst.beta_concentration > 0
    assert build_schedule(inst, config.horizon, config.delta,
                          config.lam_scale).num_epochs >= 1
    adv = config.adversary
    kind = (config.raw.get("adversary") or {}).get("kind")
    assert adv.kind == ("null" if kind is None else kind), kind
    number(adv.budget, float, 0)
    if hasattr(adv, "magnitude"):
        number(adv.magnitude, float, 0)
    if hasattr(adv, "target_arm"):
        number(adv.target_arm, int, 0, inst.num_arms - 1)
    if hasattr(adv, "start_epoch"):
        number(adv.start_epoch, int, 1)
    for ell in getattr(adv, "agents", None) or ():
        number(ell, int, 0, inst.num_agents - 1)


#: the fuzz mutates one field, named by its path, of a config holding one
#: of these adversaries; ``num_seeds`` and ``seed_base`` replace ``seeds``
_FUZZ_ADVERSARIES = [
    {"kind": "budgeted_targeted", "target_arm": 1, "magnitude": 0.5,
     "budget": 50.0, "agents": [0, 1]},
    {"kind": "epoch_flood", "target_arm": 2, "start_epoch": 2,
     "direction": "up", "budget": 50.0, "magnitude": 0.7},
]
_FUZZ_FIELDS = [
    ("instance",), ("algorithm",), ("adversary",), ("horizon",),
    ("seeds",), ("seeds", 0), ("num_seeds",), ("seed_base",),
    ("num_checkpoints",), ("algorithm", "delta"), ("algorithm", "lam_scale"),
    ("instance", "num_arms"), ("instance", "num_agents"),
    ("instance", "means"), ("instance", "means", 1), ("instance", "arm_sets"),
    ("instance", "arm_sets", 0), ("instance", "arm_sets", 1, 0),
    ("instance", "beta_concentration"), ("adversary", "budget"),
    ("adversary", "magnitude"), ("adversary", "target_arm"),
    ("adversary", "start_epoch"), ("adversary", "agents"),
    ("adversary", "agents", 0), ("name",), ("output_dir",),
    ("schema_version",), ("algorithm", "estimator"),
    ("instance", "reward_model"), ("adversary", "kind"),
    ("adversary", "direction"),
]
_FUZZ_CASES = [(adv, path) for adv in _FUZZ_ADVERSARIES
               for path in _FUZZ_FIELDS
               if path[0] != "adversary" or len(path) == 1 or path[1] in adv]
_FUZZ_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, "3", "abc",
                     2.5, 1.0, -1, -2.5, 0, 1e30, 10**30, 2**64, 10**400,
                     None, {}, [1], [0.5, 0.5, 0.5], {"a": 1}]),
    # names and spellings: path-like, empty, case-changed and valid ones
    st.sampled_from(["../x", "", ".", "..", "a/b", "a\0b", "GAP_FLIP", "Up",
                     "Naive", "gap_flip", "null", "up", "naive", "beta"]),
    st.integers(-3, 2**70),
    st.floats(allow_nan=True, allow_infinity=True))


#: the run-level fuzz keeps every accepted run small: a drawn config has
#: at most 5 arms, 4 agents, 3 seeds and 2000 rounds; a mutation writes
#: integers up to 40, and its larger values (1e30, 10**30, 2**64, 10**400)
#: are out of range for the horizon and the seed fields, so no accepted run
#: exceeds 2000 rounds or 40 seeds
_RUN_FUZZ_CAP = {"horizon": 2000, "int": 40}
_RUN_FUZZ_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, "3",
                     "abc", "up", "beta", {}, [], [1], [0, 1], {"a": 1},
                     1e30, 10**30, 2**64, 10**400, 2.5, 0.5, -2.5]),
    st.integers(-3, _RUN_FUZZ_CAP["int"]),
    st.floats(-2.0, 2.0))


def _paths(node, prefix=()):
    """Every key or index path into the nested dicts and lists of ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


#: keys that no config section knows: integers, or short strings over an
#: alphabet that spells no known key but makes YAML quote some of them
_UNKNOWN_KEYS = st.one_of(st.text("abcxyz_-. 019", min_size=1, max_size=6),
                          st.integers(-3, 2**70))


def _node(data, path):
    for key in path:
        data = data[key]
    return data


def assert_unknown_key_named(data, path, key, message):
    """If ``data`` less the unknown ``key`` of its mapping at ``path`` is a
    valid config, the config error ``message`` names ``key``."""
    clean = copy.deepcopy(data)
    del _node(clean, path)[key]
    try:
        validate_config(clean)
    except ConfigError:
        return
    assert repr(key) in message


@st.composite
def _mutated_configs(draw):
    """A whole valid config, then up to four edits anywhere in it: a
    replaced value or a deleted key (never its name or output_dir); then,
    sometimes, one unknown key in one of its mappings.  Returns the config
    and the (path, key) of the unknown key, or None."""
    K, L = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    arm_sets = [draw(st.lists(st.integers(0, K - 1), min_size=1,
                              max_size=K, unique=True)) for _ in range(L)]
    arm_sets[0] = sorted(set(arm_sets[0]) | set(range(K)))  # cover every arm
    budget, magnitude = draw(st.floats(0, 300)), draw(st.floats(0, 1.5))
    arm = draw(st.integers(0, K - 1))
    adversary = draw(st.sampled_from([
        None,
        {"kind": "gap_flip", "magnitude": magnitude, "budget": budget},
        {"kind": "budgeted_targeted", "target_arm": arm,
         "magnitude": magnitude, "budget": budget, "agents": [0]},
        {"kind": "epoch_flood", "target_arm": arm, "start_epoch": 2,
         "direction": "down", "budget": budget, "magnitude": magnitude},
    ]))
    horizon = draw(st.integers(3, _RUN_FUZZ_CAP["horizon"]))
    data = {
        "schema_version": 1,
        "instance": {
            "num_arms": K, "num_agents": L, "arm_sets": arm_sets,
            "means": draw(st.lists(st.floats(0, 1), min_size=K, max_size=K)),
            "reward_model": draw(st.sampled_from(["bernoulli", "beta"])),
            "beta_concentration": draw(st.floats(0.1, 50))},
        "adversary": adversary,
        "algorithm": {"estimator": draw(st.sampled_from(["weighted",
                                                         "naive"])),
                      "lam_scale": draw(st.floats(16, 512)),
                      "delta": draw(st.floats(0.001, 0.5))},
        "horizon": horizon,
        "num_checkpoints": draw(st.integers(1, horizon)),
    }
    if draw(st.booleans()):
        data["seeds"] = draw(st.lists(st.integers(0, 2**64 - 1),
                                      min_size=1, max_size=3, unique=True))
    else:
        data.update(num_seeds=draw(st.integers(1, 3)),
                    seed_base=draw(st.integers(0, 2**40)))
    for _ in range(draw(st.integers(0, 4))):
        path = draw(st.sampled_from(list(_paths(data))))
        node = data
        for key in path[:-1]:
            node = node[key]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[path[-1]]
        else:
            node[path[-1]] = copy.deepcopy(draw(_RUN_FUZZ_VALUES))
    data["name"] = "fuzz"
    mappings = [path for path in [(), *_paths(data)]
                if isinstance(_node(data, path), dict)]
    if not draw(st.booleans()):
        return data, None
    path, key = draw(st.sampled_from(mappings)), draw(_UNKNOWN_KEYS)
    _node(data, path)[key] = copy.deepcopy(draw(_RUN_FUZZ_VALUES))
    return data, (path, key)


class TestConfigValidation:
    def test_valid(self):
        config = validate_config(base_config())
        assert config.estimator == "weighted"
        assert config.seeds == (7,)

    @pytest.mark.parametrize("patch,msg", [
        ({"schema_version": 2}, "schema_version"),
        ({"algorithm": {"delta": 1.5}}, "delta"),
        ({"algorithm": {"lam_scale": 2}}, "lam_scale"),
        ({"algorithm": {"estimator": "mean"}}, "estimator"),
        ({"seeds": []}, "at least one seed"),
        ({"seeds": [1, 1]}, "distinct"),
        ({"horizon": 1}, "horizon"),
        ({"bogus_key": 1}, "unknown top-level"),
        ({"adversary": "loud"}, "mapping"),
        ({"instance": instance(means=[math.nan, 0.5, 0.4])}, "arm 0 mean"),
        ({"algorithm": {"lam_scale": math.nan}}, "lam_scale"),
        ({"algorithm": {"lam_scale": math.inf}}, "lam_scale"),
        ({"seeds": "abc"}, "seeds"),
        ({"seeds": [1.7]}, "seed"),
        ({"seeds": [True]}, "seed"),
        ({"horizon": 2000.9}, "horizon"),
        ({"horizon": "3000"}, "horizon"),
        ({"num_checkpoints": 3.5}, "num_checkpoints"),
        ({"instance": instance(num_arms=4.9)}, "num_arms"),
        ({"instance": instance(arm_sets=[[0, 1.5], [1, 2]])}, "agent 0 arm"),
        ({"instance": instance(beta_concentration=math.nan)},
         "beta_concentration"),
        ({"instance": instance(beta_concentration=-1)}, "beta_concentration"),
        ({"instance": 5}, "mapping"),
        ({"algorithm": [1]}, "mapping"),
        ({"algorithm": {"lam_scale": 1e308}}, "exploration constant"),
        ({"algorithm": {"delta": 1e-320}}, "exploration constant"),
        (_VALIDATE_ONLY[0], "horizon"),
        (_VALIDATE_ONLY[1], "num_checkpoints"),
        ({"instance": instance(beta_concentration=1e18)},
         "beta_concentration"),
        ({"instance": instance(reward_model="beta", means=[0.9, 5e-324, 0.4])},
         "arm 1 mean 5e-324"),
        ({"instance": instance(reward_model="beta", beta_concentration=1e-300,
                               means=[0.9, 0.5, 1 - 2**-53])},
         "arm 2 mean"),
        ({"instance": instance(reward_modle="beta")}, "'reward_modle'"),
        ({"algorithm": {"estimater": "naive"}}, "'estimater'"),
        ({"foo": 0, 1: 0}, "1, 'foo'"),
        ({"schema_version": True}, "schema_version must be a number"),
        ({"name": "../escaped"}, "name must name one directory entry"),
        ({"name": ""}, "name must name one directory entry"),
        ({"name": ".."}, "name must name one directory entry"),
        ({"name": "a\0b"}, "name must name one directory entry"),
        ({"name": ["a", "b"]}, "name must name one directory entry"),
        ({"name": None}, "name must name one directory entry"),
        ({"output_dir": 5}, "output_dir must be a str"),
        ({"adversary": {"kind": 0, "budget": 50.0}}, "unknown adversary kind"),
        ({"output_dir": "a\0b"}, "output_dir must not hold NUL"),
        ({"name": "x" * 300}, "name must name one directory entry"),
        # 128 characters, 256 bytes in UTF-8
        ({"name": "é" * 128}, "name must name one directory entry"),
        ({"algorithm": {"estimator": 1}}, "estimator must be a str, got 1"),
        ({"algorithm": {"estimator": None}},
         "estimator must be a str, got None"),
        ({"algorithm": {"estimator": ["weighted"]}},
         "estimator must be a str, got"),
        ({"num_seeds": 5, "seed_base": 7},
         "give seeds, or num_seeds and seed_base, not both"),
        ({"seed_base": 0}, "give seeds, or num_seeds and seed_base, not both"),
    ])
    def test_invalid(self, tmp_path, capsys, patch, msg):
        with pytest.raises(ConfigError, match=msg):
            validate_config({**base_config(), **patch})
        if patch in _VALIDATE_ONLY:
            return
        assert main(["run", str(write_config(tmp_path, patch))]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and msg in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    @settings(max_examples=400, deadline=None)
    @given(case=st.sampled_from(_FUZZ_CASES), value=_FUZZ_VALUES,
           extra=st.none() | _UNKNOWN_KEYS)
    @example(case=(_FUZZ_ADVERSARIES[0], ("name",)), value="../x", extra=None)
    @example(case=(_FUZZ_ADVERSARIES[0], ("adversary", "kind")),
             value="GAP_FLIP", extra=None)
    @example(case=(_FUZZ_ADVERSARIES[1], ("schema_version",)), value=True,
             extra=None)
    def test_mutated_field_rejected_or_well_formed(self, case, value, extra):
        """A config with one field replaced, and sometimes one unknown key
        beside it, is rejected or well formed; an unknown key is always
        rejected."""
        adversary, path = case
        data = base_config(instance=instance(reward_model="beta",
                                             beta_concentration=4.0),
                           adversary=copy.deepcopy(adversary))
        if path[0] in ("num_seeds", "seed_base"):
            data.update(num_seeds=2, seed_base=3)
            del data["seeds"]
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        added = extra is not None and isinstance(node, dict)
        if added:
            node[extra] = 0
        try:
            config = validate_config(data)
        except ConfigError as exc:
            if added:
                assert_unknown_key_named(data, path[:-1], extra, str(exc))
            return
        assert not added
        assert_well_formed(config)

    @settings(max_examples=150, deadline=None)
    @given(data=_mutated_configs())
    def test_mutated_config_runs_or_exits_2(self, data):
        """``draa run`` on a mutated whole config exits 2 with a message
        and writes nothing, or finishes with sound totals; any other exit
        or an exception fails.  An unknown key always exits 2."""
        data, unknown = data
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            data["output_dir"] = str(out)
            path = Path(tmp) / "config.yaml"
            path.write_text(yaml.safe_dump(data))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", str(path), "--backend", "numpy"])
            if code == 2:
                assert "configuration error" in stderr.getvalue()
                assert not out.exists()
                if unknown:
                    assert_unknown_key_named(data, *unknown,
                                             stderr.getvalue())
                return
            assert code == 0 and unknown is None
            config = load_config(path)
            assert config.horizon <= _RUN_FUZZ_CAP["horizon"]
            for seed in config.seeds:
                with open(out / "fuzz" / f"seed_{seed}_summary.json") as fh:
                    summary = json.load(fh)
                assert math.isfinite(summary["regret_total"])
                assert all(map(math.isfinite, summary["regret_per_agent"]))
                budget = config.adversary.budget
                assert 0 <= summary["corruption"]["C"] <= budget
                assert summary["comm_cost"] == (config.instance.num_agents
                                                * summary["num_epochs"])

    @pytest.mark.parametrize("horizon,count", [(50, 50), (64, 64),
                                               (2000, 64)])
    def test_num_checkpoints_default(self, horizon, count):
        data = base_config(horizon=horizon)
        del data["num_checkpoints"]
        assert validate_config(data).num_checkpoints == count

    @pytest.mark.parametrize("name", ["x" * 255, "é" * 127 + "x"])
    def test_name_of_255_bytes(self, name):
        assert validate_config(base_config(name=name)).name == name

    def test_name_that_cannot_be_encoded(self):
        # libyaml rejects a lone surrogate; the pure-Python loader and
        # the API pass it on
        with pytest.raises(ConfigError, match="name must name one"):
            validate_config(base_config(name="\ud800"))

    def test_missing_horizon(self):
        data = base_config()
        del data["horizon"]
        with pytest.raises(ConfigError, match="horizon"):
            validate_config(data)

    def test_seed_count_form(self):
        data = base_config()
        del data["seeds"]
        data["num_seeds"] = 3
        data["seed_base"] = 100
        config = validate_config(data)
        assert config.seeds == (100, 101, 102)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")


def test_checkpoint_spacing():
    cps = evenly_spaced_checkpoints(1000, 10)
    assert cps[-1] == 1000
    assert len(cps) == 10
    cps_small = evenly_spaced_checkpoints(5, 64)
    assert cps_small == [1, 2, 3, 4, 5]


def _csv_writer_rows(seed, cp):
    """The checkpoint CSV as ``csv.writer`` wrote it from the row lists
    ``runner.checkpoint_rows`` made before it formatted text itself."""
    agents = [f"regret_agent_{ell}" for ell in range(cp.regret.shape[1])]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["seed", "t", "total_regret", *agents, "C_so_far",
                     "comm_cost"])
    for t, total, regret, so_far, cost in zip(
            cp.t, cp.regret.sum(axis=1), cp.regret, cp.corruption,
            cp.comm_cost):
        writer.writerow([seed, t, f"{total:.10g}",
                         *(f"{r:.10g}" for r in regret.tolist()),
                         f"{so_far:.10g}", cost])
    return buf.getvalue()


_CSV_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -2.2250738585072014e-308, 1e-300, -1e300,
                     1.7976931348623157e308, 1e-310]),
    st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300),
    st.floats(allow_nan=False, allow_infinity=False, width=64))
_CSV_INTS = st.one_of(st.integers(-2**63, -2**63 + 10),
                      st.integers(2**63 - 10, 2**63 - 1),
                      st.integers(-10**6, 10**6))


@given(data=st.data(), L=st.sampled_from([1, 3, 64]),
       seed=st.integers(0, 2**64 - 1), extra=st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_checkpoint_text_is_the_csv_writer_bytes(data, L, seed, extra):
    """``checkpoint_rows``' header and text chunks are the bytes
    ``csv.writer`` wrote from the old row lists, for special floats,
    int64 extremes and row counts on both sides of a chunk."""
    chunk = max(1, runner._CSV_CELLS // (L + 4))
    rows = data.draw(st.sampled_from(
        [0, 1, max(0, chunk + extra), max(0, 2 * chunk + extra)]))

    def floats(shape):
        cells = int(np.prod(shape))
        drawn = data.draw(st.lists(_CSV_FLOATS, min_size=min(cells, 40),
                                   max_size=min(cells, 40)))
        # the drawn values, then plain ones, shuffled into place
        values = np.random.default_rng(seed % 2**32).normal(
            0.0, 1e3, cells)
        values[:len(drawn)] = drawn
        return np.random.default_rng(rows).permutation(values).reshape(shape)

    def ints():
        drawn = data.draw(st.lists(_CSV_INTS, min_size=min(rows, 20),
                                   max_size=min(rows, 20)))
        values = np.arange(rows, dtype=np.int64)
        values[:len(drawn)] = drawn
        return values

    cp = engine.Checkpoints(t=ints(), regret=floats((rows, L)),
                            corruption=floats((rows,)), comm_cost=ints())
    with np.errstate(over="ignore", invalid="ignore"):
        text = "".join(runner.checkpoint_rows(seed, cp))
        expected = _csv_writer_rows(seed, cp)
    assert text == expected


def set_cpus(monkeypatch, affinity, count=64):
    """Let the process run on ``affinity`` CPUs of a machine with ``count``;
    ``affinity`` None stands for a platform with no affinity mask."""
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(affinity)), raising=False)


@pytest.fixture
def built_pools(monkeypatch):
    """The ``max_workers`` of each process pool ``run_experiment`` builds;
    the pools map in process, so no process starts."""
    built = []

    class InProcessPool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        map = staticmethod(map)

    # the runner imports the pool class where it builds a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    return built


class TestRunPersistence:
    def test_artifacts_written(self, tmp_path):
        config = validate_config(base_config(output_dir=str(tmp_path)))
        summaries = run_experiment(config, backend="numpy", quiet=True)
        assert len(summaries) == 1
        out = tmp_path / "unit"
        assert (out / "seed_7_checkpoints.csv").exists()
        assert (out / "seed_7_summary.json").exists()
        assert (out / "checkpoints.csv").exists()
        with open(out / "seed_7_summary.json") as fh:
            summary = json.load(fh)
        assert summary["seed"] == 7
        assert summary["comm_cost"] == 2 * summary["num_epochs"]
        assert summary["lambda"] > 0
        header = (out / "checkpoints.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "seed", "t", "total_regret", "regret_agent_0", "regret_agent_1",
            "C_so_far", "comm_cost"]

    def test_rerun_byte_identical(self, tmp_path):
        config = validate_config(base_config(output_dir=str(tmp_path)))
        run_experiment(config, backend="numpy", quiet=True)
        first = (tmp_path / "unit" / "seed_7_checkpoints.csv").read_bytes()
        run_experiment(config, backend="numpy", quiet=True)
        second = (tmp_path / "unit" / "seed_7_checkpoints.csv").read_bytes()
        assert first == second

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DRAA_OUTPUT_DIR", str(tmp_path / "override"))
        config = validate_config(base_config(output_dir=str(tmp_path / "no")))
        run_experiment(config, backend="numpy", quiet=True)
        assert (tmp_path / "override" / "unit" / "checkpoints.csv").exists()
        assert not (tmp_path / "no").exists()

    def test_parallel_jobs_match_sequential(self, tmp_path, monkeypatch):
        config = validate_config(base_config(output_dir=str(tmp_path / "a"),
                                             seeds=[1, 2]))
        run_experiment(config, backend="numpy", quiet=True)
        monkeypatch.setenv("DRAA_JOBS", "2")
        config2 = validate_config(base_config(output_dir=str(tmp_path / "b"),
                                              seeds=[1, 2]))
        run_experiment(config2, backend="numpy", quiet=True)
        a = (tmp_path / "a" / "unit" / "checkpoints.csv").read_bytes()
        b = (tmp_path / "b" / "unit" / "checkpoints.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("seeds,pool_sizes", [([3, 1, 2], [3]),
                                                  ([5], [])])
    def test_jobs_capped_at_seed_count(self, tmp_path, monkeypatch,
                                       built_pools, seeds, pool_sizes):
        set_cpus(monkeypatch, 64)
        monkeypatch.setenv("DRAA_JOBS", "64")
        config = validate_config(base_config(output_dir=str(tmp_path),
                                             seeds=seeds))
        summaries = run_experiment(config, backend="numpy", quiet=True)
        assert built_pools == pool_sizes
        assert [s["seed"] for s in summaries] == seeds

    @pytest.mark.parametrize("cpus,pool_sizes", [(2, [2]), (None, [])])
    def test_jobs_capped_at_cpu_count(self, tmp_path, monkeypatch,
                                      built_pools, cpus, pool_sizes):
        """Without an affinity mask, the cap is ``os.cpu_count()``, and 1
        when that is unknown."""
        set_cpus(monkeypatch, None, cpus)
        monkeypatch.setenv("DRAA_JOBS", "64")
        config = validate_config(base_config(output_dir=str(tmp_path),
                                             seeds=[3, 1, 2]))
        summaries = run_experiment(config, backend="numpy", quiet=True)
        assert built_pools == pool_sizes
        assert [s["seed"] for s in summaries] == [3, 1, 2]

    @pytest.mark.parametrize("affinity,pool_sizes", [(2, [2]), (1, [])])
    def test_jobs_capped_at_affinity(self, tmp_path, monkeypatch,
                                     built_pools, affinity, pool_sizes):
        """The cap is the number of CPUs the process may run on, not the
        number the machine has."""
        set_cpus(monkeypatch, affinity, 64)
        monkeypatch.setenv("DRAA_JOBS", "64")
        config = validate_config(base_config(output_dir=str(tmp_path),
                                             seeds=[3, 1, 2]))
        summaries = run_experiment(config, backend="numpy", quiet=True)
        assert built_pools == pool_sizes
        assert [s["seed"] for s in summaries] == [3, 1, 2]

    def test_cli_import_leaves_multiprocessing_out(self):
        """A one-job run never needs a process pool, so importing the CLI
        does not import ``multiprocessing``."""
        src = str(Path(draa.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, draa.cli; "
             "print('multiprocessing' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_numpy_run_leaves_numpy_ma_out(self, tmp_path):
        """A Bernoulli numpy-kernel run under attack does not import
        ``numpy.ma``, which some numpy set routines import on first use
        (``np.union1d`` does) and which adds about 1.6 MiB to a run's peak
        RSS.  (A Beta run imports it with scipy.)  Nor does it import
        the Beta table module or the ``hashlib`` of its cache key."""
        path = write_config(
            tmp_path,
            adversary={"kind": "gap_flip", "magnitude": 0.5, "budget": 50.0})
        src = str(Path(draa.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from draa.cli import main; "
             f"main(['run', {str(path)!r}, '--backend', 'numpy']); "
             "print([m for m in ('numpy.ma', 'hashlib', 'draa.beta_tables')"
             " if m in sys.modules])"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_merged_csv_is_the_seed_files_in_config_order(self, tmp_path,
                                                          monkeypatch):
        """``checkpoints.csv`` is the first seed file's header, then each
        seed file's rows in config order, whatever the job count; two
        jobs send every seed's checkpoints back through a pickle."""
        set_cpus(monkeypatch, 2)
        merged = []
        for jobs in ("1", "2"):
            monkeypatch.setenv("DRAA_JOBS", jobs)
            config = validate_config(base_config(
                output_dir=str(tmp_path / jobs), seeds=[3, 1, 2],
                num_checkpoints=50))
            run_experiment(config, backend="numpy", quiet=True)
            out = tmp_path / jobs / "unit"
            lines = [(out / f"seed_{seed}_checkpoints.csv").read_bytes()
                     .splitlines(keepends=True) for seed in (3, 1, 2)]
            assert len(lines[0]) == 51
            expected = b"".join([lines[0][0], *(b"".join(seed_lines[1:])
                                                for seed_lines in lines)])
            merged.append((out / "checkpoints.csv").read_bytes())
            assert merged[-1] == expected
        assert merged[0] == merged[1]

    def test_write_phase_holds_the_arrays_not_their_text(self, tmp_path,
                                                         monkeypatch):
        """Writing every checkpoint row of a run costs tracemalloc's peak
        under 1 MB more than the run itself, whose arrays it writes."""
        monkeypatch.setenv("DRAA_JOBS", "1")
        data = load_yaml(ROOT / "configs" / "experiment.yaml")
        config = validate_config(dict(
            data, horizon=20_000, num_checkpoints=20_000, seeds=[0],
            output_dir=str(tmp_path)))
        runner.execute_run(config, 0, backend="numpy")  # warm every cache

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_peak = peak(lambda: runner.execute_run(config, 0,
                                                   backend="numpy"))
        write_peak = peak(lambda: run_experiment(config, backend="numpy",
                                                 quiet=True))
        assert write_peak <= run_peak + 10**6

    def test_one_beta_table_per_experiment(self, tmp_path, monkeypatch):
        import scipy.special

        calls = []
        inverse = scipy.special.betaincinv
        monkeypatch.setattr(scipy.special, "betaincinv",
                            lambda *args: calls.append(1) or inverse(*args))
        monkeypatch.setenv("DRAA_JOBS", "1")
        config = validate_config(base_config(
            output_dir=str(tmp_path), seeds=[1, 2, 3],
            instance=instance(reward_model="beta")))
        run_experiment(config, backend="numpy", quiet=True)
        # one table holds one inverse-CDF evaluation per arm
        assert len(calls) == config.instance.num_arms

    def test_two_jobs_share_a_cold_beta_cache(self, tmp_path, monkeypatch,
                                              cold_beta_cache):
        """Two workers that both miss the cache leave one whole table file
        and write what one job writes."""
        set_cpus(monkeypatch, 2)
        written = {}
        for jobs in ("2", "1"):
            monkeypatch.setenv("DRAA_JOBS", jobs)
            config = validate_config(base_config(
                output_dir=str(tmp_path), seeds=[1, 2],
                instance=instance(reward_model="beta")))
            run_experiment(config, backend="numpy", quiet=True)
            out = tmp_path / "unit"
            written[jobs] = {f.name: f.read_bytes() for f in out.iterdir()}
            [table] = (cold_beta_cache / "draa").iterdir()
            assert table.name.startswith("beta-") and table.suffix == ".npy"
            loaded = np.load(table, allow_pickle=False)
            assert loaded.shape == (3, 4097) and loaded.dtype == np.float64
        assert written["1"] == written["2"]

    def test_bad_jobs_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("DRAA_JOBS", "many")
        config = validate_config(base_config(output_dir=str(tmp_path)))
        with pytest.raises(ConfigError, match="DRAA_JOBS"):
            run_experiment(config, backend="numpy", quiet=True)


class TestSweep:
    def sweep_data(self, tmp_path, axes):
        return {
            "base": base_config(output_dir=str(tmp_path),
                                adversary={"kind": "budgeted_targeted",
                                           "target_arm": 0,
                                           "magnitude": 0.5,
                                           "budget": 0.0}),
            "axes": axes,
        }

    def test_budget_axis_rows(self, tmp_path):
        spec = validate_sweep(self.sweep_data(
            tmp_path, [{"field": "adversary.budget",
                        "values": [0, 50, 100]}]))
        rows = run_sweep(spec, backend="numpy", quiet=True)
        assert len(rows) == 3
        assert [r["adversary.budget"] for r in rows] == [0, 50, 100]
        assert (tmp_path / "unit_sweep.csv").exists()

    def test_parallel_jobs_match_sequential(self, tmp_path, monkeypatch):
        # two seeds per point, so that DRAA_JOBS=2 starts two workers; one
        # config, redirected by DRAA_OUTPUT_DIR, so the summaries match
        set_cpus(monkeypatch, 2)
        data = self.sweep_data(tmp_path / "config_dir",
                               [{"field": "adversary.budget",
                                 "values": [0, 50]}])
        data["base"]["seeds"] = [1, 2]
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs_{jobs}"
            monkeypatch.setenv("DRAA_JOBS", jobs)
            monkeypatch.setenv("DRAA_OUTPUT_DIR", str(out))
            run_sweep(validate_sweep(data), backend="numpy", quiet=True)
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in out.rglob("*") if p.is_file()})
        # the sweep CSV, and per point a CSV and two seeds' summary and CSV
        assert len(trees[0]) == 11
        assert trees[0] == trees[1]

    def test_point_summaries_name_their_point(self, tmp_path):
        spec = validate_sweep(self.sweep_data(
            tmp_path, [{"field": "algorithm.estimator",
                        "values": ["weighted", "naive"]}]))
        run_sweep(spec, backend="numpy", quiet=True)
        path = tmp_path / "unit_estimator=naive" / "seed_7_summary.json"
        with open(path) as fh:
            summary = json.load(fh)
        assert summary["name"] == "unit_estimator=naive"
        # the echoed config, run again, writes into the point's directory
        assert summary["config"]["name"] == "unit_estimator=naive"

    def test_estimator_axis_rows(self, tmp_path):
        spec = validate_sweep(self.sweep_data(
            tmp_path, [{"field": "algorithm.estimator",
                        "values": ["weighted", "naive"]}]))
        labels = [label for label, _ in spec.points]
        assert labels == [{"algorithm.estimator": "weighted"},
                          {"algorithm.estimator": "naive"}]

    def test_two_axes_cross_product(self, tmp_path):
        spec = validate_sweep(self.sweep_data(
            tmp_path,
            [{"field": "adversary.budget", "values": [0, 10]},
             {"field": "algorithm.estimator",
              "values": ["weighted", "naive"]}]))
        assert len(spec.points) == 4

    def test_point_name_is_one_entry(self, tmp_path):
        data = self.sweep_data(tmp_path, [{"field": "output_dir",
                                           "values": ["out/a"]}])
        with pytest.raises(ConfigError, match="sweep point name"):
            validate_sweep(data)

    def test_cap_enforced(self, tmp_path):
        data = self.sweep_data(
            tmp_path, [{"field": "adversary.budget",
                        "values": list(range(100))}])
        with pytest.raises(ConfigError, match="cap"):
            validate_sweep(data)


#: a stored run summary's fields, as ``draa show`` reads them
_SUMMARY = {"name": "x", "seed": 0, "estimator": "weighted",
            "backend": "numpy", "horizon": 3, "num_epochs": 1, "lambda": 2.0,
            "regret_total": 1.0, "regret_per_agent": [1.0],
            "corruption": {"C": 0.0, "C_per_epoch": [0.0]}, "comm_cost": 1,
            "fallback_epochs": 0, "prob_bracket_violations": 0,
            "gap_range_violations": 0}


#: a config whose name nests 5,000 levels deep
_NESTED = "schema_version: 1\nname: " + "[" * 5000 + "]" * 5000


class TestCli:
    def test_run_success(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--backend", "numpy"]) == 0
        assert (tmp_path / "unit" / "checkpoints.csv").exists()

    def test_invalid_config_exit_2(self, tmp_path):
        path = write_config(tmp_path, algorithm={"delta": 1.5})
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("loader", ["default", "SafeLoader", "python"])
    def test_malformed_yaml_exit_2(self, tmp_path, monkeypatch, capsys,
                                   loader):
        if loader == "SafeLoader":
            monkeypatch.setattr(config_module, "YAML_LOADER", yaml.SafeLoader)
        elif loader == "python":
            monkeypatch.setattr(config_module, "YAML_LOADER",
                                self.python_parser_loader(monkeypatch))
        path = tmp_path / "config.yaml"
        path.write_text("schema_version: 1\ninstance: [0, 1\nhorizon: 10\n")
        assert main(["run", str(path)]) == 2
        assert "could not parse" in capsys.readouterr().err

    @staticmethod
    def python_parser_loader(monkeypatch):
        """``config.YAML_LOADER`` as a PyYAML without libyaml builds it:
        a private copy of the module, run without ``yaml.CSafeLoader``."""
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        spec = importlib.util.spec_from_file_location(
            "draa._config_without_libyaml", config_module.__file__)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        assert issubclass(module.YAML_LOADER, yaml.SafeLoader)
        return module.YAML_LOADER

    @classmethod
    def other_loads(cls, monkeypatch, path) -> list:
        """``load_yaml(path)`` under plain ``yaml.SafeLoader``, the
        reference, then under ``config.YAML_LOADER`` as a PyYAML without
        libyaml builds it."""
        loads = []
        for loader in (yaml.SafeLoader, cls.python_parser_loader(monkeypatch)):
            monkeypatch.setattr(config_module, "YAML_LOADER", loader)
            loads.append(load_yaml(path))
        return loads

    @pytest.mark.parametrize("parser", ["default", "python"])
    @pytest.mark.parametrize("command,section", [
        ("run", None), ("run", "instance"), ("sweep", "base")])
    def test_repeated_key_exit_2(self, tmp_path, monkeypatch, capsys,
                                 parser, command, section):
        """A key given twice in one mapping exits 2 with its line, before
        anything is written, instead of the last value silently winning."""
        if parser == "python":
            monkeypatch.setattr(config_module, "YAML_LOADER",
                                self.python_parser_loader(monkeypatch))
        data = base_config(output_dir=str(tmp_path))
        if command == "sweep":
            data = {"base": data,
                    "axes": [{"field": "horizon", "values": [1500]}]}
        lines = yaml.safe_dump(data).splitlines()
        key = "num_arms" if section == "instance" else "horizon"
        if section is None:
            lines.append(f"{key}: 3000")
            line = len(lines)
        else:
            line = lines.index(f"{section}:") + 2
            lines.insert(line - 1, f"  {key}: 3")
        path = tmp_path / "config.yaml"
        path.write_text("\n".join(lines) + "\n")
        assert main([command, str(path), "--backend", "numpy"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: could not parse")
        assert f"found duplicate key {key!r}" in err
        assert f"line {line}," in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]

    @pytest.mark.parametrize("parser", ["default", "python"])
    def test_merge_may_override_a_key(self, tmp_path, monkeypatch, parser):
        """A ``<<`` merge, chained or not, may repeat a key on purpose; a
        complex key is PyYAML's own error, not a TypeError."""
        if parser == "python":
            monkeypatch.setattr(config_module, "YAML_LOADER",
                                self.python_parser_loader(monkeypatch))
        path = tmp_path / "merge.yaml"
        # ``c`` flattens ``b`` before ``b`` itself is built
        path.write_text("a: {b: &b {<<: {k: 0, j: 1}, k: 1}}\n"
                        "c: {<<: *b, k: 2}\n")
        assert load_yaml(path) == {"a": {"b": {"k": 1, "j": 1}},
                                   "c": {"k": 2, "j": 1}}
        path.write_text("? [1, 2]\n: x\n")
        with pytest.raises(ConfigError, match="found unhashable key"):
            load_yaml(path)

    @pytest.mark.parametrize("overrides", [
        {},
        {"horizon": 1500},
        {"algorithm": {"delta": 1.5}},
        {"adversary": {"kind": "gap_flip", "magnitude": 0.7,
                       "budget": 20.3}},
    ])
    def test_yaml_loaders_agree(self, tmp_path, monkeypatch, overrides):
        if yaml.__with_libyaml__:
            assert issubclass(config_module.YAML_LOADER, yaml.CSafeLoader)
        path = write_config(tmp_path, **overrides)
        default = load_yaml(path)
        assert self.other_loads(monkeypatch, path) == [default, default]
        assert default == base_config(output_dir=str(tmp_path), **overrides)

    @pytest.mark.parametrize("text,expected", [
        ("0", 0), ("12", 12), ("007", 7), ("0x1F", 31), ("0b101", 5),
        ("1_000", 1000), ("+5", 5), ("-3", -3), ("1:30", 90),
        ('!!int "12"', 12), ("'12'", "12"), ("1.5", 1.5), ("true", True),
        ("~", None), ("!!str 5", "5"),
    ])
    def test_yaml_integer_forms_agree(self, tmp_path, monkeypatch, text,
                                      expected):
        # sequence items take the loader's own integer path; a mapping
        # value does not
        path = tmp_path / "forms.yaml"
        path.write_text(f"seq: [{text}, 4]\nnested: [[{text}]]\n"
                        f"key: {text}\n")
        default = load_yaml(path)
        # repr tells 1, 1.0 and True apart
        assert repr(default) == repr(
            {"seq": [expected, 4], "nested": [[expected]], "key": expected})
        assert repr(self.other_loads(monkeypatch, path)) == repr(
            [default, default])

    @given(value=st.one_of(
        st.sampled_from(["0", "7", "12", "-3", "+5", "0x1f", "017", "09",
                         "00", "1_000", "1:30", ".5", "1.0", "~", "yes", "",
                         " 1", "1\n", "１２"]),
        st.from_regex(r"[-+]?[0-9]{1,4}", fullmatch=True),
        st.from_regex(r"[-+]?[0-9_:.xe]{0,6}", fullmatch=True),
        st.text(max_size=6)), plain=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_yaml_resolver_shortcut_agrees(self, value, plain):
        """The loader's plain-decimal shortcut tags every plain and quoted
        scalar as PyYAML's own resolver does."""
        loader = config_module.YAML_LOADER("")
        implicit = (plain, not plain)
        assert (loader.resolve(yaml.ScalarNode, value, implicit)
                == yaml.resolver.Resolver.resolve(loader, yaml.ScalarNode,
                                                  value, implicit))

    def test_yaml_aliased_integers_agree(self, tmp_path, monkeypatch):
        path = tmp_path / "alias.yaml"
        path.write_text("a: [&n 5, *n, [*n, &m 0]]\nb: *m\nc: &s [1, 2]\n"
                        "d: [*s, *s]\n")
        default = load_yaml(path)
        assert default == {"a": [5, 5, [5, 0]], "b": 0, "c": [1, 2],
                           "d": [[1, 2], [1, 2]]}
        assert default["d"][0] is default["c"]  # an alias is one object
        for other in self.other_loads(monkeypatch, path):
            assert other == default and other["d"][0] is other["c"]

    def test_non_scalar_int_tag_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        path.write_text(path.read_text() + "bad: [!!int [1]]\n")
        assert main(["run", str(path)]) == 2
        assert "could not parse" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1.0e4", "1e4"])
    def test_unsigned_exponent_hint(self, tmp_path, capsys, text):
        path = write_config(tmp_path, horizon=2000)
        path.write_text(path.read_text().replace("horizon: 2000",
                                                 f"horizon: {text}"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert (f"horizon must be a number, got '{text}' (YAML 1.1 reads "
                f"this as text; write 10000 or 1.0e+4)") in err
        assert not (tmp_path / "unit").exists()

    @pytest.mark.parametrize("text,write", [
        ("1e4", "10000 or 1.0e+4"), ("1e+300", "1.0e+300"),
        ("1e300", "1.0e+300"), ("1e23", "1.0e+23"), ("25e-1", "25.0e-1"),
        ("3e2", "300 or 3.0e+2")])
    def test_exponent_hint_offers_only_the_written_integer(self, text, write):
        """1e23 and 1e+300 are not integers as floats hold them, so the
        hint offers no digits that differ from the number written."""
        from draa.errors import _exponent_hint
        assert _exponent_hint(text) == (
            f" (YAML 1.1 reads this as text; write {write})")

    def test_signed_exponent_runs(self, tmp_path):
        path = write_config(tmp_path, horizon=2000)
        path.write_text(path.read_text().replace("horizon: 2000",
                                                 "horizon: 1.0e+4"))
        assert main(["run", str(path), "--backend", "numpy"]) == 0
        with open(tmp_path / "unit" / "seed_7_summary.json") as fh:
            assert json.load(fh)["horizon"] == 10000

    @pytest.mark.parametrize("command,flag", [
        ("run", False), ("run", True), ("verify", True)])
    def test_numba_request_without_numba_exit_2(self, tmp_path, monkeypatch,
                                                capsys, command, flag):
        # a user asking for numba never gets the uncompiled loop
        monkeypatch.setattr(kernels, "_HAVE_NUMBA", False)
        if flag:
            monkeypatch.delenv("DRAA_BACKEND", raising=False)
        else:
            monkeypatch.setenv("DRAA_BACKEND", "numba")
        path = write_config(tmp_path)
        argv = [command, str(path)] + (["--backend", "numba"] if flag else [])
        assert main(argv) == 2
        assert "numba is not importable" in capsys.readouterr().err
        assert not (tmp_path / "unit").exists()

    @pytest.mark.parametrize("adversary,msg", [
        pytest.param({"kind": "budgeted_targeted", "target_arm": 0,
                      "magnitude": float("nan"), "budget": 50.0},
                     "magnitude", id="nan-magnitude"),
        pytest.param({"kind": "budgeted_targeted", "target_arm": 0,
                      "magnitude": -0.5, "budget": 50.0},
                     "magnitude", id="negative-magnitude"),
        pytest.param({"kind": "gap_flip", "magnitude": 0.5,
                      "budget": float("inf")}, "budget", id="inf-budget"),
        pytest.param({"kind": "gap_flip", "magnitude": 0.5, "budget": -1.0},
                     "budget", id="negative-budget"),
        pytest.param({"kind": "budgeted_targeted", "target_arm": 7,
                      "magnitude": 0.5, "budget": 50.0},
                     "target_arm 7", id="target-arm-past-K"),
        pytest.param({"kind": "epoch_flood", "target_arm": -1,
                      "start_epoch": 1, "direction": "up", "budget": 50.0},
                     "target_arm -1", id="negative-target-arm"),
        pytest.param({"kind": "epoch_flood", "target_arm": 0,
                      "start_epoch": 0, "direction": "up", "budget": 50.0},
                     "start_epoch", id="start-epoch-0"),
        pytest.param({"kind": "budgeted_targeted", "target_arm": 1,
                      "magnitude": 0.5, "budget": 50.0, "agents": [0, 2]},
                     "agent 2", id="agent-past-L"),
        pytest.param({"kind": "gap_flip", "magnitude": 0.5, "budget": 50.0,
                      "strength": 2}, "unknown adversary keys: ['strength']",
                     id="unknown-key"),
        pytest.param({"kind": "gap_flip", "magnitude": 0.5},
                     "adversary budget is required", id="missing-budget"),
        pytest.param({"kind": "epoch_flood", "target_arm": 0,
                      "start_epoch": 1, "direction": 1, "budget": 50.0},
                     "adversary direction must be 'up' or 'down', got 1",
                     id="int-direction"),
        pytest.param({"kind": "budgeted_targeted", "target_arm": 1.7,
                      "magnitude": 0.5, "budget": 50.0},
                     "target_arm", id="fractional-target-arm"),
        pytest.param({"kind": "epoch_flood", "target_arm": 0,
                      "start_epoch": 2.5, "direction": "up", "budget": 50.0},
                     "start_epoch", id="fractional-start-epoch"),
        pytest.param({"kind": "budgeted_targeted", "target_arm": 1,
                      "magnitude": 0.5, "budget": 50.0, "agents": [0.9]},
                     "agent", id="fractional-agent"),
        pytest.param({"kind": "budgeted_targeted", "target_arm": 1,
                      "magnitude": 0.5, "budget": 50.0, "agents": 5},
                     "adversary agents must be a list, got 5",
                     id="int-agents"),
        pytest.param({"kind": "budgeted_targeted", "target_arm": 0,
                      "magnitude": True, "budget": 50.0},
                     "magnitude", id="bool-magnitude"),
        pytest.param({"kind": 0, "budget": 50.0},
                     "unknown adversary kind 0", id="zero-kind"),
        pytest.param({"kind": False, "budget": 50.0},
                     "unknown adversary kind False", id="false-kind"),
        pytest.param({"kind": "", "budget": 50.0},
                     "unknown adversary kind ''", id="empty-kind"),
        pytest.param({"kind": "GAP_FLIP", "magnitude": 0.5, "budget": 50.0},
                     "unknown adversary kind 'GAP_FLIP'", id="upper-kind"),
        pytest.param({"kind": ["gap_flip"], "magnitude": 0.5,
                      "budget": 50.0},
                     "unknown adversary kind ['gap_flip']", id="list-kind"),
    ])
    def test_invalid_adversary_exit_2(self, tmp_path, capsys, adversary,
                                      msg):
        path = write_config(tmp_path, adversary=adversary)
        assert main(["run", str(path), "--backend", "numpy"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and msg in err
        assert not (tmp_path / "unit").exists()

    @pytest.mark.parametrize("patch,msg", [
        ({"axes": [1]}, "sweep axis"),
        ({"cap": "x"}, "cap"),
        # the first point is valid: the second must fail before it runs
        ({"axes": [{"field": "algorithm.lam_scale", "values": [16, 5]}]},
         "lam_scale must be >= 16"),
        ({"axes": [{"field": "horizon", "values": [1500]},
                   {"field": "algorithm.estimator",
                    "values": ["weighted", "mean"]}]}, "estimator"),
        ({"axes": [{"field": "algorithm.estimater",
                    "values": ["weighted", "naive"]}]}, "'estimater'"),
        ({"axse": [{"field": "horizon", "values": [1500]}]}, "'axse'"),
        ({"axes": [{"field": "horizon", "values": [1500],
                    "value": [2000]}]}, "'value'"),
        ({"axes": [{"field": "name", "values": ["../../esc"]}]},
         "name must name one directory entry"),
        ({"axes": [{"field": "adversary.budget", "values": [10.0, 10.0]}]},
         "sweep points share the name 'unit_budget=10.0'"),
        # "base" holds overrides of base_config; a point name or the CSV
        # name that passes 255 bytes fails before anything runs
        ({"base": {"name": "y" * 250},
          "axes": [{"field": "seeds", "values": [[0]]}]},
         "name must name one directory entry"),
        ({"base": {"name": "y" * 245},
          "axes": [{"field": "horizon", "values": [1500]}]},
         "sweep point name must name one directory entry"),
        ({"base": {"name": "y" * 247},
          "axes": [{"field": "name", "values": ["z"]}]},
         "sweep CSV name must name one directory entry"),
        # the base lists seeds, so no point may count them as well
        ({"axes": [{"field": "num_seeds", "values": [1, 2]}]},
         "give seeds, or num_seeds and seed_base, not both"),
        # two axes on one field, or on a field and a part of it, would
        # drop one axis's values or write into the other's value
        ({"axes": [{"field": "horizon", "values": [1000]},
                   {"field": "horizon", "values": [2000]}]},
         "sweep axes 'horizon' and 'horizon' overlap"),
        ({"axes": [{"field": "adversary",
                    "values": [{"kind": "budgeted_targeted",
                                "target_arm": 0, "magnitude": 0.5,
                                "budget": 10.0}]},
                   {"field": "adversary.budget", "values": [1.0, 2.0]}]},
         "sweep axes 'adversary' and 'adversary.budget' overlap"),
    ])
    def test_invalid_sweep_exit_2(self, tmp_path, capsys, patch, msg):
        spec = {"axes": [{"field": "horizon", "values": [1500, 2000]}],
                **patch, "base": base_config(output_dir=str(tmp_path),
                                             **patch.get("base", {}))}
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(spec))
        assert main(["sweep", str(path), "--backend", "numpy"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and msg in err
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.yaml"]

    @staticmethod
    def count_seeds(monkeypatch):
        """A list that gains an entry whenever a seed starts to run."""
        ran, execute_run = [], runner.execute_run
        monkeypatch.setattr(runner, "execute_run", lambda *args, **kwargs:
                            ran.append(1) or execute_run(*args, **kwargs))
        return ran

    @pytest.mark.parametrize("where", ["output_dir", "output_dir/sub",
                                       "DRAA_OUTPUT_DIR"])
    def test_output_blocked_by_a_file_exit_2(self, tmp_path, monkeypatch,
                                             capsys, where):
        """A file where the run directory or one of its parents should be
        fails the run before its first seed, and nothing is written."""
        blocker = tmp_path / "afile"
        blocker.write_text("")
        monkeypatch.delenv("DRAA_OUTPUT_DIR", raising=False)
        if where == "DRAA_OUTPUT_DIR":
            monkeypatch.setenv("DRAA_OUTPUT_DIR", str(blocker))
            path = write_config(tmp_path, seeds=[7, 8])
        else:
            path = write_config(tmp_path, {"output_dir": str(
                blocker / where.partition("/")[2])}, seeds=[7, 8])
        ran = self.count_seeds(monkeypatch)
        assert main(["run", str(path), "--backend", "numpy"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: output directory ")
        assert f"is blocked by the file {str(blocker)!r}" in err
        assert ran == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "afile", "config.yaml"]

    @pytest.mark.parametrize("blocked", ["unit_horizon=2000", "out"])
    def test_sweep_output_blocked_by_a_file_exit_2(self, tmp_path,
                                                   monkeypatch, capsys,
                                                   blocked):
        """A file blocking the second point's directory, or the sweep
        CSV's, fails the sweep before its first point runs."""
        (tmp_path / blocked).write_text("")
        monkeypatch.delenv("DRAA_OUTPUT_DIR", raising=False)
        out = tmp_path / ("out" if blocked == "out" else "")
        spec = {"axes": [{"field": "horizon", "values": [1500, 2000]}],
                "base": base_config(output_dir=str(out))}
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(spec))
        ran = self.count_seeds(monkeypatch)
        assert main(["sweep", str(path), "--backend", "numpy"]) == 2
        err = capsys.readouterr().err
        assert f"is blocked by the file {str(tmp_path / blocked)!r}" in err
        assert ran == []
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [blocked, "sweep.yaml"])

    def test_verify_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, horizon=1500)
        assert main(["verify", str(path), "--backend", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "replay" in out and "ok" in out

    def test_verify_prints_its_json_report_last(self, tmp_path, capsys):
        path = write_config(tmp_path, horizon=20_000)
        assert main(["verify", str(path), "--backend", "numpy"]) == 0
        *table, last = capsys.readouterr().out.splitlines()
        rows = json.loads(last)
        assert [row["quantity"] for row in rows] == [
            line.split("  ")[0].rstrip() for line in table[2:]]
        config = load_config(path)
        epochs = build_schedule(config.instance, config.horizon, config.delta,
                                config.lam_scale).num_epochs
        assert [row["quantity"].split(" pulls (agent ")[0]
                for row in rows[1:]] == [
            f"epoch {m}" for m in range(1, epochs + 1)]
        assert all(row["note"] == "" for row in rows)

    def test_verify_fails_on_a_cdf_error_both_kernels_share(
            self, tmp_path, monkeypatch, capsys):
        real = engine._epoch_start

        def shifted(*args):
            brackets, gap_range, cdf = real(*args)
            return brackets, gap_range, cdf * 1.01

        monkeypatch.setattr(engine, "_epoch_start", shifted)
        path = write_config(tmp_path, horizon=100_000)
        assert main(["verify", str(path), "--backend", "numpy"]) == 1
        failing = [line for line in capsys.readouterr().out.splitlines()
                   if "FAIL" in line]
        assert failing
        assert all(re.match(r"epoch \d+ pulls \(agent \d+, arm \d+\) ", line)
                   for line in failing)

    def test_verify_requests_no_trace(self, monkeypatch):
        traces = []
        real = runner.run_single

        def run_single(*args, trace=False, **kwargs):
            traces.append(trace)
            return real(*args, trace=trace, **kwargs)

        monkeypatch.setattr(runner, "run_single", run_single)
        config = validate_config(base_config())
        assert all(r.matches for r in cli._verify_reports(config, "numpy"))
        assert traces == [False, False]

    def test_importing_the_cli_loads_no_scipy(self):
        src = str(Path(draa.__file__).resolve().parents[1])
        code = "import sys, draa.cli; sys.exit('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], timeout=60,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_verify_into_closed_pipe(self, tmp_path, unbuffered):
        # the reader is gone before the first byte: the output is dropped
        # on the first write (unbuffered) or on the final flush (buffered)
        path = write_config(tmp_path, horizon=1500)
        src = str(Path(draa.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "draa.cli", "verify", str(path),
                 "--backend", "numpy"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 1

    @pytest.mark.parametrize("command", ["run", "sweep", "show"])
    @pytest.mark.parametrize("kind", ["directory", "non-utf8"])
    def test_unreadable_file_exit_2(self, tmp_path, capsys, command, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe")
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(path) in err

    def test_show_summary(self, tmp_path, capsys):
        path = write_config(tmp_path)
        main(["run", str(path), "--backend", "numpy"])
        summary = tmp_path / "unit" / "seed_7_summary.json"
        assert main(["show", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "regret" in out and "comm cost" in out

    def test_show_missing_file_exit_2(self, tmp_path):
        assert main(["show", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("content,msg", [
        ({"name": "x"}, "missing 'seed'"),
        ([], "top level is a JSON list"),
        ({"name": "x", "corruption": []}, "'corruption' must be a mapping"),
        (dict(_SUMMARY, regret_total=None),
         "'regret_total' must be a number, got None"),
        (dict(_SUMMARY, regret_per_agent=[1.5, "x"]),
         "'regret_per_agent' must be a number, got 'x'"),
        (dict(_SUMMARY, seed={"a": 1}),
         "'seed' must be a number, got {'a': 1}"),
        (dict(_SUMMARY, num_epochs=float("nan")),
         "'num_epochs' must be an integer, got nan"),
        (dict(_SUMMARY, horizon=2.5), "'horizon' must be an integer"),
        (dict(_SUMMARY, comm_cost=-1), "'comm_cost' must be nonnegative"),
        (dict(_SUMMARY, fallback_epochs="0"),
         "'fallback_epochs' must be a number, got '0'"),
        (dict(_SUMMARY, prob_bracket_violations=True),
         "'prob_bracket_violations' must be a number, got True"),
        (dict(_SUMMARY, gap_range_violations=None),
         "'gap_range_violations' must be a number, got None"),
        (dict(_SUMMARY, name={"a": 1}), "'name' must be a str, got {'a': 1}"),
        (dict(_SUMMARY, estimator=["w"]),
         "'estimator' must be a str, got ['w']"),
        (dict(_SUMMARY, backend=None), "'backend' must be a str, got None"),
        ({k: v for k, v in _SUMMARY.items() if k != "corruption"},
         "missing 'corruption'"),
        (dict(_SUMMARY, corruption={}), "missing 'C'"),
        (dict(_SUMMARY, corruption={"C": 0.0}), "missing 'C_per_epoch'"),
        (dict(_SUMMARY, regret_total=[1.0]),
         "'regret_total' must be a number, got [1.0]"),
        (dict(_SUMMARY, regret_per_agent=5),
         "'regret_per_agent' must be a list, got 5"),
        (dict(_SUMMARY, corruption={"C": [0.0], "C_per_epoch": [0.0]}),
         "'C' must be a number, got [0.0]"),
        (dict(_SUMMARY, corruption={"C": 0.0, "C_per_epoch": 0.0}),
         "'C_per_epoch' must be a list, got 0.0"),
        (dict(_SUMMARY, **{"lambda": [2.0]}),
         "'lambda' must be a number, got [2.0]"),
    ])
    def test_show_non_summary_exit_2(self, tmp_path, capsys, content, msg):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(content))
        assert main(["show", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and msg in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,text,parser", [
        pytest.param("run", _NESTED, "default", id="run-nested"),
        pytest.param("run", _NESTED, "python", id="run-nested-python"),
        pytest.param("run", "horizon: " + "9" * 5000, "default",
                     id="run-digits"),
        pytest.param("run", "seeds: [" + "9" * 5000 + "]", "default",
                     id="run-seed-digits"),
        pytest.param("show", '{"seed": ' + "9" * 5000 + "}", None,
                     id="show-digits"),
    ])
    def test_unreadable_value_exit_2(self, tmp_path, monkeypatch, capsys,
                                     command, text, parser):
        """A value nested deeper than the loader allows, or an integer
        past Python's 4300-digit limit, is one configuration error."""
        if parser == "python":
            monkeypatch.setattr(config_module, "YAML_LOADER",
                                self.python_parser_loader(monkeypatch))
        path = tmp_path / "input"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: could not ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command,text", [
        ("run", "name: " + "[" * 100_000 + "]" * 100_000),
        ("sweep", "base: " + "[" * 100_000 + "]" * 100_000),
        ("show", "[" * 100_000 + "]" * 100_000),
    ], ids=["run", "sweep", "show"])
    def test_deep_nesting_exit_2(self, tmp_path, command, text):
        """100,000 levels, deep enough to overflow the C stack in libyaml's
        recursive composer, exit 2; a child process runs them, so that a
        crash fails one test."""
        path = tmp_path / "input"
        path.write_text(text)
        src = str(Path(draa.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "draa.cli", command, str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 2
        assert proc.stderr.startswith("configuration error: could not ")
        assert "Traceback" not in proc.stderr

    def test_aliased_value_quoted_briefly(self, tmp_path, capsys):
        """A name of 10**5 strings, each level ten aliases of the one
        below, is quoted in a short line."""
        value = '&s0 "directory"'
        for k in range(1, 6):
            value = f"&s{k} [{value}" + f", *s{k - 1}" * 9 + "]"
        path = tmp_path / "config.yaml"
        path.write_text(f"schema_version: 1\nname: {value}\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: name must name one "
                              "directory entry, got [[[...], [...], ")
        assert len(err) < 200 and "Traceback" not in err

    def test_out_of_memory_exit_1(self, tmp_path, monkeypatch, capsys):
        """A run whose arrays cannot be allocated exits 1 with one line and
        no traceback.  The numpy kernel's workspace is made to fail: a
        horizon large enough to fail for real could start running on a
        host that overcommits memory."""
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.64 TiB for an array")

        monkeypatch.setattr(engine, "Workspace", no_memory)
        monkeypatch.setenv("DRAA_JOBS", "1")
        path = write_config(tmp_path)
        assert main(["run", str(path), "--backend", "numpy"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate 7.64 TiB")
        assert err.count("\n") == 1 and "Traceback" not in err


def _pin_config(**overrides):
    data = base_config(
        name="pin", output_dir="results", horizon=6000, seeds=[3, 11],
        num_checkpoints=64,
        instance={"num_arms": 4, "num_agents": 3,
                  "arm_sets": [[0, 1, 2], [1, 2, 3], [0, 3]],
                  "means": [0.9, 0.7, 0.55, 0.3]})
    data.update(overrides)
    return data


#: sha256 of every file ``draa run --backend numpy`` writes for four
#: configs, per seed and merged; the summaries embed the config, so its
#: ``output_dir`` stays fixed and ``DRAA_OUTPUT_DIR`` redirects the files.
#: The Beta case's inverse-CDF table comes from scipy, so a scipy whose
#: ``betaincinv`` rounds differently changes those three hashes.
_PINNED_OUTPUTS = [
    pytest.param(_pin_config(), {
        "seed_3_checkpoints.csv":
            "51bf41636789c63f338890e9ae2640486854ad0303c0dff29b108192e6a251d4",
        "seed_3_summary.json":
            "b4753533e3deb1337e7702386ba38e9b7633f396f2a8a98f7877baba35cfbaea",
        "seed_11_checkpoints.csv":
            "714bf94cb8960d9378a8b11d806876cea0efe5b3af91b057fc0dc6eb1f6a01e3",
        "seed_11_summary.json":
            "23e4a734b4a10dd954c35498b7a7119ca1bbd2ffb3934cb3c07699da8c3e8d8f",
        "checkpoints.csv":
            "349417545ff8c7b99382b52724aea1d5490f4f6a3539bd209436a36aa88b47d3",
    }, id="bernoulli-64-checkpoints"),
    # the budget of 140.7 closes inside epoch 2, between two checkpoints
    pytest.param(_pin_config(
        horizon=7000, num_checkpoints=13,
        instance=dict(_pin_config()["instance"], reward_model="beta",
                      beta_concentration=3.0),
        adversary={"kind": "gap_flip", "magnitude": 0.7, "budget": 140.7}), {
        "seed_3_checkpoints.csv":
            "96f17e1db2c5d074735a30b2bb692a27f29afc61c4f649159eacb676d2c2ad1c",
        "seed_3_summary.json":
            "5419a1df074b280f51af9473ab374ba2a9fd0d6c78a02132bf58bc89d50f5471",
        "seed_11_checkpoints.csv":
            "cc98f2a37499f9775b448d890d34108eefa9342ac809f501749227950ac50855",
        "seed_11_summary.json":
            "d70784d49cb99bf5166ecacf1896d25e44b87f7ddd25064845f30d4f25afa0a6",
        "checkpoints.csv":
            "31facac66d800973fb7eacefd3e97479ba79485feee8aa9c4b1b147ee9e2e35f",
    }, id="beta-gap-flip-13-checkpoints"),
    pytest.param(_pin_config(
        horizon=1500, num_checkpoints=1500, seeds=[5],
        adversary={"kind": "budgeted_targeted", "target_arm": 1,
                   "magnitude": 0.5, "budget": 30.9}), {
        "seed_5_checkpoints.csv":
            "90e0446740362a235b3385088325d6b4d284de53b6d6f11d6b15ea5532a24b11",
        "seed_5_summary.json":
            "d2ba747db40cc1d173edd599daf84162bc0cc9daa9f621e1642103db8c40bd3f",
        "checkpoints.csv":
            "90e0446740362a235b3385088325d6b4d284de53b6d6f11d6b15ea5532a24b11",
    }, id="checkpoint-every-round"),
    # K=64, L=16, 16 arms each: the summary is mostly long per-agent lists
    pytest.param(_pin_config(horizon=6000, num_checkpoints=8, instance={
        "num_arms": 64, "num_agents": 16,
        "arm_sets": [[(4 * ell + j) % 64 for j in range(16)]
                     for ell in range(16)],
        "means": [0.05 + 0.9 * k / 63 for k in range(64)]}), {
        "seed_3_checkpoints.csv":
            "05ef7d99f81eabccac7c81ab20efb8bf17e3974ff5a03353b09998626ddd6a16",
        "seed_3_summary.json":
            "2c68f679c5eccf3393a0475dda22f07e3047dbf317074fb7d614a19973f0730a",
        "seed_11_checkpoints.csv":
            "7dfb1a0e92d3ffdf887efff418684fa5f8fd812c1fc53ad46873eacd307df5a9",
        "seed_11_summary.json":
            "4867a7c75b449e8ff0c5bc0714ae440175be7332e27072c49661e6b0a2eaaa9d",
        "checkpoints.csv":
            "578ca69f26936d475c81ccd4f1b7d4ce1bf948943fc1f4e9a922ed9f839e6eb7",
    }, id="wide-16-agents"),
]


_SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, np.float64(-0.0),
     np.float64(math.nan)])
_NUMBERS = st.one_of(st.integers(), st.floats(), _SPECIAL_FLOATS)
_LEAVES = st.one_of(st.none(), st.booleans(), _NUMBERS,
                    st.floats().map(np.float64), st.text(max_size=8))
#: number lists, now and then with a bool, None or np.float64 among them
_NUMBER_LISTS = st.lists(
    st.one_of(_NUMBERS, _NUMBERS, _NUMBERS, _LEAVES), min_size=1)


def _json_trees(depth: int):
    """JSON-like values nested at most ``depth`` containers deep."""
    if depth == 0:
        return st.one_of(_LEAVES, _NUMBER_LISTS)
    inner = _json_trees(depth - 1)
    return st.one_of(
        _LEAVES, _NUMBER_LISTS,
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
        st.dictionaries(st.integers(), inner, max_size=2))


@settings(deadline=None)
@given(value=_json_trees(4),
       options=st.fixed_dictionaries({
           "indent": st.sampled_from([2, 2, 0, "\t"]),
           "sort_keys": st.booleans(),
           "ensure_ascii": st.booleans()}))
@example(value={"a": [0.0, -0.0, math.nan, 1, True, None],
                "b": [np.float64(2.5), 3.0], "c": [], "d": {}, "é": ("x",),
                "e": {1: [1.5]}}, options={"indent": 2, "sort_keys": True,
                                           "ensure_ascii": True})
def test_summary_writer_matches_json(value, options):
    """The summary encoder writes what json's own indented encoder writes,
    for trees up to 5 containers deep."""
    out = io.StringIO()
    json.dump(value, out, cls=runner._IndentedEncoder, **options)
    assert out.getvalue() == json.dumps(value, **options)


@pytest.mark.parametrize("data,digests", _PINNED_OUTPUTS)
def test_run_output_bytes_pinned(tmp_path, monkeypatch, data, digests):
    """Checkpoint placement and kernel call structure leave every output
    byte as it was recorded."""
    monkeypatch.setenv("DRAA_OUTPUT_DIR", str(tmp_path / "out"))
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path), "--backend", "numpy"]) == 0
    out = tmp_path / "out" / "pin"
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
    if "adversary" in data:
        with open(out / f"seed_{data['seeds'][0]}_summary.json") as fh:
            corruption = json.load(fh)["corruption"]
        # the gate closed short of the budget, with epochs left to run
        assert 0 < corruption["C"] < data["adversary"]["budget"]
        assert corruption["C_per_epoch"][-1] == 0.0


def test_pinned_beta_outputs_cold_and_warm(tmp_path, monkeypatch,
                                           cold_beta_cache):
    """The pinned Beta run writes its recorded bytes both when it builds
    its table and when it loads the table from the cache."""
    [(data, digests)] = [case.values for case in _PINNED_OUTPUTS
                         if case.id == "beta-gap-flip-13-checkpoints"]
    for run in ("cold", "warm"):
        (tmp_path / run).mkdir()
        test_run_output_bytes_pinned(tmp_path / run, monkeypatch, data,
                                     digests)
        assert len(list((cold_beta_cache / "draa").iterdir())) == 1


def _blocked_by_a_file(cache):
    cache.write_text("")


def _read_only(cache):
    # a process with root's rights writes here anyway; the model tests
    # make the write itself fail
    (cache / "draa").mkdir(parents=True)
    (cache / "draa").chmod(0o500)


def _draa_is_a_file(cache):
    cache.mkdir()
    (cache / "draa").write_text("")


@pytest.mark.parametrize("block", [_blocked_by_a_file, _read_only,
                                   _draa_is_a_file],
                         ids=["cache-is-a-file", "read-only",
                              "draa-is-a-file"])
def test_unusable_beta_cache_changes_no_output(tmp_path, monkeypatch, block):
    """A cache location that cannot be read or written still gives exit 0
    and the bytes a usable cache gives."""
    path = write_config(tmp_path, instance=instance(reward_model="beta"),
                        seeds=[1, 2])
    written = {}
    for run in ("usable", "unusable"):
        cache = tmp_path / f"{run}-cache"
        if run == "unusable":
            block(cache)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        monkeypatch.setenv("DRAA_OUTPUT_DIR", str(tmp_path / run))
        try:
            assert main(["run", str(path), "--backend", "numpy"]) == 0
        finally:
            if (cache / "draa").is_dir():
                (cache / "draa").chmod(0o700)
        out = tmp_path / run / "unit"
        written[run] = {f.name: f.read_bytes() for f in out.iterdir()}
    assert written["unusable"] == written["usable"]
