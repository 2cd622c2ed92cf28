"""Config validation, persistence, sweeps, env overrides and the CLI."""
import copy
import hashlib
import json
import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from draa import config as config_module
from draa import kernels
from draa.agents import build_schedule
from draa.cli import main
from draa.config import (load_config, load_yaml, validate_config,
                         validate_sweep, sweep_points)
from draa.errors import ConfigError
from draa.runner import (evenly_spaced_checkpoints, run_experiment,
                         run_sweep)


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


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(base_config(output_dir=str(tmp_path), **overrides), fh)
    return path


#: Rows whose values make a run allocate in proportion to them; they are
#: checked through ``validate_config`` only, so that a build which wrongly
#: accepts them fails fast instead of trying to run them.
_VALIDATE_ONLY = ({"horizon": 1e30}, {"horizon": 50, "num_checkpoints": 1e9})


def assert_well_formed(config):
    """Every numeric field of ``config`` is finite, in range and typed."""
    def number(x, kind, lo=-math.inf, hi=math.inf):
        assert type(x) is kind and math.isfinite(x) and lo <= x <= hi, x

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
    ("adversary", "agents", 0),
]
_FUZZ_CASES = [(adv, path) for adv in _FUZZ_ADVERSARIES
               for path in _FUZZ_FIELDS
               if path[0] != "adversary" or len(path) == 1 or path[1] in adv]
_FUZZ_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, "3", "abc",
                     2.5, 1.0, -1, -2.5, 0, 1e30, 10**30, 2**64, 10**400,
                     None, {}, [1], [0.5, 0.5, 0.5], {"a": 1}]),
    st.integers(-3, 2**70),
    st.floats(allow_nan=True, allow_infinity=True))


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
    ])
    def test_invalid(self, tmp_path, capsys, patch, msg):
        with pytest.raises(ConfigError, match=msg):
            validate_config(base_config(**patch))
        if patch in _VALIDATE_ONLY:
            return
        assert main(["run", str(write_config(tmp_path, **patch))]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and msg in err
        assert not (tmp_path / "unit").exists()

    @settings(max_examples=400, deadline=None)
    @given(case=st.sampled_from(_FUZZ_CASES), value=_FUZZ_VALUES)
    def test_mutated_field_rejected_or_well_formed(self, case, value):
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
        try:
            config = validate_config(data)
        except ConfigError:
            return
        assert_well_formed(config)

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

    def test_one_beta_table_per_experiment(self, tmp_path, monkeypatch):
        from scipy.stats import beta

        calls = []
        ppf = beta.ppf
        monkeypatch.setattr(beta, "ppf",
                            lambda *args: calls.append(1) or ppf(*args))
        monkeypatch.setenv("DRAA_JOBS", "1")
        config = validate_config(base_config(
            output_dir=str(tmp_path), seeds=[1, 2, 3],
            instance=instance(reward_model="beta")))
        run_experiment(config, backend="numpy", quiet=True)
        # one table holds one ppf evaluation per arm
        assert len(calls) == config.instance.num_arms

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

    def test_point_summaries_name_their_point(self, tmp_path):
        spec = validate_sweep(self.sweep_data(
            tmp_path, [{"field": "algorithm.estimator",
                        "values": ["weighted", "naive"]}]))
        run_sweep(spec, backend="numpy", quiet=True)
        path = tmp_path / "unit_estimator=naive" / "seed_7_summary.json"
        with open(path) as fh:
            assert json.load(fh)["name"] == "unit_estimator=naive"

    def test_estimator_axis_rows(self, tmp_path):
        spec = validate_sweep(self.sweep_data(
            tmp_path, [{"field": "algorithm.estimator",
                        "values": ["weighted", "naive"]}]))
        labels = [label for label, _ in sweep_points(spec)]
        assert len(labels) == 2

    def test_two_axes_cross_product(self, tmp_path):
        spec = validate_sweep(self.sweep_data(
            tmp_path,
            [{"field": "adversary.budget", "values": [0, 10]},
             {"field": "algorithm.estimator",
              "values": ["weighted", "naive"]}]))
        assert len(list(sweep_points(spec))) == 4

    def test_cap_enforced(self, tmp_path):
        data = self.sweep_data(
            tmp_path, [{"field": "adversary.budget",
                        "values": list(range(100))}])
        with pytest.raises(ConfigError, match="cap"):
            validate_sweep(data)


class TestCli:
    def test_run_success(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["run", str(path), "--backend", "numpy"]) == 0
        assert (tmp_path / "unit" / "checkpoints.csv").exists()

    def test_invalid_config_exit_2(self, tmp_path):
        path = write_config(tmp_path, algorithm={"delta": 1.5})
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("loader", ["default", "SafeLoader"])
    def test_malformed_yaml_exit_2(self, tmp_path, monkeypatch, capsys,
                                   loader):
        if loader == "SafeLoader":
            monkeypatch.setattr(config_module, "YAML_LOADER", yaml.SafeLoader)
        path = tmp_path / "config.yaml"
        path.write_text("schema_version: 1\ninstance: [0, 1\nhorizon: 10\n")
        assert main(["run", str(path)]) == 2
        assert "could not parse" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {},
        {"horizon": 1500},
        {"algorithm": {"delta": 1.5}},
        {"adversary": {"kind": "gap_flip", "magnitude": 0.7,
                       "budget": 20.3}},
    ])
    def test_yaml_loaders_agree(self, tmp_path, monkeypatch, overrides):
        if yaml.__with_libyaml__:
            assert config_module.YAML_LOADER is yaml.CSafeLoader
        path = write_config(tmp_path, **overrides)
        default = load_yaml(path)
        monkeypatch.setattr(config_module, "YAML_LOADER", yaml.SafeLoader)
        assert load_yaml(path) == default
        assert default == base_config(output_dir=str(tmp_path), **overrides)

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
                      "strength": 2}, "strength", id="unknown-key"),
        pytest.param({"kind": "budgeted_targeted", "target_arm": 1.7,
                      "magnitude": 0.5, "budget": 50.0},
                     "target_arm", id="fractional-target-arm"),
        pytest.param({"kind": "epoch_flood", "target_arm": 0,
                      "start_epoch": 2.5, "direction": "up", "budget": 50.0},
                     "start_epoch", id="fractional-start-epoch"),
        pytest.param({"kind": "budgeted_targeted", "target_arm": 1,
                      "magnitude": 0.5, "budget": 50.0, "agents": [0.9]},
                     "agent", id="fractional-agent"),
        pytest.param({"kind": "budgeted_targeted", "target_arm": 0,
                      "magnitude": True, "budget": 50.0},
                     "magnitude", id="bool-magnitude"),
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
    ])
    def test_invalid_sweep_exit_2(self, tmp_path, capsys, patch, msg):
        spec = {"base": base_config(output_dir=str(tmp_path)),
                "axes": [{"field": "horizon", "values": [1500, 2000]}]}
        spec.update(patch)
        path = tmp_path / "sweep.yaml"
        path.write_text(yaml.safe_dump(spec))
        assert main(["sweep", str(path), "--backend", "numpy"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and msg in err
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.yaml"]

    def test_verify_passes(self, tmp_path, capsys):
        path = write_config(tmp_path, horizon=1500)
        assert main(["verify", str(path), "--backend", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "replay" in out and "ok" in out

    def test_show_summary(self, tmp_path, capsys):
        path = write_config(tmp_path)
        main(["run", str(path), "--backend", "numpy"])
        summary = tmp_path / "unit" / "seed_7_summary.json"
        assert main(["show", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "regret" in out and "comm cost" in out

    def test_show_missing_file_exit_2(self, tmp_path):
        assert main(["show", str(tmp_path / "nope.json")]) == 2


def _pin_config(**overrides):
    data = base_config(
        name="pin", output_dir="results", horizon=6000, seeds=[3, 11],
        num_checkpoints=64,
        instance={"num_arms": 4, "num_agents": 3,
                  "arm_sets": [[0, 1, 2], [1, 2, 3], [0, 3]],
                  "means": [0.9, 0.7, 0.55, 0.3]})
    data.update(overrides)
    return data


#: sha256 of every per-seed file ``draa run --backend numpy`` writes for
#: three configs; the summaries embed the config, so its ``output_dir``
#: stays fixed and ``DRAA_OUTPUT_DIR`` redirects the files.  The Beta case's
#: inverse-CDF table comes from scipy, so a scipy whose ``beta.ppf`` rounds
#: differently changes those two hashes.
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
    }, id="beta-gap-flip-13-checkpoints"),
    pytest.param(_pin_config(
        horizon=1500, num_checkpoints=1500, seeds=[5],
        adversary={"kind": "budgeted_targeted", "target_arm": 1,
                   "magnitude": 0.5, "budget": 30.9}), {
        "seed_5_checkpoints.csv":
            "90e0446740362a235b3385088325d6b4d284de53b6d6f11d6b15ea5532a24b11",
        "seed_5_summary.json":
            "d2ba747db40cc1d173edd599daf84162bc0cc9daa9f621e1642103db8c40bd3f",
    }, id="checkpoint-every-round"),
]


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
