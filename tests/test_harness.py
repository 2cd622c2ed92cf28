"""Config validation, persistence, sweeps, env overrides and the CLI."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest
import yaml

from draa import config as config_module
from draa import kernels
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
    ])
    def test_invalid(self, patch, msg):
        with pytest.raises(ConfigError, match=msg):
            validate_config(base_config(**patch))

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
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(base_config(output_dir=str(tmp_path), **overrides),
                           fh)
        return path

    def test_run_success(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["run", str(path), "--backend", "numpy"]) == 0
        assert (tmp_path / "unit" / "checkpoints.csv").exists()

    def test_invalid_config_exit_2(self, tmp_path):
        path = self.write_config(tmp_path, algorithm={"delta": 1.5})
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
        path = self.write_config(tmp_path, **overrides)
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
        path = self.write_config(tmp_path)
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
    ])
    def test_invalid_adversary_exit_2(self, tmp_path, capsys, adversary,
                                      msg):
        path = self.write_config(tmp_path, adversary=adversary)
        assert main(["run", str(path), "--backend", "numpy"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and msg in err
        assert not (tmp_path / "unit").exists()

    def test_verify_passes(self, tmp_path, capsys):
        path = self.write_config(tmp_path, horizon=1500)
        assert main(["verify", str(path), "--backend", "numpy"]) == 0
        out = capsys.readouterr().out
        assert "replay" in out and "ok" in out

    def test_show_summary(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        main(["run", str(path), "--backend", "numpy"])
        summary = tmp_path / "unit" / "seed_7_summary.json"
        assert main(["show", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "regret" in out and "comm cost" in out

    def test_show_missing_file_exit_2(self, tmp_path):
        assert main(["show", str(tmp_path / "nope.json")]) == 2


def test_benchmark_backends_script_runs(monkeypatch, capsys):
    root = Path(__file__).resolve().parents[1]
    path = root / "benchmarks" / "benchmark_backends.py"
    spec = importlib.util.spec_from_file_location("benchmark_backends", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv",
                        [str(path), "--horizon", "4000", "--seeds", "1"])
    script.main()
    out = capsys.readouterr().out
    assert " numpy: " in out and "M agent-rounds/s" in out
