"""Self-tests of the benchmark at smoke size.

Run from the repository root with::

    python3 -m pytest perfbench/selftest.py -q
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"result-{workload}-smoke-seed0-trace{trace}.json")
                        .read_text())
    return summary, record


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_workload_runs(workload):
    summary, _ = smoke(workload, 0)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= wl.seeds_per_config(workload, "smoke")
    assert set(summary["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in summary["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_pass(workload):
    summary, record = smoke(workload, 1)
    assert summary["correct"] and summary["failed"] == 0
    metrics = {k: v["value"] for k, v in summary["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    rec = record["records"][workload]
    for sample in rec["traced_samples"]:
        layers = sample["layers"]
        assert sum(layers["busy_s"].values()) <= layers["wall_s"]
    seeds = wl.seeds_per_config(workload, "smoke")
    if workload == "short_runs":
        assert metrics["kernels.calls"] == 65 * seeds
    if workload != "long_horizon":
        assert metrics["model.beta_table_builds"] == 0
    else:
        assert metrics["model.beta_table_builds"] == seeds
        assert metrics["kernels.adv_active_share"] > 0
    if workload == "wide_boundary":
        busy = rec["traced_samples"][0]["layers"]["busy_s"]
        assert max(busy, key=busy.get) == "agents"
    # one broadcast per agent per epoch; every seed has one boundary fewer
    # than it has epochs
    num_agents = wl.build_config(workload, 0, "smoke")["instance"]["num_agents"]
    assert metrics["comm.broadcasts"] == \
        num_agents * (metrics["agents.boundaries"] + seeds)


def test_altered_artifact_fails(tmp_path):
    config = wl.build_config("short_runs", 0, "smoke")
    config_path = tmp_path / "config.yaml"
    config_path.write_text(json.dumps(config))  # JSON is valid YAML
    env = dict(os.environ, DRAA_BACKEND="numpy", DRAA_JOBS="1",
               DRAA_OUTPUT_DIR=str(tmp_path / "results"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "run", "--src",
         str(ROOT / "src"), "--out", str(tmp_path / "run.json"), "--config",
         str(config_path), "--warmup", str(config_path), "--spawned", "0"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    run_dir = tmp_path / "results" / config["name"]
    digests = check.load_digests()
    assert check.check_run(run_dir, config, "short_runs", "smoke",
                           digests)["failed"] == 0

    # a plausible but different regret keeps every invariant and fails only
    # the digest
    summary_path = check.seed_files(run_dir, config["seed_base"])[0]
    summary = json.loads(summary_path.read_text())
    summary["regret_total"] += 1.0
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True))
    result = check.check_run(run_dir, config, "short_runs", "smoke", digests)
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "short_runs", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
