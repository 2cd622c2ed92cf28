"""The names the benchmark rebinds still carry a traced ``draa run``.

``perfbench/spans.py`` wraps entry points by name and counts their
calls, and ``perfbench/worker.py`` calls the epoch-boundary functions
directly, so a rename or a changed call pattern under ``src/draa`` would
break the benchmark without failing any other test here.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from spans import Tracer
import worker
from draa.agents import build_schedule
from draa.cli import main
from draa.config import load_config

tracer = Tracer()
tracer.install()
assert main(["run", sys.argv[1]]) == 0
config = load_config(sys.argv[1])
epochs = build_schedule(config.instance, config.horizon, config.delta,
                        config.lam_scale).num_epochs
print(json.dumps({
    "seeds": len(config.seeds), "epochs": epochs,
    "agents": config.instance.num_agents, "report": tracer.report(1.0),
    "boundary_s": worker.boundary_seconds(8, 4, 4, 1)}))
"""


def test_traced_demo_run_counts_every_layer(tmp_path):
    """A traced numpy run of the demo config makes S·M kernel calls,
    L·S·M broadcasts and S·(M−1) epoch boundaries, and the benchmark's
    boundary timer still runs."""
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "configs/experiment.yaml")],
        env=dict(os.environ, PYTHONPATH=path, DRAA_BACKEND="numpy",
                 DRAA_OUTPUT_DIR=str(tmp_path)),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    S, M, L = out["seeds"], out["epochs"], out["agents"]
    assert (S, L) == (3, 2) and M > 1
    report = out["report"]
    assert report["kernels.calls"] == S * M
    assert report["comm.broadcasts"] == L * S * M
    assert report["agents.boundaries"] == S * (M - 1)
    assert report["kernels.peak_bytes_per_round"] > 0
    assert out["boundary_s"] > 0
