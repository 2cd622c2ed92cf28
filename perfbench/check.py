"""Output check for one ``draa run`` of a workload config.

A seed-run passes when its summary and checkpoint CSV exist and

* total and per-agent regret are finite,
* ``comm_cost`` equals L times the number of epochs,
* the realized corruption C lies in [0, budget],
* the per-epoch corruption sums to C (relative tolerance 1e-9), and
* the sha256 of its summary and checkpoint bytes matches the digest
  recorded in ``digests.json``.

The digests pin today's numpy output, soft-invariant counts included.
When a change alters traces on purpose, record them again with::

    python3 perfbench/check.py
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: hex digits of the sha256 kept per seed-run
DIGEST_CHARS = 16


def seed_digest(summary_bytes: bytes, checkpoint_bytes: bytes) -> str:
    h = hashlib.sha256(summary_bytes)
    h.update(b"\0")
    h.update(checkpoint_bytes)
    return h.hexdigest()[:DIGEST_CHARS]


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def seed_files(run_dir: Path, seed: int) -> tuple[Path, Path]:
    return (run_dir / f"seed_{seed}_summary.json",
            run_dir / f"seed_{seed}_checkpoints.csv")


def check_seed(run_dir: Path, config: dict, seed: int,
               expected: str | None) -> list[str]:
    """Reasons the seed-run fails the output check (empty when it passes)."""
    summary_path, csv_path = seed_files(run_dir, seed)
    try:
        summary_bytes = summary_path.read_bytes()
        csv_bytes = csv_path.read_bytes()
        summary = json.loads(summary_bytes)
    except (OSError, ValueError) as exc:
        return [f"unreadable artifact: {exc}"]
    reasons = []
    try:
        regrets = [summary["regret_total"], *summary["regret_per_agent"]]
        if not all(isinstance(r, (int, float)) and math.isfinite(r)
                   for r in regrets):
            reasons.append("regret not finite")
        num_agents = config["instance"]["num_agents"]
        if summary["comm_cost"] != num_agents * summary["num_epochs"]:
            reasons.append(f"comm_cost {summary['comm_cost']} != "
                           f"{num_agents} x {summary['num_epochs']}")
        corruption = summary["corruption"]
        total = corruption["C"]
        budget = wl.config_budget(config)
        if not 0.0 <= total <= budget:
            reasons.append(f"C={total!r} outside [0, {budget!r}]")
        per_epoch = math.fsum(corruption["C_per_epoch"])
        if abs(per_epoch - total) > 1e-9 * max(1.0, abs(total)):
            reasons.append(f"sum C_per_epoch {per_epoch!r} != C {total!r}")
    except (KeyError, TypeError) as exc:
        reasons.append(f"summary missing field: {exc}")
    digest = seed_digest(summary_bytes, csv_bytes)
    if expected is None:
        reasons.append("no expected digest recorded")
    elif digest != expected:
        reasons.append(f"digest {digest} != expected {expected}")
    return reasons


def check_run(run_dir: Path, config: dict, workload: str, size: str,
              digests: dict) -> dict:
    """Check every seed-run of one ``draa run``; returns counts and facts."""
    expected = digests.get(workload, {}).get(size, {})
    failures = {}
    corruption_share = []
    budget = wl.config_budget(config)
    for seed in wl.config_seeds(config):
        reasons = check_seed(run_dir, config, seed, expected.get(str(seed)))
        if reasons:
            failures[seed] = reasons
        elif budget > 0:
            summary = json.loads(seed_files(run_dir, seed)[0].read_bytes())
            corruption_share.append(summary["corruption"]["C"] / budget)
    return {
        "attempted": len(wl.config_seeds(config)),
        "failed": len(failures),
        "failures": failures,
        "budget_used_share": corruption_share,
        "bytes_written": sum(p.stat().st_size for p in run_dir.iterdir()
                             if p.is_file()),
    }


def record(root: Path) -> None:
    """Run every (workload, size, seed block) in process; write digests."""
    import yaml

    sys.path.insert(0, str(root / "src"))
    os.environ["DRAA_BACKEND"] = "numpy"
    os.environ["DRAA_JOBS"] = "1"
    from draa.cli import main as draa_main

    scratch = HERE / "out" / "record"
    digests = {}
    for workload in wl.WORKLOADS:
        for size in wl.SIZES:
            table = {}
            for block in range(wl.POOL):
                config = wl.build_config(workload, block, size)
                shutil.rmtree(scratch, ignore_errors=True)
                scratch.mkdir(parents=True)
                path = scratch / "config.yaml"
                path.write_text(yaml.safe_dump(config))
                os.environ["DRAA_OUTPUT_DIR"] = str(scratch / "results")
                if draa_main(["run", str(path), "--backend", "numpy"]) != 0:
                    raise SystemExit(f"draa run failed on {workload}/{size}")
                run_dir = scratch / "results" / config["name"]
                for seed in wl.config_seeds(config):
                    summary, csv = seed_files(run_dir, seed)
                    table[str(seed)] = seed_digest(summary.read_bytes(),
                                                   csv.read_bytes())
                print(f"{workload}/{size} block {block}: recorded",
                      file=sys.stderr)
            digests.setdefault(workload, {})[size] = table
    shutil.rmtree(scratch, ignore_errors=True)
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record(HERE.parent)
