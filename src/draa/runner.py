"""Seeded run orchestration, result persistence and sweeps.

Artifacts per experiment land in ``<output_dir>/<name>/``:

* ``seed_<s>_checkpoints.csv``: one row per checkpoint with columns
  seed, t, total_regret, regret_agent_<ell>..., C_so_far, comm_cost.
* ``seed_<s>_summary.json``: full run summary (schema described in the
  README).
* ``checkpoints.csv``: all seeds merged, written single-threaded.

Environment overrides: ``DRAA_OUTPUT_DIR`` replaces the config's output
directory; ``DRAA_JOBS`` sets the number of worker processes (default
1, sequential).
"""
from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .adversary import make_adversary
from .agents import build_schedule
from .config import ExperimentConfig, SweepSpec, sweep_points, validate_config
from .engine import RunResult, run_single
from .errors import ConfigError
from .kernels import default_backend


def resolve_output_dir(config: ExperimentConfig) -> Path:
    override = os.environ.get("DRAA_OUTPUT_DIR")
    root = Path(override) if override else Path(config.output_dir)
    return root / config.name


def resolve_jobs() -> int:
    raw = os.environ.get("DRAA_JOBS", "1")
    try:
        jobs = int(raw)
    except ValueError as exc:
        raise ConfigError(f"DRAA_JOBS must be an integer, got {raw!r}") from exc
    if jobs < 1:
        raise ConfigError("DRAA_JOBS must be >= 1")
    return jobs


def evenly_spaced_checkpoints(horizon: int, count: int) -> list[int]:
    """``count`` checkpoint rounds ending at the horizon (deduplicated)."""
    marks = {max(1, round(horizon * i / count)) for i in range(1, count + 1)}
    marks.add(horizon)
    return sorted(marks)


def execute_run(config: ExperimentConfig, seed: int,
                backend: str | None = None, trace: bool = False) -> RunResult:
    """One seeded end-to-end run of the configured experiment."""
    schedule = build_schedule(config.instance, config.horizon, config.delta,
                              config.lam_scale)
    adversary = make_adversary(config.adversary)
    checkpoints = evenly_spaced_checkpoints(config.horizon,
                                            config.num_checkpoints)
    return run_single(config.instance, schedule, adversary, seed,
                      estimator=config.estimator, backend=backend,
                      checkpoints=checkpoints, trace=trace)


def checkpoint_rows(result: RunResult) -> list[dict]:
    rows = []
    for cp in result.checkpoints:
        row = {"seed": result.seed, "t": cp.t,
               "total_regret": f"{cp.total_regret:.10g}"}
        for ell, r in enumerate(cp.per_agent_regret):
            row[f"regret_agent_{ell}"] = f"{r:.10g}"
        row["C_so_far"] = f"{cp.corruption_so_far:.10g}"
        row["comm_cost"] = cp.comm_cost
        rows.append(row)
    return rows


def write_checkpoint_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def summarize(result: RunResult, config: ExperimentConfig) -> dict:
    """JSON-ready run summary including per-epoch probability snapshots."""
    epochs = []
    for e in result.epochs:
        epochs.append({
            "m": e.m,
            "start": e.start,
            "end": e.end,
            "length": e.length,
            "probs": [p.tolist() for p in e.probs],
            "active_sets": [list(a) for a in e.active_sets],
            "fallback": list(e.fallback),
            "gaps": [g.tolist() for g in e.gaps],
            "estimates": [r.tolist() for r in e.estimates],
            "r_max": [float(r) for r in e.r_max],
            "pull_counts": [c.tolist() for c in e.pull_counts],
            "corruption": e.corruption,
            "prob_bracket_violations": e.prob_bracket_violations,
            "gap_range_violations": e.gap_range_violations,
        })
    return {
        "schema_version": 1,
        "name": config.name,
        "seed": result.seed,
        "estimator": result.estimator,
        "backend": result.backend,
        "lambda": result.schedule.lam,
        "lam_scale": result.schedule.lam_scale,
        "delta": result.schedule.delta,
        "horizon": result.schedule.horizon,
        "num_epochs": result.num_epochs,
        "epoch_lengths": list(result.schedule.lengths),
        "regret_total": result.total_regret,
        "regret_per_agent": result.per_agent_regret.tolist(),
        "comm_cost": result.comm_cost,
        "corruption": result.corruption,
        "fallback_epochs": result.fallback_epochs(),
        "prob_bracket_violations": result.prob_bracket_violations(),
        "gap_range_violations": result.gap_range_violations(),
        "epochs": epochs,
        "config": config.raw,
    }


def _worker(raw_config: dict, seed: int, backend: str | None):
    config = validate_config(raw_config)
    result = execute_run(config, seed, backend=backend)
    return seed, checkpoint_rows(result), summarize(result, config)


def run_experiment(config: ExperimentConfig, backend: str | None = None,
                   quiet: bool = False) -> list[dict]:
    """Run every seed, persist artifacts, return the summaries."""
    backend = default_backend(backend)
    jobs = resolve_jobs()
    out_dir = resolve_output_dir(config)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = []
    if jobs == 1:
        for seed in config.seeds:
            outputs.append(_worker(config.raw, seed, backend))
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_worker, config.raw, seed, backend)
                       for seed in config.seeds]
            outputs = [f.result() for f in futures]

    outputs.sort(key=lambda item: config.seeds.index(item[0]))
    merged_rows = []
    summaries = []
    for seed, rows, summary in outputs:
        write_checkpoint_csv(out_dir / f"seed_{seed}_checkpoints.csv", rows)
        with open(out_dir / f"seed_{seed}_summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        merged_rows.extend(rows)
        summaries.append(summary)
        if not quiet:
            print(f"seed {seed}: regret {summary['regret_total']:.2f}, "
                  f"epochs {summary['num_epochs']}, "
                  f"comm {summary['comm_cost']}")
    write_checkpoint_csv(out_dir / "checkpoints.csv", merged_rows)
    return summaries


def run_sweep(spec: SweepSpec, backend: str | None = None,
              quiet: bool = False) -> list[dict]:
    """Run every sweep point and write one aggregated CSV."""
    aggregated = []
    base_config = validate_config(spec.base)
    out_root = resolve_output_dir(base_config).parent
    for label, config in sweep_points(spec):
        point_name = "_".join(
            f"{field.split('.')[-1]}={value}" for field, value in label.items())
        config.name = f"{base_config.name}_{point_name}"
        summaries = run_experiment(config, backend=backend, quiet=True)
        regrets = np.array([s["regret_total"] for s in summaries])
        comms = np.array([s["comm_cost"] for s in summaries])
        corr = np.array([s["corruption"]["C"] for s in summaries])
        row = dict(label)
        row.update({
            "num_seeds": len(summaries),
            "mean_regret": f"{regrets.mean():.10g}",
            "std_regret": f"{regrets.std(ddof=1) if len(regrets) > 1 else 0.0:.10g}",
            "mean_comm_cost": f"{comms.mean():.10g}",
            "mean_C": f"{corr.mean():.10g}",
        })
        aggregated.append(row)
        if not quiet:
            print(f"point {label}: mean regret {regrets.mean():.2f} "
                  f"over {len(summaries)} seeds")
    out_root.mkdir(parents=True, exist_ok=True)
    path = out_root / f"{base_config.name}_sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(aggregated[0].keys()))
        writer.writeheader()
        writer.writerows(aggregated)
    if not quiet:
        print(f"wrote {path}")
    return aggregated
