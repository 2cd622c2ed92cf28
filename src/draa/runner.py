"""Seeded run orchestration, result persistence and sweeps.

Artifacts per experiment land in ``<output_dir>/<name>/``:

* ``seed_<s>_checkpoints.csv``: one row per checkpoint with columns
  seed, t, total_regret, regret_agent_<ell>..., C_so_far, comm_cost.
* ``seed_<s>_summary.json``: full run summary (schema described in the
  README).
* ``checkpoints.csv``: the first seed file's header, then each seed
  file's rows in seed order; writing holds the arrays, not their text.

Configs arrive validated (:mod:`draa.config`); every seed runs from that
one :class:`ExperimentConfig`, so one process builds one Beta table.

Environment overrides: ``DRAA_OUTPUT_DIR`` replaces the config's output
directory; ``DRAA_JOBS`` sets the number of worker processes (default
1, sequential), capped at the number of seeds and at the CPU count.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
from collections.abc import Iterable, Iterator
from contextlib import ExitStack
from itertools import repeat
from pathlib import Path

import numpy as np

from .agents import build_schedule
from .config import ExperimentConfig, SweepSpec
from .config import validate_config  # noqa: F401 (perfbench rebinds it here)
from .engine import Checkpoints, RunResult, run_single
from .errors import ConfigError, checked
from .kernels import default_backend


def resolve_output_dir(config: ExperimentConfig) -> Path:
    override = os.environ.get("DRAA_OUTPUT_DIR")
    root = Path(override) if override else Path(config.output_dir)
    return root / config.name


def resolve_jobs() -> int:
    raw = os.environ.get("DRAA_JOBS", "1")
    return checked("DRAA_JOBS", int(raw) if raw.isdecimal() else raw, int, 1)


def evenly_spaced_checkpoints(horizon: int, count: int) -> list[int]:
    """``count`` checkpoint rounds ending at the horizon (deduplicated)."""
    return sorted({max(1, round(horizon * i / count))
                   for i in range(1, count + 1)})


def execute_run(config: ExperimentConfig, seed: int,
                backend: str | None = None, trace: bool = False) -> RunResult:
    """One seeded end-to-end run of the configured experiment."""
    schedule = build_schedule(config.instance, config.horizon, config.delta,
                              config.lam_scale)
    checkpoints = evenly_spaced_checkpoints(config.horizon,
                                            config.num_checkpoints)
    return run_single(config.instance, schedule, config.adversary, seed,
                      estimator=config.estimator, backend=backend,
                      checkpoints=checkpoints, trace=trace)


def checkpoint_rows(seed: int, cp: Checkpoints) -> Iterator[list]:
    """The checkpoint CSV's header, then one row per checkpoint."""
    agents = [f"regret_agent_{ell}" for ell in range(cp.regret.shape[1])]
    yield ["seed", "t", "total_regret", *agents, "C_so_far", "comm_cost"]
    for t, total, regret, so_far, cost in zip(
            cp.t, cp.regret.sum(axis=1), cp.regret, cp.corruption,
            cp.comm_cost):
        yield [seed, t, f"{total:.10g}",
               *(f"{r:.10g}" for r in regret.tolist()), f"{so_far:.10g}",
               cost]


def write_checkpoint_csv(path: Path, rows: Iterable[list]) -> None:
    """``rows``, a header and then its rows, as a CSV."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def check_output_dir(path: Path) -> None:
    """Raise a ``ConfigError`` unless the nearest existing one of ``path``
    and its parents is a directory, so that ``path`` can be made."""
    where = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not where.is_dir():
        raise ConfigError(f"output directory {str(path)!r} is blocked by "
                          f"the file {str(where)!r}")


#: the per-agent array fields of an ``EpochRecord``
_EPOCH_ARRAYS = ("probs", "gaps", "estimates", "pull_counts")


def summarize(result: RunResult, config: ExperimentConfig) -> dict:
    """JSON-ready run summary including per-epoch probability snapshots.

    Each epoch's entry holds every :class:`EpochRecord` field, its
    per-agent arrays as lists (``json`` writes tuples as lists too).
    """
    epochs = [dict(vars(e), **{key: [a.tolist() for a in getattr(e, key)]
                               for key in _EPOCH_ARRAYS})
              for e in result.epochs]
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


def _worker(config: ExperimentConfig, seed: int, backend: str | None):
    result = execute_run(config, seed, backend=backend)
    return result.checkpoints, summarize(result, config)


def run_experiment(config: ExperimentConfig, backend: str | None = None,
                   quiet: bool = False) -> list[dict]:
    """Run every seed, in seed order, then persist the artifacts and
    return the summaries; a seed that fails leaves no file behind."""
    backend = default_backend(backend)
    jobs = min(resolve_jobs(), len(config.seeds), os.cpu_count() or 1)
    out_dir = resolve_output_dir(config)
    check_output_dir(out_dir)
    with ExitStack() as stack:
        if jobs == 1:
            mapper = map
        else:
            # imported here: multiprocessing is needless in a one-job run
            from concurrent.futures import ProcessPoolExecutor
            mapper = stack.enter_context(
                ProcessPoolExecutor(max_workers=jobs)).map
        outputs = list(mapper(_worker, repeat(config), config.seeds,
                              repeat(backend)))

    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = []
    with open(out_dir / "checkpoints.csv", "wb") as merged:
        for seed, (checkpoints, summary) in zip(config.seeds, outputs):
            csv_path = out_dir / f"seed_{seed}_checkpoints.csv"
            write_checkpoint_csv(csv_path, checkpoint_rows(seed, checkpoints))
            with open(csv_path, "rb") as fh:  # its rows, after one header
                header = fh.readline()
                if merged.tell() == 0:
                    merged.write(header)
                shutil.copyfileobj(fh, merged)
            with open(out_dir / f"seed_{seed}_summary.json", "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
            summaries.append(summary)
            if not quiet:
                print(f"seed {seed}: regret {summary['regret_total']:.2f}, "
                      f"epochs {summary['num_epochs']}, "
                      f"comm {summary['comm_cost']}")
    return summaries


def run_sweep(spec: SweepSpec, backend: str | None = None,
              quiet: bool = False) -> list[dict]:
    """Run every sweep point and write one aggregated CSV."""
    aggregated = []
    base_config = spec.base
    out_root = resolve_output_dir(base_config).parent
    for where in [out_root] + [resolve_output_dir(c) for _, c in spec.points]:
        check_output_dir(where)
    for label, config in spec.points:
        summaries = run_experiment(config, backend=backend, quiet=True)
        regrets = np.array([s["regret_total"] for s in summaries])
        comms = np.array([s["comm_cost"] for s in summaries])
        corr = np.array([s["corruption"]["C"] for s in summaries])
        aggregated.append({
            **label,
            "num_seeds": len(summaries),
            "mean_regret": f"{regrets.mean():.10g}",
            "std_regret": f"{regrets.std(ddof=1) if len(regrets) > 1 else 0.0:.10g}",
            "mean_comm_cost": f"{comms.mean():.10g}",
            "mean_C": f"{corr.mean():.10g}",
        })
        if not quiet:
            print(f"point {label}: mean regret {regrets.mean():.2f} "
                  f"over {len(summaries)} seeds")
    out_root.mkdir(parents=True, exist_ok=True)
    path = out_root / f"{base_config.name}_sweep.csv"
    write_checkpoint_csv(path, [list(aggregated[0]),
                                *(list(row.values()) for row in aggregated)])
    if not quiet:
        print(f"wrote {path}")
    return aggregated
