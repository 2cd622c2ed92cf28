"""Seeded run orchestration, result persistence and sweeps.

Artifacts per experiment land in ``<output_dir>/<name>/``:

* ``seed_<s>_checkpoints.csv``: one row per checkpoint with columns
  seed, t, total_regret, regret_agent_<ell>..., C_so_far, comm_cost.
* ``seed_<s>_summary.json``: full run summary (schema described in the
  README).
* ``checkpoints.csv``: the first seed file's header, then each seed
  file's rows in seed order.

Each seed's rows are formatted in chunks of bounded size, each chunk's
text written to the seed's file and appended to ``checkpoints.csv`` as it
is made: writing holds the arrays and one chunk's text, and no file is
read back.

Configs arrive validated (:mod:`draa.config`); every seed runs from that
one :class:`ExperimentConfig`, so one process loads or builds one Beta table.

Environment overrides: ``DRAA_OUTPUT_DIR`` replaces the config's output
directory; ``DRAA_JOBS`` sets the number of worker processes (default
1, sequential), capped at the number of seeds and at the number of CPUs
the process may run on.
"""
from __future__ import annotations

import csv
import json
import os
from collections.abc import Iterable, Iterator
from contextlib import ExitStack
from itertools import repeat
from json.encoder import encode_basestring, encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import TextIO

import numpy as np

from .agents import build_schedule
from .config import ExperimentConfig, SweepSpec
from .config import validate_config  # noqa: F401 (perfbench rebinds it here)
from .engine import Checkpoints, RunResult, run_single
from .errors import ConfigError, checked
from .kernels import default_backend


#: fields of checkpoint rows formatted at once: writing holds the text
#: and values of at most this many beside the run's arrays
_CSV_CELLS = 8192


def resolve_output_dir(config: ExperimentConfig) -> Path:
    override = os.environ.get("DRAA_OUTPUT_DIR")
    root = Path(override) if override else Path(config.output_dir)
    return root / config.name


def resolve_jobs() -> int:
    raw = os.environ.get("DRAA_JOBS", "1")
    return checked("DRAA_JOBS", int(raw) if raw.isdecimal() else raw, int, 1)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def checkpoint_rows(seed: int, cp: Checkpoints) -> Iterator[str]:
    """The checkpoint CSV's header line, then its rows' text in chunks of
    at most ``_CSV_CELLS`` fields of whole rows, which
    :func:`write_checkpoint_csv` writes to the seed's file and to the
    merged one as they come.

    Each row is one ``%``-format of its chunk's ``tolist()`` values: the
    bytes ``csv.writer`` writes for the fields ``seed``, ``t``, each float
    as ``f"{x:.10g}"`` and ``comm_cost``, for none of them holds a comma,
    quote or newline.
    """
    L = cp.regret.shape[1]
    agents = ",".join(f"regret_agent_{ell}" for ell in range(L))
    yield f"seed,t,total_regret,{agents},C_so_far,comm_cost\r\n"
    row = "%d,%d," + "%.10g," * (L + 2) + "%d\r\n"
    step = max(1, _CSV_CELLS // (L + 4))
    for i in range(0, cp.t.size, step):
        regret = cp.regret[i:i + step]
        columns = (cp.t[i:i + step], regret.sum(axis=1), *regret.T,
                   cp.corruption[i:i + step], cp.comm_cost[i:i + step])
        yield "".join([row % fields for fields in
                       zip(repeat(seed), *(c.tolist() for c in columns))])


def write_checkpoint_csv(path: Path, lines: Iterable[str],
                         merged: TextIO) -> None:
    """Write ``lines``, a header and then its rows' text, to ``path``, and
    append them to ``merged``: the rows, after the header if it is still
    empty."""
    lines = iter(lines)
    header = next(lines)
    if not merged.tell():
        merged.write(header)
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for text in lines:
            fh.write(text)
            merged.write(text)


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
        "estimator": config.estimator,
        "backend": result.backend,
        "lambda": result.schedule.lam,
        "lam_scale": config.lam_scale,
        "delta": config.delta,
        "horizon": config.horizon,
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


_LITERALS = {None: "null", True: "true", False: "false"}


class _IndentedEncoder(json.JSONEncoder):
    """A ``json.JSONEncoder`` whose indented output is made a list at a
    time; its bytes are the base class's.

    Before Python 3.13 an indented encode runs json's pure-Python encoder,
    one generator step per number.  Here a non-empty list or tuple of exact
    ``int`` and finite ``float`` items is one ``join``, a dict with str keys
    is one chunk per key, a str, bool, None or number is its own text, and
    anything else (an empty container, a dict with other keys, a subclass)
    is the base class's encoding, re-indented to its depth."""

    def iterencode(self, o, _one_shot=False):
        if self.indent is None:
            return super().iterencode(o, _one_shot)
        step = (self.indent if isinstance(self.indent, str)
                else " " * self.indent)
        string = (encode_basestring_ascii if self.ensure_ascii
                  else encode_basestring)
        base = super().iterencode

        def chunks(o, newline):
            kind = type(o)
            inner = newline + step
            if kind is str:
                yield string(o)
            elif o is None or kind is bool:
                yield _LITERALS[o]
            elif kind is int or kind is float and isfinite(o):
                yield repr(o)
            elif kind is dict and o and all(type(k) is str for k in o):
                head = "{" + inner
                for key in sorted(o) if self.sort_keys else o:
                    yield head + string(key) + self.key_separator
                    yield from chunks(o[key], inner)
                    head = self.item_separator + inner
                yield newline + "}"
            elif (kind is list or kind is tuple) and o:
                sep = self.item_separator + inner
                if {*map(type, o)} <= {int, float}:
                    text = sep.join(map(repr, o))
                    if "n" not in text:  # neither nan nor inf
                        yield "[" + inner + text + newline + "]"
                        return
                head = "[" + inner
                for item in o:
                    yield head
                    yield from chunks(item, inner)
                    head = sep
                yield newline + "]"
            else:  # json writes no raw newline inside a string
                yield "".join(base(o)).replace("\n", newline)

        return chunks(o, "\n")


def _worker(config: ExperimentConfig, seed: int, backend: str | None):
    result = execute_run(config, seed, backend=backend)
    return result.checkpoints, summarize(result, config)


def run_experiment(config: ExperimentConfig, backend: str | None = None,
                   quiet: bool = False) -> list[dict]:
    """Run every seed, in seed order, then persist the artifacts and
    return the summaries; a seed that fails leaves no file behind."""
    backend = default_backend(backend)
    jobs = min(resolve_jobs(), len(config.seeds), usable_cpus())
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
    with open(out_dir / "checkpoints.csv", "w", newline="") as merged:
        for seed, (checkpoints, summary) in zip(config.seeds, outputs):
            write_checkpoint_csv(out_dir / f"seed_{seed}_checkpoints.csv",
                                 checkpoint_rows(seed, checkpoints), merged)
            with open(out_dir / f"seed_{seed}_summary.json", "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True,
                          cls=_IndentedEncoder)
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
    # csv quotes the label cells that hold a comma
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([list(aggregated[0]),
                                  *(list(row.values()) for row in aggregated)])
    if not quiet:
        print(f"wrote {path}")
    return aggregated
