"""Benchmark of ``draa run``: wall time, set-up and memory per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload short_runs --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Every measured ``draa run`` happens in a fresh process (``worker.py``)
with ``DRAA_BACKEND=numpy``, ``DRAA_JOBS=1`` and a temporary
``DRAA_OUTPUT_DIR`` under ``perfbench/out/``.  Processes run one after
another until ``--seconds`` have passed; each metric is the median over
them, and every seed-run's artifacts go through the output check in
``check.py``.  ``--trace 1`` alternates untraced processes with traced
ones (spans on every module, ``spans.py``) and adds the stand-alone layer
timings, the ``DRAA_JOBS=2`` comparison and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with provenance and every sample, goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata, util
from pathlib import Path

import yaml

import check
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: no new process starts after this many seconds, so a run ends in time
DEADLINE_S = 140.0
#: hard limit for one process
CHILD_TIMEOUT_S = 170.0
#: set-up-only processes after each full process of an untraced run
SETUP_EXTRA = 2

#: metric names and units, in report order, as BENCHMARK.json lists them
_CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}


def provenance() -> dict:
    """Where and with what the numbers were measured."""
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    numba = util.find_spec("numba") is not None
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "backend": "numpy",
        "numba_importable": numba,
        "numba_timing": ("skipped: backend pinned to numpy" if numba
                         else "skipped: numba not importable"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


class Bench:
    """Starts worker processes one at a time and checks their outputs."""

    def __init__(self, size: str):
        self.size = size
        self.started = time.monotonic()
        self.digests = check.load_digests()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)

    def time_left(self) -> bool:
        return time.monotonic() - self.started < DEADLINE_S

    def _spawn(self, mode: str, workdir: Path, extra: list[str],
               env: dict | None = None) -> dict | None:
        out = workdir / f"{mode}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), mode,
               "--src", str(ROOT / "src"), "--out", str(out), *extra]
        if mode == "run":
            cmd += ["--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode}: timed out")
            return None
        if proc.returncode != 0 or not out.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            self.errors.append(f"{mode}: exit {proc.returncode}: {tail}")
            return None
        return json.loads(out.read_text())

    def run(self, workload: str, config: dict, trace: bool = False,
            jobs: int = 1, setup_only: bool = False) -> dict | None:
        """One fresh process: warm-up, timed ``draa run``, output check.

        With ``setup_only`` the process ends after its warm-up; it adds a
        ``setup_s`` sample and no seed-runs."""
        workdir = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
        try:
            config_path = workdir / "config.yaml"
            warmup_path = workdir / "warmup.yaml"
            config_path.write_text(yaml.safe_dump(config))
            warmup_path.write_text(yaml.safe_dump(wl.warmup_config(config)))
            extra = ["--config", str(config_path), "--warmup", str(warmup_path)]
            if trace:
                extra.append("--trace")
            if setup_only:
                extra.append("--setup-only")
            env = dict(os.environ, DRAA_BACKEND="numpy", DRAA_JOBS=str(jobs),
                       DRAA_OUTPUT_DIR=str(workdir / "results"))
            sample = self._spawn("run", workdir, extra, env)
            if setup_only:
                return sample
            attempted = config["num_seeds"]
            self.attempted += attempted
            if sample is None:
                self.failed += attempted
                return None
            checked = check.check_run(workdir / "results" / config["name"],
                                      config, workload, self.size,
                                      self.digests)
            self.failed += checked["failed"]
            for seed, reasons in checked["failures"].items():
                self.errors.append(f"{workload} seed {seed}: {reasons}")
            sample["check"] = {k: checked[k] for k in
                               ("failed", "budget_used_share", "bytes_written")}
            return sample
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def micro(self) -> dict | None:
        workdir = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
        try:
            return self._spawn("micro", workdir, [])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def measure(bench: Bench, workload: str, seed: int, seconds: float,
            trace: bool) -> dict | None:
    """Metrics of one workload, or None when no process succeeded."""
    config = wl.build_config(workload, seed, bench.size)
    # untraced: each full process is followed by set-up-only processes, so
    # setup_s has a median over more samples; traced: plain and traced
    # processes alternate
    cycle = (("plain", "traced") if trace
             else ("plain",) + ("setup",) * SETUP_EXTRA)
    start = time.monotonic()
    samples = {"plain": [], "traced": [], "setup": []}
    for step in itertools.count():
        kind = cycle[step % len(cycle)]
        sample = bench.run(workload, config, trace=kind == "traced",
                           setup_only=kind == "setup")
        if sample is not None:
            samples[kind].append(sample)
        if not bench.time_left():
            break
        if (time.monotonic() - start >= seconds and samples["plain"]
                and (samples["traced"] or not trace)):
            break
    plain, traced = samples["plain"], samples["traced"]
    if not plain or (trace and not traced):
        return None
    record = {"config": config, "samples": plain, "traced_samples": traced,
              "setup_samples": samples["setup"]}
    if not trace:
        record["metrics"] = {name: median_of(plain, name)
                             for name in END_TO_END}
        record["metrics"]["setup_s"] = median_of(plain + samples["setup"],
                                                 "setup_s")
        return record

    micro = bench.micro()
    if micro is None:
        return None
    short = wl.build_config("short_runs", seed, bench.size)
    # never more draa worker processes than usable cores: on one core the
    # "jobs=2" run is capped at one job and the ratio reads about 1
    jobs_walls = []
    for jobs in (1, min(2, len(os.sched_getaffinity(0)))):
        sample = bench.run("short_runs", short, jobs=jobs)
        if sample is None:
            return None
        jobs_walls.append(sample["wall_s"])
    layers = [s["layers"] for s in traced]
    metrics = {}
    for name in PER_LAYER:
        if name in layers[0]:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        elif name in micro:
            metrics[name] = micro[name]
    shares = [x for s in traced for x in s["check"]["budget_used_share"]]
    metrics["adversary.budget_used_share"] = (statistics.fmean(shares)
                                              if shares else 0.0)
    metrics["runner.bytes_written"] = median_of(
        [s["check"] for s in traced], "bytes_written")
    metrics["runner.jobs2_speedup"] = jobs_walls[0] / jobs_walls[1]
    traced_wall = statistics.median(layer["wall_s"] for layer in layers)
    metrics["trace.overhead_share"] = traced_wall / median_of(plain, "wall_s") - 1
    record.update(micro=micro, jobs_wall_s=jobs_walls, metrics=metrics)
    return record


def print_table(workload: str, record: dict, units: dict) -> None:
    for name, unit in units.items():
        value = record["metrics"][name]
        spread = ""
        if name in END_TO_END:
            samples = record["samples"]
            if name == "setup_s":
                samples = samples + record["setup_samples"]
            values = [s[name] for s in samples]
            spread = (f"  (median of {len(values)}, "
                      f"range {min(values):.4g}..{max(values):.4g})")
        print(f"{workload:<14} {name:<34} {value:>14.6g} {unit}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed base")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the traced pass")
    parser.add_argument("--size", choices=wl.SIZES, default="full",
                        help="smoke: small configs for the self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "draa" / "__init__.py").is_file():
        print(f"draa sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    info = provenance()
    bench = Bench(args.size)
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    records = {}
    for workload in names:
        record = measure(bench, workload, args.seed, args.seconds,
                         bool(args.trace))
        if record is None:
            print(f"{workload}: no measurement succeeded", file=sys.stderr)
            for error in bench.errors[-10:]:
                print(f"  {error}", file=sys.stderr)
            return 1
        records[workload] = record
        print_table(workload, record, units)

    failed_share = bench.failed / bench.attempted
    print(f"{args.workload:<14} {'failed_share':<34} {failed_share:>14.6g} ratio  "
          f"({bench.failed} of {bench.attempted} seed-runs)")
    for error in bench.errors[:20]:
        print(f"error: {error}")

    if len(names) == 1:
        metrics = {name: {"value": records[names[0]]["metrics"][name],
                          "unit": unit} for name, unit in units.items()}
    else:
        metrics = {f"{w}.{name}": {"value": records[w]["metrics"][name],
                                   "unit": unit}
                   for w in names for name, unit in units.items()}
    summary = {
        "correct": bench.failed == 0 and not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    full = dict(summary, workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, size=args.size,
                failed_share=failed_share, errors=bench.errors,
                provenance=info, records=records)
    OUT.mkdir(exist_ok=True)
    result_path = OUT / (f"result-{args.workload}-{args.size}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    result_path.write_text(json.dumps(full, indent=1, default=str))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
