"""One measured process of the benchmark (started fresh by ``run.py``).

Modes:

* ``run``: warm up with the workload's short config, then time one
  ``draa run`` of the workload config through ``draa.cli.main``,
  optionally with spans on every module (``--trace``).  With
  ``--setup-only`` the process ends after the warm-up.
* ``micro``: the traced pass's stand-alone layer timings: RNG draws per
  second and the epoch-boundary cost at three sizes.

The result is written as JSON to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as wl
from spans import Tracer


def import_draa(src: str):
    sys.path.insert(0, src)
    import draa.cli

    package = Path(draa.__file__).resolve().parent
    if package.parent != Path(src).resolve():
        raise SystemExit(f"draa imported from {package}, not from {src}")
    return draa.cli


def mode_run(args) -> dict:
    cli = import_draa(args.src)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    warm_code = cli.main(["run", args.warmup])
    setup_s = time.monotonic() - args.spawned
    if warm_code != 0 or args.setup_only:
        return {"exit_code": warm_code, "setup_s": setup_s}
    if tracer:
        tracer.end_setup()
    start = time.perf_counter()
    code = cli.main(["run", args.config])
    wall_s = time.perf_counter() - start
    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracer.report(wall_s)
    return result


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def boundary_seconds(num_arms: int, num_agents: int, per_agent: int,
                     reps: int) -> float:
    """Median time of one epoch boundary (all L ``advance_epoch`` calls)
    on synthetic broadcasts holding each arm's expected reward sums."""
    import numpy as np
    from draa.agents import advance_epoch, init_epoch1, make_broadcast
    from draa.model import build_instance

    if (num_arms, num_agents, per_agent) == (8, 4, 4):
        instance = build_instance(wl.CRIT1_INSTANCE)
    else:
        instance = build_instance(wl.cyclic_instance(num_arms, num_agents,
                                                     per_agent))
    epoch_len = 4096

    def fresh_states():
        states = [init_epoch1(instance, ell) for ell in range(num_agents)]
        for state in states:
            state.pull_counts = np.round(state.probs * epoch_len).astype(np.int64)
            state.reward_sums = state.pull_counts * instance.means[state.arms]
        return states

    broadcasts = [make_broadcast(s) for s in fresh_states()]
    times = []
    for _ in range(reps):
        states = fresh_states()
        start = time.perf_counter()
        for state in states:
            advance_epoch(state, broadcasts, instance, epoch_len)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def mode_micro(args) -> dict:
    import_draa(args.src)
    import numpy as np
    from draa.rng import ENV_STREAM, stream_prefix, uniform_array

    counters = np.arange(1 << 20, dtype=np.uint64)
    prefix = stream_prefix(0, ENV_STREAM)
    draw_s = _median_time(lambda: uniform_array(prefix, counters, 0, 0), 15)
    return {
        "exit_code": 0,
        "rng.draws_per_s": counters.size / draw_s,
        "agents.boundary_ms.k8_l4_n4": boundary_seconds(8, 4, 4, 201) * 1e3,
        "agents.boundary_ms.k256_l32_n64": boundary_seconds(256, 32, 64, 7) * 1e3,
        "agents.boundary_ms.k512_l64_n128": boundary_seconds(512, 64, 128, 3) * 1e3,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "micro"))
    parser.add_argument("--src", required=True, help="directory holding draa")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--config", help="workload config (run)")
    parser.add_argument("--warmup", help="warm-up config (run)")
    parser.add_argument("--spawned", type=float,
                        help="time.monotonic() of the parent at spawn (run)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="end after the warm-up (run)")
    args = parser.parse_args()
    result = mode_run(args) if args.mode == "run" else mode_micro(args)
    Path(args.out).write_text(json.dumps(result))
    return 0 if result["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
