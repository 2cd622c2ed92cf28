"""Throughput comparison between the numba and numpy simulation kernels.

Runs the same seeded configuration on both backends and reports
agent-rounds per second (rounds x agents x seeds over the wall time) for
each.  With numba present it then checks that both backends give equal
per-epoch pull counts, and regret and corruption totals within 1e-9.

Usage:
    python3 benchmarks/benchmark_backends.py [--horizon N] [--seeds N]
"""
import argparse
import time

import numpy as np

from draa.adversary import make_adversary
from draa.agents import build_schedule
from draa.engine import run_single
from draa.kernels import _HAVE_NUMBA
from draa.model import build_instance

INSTANCE = {
    "num_arms": 8,
    "num_agents": 4,
    "arm_sets": [[0, 2, 3, 6], [0, 3, 4, 7], [1, 4, 5, 6], [1, 2, 5, 7]],
    "means": [0.9, 0.85, 0.35, 0.3, 0.25, 0.2, 0.15, 0.1],
}
ADVERSARY = {"kind": "gap_flip", "magnitude": 0.5, "budget": 2000.0}


def time_backend(backend, inst, sched, seeds):
    start = time.monotonic()
    results = [run_single(inst, sched, make_adversary(ADVERSARY), seed,
                          backend=backend)
               for seed in seeds]
    elapsed = time.monotonic() - start
    return elapsed, results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--horizon", type=int, default=1_000_000)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    inst = build_instance(INSTANCE)
    sched = build_schedule(inst, args.horizon, delta=0.05, lam_scale=64)
    seeds = list(range(args.seeds))
    agent_rounds = args.horizon * inst.num_agents * args.seeds

    backends = ["numpy"]
    if _HAVE_NUMBA:
        # warm the JIT cache so compilation is not billed to the timing
        run_single(inst, sched, make_adversary(ADVERSARY), 0,
                   backend="numba")
        backends.append("numba")
    else:
        print("numba unavailable, timing numpy only")

    traces = {}
    for backend in backends:
        elapsed, results = time_backend(backend, inst, sched, seeds)
        traces[backend] = results
        print(f"{backend:>6}: {elapsed:7.2f}s total, "
              f"{agent_rounds / elapsed / 1e6:6.2f}M agent-rounds/s")

    if len(backends) == 2:
        for a, b in zip(traces["numpy"], traces["numba"]):
            assert abs(a.total_regret - b.total_regret) < 1e-9
            assert abs(a.corruption["C"] - b.corruption["C"]) < 1e-9
            for ea, eb in zip(a.epochs, b.epochs):
                for pa, pb in zip(ea.pull_counts, eb.pull_counts):
                    np.testing.assert_array_equal(pa, pb)
        print("backends agree on pull counts, regret, and corruption")


if __name__ == "__main__":
    main()
