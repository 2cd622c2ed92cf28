"""Command-line interface.

Subcommands:

* ``draa run <config.yaml>``: execute all seeds, write CSV + JSON.
* ``draa sweep <sweep.yaml>``: run a one- or two-axis sweep.
* ``draa verify <config.yaml>``: oracle cross-checks (determinism,
  estimator expectation, pull-count expectations).
* ``draa show <summary.json>``: pretty-print a stored run summary.

Exit codes: 0 success, 2 invalid configuration, 3 violated internal
invariant (the message names the invariant), 1 anything else.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import load_config, load_sweep
from .errors import ConfigError, InvariantError
from .kernels import BACKENDS, default_backend
from .model import build_instance
from .oracle import (compare, exhaustive_estimator_mean, expected_pulls,
                     replay_check)
from .runner import execute_run, run_experiment, run_sweep


def _add_backend_arg(parser):
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="simulation backend (default: DRAA_BACKEND or numba)")


def cmd_run(args) -> int:
    config = load_config(args.config)
    run_experiment(config, backend=args.backend)
    return 0


def cmd_sweep(args) -> int:
    spec = load_sweep(args.spec)
    run_sweep(spec, backend=args.backend)
    return 0


def _verify_reports(config, backend):
    reports = []
    # determinism: run the first seed twice, diff the traces
    reports.append(replay_check(config, config.seeds[0], backend=backend))

    # estimator expectation on an enumerable fixture (shared arm, 2 agents)
    fixture = build_instance({
        "num_arms": 2,
        "num_agents": 2,
        "arm_sets": [[0, 1], [0, 1]],
        "means": [0.5, 0.25],
    })
    probs = [np.array([0.5, 0.5]), np.array([0.75, 0.25])]
    oracle_value = exhaustive_estimator_mean(fixture, probs, 2, 0, "weighted")
    reports.append(compare("weighted estimator expectation", 0.5,
                           oracle_value, 1e-12))

    # expected pulls versus realized counts in epoch 1 of a short run
    result = execute_run(config, config.seeds[0], backend=backend)
    epoch1 = result.epochs[0]
    worst = 0.0
    for ell, counts in enumerate(epoch1.pull_counts):
        expect = expected_pulls(epoch1.probs[ell], epoch1.length)
        sigma = np.sqrt(np.maximum(expect * (1.0 - epoch1.probs[ell]), 1.0))
        worst = max(worst, float(np.max(np.abs(counts - expect) / sigma)))
    reports.append(compare("epoch-1 pull counts (worst z-score)", 0.0, worst,
                           5.0, samples=int(epoch1.length)))
    return reports


def cmd_verify(args) -> int:
    config = load_config(args.config)
    reports = _verify_reports(config, default_backend(args.backend))
    header = f"{'quantity':<40} {'oracle':>12} {'engine':>12} {'abs dev':>10}  status"
    print(header)
    print("-" * len(header))
    ok = True
    for r in reports:
        status = "ok" if r.matches else f"FAIL ({r.note})"
        ok = ok and r.matches
        print(f"{r.quantity:<40} {r.oracle_value:>12.6g} "
              f"{r.engine_value:>12.6g} {r.abs_deviation:>10.3g}  {status}")
    print(json.dumps([r.as_dict() for r in reports], indent=2))
    return 0 if ok else 1


def cmd_show(args) -> int:
    try:
        with open(args.summary) as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"could not read summary: {exc}") from exc
    print(f"experiment : {summary.get('name')}")
    print(f"seed       : {summary.get('seed')}")
    print(f"estimator  : {summary.get('estimator')}  "
          f"backend: {summary.get('backend')}")
    print(f"horizon    : {summary.get('horizon')}  "
          f"epochs: {summary.get('num_epochs')}  "
          f"lambda: {summary.get('lambda'):.4g}")
    print(f"regret     : total {summary.get('regret_total'):.4f}  "
          f"per agent {['%.2f' % r for r in summary.get('regret_per_agent', [])]}")
    corr = summary.get("corruption", {})
    print(f"corruption : C = {corr.get('C', 0.0):.4f}  "
          f"per epoch {['%.1f' % c for c in corr.get('C_per_epoch', [])]}")
    print(f"comm cost  : {summary.get('comm_cost')}")
    print(f"fallbacks  : {summary.get('fallback_epochs')}  "
          f"bracket violations: {summary.get('prob_bracket_violations')}  "
          f"gap-range violations: {summary.get('gap_range_violations')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="draa",
        description="Deterministic multi-agent bandit simulations under "
                    "adversarial reward corruption.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    _add_backend_arg(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec")
    p_sweep.add_argument("spec")
    _add_backend_arg(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="oracle cross-checks")
    p_verify.add_argument("config")
    _add_backend_arg(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_show = sub.add_parser("show", help="print a run summary")
    p_show.add_argument("summary")
    p_show.set_defaults(func=cmd_show)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
