"""Command-line interface.

Subcommands:

* ``draa run <config.yaml>``: execute all seeds, write CSV + JSON.
* ``draa sweep <sweep.yaml>``: run a one- or two-axis sweep.
* ``draa verify <config.yaml>``: replay the first seed's run and test its
  pull counts (:mod:`draa.oracle`); a table, then one line of JSON.
* ``draa show <summary.json>``: pretty-print a stored run summary.

Exit codes: 0 success, 2 invalid or unreadable configuration, 3
violated internal invariant (the message names the invariant), 1
anything else, a reader that closes the output early and a run that
runs out of memory included.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import load_config, load_sweep
from .errors import ConfigError, InvariantError, checked, checked_as
from .kernels import BACKENDS, default_backend
from .oracle import pull_count_reports, replay_check
from .runner import execute_run, run_experiment, run_sweep


def cmd_run(args) -> int:
    config = load_config(args.config)
    run_experiment(config, backend=args.backend)
    return 0


def cmd_sweep(args) -> int:
    spec = load_sweep(args.spec)
    run_sweep(spec, backend=args.backend)
    return 0


def _verify_reports(config, backend):
    # the first seed, run as `draa run` runs it
    reference = execute_run(config, config.seeds[0], backend)
    return [replay_check(config, reference, backend=backend),
            *pull_count_reports(reference, config.instance.arm_sets)]


def cmd_verify(args) -> int:
    config = load_config(args.config)
    reports = _verify_reports(config, default_backend(args.backend))
    header = f"{'quantity':<40} {'oracle':>12} {'engine':>12} {'abs dev':>10}  status"
    print(header)
    print("-" * len(header))
    for r in reports:
        status = "ok" if r.matches else f"FAIL ({r.note})"
        print(f"{r.quantity:<40} {r.oracle_value:>12.6g} "
              f"{r.engine_value:>12.6g} {r.abs_deviation:>10.3g}  {status}")
    print(json.dumps([dataclasses.asdict(r) for r in reports]))
    return 0 if all(r.matches for r in reports) else 1


def cmd_show(args) -> int:
    try:
        with open(args.summary) as fh:
            summary = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"could not read {args.summary}: {exc}") from exc
    what = f"{args.summary} is not a run summary"
    if not isinstance(summary, dict):
        raise ConfigError(f"{what}: its top level is a JSON "
                          f"{type(summary).__name__}, not an object")
    # a 'corruption' that is not a mapping is named before a missing field
    checked_as("summary field 'corruption'", summary.get("corruption", {}),
               dict)

    def number(key, spec, section=summary):
        """``section[key]`` as a number."""
        return format(checked(f"summary field {key!r}", section[key]), spec)

    def numbers(key, spec, section=summary):
        """``section[key]`` as a list of numbers."""
        name = f"summary field {key!r}"
        return [format(checked(name, v), spec)
                for v in checked_as(name, section[key], list)]

    def integer(key):
        """``summary[key]`` as a nonnegative integer."""
        return checked(f"summary field {key!r}", summary[key], int, 0)

    def text(key):
        """``summary[key]`` as a string."""
        return checked_as(f"summary field {key!r}", summary[key], str)

    try:
        lines = [
            f"experiment : {text('name')}",
            f"seed       : {integer('seed')}",
            f"estimator  : {text('estimator')}  "
            f"backend: {text('backend')}",
            f"horizon    : {integer('horizon')}  "
            f"epochs: {integer('num_epochs')}  "
            f"lambda: {number('lambda', '.4g')}",
            f"regret     : total {number('regret_total', '.4f')}  "
            f"per agent {numbers('regret_per_agent', '.2f')}",
            f"corruption : C = {number('C', '.4f', summary['corruption'])}  "
            "per epoch "
            f"{numbers('C_per_epoch', '.1f', summary['corruption'])}",
            f"comm cost  : {integer('comm_cost')}",
            f"fallbacks  : {integer('fallback_epochs')}  "
            f"bracket violations: {integer('prob_bracket_violations')}  "
            f"gap-range violations: {integer('gap_range_violations')}",
        ]
    except KeyError as exc:
        raise ConfigError(f"{what}: missing {exc}") from None
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="draa",
        description="Deterministic multi-agent bandit simulations under "
                    "adversarial reward corruption.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, arg, func, text in (
            ("run", "config", cmd_run, "run an experiment config"),
            ("sweep", "spec", cmd_sweep, "run a sweep spec"),
            ("verify", "config", cmd_verify, "oracle cross-checks"),
            ("show", "summary", cmd_show, "print a run summary")):
        command = sub.add_parser(name, help=text)
        command.add_argument(arg)
        if func is not cmd_show:
            command.add_argument(
                "--backend", choices=BACKENDS, default=None,
                help="simulation backend (default: DRAA_BACKEND, else numba "
                "if installed, else numpy)")
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed early: drop the rest of the output quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
