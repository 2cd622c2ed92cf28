"""The checks ``draa verify`` makes of one run, none of which needs a trace:
a replay of its artifacts, and its pull counts against each epoch's frozen
distribution, which sees a CDF that both kernels read wrongly, as the
kernels' bit-equality tests cannot."""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .runner import RunResult, execute_run, summarize

#: family-wise false-alarm rate of the pull-count rows
ALPHA = 1e-6


@dataclass
class OracleReport:
    """Outcome of one oracle-versus-engine comparison."""

    quantity: str
    oracle_value: float
    engine_value: float
    abs_deviation: float
    rel_deviation: float
    note: str = ""

    @property
    def matches(self) -> bool:
        return self.note == ""


def _artifacts(result: RunResult, config: ExperimentConfig):
    """The summary as compact JSON, whose floats are their ``repr`` as in
    the file ``draa run`` writes, and the checkpoint arrays' bytes (the
    CSV's ``.10g`` text would hide their last bits)."""
    summary = json.dumps(summarize(result, config), sort_keys=True)
    return summary, [(a.dtype, a.shape, a.tobytes())
                     for a in vars(result.checkpoints).values()]


def replay_check(config: ExperimentConfig, reference: RunResult,
                 backend=None) -> OracleReport:
    """Rerun ``reference.seed``; the note is empty when its artifacts
    equal the reference's."""
    replay = execute_run(config, reference.seed, backend)
    same = _artifacts(reference, config) == _artifacts(replay, config)
    return compare(f"replay(seed={reference.seed})", reference.total_regret,
                   replay.total_regret,
                   "" if same else "artifact mismatch: determinism regression")


def pull_count_reports(result: RunResult,
                       arm_sets: list[list[int]]) -> list[OracleReport]:
    """One row per epoch with a test, for its least likely pull count.

    In epoch m, each count n of a held arm with probability 0 < p < 1 is
    Binomial(T^m, p).  A row fails when the exact two-sided p-value of n
    times N, the number of such tests in the run, is below :data:`ALPHA`.
    """
    # imported here: `draa run` loads this module but never calls this
    from scipy.special import bdtr, bdtrc

    cells = [(ell, k) for ell, arms in enumerate(arm_sets) for k in arms]
    p, n = (np.array([np.concatenate(getattr(e, name)) for e in result.epochs])
            for name in ("probs", "pull_counts"))
    length = np.array([[e.length] for e in result.epochs])
    tested = (p > 0.0) & (p < 1.0)
    p_value = np.where(tested, np.minimum(1.0, 2.0 * np.minimum(
        bdtr(n, length, p), bdtrc(n - 1, length, p))), np.inf)
    tests = int(tested.sum())
    reports = []
    for e, row, i in zip(result.epochs, p_value, np.argmin(p_value, axis=1)):
        if not tested[e.m - 1, i]:
            continue
        ell, arm = cells[i]
        adjusted = float(row[i]) * tests
        reports.append(compare(
            f"epoch {e.m} pulls (agent {ell}, arm {arm})",
            float(e.length * p[e.m - 1, i]), float(n[e.m - 1, i]),
            "" if adjusted >= ALPHA else
            f"p-value x {tests} tests = {adjusted:.3g} < {ALPHA:g}"))
    return reports


def compare(quantity: str, oracle_value: float, engine_value: float,
            note: str) -> OracleReport:
    dev = abs(oracle_value - engine_value)
    return OracleReport(quantity, oracle_value, engine_value, dev,
                        dev / max(abs(oracle_value), 1e-12), note)
