"""Single-run simulation engine tying the algorithm to the kernels.

:func:`run_single` is the one epoch loop: it advances all agents epoch
by epoch.  Within an epoch the pull distributions are frozen, so each
epoch's rounds are one backend kernel call, cut at the checkpoint
rounds inside it; the engine folds the call's (S, L) per-segment regret
and charges in order with one cumulative sum each, whose leading rows
are the epoch's rows of the ``RunResult.checkpoints`` arrays.  The
budget runs out at the same cell wherever checkpoints fall.  A traced run
allocates its (T, L) pulls, delivered and clean arrays once and hands
each call the epoch's rows of them, which the kernel fills in place; the
numpy kernel's :class:`~draa.kernels.Workspace` is likewise made once per
numpy run, from every epoch's cuts.  At each epoch boundary agents
broadcast, re-estimate, and re-weight; the engine snapshots state,
enforces hard invariants, and records soft invariant violations for the
test harness.  Cross-checks run the same loop on both kernels (see
:mod:`draa.kernels`).

The engine owns the run's corruption state.  It asks the (stateless)
adversary for each epoch's edits, threads the budget spend and whether
the gate is still open from epoch to epoch, and adds each segment's
per-agent charges into row m-1 of an (M, L) array, the run's corruption
ledger.  ``RunResult.corruption`` and each epoch's C^m are sums of it.

Hard invariants (raise): probability simplex to 1e-12, strictly
positive probabilities, positive remainder for the active set.  Soft
invariants (counted, asserted zero by the acceptance suite): the
active/bad probability bracket on threshold-produced epochs and the
gap-estimate range.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .adversary import Adversary
from .agents import (GAP_CAP, GAP_FLOOR, AgentState, EpochSchedule,
                     advance_epoch, init_epoch1, make_broadcast,
                     pool_estimates)
from .comm import MessageLog, comm_cost
from .errors import InvariantError
from .kernels import SegmentPlan, Workspace, default_backend, run_segment
from .model import REWARD_MODELS, BanditInstance
from .rng import ENV_STREAM, PULL_STREAM, stream_prefix

_SIMPLEX_TOL = 1e-12
_BOUND_TOL = 1e-12


@dataclass
class EpochRecord:
    """One epoch as it ran, built once at its end, before the boundary
    update: the state frozen at its start, its pulls and its C^m."""

    m: int
    start: int
    end: int
    length: int
    probs: list  # per-agent probability vectors
    active_sets: list  # per-agent lists of active arm ids
    fallback: list  # per-agent bool
    gaps: list  # per-agent previous-epoch gap estimates
    estimates: list  # per-agent previous-epoch reward estimates
    r_max: list
    pull_counts: list  # per-agent int64 pulls per local arm
    corruption: float  # C^m
    prob_bracket_violations: int
    gap_range_violations: int


@dataclass
class Checkpoints:
    """The run's checkpoint rows as arrays, row i holding round ``t[i]``."""

    t: np.ndarray  # (S,) int64 ascending rounds
    regret: np.ndarray  # (S, L) cumulative per-agent regret
    corruption: np.ndarray  # (S,) C so far
    comm_cost: np.ndarray  # (S,) int64 messages posted so far


@dataclass
class RunResult:
    """Everything a completed run exposes to the harness and metrics; the
    config's settings (estimator, delta, lam_scale, T) stay in the config."""

    seed: int
    backend: str
    schedule: EpochSchedule
    epochs: list[EpochRecord]
    checkpoints: Checkpoints
    per_agent_regret: np.ndarray
    total_regret: float
    comm_cost: int
    corruption: dict
    pulls: np.ndarray | None = None  # (T, L) when traced
    observed: np.ndarray | None = None
    clean: np.ndarray | None = None

    @property
    def num_epochs(self) -> int:
        return len(self.epochs)

    def prob_bracket_violations(self) -> int:
        return sum(e.prob_bracket_violations for e in self.epochs)

    def gap_range_violations(self) -> int:
        return sum(e.gap_range_violations for e in self.epochs)

    def fallback_epochs(self) -> int:
        return sum(1 for e in self.epochs if any(e.fallback))


def _epoch_start(states: list[AgentState], m: int,
                 instance: BanditInstance):
    """Check the agents' epoch-m state in the instance's padded arm layout.

    Raises for the first agent whose probabilities are off the simplex
    (checked first) or hold a nonpositive entry.  Returns the counts of
    probabilities outside their bracket (agents on the fallback, and all
    in epoch 1, exempt) and of gaps outside [GAP_FLOOR, GAP_CAP], and
    the kernel's CDF, at least 1.0 from each agent's last arm on.
    """
    held = instance.local_arms >= 0
    probs, gaps, active = (np.zeros(held.shape, dtype)
                           for dtype in (float, float, bool))
    for table, name in zip((probs, gaps, active), ("probs", "gaps", "active")):
        table[held] = np.concatenate([getattr(s, name) for s in states])
    total = probs.sum(axis=1)
    off_simplex = np.abs(total - 1.0) > _SIMPLEX_TOL
    failing = off_simplex | np.any(held & (probs <= 0.0), axis=1)
    if failing.any():
        ell = int(np.argmax(failing))
        if off_simplex[ell]:
            raise InvariantError("probability simplex", f"agent {ell} epoch "
                                 f"{m}: sum(p) = {float(total[ell])!r}")
        raise InvariantError("positive probabilities", f"agent {ell} epoch "
                             f"{m} has a nonpositive entry")
    scale = instance.l_min / instance.agents_per_arm[instance.local_arms]
    n_active = active.sum(axis=1, keepdims=True)
    lo = np.where(active, 3.0 / (4.0 * n_active),
                  scale * 2.0 ** (-2 * m - 7) / instance.num_arms)
    hi = np.where(active, 1.0 / n_active,
                  scale * 2.0 ** (-2 * m + 7) / instance.num_arms)
    checked = held & ~np.array([[m < 2 or s.fallback] for s in states])
    brackets = np.sum(checked & ((probs < lo - _BOUND_TOL)
                                 | (probs > hi + _BOUND_TOL)))
    gap_range = np.sum(held & ((gaps < GAP_FLOOR - _BOUND_TOL)
                               | (gaps > GAP_CAP + _BOUND_TOL)))
    cdf = np.cumsum(probs, axis=1)
    closing = np.arange(held.shape[1]) >= held.sum(axis=1, keepdims=True) - 1
    np.maximum(cdf, 1.0, out=cdf, where=closing)
    return int(brackets), int(gap_range), cdf


def run_single(instance: BanditInstance, schedule: EpochSchedule,
               adversary: Adversary, seed: int, estimator: str = "weighted",
               backend: str | None = None, checkpoints=None,
               trace: bool = False) -> RunResult:
    """Simulate one full run; deterministic given (config, seed).

    ``checkpoints`` is any iterable of integers in [1, T]; their order and
    repeats are ignored, and None means each epoch's last round."""
    backend = backend or default_backend()
    L = instance.num_agents
    ends = np.cumsum(schedule.lengths).tolist()  # each epoch's last round
    T = ends[-1]
    if checkpoints is None:
        checkpoints = ends
    marks = np.array(sorted({index(c) for c in checkpoints}), dtype=np.int64)
    if marks.size and (marks[0] < 1 or marks[-1] > T):
        raise ValueError("checkpoints must lie in [1, T]")
    # each epoch's first round, checkpoints and cuts (the checkpoints
    # before its end, then its end)
    starts = [end - length + 1 for end, length in zip(ends, schedule.lengths)]
    in_epochs = np.split(marks, np.searchsorted(marks, ends[:-1], "right"))
    cuts = [np.append(marked[marked < end], end)
            for marked, end in zip(in_epochs, ends)]

    env_prefix = stream_prefix(seed, ENV_STREAM)
    pull_prefix = stream_prefix(seed, PULL_STREAM)
    best_means = instance.means[list(instance.best_arms)]
    reward_model = REWARD_MODELS.index(instance.reward_model)
    beta_table = (instance.beta_table() if instance.reward_model == "beta"
                  else np.zeros((0, 0)))

    states = [init_epoch1(instance, ell) for ell in range(L)]
    log = MessageLog()
    # the run's corruption state: budget spend, gate, (M, L) charges
    spent, active = 0.0, True
    ledger = np.zeros((schedule.num_epochs, L))

    cum_regret = np.zeros(L)
    rows_by_epoch = []  # (regret, C so far, comm cost) of its checkpoints
    epochs: list[EpochRecord] = []

    # the numpy kernel's arrays, made for all of the run's calls
    workspace = (Workspace(L, list(zip(starts, cuts)), beta_table)
                 if backend == "numpy" else None)

    # (pulls, observed, clean), filled epoch by epoch by the kernels
    traced = ((np.zeros((T, L), dtype=np.int64), np.zeros((T, L)),
               np.zeros((T, L))) if trace else None)

    for m, (start, end, length, in_epoch, epoch_cuts) in enumerate(zip(
            starts, ends, schedule.lengths, in_epochs, cuts), start=1):
        brackets, gap_range, cdf = _epoch_start(states, m, instance)
        estimates = [s.estimates for s in states]
        targets, pushes = adversary.begin_epoch(instance, m, estimates)
        plan = SegmentPlan(
            t_start=start, cuts=epoch_cuts, env_prefix=env_prefix,
            pull_prefix=pull_prefix, arms=instance.local_arms, cdf=cdf,
            means=instance.means, best_means=best_means,
            reward_model=reward_model, beta_table=beta_table,
            targets=targets, pushes=pushes, budget=adversary.budget,
            spent=spent, adv_active=active,
        )
        rows = traced and tuple(a[start - 1:end] for a in traced)
        result = run_segment(plan, backend=backend, trace=rows,
                             workspace=workspace)
        for ell, state in enumerate(states):
            state.reward_sums = result.reward_sums[ell, :len(state.arms)]
        spent, active = result.spent, result.adv_active
        # fold the cut segments in order, as running sums; the first k
        # cuts are the checkpoints, and an added epoch end follows them
        folded = np.cumsum(np.vstack([cum_regret, result.regret]), axis=0)[1:]
        charged = np.cumsum(result.corruption, axis=0)
        cum_regret, ledger[m - 1] = folded[-1], charged[-1]
        k = in_epoch.size
        rows_by_epoch.append((
            folded[:k], float(ledger[:m - 1].sum()) + charged[:k].sum(axis=1),
            np.full(k, comm_cost(log))))

        epochs.append(EpochRecord(
            m=m, start=start, end=end, length=length,
            probs=[s.probs for s in states],
            active_sets=[s.arms[s.active].tolist() for s in states],
            fallback=[s.fallback for s in states],
            gaps=[s.gaps for s in states], estimates=estimates,
            r_max=[s.r_max for s in states],
            pull_counts=[result.pull_counts[ell, :len(s.arms)]
                         for ell, s in enumerate(states)],
            corruption=float(ledger[m - 1].sum()),
            prob_bracket_violations=brackets, gap_range_violations=gap_range,
        ))

        broadcasts = [make_broadcast(s) for s in states]
        for b in broadcasts:
            log.post(b)

        if m < schedule.num_epochs:
            pooled = pool_estimates(broadcasts, instance.num_arms, length,
                                    estimator)
            for state in states:
                advance_epoch(state, broadcasts, instance, length, estimator,
                              pooled=pooled)

    per_agent = ledger.sum(axis=0)
    corruption = {
        "C": float(per_agent.sum()),
        "C_per_agent": per_agent.tolist(),
        "C_per_epoch": ledger.sum(axis=1).tolist(),
    }
    pulls, observed, clean = traced or (None, None, None)
    return RunResult(
        seed=seed, backend=backend, schedule=schedule,
        epochs=epochs, checkpoints=Checkpoints(
            marks, *(np.concatenate(part) for part in zip(*rows_by_epoch))),
        per_agent_regret=cum_regret, total_regret=float(cum_regret.sum()),
        comm_cost=comm_cost(log), corruption=corruption,
        pulls=pulls, observed=observed, clean=clean,
    )

