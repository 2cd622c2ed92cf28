"""Single-run simulation engine tying the algorithm to the kernels.

:func:`run_single` is the one epoch loop: it advances all agents epoch
by epoch.  Within an epoch the pull distributions are frozen, so each
epoch's rounds are one backend kernel call, cut at the checkpoint
rounds inside it; the engine folds the call's per-segment regret and
charges in order and reads each checkpoint row from them.  The budget
runs out at the same cell wherever checkpoints fall.  At each epoch
boundary agents broadcast, re-estimate, and re-weight; the engine
snapshots state, enforces hard invariants, and records soft invariant
violations for the test harness.  Cross-checks run the same loop on both
kernels (see :mod:`draa.kernels`).

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

from dataclasses import dataclass, field

import numpy as np

from .adversary import Adversary, HistoryView
from .agents import (GAP_CAP, GAP_FLOOR, AgentState, EpochSchedule,
                     advance_epoch, init_epoch1, make_broadcast,
                     pool_estimates)
from .comm import MessageLog, comm_cost
from .errors import InvariantError
from .kernels import (SegmentPlan, default_backend, run_segment)
from .model import REWARD_MODELS, BanditInstance
from .rng import ENV_STREAM, PULL_STREAM, stream_prefix

_SIMPLEX_TOL = 1e-12
_BOUND_TOL = 1e-12


@dataclass
class EpochRecord:
    """Snapshot of one epoch as it ran (state frozen at epoch start)."""

    m: int
    start: int
    end: int
    length: int
    probs: list  # per-agent probability vectors
    active_sets: list  # per-agent tuples of active arm ids
    fallback: list  # per-agent bool
    gaps: list  # per-agent previous-epoch gap estimates
    estimates: list  # per-agent previous-epoch reward estimates
    r_max: list
    pull_counts: list = field(default_factory=list)  # filled at epoch end
    corruption: float = 0.0  # C^m, filled at epoch end
    prob_bracket_violations: int = 0
    gap_range_violations: int = 0


@dataclass
class CheckpointRow:
    t: int
    total_regret: float
    per_agent_regret: np.ndarray
    corruption_so_far: float
    comm_cost: int


@dataclass
class RunResult:
    """Everything a completed run exposes to the harness and metrics."""

    seed: int
    estimator: str
    backend: str
    instance: BanditInstance
    schedule: EpochSchedule
    epochs: list[EpochRecord]
    checkpoints: list[CheckpointRow]
    per_agent_regret: np.ndarray
    total_regret: float
    comm_cost: int
    corruption: dict
    message_log: MessageLog
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


def _check_probabilities(states: list[AgentState], m: int,
                         instance: BanditInstance) -> int:
    """Hard-check the simplex; count bracket violations. Returns count."""
    violations = 0
    for state in states:
        total = float(state.probs.sum())
        if abs(total - 1.0) > _SIMPLEX_TOL:
            raise InvariantError(
                "probability simplex",
                f"agent {state.ell} epoch {m}: sum(p) = {total!r}",
            )
        if np.any(state.probs <= 0.0):
            raise InvariantError(
                "positive probabilities",
                f"agent {state.ell} epoch {m} has a nonpositive entry",
            )
        if m >= 2 and not state.fallback:
            holders = instance.agents_per_arm[state.arms]
            n_active = int(state.active.sum())
            lo_bad = (instance.l_min / holders) * 2.0 ** (-2 * m - 7) / instance.num_arms
            hi_bad = (instance.l_min / holders) * 2.0 ** (-2 * m + 7) / instance.num_arms
            p = state.probs
            bad = ~state.active
            violations += int(np.sum(bad & ((p < lo_bad - _BOUND_TOL)
                                            | (p > hi_bad + _BOUND_TOL))))
            lo_act = 3.0 / (4.0 * n_active)
            hi_act = 1.0 / n_active
            violations += int(np.sum(state.active & ((p < lo_act - _BOUND_TOL)
                                                     | (p > hi_act + _BOUND_TOL))))
    return violations


def _check_gap_range(states: list[AgentState]) -> int:
    violations = 0
    for state in states:
        violations += int(np.sum((state.gaps < GAP_FLOOR - _BOUND_TOL)
                                 | (state.gaps > GAP_CAP + _BOUND_TOL)))
    return violations


def _build_layout(instance: BanditInstance):
    """Pad local arm lists and means into kernel-ready arrays."""
    L = instance.num_agents
    kmax = max(len(a) for a in instance.arm_sets)
    arms = np.full((L, kmax), -1, dtype=np.int64)
    n_local = np.zeros(L, dtype=np.int64)
    for ell, aset in enumerate(instance.arm_sets):
        arms[ell, :len(aset)] = aset
        n_local[ell] = len(aset)
    best_means = np.array([instance.means[b] for b in instance.best_arms])
    return arms, n_local, best_means


def _pad_cdf(states: list[AgentState], kmax: int) -> np.ndarray:
    cdf = np.ones((len(states), kmax))
    for ell, state in enumerate(states):
        cdf[ell, :len(state.probs)] = np.cumsum(state.probs)
    return cdf


def default_checkpoints(schedule: EpochSchedule) -> list[int]:
    """Epoch boundaries plus the horizon, ascending and deduplicated."""
    marks = {schedule.horizon}
    for m in range(1, schedule.num_epochs + 1):
        marks.add(schedule.epoch_bounds(m)[1])
    return sorted(marks)


def run_single(instance: BanditInstance, schedule: EpochSchedule,
               adversary: Adversary, seed: int, estimator: str = "weighted",
               backend: str | None = None, checkpoints=None,
               trace: bool = False) -> RunResult:
    """Simulate one full run; deterministic given (config, seed)."""
    backend = backend or default_backend()
    L = instance.num_agents
    T = schedule.horizon
    if checkpoints is None:
        checkpoints = default_checkpoints(schedule)
    marks = np.array(sorted({int(c) for c in checkpoints}), dtype=np.int64)
    if marks.size and (marks[0] < 1 or marks[-1] > T):
        raise ValueError("checkpoints must lie in [1, T]")

    env_prefix = stream_prefix(seed, ENV_STREAM)
    pull_prefix = stream_prefix(seed, PULL_STREAM)
    arms_pad, n_local, best_means = _build_layout(instance)
    kmax = arms_pad.shape[1]
    reward_model = REWARD_MODELS.index(instance.reward_model)
    beta_table = (instance.beta_table() if instance.reward_model == "beta"
                  else np.zeros((0, 0)))

    states = [init_epoch1(instance, ell) for ell in range(L)]
    log = MessageLog(L)
    # the run's corruption state: budget spend, gate, (M, L) charges
    spent, active = 0.0, True
    ledger = np.zeros((schedule.num_epochs, L))
    no_edits = (np.full((L, 2), -1, dtype=np.int64), np.zeros((L, 2)))

    cum_regret = np.zeros(L)
    checkpoint_rows: list[CheckpointRow] = []
    epochs: list[EpochRecord] = []

    pulls_full = np.zeros((T, L), dtype=np.int64) if trace else None
    observed_full = np.zeros((T, L)) if trace else None
    clean_full = np.zeros((T, L)) if trace else None

    for m in range(1, schedule.num_epochs + 1):
        start, end = schedule.epoch_bounds(m)
        record = EpochRecord(
            m=m, start=start, end=end, length=schedule.epoch_length(m),
            probs=[s.probs.copy() for s in states],
            active_sets=[s.active_arms() for s in states],
            fallback=[s.fallback for s in states],
            gaps=[s.gaps.copy() for s in states],
            estimates=[s.estimates.copy() for s in states],
            r_max=[s.r_max for s in states],
        )
        record.prob_bracket_violations = _check_probabilities(states, m, instance)
        record.gap_range_violations = _check_gap_range(states)

        history = HistoryView(
            epoch=m,
            estimates=tuple(s.estimates.copy() for s in states),
            arm_lists=instance.arm_sets,
        )
        targets, pushes = adversary.begin_epoch(instance, history) or no_edits
        in_epoch = marks[np.searchsorted(marks, start):
                         np.searchsorted(marks, end, "right")]
        if in_epoch.size and in_epoch[-1] == end:
            cuts = in_epoch
        else:
            cuts = np.append(in_epoch, end)
        plan = SegmentPlan(
            t_start=start, t_end=end, cuts=cuts, env_prefix=env_prefix,
            pull_prefix=pull_prefix, arms=arms_pad, n_local=n_local,
            cdf=_pad_cdf(states, kmax), means=instance.means,
            best_means=best_means, reward_model=reward_model,
            beta_table=beta_table, targets=targets, pushes=pushes,
            budget=adversary.budget, spent=spent, adv_active=active,
        )
        result = run_segment(plan, backend=backend, trace=trace)
        for ell, state in enumerate(states):
            n = int(n_local[ell])
            state.reward_sums += result.reward_sums[ell, :n]
            state.pull_counts += result.pull_counts[ell, :n]
        spent, active = result.spent, result.adv_active
        if trace:
            pulls_full[start - 1:end] = result.pulls
            observed_full[start - 1:end] = result.observed
            clean_full[start - 1:end] = result.clean
        # fold the cut segments in order; every cut is a checkpoint but
        # the epoch's end when only that ends a segment
        charged_before = float(ledger[:m - 1].sum())
        cost = comm_cost(log)
        for i, (cut, regret, charges) in enumerate(zip(
                cuts.tolist(), result.regret, result.corruption)):
            cum_regret += regret
            ledger[m - 1] += charges
            if i < in_epoch.size:
                checkpoint_rows.append(CheckpointRow(
                    t=cut,
                    total_regret=float(cum_regret.sum()),
                    per_agent_regret=cum_regret.copy(),
                    corruption_so_far=(charged_before
                                       + float(ledger[m - 1].sum())),
                    comm_cost=cost,
                ))

        record.pull_counts = [s.pull_counts.copy() for s in states]
        record.corruption = float(ledger[m - 1].sum())
        epochs.append(record)

        broadcasts = [make_broadcast(s) for s in states]
        for b in broadcasts:
            log.post(b)

        if m < schedule.num_epochs:
            epoch_len = schedule.epoch_length(m)
            pooled = pool_estimates(broadcasts, instance.num_arms, epoch_len,
                                    estimator)
            for state in states:
                advance_epoch(state, broadcasts, instance, epoch_len,
                              estimator, pooled=pooled)

    per_agent = ledger.sum(axis=0)
    corruption = {
        "C": float(per_agent.sum()),
        "C_per_agent": per_agent.tolist(),
        "C_per_epoch": ledger.sum(axis=1).tolist(),
    }
    return RunResult(
        seed=seed, estimator=estimator, backend=backend, instance=instance,
        schedule=schedule, epochs=epochs, checkpoints=checkpoint_rows,
        per_agent_regret=cum_regret, total_regret=float(cum_regret.sum()),
        comm_cost=comm_cost(log), corruption=corruption, message_log=log,
        pulls=pulls_full, observed=observed_full, clean=clean_full,
    )

