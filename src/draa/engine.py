"""Single-run simulation engine tying the algorithm to the kernels.

:func:`run_single` is the one epoch loop: it advances all agents epoch
by epoch.  Within an epoch the pull distributions are frozen, so the
rounds are delegated to a backend kernel in contiguous segments, split
only at checkpoint rounds; the budget runs out at the same cell wherever
they fall.  At each epoch boundary agents broadcast, re-estimate, and
re-weight; the engine snapshots state, enforces hard invariants, and
records soft invariant violations for the test harness.  Cross-checks
run the same loop on both kernels (see :mod:`draa.kernels`).

Hard invariants (raise): probability simplex to 1e-12, strictly
positive probabilities, positive remainder for the active set.  Soft
invariants (counted, asserted zero by the acceptance suite): the
active/bad probability bracket on threshold-produced epochs and the
gap-estimate range.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adversary import (Adversary, CorruptionLedger, HistoryView,
                        ledger_totals)
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
    ledger: CorruptionLedger
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
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if any(c < 1 or c > T for c in checkpoints):
        raise ValueError("checkpoints must lie in [1, T]")

    env_prefix = stream_prefix(seed, ENV_STREAM)
    pull_prefix = stream_prefix(seed, PULL_STREAM)
    arms_pad, n_local, best_means = _build_layout(instance)
    kmax = arms_pad.shape[1]
    reward_model = REWARD_MODELS.index(instance.reward_model)
    beta_table = (instance.beta_table() if instance.reward_model == "beta"
                  else np.zeros((0, 0)))

    states = [init_epoch1(instance, ell) for ell in range(L)]
    ledger = CorruptionLedger(L)
    log = MessageLog(L)
    history = HistoryView(
        epoch=1,
        estimates=tuple(s.estimates.copy() for s in states),
        arm_lists=instance.arm_sets,
    )
    adversary.begin_epoch(instance, history)

    cum_regret = np.zeros(L)
    checkpoint_rows: list[CheckpointRow] = []
    cp_iter = iter(checkpoints)
    next_cp = next(cp_iter, None)
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

        ledger.begin_epoch()
        cdf = _pad_cdf(states, kmax)
        if adversary.targets is not None:
            targets, pushes = adversary.targets, adversary.pushes
        else:
            targets = np.full((L, 2), -1, dtype=np.int64)
            pushes = np.zeros((L, 2))

        seg_start = start
        while seg_start <= end:
            seg_end = end
            if next_cp is not None and next_cp < seg_end:
                seg_end = max(next_cp, seg_start)
            if next_cp is not None and seg_start <= next_cp <= seg_end:
                seg_end = next_cp
            plan = SegmentPlan(
                t_start=seg_start, t_end=seg_end, env_prefix=env_prefix,
                pull_prefix=pull_prefix, arms=arms_pad, n_local=n_local,
                cdf=cdf, means=instance.means, best_means=best_means,
                reward_model=reward_model, beta_table=beta_table,
                targets=targets, pushes=pushes, budget=adversary.budget,
                spent=adversary.spent, adv_active=adversary.active,
            )
            result = run_segment(plan, backend=backend, trace=trace)
            for ell, state in enumerate(states):
                n = int(n_local[ell])
                state.reward_sums += result.reward_sums[ell, :n]
                state.pull_counts += result.pull_counts[ell, :n]
            cum_regret += result.regret
            ledger.add_bulk(result.corruption)
            adversary.sync_spend(result.spent, result.adv_active)
            if trace:
                pulls_full[seg_start - 1:seg_end] = result.pulls
                observed_full[seg_start - 1:seg_end] = result.observed
                clean_full[seg_start - 1:seg_end] = result.clean
            if next_cp is not None and seg_end == next_cp:
                checkpoint_rows.append(CheckpointRow(
                    t=seg_end,
                    total_regret=float(cum_regret.sum()),
                    per_agent_regret=cum_regret.copy(),
                    corruption_so_far=ledger.running_total(),
                    comm_cost=comm_cost(log),
                ))
                next_cp = next(cp_iter, None)
            seg_start = seg_end + 1

        record.pull_counts = [s.pull_counts.copy() for s in states]
        ledger.finalize_epoch()
        record.corruption = ledger.epoch_total(m)
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
            history = HistoryView(
                epoch=m + 1,
                estimates=tuple(s.estimates.copy() for s in states),
                arm_lists=instance.arm_sets,
            )
            adversary.begin_epoch(instance, history)

    return RunResult(
        seed=seed, estimator=estimator, backend=backend, instance=instance,
        schedule=schedule, epochs=epochs, checkpoints=checkpoint_rows,
        per_agent_regret=cum_regret, total_regret=float(cum_regret.sum()),
        comm_cost=comm_cost(log), corruption=ledger_totals(ledger),
        message_log=log, ledger=ledger,
        pulls=pulls_full, observed=observed_full, clean=clean_full,
    )

