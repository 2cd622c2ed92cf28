"""Reward corruption: adversary kinds and the corruption ledger.

An adversary names, per agent and epoch, up to two target arms and a
signed raw edit for each; the segment kernels (:mod:`draa.kernels`)
apply the edits to the targets' clean rewards in every round of the
epoch, whether or not the agent pulls a target.  Raw edits are clamped
into [0, 1] and the ledger records the per-(round, agent) infinity norm
of the *delivered* minus clean values (clamp then measure), so the
ledger totals match what agents experienced.

Budget semantics: the budget counts ledger contributions.  The first
round-agent cell whose contribution would overrun the budget turns the
adversary off permanently (silent degradation to Null behavior), which
keeps the accounting a simple prefix rule that vectorizes.

All implemented adversaries pick their targets once per epoch from
information available before the epoch starts (previous-epoch estimates),
never from the agents' current-round choices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LedgerError
from .model import BanditInstance


@dataclass
class HistoryView:
    """What an adversary may read: everything strictly before round t.

    ``estimates`` are the agents' reward estimates frozen at the last
    epoch boundary; round-t arm choices are deliberately absent.
    """

    epoch: int
    estimates: tuple[np.ndarray, ...]  # r^{m-1} per agent, over local arms
    arm_lists: tuple[tuple[int, ...], ...]


class CorruptionLedger:
    """Per-epoch, per-agent infinity-norm corruption accounting."""

    def __init__(self, num_agents: int):
        self.num_agents = num_agents
        self._per_epoch: list[np.ndarray] = []  # finalized epochs
        self._current = np.zeros(num_agents)
        self._open = False

    def begin_epoch(self) -> None:
        if self._open:
            raise LedgerError("previous epoch not finalized")
        self._current = np.zeros(self.num_agents)
        self._open = True

    def add(self, agent: int, amount: float) -> None:
        if amount < 0:
            raise LedgerError("negative corruption amount")
        self._current[agent] += amount

    def add_bulk(self, per_agent: np.ndarray) -> None:
        self._current += per_agent

    def finalize_epoch(self) -> None:
        if not self._open:
            raise LedgerError("no epoch in progress")
        self._per_epoch.append(self._current.copy())
        self._open = False

    def epoch_agent_matrix(self) -> np.ndarray:
        """(M, L) matrix of finalized per-epoch per-agent contributions."""
        if not self._per_epoch:
            return np.zeros((0, self.num_agents))
        return np.vstack(self._per_epoch)

    def epoch_total(self, m: int) -> float:
        """C^m for 1-based epoch m.  Raises on unfinished epochs."""
        if m < 1 or m > len(self._per_epoch):
            raise LedgerError(f"epoch {m} not finalized")
        return float(self._per_epoch[m - 1].sum())

    def running_total(self) -> float:
        """C accumulated so far, including the open epoch."""
        total = float(self.epoch_agent_matrix().sum())
        if self._open:
            total += float(self._current.sum())
        return total


def ledger_totals(ledger: CorruptionLedger) -> dict:
    """Aggregate the finalized ledger into C, C_ell and C^m."""
    matrix = ledger.epoch_agent_matrix()
    per_agent = matrix.sum(axis=0)
    per_epoch = matrix.sum(axis=1)
    return {
        "C": float(per_agent.sum()),
        "C_per_agent": per_agent.tolist(),
        "C_per_epoch": per_epoch.tolist(),
    }


class Adversary:
    """Null adversary: delivers clean rewards; base class for the rest.

    Subclasses override :meth:`epoch_edits` to name, per agent, up to two
    (arm, signed raw edit) targets for the upcoming epoch.  The edit is
    added to the clean reward and clamped; everything else (budget,
    ledger, delivery) is shared machinery.
    """

    kind = "null"

    def __init__(self, budget: float = 0.0):
        self.budget = float(budget)
        self.spent = 0.0
        self.active = True
        self._targets: np.ndarray | None = None  # (L, 2) arm ids, -1 pad
        self._pushes: np.ndarray | None = None  # (L, 2) signed edits

    # -- per-epoch targeting ------------------------------------------------
    def epoch_edits(self, instance: BanditInstance, history: HistoryView):
        """Return ((L,2) target arms, (L,2) signed edits) or None."""
        return None

    def begin_epoch(self, instance: BanditInstance, history: HistoryView) -> None:
        edits = self.epoch_edits(instance, history)
        if edits is None:
            self._targets = None
            self._pushes = None
        else:
            self._targets, self._pushes = edits

    @property
    def targets(self) -> np.ndarray | None:
        return self._targets if self.active else None

    @property
    def pushes(self) -> np.ndarray | None:
        return self._pushes if self.active else None

    # -- budget -------------------------------------------------------------
    def sync_spend(self, spent: float, active: bool) -> None:
        """Adopt the budget state a segment kernel returned."""
        self.spent = spent
        self.active = active


class BudgetedTargetedAdversary(Adversary):
    """Push one arm's rewards down by a fixed magnitude every round.

    ``agents`` optionally restricts the corruption to a subset of agents
    (used to model corruption concentrated on one agent's observations).
    """

    kind = "budgeted_targeted"

    def __init__(self, target_arm: int, magnitude: float, budget: float,
                 agents=None):
        super().__init__(budget)
        if magnitude < 0 or budget < 0:
            raise ConfigError("adversary magnitudes and budgets must be nonnegative")
        self.target_arm = int(target_arm)
        self.magnitude = float(magnitude)
        self.agents = None if agents is None else tuple(int(a) for a in agents)

    def epoch_edits(self, instance, history):
        L = instance.num_agents
        targets = np.full((L, 2), -1, dtype=np.int64)
        pushes = np.zeros((L, 2))
        for ell in range(L):
            if self.agents is not None and ell not in self.agents:
                continue
            if self.target_arm in instance.arm_sets[ell]:
                targets[ell, 0] = self.target_arm
                pushes[ell, 0] = -self.magnitude
        return targets, pushes


class EpochFloodAdversary(Adversary):
    """Flood one arm with corruption from a given epoch until broke.

    ``direction`` is "up" or "down"; the raw edit is +-magnitude.  The
    flood starts at ``start_epoch`` and simply runs until the budget is
    exhausted, possibly spilling into later epochs.
    """

    kind = "epoch_flood"

    def __init__(self, target_arm: int, start_epoch: int, direction: str,
                 budget: float, magnitude: float = 1.0):
        super().__init__(budget)
        if magnitude < 0 or budget < 0:
            raise ConfigError("adversary magnitudes and budgets must be nonnegative")
        if direction not in ("up", "down"):
            raise ConfigError("direction must be 'up' or 'down'")
        self.target_arm = int(target_arm)
        self.start_epoch = int(start_epoch)
        self.direction = direction
        self.magnitude = float(magnitude)

    def epoch_edits(self, instance, history):
        if history.epoch < self.start_epoch:
            return None
        sign = 1.0 if self.direction == "up" else -1.0
        L = instance.num_agents
        targets = np.full((L, 2), -1, dtype=np.int64)
        pushes = np.zeros((L, 2))
        for ell in range(L):
            if self.target_arm in instance.arm_sets[ell]:
                targets[ell, 0] = self.target_arm
                pushes[ell, 0] = sign * self.magnitude
        return targets, pushes


class GapFlipAdversary(Adversary):
    """Adaptive: push each agent's current best-estimate arm down and its
    worst-estimate arm up, re-targeted at every epoch boundary.

    Only epoch-boundary information is read, so the adversary never sees
    the agents' round-t choices.
    """

    kind = "gap_flip"

    def __init__(self, magnitude: float, budget: float):
        super().__init__(budget)
        if magnitude < 0 or budget < 0:
            raise ConfigError("adversary magnitudes and budgets must be nonnegative")
        self.magnitude = float(magnitude)

    def epoch_edits(self, instance, history):
        if history.epoch < 2:
            return None  # no estimates to adapt to yet
        L = instance.num_agents
        targets = np.full((L, 2), -1, dtype=np.int64)
        pushes = np.zeros((L, 2))
        for ell in range(L):
            arms = history.arm_lists[ell]
            est = history.estimates[ell]
            best = arms[int(np.argmax(est))]
            worst = arms[int(np.argmin(est))]
            targets[ell, 0] = best
            pushes[ell, 0] = -self.magnitude
            if worst != best:
                targets[ell, 1] = worst
                pushes[ell, 1] = self.magnitude
        return targets, pushes


def make_adversary(config: dict | None) -> Adversary:
    """Build an adversary from its config section (None -> Null)."""
    if not config:
        return Adversary()
    kind = config.get("kind") or "null"
    kind = str(kind).lower()
    params = {k: v for k, v in config.items() if k != "kind"}
    try:
        if kind in ("null", "none"):
            return Adversary()
        if kind == "budgeted_targeted":
            return BudgetedTargetedAdversary(**params)
        if kind == "epoch_flood":
            return EpochFloodAdversary(**params)
        if kind == "gap_flip":
            return GapFlipAdversary(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for adversary {kind!r}: {exc}") from exc
    raise ConfigError(f"unknown adversary kind {kind!r}")
