"""Reward corruption: the adversary kinds and their edit contract.

An adversary is a stateless policy.  ``epoch_edits(instance, m,
estimates)`` reads the agents' epoch m-1 estimates and returns epoch m's
edits, one (targets, pushes) pair: per agent, up to two target arms and a
signed raw edit for each (the null base class uses no slot).  The segment
kernels (:mod:`draa.kernels`) apply the edits to the targets' clean
rewards in every round of the epoch, whether or not the agent pulls a
target.  Raw edits are clamped into [0, 1], and each (round, agent) cell
is charged the infinity norm of the *delivered* minus clean values (clamp
then measure), so the realized corruption matches what agents
experienced.

The edit contract follows the heterogeneous model: agent ell pulls, and
can be corrupted on, only the arms of its own set K_ell.  Each of an
agent's two target slots is -1 (unused) or one of its arms, the two
slots never name the same arm, and every edit is finite.
:meth:`Adversary.begin_epoch`, the engine's one call per epoch, checks
the edits of :meth:`epoch_edits` against it and raises
:class:`~draa.errors.InvariantError` (exit 3) naming the agent and the
arm; a return value that is not such a pair, ``None`` included, raises
it too.  The kernels rely on it and check nothing.  Every built-in kind keeps it, so
only a library subclass can break it.

Budget semantics: the budget counts the charges.  The first round-agent
cell whose charge would overrun the budget turns the adversary off for
the rest of the run (silent degradation to Null behavior), which keeps
the accounting a simple prefix rule that vectorizes.  The run's spend,
whether the gate is still open and the per-epoch, per-agent charges
belong to the run, not to the adversary: :func:`draa.engine.run_single`
keeps them, so one adversary object can drive any number of runs.

All implemented adversaries pick their targets once per epoch from
information available before the epoch starts (previous-epoch estimates),
never from the agents' current-round choices.  Their parameters are
checked when they are built and, against the instance, by
:meth:`Adversary.check`, so a bad config fails at load time.
"""
from __future__ import annotations

import inspect

import numpy as np

from .errors import (ConfigError, InvariantError, checked, checked_as,
                     checked_keys)
from .model import BanditInstance


class Adversary:
    """Null adversary: delivers clean rewards; base class for the rest.

    Subclasses override :meth:`epoch_edits`, starting from its edits and
    filling their own slots; the budget gate and the delivery are shared
    machinery in the kernels.
    """

    kind = "null"

    def __init__(self, budget: float = 0.0):
        self.budget = checked("adversary budget", budget, float, 0)

    def check(self, instance: BanditInstance) -> None:
        """Raise ``ConfigError`` if the parameters name an arm or agent
        that ``instance`` lacks."""

    def epoch_edits(self, instance: BanditInstance, epoch: int, estimates):
        """Return ((L,2) int target arms, (L,2) signed edits) under the
        module's edit contract; here every target is -1, every edit 0."""
        L = instance.num_agents
        return np.full((L, 2), -1, dtype=np.int64), np.zeros((L, 2))

    def begin_epoch(self, instance: BanditInstance, epoch: int, estimates):
        """The engine's one call per epoch: the edits of :meth:`epoch_edits`,
        checked against the edit contract."""
        edits = self.epoch_edits(instance, epoch, estimates)
        _check_edits(instance, edits)
        return edits


def _check_edits(instance: BanditInstance, edits) -> None:
    """Raise ``InvariantError`` unless ``edits`` is a (targets, pushes)
    pair, each agent's two targets are -1 or arms of its own and differ,
    and every push is a finite real number."""
    targets, pushes = (edits if isinstance(edits, tuple) and len(edits) == 2
                       else (None, None))
    L = instance.num_agents
    if not (isinstance(targets, np.ndarray) and targets.shape == (L, 2)
            and targets.dtype.kind in "iu" and isinstance(pushes, np.ndarray)
            and pushes.shape == (L, 2) and pushes.dtype.kind in "fiu"
            and np.isfinite(pushes).all()):
        raise InvariantError("adversary edits", f"epoch_edits must return a "
                             f"(targets, pushes) pair of ({L}, 2) arrays of "
                             f"integers and finite floats")
    # per agent: slot 0 foreign, slot 1 foreign, one arm in both slots
    held = np.any(targets[:, :, None] == instance.local_arms[:, None, :], 2)
    faults = np.column_stack([(targets != -1) & ~held, (targets[:, 0] != -1)
                              & (targets[:, 0] == targets[:, 1])])
    if faults.any():
        ell, fault = np.argwhere(faults)[0].tolist()
        how = ", not one of its arms" if fault < 2 else " in both slots"
        raise InvariantError("adversary edits", f"agent {ell} targets arm "
                             f"{targets[ell, fault % 2]}{how}")


class BudgetedTargetedAdversary(Adversary):
    """Push one arm's rewards down by a fixed magnitude every round.

    ``agents`` optionally restricts the corruption to a subset of agents
    (used to model corruption concentrated on one agent's observations).
    """

    kind = "budgeted_targeted"
    #: the first epoch edited, and the sign of the raw edit
    start_epoch = 1
    sign = -1.0

    def __init__(self, target_arm: int, magnitude: float, budget: float,
                 agents=None):
        super().__init__(budget)
        self.target_arm = checked("adversary target_arm", target_arm, int)
        self.magnitude = checked("adversary magnitude", magnitude, float, 0)
        self.agents = None if agents is None else tuple(
            checked("adversary agent", a, int)
            for a in checked_as("adversary agents", agents, list))

    def check(self, instance):
        checked("adversary target_arm", self.target_arm, int, 0,
                instance.num_arms - 1)
        for ell in self.agents or ():
            checked("adversary agent", ell, int, 0, instance.num_agents - 1)

    def epoch_edits(self, instance, epoch, estimates):
        """From ``start_epoch`` on, slot 0 of every agent (in ``agents``,
        if given) that holds the target arm edits it by sign·magnitude."""
        targets, pushes = super().epoch_edits(instance, epoch, estimates)
        arm = self.target_arm
        for ell, own in enumerate(instance.arm_sets):
            if (epoch >= self.start_epoch and arm in own
                    and (self.agents is None or ell in self.agents)):
                targets[ell, 0] = arm
                pushes[ell, 0] = self.sign * self.magnitude
        return targets, pushes


class EpochFloodAdversary(BudgetedTargetedAdversary):
    """Flood one arm of every agent from a given epoch until broke.

    ``direction`` is "up" or "down"; the raw edit is +-magnitude.  The
    flood starts at ``start_epoch`` and simply runs until the budget is
    exhausted, possibly spilling into later epochs.
    """

    kind = "epoch_flood"

    def __init__(self, target_arm: int, start_epoch: int, direction: str,
                 budget: float, magnitude: float = 1.0):
        if direction not in ("up", "down"):
            raise ConfigError(f"adversary direction must be 'up' or 'down', "
                              f"got {direction!r}")
        super().__init__(target_arm, magnitude, budget)
        self.start_epoch = checked("adversary start_epoch", start_epoch, int, 1)
        self.sign = 1.0 if direction == "up" else -1.0


class GapFlipAdversary(Adversary):
    """Adaptive: push each agent's current best-estimate arm down and its
    worst-estimate arm up, re-targeted at every epoch boundary.

    Only epoch-boundary information is read, so the adversary never sees
    the agents' round-t choices.
    """

    kind = "gap_flip"

    def __init__(self, magnitude: float, budget: float):
        super().__init__(budget)
        self.magnitude = checked("adversary magnitude", magnitude, float, 0)

    def epoch_edits(self, instance, epoch, estimates):
        targets, pushes = super().epoch_edits(instance, epoch, estimates)
        if epoch < 2:
            return targets, pushes  # no estimates to adapt to yet
        for ell, (arms, est) in enumerate(zip(instance.arm_sets, estimates)):
            best = arms[int(np.argmax(est))]
            worst = arms[int(np.argmin(est))]
            targets[ell, 0] = best
            pushes[ell, 0] = -self.magnitude
            if worst != best:
                targets[ell, 1] = worst
                pushes[ell, 1] = self.magnitude
        return targets, pushes


_KINDS = {cls.kind: cls for cls in (Adversary, BudgetedTargetedAdversary,
                                    EpochFloodAdversary, GapFlipAdversary)}


def make_adversary(config: dict | None) -> Adversary:
    """Build an adversary from its config section (None -> Null)."""
    config = config or {}
    kind = "null" if config.get("kind") is None else config["kind"]
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown adversary kind {kind!r}")
    parameters = inspect.signature(cls).parameters
    checked_keys("adversary", config, {"kind", *parameters})
    for name, parameter in parameters.items():
        if parameter.default is parameter.empty and name not in config:
            raise ConfigError(f"adversary {name} is required")
    return cls(**{k: v for k, v in config.items() if k != "kind"})
