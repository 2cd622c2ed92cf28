"""End-of-epoch broadcast channel and communication-cost accounting.

The network is ideal (instantaneous, lossless, fully connected): a post
is immediately visible to every agent.  The cost metric counts messages,
one per broadcast, so a completed run costs exactly L times the number
of completed epochs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateBroadcastError


@dataclass(frozen=True)
class EpochBroadcast:
    """One agent's end-of-epoch message (value-copied on post).

    Carries the reward sums and probabilities over exactly the sender's
    local arms, which is what the estimators read.
    """

    sender: int
    epoch: int
    arms: np.ndarray  # int64
    reward_sums: np.ndarray
    probs: np.ndarray


def freeze_broadcast(sender: int, epoch: int, arms, reward_sums,
                     probs) -> EpochBroadcast:
    """Snapshot mutable agent state into an immutable broadcast."""
    k = np.array(arms, dtype=np.int64)
    r = np.array(reward_sums, dtype=np.float64)
    p = np.array(probs, dtype=np.float64)
    for a in (k, r, p):
        a.flags.writeable = False
    return EpochBroadcast(sender=sender, epoch=epoch, arms=k, reward_sums=r,
                          probs=p)


class MessageLog:
    """Ordered broadcast log with a once-per-epoch rule per sender."""

    def __init__(self, num_agents: int):
        self.num_agents = num_agents
        self.entries: list[EpochBroadcast] = []
        self._posted: set[tuple[int, int]] = set()  # (epoch, sender)
        self._posts_per_epoch: dict[int, int] = {}
        self._completed_epochs = 0

    def post(self, broadcast: EpochBroadcast) -> None:
        key = (broadcast.epoch, broadcast.sender)
        if key in self._posted:
            raise DuplicateBroadcastError(
                f"agent {broadcast.sender} already posted in epoch {broadcast.epoch}"
            )
        self._posted.add(key)
        self.entries.append(broadcast)
        posted_this_epoch = self._posts_per_epoch.get(broadcast.epoch, 0) + 1
        self._posts_per_epoch[broadcast.epoch] = posted_this_epoch
        if posted_this_epoch == self.num_agents:
            self._completed_epochs = max(self._completed_epochs, broadcast.epoch)

    @property
    def completed_epochs(self) -> int:
        return self._completed_epochs


def comm_cost(log: MessageLog) -> int:
    """Total messages over completed epochs (L per completed epoch)."""
    return sum(1 for b in log.entries if b.epoch <= log.completed_epochs)
