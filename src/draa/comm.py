"""End-of-epoch broadcast channel and communication-cost accounting.

The network is ideal (instantaneous, lossless, fully connected): a post
is immediately visible to every agent.  The cost metric counts messages,
one per broadcast.  Every agent broadcasts once at the end of each
epoch, so the log keeps only the (epoch, sender) pairs that enforce
that rule, and a count read before an epoch's posts (or after a run's
last post) is L times the number of completed epochs.
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
    """Broadcast log with a once-per-epoch rule per sender."""

    def __init__(self):
        self._posted: set[tuple[int, int]] = set()  # (epoch, sender)

    def post(self, broadcast: EpochBroadcast) -> None:
        key = (broadcast.epoch, broadcast.sender)
        if key in self._posted:
            raise DuplicateBroadcastError(
                f"agent {broadcast.sender} already posted in epoch {broadcast.epoch}"
            )
        self._posted.add(key)


def comm_cost(log: MessageLog) -> int:
    """Messages posted so far, one per broadcast."""
    return len(log._posted)
