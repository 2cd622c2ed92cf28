"""End-of-epoch broadcast channel and communication-cost accounting.

The network is ideal (instantaneous, lossless, fully connected): a post
is immediately visible to every agent.  The cost metric counts messages,
one per broadcast, so the log is a count of posts.  Every agent
broadcasts once at the end of each epoch, so a count read before an
epoch's posts (or after a run's last post) is L times the number of
completed epochs; the tests and the benchmark's output check hold every
run to that figure.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EpochBroadcast:
    """One agent's end-of-epoch message.

    Carries the reward sums and probabilities over exactly the sender's
    local arms, which is all the estimators read.  :func:`freeze_broadcast`
    builds it from read-only copies; posting it copies nothing.
    """

    arms: np.ndarray  # int64
    reward_sums: np.ndarray
    probs: np.ndarray


def freeze_broadcast(arms, reward_sums, probs) -> EpochBroadcast:
    """Snapshot mutable agent state into an immutable broadcast."""
    k = np.array(arms, dtype=np.int64)
    r = np.array(reward_sums, dtype=np.float64)
    p = np.array(probs, dtype=np.float64)
    for a in (k, r, p):
        a.flags.writeable = False
    return EpochBroadcast(arms=k, reward_sums=r, probs=p)


class MessageLog:
    """Broadcast log: the number of messages posted."""

    def __init__(self):
        self._count = 0

    def post(self, broadcast: EpochBroadcast) -> None:
        self._count += 1


def comm_cost(log: MessageLog) -> int:
    """Messages posted so far, one per broadcast."""
    return log._count
