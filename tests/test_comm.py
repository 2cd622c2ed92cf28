"""Broadcast log semantics and communication-cost accounting."""
import numpy as np
import pytest

from draa.comm import MessageLog, comm_cost, freeze_broadcast


def bcast():
    return freeze_broadcast([0, 1], [1.0, 2.0], [0.5, 0.5])


def test_each_agent_posting_adds_l_messages():
    log = MessageLog()
    for _agent in range(3):
        log.post(bcast())
    assert comm_cost(log) == 3


def test_zero_completed_epochs_zero_cost():
    assert comm_cost(MessageLog()) == 0


def test_cost_is_l_times_completed_epochs():
    log = MessageLog()
    for _epoch in range(5):
        for _agent in range(3):
            log.post(bcast())
    assert comm_cost(log) == 15


def test_single_agent_cost_equals_epochs():
    log = MessageLog()
    for _epoch in range(7):
        log.post(bcast())
    assert comm_cost(log) == 7


def test_broadcasts_are_value_copies():
    sums = np.array([1.0, 2.0])
    b = freeze_broadcast([0, 1], sums, [0.5, 0.5])
    sums[0] = 99.0
    assert b.reward_sums[0] == 1.0
    with pytest.raises(ValueError):
        b.reward_sums[0] = 5.0
