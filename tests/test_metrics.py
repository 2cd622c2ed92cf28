"""Regret arithmetic.

Regret is accounted by the segment kernels and summed by the engine; the
``rounds`` fixture (conftest.py) runs fixed pulls through both kernels.
"""
import pytest

from draa.adversary import make_adversary
from draa.agents import build_schedule
from draa.engine import run_single
from draa.model import build_instance


@pytest.fixture
def inst():
    return build_instance({
        "num_arms": 3,
        "num_agents": 2,
        "arm_sets": [[0, 1], [1, 2]],
        "means": [0.9, 0.5, 0.4],
    })


def test_always_best_zero_regret(inst, rounds):
    out = rounds(inst, [0, 0], rounds=10)  # arms 0 and 1, the local bests
    assert out.regret.tolist() == [0.0, 0.0]


def test_hand_value(inst, rounds):
    # agent 0 pulls the 0.5 arm for 10 rounds against a 0.9 best
    out = rounds(inst, [1, 0], rounds=10)
    assert out.regret[0] == pytest.approx(4.0)
    assert out.regret[1] == pytest.approx(0.0)


def test_total_is_sum_of_agents(inst, rounds):
    out = rounds(inst, [1, 1], rounds=10)
    assert out.regret.tolist() == [pytest.approx(4.0), pytest.approx(1.0)]
    sched = build_schedule(inst, 500, delta=0.05, lam_scale=16)
    result = run_single(inst, sched, make_adversary(None), 0)
    assert result.total_regret == pytest.approx(result.per_agent_regret.sum())


def test_regret_curve_monotone(inst):
    sched = build_schedule(inst, 50, delta=0.05, lam_scale=16)
    result = run_single(inst, sched, make_adversary(None), 0,
                        checkpoints=[10, 20, 50])
    curve = result.checkpoints.regret.sum(axis=1).tolist()
    assert result.checkpoints.t.tolist() == [10, 20, 50]
    assert curve[0] <= curve[1] <= curve[2]
    assert curve[2] == result.total_regret
