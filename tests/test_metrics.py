"""Regret arithmetic, corruption diagnostics, and bound-shaped terms.

Regret is accounted by the segment kernels and summed by the engine; the
``rounds`` fixture (conftest.py) runs fixed pulls through both kernels.
"""
import pytest

from draa.adversary import CorruptionLedger, make_adversary
from draa.agents import build_schedule
from draa.engine import run_single
from draa.errors import ConfigError
from draa.metrics import rho_diagnostic, theory_terms
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
    curve = [cp.total_regret for cp in result.checkpoints]
    assert [cp.t for cp in result.checkpoints] == [10, 20, 50]
    assert curve[0] <= curve[1] <= curve[2]
    assert curve[2] == result.total_regret


def ledger_with_epochs(totals, num_agents=2):
    ledger = CorruptionLedger(num_agents)
    for c in totals:
        ledger.begin_epoch()
        ledger.add(0, c)
        ledger.finalize_epoch()
    return ledger


class TestRho:
    def schedule(self, inst):
        # lam chosen so that T^1 = 2048 with K=3, L_min=1: lam = 2048/3
        sched = build_schedule(inst, horizon=3000, delta=0.05, lam_scale=16)
        return sched

    def test_zero_corruption(self, inst):
        sched = self.schedule(inst)
        ledger = ledger_with_epochs([0.0, 0.0])
        assert rho_diagnostic(ledger, sched, 2) == 0.0

    def test_hand_value(self):
        # m=1, C^1=10, L_min=2, T^1=2048: rho = 20 / (8^-1 * 2 * 2048)
        inst = build_instance({
            "num_arms": 4, "num_agents": 2,
            "arm_sets": [[0, 1, 2, 3], [0, 1, 2, 3]],
            "means": [0.9, 0.5, 0.4, 0.3]})
        sched = build_schedule(inst, horizon=100000, delta=0.05, lam_scale=16)
        assert sched.epoch_length(1) != 2048  # the formula is checked below
        ledger = ledger_with_epochs([10.0])
        expected = 2 * 10.0 / (8.0 ** -1 * 2 * sched.epoch_length(1))
        assert rho_diagnostic(ledger, sched, 1) == pytest.approx(expected)
        # frozen reference point for the exact documented combination
        assert 2 * 10.0 / (8.0 ** -1 * 2 * 2048) == pytest.approx(0.0390625)

    def test_linearity(self, inst):
        sched = self.schedule(inst)
        a = rho_diagnostic(ledger_with_epochs([3.0, 5.0]), sched, 2)
        b = rho_diagnostic(ledger_with_epochs([6.0, 10.0]), sched, 2)
        assert b == pytest.approx(2 * a)


class TestTheoryTerms:
    def test_zero_corruption_zero_term(self, inst):
        terms = theory_terms(inst, 0.0, 10000, 0.05)
        assert terms["corruption_term"] == 0.0
        assert terms["stochastic_term"] > 0

    def test_hand_value(self):
        inst = build_instance({
            "num_arms": 2, "num_agents": 4,
            "arm_sets": [[0, 1], [0, 1], [0], [0]],
            "means": [0.9, 0.5]})
        assert inst.l_min == 2
        terms = theory_terms(inst, 100.0, 10000, 0.05)
        assert terms["corruption_term"] == pytest.approx(200.0)

    def test_homogeneous_reduction(self):
        inst = build_instance({
            "num_arms": 2, "num_agents": 3,
            "arm_sets": [[0, 1]] * 3, "means": [0.9, 0.5]})
        terms = theory_terms(inst, 100.0, 10000, 0.05)
        assert terms["corruption_term"] == pytest.approx(100.0)

    def test_monotone_in_corruption_and_gap(self, inst):
        t1 = theory_terms(inst, 10.0, 10000, 0.05)
        t2 = theory_terms(inst, 20.0, 10000, 0.05)
        assert t2["corruption_term"] > t1["corruption_term"]
        tighter = build_instance({
            "num_arms": 3, "num_agents": 2,
            "arm_sets": [[0, 1], [1, 2]],
            "means": [0.9, 0.88, 0.4]})
        assert theory_terms(tighter, 0.0, 10000, 0.05)["stochastic_term"] > \
            t1["stochastic_term"]

    def test_all_zero_gaps_rejected(self):
        flat = build_instance({
            "num_arms": 2, "num_agents": 1,
            "arm_sets": [[0, 1]], "means": [0.5, 0.5]})
        with pytest.raises(ConfigError):
            theory_terms(flat, 0.0, 10000, 0.05)
