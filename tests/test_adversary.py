"""Corruption ledger accounting and adversary behavior.

Corruption is delivered by the segment kernels; the ``rounds`` fixture
(conftest.py) runs rounds through both of them with fixed pulls and
constant clean rewards.
"""
import numpy as np
import pytest

from draa.adversary import (Adversary, BudgetedTargetedAdversary,
                            CorruptionLedger, EpochFloodAdversary,
                            GapFlipAdversary, HistoryView, ledger_totals,
                            make_adversary)
from draa.errors import ConfigError, LedgerError
from draa.model import build_instance


@pytest.fixture
def inst():
    return build_instance({
        "num_arms": 3,
        "num_agents": 2,
        "arm_sets": [[0, 1], [1, 2]],
        "means": [0.9, 0.5, 0.4],
    })


#: constant clean reward of arms 0, 1 and 2
CLEAN = (1.0, 0.5, 0.0)


def history(inst, epoch=1):
    return HistoryView(
        epoch=epoch,
        estimates=tuple(np.ones(len(a)) for a in inst.arm_sets),
        arm_lists=inst.arm_sets,
    )


class TestLedger:
    def test_no_corruption_all_zero(self):
        ledger = CorruptionLedger(2)
        for _ in range(3):
            ledger.begin_epoch()
            ledger.finalize_epoch()
        totals = ledger_totals(ledger)
        assert totals["C"] == 0.0
        assert totals["C_per_epoch"] == [0.0, 0.0, 0.0]

    def test_per_epoch_and_per_agent_sums(self):
        ledger = CorruptionLedger(2)
        ledger.begin_epoch()
        ledger.add(0, 1.5)
        ledger.add(1, 0.5)
        ledger.finalize_epoch()
        ledger.begin_epoch()
        ledger.add(0, 2.0)
        ledger.finalize_epoch()
        totals = ledger_totals(ledger)
        assert totals["C"] == 4.0
        assert totals["C_per_agent"] == [3.5, 0.5]
        assert totals["C_per_epoch"] == [2.0, 2.0]
        assert ledger.epoch_total(1) == 2.0

    def test_unfinished_epoch_query_raises(self):
        ledger = CorruptionLedger(1)
        ledger.begin_epoch()
        with pytest.raises(LedgerError):
            ledger.epoch_total(1)

    def test_negative_amount_rejected(self):
        ledger = CorruptionLedger(1)
        ledger.begin_epoch()
        with pytest.raises(LedgerError):
            ledger.add(0, -0.1)


class TestNullAdversary:
    def test_delivers_clean_rewards(self, inst, rounds):
        adv = Adversary()
        adv.begin_epoch(inst, history(inst))
        for pulled in ((0, 0), (1, 1)):
            out = rounds(inst, pulled, adv, rewards=CLEAN)
            np.testing.assert_array_equal(out.observed, out.clean)
            assert out.corruption.sum() == 0.0


class TestBudgetedTargeted:
    def test_pushes_target_down_and_clamps(self, inst, rounds):
        adv = BudgetedTargetedAdversary(target_arm=0, magnitude=0.6,
                                        budget=100.0)
        adv.begin_epoch(inst, history(inst))
        out = rounds(inst, (0, 0), adv, rewards=CLEAN)
        assert out.observed[0, 0] == pytest.approx(0.4)
        assert out.observed[0, 1] == 0.5  # agent without the arm untouched
        assert out.corruption[0] == pytest.approx(0.6)
        assert out.corruption[1] == 0.0
        # an untargeted pull is delivered clean, but the edit of the
        # agent's target arm is still charged
        out = rounds(inst, (1, 0), adv, rewards=CLEAN)
        assert out.observed[0, 0] == 0.5
        assert out.corruption[0] == pytest.approx(0.6)

    def test_clamp_then_measure(self, inst, rounds):
        adv = BudgetedTargetedAdversary(target_arm=0, magnitude=0.6,
                                        budget=100.0)
        adv.begin_epoch(inst, history(inst))
        out = rounds(inst, (0, 0), adv, rewards=(0.2, 0.5, 0.0))
        assert out.clean[0, 0] == 0.2
        assert out.observed[0, 0] == 0.0  # clamped at the floor
        # the ledger charges the delivered delta (0.2), not the raw push
        assert out.corruption[0] == pytest.approx(0.2)

    def test_budget_stops_permanently_at_first_overrun(self, inst, rounds):
        adv = BudgetedTargetedAdversary(target_arm=0, magnitude=0.6,
                                        budget=1.0)
        adv.begin_epoch(inst, history(inst))
        # two spends of 0.6: the first fits, the second overruns and
        # disables the adversary for good
        out = rounds(inst, (0, 0), adv, rewards=CLEAN, rounds=3)
        np.testing.assert_allclose(out.observed[:, 0], [0.4, 1.0, 1.0])
        assert not adv.active
        assert adv.spent == pytest.approx(0.6)
        out = rounds(inst, (0, 0), adv, rewards=CLEAN)
        assert out.observed[0, 0] == 1.0

    def test_agent_restriction(self, inst, rounds):
        adv = BudgetedTargetedAdversary(target_arm=1, magnitude=0.5,
                                        budget=10.0, agents=[1])
        adv.begin_epoch(inst, history(inst))
        out = rounds(inst, (1, 0), adv, rewards=CLEAN)  # both pull arm 1
        assert out.observed[0, 0] == 0.5  # agent 0 excluded
        assert out.observed[0, 1] == 0.0


class TestEpochFlood:
    def test_inactive_before_start_epoch(self, inst):
        adv = EpochFloodAdversary(target_arm=0, start_epoch=2,
                                  direction="down", budget=10.0)
        adv.begin_epoch(inst, history(inst, epoch=1))
        assert adv.targets is None
        adv.begin_epoch(inst, history(inst, epoch=2))
        assert adv.targets is not None

    def test_direction_up(self, inst, rounds):
        adv = EpochFloodAdversary(target_arm=2, start_epoch=1,
                                  direction="up", budget=10.0)
        adv.begin_epoch(inst, history(inst))
        out = rounds(inst, (0, 1), adv, rewards=CLEAN)  # agent 1 pulls arm 2
        assert out.observed[0, 1] == 1.0


class TestGapFlip:
    def test_skips_epoch_one(self, inst):
        adv = GapFlipAdversary(magnitude=0.5, budget=10.0)
        adv.begin_epoch(inst, history(inst, epoch=1))
        assert adv.targets is None

    def test_targets_best_down_worst_up(self, inst):
        adv = GapFlipAdversary(magnitude=0.5, budget=10.0)
        hist = HistoryView(
            epoch=2,
            estimates=(np.array([0.8, 0.2]), np.array([0.3, 0.7])),
            arm_lists=inst.arm_sets,
        )
        adv.begin_epoch(inst, hist)
        # agent 0 holds arms (0, 1): best-estimate 0 down, worst 1 up
        assert adv.targets[0, 0] == 0 and adv.pushes[0, 0] == -0.5
        assert adv.targets[0, 1] == 1 and adv.pushes[0, 1] == 0.5
        # agent 1 holds arms (1, 2): best-estimate 2 down, worst 1 up
        assert adv.targets[1, 0] == 2 and adv.pushes[1, 0] == -0.5
        assert adv.targets[1, 1] == 1 and adv.pushes[1, 1] == 0.5


class TestFactory:
    def test_null_variants(self):
        assert make_adversary(None).kind == "null"
        assert make_adversary({}).kind == "null"
        assert make_adversary({"kind": None}).kind == "null"
        assert make_adversary({"kind": "null"}).kind == "null"

    def test_known_kinds(self):
        adv = make_adversary({"kind": "budgeted_targeted", "target_arm": 0,
                              "magnitude": 0.5, "budget": 10})
        assert isinstance(adv, BudgetedTargetedAdversary)
        adv = make_adversary({"kind": "gap_flip", "magnitude": 0.5,
                              "budget": 10})
        assert isinstance(adv, GapFlipAdversary)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown adversary"):
            make_adversary({"kind": "byzantine"})

    def test_bad_parameters(self):
        with pytest.raises(ConfigError, match="bad parameters"):
            make_adversary({"kind": "gap_flip", "wrong_field": 1})
        with pytest.raises(ConfigError, match="nonnegative"):
            make_adversary({"kind": "gap_flip", "magnitude": -1, "budget": 5})
