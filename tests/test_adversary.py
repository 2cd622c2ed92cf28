"""Corruption accounting, adversary behavior and the edit contract.

Corruption is delivered by the segment kernels; the ``rounds`` fixture
(conftest.py) runs rounds through both of them with fixed pulls and
constant clean rewards.
"""
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from draa import engine
from draa.adversary import (Adversary, BudgetedTargetedAdversary,
                            EpochFloodAdversary, GapFlipAdversary,
                            make_adversary)
from draa.agents import build_schedule
from draa.engine import run_single
from draa.errors import ConfigError, InvariantError
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


def ones(inst):
    """Every agent's previous-epoch estimates, all 1."""
    return [np.ones(len(a)) for a in inst.arm_sets]


def assert_no_edits(inst, edits):
    """``edits`` is a (targets, pushes) pair that uses no slot."""
    targets, pushes = edits
    L = inst.num_agents
    np.testing.assert_array_equal(targets, np.full((L, 2), -1))
    np.testing.assert_array_equal(pushes, np.zeros((L, 2)))


class TestLedger:
    """The engine's per-epoch, per-agent corruption, read off a run."""

    def test_no_corruption_all_zero(self, inst):
        sched = build_schedule(inst, 3000, delta=0.05, lam_scale=16)
        result = run_single(inst, sched, Adversary(), 0, backend="numpy")
        assert result.corruption == {
            "C": 0.0, "C_per_agent": [0.0, 0.0],
            "C_per_epoch": [0.0] * sched.num_epochs}
        assert (result.checkpoints.corruption == 0.0).all()

    def test_per_epoch_and_per_agent_sums(self, inst):
        # only agent 1 is charged, 0.5 per cell where arm 1 pays 1, so
        # every sum is exact; the budget closes mid-run
        sched = build_schedule(inst, 3000, delta=0.05, lam_scale=16)
        adv = BudgetedTargetedAdversary(target_arm=1, magnitude=0.5,
                                        budget=200.0, agents=[1])
        result = run_single(inst, sched, adv, 0, backend="numpy")
        totals = result.corruption
        assert 199.5 < totals["C"] <= 200.0
        assert totals["C_per_agent"] == [0.0, totals["C"]]
        assert sum(totals["C_per_epoch"]) == totals["C"]
        assert [e.corruption for e in result.epochs] == totals["C_per_epoch"]
        cps = result.checkpoints
        so_far = dict(zip(cps.t.tolist(), cps.corruption.tolist()))
        for e in result.epochs:
            assert so_far[e.end] == sum(totals["C_per_epoch"][:e.m])


class TestNullAdversary:
    def test_delivers_clean_rewards(self, inst, rounds):
        edits = Adversary().begin_epoch(inst, 1, ones(inst))
        assert_no_edits(inst, edits)
        for pulled in ((0, 0), (1, 1)):
            out = rounds(inst, pulled, edits, rewards=CLEAN)
            np.testing.assert_array_equal(out.observed, out.clean)
            assert out.corruption.sum() == 0.0


class TestBudgetedTargeted:
    def test_pushes_target_down_and_clamps(self, inst, rounds):
        adv = BudgetedTargetedAdversary(target_arm=0, magnitude=0.6,
                                        budget=100.0)
        edits = adv.begin_epoch(inst, 1, ones(inst))
        out = rounds(inst, (0, 0), edits, adv.budget, rewards=CLEAN)
        assert out.observed[0, 0] == pytest.approx(0.4)
        assert out.observed[0, 1] == 0.5  # agent without the arm untouched
        assert out.corruption[0] == pytest.approx(0.6)
        assert out.corruption[1] == 0.0
        # an untargeted pull is delivered clean, but the edit of the
        # agent's target arm is still charged
        out = rounds(inst, (1, 0), edits, adv.budget, rewards=CLEAN)
        assert out.observed[0, 0] == 0.5
        assert out.corruption[0] == pytest.approx(0.6)

    def test_clamp_then_measure(self, inst, rounds):
        adv = BudgetedTargetedAdversary(target_arm=0, magnitude=0.6,
                                        budget=100.0)
        edits = adv.begin_epoch(inst, 1, ones(inst))
        out = rounds(inst, (0, 0), edits, adv.budget, rewards=(0.2, 0.5, 0.0))
        assert out.clean[0, 0] == 0.2
        assert out.observed[0, 0] == 0.0  # clamped at the floor
        # the cell is charged the delivered delta (0.2), not the raw push
        assert out.corruption[0] == pytest.approx(0.2)

    def test_budget_stops_permanently_at_first_overrun(self, inst, rounds):
        adv = BudgetedTargetedAdversary(target_arm=0, magnitude=0.6,
                                        budget=1.0)
        edits = adv.begin_epoch(inst, 1, ones(inst))
        # two spends of 0.6: the first fits, the second overruns and
        # closes the gate for good
        out = rounds(inst, (0, 0), edits, adv.budget, rewards=CLEAN, rounds=3)
        np.testing.assert_allclose(out.observed[:, 0], [0.4, 1.0, 1.0])
        assert not out.adv_active
        assert out.spent == pytest.approx(0.6)
        out = rounds(inst, (0, 0), edits, adv.budget, spent=out.spent,
                     active=out.adv_active, rewards=CLEAN)
        assert out.observed[0, 0] == 1.0
        assert out.spent == pytest.approx(0.6)

    def test_agent_restriction(self, inst, rounds):
        adv = BudgetedTargetedAdversary(target_arm=1, magnitude=0.5,
                                        budget=10.0, agents=[1])
        edits = adv.begin_epoch(inst, 1, ones(inst))
        out = rounds(inst, (1, 0), edits, adv.budget, rewards=CLEAN)
        assert out.observed[0, 0] == 0.5  # agent 0 excluded
        assert out.observed[0, 1] == 0.0


class TestEpochFlood:
    def test_inactive_before_start_epoch(self, inst):
        adv = EpochFloodAdversary(target_arm=0, start_epoch=2,
                                  direction="down", budget=10.0)
        assert_no_edits(inst, adv.begin_epoch(inst, 1, ones(inst)))
        targets, pushes = adv.begin_epoch(inst, 2, ones(inst))
        assert targets[:, 0].tolist() == [0, -1]  # only agent 0 holds arm 0
        assert pushes[0, 0] == -1.0

    def test_direction_up(self, inst, rounds):
        adv = EpochFloodAdversary(target_arm=2, start_epoch=1,
                                  direction="up", budget=10.0)
        edits = adv.begin_epoch(inst, 1, ones(inst))
        out = rounds(inst, (0, 1), edits, adv.budget, rewards=CLEAN)
        assert out.observed[0, 1] == 1.0  # agent 1 pulls arm 2


    @pytest.mark.parametrize("direction,shown", [
        (1, "1"), (None, "None"), (["up"], "['up']"),
        (["up"] * 100, "['up', 'up', 'up', ...]")])
    def test_bad_direction(self, direction, shown):
        with pytest.raises(ConfigError) as raised:
            make_adversary({"kind": "epoch_flood", "target_arm": 0,
                            "start_epoch": 1, "direction": direction,
                            "budget": 10.0})
        assert str(raised.value) == ("adversary direction must be 'up' or "
                                     f"'down', got {shown}")


class TestGapFlip:
    def test_skips_epoch_one(self, inst):
        adv = GapFlipAdversary(magnitude=0.5, budget=10.0)
        assert_no_edits(inst, adv.begin_epoch(inst, 1, ones(inst)))

    def test_targets_best_down_worst_up(self, inst):
        adv = GapFlipAdversary(magnitude=0.5, budget=10.0)
        estimates = [np.array([0.8, 0.2]), np.array([0.3, 0.7])]
        targets, pushes = adv.begin_epoch(inst, 2, estimates)
        # agent 0 holds arms (0, 1): best-estimate 0 down, worst 1 up
        assert targets[0, 0] == 0 and pushes[0, 0] == -0.5
        assert targets[0, 1] == 1 and pushes[0, 1] == 0.5
        # agent 1 holds arms (1, 2): best-estimate 2 down, worst 1 up
        assert targets[1, 0] == 2 and pushes[1, 0] == -0.5
        assert targets[1, 1] == 1 and pushes[1, 1] == 0.5


@st.composite
def built_in_case(draw):
    """A built-in adversary with random parameters, a ragged instance and
    an epoch's estimates, drawn from a few values so that ties are common."""
    num_arms = draw(st.integers(1, 8))
    num_agents = draw(st.integers(1, 5))
    arm_sets = [draw(st.lists(st.integers(0, num_arms - 1), min_size=1,
                              max_size=num_arms, unique=True))
                for _ in range(num_agents)]
    for k in set(range(num_arms)) - set().union(*arm_sets):
        arm_sets[k % num_agents].append(k)
    inst = build_instance({
        "num_arms": num_arms, "num_agents": num_agents,
        "arm_sets": arm_sets,
        "means": draw(st.lists(st.floats(0.0, 1.0), min_size=num_arms,
                               max_size=num_arms))})
    magnitude = draw(st.floats(0.0, 2.0))
    budget = draw(st.floats(0.0, 1e3))
    target_arm = draw(st.integers(0, num_arms - 1))
    adv = draw(st.sampled_from([
        BudgetedTargetedAdversary(
            target_arm, magnitude, budget,
            agents=draw(st.none() | st.lists(
                st.integers(0, num_agents - 1), max_size=num_agents))),
        EpochFloodAdversary(target_arm, draw(st.integers(1, 5)),
                            draw(st.sampled_from(["up", "down"])), budget,
                            magnitude),
        GapFlipAdversary(magnitude, budget),
    ]))
    adv.check(inst)
    estimates = [
        np.array(draw(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0]),
                               min_size=len(a), max_size=len(a))))
        for a in inst.arm_sets]
    return adv, inst, draw(st.integers(1, 5)), estimates


class TestEditContract:
    """Each target is -1 or one of its agent's arms, and an agent's two
    targets differ; ``begin_epoch`` rejects edits that break this."""

    @given(case=built_in_case())
    @settings(max_examples=200, deadline=None)
    def test_built_in_kinds_keep_it(self, case):
        adv, inst, epoch, estimates = case
        targets, pushes = adv.epoch_edits(inst, epoch, estimates)
        assert targets.shape == pushes.shape == (inst.num_agents, 2)
        for ell, (k0, k1) in enumerate(targets.tolist()):
            for k in (k0, k1):
                assert k == -1 or k in inst.arm_sets[ell]
            assert k0 == -1 or k0 != k1
        checked = adv.begin_epoch(inst, epoch, estimates)
        np.testing.assert_array_equal(checked[0], targets)
        np.testing.assert_array_equal(checked[1], pushes)

    @pytest.mark.parametrize("targets,push,msg", [
        ([[2, -1], [-1, -1]], 0.5,
         "agent 0 targets arm 2, not one of its arms"),
        ([[-1, -1], [1, 1]], 0.5, "agent 1 targets arm 1 in both slots"),
        ([[0, 1], [1, -1], [2, -1]], 0.5, r"\(2, 2\) arrays"),
        ([[0.0, -1.0], [-1.0, -1.0]], 0.5, "arrays of integers"),
        ([[0, -1], [-1, -1]], np.nan, "finite floats"),
        # pushes that are no real numbers: isfinite raises a TypeError on
        # the first two, and the kernels cannot add the third
        ([[0, -1], [-1, -1]], "0.5", "finite floats"),
        ([[0, -1], [-1, -1]], None, "finite floats"),
        ([[0, -1], [-1, -1]], 0.5 + 0j, "finite floats"),
        (None, None, r"must return a \(targets, pushes\) pair"),
    ], ids=["arm-outside-set", "one-arm-twice", "wrong-shape", "float-arms",
            "nan-push", "string-push", "none-push", "complex-push", "none"])
    def test_broken_edits_raise_before_any_kernel_call(self, inst, targets,
                                                       push, msg):
        class Broken(Adversary):
            def epoch_edits(self, instance, epoch, estimates):
                if targets is None:  # the old "no edits" value
                    return None
                t = np.array(targets)
                return t, np.full(t.shape, push)

        sched = build_schedule(inst, 3000, delta=0.05, lam_scale=16)
        with mock.patch.object(engine, "run_segment") as kernel, \
                pytest.raises(InvariantError, match=msg):
            run_single(inst, sched, Broken(budget=10.0), 0, backend="numpy")
        kernel.assert_not_called()


    @pytest.mark.parametrize("targets,msg", [
        ([[3, 0], [4, -1], [7, 0]], None),
        ([[3, 0], [-1, 0], [1, 1]],
         "agent 1 targets arm 0, not one of its arms"),
        ([[2, 2], [7, 0], [9, -1]], "agent 0 targets arm 2 in both slots"),
        ([[0, 1], [5, 5], [6, 6]], "agent 1 targets arm 5 in both slots"),
        ([[0, 1], [0, 0], [-1, -1]],
         "agent 1 targets arm 0, not one of its arms"),
        ([[0, -1], [4, 3], [-2, 0]],
         "agent 1 targets arm 3, not one of its arms"),
        ([[-1, -1], [-1, -1], [-2, 8]],
         "agent 2 targets arm -2, not one of its arms"),
    ], ids=["valid", "second-agent", "first-agent", "repeat-before-later",
            "foreign-before-repeat", "slot-1", "negative"])
    def test_first_failing_agent_named(self, targets, msg):
        """Several agents at once, two of them holding four of eight arms
        and one all eight: the first agent that breaks the contract is
        named, and its foreign slot before a repeated arm."""
        inst = build_instance({
            "num_arms": 8, "num_agents": 3,
            "arm_sets": [[0, 1, 2, 3], [4, 5, 6, 7], list(range(8))],
            "means": [0.5] * 8})

        class Fixed(Adversary):
            def epoch_edits(self, instance, epoch, estimates):
                return np.array(targets), np.full((3, 2), 0.5)

        if msg is None:
            edits = Fixed().begin_epoch(inst, 2, ones(inst))
            np.testing.assert_array_equal(edits[0], targets)
            return
        with pytest.raises(InvariantError) as raised:
            Fixed().begin_epoch(inst, 2, ones(inst))
        assert str(raised.value) == f"adversary edits: {msg}"


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
        with pytest.raises(ConfigError, match=re.escape(
                "unknown adversary keys: ['wrong_field']")):
            make_adversary({"kind": "gap_flip", "wrong_field": 1})
        with pytest.raises(ConfigError,
                           match="^adversary budget is required$"):
            make_adversary({"kind": "gap_flip", "magnitude": 0.5})
        with pytest.raises(ConfigError,
                           match="^adversary target_arm is required$"):
            make_adversary({"kind": "budgeted_targeted"})
        with pytest.raises(ConfigError, match="nonnegative"):
            make_adversary({"kind": "gap_flip", "magnitude": -1, "budget": 5})
