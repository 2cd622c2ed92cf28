"""Shared helpers: run a plan, or a few rounds of an instance, through both
kernels."""
import dataclasses

import numpy as np
import pytest

from draa.engine import _build_layout
from draa.kernels import BACKENDS, SegmentPlan, SegmentResult, run_segment
from draa.model import REWARD_MODELS
from draa.rng import ENV_STREAM, PULL_STREAM, stream_prefix


def chained(plan, backend):
    """``plan`` run as one call per segment, each cut once, with the
    spend and the gate carried from call to call, reward sums and pull
    counts added in segment order and the per-segment rows stacked."""
    spent, active = plan.spent, plan.adv_active
    parts = []
    t_start = plan.t_start
    for cut in plan.cuts.tolist():
        part = run_segment(dataclasses.replace(
            plan, t_start=t_start, t_end=cut, cuts=np.array([cut]),
            spent=spent, adv_active=active), backend=backend, trace=True)
        spent, active = part.spent, part.adv_active
        parts.append(part)
        t_start = cut + 1
    reward_sums = np.zeros_like(parts[0].reward_sums)
    pull_counts = np.zeros_like(parts[0].pull_counts)
    for part in parts:
        reward_sums += part.reward_sums
        pull_counts += part.pull_counts

    def stack(name):
        return np.concatenate([getattr(part, name) for part in parts])

    return SegmentResult(
        reward_sums=reward_sums, pull_counts=pull_counts,
        regret=stack("regret"), corruption=stack("corruption"),
        spent=spent, adv_active=active, pulls=stack("pulls"),
        observed=stack("observed"), clean=stack("clean"))


def assert_identical(a, b):
    """Every ``SegmentResult`` field equal bit for bit, dtypes included."""
    for field in dataclasses.fields(SegmentResult):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert np.array_equal(x, y), field.name
        assert np.asarray(x).dtype == np.asarray(y).dtype, field.name


def run_plan(plan):
    """Run ``plan`` traced on both kernels and return the numpy result.

    Each kernel's one call must equal its chain of one-cut calls
    (:func:`chained`) bit for bit.  The kernels must agree with each
    other exactly, except regret and corruption, whose accumulation order
    differs between them (compared at 1e-9).
    """
    loop, vec = (run_segment(plan, backend=b, trace=True) for b in BACKENDS)
    for backend, result in zip(BACKENDS, (loop, vec)):
        assert_identical(result, chained(plan, backend))
    for field in dataclasses.fields(SegmentResult):
        a, b = getattr(loop, field.name), getattr(vec, field.name)
        if field.name in ("regret", "corruption"):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
        else:
            np.testing.assert_array_equal(a, b, err_msg=field.name)
    return vec


def run_rounds(inst, probs, edits=None, budget=0.0, spent=0.0, active=True,
               rewards=None, rounds=1, seed=0):
    """Simulate rounds 1..``rounds`` of ``inst`` on both kernels.

    Agent ell pulls from ``probs[ell]`` over its local arms, or always
    pulls local arm ``probs[ell]`` when that is an index.  With
    ``rewards`` given, arm k always pays ``rewards[k]`` clean (a constant
    inverse-CDF row of the Beta model); otherwise the instance's own
    reward model draws them.  ``edits`` is the (targets, pushes) pair an
    adversary's ``begin_epoch`` returned (None for none); ``budget``,
    ``spent`` and ``active`` are the budget gate's state at round 1, and
    the result's ``spent`` and ``adv_active`` hold it after the last
    round.  Returns the traced numpy result of :func:`run_plan`, with the
    one segment's regret and corruption rows as (L,) vectors.
    """
    arms, n_local, best_means = _build_layout(inst)
    cdf = np.ones(arms.shape)
    for ell, p in enumerate(probs):
        n = n_local[ell]
        cdf[ell, :n] = np.cumsum(np.eye(n)[p] if np.isscalar(p) else p)
    if rewards is None:
        model = REWARD_MODELS.index(inst.reward_model)
        table = (inst.beta_table() if inst.reward_model == "beta"
                 else np.zeros((0, 0)))
    else:
        model = REWARD_MODELS.index("beta")
        table = np.repeat(np.asarray(rewards, dtype=float)[:, None], 3, axis=1)
    L = inst.num_agents
    targets, pushes = edits or (np.full((L, 2), -1), np.zeros((L, 2)))
    plan = SegmentPlan(
        t_start=1, t_end=rounds, cuts=np.array([rounds]),
        env_prefix=stream_prefix(seed, ENV_STREAM),
        pull_prefix=stream_prefix(seed, PULL_STREAM),
        arms=arms, n_local=n_local, cdf=cdf, means=inst.means,
        best_means=best_means, reward_model=model, beta_table=table,
        targets=targets, pushes=pushes, budget=budget, spent=spent,
        adv_active=active,
    )
    vec = run_plan(plan)
    return dataclasses.replace(vec, regret=vec.regret[0],
                               corruption=vec.corruption[0])


@pytest.fixture
def rounds():
    return run_rounds
