"""Shared helper: run a few rounds of an instance through both kernels."""
import dataclasses

import numpy as np
import pytest

from draa.adversary import Adversary
from draa.engine import _build_layout
from draa.kernels import BACKENDS, SegmentPlan, SegmentResult, run_segment
from draa.model import REWARD_MODELS
from draa.rng import ENV_STREAM, PULL_STREAM, stream_prefix


def run_rounds(inst, probs, adversary=None, rewards=None, rounds=1, seed=0):
    """Simulate rounds 1..``rounds`` of ``inst`` on both kernels.

    Agent ell pulls from ``probs[ell]`` over its local arms, or always
    pulls local arm ``probs[ell]`` when that is an index.  With
    ``rewards`` given, arm k always pays ``rewards[k]`` clean (a constant
    inverse-CDF row of the Beta model); otherwise the instance's own
    reward model draws them.  The adversary's current targets, budget and
    spend apply, and its spend is synced afterwards.  Asserts that both
    kernels agree and returns the traced numpy result.
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
    adv = adversary or Adversary()
    L = inst.num_agents
    no_edits = adv.targets is None
    plan = SegmentPlan(
        t_start=1, t_end=rounds,
        env_prefix=stream_prefix(seed, ENV_STREAM),
        pull_prefix=stream_prefix(seed, PULL_STREAM),
        arms=arms, n_local=n_local, cdf=cdf, means=inst.means,
        best_means=best_means, reward_model=model, beta_table=table,
        targets=np.full((L, 2), -1) if no_edits else adv.targets,
        pushes=np.zeros((L, 2)) if no_edits else adv.pushes,
        budget=adv.budget, spent=adv.spent, adv_active=adv.active,
    )
    loop, vec = (run_segment(plan, backend=b, trace=True) for b in BACKENDS)
    for field in dataclasses.fields(SegmentResult):
        a, b = getattr(loop, field.name), getattr(vec, field.name)
        if field.name in ("regret", "corruption"):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
        else:
            np.testing.assert_array_equal(a, b, err_msg=field.name)
    adv.sync_spend(vec.spent, vec.adv_active)
    return vec


@pytest.fixture
def rounds():
    return run_rounds
