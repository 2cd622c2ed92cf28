"""Shared helpers: run a plan, or a few rounds of an instance, through both
kernels; and the exact expectation of the weighted estimator, by
enumeration.  Every test gets an empty Beta table cache of its own."""
import dataclasses
import itertools

import numpy as np
import pytest

from draa.errors import ConfigError
from draa.kernels import BACKENDS, SegmentPlan, SegmentResult, run_segment
from draa.model import REWARD_MODELS, BanditInstance
from draa.rng import ENV_STREAM, PULL_STREAM, stream_prefix


@pytest.fixture(autouse=True)
def cold_beta_cache(tmp_path_factory, monkeypatch):
    """Point the Beta table cache (``$XDG_CACHE_HOME/draa``) at a fresh
    directory, so that no test reads or writes the user's cache and each
    one starts cold.  Subprocesses inherit it."""
    cache = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache


@dataclasses.dataclass
class Traced(SegmentResult):
    """A kernel's result together with the rows it traced."""

    pulls: np.ndarray = None  # (rounds, L) arm ids
    observed: np.ndarray = None  # (rounds, L) delivered pulled rewards
    clean: np.ndarray = None  # (rounds, L) clean pulled rewards


def trace_rows(plan):
    """Fresh (pulls, observed, clean) arrays for the rounds of ``plan``,
    filled with -1 and NaN so that a row the kernel skips never compares
    equal."""
    shape = (plan.t_end - plan.t_start + 1, plan.arms.shape[0])
    return (np.full(shape, -1, dtype=np.int64), np.full(shape, np.nan),
            np.full(shape, np.nan))


def traced(plan, backend):
    """``plan`` run in one call that fills fresh trace arrays."""
    rows = trace_rows(plan)
    result = run_segment(plan, backend=backend, trace=rows)
    return Traced(**vars(result), pulls=rows[0], observed=rows[1],
                  clean=rows[2])


def chained(plan, backend):
    """``plan`` run as one call per segment, each cut once, with the
    spend and the gate carried from call to call, reward sums and pull
    counts added in segment order, the per-segment rows stacked and each
    call tracing into its slice of one shared set of arrays."""
    spent, active = plan.spent, plan.adv_active
    rows = trace_rows(plan)
    parts = []
    t_start = plan.t_start
    for cut in plan.cuts.tolist():
        span = slice(t_start - plan.t_start, cut - plan.t_start + 1)
        part = run_segment(dataclasses.replace(
            plan, t_start=t_start, cuts=np.array([cut]), spent=spent,
            adv_active=active), backend=backend,
            trace=tuple(a[span] for a in rows))
        spent, active = part.spent, part.adv_active
        parts.append(part)
        t_start = cut + 1
    reward_sums = np.zeros_like(parts[0].reward_sums)
    pull_counts = np.zeros_like(parts[0].pull_counts)
    for part in parts:
        reward_sums += part.reward_sums
        pull_counts += part.pull_counts
    return Traced(
        reward_sums=reward_sums, pull_counts=pull_counts,
        regret=np.concatenate([part.regret for part in parts]),
        corruption=np.concatenate([part.corruption for part in parts]),
        spent=spent, adv_active=active, pulls=rows[0], observed=rows[1],
        clean=rows[2])


def assert_identical(a, b):
    """Every ``Traced`` field equal bit for bit, dtypes included."""
    for field in dataclasses.fields(Traced):
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
    loop, vec = (traced(plan, b) for b in BACKENDS)
    for backend, result in zip(BACKENDS, (loop, vec)):
        assert_identical(result, chained(plan, backend))
    for field in dataclasses.fields(Traced):
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
    adversary's ``begin_epoch`` returned; left out, no arm is targeted.
    ``budget``, ``spent`` and ``active`` are the budget gate's state at
    round 1, and the result's ``spent`` and ``adv_active`` hold it after
    the last round.  Returns the traced numpy result of :func:`run_plan`, with the
    one segment's regret and corruption rows as (L,) vectors.
    """
    arms = inst.local_arms
    cdf = np.ones(arms.shape)
    for ell, p in enumerate(probs):
        n = len(inst.arm_sets[ell])
        cdf[ell, :n] = np.cumsum(np.eye(n)[p] if np.isscalar(p) else p)
        # closed as the engine closes it: at least 1.0 from the last arm on
        cdf[ell, n - 1] = max(cdf[ell, n - 1], 1.0)
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
        t_start=1, cuts=np.array([rounds]),
        env_prefix=stream_prefix(seed, ENV_STREAM),
        pull_prefix=stream_prefix(seed, PULL_STREAM),
        arms=arms, cdf=cdf, means=inst.means,
        best_means=inst.means[list(inst.best_arms)], reward_model=model,
        beta_table=table,
        targets=targets, pushes=pushes, budget=budget, spent=spent,
        adv_active=active,
    )
    vec = run_plan(plan)
    return dataclasses.replace(vec, regret=vec.regret[0],
                               corruption=vec.corruption[0])


@pytest.fixture
def rounds():
    return run_rounds


#: refuse enumerations beyond this many (pulls x rewards) atoms
_MAX_ATOMS = 2_000_000


def exhaustive_estimator_mean(instance: BanditInstance, probabilities,
                              epoch_len: int, arm: int) -> float:
    """Exact E[weighted estimate of one arm] by brute-force enumeration.

    ``probabilities`` is one vector per agent over that agent's local
    arms.  Every joint pull assignment over (agents x rounds) slots and
    every Bernoulli outcome of the pulled entries is enumerated and
    weighted by its probability.  Bernoulli rewards only.
    """
    if instance.reward_model != "bernoulli":
        raise ConfigError("exhaustive oracle supports Bernoulli rewards only")
    L = instance.num_agents
    probs = [np.asarray(p, dtype=np.float64) for p in probabilities]
    holders = [ell for ell in range(L) if arm in instance.arm_sets[ell]]
    if not holders:
        raise ConfigError(f"arm {arm} is not held by any agent")
    n_slots = L * epoch_len
    n_pull_atoms = 1
    for ell in range(L):
        n_pull_atoms *= len(instance.arm_sets[ell]) ** epoch_len
    if n_pull_atoms * (2 ** n_slots) > _MAX_ATOMS:
        raise ConfigError("enumeration state space too large")

    slot_agents = [ell for ell in range(L) for _ in range(epoch_len)]
    choice_lists = [list(range(len(instance.arm_sets[ell])))
                    for ell in slot_agents]

    total = 0.0
    for assignment in itertools.product(*choice_lists):
        p_pulls = 1.0
        pulled_arms = []
        for slot, local_idx in enumerate(assignment):
            ell = slot_agents[slot]
            p_pulls *= probs[ell][local_idx]
            pulled_arms.append(instance.arm_sets[ell][local_idx])
        for outcome in itertools.product((0.0, 1.0), repeat=n_slots):
            p_rewards = 1.0
            sums = {ell: 0.0 for ell in holders}
            for slot, r in enumerate(outcome):
                mu = instance.means[pulled_arms[slot]]
                p_rewards *= mu if r == 1.0 else (1.0 - mu)
                if p_rewards == 0.0:
                    break
                ell = slot_agents[slot]
                if ell in sums and pulled_arms[slot] == arm:
                    sums[ell] += r
            if p_rewards == 0.0:
                continue
            est = sum(
                sums[ell] / probs[ell][instance.arm_sets[ell].index(arm)]
                for ell in holders
            ) / (len(holders) * epoch_len)
            total += p_pulls * p_rewards * est
    return total
