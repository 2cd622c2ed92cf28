"""Epoch simulation kernels: a scalar loop and a vectorized numpy pass.

Within an epoch every agent's pull distribution is frozen, so the engine
simulates a whole epoch in one call.  The call's ``cuts`` split it into
segments that end at the checkpoints inside the epoch and at its end;
each segment's regret and corruption come back as one row, and its
reward sums are added into the epoch's totals in segment order.  (Those
per-segment partial sums keep the results bit-identical to one call per
segment.)  Rewards are materialized lazily: since each reward is a pure
function of (seed, t, agent, arm), the kernels only draw the entries
they touch (the pulled arm plus any adversary-targeted arms), which is
exactly equivalent to drawing the full matrix and discarding the rest.

Two backends implement the same contract:

* ``numba``: the per-round loop ``_segment_nb``, compiled by numba
  (default).  It is also the reference implementation: with its own hash,
  reward map, linear CDF scan and running-sum budget gate it shares no
  code with the numpy kernel.  When numba is not importable a library
  call that asks for this backend runs the same loop as plain Python,
  about 100x slower; a user who asks for it through ``DRAA_BACKEND`` or
  ``--backend`` gets a ``ConfigError`` instead (:func:`default_backend`).
* ``numpy``: pure vectorized numpy (fallback; always available).

The numpy kernel walks the epoch in groups of whole consecutive segments
of at most ``_BLOCK_CELLS`` (round, agent) cells; a longer segment is a
group of its own.  It works on a group's (rounds x agents) grid at once
and drops it before drawing the next.  Each stream's ``(t)`` hash prefix
is mixed once per group and the ``(t, ell)`` prefix once per cell; the
pull draw (arm field 0), the pulled arm's reward draw and the
adversary-target draws all continue from those prefixes.  The
elementwise work runs in blocks of ``_BLOCK_CELLS`` cells, so its
scratch memory is bounded; only the search in each agent's CDF and each
agent's regret sums run per agent.  A segment's reward sums come from
one ``bincount`` over the slots ``ell * kmax + i``, which adds each
slot's rewards in round order.

Backend selection: the ``DRAA_BACKEND`` environment variable (``numba``
or ``numpy``), overridable per call.  For the same plan, pulls, clean
and delivered rewards, reward sums, pull counts and the budget state are
bit-identical across backends.  Regret and the per-agent corruption sums
may differ in the last ulps because their accumulation order differs,
and are compared at 1e-9 in tests.

Budget rule shared by both backends: (round, agent) cells are processed
round-major, agent-minor; a cell is delivered only if the running spend
stays within budget, and the first overrun disables corruption for the
rest of the run.  The loop kernel keeps the running spend as
``spent += c``; the numpy kernel folds each group's starting spend into
its first cell before its ``cumsum``, which performs the same additions
in the same order, so both gates close at the same cell.  When both of
an agent's adversary slots target the arm it pulls, slot 0's edit is
delivered.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import reward_array
from .rng import _INV_2_53, _U64_GAMMA, _U64_MUL1, _U64_MUL2, _mix64_np

BACKENDS = ("numba", "numpy")

#: (round, agent) cells per block of the numpy kernel's elementwise work;
#: a block holds _BLOCK_CELLS // L rounds, which bounds its scratch memory
_BLOCK_CELLS = 4096

_U64_11 = np.uint64(11)

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def default_backend(requested: str | None = None) -> str:
    """Resolve a user's backend choice: ``requested``, else DRAA_BACKEND,
    else numba if present.

    Naming numba without numba installed is a ``ConfigError``: nobody
    should get the uncompiled loop without asking for it in code.
    """
    choice = (requested or os.environ.get("DRAA_BACKEND", "")).strip().lower()
    if choice:
        if choice not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {BACKENDS}, got {choice!r}")
        if choice == "numba" and not _HAVE_NUMBA:
            raise ConfigError("the numba backend was requested but numba is "
                              "not importable")
        return choice
    return "numba" if _HAVE_NUMBA else "numpy"


@dataclass
class SegmentPlan:
    """Immutable inputs describing one contiguous block of rounds.

    Arrays are padded to the widest local arm count; ``n_local`` gives
    each agent's true arm count.  ``targets``/``pushes`` are (L, 2)
    adversary edits with -1 padding for unused slots.  ``cuts`` splits
    the block into segments: segment s ends at round ``cuts[s]`` and the
    next one starts after it.
    """

    t_start: int  # first round, 1-based, inclusive
    t_end: int  # last round, inclusive
    cuts: np.ndarray  # (S,) int64 ascending segment ends, cuts[-1] == t_end
    env_prefix: int
    pull_prefix: int
    arms: np.ndarray  # (L, Kmax) int64, -1 padded
    n_local: np.ndarray  # (L,) int64
    cdf: np.ndarray  # (L, Kmax) float64, padded with 1.0
    means: np.ndarray  # (K,)
    best_means: np.ndarray  # (L,)
    reward_model: int  # index into model.REWARD_MODELS
    beta_table: np.ndarray  # (K, N) or (0, 0)
    targets: np.ndarray  # (L, 2) int64
    pushes: np.ndarray  # (L, 2) float64
    budget: float
    spent: float
    adv_active: bool


@dataclass
class SegmentResult:
    """Aggregates produced by a kernel for one plan, row s of the (S, L)
    arrays covering segment s.

    ``reward_sums`` adds each segment's sums, themselves added in round
    order from zero, into the total in segment order.
    """

    reward_sums: np.ndarray  # (L, Kmax) delivered-reward sums per local slot
    pull_counts: np.ndarray  # (L, Kmax) int64
    regret: np.ndarray  # (S, L) pseudo-regret accumulated per segment
    corruption: np.ndarray  # (S, L) accepted ledger contributions
    spent: float  # budget spend after the last segment
    adv_active: bool
    pulls: np.ndarray | None = None  # (T, L) arm ids when traced
    observed: np.ndarray | None = None  # (T, L) delivered pulled rewards
    clean: np.ndarray | None = None  # (T, L) clean pulled rewards


@njit(cache=True)
def _mix64_nb(x: np.uint64) -> np.uint64:
    x = x + _U64_GAMMA
    x = (x ^ (x >> np.uint64(30))) * _U64_MUL1
    x = (x ^ (x >> np.uint64(27))) * _U64_MUL2
    return x ^ (x >> np.uint64(31))


@njit(cache=True)
def _uniform_nb(prefix, t, agent, arm):
    h = _mix64_nb(np.uint64(prefix) ^ np.uint64(t))
    h = _mix64_nb(h ^ np.uint64(agent))
    h = _mix64_nb(h ^ np.uint64(arm))
    return (h >> np.uint64(11)) * _INV_2_53


@njit(cache=True)
def _reward_nb(model, mu, u, table, arm):
    if model == 0:
        return 1.0 if u < mu else 0.0
    n = table.shape[1]
    pos = u * (n - 1)
    idx = int(pos)
    if idx > n - 2:
        idx = n - 2
    frac = pos - idx
    lo = table[arm, idx]
    hi = table[arm, idx + 1]
    return lo + (hi - lo) * frac


@njit(cache=True)
def _segment_nb(t_start, cuts, env_prefix, pull_prefix, arms, n_local, cdf,
                means, best_means, reward_model, beta_table, targets, pushes,
                budget, spent, adv_active, reward_sums, pull_counts, regret,
                corruption, pulls, observed, clean_out, trace):
    L = arms.shape[0]
    seg_sums = np.zeros_like(reward_sums)
    s = 0
    for t in range(t_start, cuts[-1] + 1):
        row = t - t_start
        for ell in range(L):
            u_pull = _uniform_nb(pull_prefix, t, ell, 0)
            n = n_local[ell]
            idx = 0
            while idx < n - 1 and u_pull >= cdf[ell, idx]:
                idx += 1
            arm = arms[ell, idx]
            u_env = _uniform_nb(env_prefix, t, ell, arm)
            clean = _reward_nb(reward_model, means[arm], u_env, beta_table, arm)
            delivered = clean

            if adv_active and (targets[ell, 0] >= 0 or targets[ell, 1] >= 0):
                contribution = 0.0
                d0 = 0.0
                d1 = 0.0
                c0 = 0.0
                c1 = 0.0
                for j in range(2):
                    k = targets[ell, j]
                    if k < 0:
                        continue
                    local = False
                    for i in range(n):
                        if arms[ell, i] == k:
                            local = True
                            break
                    if not local:
                        continue
                    uj = _uniform_nb(env_prefix, t, ell, k)
                    cj = _reward_nb(reward_model, means[k], uj, beta_table, k)
                    dj = cj + pushes[ell, j]
                    if dj < 0.0:
                        dj = 0.0
                    elif dj > 1.0:
                        dj = 1.0
                    diff = dj - cj
                    if diff < 0.0:
                        diff = -diff
                    if diff > contribution:
                        contribution = diff
                    if j == 0:
                        d0 = dj
                        c0 = 1.0
                    else:
                        d1 = dj
                        c1 = 1.0
                if c0 > 0.0 or c1 > 0.0:
                    if spent + contribution > budget:
                        adv_active = False
                    else:
                        spent += contribution
                        corruption[s, ell] += contribution
                        if c0 > 0.0 and arm == targets[ell, 0]:
                            delivered = d0
                        elif c1 > 0.0 and arm == targets[ell, 1]:
                            delivered = d1

            seg_sums[ell, idx] += delivered
            pull_counts[ell, idx] += 1
            regret[s, ell] += best_means[ell] - means[arm]
            if trace:
                pulls[row, ell] = arm
                observed[row, ell] = delivered
                clean_out[row, ell] = clean
        if t == cuts[s]:
            reward_sums += seg_sums
            seg_sums[:] = 0.0
            s += 1
    return spent, adv_active


def run_segment_numba(plan: SegmentPlan, trace: bool = False) -> SegmentResult:
    """Execute a plan with the per-round loop (uncompiled without numba)."""
    L, kmax = plan.arms.shape
    t_len = plan.t_end - plan.t_start + 1
    reward_sums = np.zeros((L, kmax))
    pull_counts = np.zeros((L, kmax), dtype=np.int64)
    regret = np.zeros((plan.cuts.size, L))
    corruption = np.zeros((plan.cuts.size, L))
    shape = (t_len, L) if trace else (0, L)
    pulls = np.zeros(shape, dtype=np.int64)
    observed = np.zeros(shape)
    clean = np.zeros(shape)
    beta_table = plan.beta_table if plan.beta_table.size else np.zeros((1, 2))
    # as plain Python the loop's uint64 scalar arithmetic warns on the
    # intended wraparound; compiled, it wraps silently
    with np.errstate(over="ignore"):
        spent, active = _segment_nb(
            plan.t_start, plan.cuts, np.uint64(plan.env_prefix),
            np.uint64(plan.pull_prefix), plan.arms, plan.n_local, plan.cdf,
            plan.means, plan.best_means, plan.reward_model, beta_table,
            plan.targets, plan.pushes, plan.budget, plan.spent,
            plan.adv_active, reward_sums, pull_counts, regret, corruption,
            pulls, observed, clean, trace,
        )
    return SegmentResult(
        reward_sums=reward_sums, pull_counts=pull_counts, regret=regret,
        corruption=corruption, spent=float(spent), adv_active=bool(active),
        pulls=pulls if trace else None,
        observed=observed if trace else None,
        clean=clean if trace else None,
    )


def _unit(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Top 53 bits of the hashes ``h`` (clobbered) as uniforms in ``out``."""
    h >>= _U64_11
    return np.multiply(h, _INV_2_53, out=out)


def _pull_slots(plan: SegmentPlan, t: np.ndarray, rows: int,
                scratch: np.ndarray) -> np.ndarray:
    """``ell * kmax +`` the local index of the arm each agent pulls in each
    round of ``t``, as a (len(t), L) array; ``scratch`` holds the draws."""
    L, kmax = plan.arms.shape
    agents = np.arange(L, dtype=np.uint64)
    prefix_t = _mix64_np(t ^ np.uint64(plan.pull_prefix))
    for r0 in range(0, t.size, rows):
        h = _mix64_np(prefix_t[r0:r0 + rows, None] ^ agents)
        # the arm field of a pull draw is 0, and h ^ 0 == h
        _unit(_mix64_np(h), scratch[r0:r0 + rows])
    slot = np.empty((t.size, L), dtype=np.int64)
    for ell in range(L):
        n = plan.n_local[ell]
        slot[:, ell] = np.searchsorted(plan.cdf[ell, :n], scratch[:, ell],
                                       side="right")
    np.minimum(slot, plan.n_local - 1, out=slot)
    slot += np.arange(0, L * kmax, kmax)
    return slot


def _live_targets(plan: SegmentPlan):
    """Which adversary slots can act, and the local slot of each target arm.

    Target j of agent ell is live when it is one of the agent's first
    ``n_local`` arms.  Both are ``None`` when no target is live.
    """
    L, kmax = plan.arms.shape
    if (plan.targets < 0).all():
        return None, None
    local = plan.arms[:, None, :] == plan.targets[:, :, None]
    local &= (np.arange(kmax) < plan.n_local[:, None])[:, None, :]
    live = local.any(axis=2)
    if not live.any():
        return None, None
    target_slot = np.arange(L)[:, None] * kmax + local.argmax(axis=2)
    return live, target_slot


def _target_draws(plan: SegmentPlan, g: np.ndarray, live: np.ndarray,
                  target_slot: np.ndarray, slot: np.ndarray,
                  contrib: np.ndarray) -> list:
    """Corrupted rewards of the live targets over one block of rounds.

    ``g`` holds the block's (t, ell) env prefixes and ``slot`` its pulled
    slots.  Returns one (pulled-the-target mask, corrupted values) pair per
    slot j with a live target, in slot order, and raises ``contrib`` in
    place to each cell's largest |corrupted - clean| over its live targets.
    """
    delivered = []
    for j in range(2):
        if not live[:, j].any():
            continue
        arm = np.where(live[:, j], plan.targets[:, j], 0)
        u = _unit(_mix64_np(g ^ arm.astype(np.uint64)), np.empty(g.shape))
        clean = reward_array(plan.reward_model, plan.means, arm, u,
                             plan.beta_table)
        corrupted = np.clip(clean + plan.pushes[:, j], 0.0, 1.0)
        np.maximum(contrib, np.abs(corrupted - clean), out=contrib,
                   where=live[:, j])
        delivered.append((live[:, j] & (slot == target_slot[:, j]), corrupted))
    return delivered


def _draw_group(plan: SegmentPlan, t0: int, t1: int, rows: int, live,
                target_slot):
    """Pulled slots and rewards of rounds ``t0..t1``, drawn in blocks of
    ``rows`` rounds.

    Returns (slot, clean, observed, contrib) as (rounds, L) arrays.  With
    ``live`` None no target is drawn: ``observed`` is ``clean`` itself and
    ``contrib`` is None.  Otherwise ``contrib`` holds each cell's charge
    before the budget gate.
    """
    L = plan.arms.shape[0]
    t_len = t1 - t0 + 1
    arms_flat = plan.arms.reshape(-1)
    t = np.arange(t0, t1 + 1, dtype=np.uint64)
    clean = np.empty((t_len, L))
    slot = _pull_slots(plan, t, rows, scratch=clean)
    attack = live is not None
    observed = np.empty((t_len, L)) if attack else clean
    contrib = np.zeros((t_len, L)) if attack else None

    t ^= np.uint64(plan.env_prefix)
    env_t = _mix64_np(t)
    agents = np.arange(L, dtype=np.uint64)
    for r0 in range(0, t_len, rows):
        r1 = min(r0 + rows, t_len)
        # the (t, ell) env prefix, shared by the pulled arm and the targets
        g = _mix64_np(env_t[r0:r1, None] ^ agents)
        if attack:
            delivered = _target_draws(plan, g, live, target_slot,
                                      slot[r0:r1], contrib[r0:r1])
        arm = arms_flat[slot[r0:r1]]
        g ^= arm.view(np.uint64)
        block = _unit(_mix64_np(g), clean[r0:r1])
        del g  # keep the block's scratch small while the rewards are mapped
        reward_array(plan.reward_model, plan.means, arm, block,
                     plan.beta_table, out=block)
        if attack:
            observed[r0:r1] = block
            # slot 0 wins when both slots target the pulled arm
            for hit, corrupted in reversed(delivered):
                np.copyto(observed[r0:r1], corrupted, where=hit)
    return slot, clean, observed, contrib


def _gate(contrib: np.ndarray, observed: np.ndarray, clean: np.ndarray,
          spent: float, budget: float):
    """Apply the budget rule to a group's cells, round-major and
    agent-minor, in place: from the first cell whose charge would overrun
    the budget on, charges are zeroed and clean rewards delivered.

    Returns the spend after the group and whether the gate is still open.
    Starting the cumsum at spent + c[0] makes cum[i] the loop kernel's
    ``spent += c`` chain, carried from group to group.
    """
    flat = contrib.reshape(-1)
    first = flat[0]
    flat[0] += spent
    cum = np.cumsum(flat)
    flat[0] = first
    accepted = cum <= budget
    first_reject = flat.size if accepted.all() else int(np.argmin(accepted))
    if first_reject > 0:
        spent = float(cum[first_reject - 1])
    flat[first_reject:] = 0.0
    observed.reshape(-1)[first_reject:] = clean.reshape(-1)[first_reject:]
    return spent, first_reject == flat.size


def run_segment_numpy(plan: SegmentPlan, trace: bool = False) -> SegmentResult:
    """Execute a plan with vectorized numpy (fallback backend).

    The rounds are drawn in groups of whole consecutive segments holding
    at most ``_BLOCK_CELLS`` cells; a longer segment is a group of its
    own.  Each group's arrays are dropped before the next one is drawn.
    The budget spend carries from group to group, and every sum is
    reduced per segment, so the grouping changes no result bit.
    """
    L, kmax = plan.arms.shape
    rows = max(1, _BLOCK_CELLS // L)
    arms_flat = plan.arms.reshape(-1)
    slot_means = plan.means[arms_flat]  # -1 pads read means[-1], never pulled
    cuts = plan.cuts
    reward_sums = np.zeros(L * kmax)
    pull_counts = np.zeros(L * kmax, dtype=np.int64)
    regret = np.empty((cuts.size, L))
    corruption = np.zeros((cuts.size, L))
    live, target_slot = _live_targets(plan)
    spent, adv_active = plan.spent, plan.adv_active
    if trace:
        t_len = plan.t_end - plan.t_start + 1
        pulls = np.empty((t_len, L), dtype=np.int64)
        observed_all, clean_all = np.empty((t_len, L)), np.empty((t_len, L))

    s0, t0 = 0, plan.t_start
    while s0 < cuts.size:
        s1 = max(s0 + 1, int(np.searchsorted(cuts, t0 + rows - 1, "right")))
        t1 = int(cuts[s1 - 1])
        attack = adv_active and live is not None
        slot, clean, observed, contrib = _draw_group(
            plan, t0, t1, rows, live if attack else None, target_slot)
        if attack:
            spent, adv_active = _gate(contrib, observed, clean, spent,
                                      plan.budget)

        ends = (cuts[s0:s1] - (t0 - 1)).tolist()
        bounds = list(zip([0] + ends[:-1], ends))  # segments' group rows
        bins = slot.reshape(-1)
        pull_counts += np.bincount(bins, minlength=L * kmax)
        for s, (a, b) in enumerate(bounds, start=s0):
            reward_sums += np.bincount(bins[a * L:b * L],
                                       weights=observed[a:b].reshape(-1),
                                       minlength=L * kmax)
            if attack:
                corruption[s] = contrib[a:b].sum(axis=0)
        # one 1-D sum per agent and segment: summing the grid along an
        # axis rounds differently
        pulled = np.empty((s1 - s0, L))
        for ell in range(L):
            means = slot_means[slot[:, ell]]
            pulled[:, ell] = [means[a:b].sum() for a, b in bounds]
        lengths = np.array([b - a for a, b in bounds])[:, None]
        regret[s0:s1] = plan.best_means * lengths - pulled

        if trace:
            r0, r1 = t0 - plan.t_start, t1 - plan.t_start + 1
            pulls[r0:r1] = arms_flat[slot]
            observed_all[r0:r1] = observed
            clean_all[r0:r1] = clean
        del slot, clean, observed, contrib, bins, means
        s0, t0 = s1, t1 + 1

    return SegmentResult(
        reward_sums=reward_sums.reshape(L, kmax),
        pull_counts=pull_counts.reshape(L, kmax),
        regret=regret, corruption=corruption, spent=float(spent),
        adv_active=bool(adv_active),
        pulls=pulls if trace else None,
        observed=observed_all if trace else None,
        clean=clean_all if trace else None,
    )


def run_segment(plan: SegmentPlan, backend: str | None = None,
                trace: bool = False) -> SegmentResult:
    """Dispatch a segment to the requested (or default) backend."""
    backend = backend or default_backend()
    if backend == "numba":
        return run_segment_numba(plan, trace)
    if backend == "numpy":
        return run_segment_numpy(plan, trace)
    raise ConfigError(f"unknown backend {backend!r}")
