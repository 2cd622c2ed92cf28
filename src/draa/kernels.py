"""Epoch simulation kernels: a scalar loop and a vectorized numpy pass.

Within an epoch every agent's pull distribution is frozen, so the engine
simulates a whole epoch in one call.  The call's ``cuts`` split it into
segments that end at the checkpoints inside the epoch and at its end;
each segment's regret and corruption come back as one row, and its
reward sums are added into the epoch's totals in segment order.  (Those
per-segment partial sums keep the results bit-identical to one call per
segment.)  A traced call writes each round's pulled arm, delivered
reward and clean reward into caller-owned (rounds, L) arrays, typically
row slices of the run's own; an untraced call writes nothing.

Rewards are materialized lazily: since each reward is a pure function
of (seed, t, agent, arm), the kernels only draw the entries they touch
(the pulled arm plus any adversary-targeted arms), which is exactly
equivalent to drawing the full matrix and discarding the rest.

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
group of its own.  A group's cells live in agent-major (L, rounds)
arrays, so per-agent broadcasts and CDF searches run along contiguous
rows; only its charges stay round-major, the budget gate's order.  The
``(t)`` hash prefixes are mixed once per group and the ``(t, ell)`` ones
once per cell.  The pull draws are made in the array that later holds the
clean rewards; the reward draws run in blocks of ``_BLOCK_CELLS`` cells,
each one (planes, L, rows) array of arms (the pulled arm, then one plane
per target column) drawn in one hash, uniform and reward pass.  One
``bincount`` per group, over a bin per segment and slot, adds each
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
in the same order, so both gates close at the same cell.  The kernels
rely on the edit contract that :meth:`draa.adversary.Adversary.begin_epoch`
checks once per epoch: an agent's targets are its own arms and differ,
so a cell is charged the largest edit over its named targets and its
pulled arm matches at most one of them.  Both search an agent's whole
padded CDF row, which is at least 1.0 from its last arm on, so no pull
draw passes that arm.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import reward_array
from .rng import _INV_2_53, _U64_GAMMA, _U64_MUL1, _U64_MUL2, _mix64_np, _unit

BACKENDS = ("numba", "numpy")

#: (round, agent) cells per block of the numpy kernel's reward draws: each
#: plane of a block holds _BLOCK_CELLS // L rounds, bounding its scratch
_BLOCK_CELLS = 4096

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def njit(**_):
        return lambda fn: fn


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

    Arrays are padded to the widest local arm count; row ell of ``cdf``
    is agent ell's pull CDF, at least 1.0 (which no draw reaches) from
    its last arm on.  ``targets``/``pushes`` are (L, 2) adversary edits:
    each of agent ell's two targets is -1 (unused) or one of its arms,
    and the two differ (the adversary's edit contract, which the kernels
    do not check).  ``cuts`` splits the block into segments: segment s
    ends at round ``cuts[s]`` and the next one starts after it, so the
    last cut ends the block.
    """

    t_start: int  # first round, 1-based, inclusive
    cuts: np.ndarray  # (S,) int64 ascending segment ends
    env_prefix: int
    pull_prefix: int
    arms: np.ndarray  # (L, Kmax) int64, -1 padded
    cdf: np.ndarray  # (L, Kmax) float64, >= 1.0 from the last arm on
    means: np.ndarray  # (K,)
    best_means: np.ndarray  # (L,)
    reward_model: int  # index into model.REWARD_MODELS
    beta_table: np.ndarray  # (K, N) or (0, 0)
    targets: np.ndarray  # (L, 2) int64
    pushes: np.ndarray  # (L, 2) float64
    budget: float
    spent: float
    adv_active: bool

    @property
    def t_end(self) -> int:
        """Last round, inclusive: the last cut."""
        return int(self.cuts[-1])


@dataclass
class SegmentResult:
    """Aggregates produced by a kernel for one plan, row s of the (S, L)
    arrays covering segment s.

    ``reward_sums`` adds each segment's sums, themselves added in round
    order from zero, into the total in segment order.  The traced rows
    are not part of it: they go to the arrays the caller passed.
    """

    reward_sums: np.ndarray  # (L, Kmax) delivered-reward sums per local slot
    pull_counts: np.ndarray  # (L, Kmax) int64
    regret: np.ndarray  # (S, L) pseudo-regret accumulated per segment
    corruption: np.ndarray  # (S, L) accepted ledger contributions
    spent: float  # budget spend after the last segment
    adv_active: bool


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
def _segment_nb(t_start, cuts, env_prefix, pull_prefix, arms, cdf, means,
                best_means, reward_model, beta_table, targets, pushes,
                budget, spent, adv_active, reward_sums, pull_counts, regret,
                corruption, pulls, observed, clean_out, trace):
    L = arms.shape[0]
    seg_sums = np.zeros_like(reward_sums)
    s = 0
    for t in range(t_start, cuts[-1] + 1):
        row = t - t_start
        for ell in range(L):
            u_pull = _uniform_nb(pull_prefix, t, ell, 0)
            idx = 0
            while u_pull >= cdf[ell, idx]:
                idx += 1
            arm = arms[ell, idx]
            u_env = _uniform_nb(env_prefix, t, ell, arm)
            clean = _reward_nb(reward_model, means[arm], u_env, beta_table, arm)
            delivered = clean

            if adv_active and (targets[ell, 0] >= 0 or targets[ell, 1] >= 0):
                contribution = 0.0
                edited = clean
                for j in range(2):
                    k = targets[ell, j]
                    if k < 0:
                        continue
                    uj = _uniform_nb(env_prefix, t, ell, k)
                    cj = _reward_nb(reward_model, means[k], uj, beta_table, k)
                    dj = cj + pushes[ell, j]
                    if dj < 0.0:
                        dj = 0.0
                    elif dj > 1.0:
                        dj = 1.0
                    contribution = max(contribution, abs(dj - cj))
                    if k == arm:
                        edited = dj
                if spent + contribution > budget:
                    adv_active = False
                else:
                    spent += contribution
                    corruption[s, ell] += contribution
                    delivered = edited

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


def run_segment_numba(plan: SegmentPlan,
                      trace: tuple | None = None) -> SegmentResult:
    """Execute a plan with the per-round loop (uncompiled without numba)."""
    L, kmax = plan.arms.shape
    reward_sums = np.zeros((L, kmax))
    pull_counts = np.zeros((L, kmax), dtype=np.int64)
    regret = np.zeros((plan.cuts.size, L))
    corruption = np.zeros((plan.cuts.size, L))
    # untraced, the loop gets empty rows it never writes
    pulls, observed, clean = trace or (np.empty((0, L), dtype=np.int64),
                                       np.empty((0, L)), np.empty((0, L)))
    beta_table = plan.beta_table if plan.beta_table.size else np.zeros((1, 2))
    # as plain Python the loop's uint64 scalar arithmetic warns on the
    # intended wraparound; compiled, it wraps silently
    with np.errstate(over="ignore"):
        spent, active = _segment_nb(
            plan.t_start, plan.cuts, np.uint64(plan.env_prefix),
            np.uint64(plan.pull_prefix), plan.arms, plan.cdf,
            plan.means, plan.best_means, plan.reward_model, beta_table,
            plan.targets, plan.pushes, plan.budget, plan.spent,
            plan.adv_active, reward_sums, pull_counts, regret, corruption,
            pulls, observed, clean, trace is not None,
        )
    return SegmentResult(
        reward_sums=reward_sums, pull_counts=pull_counts, regret=regret,
        corruption=corruption, spent=float(spent), adv_active=bool(active),
    )


def _pull_slots(plan: SegmentPlan, t: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """``ell * kmax +`` the local index of the arm each agent pulls in each
    round of ``t`` as (L, len(t)); ``scratch`` (same shape) holds the draws."""
    L, kmax = plan.arms.shape
    h = scratch.view(np.uint64)
    np.bitwise_xor(np.arange(L, dtype=np.uint64)[:, None],
                   _mix64_np(t ^ np.uint64(plan.pull_prefix)), out=h)
    # the arm field of a pull draw is 0, and h ^ 0 == h
    _unit(_mix64_np(_mix64_np(h)), scratch)
    slot = np.empty((L, t.size), dtype=np.int64)
    for ell in range(L):
        slot[ell] = np.searchsorted(plan.cdf[ell], scratch[ell], side="right")
    slot += np.arange(0, L * kmax, kmax)[:, None]
    return slot


def _draw_group(plan: SegmentPlan, t0: int, t1: int, rows: int,
                targets: np.ndarray, pushes: np.ndarray):
    """Pulled slots and rewards of rounds ``t0..t1``, the rewards drawn
    in blocks of ``rows`` rounds.

    Returns agent-major (L, rounds) slot, clean and observed arrays and
    the round-major (rounds, L) ``contrib``, each cell's charge before the
    gate (``observed`` is ``clean`` and ``contrib`` None without targets).
    A block's plane 0 is the pulled arm, then one per (planes - 1, L, 1)
    ``targets`` row; an agent's targets differ, so at most one is pulled.
    """
    L = plan.arms.shape[0]
    t_len = t1 - t0 + 1
    arms_flat = plan.arms.reshape(-1)
    t = np.arange(t0, t1 + 1, dtype=np.uint64)
    clean = np.empty((L, t_len))
    slot = _pull_slots(plan, t, scratch=clean)
    attack = len(targets) > 0
    observed = np.empty((L, t_len)) if attack else clean
    contrib = np.empty((t_len, L)) if attack else None
    planes = np.empty((1 + len(targets), L, min(rows, t_len)), np.int64)
    planes[1:] = np.maximum(targets, 0)

    t ^= np.uint64(plan.env_prefix)
    env_t = _mix64_np(t)
    agents = np.arange(L, dtype=np.uint64)[:, None]
    for r0 in range(0, t_len, rows):
        r1 = min(r0 + rows, t_len)
        arm = planes[:, :, :r1 - r0]
        arm[0] = arms_flat.take(slot[:, r0:r1])
        # the (t, ell) env prefix, shared by the pulled arm and the targets
        h = _mix64_np(agents ^ env_t[r0:r1])
        u = _unit(_mix64_np(arm.view(np.uint64) ^ h))
        reward_array(plan.reward_model, plan.means, arm, u, plan.beta_table,
                     out=u)
        clean[:, r0:r1] = u[0]
        if attack:
            block = observed[:, r0:r1]
            block[...] = u[0]
            edited = u[1:] + pushes
            np.clip(edited, 0.0, 1.0, out=edited)
            for plane, hit in zip(edited, arm[0] == targets):
                np.copyto(block, plane, where=hit)
            edited -= u[1:]
            np.abs(edited, out=edited)
            # the largest charge over one or two target planes
            np.maximum(edited[0], edited[-1], out=contrib[r0:r1].T)
    return slot, clean, observed, contrib


def _gate(contrib: np.ndarray, observed: np.ndarray, clean: np.ndarray,
          spent: float, budget: float):
    """Apply the budget rule to a group's cells in the flat order of the
    round-major (rounds, L) ``contrib``, in place: from the first cell
    whose charge would overrun the budget on, charges are zeroed and
    clean rewards delivered into the agent-major ``observed``.

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
    spent = float(cum[first_reject - 1]) if first_reject else spent
    flat[first_reject:] = 0.0
    # agents a.. from round r on, the agents before a from round r + 1 on
    r, a = divmod(first_reject, contrib.shape[1])
    observed[a:, r:] = clean[a:, r:]
    observed[:a, r + 1:] = clean[:a, r + 1:]
    return spent, first_reject == flat.size


def run_segment_numpy(plan: SegmentPlan,
                      trace: tuple | None = None) -> SegmentResult:
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
    spent, adv_active = plan.spent, plan.adv_active
    # the target columns some agent names, as (planes - 1, L, 1) arrays;
    # an unnamed slot draws arm 0 with push 0, so its charge |c - c| is 0
    columns = (plan.targets >= 0).any(axis=0)
    targets = plan.targets.T[columns, :, None]
    pushes = np.where(targets >= 0, plan.pushes.T[columns, :, None], 0.0)

    s0, t0 = 0, plan.t_start
    while s0 < cuts.size:
        s1 = max(s0 + 1, int(np.searchsorted(cuts, t0 + rows - 1, "right")))
        t1 = int(cuts[s1 - 1])
        attack = adv_active and len(targets) > 0
        slot, clean, observed, contrib = _draw_group(
            plan, t0, t1, rows, targets if attack else targets[:0], pushes)
        if attack:
            spent, adv_active = _gate(contrib, observed, clean, spent,
                                      plan.budget)

        ends = (cuts[s0:s1] - (t0 - 1)).tolist()
        bounds = list(zip([0] + ends[:-1], ends))  # segments' group rows
        pull_counts += np.bincount(slot.reshape(-1), minlength=L * kmax)
        # one 1-D sum per agent and segment: summing the grid along an
        # axis rounds differently
        pulled = np.empty((s1 - s0, L))
        for ell in range(L):
            means = slot_means.take(slot[ell])
            pulled[:, ell] = [means[a:b].sum() for a, b in bounds]
        lengths = np.array([b - a for a, b in bounds])
        regret[s0:s1] = plan.best_means * lengths[:, None] - pulled

        if trace is not None:
            span = slice(t0 - plan.t_start, t1 - plan.t_start + 1)
            for out, group in zip(trace, (arms_flat[slot], observed, clean)):
                out[span] = group.T
        # one bin per segment and slot: a slot is one agent's, so its bin
        # adds the segment's rewards in round order
        slot += np.repeat(np.arange(s1 - s0) * (L * kmax), lengths)
        sums = np.bincount(slot.reshape(-1), observed.reshape(-1),
                           (s1 - s0) * L * kmax).reshape(s1 - s0, -1)
        for s, (a, b) in enumerate(bounds, start=s0):
            reward_sums += sums[s - s0]
            if attack:
                corruption[s] = contrib[a:b].sum(axis=0)
        del slot, clean, observed, contrib, means
        s0, t0 = s1, t1 + 1

    return SegmentResult(
        reward_sums=reward_sums.reshape(L, kmax),
        pull_counts=pull_counts.reshape(L, kmax),
        regret=regret, corruption=corruption, spent=float(spent),
        adv_active=bool(adv_active),
    )


def run_segment(plan: SegmentPlan, backend: str | None = None,
                trace: tuple | None = None) -> SegmentResult:
    """Dispatch a plan to the requested (or default) backend.

    ``trace``, if given, is a (pulls, observed, clean) triple of
    (rounds, L) int64, float64 and float64 arrays; the kernel writes
    each round's pulled arm ids, delivered rewards and clean rewards
    into its rows.
    """
    backend = backend or default_backend()
    if backend == "numba":
        return run_segment_numba(plan, trace)
    if backend == "numpy":
        return run_segment_numpy(plan, trace)
    raise ConfigError(f"unknown backend {backend!r}")
