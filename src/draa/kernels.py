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
of at most ``_GROUP_CELLS`` (round, agent) cells; a longer segment is a
group of its own.  Every call reuses one :class:`Workspace` of flat
arrays, which ``engine.run_single`` makes once per numpy run, sized from
all its calls' cuts (a call without one makes its own): no call
allocates arrays that grow with its cells, so a long run does not fault
their pages in again group after group.  A group's slots and delivered
rewards live in agent-major (L, rounds) arrays, so per-agent broadcasts
and CDF searches run along contiguous rows; only its charges stay
round-major, the budget gate's order.  The ``(t)`` hash prefixes are
mixed once per round and the ``(t, ell)`` ones once per cell.  A group's
pull draws are made in its reward array, each agent's binary-searched in
its CDF row.  The rewards are drawn in blocks of at most
``_BLOCK_CELLS`` cells, each ufunc, ``take`` and ``cumsum`` writing into
the workspace.  Under attack every target column is one plane, drawn for
the whole block; a pulled arm that is a target takes its plane's clean
reward, and only the cells whose pulled arm is no target draw it, in one
compacted pass.  One ``bincount`` per group, over a bin per segment and
slot, adds each slot's rewards in round order.

Backend selection: the ``DRAA_BACKEND`` environment variable (``numba``
or ``numpy``), overridable per call.  For the same plan, pulls, clean
and delivered rewards, reward sums, pull counts and the budget state are
bit-identical across backends.  Regret may differ in the last ulps
because its accumulation order differs, and is compared at 1e-9 in
tests.  So are the per-agent corruption sums, which agree bit for bit
for L >= 2: the numpy kernel's ``sum(axis=0)`` over round-major rows then
adds each agent's charges in round order, as the loop does, but it sums
a single agent's (rounds, 1) column pairwise.

Budget rule shared by both backends: (round, agent) cells are processed
round-major, agent-minor; a cell is delivered only if the running spend
stays within budget, and the first overrun disables corruption for the
rest of the run.  The loop kernel keeps the running spend as
``spent += c``; the numpy kernel gates block by block, folding the spend
carried into a block into its first cell before its ``cumsum``, which
performs the same additions in the same order, so both gates close at
the same cell.  Once the gate closes, the rest of the call draws as
without edits.  The kernels rely on the edit contract that
:meth:`draa.adversary.Adversary.begin_epoch` checks once per epoch: an
agent's targets are its own arms and differ, so a cell is charged the
largest edit over its named targets and its pulled arm matches at most
one of them.  Both search an agent's whole padded CDF row, which is at
least 1.0 from its last arm on, so no pull draw passes that arm.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .model import _carve, beta_diffs, reward_array
from .rng import _INV_2_53, _U64_GAMMA, _U64_MUL1, _U64_MUL2, _mix64_np, _unit

BACKENDS = ("numba", "numpy")

#: (round, agent) cells that whole segments may fill in one group of the
#: numpy kernel; a longer segment is a group of its own
_GROUP_CELLS = 4096

#: (round, agent) cells per block of the numpy kernel's reward draws: a
#: block's arrays in the workspace hold this many cells, and a longer
#: block covers a group's cells with fewer numpy calls.  At 32768 the
#: narrow plan of test_numpy_kernel_peak_memory_per_cell exceeds its bound
_BLOCK_CELLS = 16384

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


class Workspace:
    """The numpy kernel's arrays, made once and reused by every call of a
    run, so that no call allocates arrays of its cells' size.

    It serves calls of ``num_agents`` agents, one ``(t_start, cuts)``
    pair of a plan per call in ``calls``, and holds the largest group
    any of them makes: its longest segment, or whole segments of at most
    ``group_rows`` rounds.  ``beta_table`` is the (K, N) Beta table the
    calls map with, or (0, 0).  The buffers are flat; a call views their
    leading entries in the shape it needs (``model._carve``).
    """

    def __init__(self, num_agents: int, calls, beta_table: np.ndarray):
        #: rounds that whole segments may fill in one group
        self.group_rows = max(1, _GROUP_CELLS // num_agents)
        #: rounds per reward block
        self.rows = max(1, _BLOCK_CELLS // num_agents)
        group = max(
            max(int(np.diff(cuts, prepend=t_start - 1).max()),
                min(self.group_rows, int(cuts[-1]) - t_start + 1))
            for t_start, cuts in calls)
        self.block = min(self.rows, group) * num_agents  # cells per block
        self.group = group * num_agents  # cells per group
        self.slot = np.empty(self.group, np.int64)
        self.observed = np.empty(self.group)
        self.rounds = np.empty(group, np.uint64)  # t hashes, pulled means
        self.ramp = np.arange(min(self.rows, group), dtype=np.uint64)
        self.prefix = np.empty(self.block, np.uint64)  # (t, ell) env hashes
        self.arm = np.empty(self.block, np.int64)  # a block's pulled arms
        self.scratch = np.empty(2 * self.block, np.uint64)
        self.diff = beta_diffs(beta_table) if beta_table.size else None
        self.agents = np.arange(num_agents, dtype=np.uint64)[:, None]

    @cached_property
    def attack(self) -> tuple:
        """The arrays that only attacked groups use, made on the first:
        the group's (rounds, L) charges, then a block's clean rewards,
        target planes, second scratch, target hits and misses."""
        return (np.empty(self.group), np.empty(self.block),
                np.empty(2 * self.block, np.uint64),
                np.empty(2 * self.block, np.uint64),
                np.empty(2 * self.block, bool), np.empty(self.block, bool))


def _pull_slots(plan: SegmentPlan, ws: Workspace, t0: int, slot: np.ndarray,
                observed: np.ndarray) -> None:
    """Write ``ell * kmax +`` the local index of the arm each agent pulls
    in rounds ``t0..`` into the (L, rounds) ``slot``; the draws are made
    in ``observed``, with ``slot`` as the mixing scratch.  (A uniform
    is never written over its own hash: numpy would copy the hashes.)
    """
    L, n = slot.shape
    kmax = plan.arms.shape[1]
    t = ws.rounds[:n]
    for r0 in range(0, n, ws.ramp.size):
        r1 = min(r0 + ws.ramp.size, n)
        np.add(ws.ramp[:r1 - r0], np.uint64(t0 + r0), out=t[r0:r1])
    t ^= np.uint64(plan.pull_prefix)
    scratch = slot.view(np.uint64)
    _mix64_np(t, scratch.reshape(-1)[:n])
    h = observed.view(np.uint64)
    np.bitwise_xor(ws.agents, t, out=h)
    # the arm field of a pull draw is 0, and h ^ 0 == h
    _mix64_np(_mix64_np(h, scratch), scratch)
    # each row's search returns before its result replaces the row
    uniforms = _unit(h, slot.view(np.float64))
    for ell in range(L):
        slot[ell] = np.searchsorted(plan.cdf[ell], uniforms[ell],
                                    side="right")
    slot += np.arange(0, L * kmax, kmax)[:, None]


def _draw_group(plan: SegmentPlan, ws: Workspace, t0: int, slot, observed,
                contrib, edits, spent: float, trace):
    """Draw the rewards of the rounds ``t0..`` of the (L, rounds) ``slot``
    into ``observed``, block by block, and trace each block's rows.

    ``edits`` is None, or the (planes, L, 1) targets (-1 unused), the
    arms drawn for them and their pushes; then each cell's charge goes to
    the round-major ``contrib`` and each block is gated, its spend carried
    from ``spent``.  Once the gate closes, the rest of the group draws as
    without edits and charges nothing.  Returns the spend and whether the
    gate is still open.
    """
    L, n = slot.shape
    arms_flat = plan.arms.reshape(-1)
    env = np.uint64(plan.env_prefix)
    model, means, table = plan.reward_model, plan.means, plan.beta_table
    C = ws.block
    scratch, ints = ws.scratch, ws.scratch.view(np.int64)
    floats = scratch.view(np.float64)
    live = edits is not None
    for r0 in range(0, n, ws.rows):
        r1 = min(r0 + ws.rows, n)
        m = r1 - r0
        # take would copy the strided slot columns; copy them first
        arm = _carve(ws.arm, (L, m))
        h = _carve(ws.prefix, (L, m))
        np.copyto(h.view(np.int64), slot[:, r0:r1])
        arms_flat.take(h.view(np.int64), out=arm, mode="wrap")
        # the (t, ell) env prefix, shared by the pulled arm and the targets;
        # the block's rewards are not drawn yet, so out is mixing scratch
        out = observed[:, r0:r1]
        t = ws.rounds[:m]
        np.add(ws.ramp[:m], np.uint64(t0 + r0), out=t)
        t ^= env
        _mix64_np(t, scratch[:m])
        np.bitwise_xor(ws.agents, t, out=h)
        _mix64_np(h, out.view(np.uint64))
        # each draw below: hashes, their uniforms in another array (over
        # the hashes numpy would copy them), then the rewards
        if not live:
            h ^= arm.view(np.uint64)
            u = _unit(_mix64_np(h, out.view(np.uint64)), out)
            reward_array(model, means, arm, u, table, out=out, diff=ws.diff,
                         scratch=(ints, ws.prefix.view(np.float64)))
            clean = out
        else:
            _, clean_buf, planes, spare, hit_buf, miss_buf = ws.attack
            targets, drawn, pushes = edits
            P = len(targets)
            clean = _carve(clean_buf, (L, m))
            hits = _carve(hit_buf, (P, L, m))
            np.equal(arm, targets, out=hits)
            # the cells whose pulled arm is no target draw it on their own
            miss = _carve(miss_buf, (L, m))
            np.logical_or.reduce(hits, axis=0, out=miss)
            np.logical_not(miss, out=miss)
            where = np.flatnonzero(miss)
            if where.size:
                k = where.size
                h_k, arm_k = spare[:k], spare[C:C + k].view(np.int64)
                h.take(where, out=h_k, mode="wrap")
                arm.take(where, out=arm_k, mode="wrap")
                h_k ^= arm_k.view(np.uint64)
                u = _unit(_mix64_np(h_k, scratch[:k]), floats[:k])
                reward_array(model, means, arm_k, u, table, out=u,
                             diff=ws.diff, scratch=(ints[C:],
                                                    spare.view(np.float64)))
                clean.put(where, u, mode="wrap")
            # one plane per target column, whose hits give the rest
            h_p = _carve(planes, (P, L, m))
            np.bitwise_xor(h, drawn.view(np.uint64), out=h_p)
            u = _unit(_mix64_np(h_p, _carve(scratch, (P, L, m))),
                      _carve(spare.view(np.float64), (P, L, m)))
            reward_array(model, means, drawn, u, table, out=u, diff=ws.diff,
                         scratch=(ints, planes.view(np.float64)))
            for plane, hit in zip(u, hits):
                np.copyto(clean, plane, where=hit)
            edited = _carve(planes.view(np.float64), (P, L, m))
            np.add(u, pushes, out=edited)
            np.clip(edited, 0.0, 1.0, out=edited)
            np.copyto(out, clean)
            for plane, hit in zip(edited, hits):
                np.copyto(out, plane, where=hit)
            edited -= u
            np.abs(edited, out=edited)
            # the largest charge over one or two target planes
            charges = contrib[r0:r1]
            np.maximum(edited[0], edited[-1], out=charges.T)
            spent, live = _gate(charges, out, clean, spent, plan.budget,
                                floats)
            if not live:
                contrib[r1:] = 0.0
        if trace is not None:
            span = slice(t0 - plan.t_start + r0, t0 - plan.t_start + r1)
            for rows_out, block in zip(trace, (arm, out, clean)):
                rows_out[span] = block.T
    return spent, live


def _gate(charges: np.ndarray, observed: np.ndarray, clean: np.ndarray,
          spent: float, budget: float, scratch: np.ndarray):
    """Apply the budget rule to a block's cells in the flat order of the
    round-major (rounds, L) ``charges``, in place: from the first cell
    whose charge would overrun the budget on, charges are zeroed and
    clean rewards delivered into the agent-major ``observed``.

    Returns the spend after the block and whether the gate is still open.
    Starting the cumsum at spent + c[0] makes cum[i] the loop kernel's
    ``spent += c`` chain, carried from block to block; charges are at
    least 0, so the cumsum never decreases and a binary search finds the
    first overrun.
    """
    flat = charges.reshape(-1)
    first = flat[0]
    flat[0] += spent
    cum = np.cumsum(flat, out=scratch[:flat.size])
    flat[0] = first
    first_reject = int(np.searchsorted(cum, budget, "right"))
    spent = float(cum[first_reject - 1]) if first_reject else spent
    flat[first_reject:] = 0.0
    # agents a.. from round r on, the agents before a from round r + 1 on
    r, a = divmod(first_reject, charges.shape[1])
    observed[a:, r:] = clean[a:, r:]
    observed[:a, r + 1:] = clean[:a, r + 1:]
    return spent, first_reject == flat.size


def run_segment_numpy(plan: SegmentPlan, trace: tuple | None = None,
                      workspace: Workspace | None = None) -> SegmentResult:
    """Execute a plan with vectorized numpy (fallback backend).

    The rounds are drawn in groups of whole consecutive segments holding
    at most ``_GROUP_CELLS`` cells; a longer segment is a group of its
    own.  Every group reuses the arrays of ``workspace``, which is made
    for this call when not given.  The budget spend carries from block to
    block, and every sum is reduced per segment, so neither the grouping
    nor the blocks change a result bit.
    """
    L, kmax = plan.arms.shape
    cuts = plan.cuts
    ws = workspace or Workspace(L, [(plan.t_start, cuts)], plan.beta_table)
    # -1 pads read means[-1] and are never pulled
    slot_means = plan.means[plan.arms.reshape(-1)]
    reward_sums = np.zeros(L * kmax)
    pull_counts = np.zeros(L * kmax, dtype=np.int64)
    regret = np.empty((cuts.size, L))
    corruption = np.zeros((cuts.size, L))
    spent, adv_active = plan.spent, plan.adv_active
    # the target columns some agent names, as (planes, L, 1) arrays; an
    # unnamed slot draws arm 0 with push 0, so its charge |c - c| is 0
    columns = (plan.targets >= 0).any(axis=0)
    targets = plan.targets.T[columns, :, None]
    edits = (targets, np.maximum(targets, 0),
             np.where(targets >= 0, plan.pushes.T[columns, :, None], 0.0))

    s0, t0 = 0, plan.t_start
    while s0 < cuts.size:
        s1 = max(s0 + 1, int(np.searchsorted(cuts, t0 + ws.group_rows - 1,
                                             "right")))
        t1 = int(cuts[s1 - 1])
        n = t1 - t0 + 1
        slot = _carve(ws.slot, (L, n))
        observed = _carve(ws.observed, (L, n))
        _pull_slots(plan, ws, t0, slot, observed)
        attack = adv_active and len(targets) > 0
        contrib = _carve(ws.attack[0], (n, L)) if attack else None
        spent, gate_open = _draw_group(
            plan, ws, t0, slot, observed, contrib, edits if attack else None,
            spent, trace)
        adv_active = gate_open if attack else adv_active

        ends = (cuts[s0:s1] - (t0 - 1)).tolist()
        bounds = list(zip([0] + ends[:-1], ends))  # segments' group rows
        pull_counts += np.bincount(slot.reshape(-1), minlength=L * kmax)
        # one 1-D sum per agent and segment: summing the grid along an
        # axis rounds differently (np.add.reduce is ndarray.sum without
        # its Python wrapper)
        pulled = np.empty((s1 - s0, L))
        means = ws.rounds[:n].view(np.float64)
        for ell in range(L):
            slot_means.take(slot[ell], out=means, mode="wrap")
            pulled[:, ell] = [np.add.reduce(means[a:b]) for a, b in bounds]
        lengths = np.array([b - a for a, b in bounds])
        regret[s0:s1] = plan.best_means * lengths[:, None] - pulled

        # one bin per segment and slot: a slot is one agent's, so its bin
        # adds the segment's rewards in round order
        for s, (a, b) in enumerate(bounds[1:], start=1):
            slot[:, a:b] += s * L * kmax
        sums = np.bincount(slot.reshape(-1), observed.reshape(-1),
                           (s1 - s0) * L * kmax).reshape(s1 - s0, -1)
        for s, (a, b) in enumerate(bounds, start=s0):
            reward_sums += sums[s - s0]
            if attack:
                corruption[s] = contrib[a:b].sum(axis=0)
        s0, t0 = s1, t1 + 1

    return SegmentResult(
        reward_sums=reward_sums.reshape(L, kmax),
        pull_counts=pull_counts.reshape(L, kmax),
        regret=regret, corruption=corruption, spent=float(spent),
        adv_active=bool(adv_active),
    )


def run_segment(plan: SegmentPlan, backend: str | None = None,
                trace: tuple | None = None,
                workspace: Workspace | None = None) -> SegmentResult:
    """Dispatch a plan to the requested (or default) backend.

    ``trace``, if given, is a (pulls, observed, clean) triple of
    (rounds, L) int64, float64 and float64 arrays; the kernel writes
    each round's pulled arm ids, delivered rewards and clean rewards
    into its rows.  ``workspace``, which only the numpy kernel reads,
    holds its arrays across the calls of a run.
    """
    backend = backend or default_backend()
    if backend == "numba":
        return run_segment_numba(plan, trace)
    if backend == "numpy":
        return run_segment_numpy(plan, trace, workspace)
    raise ConfigError(f"unknown backend {backend!r}")
