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

The numpy kernel walks the epoch in groups drawn in blocks of at most
``_BLOCK_CELLS`` (round, agent) cells.  A group is either several whole
consecutive segments within one block's rounds, or one segment drawn
block by block, so every segment of a group spans every block of it.
Its segments also hold no more reward bins, L * Kmax each, than a block
has cells, so a wide plan's fold stays the size of its group.  Every
call reuses one :class:`Workspace` of flat arrays, which
``engine.run_single`` makes once per numpy run, sized from all its
calls' cuts (a call without one makes its own): no call allocates arrays
that grow with its cells, so a long run does not fault their pages in
again group after group.  A group's slots and delivered rewards live in
agent-major (L, rounds) arrays, so per-agent broadcasts run along
contiguous rows.  Each ufunc, ``take`` and ``cumsum`` of a block writes
into the workspace; only a block's charges, one block in size, are
round-major, the budget gate's order.  A block first draws its pulls,
then their rewards; for both streams the ``(t)`` hash prefixes are mixed
once per round and the ``(t, ell)`` ones once per cell.  The pull hashes
are searched as integers, not as
uniforms: a hash h draws u = (h >> 11) * 2**-53, and u >= c holds
exactly when h >> 11 >= ceil(c * 2**53), since the scaling and the
ceiling are exact.  Each call turns the CDF rows into these thresholds
once and indexes them with a guide per agent (the indexed search of Chen
and Asau, in Devroye 1986, III.2.4): the top bits of h pick a bucket,
and a bucket that no threshold splits holds its slot, so one ``take``
draws most cells; the rest search the thresholds.  Under attack every
target column is one plane, drawn for the whole block; a pulled arm that
is a target takes its plane's clean reward, and only the cells whose
pulled arm is no target draw it, in one compacted pass.  Once gated, a
block's charges are folded at once: a ``cumsum`` per segment, its first
row seeded with the segment's total so far, adds each agent's charges
in round order.  Each group is then folded in whole-array passes, with
no Python loop over its segments but the regret's: a per-round offset
row (``np.repeat`` of each segment's first bin over its rounds) gives
every cell a bin per segment and slot, so one ``bincount`` adds each
slot's rewards in round order; the running total, added into the first
segment's bins, and one ``cumsum`` over the segments then make the old
segment-by-segment additions in their order.  One ``take`` gives every
cell its pulled arm's mean, reduced per segment along each agent's row
(pairwise, as a per-segment sum reduces it), and the regret of all the
group's segments is one subtraction from ``best_means`` times their
lengths.

Backend selection: the ``DRAA_BACKEND`` environment variable (``numba``
or ``numpy``), overridable per call.  For the same plan, pulls, clean
and delivered rewards, reward sums, pull counts, the per-agent
corruption sums and the budget state are bit-identical across backends,
with any number of agents.  Regret may differ in the last ulps because
its accumulation order differs, and is compared at 1e-9 in tests.

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

#: (round, agent) cells per block of the numpy kernel's draws, and the
#: most that whole segments may fill as one group: a block's arrays in
#: the workspace hold this many cells, and a longer block covers a
#: group's cells with fewer numpy calls.  At 32768 the narrow plan of
#: test_numpy_kernel_peak_memory_per_cell exceeds its bound
_BLOCK_CELLS = 16384

#: the top bits of a pull hash that pick its bucket of the agent's guide
_GUIDE_BITS = 8

#: rows whose search keys share one sorted run: a key is a threshold of
#: at most 2**53 plus its row's offset in the run times 2**53, so the
#: largest, 1023 * 2**53, fits int64
_KEY_ROWS = 1023

_SIGN = np.int64(np.iinfo(np.int64).min)  # a guide entry's sentinel bit
_U64_GUIDE_SHIFT = np.uint64(64 - _GUIDE_BITS)
_GUIDE_ROW = (1 << _GUIDE_BITS) + 1  # a guide row's buckets, then 2**53's

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
    any of them makes: its longest segment, or one block of ``rows``
    rounds.  ``beta_table`` is the (K, N) Beta table the calls map with,
    or (0, 0).  The buffers are flat; a call views their leading entries
    in the shape it needs (``model._carve``).  A group's slots and
    rewards are group-sized; the hashes, pulled arms, charges and scratch
    hold one block, whose pulls and rewards are drawn together.  Each
    call also makes the pull search's tables for its CDF here
    (:meth:`index`).
    """

    def __init__(self, num_agents: int, calls, beta_table: np.ndarray):
        #: rounds per block, and that whole segments may fill in one group
        self.rows = max(1, _BLOCK_CELLS // num_agents)
        group = max(
            max(int(np.diff(cuts, prepend=t_start - 1).max()),
                min(self.rows, int(cuts[-1]) - t_start + 1))
            for t_start, cuts in calls)
        self.ramp = np.arange(min(self.rows, group), dtype=np.uint64)
        self.rounds = np.empty_like(self.ramp)  # a block's t hashes
        self.block = self.ramp.size * num_agents  # cells per block
        self.group = group * num_agents  # cells per group
        self.slot = np.empty(self.group, np.int64)
        self.observed = np.empty(self.group)
        self.prefix = np.empty(self.block, np.uint64)  # (t, ell) hashes
        self.arm = np.empty(self.block, np.int64)  # a block's pulled arms
        self.scratch = np.empty(2 * self.block, np.uint64)
        self.diff = beta_diffs(beta_table) if beta_table.size else None
        self.agents = np.arange(num_agents, dtype=np.uint64)[:, None]
        # each agent's first entry of the guide
        self.guide_rows = self.agents.astype(np.int64) * _GUIDE_ROW

    def index(self, cdf: np.ndarray) -> None:
        """Make the pull search's tables for the (L, kmax) ``cdf``: the
        ``guide``, a row of 2**_GUIDE_BITS buckets per agent (and one
        entry that no hash reads), and the ``keys`` that its sentinels
        search.

        Entry c of row ell becomes the threshold ceil(min(c, 1) * 2**53);
        the clamp changes no count, for no hash reaches 2**53.  Bucket b
        holds the 53-bit hashes [b * w, (b + 1) * w), w = 2**(53 -
        _GUIDE_BITS).  If no threshold lies strictly inside it, they all
        count the thresholds up to b * w, idx, and it holds the slot
        ell * kmax + idx; else it holds the sentinel _SIGN + the row's
        offset (ell % _KEY_ROWS) * 2**53.  A key is a threshold plus its
        row's offset, so each run of _KEY_ROWS rows of keys is sorted.
        """
        L, kmax = cdf.shape
        shift = 53 - _GUIDE_BITS
        keys = np.ceil(np.minimum(cdf, 1.0) * 2.0**53).astype(np.int64)
        rows = np.arange(L)[:, None]
        # each threshold's bucket; those of 2**53 go to the row's last entry
        cells = rows * _GUIDE_ROW + (keys >> shift)
        # per bucket, the thresholds below its end: in a bucket that none
        # splits, those up to its first hash
        guide = np.bincount(cells.reshape(-1), minlength=L * _GUIDE_ROW)
        table = guide.reshape(L, _GUIDE_ROW)
        np.cumsum(table, axis=1, out=table)
        table += rows * kmax
        offset = (rows % _KEY_ROWS) << 53
        split = (keys & ((1 << shift) - 1)) != 0
        guide[cells[split]] = np.broadcast_to(offset + _SIGN,
                                              split.shape)[split]
        keys += offset
        self.guide, self.keys = guide, keys.reshape(-1)

    def search(self, h: np.ndarray, slot: np.ndarray) -> None:
        """Write into the (L, n) ``slot`` each cell's ``ell * kmax +`` the
        index its uint64 hash in ``h`` draws from the CDF of the last
        :meth:`index`: the count of agent ell's entries c with
        u = (h >> 11) * 2**-53 >= c.

        That is the count of thresholds ceil(c * 2**53) at most h >> 11:
        multiplying by 2**53 is exact, and an integer is at least a real
        number exactly when it is at least its ceiling.  The top bits of
        h pick the bucket, whose guide entry is the slot unless a
        threshold splits the bucket.  A sentinel's key, the row offset
        it holds plus h >> 11, is searched in its run of ``keys``: the
        count of keys at most it is the slot, less the run's first slot.
        """
        L, n = slot.shape
        kmax = self.keys.size // L
        np.right_shift(h, _U64_GUIDE_SHIFT, out=slot.view(np.uint64))
        slot += self.guide_rows
        # each cell's index is read before its guide entry replaces it
        self.guide.take(slot, out=slot, mode="wrap")
        where = np.flatnonzero(slot < 0)
        if not where.size:
            return
        keys = slot.take(where)
        keys ^= _SIGN
        keys |= (h.take(where) >> np.uint64(11)).view(np.int64)
        # the cells are row-major, so each run's rows are a range of them
        for r0 in range(0, L, _KEY_ROWS):
            a, b = np.searchsorted(where, (r0 * n, (r0 + _KEY_ROWS) * n))
            found = np.searchsorted(self.keys[r0 * kmax:(r0 + _KEY_ROWS)
                                              * kmax], keys[a:b], "right")
            found += r0 * kmax
            slot.put(where[a:b], found)

    @cached_property
    def attack(self) -> tuple:
        """The arrays that only attacked groups use, made on the first,
        each of one block: its (rounds, L) charges, clean rewards, target
        planes, second scratch, target hits and misses."""
        return (np.empty(self.block), np.empty(self.block),
                np.empty(2 * self.block, np.uint64),
                np.empty(2 * self.block, np.uint64),
                np.empty(2 * self.block, bool), np.empty(self.block, bool))


def _cell_hashes(ws: Workspace, prefix: int, t0: int, h: np.ndarray,
                 scratch: np.ndarray) -> np.ndarray:
    """Mix into the (L, m) ``h`` the (t, ell) hash prefixes of the stream
    ``prefix`` in rounds ``t0..``, with ``scratch`` of h's shape; returns h."""
    t = ws.rounds[:h.shape[1]]
    np.add(ws.ramp[:t.size], np.uint64(t0), out=t)
    t ^= np.uint64(prefix)
    _mix64_np(t, scratch[0])
    np.bitwise_xor(ws.agents, t, out=h)
    return _mix64_np(h, scratch)


def _draw_group(plan: SegmentPlan, ws: Workspace, t0: int, slot, observed,
                corruption, bounds, edits, spent: float, trace):
    """Draw the pulls and rewards of the rounds ``t0..`` block by block:
    each block's slots ``ell * kmax + idx`` go to its columns of the (L,
    rounds) ``slot`` and its delivered rewards to those of ``observed``,
    and its rows are traced.

    ``edits`` is None, or the (planes, L, 1) targets (-1 unused), the
    arms drawn for them and their pushes; then each block's round-major
    charges are gated, its spend carried from ``spent``, and added into
    row s of ``corruption`` for each segment s, the group rows [a, b) of
    ``bounds[s]``, each of which spans every block.  Once the gate
    closes, the rest of the group draws as without edits and charges
    nothing.  Returns the spend and whether the gate is still open.
    """
    L, n = slot.shape
    arms_flat = plan.arms.reshape(-1)
    model, means, table = plan.reward_model, plan.means, plan.beta_table
    C = ws.block
    scratch, ints = ws.scratch, ws.scratch.view(np.int64)
    floats = scratch.view(np.float64)
    live = edits is not None
    for r0 in range(0, n, ws.rows):
        r1 = min(r0 + ws.rows, n)
        m = r1 - r0
        arm = _carve(ws.arm, (L, m))
        h = _carve(ws.prefix, (L, m))
        mix = _carve(scratch, (L, m))
        # the arm field of a pull draw is 0, and h ^ 0 == h
        _cell_hashes(ws, plan.pull_prefix, t0 + r0, h, mix)
        ws.search(_mix64_np(h, mix), arm)
        slot[:, r0:r1] = arm
        arms_flat.take(arm, out=arm, mode="wrap")
        # the (t, ell) env prefix, shared by the pulled arm and the targets
        _cell_hashes(ws, plan.env_prefix, t0 + r0, h, mix)
        out = observed[:, r0:r1]
        # each draw below: hashes, their uniforms in another array (over
        # the hashes numpy would copy them), then the rewards
        if not live:
            h ^= arm.view(np.uint64)
            u = _unit(_mix64_np(h, mix), out)
            reward_array(model, means, arm, u, table, out=out, diff=ws.diff,
                         scratch=(ints, ws.prefix.view(np.float64)))
            clean = out
        else:
            charge_buf, clean_buf, planes, spare, hit_buf, miss_buf = ws.attack
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
            charges = _carve(charge_buf, (m, L))
            np.maximum(edited[0], edited[-1], out=charges.T)
            spent, live = _gate(charges, out, clean, spent, plan.budget,
                                floats)
            # each segment's running sums in round order, as the loop kernel
            # adds them: its first row here takes the total of its earlier
            # blocks (0.0 in its first, which adds exactly), the gate's carry
            for s, (a, b) in enumerate(bounds):
                rows = charges[max(a - r0, 0):b - r0]
                rows[0] += corruption[s]
                corruption[s] = np.cumsum(
                    rows, axis=0, out=_carve(floats, rows.shape))[-1]
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

    The rounds are drawn in the groups of the module docstring, each
    reusing the arrays of ``workspace``, which is made for this call
    when not given.  The budget spend carries from block to block, and
    every sum is reduced per segment, so neither the grouping nor the
    blocks change a result bit.
    """
    L, kmax = plan.arms.shape
    cuts = plan.cuts
    ws = workspace or Workspace(L, [(plan.t_start, cuts)], plan.beta_table)
    ws.index(plan.cdf)
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

    # whole segments share a group if their rounds and bins, L * kmax each,
    # fit one block
    group_segments = max(1, _BLOCK_CELLS // (L * kmax))
    s0, t0 = 0, plan.t_start
    while s0 < cuts.size:
        s1 = max(s0 + 1, min(s0 + group_segments, int(np.searchsorted(
            cuts, t0 + ws.rows - 1, "right"))))
        t1 = int(cuts[s1 - 1])
        n = t1 - t0 + 1
        slot = _carve(ws.slot, (L, n))
        observed = _carve(ws.observed, (L, n))
        ends = (cuts[s0:s1] - (t0 - 1)).tolist()
        bounds = list(zip([0] + ends[:-1], ends))  # segments' group rows
        attack = adv_active and len(targets) > 0
        spent, gate_open = _draw_group(
            plan, ws, t0, slot, observed, corruption[s0:s1], bounds,
            edits if attack else None, spent, trace)
        adv_active = gate_open if attack else adv_active

        pull_counts += np.bincount(slot.reshape(-1), minlength=L * kmax)
        # one bin per segment and slot: a slot is one agent's, so its bin
        # adds the segment's rewards in round order
        lengths = np.diff(cuts[s0:s1], prepend=t0 - 1)
        if s1 - s0 > 1:
            slot += np.repeat(np.arange(s1 - s0) * (L * kmax), lengths)
        sums = np.bincount(slot.reshape(-1), observed.reshape(-1),
                           (s1 - s0) * L * kmax).reshape(s1 - s0, -1)
        # the total so far, then each segment's sums, in segment order
        sums[0] += reward_sums
        reward_sums = np.cumsum(sums, axis=0, out=sums)[-1]
        # the rewards are summed, so their array takes each cell's pulled
        # mean (wrap drops the bins' offsets)
        means = slot_means.take(slot, out=observed, mode="wrap")
        seg_regret = regret[s0:s1]
        for s, (a, b) in enumerate(bounds):
            np.add.reduce(means[:, a:b], axis=1, out=seg_regret[s])
        np.subtract(plan.best_means * lengths[:, None], seg_regret,
                    out=seg_regret)
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
