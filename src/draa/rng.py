"""Counter-based deterministic random streams.

Every uniform draw is a pure function of the tuple
``(master seed, stream id, round t, agent, arm)``.  There is no mutable
generator state, so any value can be recomputed lazily, in any order, on
any worker, and replaying a run with the same seed reproduces the exact
same values bit for bit.  Streams are given disjoint ids so that, e.g.,
adding an adversary never shifts the environment or agent randomness.

The mixer is the splitmix64 finalizer, applied once per absorbed key
field.  Three equivalent implementations are kept in sync: a plain-int
scalar version (:func:`mix64`), an in-place numpy version that
:func:`uniform_array` and the numpy kernel share, with the top-53-bit
conversion :func:`_unit`, and the loop kernel's ``kernels._mix64_nb`` and
``_uniform_nb`` (numba-compiled, or plain Python on numpy scalars without
numba); tests assert they agree exactly.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_U64_GAMMA = np.uint64(_GAMMA)
_U64_MUL1 = np.uint64(_MUL1)
_U64_MUL2 = np.uint64(_MUL2)
_U64_30, _U64_27, _U64_31 = np.uint64(30), np.uint64(27), np.uint64(31)

# Stream ids.  ENV draws rewards and PULL drives the agents' arm choices.
# No adversary draws: each is a function of the previous epoch's
# estimates, so id 1 stays unused.
ENV_STREAM = 0
PULL_STREAM = 2

#: 1 ulp below 1.0 is never produced; draws live in [0, 1).
_INV_2_53 = 2.0**-53


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (plain-int reference)."""
    x = (x + _GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _MUL1) & MASK64
    x = ((x ^ (x >> 27)) * _MUL2) & MASK64
    return x ^ (x >> 31)


def stream_prefix(seed: int, stream: int) -> int:
    """Absorb (seed, stream); the remaining fields are absorbed per draw."""
    return mix64(mix64(seed & MASK64) ^ (stream & MASK64))


def _mix64_np(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 ndarray; returns it.

    ``x`` must be an ndarray the caller owns (0-d is fine).  Only in-place
    array ufuncs run here, and those wrap silently; numpy scalars would
    warn on the (intended) overflow.  ``scratch``, a uint64 array of x's
    shape, receives the shifted copies, which are otherwise allocated.
    """
    x += _U64_GAMMA
    x ^= np.right_shift(x, _U64_30, out=scratch)
    x *= _U64_MUL1
    x ^= np.right_shift(x, _U64_27, out=scratch)
    x *= _U64_MUL2
    x ^= np.right_shift(x, _U64_31, out=scratch)
    return x


def _unit(h: np.ndarray, out: np.ndarray | None = None):
    """Top 53 bits of the uint64 hashes ``h`` (clobbered) as uniforms in
    [0, 1).  Shifted, a hash fits int64, whose conversion to float64 is
    faster than uint64's and as exact; a 0-d ``h`` gives a scalar."""
    h >>= np.uint64(11)
    return np.multiply(h.view(np.int64), _INV_2_53, out=out)


def uniform_array(prefix: int, t: np.ndarray | int, agent: int, arm) -> np.ndarray:
    """Vectorized uniforms; ``t`` and/or ``arm`` may be uint64-able arrays.

    ``prefix`` must come from :func:`stream_prefix`.
    """
    h = np.array(t, dtype=np.uint64)
    h ^= np.uint64(prefix)
    _mix64_np(h)
    h ^= np.uint64(agent)
    _mix64_np(h)
    h = _mix64_np(np.asarray(h ^ np.asarray(arm, dtype=np.uint64)))
    return _unit(h)

