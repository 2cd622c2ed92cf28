"""Counter-based RNG: determinism, range, and implementation agreement."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from draa.kernels import _uniform_nb
from draa.rng import (_INV_2_53, ENV_STREAM, MASK64, PULL_STREAM, _unit,
                      mix64, stream_prefix, uniform_array)


def uniform(seed, stream, t, agent=0, arm=0):
    """One uniform in [0, 1) for the counter tuple, on plain ints: the
    reference the numpy and loop-kernel draws must match."""
    h = stream_prefix(seed, stream)
    h = mix64(h ^ (t & MASK64))
    h = mix64(h ^ (agent & MASK64))
    h = mix64(h ^ (arm & MASK64))
    return (h >> 11) * _INV_2_53


def test_uniform_in_unit_interval():
    vals = [uniform(s, ENV_STREAM, t, a, k)
            for s in range(5) for t in range(1, 20)
            for a in range(3) for k in range(3)]
    assert all(0.0 <= v < 1.0 for v in vals)


def test_same_counter_same_value():
    assert uniform(42, ENV_STREAM, 17, 1, 2) == uniform(42, ENV_STREAM, 17, 1, 2)


def test_streams_are_disjoint():
    a = uniform(42, ENV_STREAM, 17, 1, 2)
    b = uniform(42, 1, 17, 1, 2)  # the unused id between the two
    c = uniform(42, PULL_STREAM, 17, 1, 2)
    assert len({a, b, c}) == 3


def test_seed_changes_values():
    assert uniform(1, ENV_STREAM, 5) != uniform(2, ENV_STREAM, 5)


def test_vectorized_matches_scalar():
    prefix = stream_prefix(77, ENV_STREAM)
    ts = np.arange(1, 200, dtype=np.uint64)
    arr = uniform_array(prefix, ts, 3, 5)
    ref = np.array([uniform(77, ENV_STREAM, int(t), 3, 5) for t in ts])
    np.testing.assert_array_equal(arr, ref)


def test_vectorized_over_arms():
    prefix = stream_prefix(77, ENV_STREAM)
    arms = np.arange(6, dtype=np.uint64)
    arr = uniform_array(prefix, 11, 0, arms)
    ref = np.array([uniform(77, ENV_STREAM, 11, 0, int(k)) for k in arms])
    np.testing.assert_array_equal(arr, ref)


def test_unit_is_the_top_53_bits_of_the_hash():
    """The int64 conversion of the shifted hash is the plain-int
    ``(h >> 11) * 2**-53``, at the edges of the range and in between,
    into a fresh array, into ``out`` and as a 0-d scalar."""
    rng = np.random.default_rng(5)
    hashes = [0, 2**11 - 1, 2**11, 2**63 - 1, 2**63, 2**64 - 1,
              *(int(h) for h in rng.integers(0, 2**64, 500, dtype=np.uint64))]
    want = [(h >> 11) * _INV_2_53 for h in hashes]
    h = np.array(hashes, dtype=np.uint64)
    assert _unit(h.copy()).tolist() == want
    out = np.full(h.shape, np.nan)
    assert _unit(h.copy(), out) is out
    assert out.tolist() == want
    assert want[1] == 0.0 and want[5] == 1.0 - 2.0**-53
    for hash_, value in zip(hashes[:6], want):
        scalar = _unit(np.array(hash_, dtype=np.uint64))
        assert type(scalar) is np.float64 and scalar == value


def test_numba_hash_matches_plain_int():
    """The loop kernel's hash, compiled or (without numba) run as plain
    Python on numpy scalars, whose wraparound warns unless silenced."""
    cases = [(0, 1, 0, 0), (42, 17, 1, 2), (9, 10**6, 3, 7),
             (2**63 + 5, 2**40, 63, 4095)]
    for seed, t, a, k in cases:
        prefix = stream_prefix(seed, ENV_STREAM)
        with np.errstate(over="ignore"):
            drawn = _uniform_nb(np.uint64(prefix), t, a, k)
        assert drawn == uniform(seed, ENV_STREAM, t, a, k)


@given(seed=st.integers(0, 2**63 - 1), stream=st.integers(0, 3),
       t=st.integers(1, 2**40), agent=st.integers(0, 1000),
       arm=st.integers(0, 1000))
@settings(max_examples=200, deadline=None)
def test_scalar_vector_agree_everywhere(seed, stream, t, agent, arm):
    prefix = stream_prefix(seed, stream)
    scalar = uniform(seed, stream, t, agent, arm)
    vector = float(uniform_array(prefix, t, agent, arm))
    assert scalar == vector
    assert 0.0 <= scalar < 1.0


def test_mix64_is_a_bijection_sample():
    xs = list(range(1000)) + [2**64 - 1 - i for i in range(1000)]
    assert len({mix64(x) for x in xs}) == len(xs)


def test_mean_is_roughly_half():
    prefix = stream_prefix(5, ENV_STREAM)
    ts = np.arange(1, 100001, dtype=np.uint64)
    vals = uniform_array(prefix, ts, 0, 0)
    assert abs(vals.mean() - 0.5) < 0.005
