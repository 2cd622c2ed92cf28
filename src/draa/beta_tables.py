"""The Beta reward model's inverse-CDF tables, kept in the user's cache.

Row k of a (K, N) table holds arm k's quantiles, the regularized
incomplete-beta inverse ``scipy.special.betaincinv``, on N evenly spaced
probabilities.  A table is stored as ``<cache>/draa/beta-<key>.npy``
(:func:`cache_path`), so only the first process on a machine imports
scipy and builds it; every later one loads the same bits.  A file is
the table's ``.npy`` followed by the sha256 of its data, and is read
only if its header names the expected shape and dtype and the digest
matches; it is written through a temporary file and a rename.  A cache
that cannot be read or written only costs the build.  Both digests use
the interpreter's built-in SHA-256, so a process that loads a table maps
no OpenSSL.

:mod:`draa.model` imports this module when a Beta instance first needs
its table, so a Bernoulli run neither imports nor compiles it.
"""
from __future__ import annotations

import importlib.util
import os
import platform
import tempfile
from pathlib import Path

import numpy as np

# the interpreter's own SHA-256, as the standard library's random picks
# its sha512: hashlib would map OpenSSL's libcrypto to hash one table
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

#: resolution of the tables
_TABLE_SIZE = 4097


def beta_table(means: np.ndarray, concentration: float) -> np.ndarray:
    """The (K, N) table of ``means`` at ``concentration``, from the cache
    when a valid file is there, else built and stored for the next
    process."""
    path = cache_path(means, concentration)
    shape = (len(means), _TABLE_SIZE)
    table = None if path is None else _load(path, shape)
    if table is None:
        table = _build(means, concentration)
        if path is not None:
            _store(path, table)
    return table


def _build(means: np.ndarray, nu: float) -> np.ndarray:
    from scipy.special import betaincinv

    grid = np.linspace(0.0, 1.0, _TABLE_SIZE)
    table = np.empty((len(means), _TABLE_SIZE))
    for k, mu in enumerate(means):
        if mu <= 0.0 or mu >= 1.0:
            table[k] = mu  # degenerate: constant reward
        else:
            table[k] = betaincinv(mu * nu, (1.0 - mu) * nu, grid)
    return table


def cache_path(means: np.ndarray, concentration: float) -> Path | None:
    """Where the table of ``means`` at ``concentration`` is cached:
    ``<cache>/draa/beta-<key>.npy``, with ``<cache>`` the absolute
    ``$XDG_CACHE_HOME`` or else ``~/.cache``.

    The key is a sha256 over everything the table's bits depend on: the
    source of this module (so any change to how a table is built or
    stored makes new keys), the table size, the concentration and means
    as float64 bytes, numpy's version (its ``linspace`` makes the grid),
    the scipy installation (its resolved directory and the bytes of its
    ``version.py``, which name the git revision; read without importing
    scipy) and the machine architecture.  None when there is no cache:
    this module's source, scipy or its ``version.py`` cannot be read, or
    no absolute cache directory is known.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    scipy_dir = os.path.dirname(os.path.realpath(spec.origin))
    try:
        source = Path(__file__).read_bytes()
        with open(os.path.join(scipy_dir, "version.py"), "rb") as fh:
            scipy_version = fh.read()
    except OSError:
        return None
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(root):
            return None
    key = sha256()
    for part in (source, str(_TABLE_SIZE).encode(),
                 np.float64(concentration).tobytes(),
                 np.asarray(means, dtype=np.float64).tobytes(),
                 np.__version__.encode(), os.fsencode(scipy_dir),
                 scipy_version, platform.machine().encode()):
        key.update(len(part).to_bytes(8, "little"))
        key.update(part)
    return Path(root, "draa", f"beta-{key.hexdigest()}.npy")


def _load(path: Path, shape: tuple[int, int]) -> np.ndarray | None:
    """The C-ordered float64 array of ``shape`` that the file at ``path``
    holds, or None if the file is missing or unreadable, or holds
    anything but that array's ``.npy`` and the sha256 of its data.  The
    header is checked before any data is read."""
    fmt = np.lib.format
    table = np.empty(shape)
    try:
        with open(path, "rb") as fh:
            if (fmt.read_magic(fh) != (1, 0)
                    or fmt.read_array_header_1_0(fh)
                    != (shape, False, np.dtype(np.float64))
                    or fh.readinto(table.data.cast("B")) != table.nbytes
                    or fh.read() != sha256(table).digest()):
                return None
    except (OSError, ValueError):
        return None
    return table


def _store(path: Path, table: np.ndarray) -> None:
    """Write ``table`` and its digest to ``path`` through a unique
    temporary file in the same directory, then rename it into place, so
    that a concurrent reader sees the old file or the whole new one.  A
    cache that cannot be written is skipped."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, temporary = tempfile.mkstemp(dir=path.parent, prefix=".beta-",
                                         suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, table, allow_pickle=False)
            fh.write(sha256(table).digest())
        os.replace(temporary, path)
    except OSError:
        try:
            os.unlink(temporary)
        except OSError:
            pass
