"""Exception types, and the readers through which every config value is
checked once, when the config loads (a bad value exits with code 2)."""
import math
import numbers
import os


class DraaError(Exception):
    """Base class for package errors."""


class ConfigError(DraaError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


def checked(name: str, value, kind=float, lo=-math.inf, hi=math.inf, *,
            strict: bool = False):
    """``value`` as a ``kind`` (``int`` or ``float``) in [lo, hi], or in (lo,
    hi) if ``strict``; booleans, strings, non-finite values, fractional
    ints and values out of range raise :class:`ConfigError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        hint = _exponent_hint(value) if isinstance(value, str) else ""
        raise ConfigError(f"{name} must be a number, got {value!r}{hint}")
    try:
        number = kind(value)
    except (OverflowError, ValueError):  # int(nan), float(10**400)
        number = math.nan
    if not (number == value if kind is int else math.isfinite(number)):
        what = "an integer" if kind is int else "finite"
        raise ConfigError(f"{name} must be {what}, got {value}")
    if (lo < number < hi) if strict else (lo <= number <= hi):
        return number
    if hi == math.inf:
        op = ">" if strict else ">="
        need = f"{op} {lo}" if lo else "positive" if strict else "nonnegative"
        raise ConfigError(f"{name} must be {need}, got {number}")
    span = f"({lo}, {hi})" if strict else f"[{lo}, {hi}]"
    raise ConfigError(f"{name} {number} out of range {span}" if kind is int
                      else f"{name} outside {span}, got {number}")


def _exponent_hint(text: str) -> str:
    """How to write ``text`` if it is a finite number with an exponent that
    YAML 1.1 reads as a string (it needs a dot in the mantissa and a sign
    in the exponent, as in ``1.0e+4``); else ''."""
    mantissa, e, exponent = text.lower().partition("e")
    dot = "" if "." in mantissa else ".0"
    sign = "" if exponent[:1] in ("+", "-") else "+"
    try:
        number = float(text)
    except ValueError:
        return ""
    if not e or not (dot or sign) or not math.isfinite(number):
        return ""  # no exponent, a quoted YAML float, or too large
    from decimal import Decimal  # off the CLI's import path
    exact = number.is_integer() and Decimal(text) == number  # as written
    plain = f"{int(number)} or " if exact else ""
    return (f" (YAML 1.1 reads this as text; "
            f"write {plain}{mantissa}{dot}e{sign}{exponent})")


def checked_as(name: str, value, kind):
    """``value`` if it is a ``kind``: ``dict`` (a section), ``list`` or
    ``str``."""
    if not isinstance(value, kind):
        what = "mapping" if kind is dict else kind.__name__
        raise ConfigError(f"{name} must be a {what}, got {value!r}")
    return value


def checked_entry(name: str, value) -> str:
    """``value`` if it is a string that names one directory entry: not
    empty, not ``.`` or ``..``, without ``/`` or NUL, and at most 255
    bytes long as ``os.fsencode`` encodes it (a lone surrogate fails)."""
    try:
        if (isinstance(value, str) and value not in ("", ".", "..")
                and "/" not in value and "\0" not in value
                and len(os.fsencode(value)) <= 255):
            return value
    except UnicodeEncodeError:
        pass
    raise ConfigError(f"{name} must name one directory entry, got {value!r}")


def checked_keys(name: str, section: dict, allowed) -> None:
    """Raise :class:`ConfigError` naming the keys of ``section`` that are
    not in ``allowed``, sorted as strings, if there are any."""
    unknown = sorted(set(section) - set(allowed), key=str)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")


class InvariantError(DraaError):
    """An internal invariant was violated (maps to CLI exit code 3)."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        msg = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(msg)
