"""Picosecond time base: checked 64-bit arithmetic, unit parsing, display.

All simulated time is an unsigned 64-bit count of picoseconds.  Arithmetic
that would leave that range raises instead of wrapping.  Text forms carry
explicit units ("10ns", "500ps", "4GHz") so nanosecond/picosecond confusion
cannot silently creep into a description file.
"""

from __future__ import annotations

import re
from fractions import Fraction

U64_MAX = 2**64 - 1

_TIME_UNITS_PS = {
    "ps": 1,
    "ns": 10**3,
    "us": 10**6,
    "ms": 10**9,
    "s": 10**12,
}

_FREQ_UNITS_GHZ = {
    "GHz": Fraction(1),
    "MHz": Fraction(1, 10**3),
    "kHz": Fraction(1, 10**6),
    "Hz": Fraction(1, 10**9),
}

# Digits are ASCII only: \d would also take other scripts' digits, which int() accepts.
_TIME_RE = re.compile(r"^\s*([0-9]+)(?:\.([0-9]+))?\s*(ps|ns|us|ms|s)\s*$")
_RATIONAL = r"^\s*([0-9]+(?:\.[0-9]+)?|[0-9]+\s*/\s*[0-9]+)\s*"
_FREQ_RE = re.compile(_RATIONAL + r"(GHz|MHz|kHz|Hz)\s*$")
_RATIONAL_RE = re.compile(_RATIONAL + "$")


class TimeOverflowError(OverflowError):
    """A time value left the unsigned 64-bit picosecond range."""


def check_time(ps: int) -> int:
    """Validate one time value; returns it unchanged."""
    if not isinstance(ps, int) or isinstance(ps, bool):
        raise TypeError(f"time must be an int picosecond count, got {ps!r}")
    if ps < 0:
        raise TimeOverflowError(f"negative time: {ps} ps")
    if ps > U64_MAX:
        raise TimeOverflowError(f"{ps} ps exceeds the unsigned 64-bit range")
    return ps


def time_add(a: int, b: int) -> int:
    """Checked addition; overflow is a hard error, never a silent wrap."""
    total = a + b
    if total > U64_MAX:
        raise TimeOverflowError(f"{a} ps + {b} ps exceeds the unsigned 64-bit range")
    return total


def parse_time(text: str) -> int:
    """Parse "10ns" / "500ps" / "1.5us" into picoseconds.

    The value must come out as a whole number of picoseconds: the digits with
    the point dropped, times the unit, must divide by ten to the count of
    fraction digits.  ``int()`` reads the whole and the fraction digits apart,
    so only an overlong part meets its digit limit, with its own message.
    """
    m = _TIME_RE.match(text)
    if m is None:
        raise ValueError(f"bad time {text!r}: expected <number><ps|ns|us|ms|s>")
    whole, frac, unit = m.groups("")
    scale = 10 ** len(frac)
    ps, rest = divmod((int(whole) * scale + int(frac or "0")) * _TIME_UNITS_PS[unit], scale)
    if rest:
        raise ValueError(f"bad time {text!r}: not a whole number of picoseconds")
    return check_time(ps)


def format_time(ps: int) -> str:
    """Canonical text form, always in picoseconds (round-trips exactly)."""
    return f"{ps}ps"


def format_ns(ps: int) -> str:
    """Display form in nanoseconds with up to three decimal places."""
    whole, frac = divmod(ps, 1000)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:03d}".rstrip("0")


def _parse_rational(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/")
        den_i = int(den)
        if den_i == 0:
            raise ValueError("zero denominator")
        return Fraction(int(num), den_i)
    return Fraction(text)


def parse_frequency_ghz(text: str) -> Fraction:
    """Parse "4GHz" / "250MHz" / "1/3GHz" into an exact GHz rational."""
    m = _FREQ_RE.match(text)
    if m is None:
        raise ValueError(f"bad frequency {text!r}: expected <number><GHz|MHz|kHz|Hz>")
    value = _parse_rational(m.group(1).replace(" ", "")) * _FREQ_UNITS_GHZ[m.group(2)]
    if value <= 0:
        raise ValueError(f"bad frequency {text!r}: must be positive")
    return value


def format_frequency_ghz(f: Fraction) -> str:
    return format_rational(f) + "GHz"


def parse_rational(text: str) -> Fraction:
    """Parse a plain rational like "512", "0.5" or "1/3" (used for bandwidth)."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"bad rational {text!r}")
    return _parse_rational(m.group(1).replace(" ", ""))


def format_rational(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
