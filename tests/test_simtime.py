import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tlmforge.simtime import (
    U64_MAX,
    TimeOverflowError,
    check_time,
    format_frequency_ghz,
    format_ns,
    format_time,
    parse_frequency_ghz,
    parse_rational,
    parse_time,
    time_add,
)


@pytest.mark.parametrize("text,ps", [
    ("10ns", 10_000),
    ("500ps", 500),
    ("1us", 1_000_000),
    ("1.5ns", 1_500),
    ("0.5ns", 500),
    ("0ps", 0),
    ("1ms", 10**9),
    ("1s", 10**12),
])
def test_parse_time(text, ps):
    assert parse_time(text) == ps


@pytest.mark.parametrize("text", ["10", "10 xs", "0.3ps", "-4ns", "ns", ""])
def test_parse_time_rejects(text):
    with pytest.raises(ValueError):
        parse_time(text)


def test_format_ns():
    assert format_ns(16_000) == "16"
    assert format_ns(16_500) == "16.5"
    assert format_ns(1) == "0.001"
    assert format_ns(0) == "0"
    assert format_ns(12_345) == "12.345"


def test_time_add_overflow():
    assert time_add(1, 2) == 3
    with pytest.raises(TimeOverflowError):
        time_add(U64_MAX, 1)


def test_check_time_bounds():
    assert check_time(0) == 0
    assert check_time(U64_MAX) == U64_MAX
    with pytest.raises(TimeOverflowError):
        check_time(-1)
    with pytest.raises(TimeOverflowError):
        check_time(U64_MAX + 1)
    with pytest.raises(TypeError):
        check_time(1.0)


@pytest.mark.parametrize("text,ghz", [
    ("4GHz", Fraction(4)),
    ("250MHz", Fraction(1, 4)),
    ("1/3GHz", Fraction(1, 3)),
    ("0.5GHz", Fraction(1, 2)),
    ("1000MHz", Fraction(1)),
])
def test_parse_frequency(text, ghz):
    assert parse_frequency_ghz(text) == ghz


@pytest.mark.parametrize("text", ["-1", "4", "0GHz", "1/0GHz", "GHz"])
def test_parse_frequency_rejects(text):
    with pytest.raises(ValueError):
        parse_frequency_ghz(text)


def test_parse_rational():
    assert parse_rational("512") == Fraction(512)
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational("1/3") == Fraction(1, 3)


@given(st.integers(0, U64_MAX))
def test_time_round_trip(ps):
    assert parse_time(format_time(ps)) == ps


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1000)))
def test_frequency_round_trip(f):
    assert parse_frequency_ghz(format_frequency_ghz(f)) == f


@pytest.mark.parametrize("parse,text", [
    (parse_time, "١٠ns"), (parse_time, "1.٥ns"), (parse_time, "²ps"),
    (parse_frequency_ghz, "١GHz"), (parse_frequency_ghz, "1/٣GHz"), (parse_frequency_ghz, "٣/1GHz"),
    (parse_rational, "٣"), (parse_rational, "1/٣"), (parse_rational, "0.٥"),
])
def test_numbers_take_ascii_digits_only(parse, text):
    with pytest.raises(ValueError):
        parse(text)


_REFERENCE_TIME_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(ps|ns|us|ms|s)\s*$")
_UNITS_PS = {"ps": 1, "ns": 10**3, "us": 10**6, "ms": 10**9, "s": 10**12}


def reference_parse_time(text: str) -> int:
    """parse_time as exact Fraction arithmetic: the number times its unit."""
    m = _REFERENCE_TIME_RE.match(text)
    if m is None:
        raise ValueError(f"bad time {text!r}: expected <number><ps|ns|us|ms|s>")
    value = Fraction(m.group(1)) * _UNITS_PS[m.group(2)]
    if value.denominator != 1:
        raise ValueError(f"bad time {text!r}: not a whole number of picoseconds")
    return check_time(int(value))


def outcome(parse, text):
    """The value ``parse`` returns, or the type and message of what it raises."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


digits = st.text("0123456789", min_size=1, max_size=40)
blanks = st.text(" \t\n\r\x0b\x0c\x1c　", max_size=2)


@given(blanks, digits, st.none() | digits, blanks, st.sampled_from(sorted(_UNITS_PS)), blanks)
def test_parse_time_matches_exact_fractions(lead, whole, frac, gap, unit, tail):
    """Every unit, long fraction parts, values that are no whole picosecond and
    values past 2**64 - 1 read as the Fraction reference reads them."""
    text = f"{lead}{whole}{'' if frac is None else '.' + frac}{gap}{unit}{tail}"
    assert outcome(parse_time, text) == outcome(reference_parse_time, text)


@given(st.text(max_size=12))
def test_parse_time_refuses_what_the_reference_refuses(text):
    assert outcome(parse_time, text) == outcome(reference_parse_time, text)


@pytest.mark.parametrize("text", [
    "١٠ns", "1_000ns", "1e3ns", ".5ns", "5.ns", "1/2ns", "+1ns", "1.5.0ns", " 1 . 5 ns",
    # int() refuses a digit string past sys.get_int_max_str_digits() (4300 by default):
    # the whole and fraction parts are read one at a time, so only an overlong part fails.
    "9" * 4301 + "ps", "1." + "5" * 4301 + "ns", "7" * 3000 + "." + "5" * 2000 + "s",
    "1" * 4300 + "." + "0" * 4300 + "ps", "9" * 4295 + "s", "4" * 4300 + "ps",
    str(U64_MAX) + "ps", str(U64_MAX + 1) + "ps", "18446744073709551.615ns",
    "18446744073709551.616ns", "0.000000000001s", "0.0000000000001s",
])
def test_parse_time_matches_exact_fractions_at_the_edges(text):
    assert outcome(parse_time, text) == outcome(reference_parse_time, text)
