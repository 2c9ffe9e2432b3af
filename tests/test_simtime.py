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
