from fractions import Fraction

from hypothesis import given, strategies as st

from tlmforge.components import _INVALID_STATUS, ModelContext, TargetModel, TargetSpec
from tlmforge.kernel import Scheduler
from tlmforge.payload import (
    Command,
    GenericPayload,
    ResponseStatus,
    validate_payload,
)


def codes(p):
    return [d.code for d in validate_payload(p)]


def test_valid_payload_has_no_diagnostics():
    p = GenericPayload(command=Command.WRITE, address=0, data=bytearray(b"\x01\x02\x03\x04"),
                       byte_enables=b"\xff\xff\xff\xff")
    assert validate_payload(p) == []


def test_streaming_width_must_divide():
    p = GenericPayload(command=Command.WRITE, data=bytearray(4), streaming_width=3)
    assert codes(p) == ["E-SW-DIVIDE"]


def test_enable_byte_domain():
    p = GenericPayload(command=Command.WRITE, data=bytearray(2), byte_enables=b"\xff\x7f")
    assert codes(p) == ["E-ENABLE-VALUE"]


def test_data_length_bound():
    p = GenericPayload(command=Command.READ, data=bytearray(2), data_length=4,
                       streaming_width=4)
    assert codes(p) == ["E-DATA-LEN"]


def test_a_negative_data_length_is_refused_even_when_the_width_divides_it():
    p = GenericPayload(command=Command.WRITE, data=bytearray(8), data_length=-4,
                       streaming_width=2)
    assert codes(p) == ["E-DATA-LEN"]


def test_streaming_width_positive():
    p = GenericPayload(command=Command.WRITE, data=bytearray(2), streaming_width=0)
    assert codes(p) == ["E-SW-POSITIVE"]


def test_byte_enable_length_bound():
    p = GenericPayload(command=Command.WRITE, data=bytearray(2), byte_enables=b"\xff\xff",
                       byte_enable_length=3)
    assert codes(p) == ["E-ENABLE-LEN"]
    p = GenericPayload(command=Command.WRITE, data=bytearray(2), byte_enables=b"\xff",
                       byte_enable_length=0)
    assert codes(p) == ["E-ENABLE-LEN"]


def test_diagnostics_name_the_offending_field():
    p = GenericPayload(command=Command.WRITE, data=bytearray(4), streaming_width=3)
    (diag,) = validate_payload(p)
    assert diag.where == "streaming_width"


def test_defaults():
    p = GenericPayload(command=Command.READ, data=bytearray(6))
    assert p.data_length == 6
    assert p.streaming_width == 6  # no streaming
    assert p.byte_enable_length == 0
    assert p.response_status is ResponseStatus.INCOMPLETE


@st.composite
def valid_payloads(draw):
    width = draw(st.integers(1, 4))
    beats = draw(st.integers(0, 4))
    length = width * beats
    pad = draw(st.integers(0, 3))
    data = bytearray(draw(st.binary(min_size=length + pad, max_size=length + pad)))
    enables = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from([0x00, 0xFF]), min_size=1, max_size=4).map(bytes)))
    return GenericPayload(
        command=draw(st.sampled_from(list(Command))),
        address=draw(st.integers(0, 2**40)),
        data=data,
        data_length=length,
        streaming_width=width,
        byte_enables=enables,
        extensions={"k": draw(st.integers())} if draw(st.booleans()) else {},
    )


@given(valid_payloads())
def test_valid_payloads_validate_clean(p):
    assert validate_payload(p) == []


@st.composite
def any_payloads(draw):
    """A payload of up to 8 data bytes whose every length and enable may break its rule."""
    return GenericPayload(
        command=draw(st.sampled_from(list(Command))),
        address=draw(st.integers(0, 16)),
        data=draw(st.binary(max_size=8)),
        data_length=draw(st.none() | st.integers(-2, 10)),
        streaming_width=draw(st.none() | st.integers(-1, 9)),
        byte_enables=draw(st.none() | st.binary(max_size=4)),
        byte_enable_length=draw(st.none() | st.integers(0, 5)),
    )


@given(valid_payloads() | any_payloads())
def test_a_target_answers_the_status_validate_payload_decides(p):
    """A target tests the shape every initiator builds inline and asks validate_payload
    about any other, so each payload gets the status of validate_payload's first code,
    with neither buffer touched, or a valid payload OK or ADDRESS_ERROR from storage."""
    target = TargetModel("t0", TargetSpec("T", (1_000,), 0, 8, 0x5A), Fraction(1),
                         ModelContext(scheduler=Scheduler()))
    problems, data = validate_payload(p), bytes(p.data)
    target.b_transport(0, p, 0)
    if problems:
        assert p.response_status is _INVALID_STATUS[problems[0].code]
        assert (bytes(target.storage.data), bytes(p.data)) == (b"\x5a" * 8, data)
    elif p.command is Command.IGNORE:
        assert p.response_status is ResponseStatus.OK
    else:
        assert p.response_status in (ResponseStatus.OK, ResponseStatus.ADDRESS_ERROR)


def test_data_becomes_a_bytearray_and_enables_become_bytes():
    p = GenericPayload(command=Command.WRITE, data=b"\x01\x02", byte_enables=bytearray(b"\xff\x00"))
    assert type(p.data) is bytearray and p.data == b"\x01\x02"
    assert type(p.byte_enables) is bytes and p.byte_enables == b"\xff\x00"
