from hypothesis import given, strategies as st

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


def test_data_becomes_a_bytearray_and_enables_become_bytes():
    p = GenericPayload(command=Command.WRITE, data=b"\x01\x02", byte_enables=bytearray(b"\xff\x00"))
    assert type(p.data) is bytearray and p.data == b"\x01\x02"
    assert type(p.byte_enables) is bytes and p.byte_enables == b"\xff\x00"
