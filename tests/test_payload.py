from hypothesis import given, strategies as st

from tlmforge.payload import (
    Command,
    GenericPayload,
    ResponseStatus,
    deep_copy_payload,
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


def test_deep_copy_equal_except_status():
    p = GenericPayload(command=Command.WRITE, address=0x10, data=bytearray(b"ab"),
                       extensions={"vendor.tag": [1, 2]})
    p.response_status = ResponseStatus.OK
    c = deep_copy_payload(p)
    assert c is not p
    assert c.response_status is ResponseStatus.INCOMPLETE
    assert (c.command, c.address, bytes(c.data)) == (p.command, p.address, bytes(p.data))
    assert c.extensions == {"vendor.tag": [1, 2]}


def test_deep_copy_is_storage_disjoint():
    p = GenericPayload(command=Command.WRITE, data=bytearray(b"\x00\x00"),
                       extensions={"vendor.tag": [1]})
    c = deep_copy_payload(p)
    c.data[0] = 0xAA
    c.extensions["vendor.tag"].append(2)
    assert p.data[0] == 0x00
    assert p.extensions["vendor.tag"] == [1]
    p.data[1] = 0xBB
    assert c.data[1] == 0x00


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


@given(valid_payloads())
def test_deep_copy_round_trip(p):
    c = deep_copy_payload(p)
    assert bytes(c.data) == bytes(p.data)
    assert c.byte_enables == p.byte_enables
    assert (c.data_length, c.streaming_width, c.byte_enable_length) == (
        p.data_length, p.streaming_width, p.byte_enable_length)
    assert c.extensions == p.extensions
    if p.data:
        c.data[0] ^= 0xFF
        assert bytes(c.data) != bytes(p.data)


def test_data_becomes_a_bytearray_and_enables_become_bytes():
    p = GenericPayload(command=Command.WRITE, data=b"\x01\x02", byte_enables=bytearray(b"\xff\x00"))
    assert type(p.data) is bytearray and p.data == b"\x01\x02"
    assert type(p.byte_enables) is bytes and p.byte_enables == b"\xff\x00"
