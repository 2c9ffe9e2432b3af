from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from protocol_table import all_sequences, table_legal

from tlmforge.components import ModelContext, RouterModel, RouterSpec, TargetModel, TargetSpec
from tlmforge.kernel import QuantumKeeper, Scheduler
from tlmforge.payload import Command, GenericPayload, Phase, ResponseStatus
from tlmforge.transport import (
    IDLE,
    Direction,
    ProtocolError,
    ProtocolState,
    SyncStatus,
    nb_step,
    protocol_legal,
)

FW, BW = Direction.FORWARD, Direction.BACKWARD


def make_target(base=0, size=8, delay=20_000, freq=4, dmi=False, fill=0):
    spec = TargetSpec("T", (delay,), base, size, fill, dmi)
    ctx = ModelContext(scheduler=Scheduler())
    return TargetModel("t0", spec, Fraction(freq), ctx)


# -- non-blocking phase machine ----------------------------------------------


def test_begin_req_opens_request():
    status, state = nb_step(IDLE, FW, Phase.BEGIN_REQ)
    assert status is SyncStatus.ACCEPTED
    assert state.outstanding_request and not state.outstanding_response


def test_second_begin_req_is_protocol_error():
    _, state = nb_step(IDLE, FW, Phase.BEGIN_REQ)
    status, after = nb_step(state, FW, Phase.BEGIN_REQ)
    assert isinstance(status, ProtocolError)
    assert status.code == "E-PROTO"
    assert after == state  # unchanged


def test_early_completion_returns_to_idle():
    status, state = nb_step(IDLE, FW, Phase.BEGIN_REQ, reply=SyncStatus.COMPLETED)
    assert status is SyncStatus.COMPLETED
    assert not state.outstanding_request and not state.outstanding_response
    # a fresh transaction is legal immediately afterwards
    status, _ = nb_step(state, FW, Phase.BEGIN_REQ)
    assert status is SyncStatus.ACCEPTED


def test_end_resp_always_completes():
    state = IDLE
    for direction, phase in [(FW, Phase.BEGIN_REQ), (BW, Phase.END_REQ),
                             (BW, Phase.BEGIN_RESP)]:
        status, state = nb_step(state, direction, phase)
        assert not isinstance(status, ProtocolError)
    status, state = nb_step(state, FW, Phase.END_RESP)
    assert status is SyncStatus.COMPLETED
    assert state == ProtocolState(False, False, Phase.END_RESP)


def test_phase_after_completion_only_begin_req():
    _, state = nb_step(IDLE, FW, Phase.BEGIN_REQ, reply=SyncStatus.COMPLETED)
    for direction, phase in [(BW, Phase.END_REQ), (BW, Phase.BEGIN_RESP),
                             (FW, Phase.END_RESP)]:
        status, _ = nb_step(state, direction, phase)
        assert isinstance(status, ProtocolError)


def test_protocol_legal_examples():
    assert protocol_legal([(FW, Phase.BEGIN_REQ), (BW, Phase.END_REQ),
                           (BW, Phase.BEGIN_RESP), (FW, Phase.END_RESP)])
    assert not protocol_legal([(FW, Phase.BEGIN_RESP)])  # BEGIN_RESP is backward-only
    assert protocol_legal([])
    # implicit END_REQ: response straight after the request
    assert protocol_legal([(FW, Phase.BEGIN_REQ), (BW, Phase.BEGIN_RESP),
                           (FW, Phase.END_RESP)])


def test_exhaustive_agreement_with_hand_table():
    sequences = list(all_sequences(4))
    assert len(sequences) == 1 + 8 + 64 + 512 + 4096
    for seq in sequences:
        assert protocol_legal(seq) == table_legal(seq), seq


def test_accepted_set_is_exactly_the_decided_one():
    BQ, EQ, BR, ER = ((FW, Phase.BEGIN_REQ), (BW, Phase.END_REQ),
                      (BW, Phase.BEGIN_RESP), (FW, Phase.END_RESP))
    expected = {
        (),
        (BQ,),
        (BQ, EQ), (BQ, BR),
        (BQ, EQ, BR), (BQ, BR, ER),
        (BQ, EQ, BR, ER), (BQ, BR, ER, BQ),
    }
    accepted = {tuple(seq) for seq in all_sequences(4) if protocol_legal(seq)}
    assert accepted == expected


# -- blocking transport -------------------------------------------------------


def test_b_transport_scales_delay_and_sets_ok():
    target = make_target(size=64, delay=20_000, freq=4)
    p = GenericPayload(command=Command.WRITE, address=0, data=bytearray(4))
    t = target.b_transport(0, p, 0)
    assert t == 5_000
    assert p.response_status is ResponseStatus.OK


def test_b_transport_out_of_range_sets_address_error_and_charges_delay():
    target = make_target(size=8, delay=20_000, freq=4)
    p = GenericPayload(command=Command.READ, address=100, data=bytearray(4))
    t = target.b_transport(0, p, 0)
    assert t == 5_000
    assert p.response_status is ResponseStatus.ADDRESS_ERROR


def test_b_transport_ignore_leaves_storage_untouched():
    target = make_target(size=8, fill=0x5A)
    p = GenericPayload(command=Command.IGNORE, address=0, data=bytearray(b"\x00\x00"))
    t = target.b_transport(0, p, 0)
    assert t == 5_000
    assert p.response_status is ResponseStatus.OK
    assert bytes(target.storage.data) == b"\x5a" * 8


@pytest.mark.parametrize("command", [Command.WRITE, Command.READ])
def test_a_negative_data_length_is_a_burst_error_that_resizes_no_buffer(command):
    target = make_target(size=8, fill=0x5A)
    p = GenericPayload(command=command, address=0, data=bytearray(b"abcdefgh"),
                       data_length=-4, streaming_width=2)
    target.b_transport(0, p, 0)
    assert p.response_status is ResponseStatus.BURST_ERROR
    assert bytes(target.storage.data) == b"\x5a" * 8
    assert bytes(p.data) == b"abcdefgh"


@pytest.mark.parametrize("data_length", [-4, -4000])
def test_a_negative_data_length_moves_no_byte_through_a_bandwidth_limited_target(data_length):
    """The transfer time of a negative length used to be subtracted from the hop:
    -4 bytes at 1 byte/ns after a 1 ns delay ended at -3000 ps."""
    ctx = ModelContext(scheduler=Scheduler())
    spec = TargetSpec("T", (1_000,), 0, 8, 0x5A, bandwidth=Fraction(1))
    target = TargetModel("t0", spec, Fraction(1), ctx)
    p = GenericPayload(command=Command.WRITE, address=0, data=bytearray(b"abcdefgh"),
                       data_length=data_length, streaming_width=2)
    assert target.b_transport(0, p, 0) == 1_000
    assert p.response_status is ResponseStatus.BURST_ERROR
    assert bytes(target.storage.data) == b"\x5a" * 8 and bytes(p.data) == b"abcdefgh"
    (row,) = ctx.records
    assert row.start <= row.end == 1_000


@pytest.mark.parametrize("data_length", [-4, -4000])
def test_a_negative_data_length_moves_no_byte_through_a_bandwidth_limited_router(data_length):
    ctx = ModelContext(scheduler=Scheduler())
    router = RouterModel("r0", RouterSpec("R", 1_000, 1, 1, {0: (0,)}, bandwidth=Fraction(1)),
                         Fraction(1), ctx)
    target = TargetModel("t0", TargetSpec("T", (1_000,), 0, 8, 0x5A), Fraction(1), ctx)
    router.out_bindings = {0: [(target, 0)]}
    router.connect(0)
    p = GenericPayload(command=Command.READ, address=0, data=bytearray(b"abcdefgh"),
                       data_length=data_length, streaming_width=2)
    assert router.b_transport(0, p, 0) == 2_000
    assert p.response_status is ResponseStatus.BURST_ERROR
    assert bytes(target.storage.data) == b"\x5a" * 8 and bytes(p.data) == b"abcdefgh"
    assert [(r.instance, r.start, r.end) for r in ctx.records] == [("t0", 1_000, 2_000),
                                                                   ("r0", 0, 1_000)]


def test_b_transport_never_leaves_incomplete():
    target = make_target(size=8)
    bad = GenericPayload(command=Command.WRITE, data=bytearray(4), streaming_width=3)
    target.b_transport(0, bad, 0)
    assert bad.response_status is ResponseStatus.BURST_ERROR
    bad_enable = GenericPayload(command=Command.WRITE, data=bytearray(2),
                                byte_enables=b"\x10\xff")
    target.b_transport(0, bad_enable, 0)
    assert bad_enable.response_status is ResponseStatus.BYTE_ENABLE_ERROR


# -- direct memory interface --------------------------------------------------


def test_dmi_grant_covers_whole_storage():
    target = make_target(base=0x100, size=32, delay=20_000, freq=4, dmi=True)
    desc = target.get_dmi(0x110)
    assert desc.granted
    assert (desc.start_address, desc.end_address) == (0x100, 0x11F)
    assert desc.read_latency_ps == desc.write_latency_ps == 5_000
    assert desc.storage is target.storage


def test_dmi_denied_out_of_range():
    target = make_target(base=0x100, size=32, dmi=True)
    desc = target.get_dmi(0x200)
    assert not desc.granted
    assert (desc.start_address, desc.end_address) == (0x100, 0x11F)


def test_dmi_denied_when_disabled():
    target = make_target(base=0x100, size=32, dmi=False)
    assert not target.get_dmi(0x110).granted


def test_dmi_reads_match_transport_reads():
    target = make_target(size=16, dmi=True)
    seed = GenericPayload(command=Command.WRITE, address=0,
                          data=bytearray(range(16)))
    target.b_transport(0, seed, 0)

    via_transport = GenericPayload(command=Command.READ, address=4, data=bytearray(8))
    target.b_transport(0, via_transport, 0)

    desc = target.get_dmi(4)
    offset = 4 - desc.storage.base
    via_dmi = bytes(desc.storage.data[offset:offset + 8])
    assert via_dmi == bytes(via_transport.data)


# -- debug transport ----------------------------------------------------------


def test_debug_read_in_range():
    target = make_target(size=8, fill=0xAB)
    p = GenericPayload(command=Command.READ, address=2, data=bytearray(4))
    assert target.transport_dbg(p) == 4
    assert bytes(p.data) == b"\xab" * 4


def test_debug_read_truncates_at_end_of_storage():
    target = make_target(size=8)
    p = GenericPayload(command=Command.READ, address=6, data=bytearray(4))
    assert target.transport_dbg(p) == 2


def test_debug_past_end_returns_zero():
    target = make_target(size=8)
    p = GenericPayload(command=Command.READ, address=8, data=bytearray(4))
    assert target.transport_dbg(p) == 0


def test_debug_write_ignores_enables_and_streaming():
    target = make_target(size=8)
    p = GenericPayload(command=Command.WRITE, address=0, data=bytearray(b"\x01\x02\x03\x04"),
                       streaming_width=2, byte_enables=b"\x00")
    assert target.transport_dbg(p) == 4
    assert bytes(target.storage.data[:4]) == b"\x01\x02\x03\x04"


def test_debug_access_never_resizes_either_buffer():
    """A data_length past the payload buffer moves only the bytes the buffer holds."""
    target = make_target(size=64, fill=0x5A)
    write = GenericPayload(command=Command.WRITE, address=0, data=bytearray(b"ab"), data_length=4)
    assert target.transport_dbg(write) == 2
    assert (len(target.storage.data), target.storage.end) == (64, 64)
    assert bytes(target.storage.data[:3]) == b"ab\x5a"
    read = GenericPayload(command=Command.READ, address=8, data=bytearray(b"xy"), data_length=4)
    assert target.transport_dbg(read) == 2
    assert bytes(read.data) == b"\x5a\x5a"


@given(command=st.sampled_from([Command.READ, Command.WRITE]), address=st.integers(0, 20),
       buffer=st.binary(max_size=8), data_length=st.integers(-2, 12))
def test_debug_access_moves_what_both_buffers_hold(command, address, buffer, data_length):
    target = make_target(base=4, size=8, fill=0x11)
    p = GenericPayload(command=command, address=address, data=bytearray(buffer),
                       data_length=data_length)
    before_storage, before_data = bytes(target.storage.data), bytes(p.data)
    moved = target.transport_dbg(p)
    inside = 4 <= address < 12
    assert moved == (max(0, min(data_length, len(buffer), 12 - address)) if inside else 0)
    assert (len(target.storage.data), len(p.data)) == (8, len(buffer))
    offset = address - 4
    if command is Command.READ:
        assert bytes(p.data) == before_storage[offset:offset + moved] + before_data[moved:]
        assert bytes(target.storage.data) == before_storage
    else:
        expected = before_storage[:offset] + before_data[:moved] + before_storage[offset + moved:]
        assert bytes(target.storage.data) == (expected if moved else before_storage)
        assert bytes(p.data) == before_data


def test_debug_consumes_zero_simulated_time():
    target = make_target(size=8)
    sched = target.ctx.scheduler
    qk = QuantumKeeper(1000)
    qk.advance(123)
    before = (sched.now, qk.local_offset)
    p = GenericPayload(command=Command.READ, address=0, data=bytearray(8))
    target.transport_dbg(p)
    assert (sched.now, qk.local_offset) == before


def test_protocol_error_text_names_the_step_and_the_state():
    _, state = nb_step(IDLE, FW, Phase.BEGIN_REQ)
    status, _ = nb_step(state, FW, Phase.BEGIN_REQ)
    assert str(status) == ("E-PROTO: fw BEGIN_REQ illegal (outstanding_request=True, "
                           "outstanding_response=False, last_phase=Phase.BEGIN_REQ)")
