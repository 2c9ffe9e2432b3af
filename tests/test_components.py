import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from topogen import max_path_latency, random_topology

from tlmforge.components import (
    Binding,
    CpuSpec,
    InitiatorModel,
    InitiatorSpec,
    Instance,
    ModelContext,
    RouterSpec,
    Storage,
    TargetModel,
    TargetSpec,
    TransactionTemplate,
    apply_read,
    apply_write,
    deliver,
    effective_delay,
    transfer_time,
)
from tlmforge.kernel import Scheduler, Wait
from tlmforge.components import TXN_ID_EXTENSION
from tlmforge.payload import Command, GenericPayload, ResponseStatus, validate_payload
from tlmforge.simtime import U64_MAX, TimeOverflowError
from tlmforge.sysdesc import SystemDescription, elaborate
from tlmforge.trace import end_to_end_latency


# -- scalar reference loop (independent oracle over a sparse dict memory) -----


def oracle_write(mem: dict, base: int, size: int, p: GenericPayload):
    mem = dict(mem)
    for i in range(p.data_length):
        addr = p.address + (i % p.streaming_width)
        if not base <= addr < base + size:
            return mem, "ADDRESS_ERROR"
        enabled = (p.byte_enables is None
                   or p.byte_enables[i % p.byte_enable_length] == 0xFF)
        if enabled:
            mem[addr] = p.data[i]
    return mem, "OK"


def oracle_read(mem: dict, base: int, size: int, p: GenericPayload):
    out = list(p.data)
    for i in range(p.data_length):
        addr = p.address + (i % p.streaming_width)
        if not base <= addr < base + size:
            return out, "ADDRESS_ERROR"
        enabled = (p.byte_enables is None
                   or p.byte_enables[i % p.byte_enable_length] == 0xFF)
        if enabled:
            out[i] = mem.get(addr, 0)
    return out, "OK"


def storage_as_dict(storage: Storage) -> dict:
    return {storage.base + i: b for i, b in enumerate(storage.data)}


# -- timing rules --------------------------------------------------------------


@pytest.mark.parametrize("nominal,freq,expected", [
    (10_000, Fraction(1), 10_000),
    (5_000, Fraction(5), 1_000),
    (20_000, Fraction(4), 5_000),
    (0, Fraction(7, 3), 0),
    (5, Fraction(2), 3),        # 2.5 rounds away from zero
    (10, Fraction(3), 3),       # 3.33 rounds to nearest
    (1, Fraction(2), 1),        # 0.5 rounds away from zero
    (7, Fraction(1, 2), 14),    # slow CPU stretches the delay
])
def test_effective_delay(nominal, freq, expected):
    assert effective_delay(nominal, freq) == expected


@given(st.integers(0, 10**9), st.fractions(min_value=Fraction(1, 8), max_value=Fraction(8)))
def test_effective_delay_rounds_to_nearest_ties_away(nominal, freq):
    r = effective_delay(nominal, freq)
    exact = Fraction(nominal) / freq
    assert abs(r - exact) <= Fraction(1, 2)
    if abs(r - exact) == Fraction(1, 2):
        assert r > exact  # ties away from zero (values are non-negative)


def test_effective_delay_identity_at_one_ghz():
    for nominal in (0, 1, 999, 123_456):
        assert effective_delay(nominal, 1) == nominal


@pytest.mark.parametrize("length,bandwidth,expected", [
    (1024, Fraction(512), 2_000),
    (1, Fraction(1000), 1),
    (123, None, 0),
    (5, Fraction(3), 1667),     # ceil(5000/3)
])
def test_transfer_time(length, bandwidth, expected):
    assert transfer_time(length, bandwidth) == expected


# -- storage semantics ---------------------------------------------------------


@pytest.mark.parametrize("size", [0, -1])
def test_storage_size_must_be_positive(size):
    with pytest.raises(ValueError, match="storage size must be positive"):
        Storage(0, size)


def test_write_plain():
    storage = Storage(0, 8)
    p = GenericPayload(command=Command.WRITE, address=2, data=bytearray(b"\xaa\xbb"))
    assert apply_write(storage, p) is ResponseStatus.OK
    assert bytes(storage.data) == b"\x00\x00\xaa\xbb\x00\x00\x00\x00"


def test_write_with_cyclic_enables():
    storage = Storage(0, 8, fill=0xEE)
    p = GenericPayload(command=Command.WRITE, address=0,
                       data=bytearray(b"\x01\x02\x03\x04"),
                       byte_enables=b"\xff\x00", streaming_width=4)
    assert apply_write(storage, p) is ResponseStatus.OK
    assert bytes(storage.data[:4]) == b"\x01\xee\x03\xee"  # bytes 1, 3 untouched


def test_write_streaming_wrap_keeps_last_beat():
    storage = Storage(0, 64)
    p = GenericPayload(command=Command.WRITE, address=0x10,
                       data=bytearray(b"\x0a\x0b\x0c\x0d"), streaming_width=2)
    assert apply_write(storage, p) is ResponseStatus.OK
    assert storage.data[0x10] == 0x0C and storage.data[0x11] == 0x0D


def test_read_plain():
    storage = Storage(0, 3)
    storage.data[:] = b"\x09\x08\x07"
    p = GenericPayload(command=Command.READ, address=0, data=bytearray(2))
    assert apply_read(storage, p) is ResponseStatus.OK
    assert bytes(p.data) == b"\x09\x08"


def test_read_streaming_repeats_one_address():
    storage = Storage(0, 8)
    storage.data[5] = 0x42
    p = GenericPayload(command=Command.READ, address=5, data=bytearray(3),
                       streaming_width=1)
    assert apply_read(storage, p) is ResponseStatus.OK
    assert bytes(p.data) == b"\x42\x42\x42"


def test_read_beyond_storage_is_address_error():
    storage = Storage(0, 4)
    p = GenericPayload(command=Command.READ, address=4, data=bytearray(1))
    assert apply_read(storage, p) is ResponseStatus.ADDRESS_ERROR


def test_partial_write_keeps_applied_beats():
    storage = Storage(0, 3)
    p = GenericPayload(command=Command.WRITE, address=1,
                       data=bytearray(b"\x11\x22\x33"), streaming_width=3)
    assert apply_write(storage, p) is ResponseStatus.ADDRESS_ERROR
    assert bytes(storage.data) == b"\x00\x11\x22"  # beats before the miss stay


@st.composite
def payload_and_storage(draw):
    """A payload of up to 8 beats of a streaming width up to 8, placed
    before the storage base, inside, across its end, or at or past it."""
    width = draw(st.integers(1, 8))
    beats = draw(st.integers(0, 8))
    length = width * beats
    data = bytearray(draw(st.binary(min_size=length, max_size=length)))
    enables = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from([0x00, 0xFF]), min_size=1, max_size=8).map(bytes)))
    enable_length = None if enables is None else draw(st.integers(1, len(enables)))
    command = draw(st.sampled_from([Command.READ, Command.WRITE]))
    base = draw(st.integers(9, 16))
    size = draw(st.integers(1, 16))
    address = base + draw(st.one_of(st.integers(-9, -1), st.integers(0, size - 1),
                                    st.integers(size - width, size + 1)))
    p = GenericPayload(command=command, address=address, data=data, streaming_width=width,
                       byte_enables=enables, byte_enable_length=enable_length)
    return p, base, size, draw(st.integers(0, 255))


def assert_agrees_with_oracle(p, storage):
    base, size = storage.base, storage.size
    mem_before = storage_as_dict(storage)
    if p.command is Command.WRITE:
        status = apply_write(storage, p)
        expected_mem, expected_status = oracle_write(mem_before, base, size, p)
        assert status.value == expected_status
        assert storage_as_dict(storage) == expected_mem
    else:
        status = apply_read(storage, p)
        expected_data, expected_status = oracle_read(mem_before, base, size, p)
        assert status.value == expected_status
        assert list(p.data) == expected_data
        assert storage_as_dict(storage) == mem_before


@given(payload_and_storage())
def test_storage_semantics_agree_with_scalar_oracle(case):
    p, base, size, fill = case
    assert validate_payload(p) == []
    assert_agrees_with_oracle(p, Storage(base, size, fill))


@pytest.mark.parametrize("command", [Command.WRITE, Command.READ])
@pytest.mark.parametrize("width, enables, address", [
    (4096, None, 0x1000), (64, None, 0x1040), (1, None, 0x1FFF),
    (64, b"\xff\x00\x00\xff\xff", 0x1080),
    (4096, None, 0x1800),   # the first chunk runs 2 KiB past the end
])
def test_4_kib_transfers_agree_with_scalar_oracle(command, width, enables, address):
    rng = random.Random(width)
    storage = Storage(0x1000, 0x1000)
    storage.data[:] = rng.randbytes(0x1000)
    p = GenericPayload(command=command, address=address, data=bytearray(rng.randbytes(4096)),
                       streaming_width=width, byte_enables=enables)
    assert_agrees_with_oracle(p, storage)


# -- routing -------------------------------------------------------------------


def routed(connections, address_map=None, address=0):
    """(instance, status) rows of one WRITE from i0 through router r0, whose
    out-socket k is bound to target tk, in the order the rows were recorded."""
    outs = 1 + max(max(v) for v in connections.values())
    desc = SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[InitiatorSpec("I", 1_000, 1,
                               (TransactionTemplate(Command.WRITE, address, b"\x00"),)),
                 RouterSpec("R", 1_000, 1, outs, connections, address_map),
                 TargetSpec("T", (1_000,), 0, 0x1000)],
        instances=[Instance("i0", "I", "C0"), Instance("r0", "R", "C0")]
                  + [Instance(f"t{k}", "T", "C0") for k in range(outs)],
        bindings=[Binding("i0", 0, "r0", 0)] + [Binding("r0", k, f"t{k}", 0) for k in range(outs)])
    model = elaborate(desc)
    model.run()
    return [(r.instance, r.status.value) for r in model.records]


def test_router_broadcasts_to_every_connected_out_in_ascending_order():
    assert routed({0: (3, 0, 2, 1)}) == [
        ("t0", "OK"), ("t1", "OK"), ("t2", "OK"), ("t3", "OK"), ("r0", "OK"), ("i0", "OK")]


def test_router_address_map_picks_one_out():
    rows = routed({0: (0, 1)}, {0: (0x0, 0x100), 1: (0x100, 0x200)}, address=0x120)
    assert rows == [("t1", "OK"), ("r0", "OK"), ("i0", "OK")]


def test_router_unmatched_address_is_an_address_error_row():
    rows = routed({0: (0,)}, {0: (0x0, 0x10)}, address=0x50)
    assert rows == [("r0", "ADDRESS_ERROR"), ("i0", "ADDRESS_ERROR")]


def test_router_repeated_out_delivers_once():
    assert routed({0: (1, 1, 0)}) == [("t0", "OK"), ("t1", "OK"), ("r0", "OK"), ("i0", "OK")]


def reference_route(spec: RouterSpec, in_socket: int, address: int) -> list[int] | None:
    """The router's decode as a linear scan of ``spec.routes``: the outs of the first
    route that holds ``address``, or None when none does (an ADDRESS_ERROR)."""
    for base, limit, outs in spec.routes(in_socket):
        if base <= address < limit:
            return outs
    return None


@st.composite
def address_maps(draw):
    """``(out count, address map or None)``: disjoint non-empty ranges, adjacent or
    with gaps, given to a shuffled subset of the outs; None is a broadcast."""
    outs = draw(st.integers(1, 6))
    if draw(st.integers(0, 4)) == 0:
        return outs, None
    mapped = draw(st.lists(st.sampled_from(range(outs)), unique=True, max_size=outs))
    address_map, cursor = {}, draw(st.sampled_from([0, 1, 0x40]))
    for k, out in enumerate(mapped):
        base = cursor + 16 * draw(st.integers(0, 2))
        last = k == len(mapped) - 1 and draw(st.booleans())
        cursor = 2**64 if last else base + draw(st.integers(1, 48))
        address_map[out] = (base, cursor)
    return outs, address_map


@example(case=(3, None), extra=[])
@example(case=(4, {2: (0x10, 0x20), 0: (0x40, 0x41), 3: (0x41, 2**64)}), extra=[0x30])
@given(case=address_maps(), extra=st.lists(st.integers(0, U64_MAX), max_size=3))
def test_the_router_decodes_as_the_linear_scan_does(case, extra):
    """Each probe goes through the elaborated router alone: the target rows it leaves
    name the reference's outs in order, and the router row is an ADDRESS_ERROR when
    no route holds the address."""
    outs, address_map = case
    spec = RouterSpec("R", 1_000, 1, outs, {0: tuple(range(outs))}, address_map)
    desc = SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[InitiatorSpec("I", 1_000, 1, (TransactionTemplate(Command.WRITE, 0, b"\x00"),)),
                 spec, TargetSpec("T", (1_000,), 0, 1)],
        instances=[Instance("i0", "I", "C0"), Instance("r0", "R", "C0")]
                  + [Instance(f"t{k}", "T", "C0") for k in range(outs)],
        bindings=[Binding("i0", 0, "r0", 0)] + [Binding("r0", k, f"t{k}", 0) for k in range(outs)])
    model = elaborate(desc)
    router = model.instances["r0"]
    edges = [a for base, limit in (address_map or {}).values() for a in (base, limit - 1, limit)]
    for txn, address in enumerate(sorted({0, U64_MAX, *edges, *extra})):
        seen = len(model.records)
        p = GenericPayload(command=Command.WRITE, address=address, data=bytearray(1),
                           extensions={TXN_ID_EXTENSION: txn})
        router.b_transport(0, p, 0)
        rows = model.records[seen:]
        outs_hit = reference_route(spec, 0, address)
        assert [r.instance for r in rows] == [f"t{k}" for k in outs_hit or ()] + ["r0"]
        arms = [r.status for r in rows[:-1] if r.status is not ResponseStatus.OK]
        want = ResponseStatus.ADDRESS_ERROR if outs_hit is None else (arms + [ResponseStatus.OK])[0]
        assert rows[-1].status is want and p.response_status is want
        assert {r.txn_id for r in rows} == {txn}


# -- delivery and fan-out ------------------------------------------------------


def make_target_model(ctx, name, delay_ps, freq=1, size=64, base=0):
    spec = TargetSpec(f"M_{name}", (delay_ps,), base, size, 0, False)
    return TargetModel(name, spec, Fraction(freq), ctx)


def test_single_destination_passes_original_payload():
    ctx = ModelContext(scheduler=Scheduler())
    target = make_target_model(ctx, "t", 1000)
    p = GenericPayload(command=Command.READ, address=0, data=bytearray(4))
    t = deliver([(target, 0)], p, 0)
    assert t == 1000
    assert p.response_status is ResponseStatus.OK


def test_fanout_completes_at_slowest_arm():
    ctx = ModelContext(scheduler=Scheduler())
    fast = make_target_model(ctx, "fast", 3_000)
    slow = make_target_model(ctx, "slow", 9_000)
    p = GenericPayload(command=Command.WRITE, address=0, data=bytearray(2))
    t = deliver([(fast, 0), (slow, 0)], p, 0)
    assert t == 9_000


def test_fanout_copy_isolation():
    ctx = ModelContext(scheduler=Scheduler())
    a = make_target_model(ctx, "a", 0)
    b = make_target_model(ctx, "b", 0)
    p = GenericPayload(command=Command.WRITE, address=0, data=bytearray(b"\x11\x22"))
    deliver([(a, 0), (b, 0)], p, 0)
    assert bytes(a.storage.data[:2]) == b"\x11\x22"
    assert bytes(b.storage.data[:2]) == b"\x11\x22"
    a.storage.data[0] = 0x99
    assert b.storage.data[0] == 0x11


def test_fanout_status_merge_order():
    ctx = ModelContext(scheduler=Scheduler())
    ok = make_target_model(ctx, "ok", 0, size=64)
    tiny = make_target_model(ctx, "tiny", 0, size=1)  # out-of-range arm
    p = GenericPayload(command=Command.WRITE, address=0, data=bytearray(4))
    deliver([(ok, 0), (tiny, 0)], p, 0)
    assert p.response_status is ResponseStatus.ADDRESS_ERROR
    p2 = GenericPayload(command=Command.WRITE, address=0, data=bytearray(4))
    deliver([(tiny, 0), (ok, 0)], p2, 0)
    assert p2.response_status is ResponseStatus.ADDRESS_ERROR


class FixedStatus:
    """A destination that answers every transaction with one status, after ``delay``."""

    def __init__(self, status, delay=0):
        self.status, self.delay = status, delay

    def b_transport(self, in_socket, p, t):
        p.response_status = self.status
        return t + self.delay


def test_fanout_status_is_the_first_non_ok_arm_and_time_the_slowest():
    arms = [FixedStatus(ResponseStatus.OK, 7), FixedStatus(ResponseStatus.BURST_ERROR, 2),
            FixedStatus(ResponseStatus.ADDRESS_ERROR, 9), FixedStatus(ResponseStatus.OK)]
    p = GenericPayload(command=Command.WRITE, address=0, data=bytearray(1))
    assert deliver([(arm, 0) for arm in arms], p, 100) == 109
    assert p.response_status is ResponseStatus.BURST_ERROR


def test_a_hop_whose_end_passes_64_bits_raises_there():
    """Checked once per hop, the end still raises in the hop, before its row is kept."""
    ctx = ModelContext(scheduler=Scheduler())
    target = make_target_model(ctx, "t", 20)
    raised = []

    def probe():
        yield Wait(U64_MAX - 10)
        p = GenericPayload(command=Command.WRITE, address=0, data=bytearray(1))
        with pytest.raises(TimeOverflowError) as info:
            target.b_transport(0, p, 5)
        raised.append(str(info.value))

    ctx.scheduler.schedule(probe())
    ctx.scheduler.run()
    assert raised == [f"{U64_MAX - 10} ps + 25 ps exceeds the unsigned 64-bit range"]
    assert ctx.records == []


# -- whole-model behavior ------------------------------------------------------


def two_node_description(init_delay="0ps", target_delay=0, repeat=1, command=Command.WRITE,
                         socket_delays=(0,), socket=0, length=1):
    from tlmforge.simtime import parse_time

    return SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[
            InitiatorSpec("I", parse_time(init_delay), 1,
                          (TransactionTemplate(command, 0, bytes(length), 0, repeat),)),
            TargetSpec("T", tuple(socket_delays), 0, 64, 0, False),
        ],
        instances=[Instance("i0", "I", "C0"), Instance("t0", "T", "C0")],
        bindings=[Binding("i0", 0, "t0", socket)],
    )


def test_issue_appends_the_completion_record():
    ctx = ModelContext(scheduler=Scheduler())
    target = make_target_model(ctx, "t0", 3_000)
    spec = InitiatorSpec("I", 2_000, 1,
                         (TransactionTemplate(Command.WRITE, 0, b"\x01", 0, 1),))
    init = InitiatorModel("i0", spec, Fraction(1), ctx, quantum_ps=0)
    init.out_bindings[0] = [(target, 0)]
    ctx.scheduler.schedule(init.issue(spec.workload[0]), 0)
    ctx.scheduler.run()
    [record] = [r for r in ctx.records if r.instance == "i0"]
    assert (record.instance, record.start, record.end) == ("i0", 0, 5_000)
    assert record.status is ResponseStatus.OK
    assert record in ctx.records


def test_a_template_that_never_runs_adds_no_time():
    """Its own latency would overflow, but with repeat 0 it is never charged."""
    ctx = ModelContext(scheduler=Scheduler())
    spec = InitiatorSpec("I", U64_MAX, 1, (TransactionTemplate(Command.WRITE, 0, b"\x01", 0, 0),),
                         bandwidth=Fraction(1))
    init = InitiatorModel("i0", spec, Fraction(1), ctx)
    ctx.scheduler.schedule(init.activity(), 0)
    assert ctx.scheduler.run() == 0
    assert ctx.records == []


def test_unknown_extensions_ride_through_delivery():
    ctx = ModelContext(scheduler=Scheduler())
    a = make_target_model(ctx, "a", 0)
    b = make_target_model(ctx, "b", 0)
    p = GenericPayload(command=Command.WRITE, address=0, data=bytearray(1),
                       extensions={"vendor.opaque": {"x": 1}})
    deliver([(a, 0), (b, 0)], p, 0)
    assert p.extensions == {"vendor.opaque": {"x": 1}}


def test_zero_delay_path_completes_in_same_timestamp():
    model = elaborate(two_node_description())
    model.run()
    rec = next(r for r in model.records if r.instance == "i0")
    assert (rec.start, rec.end) == (0, 0)


def test_repeats_run_back_to_back():
    desc = two_node_description(init_delay="3ns", target_delay=0,
                                socket_delays=(2_000,), repeat=2)
    model = elaborate(desc)
    model.run()
    mine = sorted((r for r in model.records if r.instance == "i0"),
                  key=lambda r: r.activation)
    assert [(r.start, r.end) for r in mine] == [(0, 5_000), (5_000, 10_000)]
    assert mine[0].txn_id != mine[1].txn_id


def test_per_socket_target_delay():
    desc = two_node_description(socket_delays=(2_000, 8_000), socket=1)
    model = elaborate(desc)
    model.run()
    rec = next(r for r in model.records if r.instance == "t0")
    assert rec.end - rec.start == 8_000


def test_router_is_pure_latency_adder_with_one_destination():
    desc = SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[
            InitiatorSpec("I", 1_000, 1,
                          (TransactionTemplate(Command.WRITE, 0, b"\x00", 0, 1),)),
            RouterSpec("R", 4_000, 1, 1, {0: (0,)}),
            TargetSpec("T", (2_000,), 0, 64, 0, False),
        ],
        instances=[Instance("i0", "I", "C0"), Instance("r0", "R", "C0"),
                   Instance("t0", "T", "C0")],
        bindings=[Binding("i0", 0, "r0", 0), Binding("r0", 0, "t0", 0)],
    )
    model = elaborate(desc)
    model.run()
    assert end_to_end_latency(model.records, "i0") == 1_000 + 4_000 + 2_000


def test_path_latency_matches_bruteforce_on_random_topologies():
    rng = random.Random(1234)
    for _ in range(25):
        desc = random_topology(rng)
        model = elaborate(desc)
        model.run()
        assert end_to_end_latency(model.records, "init") == max_path_latency(desc)


def test_doubling_frequencies_halves_divisible_traces():
    rng = random.Random(99)
    for _ in range(10):
        desc = random_topology(rng, divisible=True)
        base = elaborate(desc)
        base.run()
        for cpu in desc.cpus:
            cpu.frequency_ghz = cpu.frequency_ghz * 2
        doubled = elaborate(desc)
        doubled.run()
        slow = {(r.instance, r.activation): r for r in base.records}
        fast = {(r.instance, r.activation): r for r in doubled.records}
        assert slow.keys() == fast.keys()
        for key, r in slow.items():
            assert (fast[key].start, fast[key].end) == (r.start // 2, r.end // 2)
            assert r.start % 2 == 0 and r.end % 2 == 0
