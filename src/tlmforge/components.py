"""Component models: CPUs, buses, initiators, routers, targets.

Timing model
------------
Declared delays are nominal at 1 GHz; an instance's effective delay is
``round(nominal / cpu_frequency_ghz)`` (half away from zero, exact
rational arithmetic before rounding).  A module with a declared bandwidth
additionally serializes each transaction for ``ceil(bytes / bandwidth)``
(computed in picoseconds).  Instances sharing a CPU do not contend for
cycles; the frequency only scales their own delays.  Each model scales its
delays once, when it is built.

An initiator charges its own effective delay plus transfer time before
issuing (compute, then send).  A 1-to-N socket binding or a router
broadcast hands every destination the one payload, as a TLM-2.0
interconnect forwards the initiator's transaction by reference; arms run
one after another but proceed concurrently in simulated time, and the
transaction completes at the slowest arm.  Statuses merge as: OK iff every
arm is OK, otherwise the first non-OK in ascending destination order.
A template's activations reuse one payload, as TLM-2.0 lets an initiator do once
``b_transport`` returns: each resets the address, status, ``dmi_allowed`` and
``extensions`` (its txn id only), and a READ gets a fresh copy of the template
bytes, while other commands share one buffer, which a target must not write.
Initiators and routers alike send through ``out_bindings``, filled at elaboration.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterator

from .kernel import Activity, QuantumKeeper, Scheduler
from .payload import Command, GenericPayload, ResponseStatus, validate_payload
from .simtime import U64_MAX, TimeOverflowError, time_add
from .trace import TraceRecord

# Extension slot the simulator uses to tag payloads with a transaction id.
TXN_ID_EXTENSION = "tlmforge.txn-id"

# Bound once: on Python 3.11 a member lookup on an Enum class costs about 9x a global read.
_OK, _INCOMPLETE = ResponseStatus.OK, ResponseStatus.INCOMPLETE
_READ, _WRITE = Command.READ, Command.WRITE


# --------------------------------------------------------------------------
# Declarative specs

@dataclass
class CpuSpec:
    name: str
    frequency_ghz: Fraction


@dataclass
class BusSpec:
    """A connectivity relation among CPUs; instances bound across CPUs need one."""

    name: str
    cpus: tuple[str, ...]


@dataclass
class TransactionTemplate:
    command: Command
    address: int
    data: bytes
    socket: int = 0
    repeat: int = 1


@dataclass
class InitiatorSpec:
    name: str
    delay_ps: int
    socket_count: int
    workload: tuple[TransactionTemplate, ...] = ()
    bandwidth: Fraction | None = None  # bytes per nanosecond


@dataclass
class TargetSpec:
    name: str
    socket_delays_ps: tuple[int, ...]
    storage_base: int
    storage_size: int
    storage_fill: int = 0
    dmi_allowed: bool = False
    bandwidth: Fraction | None = None


@dataclass
class RouterSpec:
    name: str
    delay_ps: int
    in_socket_count: int
    out_socket_count: int
    connections: dict[int, tuple[int, ...]] = field(default_factory=dict)
    address_map: dict[int, tuple[int, int]] | None = None  # out -> [base, limit)
    bandwidth: Fraction | None = None

    def outs(self, in_socket: int) -> list[int]:
        """Each out connected to ``in_socket`` once (a repeated out is one
        destination), ascending."""
        return sorted(frozenset(self.connections.get(in_socket, ())))

    def routes(self, in_socket: int) -> list[tuple[int, int, list[int]]]:
        """Where ``in_socket`` sends a transaction, as ``(base, limit, outs)``
        covering ``[base, limit)``: one route per mapped out, in ascending out
        order, or without an address map one route over the whole 64-bit
        address space to every out (a broadcast)."""
        outs = self.outs(in_socket)
        if self.address_map is None:
            return [(0, U64_MAX + 1, outs)]
        return [(*self.address_map[out], [out]) for out in outs if out in self.address_map]


ModuleSpec = InitiatorSpec | TargetSpec | RouterSpec


@dataclass
class Instance:
    name: str
    module: str
    cpu: str


@dataclass
class Binding:
    """Connect one out-socket to one in-socket.  An out-socket may appear in
    several bindings (1-to-N); an in-socket accepts at most one."""

    from_instance: str
    from_socket: int
    to_instance: str
    to_socket: int


# --------------------------------------------------------------------------
# Timing rules

def effective_delay(nominal_ps: int, frequency_ghz: Fraction | int) -> int:
    """Scale a nominal delay by CPU frequency: round(nominal / f), ties away from zero."""
    # nominal / f = n / d exactly; floor(n / d + 1/2) rounds ties upward
    n = nominal_ps * frequency_ghz.denominator
    d = frequency_ghz.numerator
    result = (2 * n + d) // (2 * d)
    if result > U64_MAX:
        raise TimeOverflowError(f"scaled delay {result} ps exceeds the 64-bit range")
    return result


def transfer_time(length_bytes: int, bandwidth: Fraction | None) -> int:
    """Serialization latency: ceil(bytes / bandwidth), in picoseconds.

    ``bandwidth`` is bytes per nanosecond; absent means unlimited (0 ps).
    """
    if bandwidth is None:
        return 0
    result = -((-length_bytes * 1000 * bandwidth.denominator) // bandwidth.numerator)
    if result > U64_MAX:
        raise TimeOverflowError(f"transfer time {result} ps exceeds the 64-bit range")
    return result


# --------------------------------------------------------------------------
# Target storage semantics

class Storage:
    """Byte-addressable backing store of a target, based at an absolute address."""

    def __init__(self, base: int, size: int, fill: int = 0):
        if size <= 0:
            raise ValueError("storage size must be positive")
        self.base = base
        self.data = bytearray([fill]) * size

    @property
    def end(self) -> int:
        """One past the last valid address."""
        return self.base + len(self.data)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


def _move_bytes(storage: Storage, p: GenericPayload, write: bool) -> ResponseStatus:
    """Move ``p``'s beats into storage if ``write``, else out of it.  Beat i lands at
    ``address + (i mod streaming_width)``, so one range check on the first chunk covers
    every chunk; a first chunk that runs off the storage shrinks to its in-range prefix,
    which still moves, and the result is ADDRESS_ERROR.  A beat whose enable is 0x00
    moves nothing.  Without enables a write stores the last chunk, as later beats
    overwrite earlier ones, and a read repeats one storage slice per chunk.  A zero-length
    payload is OK and touches nothing.  ``p`` must pass :func:`validate_payload`, as an
    initiator's always does."""
    n, w, off, data = p.data_length, p.streaming_width, p.address - storage.base, storage.data
    status = _OK
    if n and not 0 <= off <= len(data) - w:
        n = w = 0 if off < 0 else max(0, len(data) - off)
        status = ResponseStatus.ADDRESS_ERROR
    if p.byte_enables is not None:
        enables, enable_length = p.byte_enables, p.byte_enable_length
        for i in range(n):
            if enables[i % enable_length] == 0xFF:
                if write:
                    data[off + i % w] = p.data[i]
                else:
                    p.data[i] = data[off + i % w]
    elif n and write:
        data[off:off + w] = p.data[n - w:n]
    elif n:
        p.data[:n] = data[off:off + w] * (n // w)
    return status


def apply_write(storage: Storage, p: GenericPayload) -> ResponseStatus:
    """Write ``p``'s beats into storage, as :func:`_move_bytes` describes."""
    return _move_bytes(storage, p, True)


def apply_read(storage: Storage, p: GenericPayload) -> ResponseStatus:
    """Read storage into ``p``'s beats, as :func:`_move_bytes` describes."""
    return _move_bytes(storage, p, False)


# --------------------------------------------------------------------------
# Executable models

@dataclass
class ModelContext:
    """Shared runtime state for every model of one elaborated system."""

    scheduler: Scheduler
    records: list[TraceRecord] = field(default_factory=list)
    txn_ids: Iterator[int] = field(default_factory=itertools.count)


Destination = tuple["TargetModel | RouterModel", int]

# Builds a TraceRecord from a ready tuple of its fields, without NamedTuple's __new__ frame.
_new_record = tuple.__new__
_route_base = itemgetter(0)

# The status a target answers for a payload that fails validate_payload, by first code.
_INVALID_STATUS = {
    "E-DATA-LEN": ResponseStatus.BURST_ERROR, "E-SW-POSITIVE": ResponseStatus.BURST_ERROR,
    "E-SW-DIVIDE": ResponseStatus.BURST_ERROR, "E-ENABLE-VALUE": ResponseStatus.BYTE_ENABLE_ERROR,
    "E-ENABLE-LEN": ResponseStatus.BYTE_ENABLE_ERROR}


def deliver(destinations: list[Destination], p: GenericPayload, t: int) -> int:
    """Send ``p`` itself to every destination; returns the slowest arm's time.

    With several destinations each arm enters with the status reset to INCOMPLETE,
    and afterwards ``p`` holds the merged status and no arm's DMI hint
    (``dmi_allowed`` is False).  A target writes ``p.data`` only for a READ, which
    validation sends to one destination (E004), so the arms never see each other's
    bytes; a direct call with a READ fan-out leaves the last arm's bytes.
    Validation guarantees at least one destination (E010).
    """
    if len(destinations) == 1:
        model, in_socket = destinations[0]
        return model.b_transport(in_socket, p, t)
    end, status = 0, _OK
    for model, in_socket in destinations:
        p.response_status = _INCOMPLETE
        arm_end = model.b_transport(in_socket, p, t)
        if arm_end > end:
            end = arm_end
        if status is _OK:
            status = p.response_status
    p.response_status = status
    p.dmi_allowed = False
    return end


class _Responder:
    """The transport prologue and trace row of targets and routers; a txn id that is no int is 0."""

    def __init__(self, name: str, spec: TargetSpec | RouterSpec, ctx: ModelContext):
        self.name = name
        self.spec = spec
        self.ctx = ctx
        self._append_record = ctx.records.append
        self._activations = itertools.count()
        # transfer_time's ceil(bytes * 1000 * den / num) as (1000 * den, num); None is unlimited
        bw = spec.bandwidth
        self._ps_per_byte = None if bw is None else (1000 * bw.denominator, bw.numerator)

    def _arrive(self, delay_ps: int, p: GenericPayload, t: int) -> tuple[int, int, int]:
        """``(activation, now, t plus the service time)``, numbered on arrival so a router
        re-entered through another in-socket stays in order.  Only the hop's end is checked."""
        now = self.ctx.scheduler.now
        end = t + delay_ps
        if self._ps_per_byte is not None and p.data_length > 0:  # a negative length moves no byte
            num, den = self._ps_per_byte
            end -= (-p.data_length * num) // den
        if now + end > U64_MAX:  # raise as the checked sums do: arrival, service, then end
            time_add(now, t)
            service = time_add(delay_ps, transfer_time(max(p.data_length, 0), self.spec.bandwidth))
            time_add(now, time_add(t, service))
        return next(self._activations), now, end

    def _record(self, activation: int, start: int, end: int, p: GenericPayload) -> None:
        txn = p.extensions[TXN_ID_EXTENSION] if TXN_ID_EXTENSION in p.extensions else 0
        self._append_record(_new_record(TraceRecord, (self.name, activation, start, end,
                            txn if type(txn) is int or isinstance(txn, int) else 0,
                            p.response_status)))


@dataclass
class DmiDescriptor:
    """A direct-memory grant of reads and writes (or a refusal) for an inclusive address range."""

    granted: bool
    start_address: int
    end_address: int
    read_latency_ps: int = 0
    write_latency_ps: int = 0
    storage: object = None


class TargetModel(_Responder):
    """A memory-mapped target: per-in-socket delays over byte storage."""

    def __init__(self, name: str, spec: TargetSpec, frequency_ghz: Fraction, ctx: ModelContext):
        super().__init__(name, spec, ctx)
        self.delays_ps = tuple(effective_delay(d, frequency_ghz) for d in spec.socket_delays_ps)
        self.storage = Storage(spec.storage_base, spec.storage_size, spec.storage_fill)

    def b_transport(self, in_socket: int, p: GenericPayload, t: int) -> int:
        activation, now, end = self._arrive(self.delays_ps[in_socket], p, t)
        command, n = p.command, p.data_length
        # validate_payload passes the shape every initiator builds, and decides any other
        if ((p.byte_enables is not None or not 0 < n == p.streaming_width <= len(p.data))
                and (problems := validate_payload(p))):
            p.response_status = _INVALID_STATUS[problems[0].code]
        elif command is _WRITE or command is _READ:
            p.response_status = _move_bytes(self.storage, p, command is _WRITE)
        else:
            p.response_status = _OK
        p.dmi_allowed = self.spec.dmi_allowed
        self._record(activation, now + t, now + end, p)
        return end

    def transport_dbg(self, p: GenericPayload) -> int:
        """Zero-time debug access; ignores delays, enables, and streaming.  Moves at most
        ``data_length`` bytes, no more than either buffer holds, so neither changes length."""
        if p.command not in (Command.READ, Command.WRITE) or not self.storage.contains(p.address):
            return 0
        count = max(0, min(p.data_length, len(p.data), self.storage.end - p.address))
        offset = p.address - self.storage.base
        if p.command is Command.READ:
            p.data[0:count] = self.storage.data[offset:offset + count]
        else:
            self.storage.data[offset:offset + count] = p.data[0:count]
        return count

    def get_dmi(self, address: int) -> DmiDescriptor:
        """Grant direct access to the whole storage when allowed and in range."""
        granted = self.spec.dmi_allowed and self.storage.contains(address)
        beat = self.delays_ps[0] if granted else 0
        return DmiDescriptor(
            granted=granted, start_address=self.storage.base, end_address=self.storage.end - 1,
            read_latency_ps=beat, write_latency_ps=beat, storage=self.storage if granted else None)


class RouterModel(_Responder):
    """Forwards transactions from in-sockets to bound out-sockets."""

    def __init__(self, name: str, spec: RouterSpec, frequency_ghz: Fraction, ctx: ModelContext):
        super().__init__(name, spec, ctx)
        self.delay_ps = effective_delay(spec.delay_ps, frequency_ghz)
        # out-socket index -> ordered destination list, filled in at elaboration
        self.out_bindings: dict[int, list[Destination]] = {}
        # bound in-socket -> ((base, limit, destinations), ...) by base, built by connect()
        self.routes: dict[int, tuple[tuple[int, int, list[Destination]], ...]] = {}

    def connect(self, in_socket: int) -> None:
        """Build ``in_socket``'s route table from :meth:`RouterSpec.routes`, each out
        replaced by its ``out_bindings``, sorted by base.  E006 makes the ranges disjoint
        and non-empty, so an address's route is the last whose base is at most the address."""
        self.routes[in_socket] = tuple(sorted(
            ((base, limit, [dest for out in outs for dest in self.out_bindings[out]])
             for base, limit, outs in self.spec.routes(in_socket)), key=_route_base))

    def b_transport(self, in_socket: int, p: GenericPayload, t: int) -> int:
        activation, now, end = self._arrive(self.delay_ps, p, t)
        table = self.routes[in_socket]
        i = bisect_right(table, p.address, key=_route_base) - 1
        if i >= 0 and p.address < table[i][1]:
            done = deliver(table[i][2], p, end)
        else:
            done = end
            p.response_status = ResponseStatus.ADDRESS_ERROR
        self._record(activation, now + t, now + end, p)
        return done


class InitiatorModel:
    """Drives the workload: compute for the module delay, then transport."""

    def __init__(self, name: str, spec: InitiatorSpec, frequency_ghz: Fraction,
                 ctx: ModelContext, quantum_ps: int = 0):
        self.name = name
        self.spec = spec
        self.ctx = ctx
        self.delay_ps = effective_delay(spec.delay_ps, frequency_ghz)
        self.quantum_keeper = QuantumKeeper(quantum_ps)
        # out-socket index -> ordered destination list, filled in at elaboration
        self.out_bindings: dict[int, list[Destination]] = {}
        self._activations = itertools.count()

    def activity(self) -> Activity:
        """Kernel activity running every workload template in order, then syncing what is left."""
        for template in self.spec.workload:
            yield from self.issue(template)
        if self.quantum_keeper.local_offset:
            yield from self.quantum_keeper.sync()

    def issue(self, template: TransactionTemplate) -> Activity:
        """The template's activations, back to back, on one payload.  Each waits the own
        latency (module delay plus send time), transports, syncs and records."""
        if not template.repeat:  # it adds no time, so its own latency cannot overflow
            return
        qk = self.quantum_keeper
        sched = self.ctx.scheduler
        txn_ids, append_record = self.ctx.txn_ids, self.ctx.records.append
        destinations = self.out_bindings[template.socket]
        own = time_add(self.delay_ps, transfer_time(len(template.data), self.spec.bandwidth))
        address, read = template.address, template.command is _READ
        p = GenericPayload(command=template.command, address=address,
                           data=bytearray(template.data))
        for _ in range(template.repeat):
            start = sched.now + qk.local_offset  # the previous activation's checked end
            qk.advance(own)
            if qk.local_offset >= qk.global_quantum:  # sync as QuantumKeeper.sync does
                yield qk.local_offset
                qk.local_offset = 0

            txn = next(txn_ids)
            p.address, p.response_status, p.dmi_allowed = address, _INCOMPLETE, False
            p.extensions = {TXN_ID_EXTENSION: txn}
            if read:
                p.data = bytearray(template.data)
            qk.local_offset = deliver(destinations, p, qk.local_offset)
            if qk.local_offset >= qk.global_quantum:
                yield qk.local_offset
                qk.local_offset = 0
            end = time_add(sched.now, qk.local_offset)

            append_record(_new_record(TraceRecord, (
                self.name, next(self._activations), start, end, txn, p.response_status)))


class ExecutableModel:
    """An elaborated system: kernel, component models, and the shared trace."""

    def __init__(self, ctx: ModelContext,
                 instances: dict[str, InitiatorModel | TargetModel | RouterModel]):
        self.scheduler = ctx.scheduler
        self.records = ctx.records
        self.instances = instances
        self._unstarted = [m for m in instances.values() if isinstance(m, InitiatorModel)]

    def run(self) -> int:
        """Start the initiators, run to completion; returns the final time in ps."""
        for model in self._unstarted:
            self.scheduler.schedule(model.activity())
        self._unstarted = []
        return self.scheduler.run()
