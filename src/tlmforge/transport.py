"""Transport vocabulary: the non-blocking phase machine and the DMI grant.

The blocking, DMI and debug calls are methods of the components:
``TargetModel.b_transport(in_socket, p, t)`` carries a whole transaction in
one step and returns the caller's grown local-time annotation,
``TargetModel.get_dmi(address)`` returns a :class:`DmiDescriptor` that lets
a caller touch target storage at a fixed per-beat latency, and
``TargetModel.transport_dbg(p)`` reads or writes storage in zero simulated
time.

The non-blocking side is modeled as a pure phase state machine
(``nb_step``) over per-connection state; shipped components use blocking
transport, so the state machine is exercised by the legality checker and
property tests rather than a live run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .payload import Phase


class Direction(Enum):
    FORWARD = "fw"
    BACKWARD = "bw"


class SyncStatus(Enum):
    ACCEPTED = "ACCEPTED"
    UPDATED = "UPDATED"
    COMPLETED = "COMPLETED"


class DmiAccess(Enum):
    READ = "READ"
    WRITE = "WRITE"
    READ_WRITE = "READ_WRITE"


@dataclass(frozen=True)
class ProtocolState:
    """Per-connection phase tracking for the non-blocking base protocol."""

    outstanding_request: bool = False
    outstanding_response: bool = False
    last_phase: Phase | None = None


IDLE = ProtocolState()


@dataclass(frozen=True)
class ProtocolError:
    """An illegal (state, direction, phase) step; code E-PROTO."""

    state: ProtocolState
    direction: Direction
    phase: Phase
    code: str = "E-PROTO"

    def __str__(self) -> str:
        return (f"{self.code}: {self.direction.value} {self.phase.value} illegal "
                f"(outstanding_request={self.state.outstanding_request}, "
                f"outstanding_response={self.state.outstanding_response}, "
                f"last_phase={self.state.last_phase})")


@dataclass
class DmiDescriptor:
    """A direct-memory grant (or refusal) for an inclusive address range."""

    granted: bool
    start_address: int
    end_address: int
    access: DmiAccess = DmiAccess.READ_WRITE
    read_latency_ps: int = 0
    write_latency_ps: int = 0
    storage: object = None


def nb_step(
    state: ProtocolState,
    direction: Direction,
    phase: Phase,
    reply: SyncStatus | None = None,
) -> tuple[SyncStatus | ProtocolError, ProtocolState]:
    """Advance one connection by one observed phase transition.

    Legal order for one transaction: fw BEGIN_REQ, bw END_REQ, bw
    BEGIN_RESP, fw END_RESP.  A BEGIN_RESP directly after BEGIN_REQ
    implicitly acknowledges the request.  A second BEGIN_REQ is illegal
    until the transaction completed.  ``reply`` is the callee's answer
    where the caller knows it; COMPLETED closes the transaction early,
    and fw END_RESP always completes regardless of ``reply``.

    Illegal steps return a :class:`ProtocolError` and leave the state
    unchanged.
    """
    new: ProtocolState | None = None
    if direction is Direction.FORWARD and phase is Phase.BEGIN_REQ:
        if (not state.outstanding_request and not state.outstanding_response
                and state.last_phase in (None, Phase.END_RESP)):
            new = ProtocolState(True, False, Phase.BEGIN_REQ)
    elif direction is Direction.BACKWARD and phase is Phase.END_REQ:
        if state.outstanding_request and state.last_phase is Phase.BEGIN_REQ:
            new = ProtocolState(False, False, Phase.END_REQ)
    elif direction is Direction.BACKWARD and phase is Phase.BEGIN_RESP:
        opened = state.outstanding_request and state.last_phase is Phase.BEGIN_REQ
        acked = not state.outstanding_request and state.last_phase is Phase.END_REQ
        if opened or acked:
            new = ProtocolState(False, True, Phase.BEGIN_RESP)
    elif direction is Direction.FORWARD and phase is Phase.END_RESP:
        if state.outstanding_response:
            new = ProtocolState(False, False, Phase.END_RESP)

    if new is None:
        return ProtocolError(state, direction, phase), state

    if phase is Phase.END_RESP:
        return SyncStatus.COMPLETED, new
    status = reply if reply is not None else SyncStatus.ACCEPTED
    if status is SyncStatus.COMPLETED:
        new = ProtocolState(False, False, Phase.END_RESP)
    return status, new


def protocol_legal(seq: Iterable[tuple[Direction, Phase]]) -> bool:
    """True iff folding ``nb_step`` over the sequence never hits E-PROTO."""
    state = IDLE
    for direction, phase in seq:
        status, state = nb_step(state, direction, phase)
        if isinstance(status, ProtocolError):
            return False
    return True

