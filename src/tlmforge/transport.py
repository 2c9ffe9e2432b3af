"""Transport vocabulary: the non-blocking phase machine.

The blocking, DMI and debug calls are methods of the components:
``TargetModel.b_transport(in_socket, p, t)`` carries a whole transaction in
one step and returns the caller's grown local-time annotation,
``TargetModel.get_dmi(address)`` returns a ``DmiDescriptor`` that lets
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


@dataclass(frozen=True)
class ProtocolState:
    """Per-connection phase tracking for the non-blocking base protocol."""

    outstanding_request: bool = False
    outstanding_response: bool = False
    last_phase: Phase | None = None


IDLE = ProtocolState()
_REQ = ProtocolState(True, False, Phase.BEGIN_REQ)
_ACKED = ProtocolState(False, False, Phase.END_REQ)
_RESP = ProtocolState(False, True, Phase.BEGIN_RESP)
_DONE = ProtocolState(False, False, Phase.END_RESP)

# Every legal step: (state, direction, phase) -> the state after it.
_STEPS = {
    (IDLE, Direction.FORWARD, Phase.BEGIN_REQ): _REQ,
    (_DONE, Direction.FORWARD, Phase.BEGIN_REQ): _REQ,
    (_REQ, Direction.BACKWARD, Phase.END_REQ): _ACKED,
    (_REQ, Direction.BACKWARD, Phase.BEGIN_RESP): _RESP,
    (_ACKED, Direction.BACKWARD, Phase.BEGIN_RESP): _RESP,
    (_RESP, Direction.FORWARD, Phase.END_RESP): _DONE,
}


@dataclass(frozen=True)
class ProtocolError:
    """An illegal (state, direction, phase) step; code E-PROTO."""

    code = "E-PROTO"
    state: ProtocolState
    direction: Direction
    phase: Phase

    def __str__(self) -> str:
        return (f"{self.code}: {self.direction.value} {self.phase.value} illegal "
                f"(outstanding_request={self.state.outstanding_request}, "
                f"outstanding_response={self.state.outstanding_response}, "
                f"last_phase={self.state.last_phase})")


def nb_step(
    state: ProtocolState,
    direction: Direction,
    phase: Phase,
    reply: SyncStatus | None = None,
) -> tuple[SyncStatus | ProtocolError, ProtocolState]:
    """Advance one connection by one observed phase transition, a step of ``_STEPS``.

    Legal order for one transaction: fw BEGIN_REQ, bw END_REQ, bw
    BEGIN_RESP, fw END_RESP.  A BEGIN_RESP directly after BEGIN_REQ
    implicitly acknowledges the request.  A second BEGIN_REQ is illegal
    until the transaction completed.  ``reply`` is the callee's answer
    where the caller knows it; COMPLETED closes the transaction early,
    and fw END_RESP always completes regardless of ``reply``.

    Illegal steps return a :class:`ProtocolError` and leave the state
    unchanged.
    """
    new = _STEPS.get((state, direction, phase))
    if new is None:
        return ProtocolError(state, direction, phase), state
    if phase is Phase.END_RESP or reply is SyncStatus.COMPLETED:
        return SyncStatus.COMPLETED, _DONE
    return reply or SyncStatus.ACCEPTED, new


def protocol_legal(seq: Iterable[tuple[Direction, Phase]]) -> bool:
    """True iff folding ``nb_step`` over the sequence never hits E-PROTO."""
    state = IDLE
    for direction, phase in seq:
        status, state = nb_step(state, direction, phase)
        if isinstance(status, ProtocolError):
            return False
    return True

