"""Generic transaction payload: the object initiators carry to targets.

A payload holds a read/write/ignore command, a byte address, the data
buffer, optional byte enables, a streaming width, a response status, and
an open-ended extension map.  Extensions are keyed by string identifiers;
built-in components carry unknown extensions along untouched, so custom
protocols can ride on the same object without breaking interoperability.

``GenericPayload`` is a slotted dataclass.  A fan-out copy gives every arm
its own data and enable buffers, so arms stay storage-disjoint; immutable
extension values (``int``, ``str``, ``bytes``, ``float``, ``bool``, ``None``)
are shared, not copied, and any other value is deep-copied.

Validation codes
----------------
E-DATA-LEN       data_length is negative or exceeds the data buffer
E-SW-POSITIVE    streaming_width is not positive
E-SW-DIVIDE      data_length is not a multiple of streaming_width
E-ENABLE-VALUE   a byte enable is neither 0x00 nor 0xFF
E-ENABLE-LEN     byte_enable_length is 0 or exceeds the enable buffer
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum

from .diagnostics import Diagnostic


class Command(Enum):
    READ = "READ"
    WRITE = "WRITE"
    IGNORE = "IGNORE"


class ResponseStatus(Enum):
    INCOMPLETE = "INCOMPLETE"
    OK = "OK"
    ADDRESS_ERROR = "ADDRESS_ERROR"
    COMMAND_ERROR = "COMMAND_ERROR"
    BURST_ERROR = "BURST_ERROR"
    BYTE_ENABLE_ERROR = "BYTE_ENABLE_ERROR"
    GENERIC_ERROR = "GENERIC_ERROR"

    @property
    def is_terminal(self) -> bool:
        return self is not ResponseStatus.INCOMPLETE


class Phase(Enum):
    """Non-blocking transport phases.

    BEGIN_REQ and END_RESP travel on the forward path only; END_REQ and
    BEGIN_RESP on the backward path only.
    """

    BEGIN_REQ = "BEGIN_REQ"
    END_REQ = "END_REQ"
    BEGIN_RESP = "BEGIN_RESP"
    END_RESP = "END_RESP"


@dataclass(slots=True)
class GenericPayload:
    """One memory-mapped transaction.

    Unset lengths default sensibly: ``data_length`` to the buffer size,
    ``streaming_width`` to ``data_length`` (meaning "no streaming"),
    ``byte_enable_length`` to the enable buffer size.  Absent byte enables
    mean every byte is enabled.
    """

    command: Command = Command.IGNORE
    address: int = 0
    data: bytearray = field(default_factory=bytearray)
    data_length: int | None = None
    byte_enables: bytes | None = None
    byte_enable_length: int | None = None
    streaming_width: int | None = None
    dmi_allowed: bool = False
    response_status: ResponseStatus = ResponseStatus.INCOMPLETE
    extensions: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytearray):
            self.data = bytearray(self.data)
        if self.byte_enables is not None and not isinstance(self.byte_enables, bytes):
            self.byte_enables = bytes(self.byte_enables)
        if self.data_length is None:
            self.data_length = len(self.data)
        if self.streaming_width is None:
            self.streaming_width = self.data_length
        if self.byte_enable_length is None:
            self.byte_enable_length = len(self.byte_enables) if self.byte_enables is not None else 0


def validate_payload(p: GenericPayload) -> list[Diagnostic]:
    """Check every payload invariant; an empty list means the payload is valid."""
    diags: list[Diagnostic] = []
    if not 0 <= p.data_length <= len(p.data):
        diags.append(Diagnostic(
            "E-DATA-LEN", f"data_length {p.data_length} outside 0..{len(p.data)}, "
            "the data buffer's size", where="data_length"))
    if p.streaming_width <= 0:
        diags.append(Diagnostic(
            "E-SW-POSITIVE", f"streaming_width must be positive, got {p.streaming_width}",
            where="streaming_width"))
    elif p.data_length % p.streaming_width != 0:
        diags.append(Diagnostic(
            "E-SW-DIVIDE",
            f"data_length {p.data_length} is not a multiple of streaming_width {p.streaming_width}",
            where="streaming_width"))
    if p.byte_enables is not None:
        bad = sorted({b for b in p.byte_enables if b not in (0x00, 0xFF)})
        if bad:
            diags.append(Diagnostic(
                "E-ENABLE-VALUE",
                "byte enables must be 0x00 or 0xFF, found " + ", ".join(f"0x{b:02X}" for b in bad),
                where="byte_enables"))
        if not 1 <= p.byte_enable_length <= len(p.byte_enables):
            diags.append(Diagnostic(
                "E-ENABLE-LEN",
                f"byte_enable_length {p.byte_enable_length} outside 1..{len(p.byte_enables)}",
                where="byte_enable_length"))
    return diags


# Copies share extension values of these immutable types.  The member is bound once,
# since on Python 3.11 a member lookup on an Enum class costs about 9x a global read.
_SHARED_TYPES = frozenset({int, str, bytes, float, bool, type(None)})
_INCOMPLETE = ResponseStatus.INCOMPLETE


def deep_copy_payload(p: GenericPayload) -> GenericPayload:
    """Storage-disjoint copy with the response status reset to INCOMPLETE.

    Routers use this for fan-out: every destination gets its own buffer,
    so mutations on one arm can never leak into another.  An immutable
    extension value is shared; any other is deep-copied.  ``p`` is whole, so
    the copy is made field by field, without ``__post_init__``.
    """
    c = object.__new__(GenericPayload)
    c.command = p.command
    c.address = p.address
    c.data = bytearray(p.data)
    c.data_length = p.data_length
    c.byte_enables = None if p.byte_enables is None else bytes(p.byte_enables)
    c.byte_enable_length = p.byte_enable_length
    c.streaming_width = p.streaming_width
    c.dmi_allowed = p.dmi_allowed
    c.response_status = _INCOMPLETE
    c.extensions = extensions = p.extensions.copy()
    for key, value in extensions.items():
        if type(value) not in _SHARED_TYPES:
            extensions[key] = copy.deepcopy(value)
    return c
