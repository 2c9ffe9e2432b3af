"""JSON readers: the stdlib scanner, and one that remembers where values sit.

Both return plain JSON values: ``dict``, ``list``, ``str``, ``int``, ``float``,
``bool`` and ``None``.  ``parse_json`` defines the accepted language and every
syntax message.  Beside the value it returns a table from each value's path (the
object keys and array indices from the root; ``()`` is the root) to the 1-based
line and column where that value starts.  It tracks only a character offset, and
turns one into a line and column through the offsets where lines start.
Stricter than the RFC: a duplicate object key, nesting deeper than ``MAX_DEPTH``
(RFC 8259 section 9 allows such a bound) and an integer of more digits than
``int()`` takes are errors.  ``load_json`` is ``json.loads`` with the duplicate
key and ``NaN`` rules; it has no depth bound of its own, so it accepts a text
that only nests too deep, and a caller that needs the bound reads with
``parse_json``.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right

_NUMBER_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")  # ASCII digits
_WS_RE = re.compile(r"[ \t\r\n]*")
_PLAIN_RE = re.compile(r'[^"\\\x00-\x1f]*')  # string characters that stand for themselves
_HEX4_RE = re.compile(r"[0-9A-Fa-f]{4}")
MAX_DEPTH = 256
_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f",
            "n": "\n", "r": "\r", "t": "\t"}
_KINDS = {dict: "object", list: "array", bool: "boolean", int: "integer", float: "number",
          str: "string", type(None): "null"}  # the only types a JSON value takes


def kind(value: object) -> str:
    """The JSON name of a plain value's type, as in "got null"."""
    return _KINDS[type(value)]


class JsonSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.reason = message
        self.line = line
        self.column = column


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.n = len(text)
        self.pos = 0
        self.path: list[str | int] = []  # keys and indices from the root to the current value
        self.positions: dict[tuple, tuple[int, int]] = {}
        self.starts = [0] + [m.end() for m in re.finditer("\n", text)]  # offset of each line

    def _where(self, pos: int) -> tuple[int, int]:
        line = bisect_right(self.starts, pos)
        return line, pos - self.starts[line - 1] + 1

    def _error(self, message: str, pos: int | None = None):
        raise JsonSyntaxError(message, *self._where(self.pos if pos is None else pos))

    def _skip_ws(self) -> None:
        self.pos = _WS_RE.match(self.text, self.pos).end()

    def _peek(self) -> str:
        return self.text[self.pos] if self.pos < self.n else ""

    def parse(self) -> object:
        self._skip_ws()
        if self.pos >= self.n:
            self._error("empty document")
        value = self._value()
        self._skip_ws()
        if self.pos < self.n:
            self._error("trailing data after the document")
        return value

    def _value(self) -> object:
        ch = self._peek()
        self.positions[tuple(self.path)] = self._where(self.pos)
        if ch == "{" or ch == "[":
            if len(self.path) == MAX_DEPTH:  # one path step per open container
                self._error(f"nesting deeper than {MAX_DEPTH}")
            return self._object() if ch == "{" else self._array()
        if ch == '"':
            return self._string()
        if ch == "-" or ch.isdigit():
            return self._number()
        for literal, value in (("true", True), ("false", False), ("null", None)):
            if self.text.startswith(literal, self.pos):
                self.pos += len(literal)
                return value
        if ch == "":
            self._error("unexpected end of input")
        self._error(f"unexpected character {ch!r}")

    def _object(self) -> dict:
        members: dict[str, object] = {}
        self.pos += 1  # '{'
        self._skip_ws()
        if self._peek() == "}":
            self.pos += 1
            return members
        while True:
            self._skip_ws()
            if self._peek() != '"':
                self._error("expected a string key")
            key_pos = self.pos
            key = self._string()
            if key in members:
                self._error(f"duplicate key {key!r}", key_pos)
            self._skip_ws()
            if self._peek() != ":":
                self._error("expected ':' after key")
            self.pos += 1
            self._skip_ws()
            self.path.append(key)
            members[key] = self._value()
            self.path.pop()
            self._skip_ws()
            ch = self._peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "}":
                self.pos += 1
                return members
            self._error("expected ',' or '}' in object")

    def _array(self) -> list:
        items: list[object] = []
        self.pos += 1  # '['
        self._skip_ws()
        if self._peek() == "]":
            self.pos += 1
            return items
        while True:
            self._skip_ws()
            self.path.append(len(items))
            items.append(self._value())
            self.path.pop()
            self._skip_ws()
            ch = self._peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                return items
            self._error("expected ',' or ']' in array")

    def _string(self) -> str:
        self.pos += 1  # opening quote
        parts: list[str] = []
        while True:
            end = _PLAIN_RE.match(self.text, self.pos).end()
            parts.append(self.text[self.pos:end])
            self.pos = end
            if self.pos >= self.n:
                self._error("unterminated string")
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(parts)
            if ch == "\\":
                self.pos += 1
                esc = self._peek()
                if esc in _ESCAPES:
                    parts.append(_ESCAPES[esc])
                    self.pos += 1
                elif esc == "u":
                    self.pos += 1
                    parts.append(self._unicode_escape())
                else:
                    self._error(f"bad escape \\{esc}")
            elif ch in "\n\r":
                self._error("newline inside string")
            else:  # RFC 8259 section 7: control characters must be escaped
                self._error(f"control character {ch!r} inside string")

    def _unicode_escape(self) -> str:
        def hex4() -> int:
            if self.pos + 4 > self.n:
                self._error("truncated \\u escape")
            digits = self.text[self.pos:self.pos + 4]
            if not _HEX4_RE.fullmatch(digits):
                self._error(f"bad \\u escape {digits!r}")
            self.pos += 4
            return int(digits, 16)

        code = hex4()
        if 0xD800 <= code <= 0xDBFF and self.text.startswith("\\u", self.pos):
            self.pos += 2
            low = hex4()
            if 0xDC00 <= low <= 0xDFFF:
                return chr(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
            return chr(code) + chr(low)
        return chr(code)

    def _number(self) -> int | float:
        m = _NUMBER_RE.match(self.text, self.pos)
        if m is None:
            self._error("bad number")
        start, literal = self.pos, m.group(0)
        self.pos = m.end()
        if "." in literal or "e" in literal or "E" in literal:
            return float(literal)
        try:
            return int(literal)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            self._error("integer literal too long", start)


def parse_json(text: str) -> tuple[object, dict[tuple, tuple[int, int]]]:
    """Parse a JSON document into its plain value and the (line, column) where
    the value at each path starts."""
    reader = _Reader(text)
    return reader.parse(), reader.positions


def _members(pairs: list[tuple[str, object]]) -> dict[str, object]:
    if len(members := dict(pairs)) < len(pairs):
        raise ValueError("duplicate key")
    return members


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def load_json(text: str) -> object:
    """json.loads with this module's duplicate-key and NaN rules; raises
    ValueError where they refuse the text."""
    try:
        return json.loads(text, object_pairs_hook=_members, parse_constant=_no_constant)
    except RecursionError:
        raise ValueError("nesting too deep for json.loads") from None
