"""JSON readers: the stdlib scanner, and one that remembers where values sit.

Both return plain JSON values: ``dict``, ``list``, ``str``, ``int``, ``Decimal``,
``bool`` and ``None``, and both decode every string, number and literal with one
``json.JSONDecoder``.  ``parse_json`` owns the rest: the structure, the duplicate
key and depth rules, the positions and every syntax message.  Beside the value it
returns a table from each value's path (the object keys and array indices from the
root; ``()`` is the root) to the 1-based line and column where that value starts, and
in its ``key_at`` where each object member's key starts, by the member's path.
It tracks only a character offset, and turns one into a line and column through
the offsets where lines start.  Stricter than the RFC: a duplicate object key,
nesting deeper than ``MAX_DEPTH`` (RFC 8259 section 9 allows such a bound) and a
number that ``int()`` or ``Decimal`` refuses are errors.  ``load_json`` is the
decoder alone (its hooks refuse duplicate keys and ``NaN``), with no depth bound,
so it accepts a text that only nests too deep; ``parse_json`` reads with the bound.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from decimal import Decimal

_NUMBER_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")  # ASCII digits
_WS_RE = re.compile(r"[ \t\r\n]*")
_STRING_RE = re.compile(r'(?:[^"\\\x00-\x1f]|\\["\\/bfnrt]|\\u[0-9A-Fa-f]{4})*')  # what json takes
MAX_DEPTH = 256
_KINDS = {dict: "object", list: "array", bool: "boolean", int: "integer", Decimal: "number",
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


class Positions(dict):
    """(line, column) by path where each value starts; ``key_at``: where each key starts."""
    key_at: dict[tuple, tuple[int, int]]


class _Reader:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.path: list[str | int] = []  # keys and indices from the root to the current value
        self.positions = Positions()
        self.positions.key_at = {}
        self.starts = [0] + [m.end() for m in re.finditer("\n", text)]  # offset of each line

    def _where(self, pos: int) -> tuple[int, int]:
        line = bisect_right(self.starts, pos)
        return line, pos - self.starts[line - 1] + 1

    def _error(self, message: str, pos: int | None = None):
        raise JsonSyntaxError(message, *self._where(self.pos if pos is None else pos))

    def _skip_ws(self) -> str:
        """Moves past blanks; returns the next character, "" at the end."""
        self.pos = _WS_RE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def parse(self) -> object:
        if not self._skip_ws():
            self._error("empty document")
        value = self._value()
        if self._skip_ws():
            self._error("trailing data after the document")
        return value

    def _value(self) -> object:
        ch = self._skip_ws()
        self.positions[tuple(self.path)] = self._where(self.pos)
        if ch == "{" or ch == "[":
            if len(self.path) == MAX_DEPTH:  # one path step per open container
                self._error(f"nesting deeper than {MAX_DEPTH}")
            return self._object() if ch == "{" else self._array()
        return self._scalar()

    def _object(self) -> dict:
        members: dict[str, object] = {}
        self.pos += 1  # '{'
        if self._skip_ws() == "}":
            self.pos += 1
            return members
        while True:
            if self._skip_ws() != '"':
                self._error("expected a string key")
            key_pos = self.pos
            key = self._scalar()
            if key in members:
                self._error(f"duplicate key {key!r}", key_pos)
            if self._skip_ws() != ":":
                self._error("expected ':' after key")
            self.pos += 1
            self.path.append(key)
            self.positions.key_at[tuple(self.path)] = self._where(key_pos)
            members[key] = self._value()
            self.path.pop()
            ch = self._skip_ws()
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
        if self._skip_ws() == "]":
            self.pos += 1
            return items
        while True:
            self.path.append(len(items))
            items.append(self._value())
            self.path.pop()
            ch = self._skip_ws()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                return items
            self._error("expected ',' or ']' in array")

    def _scalar(self) -> object:
        """A string, number or literal from the json scanner; where the scanner
        refuses one, the first problem is named."""
        try:
            value, self.pos = _DECODER.raw_decode(self.text, self.pos)
            return value
        except (ValueError, ArithmeticError):  # int() refused the digits or Decimal the exponent
            pass
        ch = self.text[self.pos:self.pos + 1]
        if ch == '"':
            end = _STRING_RE.match(self.text, self.pos + 1).end()  # the first refused character
            ch = self.text[end:end + 1]
            if ch == "":
                self._error("unterminated string", end)
            if ch in "\n\r":
                self._error("newline inside string", end)
            if ch != "\\":  # RFC 8259 section 7: control characters must be escaped
                self._error(f"control character {ch!r} inside string", end)
            esc = self.text[end + 1:end + 2]
            if esc != "u":
                self._error(f"bad escape \\{esc}", end + 1)
            if end + 6 > len(self.text):
                self._error("truncated \\u escape", end + 2)
            self._error(f"bad \\u escape {self.text[end + 2:end + 6]!r}", end + 2)
        if ch == "-" or ch.isdigit():
            if m := _NUMBER_RE.match(self.text, self.pos):  # int() or Decimal refused it
                self._error("integer literal too long" if m[0].lstrip("-").isdigit()
                            else "number out of range")
            self._error("bad number")
        self._error(f"unexpected character {ch!r}" if ch else "unexpected end of input")


def parse_json(text: str) -> tuple[object, Positions]:
    """Parse a JSON document into its plain value and the (line, column) where
    the value, and an object member's key, at each path starts."""
    reader = _Reader(text)
    return reader.parse(), reader.positions


def _members(pairs: list[tuple[str, object]]) -> dict[str, object]:
    if len(members := dict(pairs)) < len(pairs):
        raise ValueError("duplicate key")
    return members


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


_DECODER = json.JSONDecoder(object_pairs_hook=_members, parse_constant=_no_constant,
                            parse_float=Decimal)


def load_json(text: str) -> object:
    """The value of a text, with this module's duplicate-key and NaN rules; raises
    ValueError where the decoder refuses the text."""
    try:
        return _DECODER.decode(text)
    except RecursionError:
        raise ValueError("nesting too deep for the json decoder") from None
    except ArithmeticError:  # Decimal holds an exponent below 10**18 only
        raise ValueError("number out of range") from None
