"""JSON readers: the stdlib scanner, and one that remembers where values sit.

``parse_json`` defines the accepted language and every syntax message.  It
returns a tree of :class:`Node` objects, each carrying the 1-based line and
column where its value starts; object members map plain string keys to child
nodes.  It tracks only a character offset, and turns one into a line and
column through the offsets where lines start.  Stricter than the RFC: a
duplicate object key, nesting deeper than ``MAX_DEPTH`` (RFC 8259 section 9
allows such a bound) and an integer of more digits than ``int()`` takes are
errors.  ``load_json`` reads with ``json.loads`` into the same tree without
positions, or returns None where ``json.loads`` or these rules refuse the text.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass

_NUMBER_RE = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")  # ASCII digits
_WS_RE = re.compile(r"[ \t\r\n]*")
_PLAIN_RE = re.compile(r'[^"\\\x00-\x1f]*')  # string characters that stand for themselves
_HEX4_RE = re.compile(r"[0-9A-Fa-f]{4}")
MAX_DEPTH = 256
_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f",
            "n": "\n", "r": "\r", "t": "\t"}
_KINDS = {dict: "object", list: "array", bool: "boolean", int: "integer", float: "number",
          str: "string", type(None): "null"}  # the only types a JSON value takes


@dataclass(slots=True)
class Node:
    value: object  # dict[str, Node] | list[Node] | str | int | float | bool | None
    line: int | None  # None in a tree from load_json
    column: int | None

    @property
    def kind(self) -> str:
        return _KINDS[type(self.value)]


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
        self.depth = 0  # containers open at the current position
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

    def parse(self) -> Node:
        self._skip_ws()
        if self.pos >= self.n:
            self._error("empty document")
        node = self._value()
        self._skip_ws()
        if self.pos < self.n:
            self._error("trailing data after the document")
        return node

    def _value(self) -> Node:
        ch = self._peek()
        if ch == "{" or ch == "[":
            if self.depth == MAX_DEPTH:
                self._error(f"nesting deeper than {MAX_DEPTH}")
            self.depth += 1
            node = self._object() if ch == "{" else self._array()
            self.depth -= 1
            return node
        if ch == '"':
            where = self._where(self.pos)
            return Node(self._string(), *where)
        if ch == "-" or ch.isdigit():
            return self._number()
        for literal, value in (("true", True), ("false", False), ("null", None)):
            if self.text.startswith(literal, self.pos):
                node = Node(value, *self._where(self.pos))
                self.pos += len(literal)
                return node
        if ch == "":
            self._error("unexpected end of input")
        self._error(f"unexpected character {ch!r}")

    def _object(self) -> Node:
        node = Node({}, *self._where(self.pos))
        members: dict[str, Node] = node.value
        self.pos += 1  # '{'
        self._skip_ws()
        if self._peek() == "}":
            self.pos += 1
            return node
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
            members[key] = self._value()
            self._skip_ws()
            ch = self._peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "}":
                self.pos += 1
                return node
            self._error("expected ',' or '}' in object")

    def _array(self) -> Node:
        node = Node([], *self._where(self.pos))
        items: list[Node] = node.value
        self.pos += 1  # '['
        self._skip_ws()
        if self._peek() == "]":
            self.pos += 1
            return node
        while True:
            self._skip_ws()
            items.append(self._value())
            self._skip_ws()
            ch = self._peek()
            if ch == ",":
                self.pos += 1
                continue
            if ch == "]":
                self.pos += 1
                return node
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

    def _number(self) -> Node:
        m = _NUMBER_RE.match(self.text, self.pos)
        if m is None:
            self._error("bad number")
        where = self._where(self.pos)
        literal = m.group(0)
        self.pos = m.end()
        if "." in literal or "e" in literal or "E" in literal:
            return Node(float(literal), *where)
        try:
            return Node(int(literal), *where)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise JsonSyntaxError("integer literal too long", *where) from None


def parse_json(text: str) -> Node:
    """Parse a JSON document into a position-annotated node tree."""
    return _Reader(text).parse()


def _members(pairs: list[tuple[str, object]]) -> dict[str, object]:
    if len(members := dict(pairs)) < len(pairs):
        raise ValueError("duplicate key")
    return members


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def _wrap(value: object, depth: int) -> Node:
    kind = type(value)
    if kind is dict or kind is list:
        if depth == MAX_DEPTH:
            raise ValueError(f"nesting deeper than {MAX_DEPTH}")
        value = ({k: _wrap(v, depth + 1) for k, v in value.items()} if kind is dict
                 else [_wrap(v, depth + 1) for v in value])
    return Node(value, None, None)


def load_json(text: str) -> Node | None:
    """parse_json's tree without positions, read by json.loads; None where
    json.loads or this module's rules refuse the text."""
    try:
        return _wrap(json.loads(text, object_pairs_hook=_members, parse_constant=_no_constant), 0)
    except (ValueError, RecursionError):
        return None
