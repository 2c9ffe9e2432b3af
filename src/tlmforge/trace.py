"""Trace logs, timing diagrams, latency extraction, deadline checks.

Log format (bit-exact):

    # tlm-forge-trace v1
    instance,activation,start_ps,end_ps,txn_id,status
    Brake,0,0,16000,0,OK

Rows ascend by (start, instance, activation), and every line, the last
included, ends with "\n"; a text is read only as write_trace writes it.
Times are stored in picoseconds and displayed in nanoseconds.  The SVG
diagram draws one lane per instance with a green marker at each
activation's start and a red one at its end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, repeat
from operator import eq, itemgetter, le, lt, sub
from typing import Iterable, NamedTuple

from .diagnostics import IDENTIFIER_RE
from .payload import ResponseStatus
from .simtime import U64_MAX, format_ns

TRACE_HEADER = "# tlm-forge-trace v1"
TRACE_COLUMNS = "instance,activation,start_ps,end_ps,txn_id,status"
_STATUSES = {s.value: s for s in ResponseStatus}
# A row as write_trace writes it: numbers of 1-20 ASCII digits, no sign or leading zero.
_ROW_RE = re.compile(f"({IDENTIFIER_RE.pattern})" + ",(0|[1-9][0-9]{0,19})" * 4
                     + f",({'|'.join(v for v, s in _STATUSES.items() if s.is_terminal)})")
# Every body row, group-free so findall makes one string a row; a match is one whole line.
_BODY_RE = re.compile(f"^{_ROW_RE.pattern.replace('(', '(?:')}$", re.M)
_HEAD = f"{TRACE_HEADER}\n{TRACE_COLUMNS}\n"
# Where str.splitlines would also end a line.
_FOREIGN_BREAK_RE = re.compile("[\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029]")


class TraceSyntaxError(ValueError):
    """Malformed trace text; carries the offending 1-based line number."""

    code = "E-TRACE-SYNTAX"

    def __init__(self, message: str, line: int):
        super().__init__(f"E-TRACE-SYNTAX line {line}: {message}")
        self.line = line


class UnknownInstanceError(KeyError):
    """A query named an instance that never appears in the trace."""

    code = "E-NO-INSTANCE"

    def __init__(self, instance: str):
        super().__init__(instance)
        self.instance = instance

    def __str__(self) -> str:
        return f"E-NO-INSTANCE: no trace records for instance '{self.instance}'"


class TraceRecord(NamedTuple):
    """One activation of one instance: when it started and when it ended."""

    instance: str
    activation: int
    start: int
    end: int
    txn_id: int
    status: ResponseStatus


_sort_key = itemgetter(2, 0, 1)  # (start, instance, activation)


def _record_problem(r: TraceRecord) -> str | None:
    """Why ``r`` cannot be a trace row, or None when it can."""
    if not isinstance(r.instance, str) or not IDENTIFIER_RE.fullmatch(r.instance):
        return f"instance name {r.instance!r} is not a valid identifier"
    if {type(r.activation), type(r.start), type(r.end), type(r.txn_id)} != {int}:
        return f"activation, times and txn_id must be ints, got {r}"
    if r.activation < 0:
        return f"activation must be non-negative, got {r.activation}"
    if r.activation > U64_MAX:
        return f"activation out of 64-bit range in {r}"
    if not (0 <= r.start <= U64_MAX and 0 <= r.end <= U64_MAX):
        return f"times out of 64-bit range in {r}"
    if r.start > r.end:
        return f"start {r.start} exceeds end {r.end} for '{r.instance}'"
    if not (0 <= r.txn_id <= U64_MAX):
        return f"txn_id out of 64-bit range in {r}"
    if not isinstance(r.status, ResponseStatus) or not r.status.is_terminal:
        return f"trace status must be terminal, got {r.status!r}"
    return None


def format_trace(records: Iterable[TraceRecord]) -> str:
    """The canonical log text (sorted, LF line ends) of records known valid, unchecked."""
    return _HEAD + "".join([f"{name},{act},{start},{end},{txn},{status._value_}\n" for
                            name, act, start, end, txn, status in sorted(records, key=_sort_key)])


def write_trace(records: Iterable[TraceRecord]) -> str:
    """:func:`format_trace` after checking that every record can be a row (a ValueError)."""
    records = list(records)  # read once: the check and the format each go over them
    seen: set[tuple[str, int]] = set()
    for r in records:
        if len(r) != 6:
            raise ValueError(f"a trace record has 6 fields, got {len(r)} in {r!r}")
        if problem := _record_problem(r := TraceRecord._make(r)):  # a plain 6-tuple too
            raise ValueError(problem)
        if (key := (r.instance, r.activation)) in seen:
            raise ValueError(f"duplicate record for {key}")
        seen.add(key)
    return format_trace(records)


def parse_trace(text: str) -> list[TraceRecord]:
    """Parse log text back into records, built from read_columns; raises TraceSyntaxError
    on bad input, which is any text write_trace would not write."""
    return list(map(tuple.__new__, repeat(TraceRecord), zip(*read_columns(text))))


def read_columns(text: str) -> tuple[list, list, list, list, list, list]:
    """The six columns of a trace text's rows as lists in row order, with one name string
    per instance; raises TraceSyntaxError on any text write_trace would not write."""
    if (text.startswith(_HEAD) and text.endswith("\n")
            and len(_BODY_RE.findall(text, len(_HEAD))) == text.count("\n", len(_HEAD))):
        # Every line is a row: past the head's 7 fields come strides of 6 and a final "".
        fields = text.replace("\n", ",").split(",")
        columns = [fields[k:-1:6] for k in range(7, 13)]
        del fields  # and each string column goes once converted, which lowers the peak
        one_name = {name: name for name in columns[0]}.__getitem__
        for k, convert in enumerate((one_name, int, int, int, int, _STATUSES.__getitem__)):
            columns[k] = list(map(convert, columns[k]))
        names, acts, starts, ends, txns, _ = columns
        if (all(map(lt, zip(starts, names, acts), zip(starts[1:], names[1:], acts[1:])))
                and all(map(le, starts, ends)) and max(acts + ends + txns, default=0) <= U64_MAX
                and len(set(zip(names, acts))) == len(names)):
            return tuple(columns)
    raise _refusal(text)


def _refusal(text: str) -> TraceSyntaxError:
    """The first problem of a text parse_trace refused, read line by line."""
    if found := _FOREIGN_BREAK_RE.search(text):
        at = found.start()
        return TraceSyntaxError(f"line break {text[at]!r} where only '\\n' may end a line",
                                text.count("\n", 0, at) + 1)
    lines = text.split("\n")
    if lines[0] != TRACE_HEADER:
        return TraceSyntaxError(f"expected header {TRACE_HEADER!r}", 1)
    if len(lines) < 2 or lines[1] != TRACE_COLUMNS:
        return TraceSyntaxError(f"expected column line {TRACE_COLUMNS!r}", 2)
    seen: set[tuple[str, int]] = set()
    last = (-1, "", -1)
    for lineno, line in enumerate(lines[2:-1], start=3):
        m = _ROW_RE.fullmatch(line)
        r = m and TraceRecord(m[1], int(m[2]), int(m[3]), int(m[4]), int(m[5]), _STATUSES[m[6]])
        if problem := (_record_problem(r) if r else _row_problem(line)):
            return TraceSyntaxError(problem, lineno)
        key = (r.instance, r.activation)
        if key in seen:
            return TraceSyntaxError(f"duplicate record for {key}", lineno)
        seen.add(key)
        if (order := _sort_key(r)) <= last:
            return TraceSyntaxError("row sorts before the row above it; rows ascend by "
                                    "(start, instance, activation)", lineno)
        last = order
    # Every row above passed, so the whole-text check failed on the last line.
    return TraceSyntaxError("the text does not end with a newline", len(lines))


def _row_problem(line: str) -> str:
    """Why _ROW_RE refuses a row: the first problem an ``int()``-based reading
    finds, else a number spelled unlike write_trace's (``+0``, ``16_000``)."""
    fields = line.split(",")
    if len(fields) != 6:
        return f"expected 6 comma-separated fields, got {len(fields)}"
    instance, *numbers, status = fields
    if not IDENTIFIER_RE.fullmatch(instance):
        return f"bad instance name {instance!r}"
    try:
        record = TraceRecord(instance, *map(int, numbers), _STATUSES[status])
    except ValueError:
        return "activation, times and txn_id must be integers"
    except KeyError:
        return f"unknown status {status!r}"
    return _record_problem(record) or "activation, times and txn_id must be integers"


def end_to_end_latency(records: Iterable[TraceRecord], instance: str) -> int:
    """Last end minus first start over the instance's activations."""
    mine = [r for r in records if r[0] == instance]  # by index: a read by name costs more
    if not mine:
        raise UnknownInstanceError(instance)
    return max(map(itemgetter(3), mine)) - min(map(itemgetter(2), mine))


# --------------------------------------------------------------------------
# Deadline constraints

@dataclass(frozen=True)
class ConstraintCheck:
    """One deadline: the instance's final end, or None if it has no trace records."""

    instance: str
    deadline_ps: int
    measured_ps: int | None

    @property
    def passed(self) -> bool:
        return self.measured_ps is not None and self.measured_ps <= self.deadline_ps

    def __str__(self) -> str:
        if self.measured_ps is None:
            return f"FAIL {self.instance}: E-NO-INSTANCE: no trace records for '{self.instance}'"
        verdict, rel = ("PASS", "<=") if self.passed else ("FAIL", ">")
        return (f"{verdict} {self.instance}: end {self.measured_ps} ps "
                f"{rel} deadline {self.deadline_ps} ps")


def check_constraints(records: Iterable[TraceRecord], constraints) -> list[ConstraintCheck]:
    """check_columns on the records' instance and end columns."""
    records = list(records)  # read once: each column goes over them
    return check_columns(*(list(map(itemgetter(i), records)) for i in (0, 3)), constraints)


def check_columns(names: list[str], ends: list[int], constraints) -> list[ConstraintCheck]:
    """One check per constraint: PASS iff the instance's final end meets its deadline;
    an unknown instance fails its constraint with reason E-NO-INSTANCE."""
    return [ConstraintCheck(c.instance, c.max_end_ps,
                            max(compress(ends, map(eq, names, repeat(c.instance))), default=None))
            for c in constraints]


# --------------------------------------------------------------------------
# Rendering

_LABEL_W = 150
_PLOT_W = 600
_MARGIN = 20
_CHART_W = 60  # columns of a text chart's bar
_LANE_H = 26
_BAR_H = 8
_AXIS_H = 46


def _tick_step(span_ps: int) -> int:
    scale = 1
    while True:
        for mult in (1, 2, 5):
            if span_ps // (mult * scale) <= 8:
                return mult * scale
        scale *= 10


def render_svg(records: Iterable[TraceRecord]) -> str:
    """render_svg_columns on the records' columns, in trace row order."""
    rows = sorted(records, key=_sort_key)
    return render_svg_columns(*(list(map(itemgetter(i), rows)) for i in (0, 2, 3)))


def render_svg_columns(names: list[str], starts: list[int], ends: list[int]) -> str:
    """Deterministic SVG 1.1 timing diagram of rows in trace row order.

    One lane per instance; per activation a bar, a green start marker and
    a red end marker.  The axis is labeled in nanoseconds.  Identical
    traces produce byte-identical output.
    """
    # Lanes go by first start, then name: the order in which sorted rows first name them.
    mids = {name: _MARGIN + i * _LANE_H + _LANE_H // 2
            for i, name in enumerate(dict.fromkeys(names))}
    span = max(max(ends, default=0), 1)

    width = _LABEL_W + _PLOT_W + _MARGIN
    height = _MARGIN + max(len(mids), 1) * _LANE_H + _AXIS_H
    ticks = range(0, span + 1, _tick_step(span))

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for name, mid in mids.items():
        out.append(f'<text x="8" y="{mid + 4}" font-family="monospace" font-size="12" '
                   f'fill="black">{name}</text>')
    # Fan-out arms, back-to-back activations and ticks share times: format each one once,
    # and each lane's y and cy once.
    xs = {t: f"{_LABEL_W + t * _PLOT_W / span:.2f}" for t in {*starts, *ends, *ticks}}
    widths = {d: f"{d * _PLOT_W / span:.2f}" for d in set(map(sub, ends, starts))}
    lanes = {name: (f'" y="{mid - _BAR_H // 2}" width="', f'" cy="{mid}" r="3.5" fill="')
             for name, mid in mids.items()}
    out += [f'<rect x="{xs[start]}{y}{widths[end - start]}" height="{_BAR_H}" fill="#7a9cc6"/>\n'
            f'<circle cx="{xs[start]}{cy}green"/>\n<circle cx="{xs[end]}{cy}red"/>'
            for (y, cy), start, end in zip(map(lanes.__getitem__, names), starts, ends)]

    axis_y = _MARGIN + max(len(mids), 1) * _LANE_H + 12
    out.append(f'<line x1="{_LABEL_W}" y1="{axis_y}" x2="{_LABEL_W + _PLOT_W}" y2="{axis_y}" '
               f'stroke="black" stroke-width="1"/>')
    for t in ticks:
        out.append(f'<line x1="{xs[t]}" y1="{axis_y}" x2="{xs[t]}" y2="{axis_y + 5}" '
                   f'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{xs[t]}" y="{axis_y + 18}" font-family="monospace" font-size="10" '
                   f'fill="black" text-anchor="middle">{format_ns(t)}</text>')
    out.append(f'<text x="{_LABEL_W + _PLOT_W}" y="{axis_y + 32}" font-family="monospace" '
               f'font-size="10" fill="black" text-anchor="end">time [ns]</text>')
    out += ['</svg>', '']
    return "\n".join(out)


def render_text(records: Iterable[TraceRecord]) -> str:
    """render_text_columns on the records' columns, in trace row order."""
    rows = sorted(records, key=_sort_key)
    return render_text_columns(*(list(map(itemgetter(i), rows)) for i in range(4)))


def render_text_columns(names, acts, starts, ends) -> str:
    """Plain-text chart of rows in trace row order: one line each, integer-only math."""
    t_max = max(ends, default=0)
    span = max(t_max, 1)
    labels = [f"{name} #{act}" for name, act in zip(names, acts)]
    name_w = max(map(len, labels), default=8)
    ns = {t: format_ns(t) for t in {*starts, *ends}}  # as in the SVG, each time formatted once
    return f"# timing 0 .. {format_ns(t_max)} ns\n" + "".join([
        f"{label:<{name_w}} |{' ' * s}{'#' if s == e else 'o' + '=' * (e - s - 1) + 'x'}"
        f"{' ' * (_CHART_W - 1 - e)}| {ns[start]} .. {ns[end]} ns\n"
        for label, start, end in zip(labels, starts, ends)
        for s, e in [(start * (_CHART_W - 1) // span, end * (_CHART_W - 1) // span)]])
