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
from itertools import repeat
from operator import itemgetter, le, lt, sub
from typing import NamedTuple

from .diagnostics import IDENTIFIER_RE
from .payload import ResponseStatus
from .simtime import U64_MAX, format_ns

TRACE_HEADER = "# tlm-forge-trace v1"
TRACE_COLUMNS = "instance,activation,start_ps,end_ps,txn_id,status"
_STATUSES = {s.value: s for s in ResponseStatus}
# A row as write_trace writes it: numbers of 1-20 ASCII digits, no sign or leading zero.
_ROW_RE = re.compile(f"({IDENTIFIER_RE.pattern})" + ",(0|[1-9][0-9]{0,19})" * 4
                     + f",({'|'.join(v for v, s in _STATUSES.items() if s.is_terminal)})")
# Every row of a body; no line break can match it, so one match is one whole line.
_BODY_RE = re.compile(f"^{_ROW_RE.pattern}$", re.M)
_HEAD = f"{TRACE_HEADER}\n{TRACE_COLUMNS}\n"
# Where str.splitlines would also end a line.
_FOREIGN_BREAKS = "\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"


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
    if not IDENTIFIER_RE.fullmatch(r.instance):
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


def _writable(records: list[TraceRecord]) -> bool:
    """Whether all records pass _record_problem and none repeats, checked by column."""
    names, acts, starts, ends, txns, statuses = list(zip(*records)) or [()] * 6
    return (set(map(type, names)) <= {str} and set(map(type, acts + starts + ends + txns)) <= {int}
            and set(map(type, statuses)) <= {ResponseStatus}
            and ResponseStatus.INCOMPLETE not in statuses
            and all(map(IDENTIFIER_RE.fullmatch, set(names)))
            and min(acts + starts + txns, default=0) >= 0
            and max(acts + ends + txns, default=0) <= U64_MAX and all(map(le, starts, ends))
            and len(set(zip(names, acts))) == len(records))


def write_trace(records: list[TraceRecord]) -> str:
    """Serialize records to the canonical log text (sorted, LF line endings)."""
    if not _writable(records):
        seen: set[tuple[str, int]] = set()
        for r in records:
            problem = _record_problem(r)
            if problem:
                raise ValueError(problem)
            key = (r.instance, r.activation)
            if key in seen:
                raise ValueError(f"duplicate record for {key}")
            seen.add(key)
    return _HEAD + "".join([f"{name},{act},{start},{end},{txn},{status._value_}\n" for
                            name, act, start, end, txn, status in sorted(records, key=_sort_key)])


def parse_trace(text: str) -> list[TraceRecord]:
    """Parse log text back into records; raises TraceSyntaxError on bad input,
    which is any text write_trace would not write."""
    if text.startswith(_HEAD) and text.endswith("\n"):
        rows = _BODY_RE.findall(text, len(_HEAD))
        if len(rows) == text.count("\n", len(_HEAD)):
            # The row tuples go as soon as they are transposed, which lowers the peak.
            names, acts, starts, ends, txns, statuses = list(zip(*rows)) or [()] * 6
            del rows
            acts, starts, ends, txns = (list(map(int, c)) for c in (acts, starts, ends, txns))
            if (all(map(lt, zip(starts, names, acts), zip(starts[1:], names[1:], acts[1:])))
                    and all(map(le, starts, ends)) and max(acts + ends + txns, default=0) <= U64_MAX
                    and len(set(zip(names, acts))) == len(names)):
                return list(map(tuple.__new__, repeat(TraceRecord), zip(
                    names, acts, starts, ends, txns, map(_STATUSES.__getitem__, statuses))))
    raise _refusal(text)


def _refusal(text: str) -> TraceSyntaxError:
    """The first problem of a text parse_trace refused, read line by line."""
    if found := [text.index(c) for c in _FOREIGN_BREAKS if c in text]:
        at = min(found)
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
        # _ROW_RE proves every rule of _record_problem but start <= end and the 64-bit bounds
        if r is None or r.start > r.end or max(r.activation, r.end, r.txn_id) > U64_MAX:
            return TraceSyntaxError(_row_problem(line), lineno)
        key = (r.instance, r.activation)
        if key in seen:
            return TraceSyntaxError(f"duplicate record for {key}", lineno)
        seen.add(key)
        if (order := (r.start, r.instance, r.activation)) <= last:
            return TraceSyntaxError("row sorts before the row above it; rows ascend by "
                                    "(start, instance, activation)", lineno)
        last = order
    # Every row above passed, so the whole-text check failed on the last line.
    return TraceSyntaxError("the text does not end with a newline", len(lines))


def _row_problem(line: str) -> str:
    """Why a row is refused: the first problem an ``int()``-based reading
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


def end_to_end_latency(records: list[TraceRecord], instance: str) -> int:
    """Last end minus first start over the instance's activations."""
    mine = [r for r in records if r.instance == instance]
    if not mine:
        raise UnknownInstanceError(instance)
    return max(r.end for r in mine) - min(r.start for r in mine)


# --------------------------------------------------------------------------
# Deadline constraints

@dataclass(frozen=True)
class ConstraintCheck:
    instance: str
    deadline_ps: int
    measured_ps: int | None
    passed: bool
    reason: str = ""

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        if self.measured_ps is None:
            return f"{verdict} {self.instance}: {self.reason}"
        rel = "<=" if self.passed else ">"
        return (f"{verdict} {self.instance}: end {self.measured_ps} ps "
                f"{rel} deadline {self.deadline_ps} ps")


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]
    passed: bool


def check_constraints(records: list[TraceRecord], constraints) -> ConstraintReport:
    """PASS each constraint iff the instance's final end meets its deadline.

    An unknown instance fails its constraint with reason E-NO-INSTANCE.
    An empty constraint list passes vacuously.
    """
    checks: list[ConstraintCheck] = []
    for c in constraints:
        mine = [r.end for r in records if r.instance == c.instance]
        if not mine:
            checks.append(ConstraintCheck(
                c.instance, c.max_end_ps, None, False,
                reason=f"E-NO-INSTANCE: no trace records for '{c.instance}'"))
            continue
        measured = max(mine)
        checks.append(ConstraintCheck(c.instance, c.max_end_ps, measured,
                                      measured <= c.max_end_ps))
    return ConstraintReport(tuple(checks), all(c.passed for c in checks))


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


def render_svg(records: list[TraceRecord]) -> str:
    """Deterministic SVG 1.1 timing diagram.

    One lane per instance; per activation a bar, a green start marker and
    a red end marker.  The axis is labeled in nanoseconds.  Identical
    traces produce byte-identical output.
    """
    names, _, starts, ends, _, _ = list(zip(*sorted(records, key=_sort_key))) or [()] * 6
    # Lanes go by first start, then name: the order in which sorted rows first name them.
    mids = {name: _MARGIN + i * _LANE_H + _LANE_H // 2
            for i, name in enumerate(dict.fromkeys(names))}
    span = max(max(ends, default=0), 1)

    width = _LABEL_W + _PLOT_W + _MARGIN
    height = _MARGIN + max(len(mids), 1) * _LANE_H + _AXIS_H

    def x(t: int) -> str:
        return f"{_LABEL_W + t * _PLOT_W / span:.2f}"

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for name, mid in mids.items():
        out.append(f'<text x="8" y="{mid + 4}" font-family="monospace" font-size="12" '
                   f'fill="black">{name}</text>')
    # Fan-out arms and back-to-back activations share times: format each one once.
    xs = {t: x(t) for t in {*starts, *ends}}
    widths = {d: f"{d * _PLOT_W / span:.2f}" for d in set(map(sub, ends, starts))}
    bar_ys = {name: str(mid - _BAR_H // 2) for name, mid in mids.items()}
    mid_ys = {name: str(mid) for name, mid in mids.items()}
    out += [f'<rect x="{xs[start]}" y="{bar_ys[name]}" width="{widths[end - start]}" '
            f'height="{_BAR_H}" fill="#7a9cc6"/>\n'
            f'<circle cx="{xs[start]}" cy="{mid_ys[name]}" r="3.5" fill="green"/>\n'
            f'<circle cx="{xs[end]}" cy="{mid_ys[name]}" r="3.5" fill="red"/>'
            for name, start, end in zip(names, starts, ends)]

    axis_y = _MARGIN + max(len(mids), 1) * _LANE_H + 12
    out.append(f'<line x1="{_LABEL_W}" y1="{axis_y}" x2="{_LABEL_W + _PLOT_W}" y2="{axis_y}" '
               f'stroke="black" stroke-width="1"/>')
    step = _tick_step(span)
    for t in range(0, span + 1, step):
        out.append(f'<line x1="{x(t)}" y1="{axis_y}" x2="{x(t)}" y2="{axis_y + 5}" '
                   f'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{x(t)}" y="{axis_y + 18}" font-family="monospace" font-size="10" '
                   f'fill="black" text-anchor="middle">{format_ns(t)}</text>')
    out.append(f'<text x="{_LABEL_W + _PLOT_W}" y="{axis_y + 32}" font-family="monospace" '
               f'font-size="10" fill="black" text-anchor="end">time [ns]</text>')
    out.append('</svg>')
    return "\n".join(out) + "\n"


def render_text(records: list[TraceRecord]) -> str:
    """Plain-text chart: one line per record, integer-only column math."""
    names, acts, starts, ends, _, _ = list(zip(*sorted(records, key=_sort_key))) or [()] * 6
    t_max = max(ends, default=0)
    span = max(t_max, 1)
    name_w = max([len(f"{name} #{act}") for name, act in zip(names, acts)], default=8)
    ns = {t: format_ns(t) for t in {*starts, *ends}}
    lines = [f"# timing 0 .. {format_ns(t_max)} ns"]
    for name, act, start, end in zip(names, acts, starts, ends):
        s_col = start * (_CHART_W - 1) // span
        e_col = end * (_CHART_W - 1) // span
        bar = "#" if s_col == e_col else "o" + "=" * (e_col - s_col - 1) + "x"
        label = f"{name} #{act}"
        lines.append(f"{label:<{name_w}} |{' ' * s_col}{bar}{' ' * (_CHART_W - 1 - e_col)}| "
                     f"{ns[start]} .. {ns[end]} ns")
    return "\n".join(lines) + "\n"
