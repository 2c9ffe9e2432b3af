import pytest
from hypothesis import example, given, strategies as st

from conftest import calls

from tlmforge.diagnostics import IDENTIFIER_RE
from tlmforge import trace
from tlmforge.payload import ResponseStatus
from tlmforge.simtime import U64_MAX
from tlmforge.sysdesc import TimingConstraint, elaborate
from tlmforge.trace import (
    TRACE_COLUMNS,
    TRACE_HEADER,
    TraceRecord,
    TraceSyntaxError,
    UnknownInstanceError,
    _sort_key,
    check_constraints,
    end_to_end_latency,
    parse_trace,
    render_svg,
    render_text,
    write_trace,
)

ABS_ROWS = [
    TraceRecord("Brake", 0, 0, 16_000, 0, ResponseStatus.OK),
    TraceRecord("Router", 0, 10_000, 11_000, 0, ResponseStatus.OK),
    TraceRecord("ABSbrake1", 0, 11_000, 16_000, 0, ResponseStatus.OK),
    TraceRecord("ABSbrake2", 0, 11_000, 16_000, 0, ResponseStatus.OK),
    TraceRecord("ABSbrake3", 0, 11_000, 16_000, 0, ResponseStatus.OK),
    TraceRecord("ABSbrake4", 0, 11_000, 16_000, 0, ResponseStatus.OK),
]

ABS_TEXT = """\
# tlm-forge-trace v1
instance,activation,start_ps,end_ps,txn_id,status
Brake,0,0,16000,0,OK
Router,0,10000,11000,0,OK
ABSbrake1,0,11000,16000,0,OK
ABSbrake2,0,11000,16000,0,OK
ABSbrake3,0,11000,16000,0,OK
ABSbrake4,0,11000,16000,0,OK
"""


def test_abs_run_produces_the_frozen_trace(abs_description):
    model = elaborate(abs_description)
    final = model.run()
    assert final == 16_000  # kernel time at exhaustion equals the system total
    assert write_trace(model.records) == ABS_TEXT


def test_write_format_is_exact():
    assert write_trace(ABS_ROWS) == ABS_TEXT


def test_parse_inverts_write():
    assert parse_trace(write_trace(ABS_ROWS)) == ABS_ROWS


def rows(n: int) -> list[TraceRecord]:
    return [TraceRecord(f"I{i % 7}", i, 10 * i, 10 * i + 5, i // 3, ResponseStatus.OK)
            for i in range(n)]


def test_write_and_parse_make_as_many_calls_on_5000_rows_as_on_10():
    """Both check and convert a trace by whole columns and whole texts, with no call per
    row: a reader line by line, as _refusal is, makes 5007 calls on 1000 rows.  Unlike a
    profiled share of the time, a call count does not move with the machine's load.  It
    pins calls per row only: a per-row loop that calls nothing, such as write_trace's own
    f-string comprehension, makes no call event and passes."""
    small, large = rows(10), rows(5000)
    assert calls(write_trace, small) == calls(write_trace, large)
    assert calls(parse_trace, write_trace(small)) == calls(parse_trace, write_trace(large))


def test_empty_trace_is_header_only_and_round_trips():
    text = write_trace([])
    assert text == f"{TRACE_HEADER}\n{TRACE_COLUMNS}\n"
    assert parse_trace(text) == []


def test_parse_rejects_end_before_start():
    text = f"{TRACE_HEADER}\n{TRACE_COLUMNS}\nA,0,10,5,0,OK\n"
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace(text)
    assert info.value.line == 3


def test_parse_rejects_bad_header():
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace("nonsense\n")
    assert info.value.line == 1


COLUMN_LINE = f"expected column line {TRACE_COLUMNS!r}"


@pytest.mark.parametrize("text", [
    f"{TRACE_HEADER}\ninstance,activation,start,end,txn_id,status\nA,0,0,5,0,OK\n",
    f"{TRACE_HEADER}\n\n",
    f"{TRACE_HEADER}\n",
    TRACE_HEADER,  # the header alone, without its newline
])
def test_parse_rejects_a_wrong_or_missing_column_line(text):
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace(text)
    assert str(info.value) == f"E-TRACE-SYNTAX line 2: {COLUMN_LINE}"


def test_parse_rejects_wrong_field_count():
    text = f"{TRACE_HEADER}\n{TRACE_COLUMNS}\nA,0,10\n"
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace(text)
    assert info.value.line == 3


def test_parse_rejects_unknown_status():
    text = f"{TRACE_HEADER}\n{TRACE_COLUMNS}\nA,0,0,5,0,MAYBE\n"
    with pytest.raises(TraceSyntaxError):
        parse_trace(text)


def test_parse_rejects_incomplete_status():
    text = f"{TRACE_HEADER}\n{TRACE_COLUMNS}\nA,0,0,5,0,INCOMPLETE\n"
    with pytest.raises(TraceSyntaxError):
        parse_trace(text)


def test_parse_rejects_duplicate_activation():
    text = f"{TRACE_HEADER}\n{TRACE_COLUMNS}\nA,0,0,5,0,OK\nA,0,1,6,0,OK\n"
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace(text)
    assert info.value.line == 4


def test_write_rejects_invalid_records():
    with pytest.raises(ValueError):
        write_trace([TraceRecord("A", 0, 10, 5, 0, ResponseStatus.OK)])
    with pytest.raises(ValueError):
        write_trace([TraceRecord("A", 0, 0, 5, 0, ResponseStatus.INCOMPLETE)])
    with pytest.raises(ValueError):
        write_trace([TraceRecord("A,B", 0, 0, 5, 0, ResponseStatus.OK)])
    with pytest.raises(ValueError):
        write_trace([TraceRecord("Brake\n", 0, 0, 5, 0, ResponseStatus.OK)])
    with pytest.raises(ValueError, match=r"^duplicate record for \('A', 0\)$"):
        write_trace([TraceRecord("A", 0, 0, 5, 0, ResponseStatus.OK),
                     TraceRecord("A", 0, 6, 9, 1, ResponseStatus.OK)])


@pytest.mark.parametrize("record", [
    TraceRecord("A", True, 0, 5, 0, ResponseStatus.OK),
    TraceRecord("B", 0, 0, 5.0, 0, ResponseStatus.OK),
    TraceRecord("C", 0, False, 5, 0, ResponseStatus.OK),
    TraceRecord("D", 0, 0, 5, 0.0, ResponseStatus.OK),
    TraceRecord("E", 1.0, 0, 5, 0, ResponseStatus.OK),
])
def test_write_refuses_fields_that_are_not_ints(record):
    """write_trace wrote True and 5.0 as ``True`` and ``5.0``, which
    parse_trace refuses; every number field must be an int."""
    with pytest.raises(ValueError) as info:
        write_trace([ABS_ROWS[0], record])
    assert str(info.value) == f"activation, times and txn_id must be ints, got {record}"


@pytest.mark.parametrize("activation", [2**64, 10**20])
def test_write_refuses_an_activation_past_64_bits(activation):
    """write_trace wrote activation 10**20, whose 21 digits parse_trace refuses."""
    record = TraceRecord("A", activation, 0, 5, 0, ResponseStatus.OK)
    with pytest.raises(ValueError) as info:
        write_trace([record])
    assert str(info.value) == f"activation out of 64-bit range in {record}"


number_st = st.one_of(st.integers(-2, 2**64), st.booleans(), st.floats(0, 20_000),
                      st.sampled_from([0, 5, 16_000, 2**64 - 1, 2**64, 10**20]))


records_st = st.lists(st.builds(
    TraceRecord, st.sampled_from(["A", "B", "A,B", "", "C\n"]), number_st, number_st,
    number_st, number_st, st.sampled_from([*ResponseStatus, "OK"])), max_size=6)


@given(records_st)
def test_what_write_trace_writes_parse_trace_reads(records):
    try:
        text = write_trace(records)
    except ValueError:
        return
    assert parse_trace(text) == sorted(records, key=_sort_key)


good_record_st = st.builds(
    lambda name, act, start, width, txn, status: TraceRecord(name, act, start, start + width,
                                                             txn, status),
    st.sampled_from(["A", "B"]), st.integers(0, 3), st.integers(0, 9), st.integers(0, 9),
    st.sampled_from([0, 7, U64_MAX]), st.sampled_from([s for s in ResponseStatus if s.is_terminal]))
bad_values = {"instance": ["A,B", "", "C\n"], "status": [ResponseStatus.INCOMPLETE, "OK"]}


@pytest.mark.parametrize("field", [None, *TraceRecord._fields])
@given(records=st.lists(good_record_st, max_size=6), data=st.data())
def test_column_check_agrees_with_the_record_check(field, records, data):
    """_writable is write_trace's fast path past the _record_problem loop, so both
    must pass exactly the lists that have no bad and no repeated record. The
    lists are valid but for repeats and one ``field`` of one record."""
    if field and records:
        value = data.draw(st.sampled_from(bad_values.get(field, [-1, 20, 2**64, 10**20, True, 5.0])))
        i = data.draw(st.integers(0, len(records) - 1))
        records[i] = records[i]._replace(**{field: value})
    keys = [(r.instance, r.activation) for r in records]
    expected = not any(map(trace._record_problem, records)) and len(set(keys)) == len(keys)
    assert trace._writable(records) == expected


# -- latency -------------------------------------------------------------------


def test_latency_of_abs_brake():
    assert end_to_end_latency(ABS_ROWS, "Brake") == 16_000


def test_latency_zero_width_record():
    assert end_to_end_latency([TraceRecord("A", 0, 5, 5, 0, ResponseStatus.OK)], "A") == 0


def test_latency_spans_activations():
    records = [TraceRecord("A", 0, 0, 10, 0, ResponseStatus.OK),
               TraceRecord("A", 1, 10, 25, 1, ResponseStatus.OK)]
    assert end_to_end_latency(records, "A") == 25


def test_latency_unknown_instance():
    with pytest.raises(UnknownInstanceError):
        end_to_end_latency(ABS_ROWS, "ghost")


# -- rendering -----------------------------------------------------------------


def test_svg_marker_counts_for_abs():
    svg = render_svg(ABS_ROWS)
    assert svg.count('fill="green"') == 6
    assert svg.count('fill="red"') == 6
    assert "16</text>" in svg  # axis reaches 16 ns


def test_svg_empty_trace_is_axis_only():
    svg = render_svg([])
    assert svg.startswith("<?xml")
    assert svg.count('fill="green"') == 0
    assert svg.count('fill="red"') == 0
    assert "</svg>" in svg


def test_svg_is_deterministic():
    assert render_svg(ABS_ROWS) == render_svg(ABS_ROWS)
    assert render_text(ABS_ROWS) == render_text(ABS_ROWS)


def test_text_chart_has_one_line_per_record():
    chart = render_text(ABS_ROWS)
    lines = chart.splitlines()
    assert len(lines) == 1 + len(ABS_ROWS)
    assert lines[1].startswith("Brake #0")
    assert "o" in lines[1] and "x" in lines[1]


status_st = st.sampled_from([s for s in ResponseStatus if s.is_terminal])


@st.composite
def record_lists(draw):
    n = draw(st.integers(0, 12))
    records = []
    used = set()
    for _ in range(n):
        instance = draw(st.sampled_from(["alpha", "beta", "gamma", "delta"]))
        activation = draw(st.integers(0, 5))
        if (instance, activation) in used:
            continue
        used.add((instance, activation))
        start = draw(st.integers(0, 10_000))
        records.append(TraceRecord(
            instance, activation, start, start + draw(st.integers(0, 10_000)),
            draw(st.integers(0, 100)), draw(status_st)))
    return records


@given(record_lists())
def test_round_trip_any_valid_records(records):
    canonical = sorted(records, key=lambda r: (r.start, r.instance, r.activation))
    assert parse_trace(write_trace(records)) == canonical


# -- strict row syntax -----------------------------------------------------------

ROWS_AT = f"{TRACE_HEADER}\n{TRACE_COLUMNS}\n"
NOT_INTEGERS = "activation, times and txn_id must be integers"
# Spellings int() takes but write_trace never writes.
LOOSE_NUMBERS = ["16_000", " 0", "0 ", "+0", "00", "\u0660", "-0", "007", "1_0"]
BAD_FIELDS = {0: ["", "A B", "\u00e9", "Brake "],
              5: ["ok", " OK", "OK ", "MAYBE", "INCOMPLETE", ""]}


def reference_row(line):
    """The int()-based row reading parse_trace used before: (record, None)
    when it took the row, else (None, its message)."""
    fields = line.split(",")
    if len(fields) != 6:
        return None, f"expected 6 comma-separated fields, got {len(fields)}"
    instance, activation, start, end, txn, status = fields
    if not IDENTIFIER_RE.fullmatch(instance):
        return None, f"bad instance name {instance!r}"
    try:
        numbers = [int(activation), int(start), int(end), int(txn)]
    except ValueError:
        return None, NOT_INTEGERS
    try:
        status = ResponseStatus(status)
    except ValueError:
        return None, f"unknown status {status!r}"
    record = TraceRecord(instance, *numbers, status)
    try:
        write_trace([record])
    except ValueError as exc:
        return None, str(exc)
    return record, None


@pytest.mark.parametrize("column", [1, 2, 3, 4])
@pytest.mark.parametrize("spelling", LOOSE_NUMBERS)
def test_numbers_must_be_spelled_as_write_trace_spells_them(column, spelling):
    fields = ["A", "0", "0", "20000", "0", "OK"]
    fields[column] = spelling
    assert reference_row(",".join(fields))[1] is None  # the int()-based reading took it
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace(ROWS_AT + ",".join(fields) + "\n")
    assert str(info.value) == f"E-TRACE-SYNTAX line 3: {NOT_INTEGERS}"


@pytest.mark.parametrize("row, message", [
    ("A,-1,0,5,0,OK", "activation must be non-negative, got -1"),
    ("A,0,0,5,0,INCOMPLETE", "trace status must be terminal, got <ResponseStatus.INCOMPLETE: "
                             "'INCOMPLETE'>"),
    ("A,0,0,1" + "0" * 20 + ",0,OK", "times out of 64-bit range in TraceRecord(instance='A', "
     "activation=0, start=0, end=1" + "0" * 20 + ", txn_id=0, status=<ResponseStatus.OK: 'OK'>)"),
    ("A,0,0,5," + "9" * 5000 + ",OK", NOT_INTEGERS),
    (f"A,{2**64},0,5,0,OK", f"activation out of 64-bit range in TraceRecord(instance='A', "
     f"activation={2**64}, start=0, end=5, txn_id=0, status=<ResponseStatus.OK: 'OK'>)"),
    ("A,+0,0,5,0,MAYBE", "unknown status 'MAYBE'"),
    ("A,00,5,1,0,OK", "start 5 exceeds end 1 for 'A'"),
])
def test_rows_refused_before_keep_their_message(row, message):
    assert reference_row(row) == (None, message)
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace(ROWS_AT + "B,0,0,0,0,OK\n" + row + "\n")
    assert str(info.value) == f"E-TRACE-SYNTAX line 4: {message}"


def test_times_reach_the_64_bit_limit():
    top = 2**64 - 1
    text = ROWS_AT + f"A,{top},{top},{top},{top},BURST_ERROR\n"
    assert write_trace(parse_trace(text)) == text


@st.composite
def spelled_traces(draw):
    """write_trace text of valid records with its rows maybe permuted and some
    fields respelled, then whether any row moved and whether any field was
    respelled; a respelled field is one write_trace never writes."""
    lines = write_trace(draw(record_lists())).split("\n")
    rows = draw(st.permutations(lines[2:-1]))
    moved = rows != lines[2:-1]
    respelled = False
    for k, row in enumerate(rows):
        fields = row.split(",")
        for column in draw(st.lists(st.integers(0, 5), max_size=2)):
            fields[column] = draw(st.sampled_from(BAD_FIELDS.get(column, LOOSE_NUMBERS)))
            respelled = True
        rows[k] = ",".join(fields)
    return "\n".join(lines[:2] + rows + [""]), moved, respelled


@given(spelled_traces())
def test_accepted_text_is_written_back_byte_for_byte(case):
    """parse_trace takes exactly the texts write_trace writes.  A row it
    refuses gets the message the int()-based reading gave, or NOT_INTEGERS
    where that reading took a respelled row, or OUT_OF_ORDER for a row
    spelled as write_trace spells it."""
    text, moved, respelled = case
    try:
        records = parse_trace(text)
    except TraceSyntaxError as exc:
        assert moved or respelled
        line = text.split("\n")[exc.line - 1]
        record, message = reference_row(line)
        if record is not None and write_trace([record]).endswith(f"\n{line}\n"):
            message = OUT_OF_ORDER
        assert str(exc) == f"E-TRACE-SYNTAX line {exc.line}: {message or NOT_INTEGERS}"
        return
    assert not (moved or respelled)
    assert write_trace(records) == text


# -- canonical text ------------------------------------------------------------

OUT_OF_ORDER = "row sorts before the row above it; rows ascend by (start, instance, activation)"


@pytest.mark.parametrize("rows, line", [
    ("A,0,0,5,0,OK\nA,1,0,5,0,OK\nB,0,0,5,0,OK\n", None),  # equal starts: instance, activation
    ("A,1,0,5,0,OK\nA,0,0,5,0,OK\n", 4),
    ("B,0,0,5,0,OK\nA,0,0,5,0,OK\n", 4),
    ("A,0,1,5,0,OK\nB,0,0,5,0,OK\n", 4),
    ("A,0,0,5,0,OK\nB,0,1,5,0,OK\nC,0,1,5,0,OK\nA,1,0,5,0,OK\n", 6),
])
def test_row_order_is_start_then_instance_then_activation(rows, line):
    if line is None:
        assert write_trace(parse_trace(ROWS_AT + rows)) == ROWS_AT + rows
        return
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace(ROWS_AT + rows)
    assert str(info.value) == f"E-TRACE-SYNTAX line {line}: {OUT_OF_ORDER}"


def test_a_repeated_row_is_still_a_duplicate():
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace(ROWS_AT + "A,0,0,5,0,OK\nA,0,0,5,0,OK\n")
    assert str(info.value) == "E-TRACE-SYNTAX line 4: duplicate record for ('A', 0)"


NO_FINAL_NEWLINE = "the text does not end with a newline"


@pytest.mark.parametrize("text, line", [
    (TRACE_HEADER + "\n" + TRACE_COLUMNS, 2),
    (ROWS_AT + "A,0,0,5,0,OK", 3),
    (ROWS_AT + "A,0,0,5,0,OK\nB,0,0,5,0,OK", 4),
])
def test_the_last_line_must_end_with_a_newline(text, line):
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace(text)
    assert str(info.value) == f"E-TRACE-SYNTAX line {line}: {NO_FINAL_NEWLINE}"


FOREIGN_BREAKS = list("\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029")


def test_foreign_breaks_are_every_break_but_newline_that_splitlines_knows():
    assert FOREIGN_BREAKS == [chr(c) for c in range(0x110000)
                              if c != 10 and len(f"a{chr(c)}b".splitlines()) == 2]


@pytest.mark.parametrize("brk, where", [(brk, 2) for brk in FOREIGN_BREAKS]
                         + [("\r\n", where) for where in range(4)])
def test_only_newline_ends_a_line(brk, where):
    """A line ending or a character that str.splitlines would break at is
    refused at its line, in the header, the column line or a row."""
    lines = [TRACE_HEADER, TRACE_COLUMNS, "A,0,0,5,0,OK", "B,0,0,5,0,OK"]
    lines[where] += brk
    with pytest.raises(TraceSyntaxError) as info:
        parse_trace("\n".join(lines) + "\n")
    assert str(info.value) == (f"E-TRACE-SYNTAX line {where + 1}: line break {brk[0]!r} "
                               "where only '\\n' may end a line")


def reference_parse(text):
    """The per-line reader parse_trace was before it checked the whole text at
    once, with the activation bounded at 2**64 - 1 as write_trace bounds it:
    the records it returned, or the TraceSyntaxError it raised."""
    if found := [text.index(c) for c in FOREIGN_BREAKS if c in text]:
        at = min(found)
        raise TraceSyntaxError(f"line break {text[at]!r} where only '\\n' may end a line",
                               text.count("\n", 0, at) + 1)
    lines = text.split("\n")
    if lines[0] != TRACE_HEADER:
        raise TraceSyntaxError(f"expected header {TRACE_HEADER!r}", 1)
    if len(lines) < 2 or lines[1] != TRACE_COLUMNS:
        raise TraceSyntaxError(f"expected column line {TRACE_COLUMNS!r}", 2)
    records = []
    seen = set()
    last = (-1, "", -1)
    for lineno, line in enumerate(lines[2:-1], start=3):
        m = trace._ROW_RE.fullmatch(line)
        r = m and TraceRecord(m[1], int(m[2]), int(m[3]), int(m[4]), int(m[5]),
                              ResponseStatus(m[6]))
        if r is None or r.start > r.end or max(r.activation, r.end, r.txn_id) > U64_MAX:
            raise TraceSyntaxError(trace._row_problem(line), lineno)
        key = (r.instance, r.activation)
        if key in seen:
            raise TraceSyntaxError(f"duplicate record for {key}", lineno)
        seen.add(key)
        if (order := (r.start, r.instance, r.activation)) <= last:
            raise TraceSyntaxError(OUT_OF_ORDER, lineno)
        last = order
        records.append(r)
    if len(lines) == 2 or lines[-1]:
        raise TraceSyntaxError(NO_FINAL_NEWLINE, len(lines))
    return records


MUTATIONS = ("swap", "duplicate", "rekey", "respell", "2**64", "start > end", "break", "drop")


@st.composite
def mutated_traces(draw):
    """write_trace text of valid records with a few rows swapped, duplicated,
    given another row's (instance, activation), respelled, pushed past 64
    bits, turned end before start, broken by a foreign line break or dropped,
    and maybe without its final newline."""
    lines = write_trace(draw(record_lists())).split("\n")
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if len(lines) < 3:
            break
        k = draw(st.integers(2, len(lines) - 1))  # a row, or the empty last line
        fields = lines[k].split(",")
        if mutation == "swap":
            j = draw(st.integers(2, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        elif mutation == "duplicate":
            lines.insert(draw(st.integers(2, len(lines) - 1)), lines[k])
        elif mutation == "break":
            k = draw(st.integers(0, len(lines) - 1))
            at = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + draw(st.sampled_from(FOREIGN_BREAKS)) + lines[k][at:]
        elif mutation == "drop":
            del lines[draw(st.integers(0, len(lines) - 2))]
        elif len(fields) == 6:
            if mutation == "start > end":
                fields[2], fields[3] = fields[3], fields[2]
            elif mutation == "rekey":
                fields[:2] = lines[draw(st.integers(2, len(lines) - 1))].split(",")[:2]
            else:
                column = draw(st.integers(1, 4))
                fields[column] = draw(st.sampled_from(
                    ["+0", "00", "٠", "16_000", "0" + fields[column]] if mutation == "respell"
                    else [str(2**64), str(2**64 - 1), "9" * 20]))
            lines[k] = ",".join(fields)
    text = "\n".join(lines)
    return text[:-1] if draw(st.booleans()) and text.endswith("\n") else text


@given(mutated_traces())
@example(ROWS_AT)
@example(TRACE_HEADER + "\n" + TRACE_COLUMNS)
@example(ROWS_AT + "A,0,0,5,0,OK\n\nB,0,0,5,0,OK")
@example(ROWS_AT + "A,0,0,5,0,OK\nB,0,1,5,0,OK\nA,0,2,5,0,OK\n")
@example(ROWS_AT + f"A,0,0,5,{2**64},OK\n")
@example(ROWS_AT + f"A,{2**64},0,5,0,OK\n")
def test_the_whole_text_check_agrees_with_the_per_line_reader(text):
    try:
        expected = reference_parse(text)
    except TraceSyntaxError as exc:
        with pytest.raises(TraceSyntaxError) as info:
            parse_trace(text)
        assert (str(info.value), info.value.line) == (str(exc), exc.line)
        return
    records = parse_trace(text)
    assert records == expected
    assert all(type(r) is TraceRecord for r in records)


@given(record_lists())
def test_marker_count_equals_record_count(records):
    svg = render_svg(records)
    assert svg.count('fill="green"') == len(records)
    assert svg.count('fill="red"') == len(records)


# -- constraints ---------------------------------------------------------------


def test_constraint_pass_and_measured_value():
    (check,) = check_constraints(ABS_ROWS, [TimingConstraint("Brake", 16_000)])
    assert check.passed
    assert check.measured_ps == 16_000
    assert str(check) == "PASS Brake: end 16000 ps <= deadline 16000 ps"


def test_constraint_fail():
    (check,) = check_constraints(ABS_ROWS, [TimingConstraint("Brake", 15_000)])
    assert not check.passed
    assert str(check) == "FAIL Brake: end 16000 ps > deadline 15000 ps"


def test_constraints_vacuous_pass():
    assert check_constraints(ABS_ROWS, []) == []


def test_constraint_unknown_instance_fails_with_reason():
    (check,) = check_constraints(ABS_ROWS, [TimingConstraint("ghost", 1)])
    assert not check.passed
    assert check.measured_ps is None
    assert str(check) == "FAIL ghost: E-NO-INSTANCE: no trace records for 'ghost'"


@given(record_lists(), st.integers(0, 30_000), st.integers(0, 10_000))
def test_loosening_a_deadline_never_flips_pass_to_fail(records, deadline, slack):
    names = sorted({r.instance for r in records}) or ["alpha"]
    (tight,) = check_constraints(records, [TimingConstraint(names[0], deadline)])
    (loose,) = check_constraints(records, [TimingConstraint(names[0], deadline + slack)])
    if tight.passed:
        assert loose.passed


def test_unknown_instance_error_names_the_instance():
    assert str(UnknownInstanceError("X")) == "E-NO-INSTANCE: no trace records for instance 'X'"


def test_text_chart_marks_an_activation_shorter_than_one_column():
    chart = render_text([TraceRecord("A", 0, 0, 1_000_000, 0, ResponseStatus.OK),
                         TraceRecord("B", 0, 500_000, 500_100, 1, ResponseStatus.OK)])
    assert chart.splitlines()[1:] == [
        "A #0 |o" + "=" * 58 + "x| 0 .. 1000 ns",
        "B #0 |" + " " * 29 + "#" + " " * 30 + "| 500 .. 500.1 ns",
    ]
