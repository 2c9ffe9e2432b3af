import pytest
from hypothesis import given, strategies as st

from tlmforge.payload import ResponseStatus
from tlmforge.sysdesc import TimingConstraint, elaborate
from tlmforge.trace import (
    TRACE_COLUMNS,
    TRACE_HEADER,
    TraceRecord,
    TraceSyntaxError,
    UnknownInstanceError,
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


@given(record_lists())
def test_marker_count_equals_record_count(records):
    svg = render_svg(records)
    assert svg.count('fill="green"') == len(records)
    assert svg.count('fill="red"') == len(records)


# -- constraints ---------------------------------------------------------------


def test_constraint_pass_and_measured_value():
    report = check_constraints(ABS_ROWS, [TimingConstraint("Brake", 16_000)])
    assert report.passed
    (check,) = report.checks
    assert check.measured_ps == 16_000
    assert "PASS" in str(check)


def test_constraint_fail():
    report = check_constraints(ABS_ROWS, [TimingConstraint("Brake", 15_000)])
    assert not report.passed
    assert not report.checks[0].passed


def test_constraints_vacuous_pass():
    assert check_constraints(ABS_ROWS, []).passed


def test_constraint_unknown_instance_fails_with_reason():
    report = check_constraints(ABS_ROWS, [TimingConstraint("ghost", 1)])
    assert not report.passed
    assert "E-NO-INSTANCE" in report.checks[0].reason


@given(record_lists(), st.integers(0, 30_000), st.integers(0, 10_000))
def test_loosening_a_deadline_never_flips_pass_to_fail(records, deadline, slack):
    names = sorted({r.instance for r in records}) or ["alpha"]
    constraints = [TimingConstraint(names[0], deadline)]
    tight = check_constraints(records, constraints)
    loose = check_constraints(records, [TimingConstraint(names[0], deadline + slack)])
    if tight.passed:
        assert loose.passed
