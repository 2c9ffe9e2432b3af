import gc
import hashlib
import json
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import descmut
import validatecorpus
from conftest import GOLDEN, REPO, calls
from topogen import random_topology

from tlmforge.components import (
    Binding,
    BusSpec,
    CpuSpec,
    InitiatorSpec,
    Instance,
    RouterSpec,
    TargetSpec,
    TransactionTemplate,
)
from tlmforge import sysdesc
from tlmforge.diagnostics import Diagnostic, sort_diagnostics
from tlmforge.payload import Command
from tlmforge.sysdesc import (
    InvalidDescriptionError,
    SystemDescription,
    TimingConstraint,
    elaborate,
    parse_description,
    serialize_description,
    validate_description,
)
from tlmforge.simtime import U64_MAX, parse_time
from tlmforge.trace import write_trace


# -- parsing -------------------------------------------------------------------


def test_a_description_cut_short_is_a_syntax_error():
    desc, diags = parse_description('{"cpus":')
    assert desc is None
    assert [str(d) for d in diags] == ["E-SYNTAX 1:9: unexpected end of input"]


def test_abs_description_parses(abs_description):
    d = abs_description
    assert len(d.cpus) == 6
    assert len(d.modules) == 3
    assert len(d.instances) == 6
    assert len(d.bindings) == 5
    assert d.options.quantum_ps == 0
    assert d.cpus[1].frequency_ghz == Fraction(5)


def test_empty_object_is_missing_cpus():
    desc, diags = parse_description("{}")
    assert desc is None
    assert [d.code for d in diags] == ["E-MISSING"]
    assert "cpus" in diags[0].message


def test_empty_text_is_syntax_error():
    desc, diags = parse_description("")
    assert desc is None
    assert [d.code for d in diags] == ["E-SYNTAX"]


def test_syntax_error_carries_position():
    desc, diags = parse_description('{\n  "cpus": [,]\n}')
    assert desc is None
    (diag,) = diags
    assert diag.code == "E-SYNTAX"
    assert diag.line == 2
    assert diag.column == 12


def test_negative_frequency_is_type_error():
    text = '{\n  "cpus": [\n    {"name": "C0", "frequency": "-1"}\n  ]\n}'
    desc, diags = parse_description(text)
    assert desc is None
    (diag,) = diags
    assert diag.code == "E-TYPE"
    assert (diag.line, diag.column) == (3, 33)
    assert diag.where == "cpus[0].frequency"


def test_duplicate_json_key_is_syntax_error():
    desc, diags = parse_description('{"cpus": [], "cpus": []}')
    assert desc is None
    assert diags[0].code == "E-SYNTAX"
    assert "duplicate" in diags[0].message


def test_unknown_key_is_type_error():
    desc, diags = parse_description('{"cpus": [], "cpuz": []}')
    assert desc is None
    assert [d.code for d in diags] == ["E-TYPE"]
    assert "cpuz" in diags[0].message


def test_data_and_length_are_exclusive():
    text = """{
      "cpus": [{"name": "C0", "frequency": "1GHz"}],
      "modules": [{"kind": "initiator", "name": "I", "delay": "1ns", "sockets": 1,
                   "workload": [{"command": "WRITE", "address": 0,
                                 "data": "00", "length": 1}]}]
    }"""
    desc, diags = parse_description(text)
    assert desc is None
    assert any("not both" in d.message for d in diags)


def test_identifier_ends_at_the_end_of_the_string():
    desc, diags = parse_description('{"cpus": [{"name": "Brake\\n", "frequency": "1GHz"}]}')
    assert desc is None
    assert [str(d) for d in diags] == ["E-TYPE cpus[0].name (1:20): bad identifier "
                                       "'Brake\\n': use letters, digits, '_', '.', '-'"]


def test_template_length_expands_to_zero_data():
    text = """{
      "cpus": [{"name": "C0", "frequency": "1GHz"}],
      "modules": [{"kind": "initiator", "name": "I", "delay": "1ns", "sockets": 1,
                   "workload": [{"command": "WRITE", "address": "0x8", "length": 3}]}]
    }"""
    desc, diags = parse_description(text)
    assert diags == []
    assert desc.modules[0].workload[0].data == b"\x00\x00\x00"


@pytest.mark.parametrize("length", [2**63, 2**64])
def test_template_length_is_a_tlm_data_length(length):
    text = """{
      "cpus": [{"name": "C0", "frequency": "1GHz"}],
      "modules": [{"kind": "initiator", "name": "I", "delay": "1ns", "sockets": 1,
                   "workload": [{"command": "WRITE", "address": "0x8", "length": %d}]}]
    }""" % length
    desc, diags = parse_description(text)
    assert desc is None
    assert [str(d) for d in diags] == [
        f"E-TYPE modules[0].workload[0].length (4:82): expected an integer <= 4294967295, "
        f"got {length}"]


def edited_template(abs_text, members) -> str:
    """abs.json, indented by 2, with the Brake WRITE's data replaced by ``members``."""
    doc = json.loads(abs_text)
    template = doc["modules"][0]["workload"][0]
    del template["data"]
    template.update(members)
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("members, expected", [
    ({"data": None}, "data (59:19): expected a string, got null"),
    ({"length": None}, "length (59:21): expected an integer, got null"),
    ({"data": None, "length": None}, "length (60:21): give 'data' or 'length', not both"),
    ({"length": 4, "data": None}, "length (59:21): give 'data' or 'length', not both"),
])
def test_a_present_null_data_or_length_is_reported(abs_text, members, expected):
    desc, diags = parse_description(edited_template(abs_text, members))
    assert desc is None
    assert [str(d) for d in diags] == ["E-TYPE modules[0].workload[0]." + expected]


def edited_abs(abs_text, repeat=1, storage=None) -> str:
    """abs.json, indented by 2, with the Brake WRITE's ``repeat`` and Module2's ``storage``."""
    doc = json.loads(abs_text)
    doc["modules"][0]["workload"][0]["repeat"] = repeat
    doc["modules"][2]["storage"].update(storage or {})
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("repeat, storage, expected", [
    (2**32, None, "modules[0].workload[0].repeat (59:21): "
                  "expected an integer <= 4294967295, got 4294967296"),
    (5_000_000_000, None, "modules[0].workload[0].repeat (59:21): "
                          "expected an integer <= 4294967295, got 5000000000"),
    (1, {"size": 2**32}, "modules[2].storage.size (86:17): "
                         "expected an integer <= 4294967295, got 4294967296"),
    (1, {"size": 5368709120}, "modules[2].storage.size (86:17): "
                              "expected an integer <= 4294967295, got 5368709120"),
    (1, {"base": "0xffffffffffffffc0"},
     "modules[2].storage (84:18): storage ends at 0x10000000000000000, past 0xffffffffffffffff"),
    (1, {"base": "0xfffffffffffffff0"},
     "modules[2].storage (84:18): storage ends at 0x10000000000000030, past 0xffffffffffffffff"),
], ids=["repeat 2^32", "repeat 5e9", "size 2^32", "size 5 GiB", "end 2^64", "end past 2^64"])
def test_repeat_size_and_storage_end_fit_the_exported_types(abs_text, repeat, storage, expected):
    """The export holds a repeat count and a storage size in an unsigned int and
    computes base + size in 64 bits; a value past either is refused when parsed."""
    desc, diags = parse_description(edited_abs(abs_text, repeat, storage))
    assert desc is None
    assert [str(d) for d in diags] == ["E-TYPE " + expected]


@pytest.mark.parametrize("repeat, storage", [
    (2**32 - 1, None),
    (1, {"size": 2**32 - 1}),
    (1, {"base": "0xffffffffffffffbf"}),
], ids=["repeat 2^32-1", "size 2^32-1", "end 2^64-1"])
def test_the_largest_repeat_size_and_storage_end_are_accepted(abs_text, repeat, storage):
    """Parsed and validated only: elaborating a 4 GiB storage would allocate it."""
    desc, diags = parse_description(edited_abs(abs_text, repeat, storage))
    assert diags == []
    assert validate_description(desc) == []


DEEP = "[" * 300 + "]" * 300


@pytest.mark.parametrize("old, new, expected", [
    ('{\n  "cpus"', '{\n  "zz": %s,\n  "cpus"' % DEEP, "2:264"),
    ('"name": "Cpu0"', '"name": ' + DEEP, "4:268"),
    ('"quantum"', '"x": %s, "quantum"' % DEEP, "183:264"),
], ids=["unknown root key", "cpu name", "options"])
def test_nesting_past_the_bound_is_a_syntax_error_wherever_it_sits(abs_text, old, new, expected):
    """json.loads takes 300 levels; the builder refuses them, and the positioned
    reader reports the bound at the 257th opening bracket."""
    text = json.dumps(json.loads(abs_text), indent=2).replace(old, new, 1)
    assert text.count(DEEP) == 1
    assert [str(d) for d in parse_description(text)[1]] == [
        f"E-SYNTAX {expected}: nesting deeper than 256"]


@pytest.mark.parametrize("text, expected", [
    ("[" * 100_000 + "]" * 100_000, "E-SYNTAX 1:257: nesting deeper than 256"),
    ("null", "E-TYPE $ (1:1): expected an object, got null"),
    ("[]", "E-TYPE $ (1:1): expected an object, got array"),
], ids=["100000 arrays", "null", "empty array"])
def test_a_document_that_is_no_object_is_refused(text, expected):
    assert [str(d) for d in parse_description(text)[1]] == [expected]


@pytest.mark.parametrize("literal, expected", [
    ("0.00001", Fraction(1, 100000)), ("1E-5", Fraction(1, 100000)), ("1e16", Fraction(10**16)),
    ("-0.5", "bandwidth must be positive, got -0.5"), ("1e400", Fraction(10**400)),
    ("1e-400", Fraction(1, 10**400)), ("0.0", "bandwidth must be positive, got 0.0"),
    ("123456789012345678901.5", Fraction(246913578024691357803, 2)),
    ("1e4299", Fraction(10**4299)), ("1e-4299", Fraction(1, 10**4299)),
    ("1e4300", "bandwidth needs more than 4300 digits"),
    ("1e-999999999", "bandwidth needs more than 4300 digits"),
    ("1e999999999999999999", "bandwidth needs more than 4300 digits"),
    pytest.param("1" * 4300 + ".5", "bandwidth needs more than 4300 digits", id="4301 digits"),
])
def test_a_float_bandwidth_reads_as_the_decimal_it_was_written_as(abs_text, literal, expected):
    """A float literal is exact, in exponent form too, far past a double's range.  Its
    digits and exponent are bounded as int() bounds an integer's digits: Fraction builds
    10**exponent, so an exponent of 10**9 would take gigabytes."""
    text = abs_text.replace('"sockets": 1,', f'"sockets": 1, "bandwidth": {literal},', 1)
    desc, diags = parse_description(text)
    if isinstance(expected, Fraction):
        assert diags == [] and desc.modules[0].bandwidth == expected
    else:
        assert [str(d) for d in diags] == [f"E-TYPE modules[0].bandwidth (19:34): {expected}"]


@pytest.mark.parametrize("decimal", ["0.5", "0.1", "123456789012345678901.5",
                                     "3.14159265358979323846"])
def test_a_float_literal_and_its_string_give_the_same_bandwidth(abs_text, decimal):
    bandwidths = []
    for spelled in (decimal, f'"{decimal}"'):
        text = abs_text.replace('"sockets": 1,', f'"sockets": 1, "bandwidth": {spelled},', 1)
        desc, diags = parse_description(text)
        assert diags == []
        bandwidths.append(desc.modules[0].bandwidth)
    assert bandwidths[0] == bandwidths[1] == Fraction(decimal)


@pytest.mark.parametrize("key, expected", [
    ('"sockets": 1', "modules[0].sockets (19:18): expected an integer, got number"),
    ('"repeat": 1', "modules[0].workload[0].repeat (21:91): expected an integer, got number"),
    ('"size": 64', "modules[2].storage.size (36:42): expected an integer, got number"),
    ('"fill": 0', "modules[2].storage.fill (36:54): expected an integer, got number"),
    ('"name": "Brake"', "instances[0].name (41:14): expected a string, got number"),
    ('"frequency": "1GHz"', "cpus[0].frequency (3:35): expected a string, got number"),
])
def test_an_integer_or_string_field_refuses_a_float_literal(abs_text, key, expected):
    """A float literal is read as a Decimal, which no integer or string field takes."""
    text = abs_text.replace(key, key.split(":")[0] + ": 1.5", 1)
    assert [str(d) for d in parse_description(text)[1]] == [f"E-TYPE {expected}"]


@pytest.mark.parametrize("key, literal, where", [
    ('"sockets": 1,', '"sockets": 1, "bandwidth": 1e1000000000000000000,', "19:34"),
    ('"sockets": 1,', '"sockets": 1, "bandwidth": 1e-9999999999999999999,', "19:34"),
    ('"sockets": 1,', '"sockets": -1E+1000000000000000000,', "19:18"),
    ('"size": 64', '"size": 6.4e1000000000000000000', "36:42"),
])
def test_a_float_past_the_exponent_decimal_holds_is_a_syntax_error(abs_text, key, literal, where):
    """Decimal refuses an exponent of 10**18 or more with InvalidOperation, which is no
    ValueError; both readers name it at the literal instead of raising it."""
    text = abs_text.replace(key, literal, 1)
    assert [str(d) for d in parse_description(text)[1]] == [
        f"E-SYNTAX {where}: number out of range"]


def test_string_escapes_in_description_text():
    text = ('{"cpus": [{"name": "C0", "frequency": "1GHz"}],'
            ' "options": {"trace": "out\\u0041\\t.csv"}}')
    desc, diags = parse_description(text)
    assert diags == []
    assert desc.options.trace_path == "outA\t.csv"


def test_diagnostics_are_sorted_and_repeatable():
    text = '{"cpus": [{"name": "C0"}], "modules": 3}'
    _, first = parse_description(text)
    _, second = parse_description(text)
    assert first == second
    assert [d.code for d in first] == sorted(d.code for d in first)


def test_parse_output_matches_the_golden_corpus():
    expected = (GOLDEN / "parse_diagnostics.txt").read_text(encoding="utf-8").split("\n== ")
    actual = descmut.golden_text().split("\n== ")
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


def test_validation_output_matches_the_golden_corpus():
    expected = (GOLDEN / "validate_diagnostics.txt").read_text(encoding="utf-8").split("\n== ")
    actual = validatecorpus.golden_text().split("\n== ")
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


def test_validation_corpus_reaches_every_rule():
    codes = {line.split()[0] for line in validatecorpus.golden_text().splitlines()}
    assert {f"E{k:03}" for k in range(1, 12)} <= codes


def _perfbench_workloads():
    """perfbench/workloads.py, imported read-only."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _workload_texts():
    workloads = _perfbench_workloads()
    return [workloads.generate(name, 1, REPO).text for name in workloads.WORKLOADS]


def test_accepted_descriptions_are_read_once_by_json_loads(monkeypatch, abs_text):
    """abs.json and the benchmark's descriptions never reach the positioned reader."""
    def no_positions(text):
        raise AssertionError("parse_json called on an accepted description")
    monkeypatch.setattr(sysdesc, "parse_json", no_positions)
    for text in [abs_text] + _workload_texts():
        desc, diags = parse_description(text)
        assert desc is not None and diags == []


def wide_map_text(k: int) -> str:
    """The benchmark's wide_map shape: one initiator READs through a router that
    address-maps ``k`` targets, each its own module."""
    reads = [{"command": "READ", "address": f"0x{64 * i + 8:x}", "length": 8, "socket": 0}
             for i in range(k)]
    modules = [
        {"kind": "initiator", "name": "Core", "delay": "3ns", "sockets": 1, "workload": reads},
        {"kind": "router", "name": "Xbar", "delay": "2ns", "in_sockets": 1, "out_sockets": k,
         "connections": {"0": list(range(k))},
         "address_map": {str(i): [f"0x{64 * i:x}", f"0x{64 * i + 64:x}"] for i in range(k)}},
    ] + [{"kind": "target", "name": f"Mem{i}", "socket_delays": [f"{i + 1}ns"],
          "storage": {"base": f"0x{64 * i:x}", "size": 64, "fill": i % 256}} for i in range(k)]
    return json.dumps({
        "cpus": [{"name": "P0", "frequency": "1GHz"}, {"name": "P1", "frequency": "2GHz"}],
        "buses": [{"name": "B", "cpus": ["P0", "P1"]}],
        "modules": modules,
        "instances": [{"name": "cpu", "module": "Core", "cpu": "P0"},
                      {"name": "xbar", "module": "Xbar", "cpu": "P0"}]
                     + [{"name": f"mem{i}", "module": f"Mem{i}", "cpu": "P1"} for i in range(k)],
        "bindings": [{"from": ["cpu", 0], "to": ["xbar", 0]}]
                    + [{"from": ["xbar", i], "to": [f"mem{i}", 0]} for i in range(k)],
        "constraints": [{"instance": "cpu", "max_end": "1ms"}],
        "options": {"quantum": "0ps"},
    })


def test_the_builder_makes_at_most_124_calls_per_wide_map_target():
    """Each target of a wide_map-shaped description adds a module, an instance, a binding,
    a READ and a router connection and range.  The builder reads them in 124 Python and C
    calls (Python 3.11), where building the converter tables on every record, the member
    paths on every value and type checks by isinstance took 207.  Unlike a time, a call
    count does not move with the machine's load."""
    small, large = wide_map_text(10), wide_map_text(250)
    desc, diags = parse_description(large)
    assert diags == [] and validate_description(desc) == []
    assert len(desc.modules) == 252
    assert (calls(parse_description, large) - calls(parse_description, small)) / 240 <= 124


def test_socket_keys_keep_their_position_and_spelling():
    """Every converter forms a member's path from its parent's path and key only when it
    reports, so a key of the wrong type would lose the position (an int key) or spell a
    socket key as ``.k`` (a plain string) without failing anything else.  Over descmut seeds
    outside the golden corpus and edits of each router map's keys and values, every
    E-TYPE and E-MISSING carries a line and column, and names a socket key ``[k]``."""
    texts = [text for seed in (1, 2, 3) for _, text in descmut.cases(seed, 300)]
    base = descmut.base_document()
    m = next(i for i, module in enumerate(base["modules"]) if module.get("address_map"))
    for section in ("connections", "address_map"):
        for key in descmut.SOCKET_KEYS:
            for value in ([], ["x"], [0, "0x10"], "0x0", None, {"0": 1}):
                doc = json.loads(json.dumps(base))
                doc["modules"][m][section] = {key: value, "1": doc["modules"][m][section]["1"]}
                texts.append(json.dumps(doc, indent=2))
    seen = 0
    for text in texts:
        for d in parse_description(text)[1]:
            if d.code in ("E-TYPE", "E-MISSING"):
                assert d.line is not None and d.column is not None, str(d)
                assert not re.search(r"\.(connections|address_map)\.", d.where), str(d)
                seen += ".connections[" in d.where or ".address_map[" in d.where
    assert seen > 100


# Kernel events per run under the description's quantum and under the other one.
BENCH_EVENTS = {"abs_stream": (4001, 33), "bulk_mirror": (25, 129), "wide_map": (501, 7)}


@pytest.mark.parametrize("name", sorted(BENCH_EVENTS))
def test_the_benchmark_traces_match_their_digests_under_either_quantum(name):
    """A change that moves one trace byte or one kernel event of the benchmark's seed-1
    runs fails here as well as in the benchmark's own check."""
    workloads = _perfbench_workloads()
    assert sorted(workloads.WORKLOADS) == sorted(BENCH_EVENTS)
    w = workloads.generate(name, 1, REPO)
    digests = json.loads((REPO / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    assert digests["seed"] == 1
    desc, _ = parse_description(w.text)
    other = "1us" if w.quantum == "0ps" else "0ps"
    events = []
    for quantum in (w.quantum, other):
        model = elaborate(desc, quantum_ps=parse_time(quantum))
        model.run()
        trace = write_trace(model.records).encode("utf-8")
        assert hashlib.sha256(trace).hexdigest() == digests["workloads"][w.name]["trace"]
        events.append(model.scheduler.dispatched)
    assert tuple(events) == BENCH_EVENTS[w.name]


# -- validation ----------------------------------------------------------------


def base_description() -> SystemDescription:
    return SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[
            InitiatorSpec("I", 1_000, 1,
                          (TransactionTemplate(Command.WRITE, 0, b"\x00", 0, 1),)),
            TargetSpec("T", (1_000,), 0, 16, 0, False),
        ],
        instances=[Instance("i0", "I", "C0"), Instance("t0", "T", "C0")],
        bindings=[Binding("i0", 0, "t0", 0)],
    )


def the_codes(d):
    return [diag.code for diag in validate_description(d)]


def test_base_description_is_clean():
    assert validate_description(base_description()) == []


def test_abs_description_is_clean(abs_description):
    assert validate_description(abs_description) == []


def test_e001_unknown_cpu():
    d = base_description()
    d.instances[0] = Instance("i0", "I", "C9")
    assert the_codes(d) == ["E001"]


def test_e001_unknown_module_reference():
    d = base_description()
    d.instances[0] = Instance("i0", "Nope", "C0")
    assert the_codes(d) == ["E001"]


def test_e001_unknown_binding_instance():
    d = base_description()
    d.bindings[0] = Binding("ghost", 0, "t0", 0)
    assert the_codes(d) == ["E001", "E010"]  # i0's socket 0 is left unbound


def test_e002_socket_out_of_range():
    d = base_description()
    d.bindings[0] = Binding("i0", 0, "t0", 5)
    assert the_codes(d) == ["E002"]


def test_e002_workload_socket_out_of_range():
    d = base_description()
    d.modules[0] = InitiatorSpec(
        "I", 1_000, 1, (TransactionTemplate(Command.WRITE, 0, b"\x00", 3, 1),))
    assert the_codes(d) == ["E002"]


def test_e003_cross_cpu_binding_without_bus():
    d = base_description()
    d.cpus.append(CpuSpec("C1", Fraction(2)))
    d.instances[1] = Instance("t0", "T", "C1")
    assert the_codes(d) == ["E003"]
    d.buses.append(BusSpec("b", ("C0", "C1")))
    assert the_codes(d) == []


def test_same_cpu_binding_never_needs_a_bus():
    assert the_codes(base_description()) == []


def test_abs_with_bus_edge_removed_is_e003(abs_description):
    abs_description.buses = [b for b in abs_description.buses if b.name != "bus0"]
    assert the_codes(abs_description) == ["E003"]


def test_e004_read_broadcast_over_binding():
    d = base_description()
    d.modules[0] = InitiatorSpec(
        "I", 1_000, 1, (TransactionTemplate(Command.READ, 0, b"\x00", 0, 1),))
    d.modules.append(TargetSpec("T2", (1_000,), 0, 16, 0, False))
    d.instances.append(Instance("t1", "T2", "C0"))
    d.bindings.append(Binding("i0", 0, "t1", 0))
    assert the_codes(d) == ["E004"]


def test_e004_read_broadcast_through_router():
    d = base_description()
    d.modules[0] = InitiatorSpec(
        "I", 1_000, 1, (TransactionTemplate(Command.READ, 0, b"\x00", 0, 1),))
    d.modules.append(RouterSpec("R", 1_000, 1, 2, {0: (0, 1)}))
    d.modules.append(TargetSpec("T2", (1_000,), 0, 16, 0, False))
    d.instances.append(Instance("r0", "R", "C0"))
    d.instances.append(Instance("t1", "T2", "C0"))
    d.bindings = [Binding("i0", 0, "r0", 0), Binding("r0", 0, "t0", 0),
                  Binding("r0", 1, "t1", 0)]
    assert the_codes(d) == ["E004"]


def test_read_fanout_with_disjoint_decode_is_fine():
    d = base_description()
    d.modules[0] = InitiatorSpec(
        "I", 1_000, 1, (TransactionTemplate(Command.READ, 0, b"\x00", 0, 1),))
    d.modules.append(RouterSpec("R", 1_000, 1, 2, {0: (0, 1)},
                                address_map={0: (0, 8), 1: (8, 16)}))
    d.modules.append(TargetSpec("T2", (1_000,), 0, 16, 0, False))
    d.instances.append(Instance("r0", "R", "C0"))
    d.instances.append(Instance("t1", "T2", "C0"))
    d.bindings = [Binding("i0", 0, "r0", 0), Binding("r0", 0, "t0", 0),
                  Binding("r0", 1, "t1", 0)]
    assert the_codes(d) == []


def test_e005_duplicate_identifier():
    d = base_description()
    d.instances.append(Instance("t0", "T", "C0"))
    assert the_codes(d) == ["E005"]
    d = base_description()
    d.cpus.append(CpuSpec("C0", Fraction(4)))
    assert the_codes(d) == ["E005"]


def test_e006_router_connection_invalid_socket():
    d = base_description()
    d.modules.append(RouterSpec("R", 1_000, 1, 1, {0: (7,)}))
    assert the_codes(d) == ["E006"]


def test_e006_overlapping_address_ranges():
    d = base_description()
    d.modules.append(RouterSpec("R", 1_000, 1, 2, {0: (0, 1)},
                                address_map={0: (0, 0x10), 1: (0x8, 0x20)}))
    assert the_codes(d) == ["E006"]


def test_e006_empty_address_range():
    d = base_description()
    d.modules.append(RouterSpec("R", 1_000, 1, 1, {0: (0,)},
                                address_map={0: (0x10, 0x10)}))
    assert the_codes(d) == ["E006"]


def reference_e006(d: SystemDescription) -> list[Diagnostic]:
    """E006 by comparing every pair of routes of each in-socket."""
    diags = []
    add = lambda code, message, where: diags.append(Diagnostic(code, message, where=where))
    for m, spec in enumerate(d.modules):
        if not isinstance(spec, RouterSpec):
            continue
        for in_socket, outs in spec.connections.items():
            cwhere = f"modules[{m}].connections[{in_socket}]"
            if not 0 <= in_socket < spec.in_socket_count:
                add("E006", f"connection in-socket {in_socket} out of range "
                    f"({spec.in_socket_count} in-sockets)", cwhere)
            for out in outs:
                if not 0 <= out < spec.out_socket_count:
                    add("E006", f"connection out-socket {out} out of range "
                        f"({spec.out_socket_count} out-sockets)", cwhere)
        if spec.address_map is not None:
            for out, rng in spec.address_map.items():
                mwhere = f"modules[{m}].address_map[{out}]"
                if not 0 <= out < spec.out_socket_count:
                    add("E006", f"address_map out-socket {out} out of range "
                        f"({spec.out_socket_count} out-sockets)", mwhere)
                if rng[0] >= rng[1]:
                    add("E006", f"empty address range [0x{rng[0]:x}, 0x{rng[1]:x})", mwhere)
        for in_socket in spec.connections:
            routes = spec.routes(in_socket)
            for a, (base, limit, outs) in enumerate(routes):
                for other_base, other_limit, other_outs in routes[a + 1:]:
                    if base < other_limit and other_base < limit:
                        add("E006", f"address ranges of out-sockets {outs[0]} and "
                            f"{other_outs[0]} reachable from in-socket {in_socket} overlap",
                            f"modules[{m}].address_map")
    return sort_diagnostics(diags)


def e006(d: SystemDescription) -> list[str]:
    return [str(x) for x in validate_description(d) if x.code == "E006"]


def test_e006_reports_every_range_a_wide_one_covers():
    """Sorted neighbours alone would miss [0, 100) against [30, 40)."""
    d = base_description()
    d.modules.append(RouterSpec("R", 1_000, 1, 3, {0: (0, 1, 2)},
                                address_map={0: (0, 100), 1: (10, 20), 2: (30, 40)}))
    assert [x.message for x in validate_description(d) if x.message.endswith("overlap")] == [
        "address ranges of out-sockets 0 and 1 reachable from in-socket 0 overlap",
        "address ranges of out-sockets 0 and 2 reachable from in-socket 0 overlap"]
    assert e006(d) == [str(x) for x in reference_e006(d)]


# Range ends drawn from a few points, so that ranges are often adjacent, nested,
# identical, empty or inverted, and one may end at 2**64.
_ENDS = st.sampled_from([0, 1, 2, 3, 5, 8, 13, 2**63, U64_MAX, U64_MAX + 1]) | st.integers(0, 2**64)
_RANGES = st.tuples(_ENDS, _ENDS).map(lambda r: tuple(sorted(r))) | st.tuples(_ENDS, _ENDS)
_OUTS = 6


@st.composite
def address_routers(draw) -> RouterSpec:
    """A router with 1-3 in-sockets; connections may name in-socket ``ins`` and
    out-socket 6, both out of range, and an out may be connected but unmapped."""
    ins = draw(st.integers(1, 3))
    outs = st.lists(st.integers(0, _OUTS), min_size=1, max_size=8).map(tuple)
    connections = draw(st.dictionaries(st.integers(0, ins), outs, min_size=1, max_size=ins + 1))
    address_map = draw(st.dictionaries(st.integers(0, _OUTS), _RANGES, max_size=_OUTS + 1)
                       | st.none())
    return RouterSpec("R", 1_000, ins, _OUTS, connections, address_map)


@settings(max_examples=200)
@given(st.lists(address_routers(), min_size=1, max_size=3))
def test_e006_matches_a_comparison_of_every_pair(routers):
    d = base_description()
    d.modules += routers
    assert e006(d) == [str(x) for x in reference_e006(d)]


def test_e007_constraint_unknown_instance():
    d = base_description()
    d.constraints.append(TimingConstraint("ghost", 1_000))
    assert the_codes(d) == ["E007"]


def test_e008_in_socket_bound_twice():
    d = base_description()
    d.modules[0] = InitiatorSpec("I", 1_000, 2,
                                 (TransactionTemplate(Command.WRITE, 0, b"\x00", 0, 1),))
    d.bindings.append(Binding("i0", 1, "t0", 0))
    assert the_codes(d) == ["E008"]


def test_e009_names_the_loop_through_two_routers():
    d = base_description()
    d.modules.append(RouterSpec("R", 1_000, 1, 1, {0: (0,)}))
    d.instances += [Instance("r0", "R", "C0"), Instance("r1", "R", "C0")]
    d.bindings += [Binding("r0", 0, "r1", 0), Binding("r1", 0, "r0", 0)]
    assert [str(x) for x in validate_description(d)] == [
        "E009 bindings: binding cycle r0[0] -> r1[0] -> r0[0]"]


def test_e009_walks_a_long_acyclic_chain_without_recursion():
    d = base_description()
    d.modules.append(RouterSpec("R", 1_000, 1, 1, {0: (0,)}))
    n = 3_000
    d.instances += [Instance(f"r{k}", "R", "C0") for k in range(n)]
    d.bindings[0] = Binding("i0", 0, "r0", 0)
    d.bindings += [Binding(f"r{k}", 0, f"r{k + 1}", 0) for k in range(n - 1)]
    d.bindings.append(Binding(f"r{n - 1}", 0, "t0", 0))
    assert [str(x) for x in validate_description(d)] == [
        f"E011 i0.workload[0]: a path from 'i0' socket 0 passes {n} routers; "
        "at most 256 are allowed"]


def test_validate_is_pure_and_ordered():
    d = base_description()
    d.instances[0] = Instance("i0", "I", "C9")
    d.bindings.append(Binding("i0", 0, "t0", 0))  # E008
    d.constraints.append(TimingConstraint("ghost", 1))  # E007
    first = validate_description(d)
    second = validate_description(d)
    assert first == second
    assert [x.code for x in first] == sorted(x.code for x in first)


# -- serialization -------------------------------------------------------------


def test_serialize_round_trips_abs(abs_description):
    text = serialize_description(abs_description)
    reparsed, diags = parse_description(text)
    assert diags == []
    assert reparsed == abs_description


def test_serialize_round_trips_random_topologies():
    rng = random.Random(7)
    for _ in range(20):
        desc = random_topology(rng)
        desc.constraints.append(TimingConstraint("init", 10**9))
        text = serialize_description(desc)
        reparsed, diags = parse_description(text)
        assert diags == []
        assert reparsed == desc


def test_serialize_round_trips_address_map_and_bandwidth():
    d = base_description()
    d.modules.append(RouterSpec("R", 1_000, 1, 2, {0: (0, 1)},
                                address_map={0: (0, 8), 1: (8, 16)},
                                bandwidth=Fraction(1, 3)))
    d.options.trace_path = "out.csv"
    d.options.quantum_ps = 12_345
    text = serialize_description(d)
    reparsed, diags = parse_description(text)
    assert diags == []
    assert reparsed == d


# -- elaboration ---------------------------------------------------------------


def test_elaborate_refuses_invalid_description():
    d = base_description()
    d.instances[0] = Instance("i0", "I", "C9")
    with pytest.raises(InvalidDescriptionError):
        elaborate(d)


def test_elaborate_refuses_unbound_initiator_socket():
    d = base_description()
    d.bindings = []
    with pytest.raises(InvalidDescriptionError) as info:
        elaborate(d)
    assert [str(x) for x in info.value.diagnostics] == [
        "E010 i0.workload[0]: initiator 'i0' socket 0 is unbound"]


def test_elaborate_refuses_bound_router_without_connection():
    for connections in ({}, {0: ()}):
        d = base_description()
        d.modules.append(RouterSpec("R", 1_000, 1, 1, connections))
        d.instances.append(Instance("r0", "R", "C0"))
        d.bindings = [Binding("i0", 0, "r0", 0)]
        with pytest.raises(InvalidDescriptionError) as info:
            elaborate(d)
        assert [str(x) for x in info.value.diagnostics] == [
            "E010 r0.connections[0]: router 'r0' in-socket 0 is bound "
            "but has no connection entry"]


def test_elaborate_refuses_unbound_router_out():
    d = base_description()
    d.modules.append(RouterSpec("R", 1_000, 1, 1, {0: (0,)}))
    d.instances.append(Instance("r0", "R", "C0"))
    d.bindings = [Binding("i0", 0, "r0", 0)]
    with pytest.raises(InvalidDescriptionError) as info:
        elaborate(d)
    assert [str(x) for x in info.value.diagnostics] == [
        "E010 r0.connections[0]: router 'r0' out-socket 0 is unbound"]


def test_zero_initiators_run_to_empty_trace():
    d = SystemDescription(cpus=[CpuSpec("C0", Fraction(1))],
                          modules=[TargetSpec("T", (1_000,), 0, 16, 0, False)],
                          instances=[Instance("t0", "T", "C0")])
    model = elaborate(d)
    assert model.run() == 0
    assert model.records == []


def test_two_elaborations_produce_identical_traces(abs_description):
    first = elaborate(abs_description)
    first.run()
    second = elaborate(abs_description)
    second.run()
    assert write_trace(first.records) == write_trace(second.records)


def test_unrun_model_is_freed_without_the_cycle_collector(abs_description):
    gc.disable()
    try:
        model = elaborate(abs_description)
        initiator = weakref.ref(model.instances["Brake"])
        del model
        assert initiator() is None
    finally:
        gc.enable()
