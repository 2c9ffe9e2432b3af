import json
import random
import re
from fractions import Fraction

import pytest

import exportcorpus
from conftest import GOLDEN

from tlmforge.codegen import CodegenError, export_tlm, sanitize_identifier
from tlmforge.components import (
    Binding,
    CpuSpec,
    InitiatorSpec,
    Instance,
    RouterSpec,
    TargetSpec,
    TransactionTemplate,
)
from tlmforge.payload import Command
from tlmforge.sysdesc import SystemDescription, elaborate, parse_description


def test_bundle_has_top_plus_one_file_per_module(abs_description):
    bundle = export_tlm(abs_description)
    assert list(bundle) == ["top.cpp", "module0.h", "module1.h", "module2.h"]


def test_export_is_deterministic(abs_description):
    first = export_tlm(abs_description)
    second = export_tlm(abs_description)
    assert first == second


def test_matches_golden_files(abs_description):
    bundle = export_tlm(abs_description)
    golden_dir = GOLDEN / "abs"
    golden_names = sorted(p.name for p in golden_dir.iterdir())
    assert sorted(bundle) == golden_names
    for name, text in bundle.items():
        assert text == (golden_dir / name).read_text(encoding="utf-8"), name


def test_export_matches_the_golden_corpus():
    expected = (GOLDEN / "export_corpus.txt").read_text(encoding="utf-8").splitlines()
    actual = exportcorpus.golden_text().splitlines()
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got == want


def test_every_instance_instantiated_exactly_once(abs_description):
    bundle = export_tlm(abs_description)
    top = bundle["top.cpp"]
    for inst in abs_description.instances:
        pattern = re.compile(
            rf"^\s+\w+ {re.escape(sanitize_identifier(inst.name))}\(", re.MULTILINE)
        assert len(pattern.findall(top)) == 1, inst.name


def test_top_carries_scaled_delays(abs_description):
    top = export_tlm(abs_description)["top.cpp"]
    assert 'Brake("Brake", sc_core::sc_time(10000, sc_core::SC_PS))' in top
    assert 'Router("Router", sc_core::sc_time(1000, sc_core::SC_PS))' in top
    assert 'ABSbrake1("ABSbrake1", sc_core::sc_time(5000, sc_core::SC_PS))' in top


def test_bindings_appear_in_top(abs_description):
    top = export_tlm(abs_description)["top.cpp"]
    assert "Brake.socket0.bind(Router.in0);" in top
    assert "Router.out3.bind(ABSbrake4.socket0);" in top


def test_minimal_description_exports_top_only():
    d = SystemDescription(cpus=[CpuSpec("C0", Fraction(1))])
    bundle = export_tlm(d)
    assert list(bundle) == ["top.cpp"]
    assert "sc_main" in bundle["top.cpp"]


def test_sanitize_replaces_invalid_characters():
    assert sanitize_identifier("my-brake!") == "my_brake_"
    assert sanitize_identifier("ABSbrake1") == "ABSbrake1"
    assert sanitize_identifier("9lives") == "_9lives"


def test_sanitize_empty_name_is_an_error():
    with pytest.raises(CodegenError) as info:
        sanitize_identifier("")
    assert info.value.code == "E-NAME-UNSANITIZABLE"


def test_colliding_names_get_suffixes():
    d = SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[TargetSpec("mem.a", (1_000,), 0, 16, 0, False),
                 TargetSpec("mem-a", (1_000,), 0, 16, 0, False)],
        instances=[Instance("x.1", "mem.a", "C0"), Instance("x-1", "mem-a", "C0")],
    )
    bundle = export_tlm(d)
    assert list(bundle) == ["top.cpp", "mem_a.h", "mem_a_2.h"]
    top = bundle["top.cpp"]
    assert "mem_a x_1(" in top
    assert "mem_a_2 x_1_2(" in top


def test_an_instance_named_like_a_class_does_not_shadow_it():
    d = SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[TargetSpec("Mem", (1_000,), 0, 16, 0, False)],
        instances=[Instance("Mem", "Mem", "C0"), Instance("m2", "Mem", "C0")],
    )
    top = export_tlm(d)["top.cpp"]
    assert '    Mem Mem_2("Mem", ' in top
    assert '    Mem m2("m2", ' in top


@pytest.mark.parametrize("keyword", ["int", "class", "and", "namespace", "this"])
def test_cpp_keywords_get_an_underscore(keyword):
    assert sanitize_identifier(keyword) == keyword + "_"
    d = SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[TargetSpec(keyword, (1_000,), 0, 16, 0, False)],
        instances=[Instance(keyword.upper(), keyword, "C0")],
    )
    bundle = export_tlm(d)
    assert f"SC_MODULE({keyword}_) {{" in bundle[f"{keyword}_.h"]
    assert f'    {keyword}_ {keyword.upper()}("{keyword.upper()}", ' in bundle["top.cpp"]


# Namespaces and the function the bundle uses, members a module's own header declares,
# and numbered members: a class with one of these names does not compile.
RESERVED_NAMES = ["std", "sc_core", "sc_dt", "tlm", "tlm_utils", "sc_main", "run", "execute",
                  "forward", "wait", "kBase", "kSize", "m_delay", "m_storage",
                  "SC_CURRENT_USER_MODULE", "socket0", "socket12", "in0", "out3", "b_transport0",
                  "b_transport_in0", "m_delay0"]


@pytest.mark.parametrize("name", RESERVED_NAMES)
def test_a_name_the_bundle_already_uses_gets_an_underscore(abs_text, name):
    assert sanitize_identifier(name) == name + "_"
    for index in range(3):  # the ABS initiator, router and target in turn
        d, _ = parse_description(abs_text)
        old = d.modules[index].name
        d.modules[index].name = name
        for inst in d.instances:
            if inst.module == old:
                inst.module = name
        bundle = export_tlm(d)
        assert not any(f"SC_MODULE({name})" in text for text in bundle.values())
        for file_name, text in list(bundle.items())[1:]:
            cls = re.search(r"SC_MODULE\((\w+)\)", text)[1]
            # Drop comments and the places a header names its own class; no other may remain.
            code = re.sub(r"//.*", "", text)
            code = re.sub(rf"SC_MODULE\({cls}\)|SC_HAS_PROCESS\({cls}\)|<{cls}>|&{cls}::"
                          rf"|^    {cls}\(sc_core::sc_module_name", "", code, flags=re.MULTILINE)
            assert re.search(rf"\b{cls}\b", code) is None, (file_name, cls)


def test_names_equal_but_for_case_get_distinct_include_guards():
    d = SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[TargetSpec("Mem", (1_000,), 0, 16, 0, False),
                 TargetSpec("MEM", (1_000,), 0, 16, 0, False)],
    )
    bundle = export_tlm(d)
    assert list(bundle) == ["top.cpp", "mem.h", "mem_2.h"]
    assert bundle["mem.h"].startswith(
        "// Generated by tlmforge 0.1.0. Blocking-transport coding style.\n"
        "#ifndef TLMFORGE_MEM_H\n#define TLMFORGE_MEM_H\n")
    assert "SC_MODULE(MEM) {" in bundle["mem_2.h"]
    assert bundle["mem_2.h"].startswith(
        "// Generated by tlmforge 0.1.0. Blocking-transport coding style.\n"
        "#ifndef TLMFORGE_MEM_2_H\n#define TLMFORGE_MEM_2_H\n")
    assert bundle["mem_2.h"].endswith("#endif  // TLMFORGE_MEM_2_H\n")


def test_export_refuses_invalid_description(abs_description):
    abs_description.instances[0] = Instance("Brake", "Module0", "CpuX")
    with pytest.raises(ValueError):
        export_tlm(abs_description)


def test_bundle_lookup_helpers(abs_description):
    bundle = export_tlm(abs_description)
    assert isinstance(bundle, dict)
    with pytest.raises(KeyError):
        bundle["nope.h"]


# -- the simulator and the export route alike --------------------------------------

IF_CHAIN_RE = re.compile(r"if \(addr >= 0x([0-9a-f]+) && addr < 0x([0-9a-f]+)\) \{\n"
                         r" +out(\d+)->b_transport\(trans, t\);")


def exported_routes(header: str, in_socket: int) -> list[tuple[int, int, int]]:
    """The (base, limit, out) of each ``if`` in ``b_transport_in<in_socket>``."""
    start = header.index(f"    void b_transport_in{in_socket}(")
    method = header[start:header.index("\n    }\n", start)]
    return [(int(base, 16), int(limit, 16), int(out)) for base, limit, out
            in IF_CHAIN_RE.findall(method)]


def wide_map_shaped(k: int = 40) -> SystemDescription:
    """One initiator READs through a router that address-maps ``k`` targets;
    the ranges are laid out in a seeded order of outs, with gaps."""
    rng = random.Random(7)
    address_map, base = {}, 0
    for out in rng.sample(range(k), k):
        size = 64 * rng.randint(1, 8)
        address_map[out] = (base, base + size)
        base += size + 64 * rng.randint(0, 2)
    reads = tuple(TransactionTemplate(Command.READ, address_map[out][0], bytes(8))
                  for out in range(k))
    return SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[InitiatorSpec("Core", 1_000, 1, reads),
                 RouterSpec("Xbar", 1_000, 1, k, {0: tuple(range(k))}, address_map)]
        + [TargetSpec(f"Mem{out}", (1_000,), lo, hi - lo)
           for out, (lo, hi) in sorted(address_map.items())],
        instances=[Instance("core", "Core", "C0"), Instance("xbar", "Xbar", "C0")]
        + [Instance(f"mem{out}", f"Mem{out}", "C0") for out in range(k)],
        bindings=[Binding("core", 0, "xbar", 0)]
        + [Binding("xbar", out, f"mem{out}", 0) for out in range(k)])


@pytest.mark.parametrize("d, router", [
    (parse_description(json.dumps(exportcorpus.map_document()))[0], "map"),
    (wide_map_shaped(), "xbar"),
], ids=["descmut Map", "wide_map-shaped"])
def test_exported_if_chain_matches_the_simulators_routes(d, router):
    module = next(i.module for i in d.instances if i.name == router)
    header = export_tlm(d)[f"{module.lower()}.h"]
    bound = {b.from_socket: [(b.to_instance, b.to_socket)]
             for b in d.bindings if b.from_instance == router}
    tables = elaborate(d).instances[router].routes
    assert tables
    for in_socket, table in tables.items():
        simulated = [(base, limit, [(model.name, socket) for model, socket in destinations])
                     for base, limit, destinations in table]
        exported = [(base, limit, bound[out]) for base, limit, out
                    in exported_routes(header, in_socket)]
        # the if chain runs in out order; the simulator keeps its table by base to bisect it
        assert sorted(exported) == simulated
