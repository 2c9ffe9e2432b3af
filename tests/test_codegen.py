import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import exportcorpus
from conftest import GOLDEN
from test_sysdesc import wide_map_text

from tlmforge import codegen
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


def test_an_initiators_bytes_export_as_one_literal_each():
    """Each template's bytes are written as 0x literals, and no bytes as an empty list."""
    datas = [b"", b"\x00", bytes(range(256)), b"\xff" * 4096]
    d = SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[InitiatorSpec("Core", 1_000, 1, tuple(
                     TransactionTemplate(Command.WRITE, 0, data) for data in datas)),
                 TargetSpec("Mem", (1_000,), 0, 4096)],
        instances=[Instance("core", "Core", "C0"), Instance("mem", "Mem", "C0")],
        bindings=[Binding("core", 0, "mem", 0)])
    header = export_tlm(d)["core.h"]
    assert "kData[0] = {  };" in header
    for data in datas:
        literals = ", ".join(f"0x{b:02x}" for b in data)
        assert f"static const unsigned char kData[{len(data)}] = {{ {literals} }};" in header


@given(st.binary(max_size=8192))
@example(bytes(range(256)) * 32)
def test_an_initializer_spells_each_byte_as_the_hex_join_does(data):
    reference = "0x" + data.hex(" ").replace(" ", ", 0x") if data else ""
    assert codegen._kdata(data) == (
        f"            static const unsigned char kData[{len(data)}] = {{ {reference} }};")


def bulk_mirror_shaped() -> SystemDescription:
    """As perfbench's bulk_mirror: 4 KiB WRITEs of distinct data broadcast to two
    mirrors, and 4 KiB zero-filled ``length`` READs from mirror 0's second socket;
    a second initiator WRITEs the first block's bytes again and READs 4 KiB."""
    rng, n = random.Random(32), 4096
    blocks = [rng.randbytes(n) for _ in range(3)]
    dma = [t for k, data in enumerate(blocks) for t in (
        {"command": "WRITE", "address": hex(k * n), "data": data.hex(), "repeat": 2},
        {"command": "READ", "address": hex(k * n), "length": n, "socket": 1, "repeat": 2})]
    cpu = [{"command": "WRITE", "address": hex(3 * n), "data": blocks[0].hex()},
           {"command": "READ", "address": "0x0", "length": n}]
    doc = {
        "cpus": [{"name": "C0", "frequency": "1GHz"}, {"name": "C1", "frequency": "2/3GHz"}],
        "buses": [{"name": "fabric", "cpus": ["C0", "C1"]}],
        "modules": [
            {"kind": "initiator", "name": "Dma", "delay": "5ns", "sockets": 2,
             "workload": dma, "bandwidth": "3/2"},
            {"kind": "initiator", "name": "Cpu", "delay": "2ns", "sockets": 1, "workload": cpu},
            {"kind": "router", "name": "Bcast", "delay": "1ns", "in_sockets": 2,
             "out_sockets": 2, "connections": {"0": [0, 1], "1": [0]}, "bandwidth": "4"},
            {"kind": "target", "name": "MirrorMem", "socket_delays": ["10ns", "20ns"],
             "storage": {"base": "0x0", "size": 4 * n, "fill": 165}, "bandwidth": "8"}],
        "instances": [{"name": "dma", "module": "Dma", "cpu": "C0"},
                      {"name": "cpu", "module": "Cpu", "cpu": "C1"},
                      {"name": "bcast", "module": "Bcast", "cpu": "C1"},
                      {"name": "mirror0", "module": "MirrorMem", "cpu": "C0"},
                      {"name": "mirror1", "module": "MirrorMem", "cpu": "C1"}],
        "bindings": [{"from": ["dma", 0], "to": ["bcast", 0]},
                     {"from": ["dma", 1], "to": ["mirror0", 1]},
                     {"from": ["cpu", 0], "to": ["bcast", 1]},
                     {"from": ["bcast", 0], "to": ["mirror0", 0]},
                     {"from": ["bcast", 1], "to": ["mirror1", 0]}],
        "constraints": [], "options": {"quantum": "10us"}}
    d, diags = parse_description(json.dumps(doc))
    assert d is not None, diags
    return d


# Computed with the hex-join spelling the property test keeps as its reference.
BULK_MIRROR_SHAPED_SHA256 = "723cd43161ea2afb7b08754e001f71af2f7295be377da29653e6ce62402f10c3"


def test_long_and_repeated_arrays_export_the_pinned_bundle():
    assert exportcorpus.bundle_digest(bulk_mirror_shaped()) == BULK_MIRROR_SHAPED_SHA256


def test_a_bundle_spells_each_distinct_byte_string_once(monkeypatch):
    """Eight templates in two initiators carry four distinct byte strings."""
    d = bulk_mirror_shaped()
    spelled = []
    spell = codegen._kdata
    monkeypatch.setattr(codegen, "_kdata", lambda data: spelled.append(data) or spell(data))
    export_tlm(d)
    datas = [t.data for m in d.modules if isinstance(m, InitiatorSpec) for t in m.workload]
    assert (len(datas), len(spelled)) == (8, 4)
    assert spelled == list(dict.fromkeys(datas))


# Both computed before target headers were filled in from their shapes.
WIDE_MAP_SHA256 = "a872face07f489f545859cdbaa2a29fcae87fc4285251dabefb483bf89eb8d27"
SAME_SHAPE_SHA256 = "c75165561dc3a8910d0fe18f8f162b3e76cc81fd1759bc0d16169a8d7df65f89"


def same_shape_targets() -> SystemDescription:
    """Targets of three shapes whose members differ in base, size and fill.  Their names
    sanitize alike (Mem.1, Mem-1), collide but for case (mem_1), need a leading underscore
    (9mem), or hold format syntax, which the library API does not refuse."""
    wide = Fraction(3, 2)
    modules = [TargetSpec("Mem.1", (1_000,), 0x0, 16, 0),
               TargetSpec("Mem-1", (2_000,), 0x1000, 4096, 0xa5),
               TargetSpec("9mem", (3_000,), 0xffff_ffff_ffff_fe00, 256, 0xff),
               TargetSpec("mem_1", (4_000,), 0x40, 1, 7),
               TargetSpec("Mem{0}\x01{5:x}", (1_000,), 0x80, 8, 0x10),
               TargetSpec("Dmi", (1_000,), 0x2000, 64, 1, True),
               TargetSpec("Dual", (1_000, 2_000), 0x3000, 32, 2, False, wide),
               TargetSpec("dual", (5_000, 6_000), 0x4000, 48, 3, False, wide)]
    return SystemDescription(cpus=[CpuSpec("C0", Fraction(1))], modules=modules,
                             instances=[Instance(m.name, m.name, "C0") for m in modules])


def test_same_shape_targets_export_the_pinned_bundles():
    wide_map, diags = parse_description(wide_map_text(250))
    assert diags == []
    assert exportcorpus.bundle_digest(wide_map) == WIDE_MAP_SHA256
    assert exportcorpus.bundle_digest(same_shape_targets()) == SAME_SHAPE_SHA256


def test_a_bundle_renders_each_target_shape_once(monkeypatch):
    """A shape is a target's in-socket count, bandwidth and DMI flag: wide_map's 250
    targets have one, and same_shape_targets' eight have three."""
    rendered = []
    form = codegen._target_form
    monkeypatch.setattr(codegen, "_target_form", lambda spec: rendered.append(spec) or form(spec))
    export_tlm(parse_description(wide_map_text(250))[0])
    assert [spec.name for spec in rendered] == ["Mem0"]
    rendered.clear()
    export_tlm(same_shape_targets())
    assert [spec.name for spec in rendered] == ["Mem.1", "Dmi", "Dual"]


def test_the_exporter_sanitizes_each_module_and_instance_name_once(monkeypatch):
    """A module's class and file share one sanitized base: wide_map's 252 modules and 252
    instances take 504 sanitizes, where sanitizing a module's name per namer took 756."""
    names = []
    sanitize = codegen.sanitize_identifier
    monkeypatch.setattr(codegen, "sanitize_identifier",
                        lambda name: names.append(name) or sanitize(name))
    d = parse_description(wide_map_text(250))[0]
    export_tlm(d)
    assert len(names) == 504
    assert sorted(names) == sorted([m.name for m in d.modules] + [i.name for i in d.instances])


def test_a_bandwidth_too_large_for_two_targets_names_the_first():
    doc = json.loads(wide_map_text(4))
    for m in (3, 5):  # Mem1 and Mem3, one shape
        doc["modules"][m]["bandwidth"] = "18446744073709551616"
    desc, diags = parse_description(json.dumps(doc))
    assert diags == []
    with pytest.raises(CodegenError) as info:
        export_tlm(desc)
    assert str(info.value) == ("E-BANDWIDTH-RANGE: module 'Mem1': bandwidth "
                               "18446744073709551616 needs C++ arithmetic past 2^64 - 1")


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


def test_a_collision_suffix_never_rebuilds_a_reserved_name():
    """A suffixed name is sanitized again: ``SC_X__2`` has SystemC's macro shape.  The
    namer is fed sanitized names, as ``export_tlm`` feeds it."""
    pieces = ["SC_", "X", "-", ".", "1", "_", "socket", "TLMFORGE_", "H", "int", "m_delay"]
    names = [a + b + c for a in pieces for b in ["", *pieces] for c in ["", *pieces]]
    for case_insensitive in (False, True):
        namer = codegen._Namer(case_insensitive)
        for got in map(namer.unique, map(sanitize_identifier, names)):
            assert got not in codegen._RESERVED, got
            assert not codegen._RESERVED_RE.fullmatch(got) or got.endswith("_"), got
    d = SystemDescription(cpus=[CpuSpec("C0", Fraction(1))],
                          modules=[TargetSpec("SC_X", (1_000,), 0, 16, 0, False),
                                   TargetSpec("SC-X", (1_000,), 0, 16, 0, False)])
    bundle = export_tlm(d)
    assert list(bundle) == ["top.cpp", "sc_x_.h", "sc_x__2_.h"]
    assert "SC_MODULE(SC_X__2_) {" in bundle["sc_x__2_.h"]


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
# numbered members and SystemC's macros: a class with one of these names does not compile.
RESERVED_NAMES = ["std", "sc_core", "sc_dt", "tlm", "tlm_utils", "sc_main", "run", "execute",
                  "forward", "wait", "kBase", "kSize", "m_delay", "m_storage",
                  "SC_CURRENT_USER_MODULE", "socket0", "socket12", "in0", "out3", "b_transport0",
                  "b_transport_in0", "m_delay0", "SC_THREAD", "SC_METHOD", "SC_CTOR", "SC_MODULE"]


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


def declared_names_and_macros(bundle: dict[str, str]) -> tuple[set[str], set[str]]:
    """The classes and ``sc_main`` variables a bundle declares, and the macros it defines."""
    text = "".join(bundle.values())
    names = set(re.findall(r"^SC_MODULE\((\w+)\)", text, flags=re.MULTILINE))
    for cls, var in re.findall(r"^    (\w+) (\w+)\(\"", bundle["top.cpp"], flags=re.MULTILINE):
        names |= {cls, var}
    return names, set(re.findall(r"^#define (\w+)", text, flags=re.MULTILINE))


@pytest.mark.parametrize("kind, index, name", [
    ("module", 2, "TLMFORGE_MODULE1_H"), ("module", 0, "TLMFORGE_MODULE2_H"),
    ("module", 1, "TLMFORGE_MODULE0_H"), ("instance", 0, "TLMFORGE_MODULE0_H"),
    ("instance", 2, "TLMFORGE_MODULE2_H")])
def test_no_declared_name_equals_an_include_guard(abs_text, kind, index, name):
    """A guard is a macro, so a class or variable spelled like one would be erased."""
    doc = json.loads(abs_text)
    old = doc[f"{kind}s"][index]["name"]
    doc[f"{kind}s"][index]["name"] = name
    if kind == "module":
        for inst in doc["instances"]:
            inst["module"] = name if inst["module"] == old else inst["module"]
    else:
        for ref in [b[end] for b in doc["bindings"] for end in ("from", "to")]:
            ref[0] = name if ref[0] == old else ref[0]
        for c in doc["constraints"]:
            c["instance"] = name if c["instance"] == old else c["instance"]
    d, diags = parse_description(json.dumps(doc))
    assert diags == []
    names, macros = declared_names_and_macros(export_tlm(d))
    assert names.isdisjoint(macros), names & macros
    assert name + "_" in names


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


def with_target_bandwidth(abs_text, bandwidth: str) -> SystemDescription:
    doc = json.loads(abs_text)
    doc["modules"][2]["bandwidth"] = bandwidth
    desc, diags = parse_description(json.dumps(doc))
    assert diags == []
    return desc


@pytest.mark.parametrize("bandwidth", [
    "100000000000000000001/100000000000000000000",  # both literals too large
    "18446744073709551616",                         # a numerator of 2^64
    "1/18446744073709552",                          # 1000 x the denominator past 2^64 - 1
    "10000000000000001/10000000000000000",          # g++ gave 311 ps for 4 bytes, not 4000
    "18446744073709551615",                         # g++ gave 0 ps for 4 bytes, not 1
    "1/18446744073709551",                          # g++ wrapped 73786976294838204000 ps
    "1/4294968",                                    # the smallest denominator past the bound
    "18446739778742256617",                         # the smallest numerator past the bound
])
def test_a_bandwidth_whose_literals_pass_64_bits_is_refused(abs_text, bandwidth):
    """The handler computes (length * 1000 x the denominator + numerator - 1) in unsigned
    long long for a data length of up to 2^32 - 1, which must stay at most 2^64 - 1."""
    with pytest.raises(CodegenError) as info:
        export_tlm(with_target_bandwidth(abs_text, bandwidth))
    assert info.value.code == "E-BANDWIDTH-RANGE"
    assert str(info.value) == (f"E-BANDWIDTH-RANGE: module 'Module2': bandwidth {bandwidth} "
                               "needs C++ arithmetic past 2^64 - 1")


@pytest.mark.parametrize("bandwidth, literals", [
    ("18446739778742256616", ("1000ull", "18446739778742256615ull) / 18446739778742256616ull")),
    ("1/4294967", ("4294967000ull", "0ull) / 1ull")),
])
def test_the_largest_bandwidth_literals_still_export(abs_text, bandwidth, literals):
    header = export_tlm(with_target_bandwidth(abs_text, bandwidth))["module2.h"]
    for literal in literals:
        assert literal in header


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
