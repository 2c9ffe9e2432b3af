"""Acceptance suite: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from fractions import Fraction

from conftest import GOLDEN
from protocol_table import all_sequences, table_legal
from test_components import oracle_read, oracle_write, storage_as_dict
from test_sysdesc import base_description
from topogen import max_path_latency, random_topology

from tlmforge.cli import run_command
from tlmforge.codegen import export_tlm
from tlmforge.components import (
    Binding,
    CpuSpec,
    InitiatorSpec,
    Instance,
    ModelContext,
    RouterSpec,
    Storage,
    TargetModel,
    TargetSpec,
    TransactionTemplate,
    apply_read,
    apply_write,
)
from tlmforge.kernel import QuantumKeeper, Scheduler
from tlmforge.payload import Command, GenericPayload
from tlmforge.sysdesc import SystemDescription, elaborate
from tlmforge.trace import (
    end_to_end_latency,
    parse_trace,
    render_svg,
    write_trace,
)
from tlmforge.transport import protocol_legal


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_criterion_01_abs_reproduction(abs_description):
    started = time.perf_counter()
    model = elaborate(abs_description)
    model.run()
    elapsed = time.perf_counter() - started
    latency = end_to_end_latency(model.records, "Brake")
    brake_end = max(r.end for r in model.records if r.instance == "Brake")
    abs_ends = {r.end for r in model.records if r.instance.startswith("ABSbrake")}
    ok = (latency == 16_000 and abs_ends == {brake_end} and
          sum(r.instance.startswith("ABSbrake") for r in model.records) == 4 and
          elapsed < 1.0)
    report(1, "ABS reproduction (16000 ps, tolerance 0)", ok,
           f"latency={latency} ps, runtime={elapsed:.3f} s")


def test_criterion_02_payload_semantics_oracle():
    started = time.perf_counter()
    base, size = 0x20, 16
    addresses = [0x20, 0x28, 0x2E, 0x40, 0x10]
    patterns = [None]
    for n in range(1, 5):
        for bits in range(2 ** n):
            patterns.append(bytes(0xFF if bits & (1 << i) else 0x00 for i in range(n)))
    cases = mismatches = 0
    for length in range(1, 9):
        for width in {w for w in (1, 2, 4, length) if length % w == 0}:
            for enables in patterns:
                for command in (Command.READ, Command.WRITE):
                    for address in addresses:
                        data = bytes((i * 37 + 11) % 256 for i in range(length))
                        p = GenericPayload(command=command, address=address,
                                           data=bytearray(data), streaming_width=width,
                                           byte_enables=enables)
                        storage = Storage(base, size, 0xCD)
                        before = storage_as_dict(storage)
                        cases += 1
                        if command is Command.WRITE:
                            status = apply_write(storage, p)
                            want_mem, want_status = oracle_write(before, base, size, p)
                            if (status.value, storage_as_dict(storage)) != (want_status, want_mem):
                                mismatches += 1
                        else:
                            status = apply_read(storage, p)
                            want_data, want_status = oracle_read(before, base, size, p)
                            if (status.value, list(p.data)) != (want_status, want_data):
                                mismatches += 1
    elapsed = time.perf_counter() - started
    report(2, "payload semantics vs scalar oracle", mismatches == 0 and elapsed < 10.0,
           f"{cases} cases, {mismatches} mismatches, runtime={elapsed:.2f} s")


def test_criterion_03_base_protocol_exhaustive():
    sequences = list(all_sequences(4))
    disagreements = [seq for seq in sequences if protocol_legal(seq) != table_legal(seq)]
    accepted = sum(1 for seq in sequences if protocol_legal(seq))
    report(3, "base-protocol exhaustiveness (length <= 4)",
           len(sequences) == 4681 and not disagreements and accepted == 8,
           f"{len(sequences)} sequences, {accepted} legal")


def test_criterion_04_determinism(abs_path, tmp_path, capsys):
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_command(["run", str(abs_path), "--trace", str(t1)]) == 0
    assert run_command(["run", str(abs_path), "--trace", str(t2)]) == 0
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_command(["render", str(t1), "--svg", str(s1)]) == 0
    assert run_command(["render", str(t1), "--svg", str(s2)]) == 0
    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    assert run_command(["export", str(abs_path), "--out", str(g1)]) == 0
    assert run_command(["export", str(abs_path), "--out", str(g2)]) == 0
    capsys.readouterr()
    ok = (t1.read_bytes() == t2.read_bytes() and s1.read_bytes() == s2.read_bytes()
          and all((g1 / p.name).read_bytes() == (g2 / p.name).read_bytes()
                  for p in g1.iterdir()))
    report(4, "byte-identical repeated runs, renders, exports", ok)


def test_criterion_05_path_latency_oracle():
    rng = random.Random(2024)
    checked = failures = 0
    for _ in range(120):
        desc = random_topology(rng)
        model = elaborate(desc)
        model.run()
        simulated = end_to_end_latency(model.records, "init")
        expected = max_path_latency(desc)
        checked += 1
        if simulated != expected:
            failures += 1
    report(5, "path latency equals brute-force max over paths", failures == 0,
           f"{checked} topologies")


def test_criterion_06_scaling_homogeneity(abs_description):
    failures = 0

    def halves_exactly(desc) -> bool:
        slow = elaborate(desc)
        slow.run()
        for cpu in desc.cpus:
            cpu.frequency_ghz = cpu.frequency_ghz * 2
        fast = elaborate(desc)
        fast.run()
        for cpu in desc.cpus:
            cpu.frequency_ghz = cpu.frequency_ghz / 2
        a = {(r.instance, r.activation): r for r in slow.records}
        b = {(r.instance, r.activation): r for r in fast.records}
        if a.keys() != b.keys():
            return False
        return all((b[k].start, b[k].end) == (r.start // 2, r.end // 2)
                   and r.start % 2 == 0 and r.end % 2 == 0
                   for k, r in a.items())

    abs_ok = halves_exactly(abs_description)
    fast = elaborate(abs_description)  # frequencies restored; re-check the headline number
    fast.run()
    sixteen = end_to_end_latency(fast.records, "Brake") == 16_000

    rng = random.Random(4242)
    for _ in range(15):
        if not halves_exactly(random_topology(rng, divisible=True)):
            failures += 1
    report(6, "doubling frequencies halves every timestamp", abs_ok and sixteen
           and failures == 0, "abs 16000 -> 8000 ps plus 15 synthetic fixtures")


def test_criterion_07_validation_coverage(abs_description):
    from tlmforge.sysdesc import TimingConstraint, validate_description

    def mutate(code):
        d = base_description()
        if code == "E001":
            d.instances[0] = Instance("i0", "I", "C9")
        elif code == "E002":
            d.bindings[0] = Binding("i0", 0, "t0", 5)
        elif code == "E003":
            d.cpus.append(CpuSpec("C1", Fraction(2)))
            d.instances[1] = Instance("t0", "T", "C1")
        elif code == "E004":
            d.modules[0] = InitiatorSpec(
                "I", 1_000, 1, (TransactionTemplate(Command.READ, 0, b"\x00", 0, 1),))
            d.modules.append(TargetSpec("T2", (1_000,), 0, 16, 0, False))
            d.instances.append(Instance("t1", "T2", "C0"))
            d.bindings.append(Binding("i0", 0, "t1", 0))
        elif code == "E005":
            d.instances.append(Instance("t0", "T", "C0"))
        elif code == "E006":
            d.modules.append(RouterSpec("R", 1_000, 1, 1, {0: (7,)}))
        elif code == "E007":
            d.constraints.append(TimingConstraint("ghost", 1_000))
        elif code == "E008":
            d.bindings.append(Binding("i0", 0, "t0", 0))
        elif code == "E009":
            d.modules.append(RouterSpec("R", 1_000, 1, 1, {0: (0,)}))
            d.instances.append(Instance("r0", "R", "C0"))
            d.bindings.append(Binding("r0", 0, "r0", 0))
        elif code == "E010":
            d.bindings = []
        elif code == "E011":
            d.modules.append(RouterSpec("R", 1_000, 1, 1, {0: (0,)}))
            d.instances += [Instance(f"r{k}", "R", "C0") for k in range(257)]
            d.bindings = [Binding("i0", 0, "r0", 0), Binding("r256", 0, "t0", 0)]
            d.bindings += [Binding(f"r{k}", 0, f"r{k + 1}", 0) for k in range(256)]
        return d

    wrong = []
    for code in [f"E{i:03d}" for i in range(1, 12)]:
        found = [diag.code for diag in validate_description(mutate(code))]
        if found != [code]:
            wrong.append((code, found))
    clean = validate_description(abs_description) == []
    report(7, "each E001..E011 has a minimal trigger, abs.json has none",
           not wrong and clean, f"wrong={wrong}" if wrong else "")


WORKLOAD = [
    (0x00, b"\x11\x22\x33\x44"),
    (0x08, b"\xaa\xbb"),
    (0x02, b"\x55"),
    (0x08, b"\xcc"),  # overwrite
    (0x1c, b"\x01\x02\x03\x04"),
]


def _dmi_target(ctx):
    spec = TargetSpec("T", (10_000,), 0, 32, 0, True)
    return TargetModel("t0", spec, Fraction(1), ctx)


def test_criterion_08_dmi_debug_consistency():
    # transport path, fully synchronized
    desc = SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[
            InitiatorSpec("I", 1_000, 1, tuple(
                TransactionTemplate(Command.WRITE, addr, data, 0, 1)
                for addr, data in WORKLOAD)),
            TargetSpec("T", (10_000,), 0, 32, 0, True),
        ],
        instances=[Instance("i0", "I", "C0"), Instance("t0", "T", "C0")],
        bindings=[Binding("i0", 0, "t0", 0)],
    )
    transport_model = elaborate(desc)
    transport_model.run()
    via_transport = bytes(transport_model.instances["t0"].storage.data)

    # loosely-timed DMI path: quantum > 0, direct storage access
    ctx = ModelContext(scheduler=Scheduler())
    target = _dmi_target(ctx)

    def activity():
        qk = QuantumKeeper(25_000)
        grant = target.get_dmi(WORKLOAD[0][0])
        assert grant.granted
        for addr, data in WORKLOAD:
            offset = addr - grant.storage.base
            grant.storage.data[offset:offset + len(data)] = data
            qk.advance(grant.write_latency_ps * len(data))
            if qk.need_sync():
                yield from qk.sync()
        yield from qk.sync()

    ctx.scheduler.schedule(activity(), 0)
    ctx.scheduler.run()
    via_dmi = bytes(target.storage.data)

    # debug transport moves bytes in zero simulated time
    ctx2 = ModelContext(scheduler=Scheduler())
    probe_target = _dmi_target(ctx2)
    qk = QuantumKeeper(1_000)
    qk.advance(77)
    before = (ctx2.scheduler.now, qk.local_offset)
    probe = GenericPayload(command=Command.WRITE, address=0, data=bytearray(b"\xf0\x0d"))
    moved = probe_target.transport_dbg(probe)
    debug_ok = (moved == 2 and (ctx2.scheduler.now, qk.local_offset) == before
                and bytes(probe_target.storage.data[:2]) == b"\xf0\x0d")

    report(8, "DMI run matches transport run; debug is timeless",
           via_transport == via_dmi and debug_ok,
           f"{len(WORKLOAD)} writes, {len(via_transport)} bytes compared")


def test_criterion_09_rendering_contract(abs_description):
    model = elaborate(abs_description)
    model.run()
    traces = [model.records]
    rng = random.Random(7)
    for _ in range(20):
        desc = random_topology(rng)
        m = elaborate(desc)
        m.run()
        traces.append(m.records)
    traces.append([])

    ok = True
    for records in traces:
        svg = render_svg(records)
        if svg.count('fill="green"') != len(records):
            ok = False
        if svg.count('fill="red"') != len(records):
            ok = False
        reparsed = parse_trace(write_trace(records))
        if sorted(reparsed, key=lambda r: (r.start, r.instance, r.activation)) != \
           sorted(records, key=lambda r: (r.start, r.instance, r.activation)):
            ok = False
    report(9, "one green and one red marker per record; lossless CSV", ok,
           f"{len(traces)} traces")


def test_criterion_10_codegen_golden_files(abs_description):
    bundle = export_tlm(abs_description)
    golden_dir = GOLDEN / "abs"
    names_ok = sorted(bundle) == sorted(p.name for p in golden_dir.iterdir())
    bytes_ok = all(text.encode() == (golden_dir / name).read_bytes()
                   for name, text in bundle.items())
    report(10, "export matches shipped golden sources byte-for-byte",
           names_ok and bytes_ok, f"{len(bundle)} files")
