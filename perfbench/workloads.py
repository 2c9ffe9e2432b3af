"""Seeded workload generators and their independent oracles.

Each workload is a function of the seed only: it returns the description
text the program receives plus the expectations an oracle checks the
program's outputs against.  The expectations are computed here with plain
integer and stdlib ``fractions`` arithmetic, never with tlmforge's own
timing functions, so a defect in the simulator cannot hide in its oracle.

The shape of each workload (counts and sizes) is fixed; the seed only
picks values (data bytes, addresses, delays, frequencies, bandwidths).
So every seed costs the same work and the run-to-run spread is host noise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

# Sizes are part of the benchmark's definition.  Do not shrink them to
# hide a regression; the committed digests pin them for the default seed.
ABS_REPEAT = 2000             # abs_stream: Brake WRITEs
BULK_BLOCKS = 8               # bulk_mirror: distinct 4 KiB blocks
BULK_REPEAT = 4               # bulk_mirror: back-to-back WRITEs (and READs) per block
BULK_BLOCK_BYTES = 4096
WIDE_TARGETS = 250            # wide_map: targets behind one address-mapped router

# 3, 7/3 and 16 GHz make scaled delays round, and 16 GHz makes halves tie.
FREQUENCIES = ("1GHz", "2GHz", "3GHz", "4GHz", "5GHz", "16GHz", "2/3GHz", "7/3GHz")


@dataclass
class Workload:
    """The generated description and what a correct program must produce."""

    name: str
    text: str
    transactions: int                  # initiator transactions per run
    final_ps: int                      # analytic end of the last activation
    trace_records: int                 # rows the trace must hold
    export_files: int                  # files in the export bundle
    initiator: str
    quantum: str                       # the description's options.quantum
    fixed_latency_ps: int | None = None  # abs_stream: every activation takes this
    mirrors: dict[str, bytes] = field(default_factory=dict)  # instance -> final storage


def _freq_ghz(text: str) -> Fraction:
    return Fraction(text.removesuffix("GHz"))


def _scaled(nominal_ns: int, freq: str) -> int:
    """round(nominal / f) in picoseconds, halves away from zero."""
    q = Fraction(nominal_ns * 1000) / _freq_ghz(freq)
    return (2 * q.numerator + q.denominator) // (2 * q.denominator)


def _transfer(length: int, bandwidth: Fraction | None) -> int:
    """ceil(bytes / bandwidth) in picoseconds; bandwidth is bytes per ns."""
    if bandwidth is None:
        return 0
    q = Fraction(length * 1000) / bandwidth
    return -((-q.numerator) // q.denominator)


def abs_stream(seed: int, fixture: Path) -> Workload:
    """The paper's ABS model with the Brake WRITE repeated ABS_REPEAT times.

    Every activation takes 10 ns / 1 GHz + 5 ns / 5 GHz + 20 ns / 4 GHz =
    16 ns, so the deadline is set to exactly 16 ns per activation.
    """
    rng = random.Random(f"abs_stream:{seed}")
    doc = json.loads(fixture.read_text(encoding="utf-8"))
    template = doc["modules"][0]["workload"][0]
    template["data"] = rng.randbytes(4).hex()
    template["address"] = f"0x{4 * rng.randrange(16):x}"
    template["repeat"] = ABS_REPEAT
    final = 16_000 * ABS_REPEAT
    doc["constraints"] = [{"instance": "Brake", "max_end": f"{final}ps"}]
    doc["options"]["quantum"] = "0ps"
    return Workload(
        name="abs_stream", text=json.dumps(doc, indent=2) + "\n",
        transactions=ABS_REPEAT, final_ps=final, trace_records=6 * ABS_REPEAT,
        export_files=len(doc["modules"]) + 1, initiator="Brake", quantum="0ps",
        fixed_latency_ps=16_000)


def bulk_mirror(seed: int) -> Workload:
    """4 KiB WRITEs broadcast to four bandwidth-limited mirrors, beside 4 KiB
    READs of the same blocks from mirror 0 over its second, direct in-socket."""
    rng = random.Random(f"bulk_mirror:{seed}")
    n = BULK_BLOCK_BYTES
    cpus = [{"name": f"C{i}", "frequency": rng.choice(FREQUENCIES)} for i in range(6)]
    freq = {c["name"]: c["frequency"] for c in cpus}
    bandwidths = [Fraction(rng.choice((1, 2, 3, 4, 6, 8)), rng.choice((1, 2))) for _ in range(6)]

    def bw_text(b: Fraction) -> str:
        return f"{b.numerator}/{b.denominator}"

    init_delay, router_delay = rng.randrange(2, 20), rng.randrange(1, 10)
    blocks = rng.sample(range(16), BULK_BLOCKS)
    payloads = [rng.randbytes(n) for _ in blocks]
    workload = []
    for block, data in zip(blocks, payloads):
        workload.append({"command": "WRITE", "address": f"0x{block * n:x}", "data": data.hex(),
                         "socket": 0, "repeat": BULK_REPEAT})
        workload.append({"command": "READ", "address": f"0x{block * n:x}", "length": n,
                         "socket": 1, "repeat": BULK_REPEAT})
    fill = rng.randrange(256)
    mirror_delays = [(rng.randrange(5, 40), rng.randrange(5, 40)) for _ in range(4)]
    modules = [
        {"kind": "initiator", "name": "Dma", "delay": f"{init_delay}ns", "sockets": 2,
         "workload": workload, "bandwidth": bw_text(bandwidths[0])},
        {"kind": "router", "name": "Bcast", "delay": f"{router_delay}ns", "in_sockets": 1,
         "out_sockets": 4, "connections": {"0": [0, 1, 2, 3]}, "bandwidth": bw_text(bandwidths[1])},
    ]
    for k, (d0, d1) in enumerate(mirror_delays):
        modules.append({"kind": "target", "name": f"MirrorMem{k}",
                        "socket_delays": [f"{d0}ns", f"{d1}ns"],
                        "storage": {"base": "0x0", "size": 16 * n, "fill": fill},
                        "bandwidth": bw_text(bandwidths[2 + k])})
    instances = [{"name": "dma", "module": "Dma", "cpu": "C0"},
                 {"name": "bcast", "module": "Bcast", "cpu": "C1"}]
    instances += [{"name": f"mirror{k}", "module": f"MirrorMem{k}", "cpu": f"C{2 + k}"}
                  for k in range(4)]
    bindings = [{"from": ["dma", 0], "to": ["bcast", 0]},
                {"from": ["dma", 1], "to": ["mirror0", 1]}]
    bindings += [{"from": ["bcast", k], "to": [f"mirror{k}", 0]} for k in range(4)]
    doc = {"cpus": cpus, "buses": [{"name": "fabric", "cpus": [c["name"] for c in cpus]}],
           "modules": modules, "instances": instances, "bindings": bindings,
           "constraints": [], "options": {"quantum": "10us"}}

    own = _scaled(init_delay, freq["C0"]) + _transfer(n, bandwidths[0])
    write_lat = own + _scaled(router_delay, freq["C1"]) + _transfer(n, bandwidths[1]) + max(
        _scaled(mirror_delays[k][0], freq[f"C{2 + k}"]) + _transfer(n, bandwidths[2 + k])
        for k in range(4))
    read_lat = own + _scaled(mirror_delays[0][1], freq["C2"]) + _transfer(n, bandwidths[2])
    image = bytearray([fill]) * (16 * n)
    for block, data in zip(blocks, payloads):
        image[block * n:(block + 1) * n] = data
    writes = reads = BULK_BLOCKS * BULK_REPEAT
    return Workload(
        name="bulk_mirror", text=json.dumps(doc, indent=2) + "\n",
        transactions=writes + reads, final_ps=writes * write_lat + reads * read_lat,
        trace_records=writes * 6 + reads * 2,
        export_files=len(modules) + 1, initiator="dma", quantum="10us",
        mirrors={f"mirror{k}": bytes(image) for k in range(4)})


def wide_map(seed: int) -> Workload:
    """One initiator, one router whose address map decodes WIDE_TARGETS
    targets, and one 8-byte READ per target in seeded order."""
    rng = random.Random(f"wide_map:{seed}")
    k_targets = WIDE_TARGETS
    cpus = [{"name": f"P{i}", "frequency": rng.choice(FREQUENCIES)} for i in range(16)]
    freq = {c["name"]: c["frequency"] for c in cpus}
    init_delay, router_delay = rng.randrange(1, 10), rng.randrange(1, 10)
    modules = []
    instances = [{"name": "cpu", "module": "Core", "cpu": "P0"},
                 {"name": "xbar", "module": "Xbar", "cpu": "P1"}]
    bindings = [{"from": ["cpu", 0], "to": ["xbar", 0]}]
    address_map = {}
    base = 0
    reads = []
    per_target_ps = []
    for k in range(k_targets):
        size = 64 * rng.randrange(1, 64)
        delay = rng.randrange(1, 50)
        cpu = f"P{rng.randrange(2, 16)}"
        modules.append({"kind": "target", "name": f"Mem{k}", "socket_delays": [f"{delay}ns"],
                        "storage": {"base": f"0x{base:x}", "size": size,
                                    "fill": rng.randrange(256)}})
        instances.append({"name": f"mem{k}", "module": f"Mem{k}", "cpu": cpu})
        bindings.append({"from": ["xbar", k], "to": [f"mem{k}", 0]})
        address_map[str(k)] = [f"0x{base:x}", f"0x{base + size:x}"]
        reads.append(base + 8 * rng.randrange(size // 8))
        per_target_ps.append(_scaled(delay, freq[cpu]))
        base += size + 64 * rng.randrange(0, 4)
    order = list(range(k_targets))
    rng.shuffle(order)
    workload = [{"command": "READ", "address": f"0x{reads[k]:x}", "length": 8, "socket": 0}
                for k in order]
    modules = [
        {"kind": "initiator", "name": "Core", "delay": f"{init_delay}ns", "sockets": 1,
         "workload": workload},
        {"kind": "router", "name": "Xbar", "delay": f"{router_delay}ns", "in_sockets": 1,
         "out_sockets": k_targets, "connections": {"0": list(range(k_targets))},
         "address_map": address_map},
    ] + modules
    doc = {"cpus": cpus, "buses": [{"name": "noc", "cpus": [c["name"] for c in cpus]}],
           "modules": modules, "instances": instances, "bindings": bindings,
           "constraints": [], "options": {"quantum": "0ps"}}
    hop = _scaled(init_delay, freq["P0"]) + _scaled(router_delay, freq["P1"])
    return Workload(
        name="wide_map", text=json.dumps(doc, indent=2) + "\n",
        transactions=k_targets, final_ps=k_targets * hop + sum(per_target_ps),
        trace_records=3 * k_targets, export_files=len(modules) + 1,
        initiator="cpu", quantum="0ps")


def generate(name: str, seed: int, root: Path) -> Workload:
    if name == "abs_stream":
        return abs_stream(seed, root / "fixtures" / "abs.json")
    if name == "bulk_mirror":
        return bulk_mirror(seed)
    return wide_map(seed)


WORKLOADS = ("abs_stream", "bulk_mirror", "wide_map")
