"""Random acyclic topology generator plus an independent path-latency oracle.

The oracle walks the binding graph and enumerates every initiator-to-target
path, summing scaled delays and transfer times with its own rational
arithmetic.  It never touches the simulator's payload delivery machinery,
so agreement between the two is meaningful evidence.

``serialize_description`` writes a description back as canonical JSON text,
so a generated or mutated description can be fed to the parser and the CLI.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

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
from tlmforge.payload import Command
from tlmforge.sysdesc import SystemDescription

FREQS = [Fraction(1), Fraction(2), Fraction(3), Fraction(4), Fraction(5),
         Fraction(1, 2), Fraction(3, 2)]
# Frequencies whose doubling keeps multiples-of-8 delays integral.
DIVISIBLE_FREQS = [Fraction(1), Fraction(2), Fraction(4)]


def random_topology(rng: random.Random, divisible: bool = False) -> SystemDescription:
    """One initiator driving a random tree of routers and targets (<= 6 instances).

    With ``divisible=True`` all delays are multiples of 8, frequencies come
    from {1, 2, 4}, and bandwidth is disabled, so doubling every frequency
    scales each hop exactly by half.
    """
    freq_pool = DIVISIBLE_FREQS if divisible else FREQS
    n_cpus = rng.randint(1, 3)
    cpus = [CpuSpec(f"C{i}", rng.choice(freq_pool)) for i in range(n_cpus)]
    buses = [BusSpec("bus", tuple(c.name for c in cpus))] if n_cpus >= 2 else []

    def delay() -> int:
        return 8 * rng.randint(0, 6000) if divisible else rng.randint(0, 50000)

    def bandwidth() -> Fraction | None:
        if divisible or rng.random() >= 0.3:
            return None
        return Fraction(rng.randint(1, 64), rng.choice([1, 2, 3]))

    def rand_cpu() -> str:
        return rng.choice(cpus).name

    modules: list = []
    instances: list[Instance] = []
    bindings: list[Binding] = []
    targets: list[tuple[str, TargetSpec]] = []
    counter = 0
    remaining = rng.randint(1, 5)  # instances besides the initiator

    def new_name(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"{prefix}{counter}"

    def fresh_target() -> tuple[str, int]:
        nonlocal remaining
        name = new_name("t")
        spec = TargetSpec(f"M_{name}", (delay(),), 0, 256, 0, False, bandwidth())
        modules.append(spec)
        instances.append(Instance(name, spec.name, rand_cpu()))
        targets.append((name, spec))
        remaining -= 1
        return name, 0

    def reused_target() -> tuple[str, int]:
        name, spec = rng.choice(targets)
        spec.socket_delays_ps = spec.socket_delays_ps + (delay(),)
        return name, len(spec.socket_delays_ps) - 1

    def create_child(depth: int) -> tuple[str, int]:
        nonlocal remaining
        if remaining >= 2 and depth < 3 and rng.random() < 0.4:
            name = new_name("r")
            remaining -= 1
            fan = rng.randint(1, max(1, min(3, remaining)))
            spec = RouterSpec(f"M_{name}", delay(), 1, fan,
                              {0: tuple(range(fan))}, None, bandwidth())
            modules.append(spec)
            instances.append(Instance(name, spec.name, rand_cpu()))
            for out in range(fan):
                child, sock = create_child(depth + 1)
                bindings.append(Binding(name, out, child, sock))
            return name, 0
        if targets and (remaining == 0 or rng.random() < 0.2):
            return reused_target()
        if remaining == 0:
            return reused_target()
        return fresh_target()

    length = rng.randint(1, 8)
    data = bytes(rng.randrange(256) for _ in range(length))
    init_spec = InitiatorSpec(
        "M_init", delay(), 1,
        (TransactionTemplate(Command.WRITE, rng.randint(0, 64), data, 0, 1),),
        bandwidth())
    modules.insert(0, init_spec)
    instances.insert(0, Instance("init", "M_init", rand_cpu()))

    fan = rng.randint(1, max(1, min(3, remaining)))
    for _ in range(fan):
        child, sock = create_child(1)
        bindings.append(Binding("init", 0, child, sock))

    return SystemDescription(cpus=cpus, buses=buses, modules=modules,
                             instances=instances, bindings=bindings)


def _scaled(nominal_ps: int, f: Fraction) -> int:
    """Round-to-nearest of nominal/f, ties away from zero (own arithmetic)."""
    x = Fraction(nominal_ps) / f
    floor = x.numerator // x.denominator
    return floor + (1 if x - floor >= Fraction(1, 2) else 0)


def _serialized(length: int, bandwidth: Fraction | None) -> int:
    if bandwidth is None:
        return 0
    return math.ceil(Fraction(length * 1000) / bandwidth)


def max_path_latency(desc: SystemDescription) -> int:
    """Brute-force maximum over all initiator-to-target paths of the sum of
    scaled delays plus transfer times."""
    specs = {m.name: m for m in desc.modules}
    freqs = {c.name: c.frequency_ghz for c in desc.cpus}
    by_name = {i.name: i for i in desc.instances}
    by_from: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for b in desc.bindings:
        by_from.setdefault((b.from_instance, b.from_socket), []).append(
            (b.to_instance, b.to_socket))

    init = next(i for i in desc.instances if isinstance(specs[i.module], InitiatorSpec))
    init_spec = specs[init.module]
    template = init_spec.workload[0]
    length = len(template.data)

    def walk(name: str, in_socket: int) -> int:
        spec = specs[by_name[name].module]
        f = freqs[by_name[name].cpu]
        if isinstance(spec, TargetSpec):
            return _scaled(spec.socket_delays_ps[in_socket], f) + _serialized(length, spec.bandwidth)
        own = _scaled(spec.delay_ps, f) + _serialized(length, spec.bandwidth)
        deepest = 0
        for out in spec.connections[in_socket]:
            for child, sock in by_from[(name, out)]:
                deepest = max(deepest, walk(child, sock))
        return own + deepest

    own = _scaled(init_spec.delay_ps, freqs[init.cpu]) + _serialized(length, init_spec.bandwidth)
    return own + max(walk(child, sock)
                     for child, sock in by_from[(init.name, template.socket)])


def serialize_description(d: SystemDescription) -> str:
    """Emit canonical description text; parsing it back yields an equal value."""
    doc: dict = {"cpus": [{"name": c.name, "frequency": f"{c.frequency_ghz}GHz"} for c in d.cpus]}
    doc["buses"] = [{"name": bus.name, "cpus": list(bus.cpus)} for bus in d.buses]
    modules = []
    for spec in d.modules:
        if isinstance(spec, InitiatorSpec):
            entry = {"kind": "initiator", "name": spec.name,
                     "delay": f"{spec.delay_ps}ps", "sockets": spec.socket_count,
                     "workload": [{"command": t.command.value, "address": f"0x{t.address:x}",
                                   "data": t.data.hex(), "socket": t.socket, "repeat": t.repeat}
                                  for t in spec.workload]}
        elif isinstance(spec, TargetSpec):
            entry = {"kind": "target", "name": spec.name,
                     "socket_delays": [f"{t}ps" for t in spec.socket_delays_ps],
                     "storage": {"base": f"0x{spec.storage_base:x}", "size": spec.storage_size,
                                 "fill": spec.storage_fill},
                     "dmi": spec.dmi_allowed}
        else:
            entry = {"kind": "router", "name": spec.name, "delay": f"{spec.delay_ps}ps",
                     "in_sockets": spec.in_socket_count, "out_sockets": spec.out_socket_count,
                     "connections": {str(k): list(v) for k, v in spec.connections.items()}}
            if spec.address_map is not None:
                entry["address_map"] = {str(k): [f"0x{v[0]:x}", f"0x{v[1]:x}"]
                                        for k, v in spec.address_map.items()}
        if spec.bandwidth is not None:
            entry["bandwidth"] = str(spec.bandwidth)
        modules.append(entry)
    doc["modules"] = modules
    doc["instances"] = [{"name": i.name, "module": i.module, "cpu": i.cpu}
                        for i in d.instances]
    doc["bindings"] = [{"from": [bi.from_instance, bi.from_socket],
                        "to": [bi.to_instance, bi.to_socket]} for bi in d.bindings]
    doc["constraints"] = [{"instance": c.instance, "max_end": f"{c.max_end_ps}ps"}
                          for c in d.constraints]
    options: dict = {"quantum": f"{d.options.quantum_ps}ps",
                     "event_limit": d.options.event_limit}
    if d.options.trace_path is not None:
        options["trace"] = d.options.trace_path
    doc["options"] = options
    return json.dumps(doc, indent=2) + "\n"
