"""Seeded invalid descriptions, for pinning what the validator reports.

Each case is a ``topogen`` platform with one to three seeded edits: a
binding dropped, repeated, reversed, pointed at a missing instance or
socket, or bound back into a router upstream; an instance repeated or
given a missing CPU or module; a CPU, bus or module name repeated or a CPU
or bus dropped; a template turned into a READ or sent to a missing socket;
a router given an address map, extra or missing connections; a constraint
on a missing instance.  Together they reach every rule E001..E010.  One
fixed chain of ``MAX_ROUTERS + 1`` routers reaches E011.

``render`` turns a description into what the validator made of it: the
diagnostic lines, or ``ok``.  ``tests/golden/validate_diagnostics.txt``
holds one ``== k: edits`` header and the rendering per case; regenerate it
only when the validation output is meant to change::

    PYTHONPATH=src python tests/validatecorpus.py > tests/golden/validate_diagnostics.txt
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from fractions import Fraction

import topogen
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
from tlmforge.sysdesc import (
    MAX_ROUTERS,
    SystemDescription,
    TimingConstraint,
    validate_description,
)

SEED = 20261019
COUNT = 400


def _routers(d: SystemDescription) -> list[RouterSpec]:
    return [m for m in d.modules if isinstance(m, RouterSpec)]


def _binding(edit):
    """An edit of one drawn binding, which names no binding once none is left."""
    def apply(rng, d):
        return edit(rng, d, rng.randrange(len(d.bindings))) if d.bindings else "no binding"
    return apply


@_binding
def _drop_binding(rng, d, i):
    del d.bindings[i]
    return f"drop binding {i}"


@_binding
def _repeat_binding(rng, d, i):
    d.bindings.append(replace(d.bindings[i]))
    return f"repeat binding {i}"


@_binding
def _reverse_binding(rng, d, i):
    b = d.bindings[i]
    d.bindings[i] = Binding(b.to_instance, b.to_socket, b.from_instance, b.from_socket)
    return f"reverse binding {i}"


@_binding
def _bind_back(rng, d, i):
    """Bind an out-socket of what a binding reaches, preferably a router, to the
    in-socket the binding or the one before it fills."""
    b = d.bindings[i]
    b = rng.choice([x for x in d.bindings if x.to_instance.startswith("r")] or [b])
    upstream = rng.choice([x for x in d.bindings if x.to_instance == b.from_instance] + [b])
    d.bindings.append(Binding(b.to_instance, rng.randint(0, 1), upstream.to_instance,
                              upstream.to_socket))
    return f"bind {b.to_instance} back to {upstream.to_instance}"


@_binding
def _unknown_end(rng, d, i):
    end = rng.choice(["from_instance", "to_instance"])
    d.bindings[i] = replace(d.bindings[i], **{end: "ghost"})
    return f"binding {i} {end} ghost"


@_binding
def _socket_out_of_range(rng, d, i):
    end = rng.choice(["from_socket", "to_socket"])
    d.bindings[i] = replace(d.bindings[i], **{end: rng.choice([-1, 3, 9])})
    return f"binding {i} {end} {getattr(d.bindings[i], end)}"


def _repeat_instance(rng, d):
    i = rng.randrange(len(d.instances))
    d.instances.append(replace(d.instances[i]))
    return f"repeat instance {i}"


def _instance_unknown(rng, d):
    i = rng.randrange(len(d.instances))
    field = rng.choice(["cpu", "module"])
    d.instances[i] = replace(d.instances[i], **{field: "Nowhere"})
    return f"instance {i} {field} Nowhere"


def _drop_cpu(rng, d):
    if not d.cpus:
        return "drop no cpu"
    i = rng.randrange(len(d.cpus))
    del d.cpus[i]
    return f"drop cpu {i}"


def _drop_buses(rng, d):
    d.buses.clear()
    return "drop buses"


def _repeat_name(rng, d):
    section = rng.choice(["cpus", "buses", "modules"])
    items = getattr(d, section)
    if not items:
        return f"repeat no {section}"
    i = rng.randrange(len(items))
    items.append(replace(items[i]))
    return f"repeat {section} {i}"


def _read_template(rng, d):
    spec = d.modules[0]
    k = rng.randrange(len(spec.workload))
    workload = list(spec.workload)
    workload[k] = replace(workload[k], command=Command.READ)
    if rng.random() < 0.5:  # a second template on the same socket, reported once
        workload.append(replace(workload[k], address=workload[k].address + 64))
    spec.workload = tuple(workload)
    return f"READ template {k}"


def _template_socket(rng, d):
    spec = d.modules[0]
    spec.workload += (TransactionTemplate(Command.WRITE, 0, b"\x01", rng.choice([-1, 1, 2])),)
    return f"template socket {spec.workload[-1].socket}"


def _address_map(rng, d):
    routers = _routers(d)
    if not routers:
        return "map no router"
    spec = rng.choice(routers)
    spec.address_map = {rng.randint(0, spec.out_socket_count): (rng.randrange(0, 96, 16),
                                                                 rng.randrange(0, 128, 16))
                        for _ in range(rng.randint(1, 4))}
    return f"map {spec.name} {sorted(spec.address_map.items())}"


def _connections(rng, d):
    routers = _routers(d)
    if not routers:
        return "connect no router"
    spec = rng.choice(routers)
    choice = rng.randrange(3)
    if choice == 0:
        spec.connections = {}
    elif choice == 1:
        bad = rng.choice([spec.out_socket_count, 7])
        spec.connections = {0: spec.connections[0] + (bad, bad)} if 0 in spec.connections else {}
    else:
        spec.connections = {**spec.connections, rng.choice([1, 2]): (0, rng.randint(0, 2))}
    return f"connect {spec.name} {sorted(spec.connections.items())}"


def _constraint(rng, d):
    d.constraints.append(TimingConstraint(rng.choice(["init", "ghost"]), 1000))
    return f"constraint on {d.constraints[-1].instance}"


EDITS = [_drop_binding, _repeat_binding, _reverse_binding, _bind_back, _unknown_end,
         _socket_out_of_range, _repeat_instance, _instance_unknown, _drop_cpu, _drop_buses,
         _repeat_name, _read_template, _template_socket, _address_map, _connections,
         _constraint]


def router_chain(length: int = MAX_ROUTERS + 1) -> SystemDescription:
    """One initiator READing through ``length`` one-in, one-out routers to a target."""
    names = [f"r{k}" for k in range(length)]
    return SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[InitiatorSpec("I", 1000, 1, (TransactionTemplate(Command.READ, 0, b"\x00"),)),
                 RouterSpec("R", 1000, 1, 1, {0: (0,)}),
                 TargetSpec("T", (1000,), 0, 16)],
        instances=[Instance("init", "I", "C0"), Instance("mem", "T", "C0")]
        + [Instance(name, "R", "C0") for name in names],
        bindings=[Binding(a, 0, b, 0) for a, b in zip(["init"] + names, names + ["mem"])])


def cases(seed: int = SEED, count: int = COUNT):
    """Yield (label, description): the router chain, then ``count`` edited platforms."""
    yield "router chain", router_chain()
    rng = random.Random(seed)
    for _ in range(count):
        d = topogen.random_topology(rng)
        labels = [rng.choice(EDITS)(rng, d) for _ in range(rng.randint(1, 3))]
        yield ", ".join(labels), d


def render(d: SystemDescription) -> str:
    return "\n".join(str(x) for x in validate_description(d)) or "ok"


def golden_text(seed: int = SEED, count: int = COUNT) -> str:
    return "".join(f"== {k}: {label}\n{render(d)}\n"
                   for k, (label, d) in enumerate(cases(seed, count)))


if __name__ == "__main__":
    sys.stdout.write(golden_text())
