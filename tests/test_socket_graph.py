"""E004 from one shared socket graph agrees with a fresh search per READ."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tlmforge.components import (
    Binding,
    CpuSpec,
    InitiatorSpec,
    Instance,
    RouterSpec,
    TargetSpec,
    TransactionTemplate,
)
from tlmforge.diagnostics import Diagnostic, sort_diagnostics
from tlmforge.payload import Command
from tlmforge.sysdesc import SystemDescription, validate_description


def reference_e004(d: SystemDescription) -> list[Diagnostic]:
    """A depth-first search from each READ template's out-socket that stops at
    the first socket with more than one binding or an undecoded router fan-out."""
    specs = {m.name: m for m in d.modules}
    instances = {i.name: i for i in d.instances}

    def spec_of(name):
        inst = instances.get(name)
        return None if inst is None else specs.get(inst.module)

    bindings_by_from: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for binding in d.bindings:
        bindings_by_from.setdefault((binding.from_instance, binding.from_socket), []).append(
            (binding.to_instance, binding.to_socket))
    diags = []
    for inst in d.instances:
        inst_spec = spec_of(inst.name)
        if not isinstance(inst_spec, InitiatorSpec):
            continue
        for idx, template in enumerate(inst_spec.workload):
            if template.command is not Command.READ:
                continue
            frontier = [(inst.name, template.socket)]
            visited: set[tuple[str, int]] = set()
            fanned = False
            while frontier:
                key = frontier.pop()
                if key in visited:
                    continue
                visited.add(key)
                dests = bindings_by_from.get(key, [])
                if len(dests) > 1:
                    fanned = True
                    continue
                for to_name, to_socket in dests:
                    spec = spec_of(to_name)
                    if not isinstance(spec, RouterSpec):
                        continue
                    outs = spec.connections.get(to_socket, ())
                    if len(set(outs)) > 1 and spec.address_map is None:
                        fanned = True
                    frontier.extend((to_name, out) for out in outs)
            if fanned:
                diags.append(Diagnostic(
                    "E004", f"READ issued by '{inst.name}' can reach more than one destination "
                    "with no disjoint address decode", where=f"{inst.name}.workload[{idx}]"))
    return sort_diagnostics(diags)


NAMES = ["i0", "r0", "r1", "t0"]
sockets = st.sampled_from([0, 0, 1, 1, 2])  # 2 is out of range for every module


@st.composite
def descriptions(draw) -> SystemDescription:
    """Small descriptions with cycles, fan-outs, address maps, duplicate
    bindings, duplicate instances and unknown names."""
    templates = st.builds(TransactionTemplate, st.sampled_from([Command.READ, Command.WRITE]),
                          st.just(0), st.just(b"\x00"), sockets)
    connections = st.dictionaries(sockets, st.lists(sockets, min_size=1, max_size=3).map(tuple),
                                  min_size=1, max_size=3)
    address_map = st.none() | st.dictionaries(
        sockets, st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3)
    modules = [InitiatorSpec("I", 1_000, 2, tuple(draw(st.lists(templates, max_size=4)))),
               RouterSpec("R", 1_000, 2, 2, draw(connections), draw(address_map)),
               RouterSpec("S", 1_000, 2, 2, draw(connections), draw(address_map)),
               TargetSpec("T", (1_000, 1_000), 0, 16)]
    instances = [Instance("i0", "I", "C0"), Instance("r0", "R", "C0"),
                 Instance("r1", "S", "C0"), Instance("t0", "T", "C0")]
    instances += draw(st.lists(st.builds(Instance, st.sampled_from(NAMES + ["i1"]),
                                         st.sampled_from(["I", "R", "X"]), st.just("C0")),
                               max_size=2))
    endpoints = st.sampled_from(NAMES + ["i1", "ghost"])
    routers = st.sampled_from(["r0", "r1"])
    bindings = [Binding("i0", socket, draw(routers), draw(sockets)) for socket in (0, 1)]
    bindings += draw(st.lists(st.builds(Binding, routers, sockets, routers | endpoints, sockets),
                              max_size=6))
    bindings += draw(st.lists(st.builds(Binding, endpoints, sockets, endpoints, sockets),
                              max_size=2))
    return SystemDescription(cpus=[CpuSpec("C0", Fraction(1))], modules=modules,
                             instances=instances, bindings=bindings)


@settings(max_examples=300)
@given(descriptions())
def test_e004_matches_a_search_per_read(d):
    found = [str(x) for x in validate_description(d) if x.code == "E004"]
    assert found == [str(x) for x in reference_e004(d)]


def test_e004_through_a_cycle_reaches_the_fan_behind_it():
    d = SystemDescription(
        cpus=[CpuSpec("C0", Fraction(1))],
        modules=[InitiatorSpec("I", 1_000, 1, (TransactionTemplate(Command.READ, 0, b"\x00"),)),
                 RouterSpec("R", 1_000, 2, 2, {0: (0,), 1: (0, 1)}),
                 TargetSpec("T", (1_000,), 0, 16)],
        instances=[Instance("i0", "I", "C0"), Instance("r0", "R", "C0"),
                   Instance("r1", "R", "C0"), Instance("t0", "T", "C0")],
        bindings=[Binding("i0", 0, "r0", 0), Binding("r0", 0, "r1", 1),
                  Binding("r1", 0, "r0", 1), Binding("r1", 1, "t0", 0)])
    assert [x.code for x in reference_e004(d)] == ["E004"]
    assert [x.code for x in validate_description(d)] == ["E004", "E009"]
