"""E004 from one shared socket graph agrees with a fresh search per READ, and
a description the validator passes always elaborates, runs and exports."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tlmforge.codegen import export_tlm
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
from tlmforge.sysdesc import (
    InvalidDescriptionError,
    SystemDescription,
    elaborate,
    validate_description,
)


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
def descriptions(draw, wired: bool = False) -> SystemDescription:
    """Small descriptions with cycles, fan-outs, address maps, duplicate
    bindings, duplicate instances and unknown names.  ``wired`` ones keep to
    the names and sockets that exist, disjoint address ranges, one binding per
    in-socket and no cycle, so that about a third of them are valid."""
    index = st.sampled_from([0, 1]) if wired else sockets
    templates = st.builds(TransactionTemplate, st.sampled_from([Command.READ, Command.WRITE]),
                          st.just(0), st.just(b"\x00"), index)
    outs = st.lists(index, min_size=1, max_size=3).map(tuple)
    connections = (st.fixed_dictionaries({0: outs, 1: outs}) if wired else
                   st.dictionaries(sockets, outs, min_size=1, max_size=3))
    address_map = st.none() | (
        st.sampled_from([{0: (0, 2)}, {1: (2, 4)}, {0: (0, 2), 1: (2, 4)}]) if wired else
        st.dictionaries(sockets, st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3))
    modules = [InitiatorSpec("I", 1_000, 2, tuple(draw(st.lists(templates, max_size=4)))),
               RouterSpec("R", 1_000, 2, 2, draw(connections), draw(address_map)),
               RouterSpec("S", 1_000, 2, 2, draw(connections), draw(address_map)),
               TargetSpec("T", (1_000, 1_000), 0, 16)]
    instances = [Instance("i0", "I", "C0"), Instance("r0", "R", "C0"),
                 Instance("r1", "S", "C0"), Instance("t0", "T", "C0")]
    if wired:
        # Each out-socket, in a drawn order, binds to free in-sockets of instances
        # after it in NAMES + ["t1"], so there is no cycle and the order decides
        # which outs find none.
        instances.append(Instance("t1", "T", "C0"))
        rank = {name: i for i, name in enumerate(NAMES + ["t1"])}
        free = [(name, k) for name in ("r0", "r1", "t0", "t1") for k in (0, 1)]
        bindings = []
        for src in draw(st.permutations([(n, k) for n in ("i0", "r0", "r1") for k in (0, 1)])):
            later = [dst for dst in free if rank[dst[0]] > rank[src[0]]]
            for dst in draw(st.lists(st.sampled_from(later), min_size=1, max_size=2,
                                     unique=True)) if later else ():
                free.remove(dst)
                bindings.append(Binding(*src, *dst))
        return SystemDescription(cpus=[CpuSpec("C0", Fraction(1))], modules=modules,
                                 instances=instances, bindings=bindings)
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


@settings(max_examples=300)
@given(descriptions() | descriptions(wired=True))
def test_validation_is_the_whole_gate(d):
    found = validate_description(d)
    if not found:
        elaborate(d).run()
        export_tlm(d)
        return
    for build in (elaborate, export_tlm):
        with pytest.raises(InvalidDescriptionError) as info:
            build(d)
        assert info.value.diagnostics == found


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
    # E010: r0's out-socket 1 is reachable from the bound in-socket 1 but unbound.
    assert [x.code for x in validate_description(d)] == ["E004", "E009", "E010"]
