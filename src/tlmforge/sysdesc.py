"""System descriptions: parse, validate, serialize, and elaborate.

A description is a single JSON document with the top-level keys ``cpus``,
``buses``, ``modules``, ``instances``, ``bindings``, ``constraints`` and
``options``.  Delays are strings with units ("10ns", "500ps"), frequencies
likewise ("4GHz", "250MHz", "1/3GHz"), so the time base is never ambiguous.
The full grammar is documented in the README next to the shipped
``fixtures/abs.json``.

Parse diagnostics (with line and column): E-SYNTAX, E-TYPE, E-MISSING.

Validation rules on a parsed description:

    E001  unresolved reference (unknown CPU, module, or binding instance)
    E002  socket index out of range
    E003  binding between instances whose CPUs share no bus
    E004  READ can reach a fan-out greater than one with no disjoint decode
    E005  duplicate identifier
    E006  router internal wiring is invalid (bad socket, bad address range)
    E007  constraint references an unknown instance
    E008  in-socket bound more than once
    E009  binding cycle: a transaction could return to an in-socket it passed
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .components import (
    Binding,
    BusSpec,
    CpuSpec,
    ExecutableModel,
    InitiatorModel,
    InitiatorSpec,
    Instance,
    ModelContext,
    ModuleSpec,
    RouterModel,
    RouterSpec,
    TargetModel,
    TargetSpec,
    TransactionTemplate,
    in_socket_count,
    out_socket_count,
)
from .diagnostics import IDENTIFIER_RE, Diagnostic, sort_diagnostics
from .jsontext import JsonSyntaxError, Node, parse_json
from .kernel import DEFAULT_EVENT_LIMIT, Scheduler
from .payload import Command
from .simtime import (
    U64_MAX,
    format_frequency_ghz,
    format_rational,
    format_time,
    parse_frequency_ghz,
    parse_rational,
    parse_time,
)


@dataclass
class TimingConstraint:
    """Deadline on an instance's last activation end time."""

    instance: str
    max_end_ps: int


@dataclass
class SimOptions:
    quantum_ps: int = 0
    event_limit: int = DEFAULT_EVENT_LIMIT
    trace_path: str | None = None


@dataclass
class SystemDescription:
    cpus: list[CpuSpec] = field(default_factory=list)
    buses: list[BusSpec] = field(default_factory=list)
    modules: list[ModuleSpec] = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)
    bindings: list[Binding] = field(default_factory=list)
    constraints: list[TimingConstraint] = field(default_factory=list)
    options: SimOptions = field(default_factory=SimOptions)


class ElaborationError(RuntimeError):
    """The description cannot be turned into an executable model."""


class InvalidDescriptionError(ElaborationError, ValueError):
    """The description has validation diagnostics, kept sorted in ``diagnostics``."""

    def __init__(self, diagnostics: list[Diagnostic]):
        summary = "; ".join(str(p) for p in diagnostics[:3])
        super().__init__(f"description has {len(diagnostics)} validation diagnostic(s): {summary}")
        self.diagnostics = diagnostics


# --------------------------------------------------------------------------
# Parsing

class _Build:
    """Walks the annotated JSON tree, collecting typed values and diagnostics."""

    def __init__(self) -> None:
        self.diags: list[Diagnostic] = []

    def err(self, node: Node | None, code: str, message: str, where: str) -> None:
        self.diags.append(Diagnostic(
            code, message, where=where,
            line=node.line if node else None,
            column=node.column if node else None))

    # -- typed accessors; each returns None after recording a diagnostic

    def obj(self, node: Node, where: str) -> dict[str, Node] | None:
        if not isinstance(node.value, dict):
            self.err(node, "E-TYPE", f"expected an object, got {node.kind}", where)
            return None
        return node.value

    def arr(self, node: Node, where: str) -> list[Node] | None:
        if not isinstance(node.value, list):
            self.err(node, "E-TYPE", f"expected an array, got {node.kind}", where)
            return None
        return node.value

    def str_(self, node: Node, where: str) -> str | None:
        if not isinstance(node.value, str):
            self.err(node, "E-TYPE", f"expected a string, got {node.kind}", where)
            return None
        return node.value

    def int_(self, node: Node, where: str, minimum: int | None = None,
             maximum: int | None = None) -> int | None:
        if not isinstance(node.value, int) or isinstance(node.value, bool):
            self.err(node, "E-TYPE", f"expected an integer, got {node.kind}", where)
            return None
        v = node.value
        if minimum is not None and v < minimum:
            self.err(node, "E-TYPE", f"expected an integer >= {minimum}, got {v}", where)
            return None
        if maximum is not None and v > maximum:
            self.err(node, "E-TYPE", f"expected an integer <= {maximum}, got {v}", where)
            return None
        return v

    def bool_(self, node: Node, where: str) -> bool | None:
        if not isinstance(node.value, bool):
            self.err(node, "E-TYPE", f"expected a boolean, got {node.kind}", where)
            return None
        return node.value

    def ident(self, node: Node, where: str) -> str | None:
        s = self.str_(node, where)
        if s is None:
            return None
        if not IDENTIFIER_RE.match(s):
            self.err(node, "E-TYPE",
                     f"bad identifier {s!r}: use letters, digits, '_', '.', '-'", where)
            return None
        return s

    def time_ps(self, node: Node, where: str) -> int | None:
        s = self.str_(node, where)
        if s is None:
            return None
        try:
            return parse_time(s)
        except (ValueError, OverflowError) as exc:
            self.err(node, "E-TYPE", str(exc), where)
            return None

    def freq_ghz(self, node: Node, where: str) -> Fraction | None:
        s = self.str_(node, where)
        if s is None:
            return None
        try:
            return parse_frequency_ghz(s)
        except ValueError as exc:
            self.err(node, "E-TYPE", str(exc), where)
            return None

    def address(self, node: Node, where: str) -> int | None:
        v = node.value
        if isinstance(v, int) and not isinstance(v, bool):
            if 0 <= v <= U64_MAX:
                return v
            self.err(node, "E-TYPE", f"address {v} outside the unsigned 64-bit range", where)
            return None
        if isinstance(v, str):
            if v.startswith("0x"):
                try:
                    parsed = int(v, 16)
                except ValueError:
                    parsed = -1
                if 0 <= parsed <= U64_MAX:
                    return parsed
            self.err(node, "E-TYPE", f"bad address {v!r}: expected 0x-prefixed hex", where)
            return None
        self.err(node, "E-TYPE", f"expected an address, got {node.kind}", where)
        return None

    def bandwidth(self, node: Node, where: str) -> Fraction | None:
        v = node.value
        try:
            if isinstance(v, bool):
                raise ValueError("expected a number")
            if isinstance(v, int):
                result = Fraction(v)
            elif isinstance(v, float):
                result = parse_rational(repr(v))
            elif isinstance(v, str):
                result = parse_rational(v)
            else:
                raise ValueError(f"expected bytes-per-ns, got {node.kind}")
            if result <= 0:
                raise ValueError(f"bandwidth must be positive, got {v!r}")
        except ValueError as exc:
            self.err(node, "E-TYPE", str(exc), where)
            return None
        return result

    def hex_data(self, node: Node, where: str) -> bytes | None:
        s = self.str_(node, where)
        if s is None:
            return None
        if len(s) % 2 != 0:
            self.err(node, "E-TYPE", "hex data needs an even number of digits", where)
            return None
        try:
            data = bytes.fromhex(s)
        except ValueError:
            self.err(node, "E-TYPE", f"bad hex data {s!r}", where)
            return None
        if not data:
            self.err(node, "E-TYPE", "data must hold at least one byte", where)
            return None
        return data

    # -- object member helpers

    def get(self, obj_node: Node, key: str, where: str) -> Node | None:
        node = obj_node.value.get(key)
        if node is None:
            self.err(obj_node, "E-MISSING", f"required key '{key}' is missing", where)
        return node

    def check_keys(self, obj_node: Node, allowed: tuple[str, ...], where: str) -> None:
        for key, child in obj_node.value.items():
            if key not in allowed:
                self.err(child, "E-TYPE", f"unknown key '{key}'", f"{where}.{key}")


def _build_template(b: _Build, node: Node, where: str) -> TransactionTemplate | None:
    if b.obj(node, where) is None:
        return None
    b.check_keys(node, ("command", "address", "data", "length", "socket", "repeat"), where)
    cmd_node = b.get(node, "command", where)
    addr_node = b.get(node, "address", where)
    command = None
    if cmd_node is not None:
        s = b.str_(cmd_node, f"{where}.command")
        if s is not None:
            try:
                command = Command(s)
            except ValueError:
                b.err(cmd_node, "E-TYPE", f"unknown command {s!r}", f"{where}.command")
    address = b.address(addr_node, f"{where}.address") if addr_node is not None else None

    data_node = node.value.get("data")
    length_node = node.value.get("length")
    data: bytes | None = None
    if data_node is not None and length_node is not None:
        b.err(length_node, "E-TYPE", "give 'data' or 'length', not both", f"{where}.length")
    elif data_node is not None:
        data = b.hex_data(data_node, f"{where}.data")
    elif length_node is not None:
        length = b.int_(length_node, f"{where}.length", minimum=1)
        data = bytes(length) if length is not None else None
    else:
        b.err(node, "E-MISSING", "required key 'data' or 'length' is missing", where)

    socket = 0
    if (socket_node := node.value.get("socket")) is not None:
        socket = b.int_(socket_node, f"{where}.socket")
    repeat = 1
    if (repeat_node := node.value.get("repeat")) is not None:
        repeat = b.int_(repeat_node, f"{where}.repeat", minimum=0)

    if None in (command, address, data, socket, repeat):
        return None
    return TransactionTemplate(command, address, data, socket, repeat)


def _build_module(b: _Build, node: Node, where: str) -> ModuleSpec | None:
    if b.obj(node, where) is None:
        return None
    kind_node = b.get(node, "kind", where)
    name_node = b.get(node, "name", where)
    if kind_node is None or name_node is None:
        return None
    kind = b.str_(kind_node, f"{where}.kind")
    name = b.ident(name_node, f"{where}.name")
    if kind is None or name is None:
        return None

    bandwidth = None
    if (bw_node := node.value.get("bandwidth")) is not None:
        bandwidth = b.bandwidth(bw_node, f"{where}.bandwidth")

    if kind == "initiator":
        b.check_keys(node, ("kind", "name", "delay", "sockets", "workload", "bandwidth"), where)
        delay_node = b.get(node, "delay", where)
        sockets_node = b.get(node, "sockets", where)
        delay = b.time_ps(delay_node, f"{where}.delay") if delay_node is not None else None
        sockets = (b.int_(sockets_node, f"{where}.sockets", minimum=1)
                   if sockets_node is not None else None)
        workload: list[TransactionTemplate] = []
        ok = True
        if (wl_node := node.value.get("workload")) is not None:
            items = b.arr(wl_node, f"{where}.workload")
            if items is None:
                ok = False
            else:
                for i, item in enumerate(items):
                    t = _build_template(b, item, f"{where}.workload[{i}]")
                    if t is None:
                        ok = False
                    else:
                        workload.append(t)
        if delay is None or sockets is None or not ok:
            return None
        return InitiatorSpec(name, delay, sockets, tuple(workload), bandwidth)

    if kind == "target":
        b.check_keys(node, ("kind", "name", "socket_delays", "storage", "dmi", "bandwidth"), where)
        delays_node = b.get(node, "socket_delays", where)
        storage_node = b.get(node, "storage", where)
        delays: list[int] | None = []
        if delays_node is not None:
            items = b.arr(delays_node, f"{where}.socket_delays")
            if items is None or not items:
                if items is not None:
                    b.err(delays_node, "E-TYPE", "socket_delays must not be empty",
                          f"{where}.socket_delays")
                delays = None
            else:
                for i, item in enumerate(items):
                    d = b.time_ps(item, f"{where}.socket_delays[{i}]")
                    if d is None:
                        delays = None
                        break
                    delays.append(d)
        else:
            delays = None
        base, size, fill = 0, None, 0
        if storage_node is not None and b.obj(storage_node, f"{where}.storage") is not None:
            b.check_keys(storage_node, ("base", "size", "fill"), f"{where}.storage")
            if (base_node := storage_node.value.get("base")) is not None:
                base = b.address(base_node, f"{where}.storage.base")
            size_node = b.get(storage_node, "size", f"{where}.storage")
            if size_node is not None:
                size = b.int_(size_node, f"{where}.storage.size", minimum=1)
            if (fill_node := storage_node.value.get("fill")) is not None:
                fill = b.int_(fill_node, f"{where}.storage.fill", minimum=0, maximum=255)
        dmi = False
        if (dmi_node := node.value.get("dmi")) is not None:
            dmi = b.bool_(dmi_node, f"{where}.dmi")
        if delays is None or base is None or size is None or fill is None or dmi is None:
            return None
        return TargetSpec(name, tuple(delays), base, size, fill, dmi, bandwidth)

    if kind == "router":
        b.check_keys(node, ("kind", "name", "delay", "in_sockets", "out_sockets",
                            "connections", "address_map", "bandwidth"), where)
        delay_node = b.get(node, "delay", where)
        in_node = b.get(node, "in_sockets", where)
        out_node = b.get(node, "out_sockets", where)
        conn_node = b.get(node, "connections", where)
        delay = b.time_ps(delay_node, f"{where}.delay") if delay_node is not None else None
        ins = b.int_(in_node, f"{where}.in_sockets", minimum=1) if in_node is not None else None
        outs = b.int_(out_node, f"{where}.out_sockets", minimum=1) if out_node is not None else None

        connections: dict[int, tuple[int, ...]] | None = {}
        if conn_node is not None and b.obj(conn_node, f"{where}.connections") is not None:
            for key, value in conn_node.value.items():
                cwhere = f"{where}.connections[{key}]"
                if not key.isdigit():
                    b.err(value, "E-TYPE", f"connection key {key!r} must be a socket index", cwhere)
                    connections = None
                    continue
                items = b.arr(value, cwhere)
                if items is None or not items:
                    if items is not None:
                        b.err(value, "E-TYPE", "connection list must not be empty", cwhere)
                    connections = None
                    continue
                out_list = []
                for i, item in enumerate(items):
                    v = b.int_(item, f"{cwhere}[{i}]")
                    if v is None:
                        connections = None
                        break
                    out_list.append(v)
                if connections is not None:
                    connections[int(key)] = tuple(out_list)
        else:
            connections = None

        address_map: dict[int, tuple[int, int]] | None = None
        if (map_node := node.value.get("address_map")) is not None:
            address_map = {}
            if b.obj(map_node, f"{where}.address_map") is not None:
                for key, value in map_node.value.items():
                    mwhere = f"{where}.address_map[{key}]"
                    if not key.isdigit():
                        b.err(value, "E-TYPE", f"address_map key {key!r} must be a socket index",
                              mwhere)
                        continue
                    items = b.arr(value, mwhere)
                    if items is None or len(items) != 2:
                        if items is not None:
                            b.err(value, "E-TYPE", "expected [base, limit]", mwhere)
                        continue
                    lo = b.address(items[0], f"{mwhere}[0]")
                    hi = b.address(items[1], f"{mwhere}[1]")
                    if lo is not None and hi is not None:
                        address_map[int(key)] = (lo, hi)
            else:
                address_map = None

        if delay is None or ins is None or outs is None or connections is None:
            return None
        return RouterSpec(name, delay, ins, outs, connections, address_map, bandwidth)

    b.err(kind_node, "E-TYPE",
          f"unknown module kind {kind!r}: expected initiator, target, or router",
          f"{where}.kind")
    return None


def _build_endpoint(b: _Build, node: Node, where: str) -> tuple[str, int] | None:
    items = b.arr(node, where)
    if items is None or len(items) != 2:
        if items is not None:
            b.err(node, "E-TYPE", "expected [instance, socket]", where)
        return None
    name = b.ident(items[0], f"{where}[0]")
    socket = b.int_(items[1], f"{where}[1]")
    if name is None or socket is None:
        return None
    return name, socket


def parse_description(text: str) -> tuple[SystemDescription | None, list[Diagnostic]]:
    """Parse description text; returns (description, []) or (None, diagnostics)."""
    try:
        root = parse_json(text)
    except JsonSyntaxError as exc:
        return None, [Diagnostic("E-SYNTAX", exc.reason, line=exc.line, column=exc.column)]

    b = _Build()
    if b.obj(root, "$") is None:
        return None, sort_diagnostics(b.diags)
    b.check_keys(root, ("cpus", "buses", "modules", "instances", "bindings",
                        "constraints", "options"), "$")

    desc = SystemDescription()

    cpus_node = b.get(root, "cpus", "cpus")
    if cpus_node is not None and (items := b.arr(cpus_node, "cpus")) is not None:
        for i, item in enumerate(items):
            where = f"cpus[{i}]"
            if b.obj(item, where) is None:
                continue
            b.check_keys(item, ("name", "frequency"), where)
            name_node = b.get(item, "name", where)
            freq_node = b.get(item, "frequency", where)
            name = b.ident(name_node, f"{where}.name") if name_node is not None else None
            freq = b.freq_ghz(freq_node, f"{where}.frequency") if freq_node is not None else None
            if name is not None and freq is not None:
                desc.cpus.append(CpuSpec(name, freq))

    if (buses_node := root.value.get("buses")) is not None:
        if (items := b.arr(buses_node, "buses")) is not None:
            for i, item in enumerate(items):
                where = f"buses[{i}]"
                if b.obj(item, where) is None:
                    continue
                b.check_keys(item, ("name", "cpus"), where)
                name_node = b.get(item, "name", where)
                cpus_ref = b.get(item, "cpus", where)
                name = b.ident(name_node, f"{where}.name") if name_node is not None else None
                members: list[str] | None = []
                if cpus_ref is not None and (refs := b.arr(cpus_ref, f"{where}.cpus")) is not None:
                    if len(refs) < 2:
                        b.err(cpus_ref, "E-TYPE", "a bus joins at least two CPUs", f"{where}.cpus")
                        members = None
                    else:
                        for j, ref in enumerate(refs):
                            cpu = b.ident(ref, f"{where}.cpus[{j}]")
                            if cpu is None:
                                members = None
                                break
                            members.append(cpu)
                else:
                    members = None
                if name is not None and members is not None:
                    desc.buses.append(BusSpec(name, tuple(members)))

    if (modules_node := root.value.get("modules")) is not None:
        if (items := b.arr(modules_node, "modules")) is not None:
            for i, item in enumerate(items):
                spec = _build_module(b, item, f"modules[{i}]")
                if spec is not None:
                    desc.modules.append(spec)

    if (instances_node := root.value.get("instances")) is not None:
        if (items := b.arr(instances_node, "instances")) is not None:
            for i, item in enumerate(items):
                where = f"instances[{i}]"
                if b.obj(item, where) is None:
                    continue
                b.check_keys(item, ("name", "module", "cpu"), where)
                parts = {}
                for key in ("name", "module", "cpu"):
                    node = b.get(item, key, where)
                    parts[key] = b.ident(node, f"{where}.{key}") if node is not None else None
                if None not in parts.values():
                    desc.instances.append(Instance(parts["name"], parts["module"], parts["cpu"]))

    if (bindings_node := root.value.get("bindings")) is not None:
        if (items := b.arr(bindings_node, "bindings")) is not None:
            for i, item in enumerate(items):
                where = f"bindings[{i}]"
                if b.obj(item, where) is None:
                    continue
                b.check_keys(item, ("from", "to"), where)
                from_node = b.get(item, "from", where)
                to_node = b.get(item, "to", where)
                src = (_build_endpoint(b, from_node, f"{where}.from")
                       if from_node is not None else None)
                dst = _build_endpoint(b, to_node, f"{where}.to") if to_node is not None else None
                if src is not None and dst is not None:
                    desc.bindings.append(Binding(src[0], src[1], dst[0], dst[1]))

    if (constraints_node := root.value.get("constraints")) is not None:
        if (items := b.arr(constraints_node, "constraints")) is not None:
            for i, item in enumerate(items):
                where = f"constraints[{i}]"
                if b.obj(item, where) is None:
                    continue
                b.check_keys(item, ("instance", "max_end"), where)
                inst_node = b.get(item, "instance", where)
                end_node = b.get(item, "max_end", where)
                inst = b.ident(inst_node, f"{where}.instance") if inst_node is not None else None
                max_end = b.time_ps(end_node, f"{where}.max_end") if end_node is not None else None
                if inst is not None and max_end is not None:
                    desc.constraints.append(TimingConstraint(inst, max_end))

    if (options_node := root.value.get("options")) is not None:
        if b.obj(options_node, "options") is not None:
            b.check_keys(options_node, ("quantum", "event_limit", "trace"), "options")
            if (q_node := options_node.value.get("quantum")) is not None:
                q = b.time_ps(q_node, "options.quantum")
                if q is not None:
                    desc.options.quantum_ps = q
            if (limit_node := options_node.value.get("event_limit")) is not None:
                limit = b.int_(limit_node, "options.event_limit", minimum=1)
                if limit is not None:
                    desc.options.event_limit = limit
            if (trace_node := options_node.value.get("trace")) is not None:
                path = b.str_(trace_node, "options.trace")
                if path is not None:
                    desc.options.trace_path = path

    if b.diags:
        return None, sort_diagnostics(b.diags)
    return desc, []


# --------------------------------------------------------------------------
# Validation

def _ranges_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] < b[1] and b[0] < a[1]


def validate_description(d: SystemDescription) -> list[Diagnostic]:
    """Apply the E001..E009 rule set; an empty result means the model is sound."""
    diags: list[Diagnostic] = []
    add = lambda code, message, where: diags.append(Diagnostic(code, message, where=where))

    cpu_names = {c.name for c in d.cpus}
    specs = {m.name: m for m in d.modules}
    instances = {i.name: i for i in d.instances}

    # E005: duplicates within each namespace
    for label, names in (("cpus", [c.name for c in d.cpus]),
                         ("buses", [bus.name for bus in d.buses]),
                         ("modules", [m.name for m in d.modules]),
                         ("instances", [i.name for i in d.instances])):
        seen: set[str] = set()
        for idx, name in enumerate(names):
            if name in seen:
                add("E005", f"duplicate identifier '{name}'", f"{label}[{idx}].name")
            seen.add(name)

    # E001: unresolved references
    for i, bus in enumerate(d.buses):
        for j, cpu in enumerate(bus.cpus):
            if cpu not in cpu_names:
                add("E001", f"unknown CPU '{cpu}'", f"buses[{i}].cpus[{j}]")
    for i, inst in enumerate(d.instances):
        if inst.cpu not in cpu_names:
            add("E001", f"unknown CPU '{inst.cpu}'", f"instances[{i}].cpu")
        if inst.module not in specs:
            add("E001", f"unknown module '{inst.module}'", f"instances[{i}].module")
    for i, binding in enumerate(d.bindings):
        for end, name in (("from", binding.from_instance), ("to", binding.to_instance)):
            if name not in instances:
                add("E001", f"unknown instance '{name}'", f"bindings[{i}].{end}")

    def spec_of(instance_name: str) -> ModuleSpec | None:
        inst = instances.get(instance_name)
        if inst is None:
            return None
        return specs.get(inst.module)

    # E002: socket indices out of range
    for m, spec in enumerate(d.modules):
        if isinstance(spec, InitiatorSpec):
            for k, template in enumerate(spec.workload):
                if not 0 <= template.socket < spec.socket_count:
                    add("E002",
                        f"socket {template.socket} out of range for '{spec.name}' "
                        f"({spec.socket_count} sockets)",
                        f"modules[{m}].workload[{k}].socket")
    for i, binding in enumerate(d.bindings):
        from_spec = spec_of(binding.from_instance)
        if from_spec is not None and not 0 <= binding.from_socket < out_socket_count(from_spec):
            add("E002",
                f"out-socket {binding.from_socket} out of range for '{binding.from_instance}' "
                f"({out_socket_count(from_spec)} out-sockets)",
                f"bindings[{i}].from")
        to_spec = spec_of(binding.to_instance)
        if to_spec is not None and not 0 <= binding.to_socket < in_socket_count(to_spec):
            add("E002",
                f"in-socket {binding.to_socket} out of range for '{binding.to_instance}' "
                f"({in_socket_count(to_spec)} in-sockets)",
                f"bindings[{i}].to")

    # E003: cross-CPU bindings need a shared bus
    for i, binding in enumerate(d.bindings):
        src = instances.get(binding.from_instance)
        dst = instances.get(binding.to_instance)
        if src is None or dst is None or src.cpu not in cpu_names or dst.cpu not in cpu_names:
            continue
        if src.cpu == dst.cpu:
            continue
        if not any(src.cpu in bus.cpus and dst.cpu in bus.cpus for bus in d.buses):
            add("E003",
                f"instances '{src.name}' ({src.cpu}) and '{dst.name}' ({dst.cpu}) "
                "share no bus", f"bindings[{i}]")

    # E006: router internal wiring
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
            for in_socket, outs in spec.connections.items():
                mapped = [(out, spec.address_map[out]) for out in sorted(set(outs))
                          if out in spec.address_map]
                for a in range(len(mapped)):
                    for bx in range(a + 1, len(mapped)):
                        if _ranges_overlap(mapped[a][1], mapped[bx][1]):
                            add("E006",
                                f"address ranges of out-sockets {mapped[a][0]} and "
                                f"{mapped[bx][0]} reachable from in-socket {in_socket} overlap",
                                f"modules[{m}].address_map")

    # E008: an in-socket accepts at most one binding
    bound_in: set[tuple[str, int]] = set()
    for i, binding in enumerate(d.bindings):
        key = (binding.to_instance, binding.to_socket)
        if key in bound_in:
            add("E008", f"in-socket {binding.to_socket} of '{binding.to_instance}' "
                "is bound more than once", f"bindings[{i}].to")
        bound_in.add(key)

    # One socket graph for E004 and E009.  Nodes are sockets (instance, index, is_out); a
    # router joins each in-socket to its connected outs, a binding an out to an in.  A fan
    # is a socket where a transaction can split: an out with several bindings, or a router
    # in-socket with several outs and no address decode.
    successors: dict[tuple[str, int, bool], list[tuple[str, int, bool]]] = {}
    fans: list[tuple[str, int, bool]] = []
    for inst in d.instances:
        if isinstance(inst_spec := spec_of(inst.name), RouterSpec):
            for in_socket, outs in inst_spec.connections.items():
                successors[(inst.name, in_socket, False)] = [(inst.name, o, True) for o in outs]
                if len(set(outs)) > 1 and inst_spec.address_map is None:
                    fans.append((inst.name, in_socket, False))
    for binding in d.bindings:
        successors.setdefault((binding.from_instance, binding.from_socket, True), []).append(
            (binding.to_instance, binding.to_socket, False))
    fans += [node for node, nexts in successors.items() if node[2] and len(nexts) > 1]

    # E004: a READ's out-socket must not reach a fan.  One reverse walk finds all that do.
    predecessors: dict[tuple[str, int, bool], list[tuple[str, int, bool]]] = {}
    for node, nexts in successors.items():
        for nxt in nexts:
            predecessors.setdefault(nxt, []).append(node)
    reaches_fan = set(fans)
    stack = list(reaches_fan)
    while stack:
        for prev in predecessors.get(stack.pop(), ()):
            if prev not in reaches_fan:
                reaches_fan.add(prev)
                stack.append(prev)
    for inst in d.instances:
        if isinstance(inst_spec := spec_of(inst.name), InitiatorSpec):
            for idx, template in enumerate(inst_spec.workload):
                if (template.command is Command.READ
                        and (inst.name, template.socket, True) in reaches_fan):
                    add("E004",
                        f"READ issued by '{inst.name}' can reach more than one destination "
                        "with no disjoint address decode",
                        f"{inst.name}.workload[{idx}]")

    # E009: no binding cycle.  The search is iterative so no description can exhaust the stack.
    position: dict[tuple[str, int, bool], int] = {}  # index on the path; -1 once finished
    for root in successors:
        if root in position:
            continue
        position[root] = 0
        path = [(root, iter(successors[root]))]
        while path:
            node = next(path[-1][1], None)
            if node is None:
                position[path.pop()[0]] = -1
            elif node not in position:
                position[node] = len(path)
                path.append((node, iter(successors.get(node, ()))))
            elif position[node] >= 0:
                loop = [f"{name}[{socket}]" for (name, socket, is_out), _ in path[position[node]:]
                        if not is_out]
                add("E009", "binding cycle " + " -> ".join(loop + loop[:1]), "bindings")

    # E007: constraints must point at real instances
    for i, constraint in enumerate(d.constraints):
        if constraint.instance not in instances:
            add("E007", f"unknown instance '{constraint.instance}'",
                f"constraints[{i}].instance")

    return sort_diagnostics(diags)


def require_valid(d: SystemDescription) -> None:
    """The one validation gate: raises InvalidDescriptionError unless ``d`` is sound."""
    problems = validate_description(d)
    if problems:
        raise InvalidDescriptionError(problems)


# --------------------------------------------------------------------------
# Serialization

def serialize_description(d: SystemDescription) -> str:
    """Emit canonical description text; parsing it back yields an equal value."""
    doc: dict = {"cpus": [{"name": c.name, "frequency": format_frequency_ghz(c.frequency_ghz)}
                          for c in d.cpus]}
    doc["buses"] = [{"name": bus.name, "cpus": list(bus.cpus)} for bus in d.buses]
    modules = []
    for spec in d.modules:
        if isinstance(spec, InitiatorSpec):
            entry = {"kind": "initiator", "name": spec.name,
                     "delay": format_time(spec.delay_ps), "sockets": spec.socket_count,
                     "workload": [{"command": t.command.value, "address": f"0x{t.address:x}",
                                   "data": t.data.hex(), "socket": t.socket, "repeat": t.repeat}
                                  for t in spec.workload]}
        elif isinstance(spec, TargetSpec):
            entry = {"kind": "target", "name": spec.name,
                     "socket_delays": [format_time(t) for t in spec.socket_delays_ps],
                     "storage": {"base": f"0x{spec.storage_base:x}", "size": spec.storage_size,
                                 "fill": spec.storage_fill},
                     "dmi": spec.dmi_allowed}
        else:
            entry = {"kind": "router", "name": spec.name, "delay": format_time(spec.delay_ps),
                     "in_sockets": spec.in_socket_count, "out_sockets": spec.out_socket_count,
                     "connections": {str(k): list(v) for k, v in spec.connections.items()}}
            if spec.address_map is not None:
                entry["address_map"] = {str(k): [f"0x{v[0]:x}", f"0x{v[1]:x}"]
                                        for k, v in spec.address_map.items()}
        if spec.bandwidth is not None:
            entry["bandwidth"] = format_rational(spec.bandwidth)
        modules.append(entry)
    doc["modules"] = modules
    doc["instances"] = [{"name": i.name, "module": i.module, "cpu": i.cpu}
                        for i in d.instances]
    doc["bindings"] = [{"from": [bi.from_instance, bi.from_socket],
                        "to": [bi.to_instance, bi.to_socket]} for bi in d.bindings]
    doc["constraints"] = [{"instance": c.instance, "max_end": format_time(c.max_end_ps)}
                          for c in d.constraints]
    options: dict = {"quantum": format_time(d.options.quantum_ps),
                     "event_limit": d.options.event_limit}
    if d.options.trace_path is not None:
        options["trace"] = d.options.trace_path
    doc["options"] = options
    return json.dumps(doc, indent=2) + "\n"


# --------------------------------------------------------------------------
# Elaboration

def elaborate(
    d: SystemDescription,
    *,
    quantum_ps: int | None = None,
    event_limit: int | None = None,
) -> ExecutableModel:
    """Build the executable model: component models, storage and bindings.

    Raises InvalidDescriptionError for an invalid description.  The initiators
    start when ``run()`` is called.  Elaboration order follows description order,
    so two elaborations of equal descriptions produce identical runs.
    ``quantum_ps`` and ``event_limit`` override the description's options when
    given.  Delays are scaled here, once; one outside the 64-bit range raises
    ``TimeOverflowError`` before anything runs.
    """
    require_valid(d)
    ctx = ModelContext(
        scheduler=Scheduler(event_limit if event_limit is not None else d.options.event_limit))
    quantum = quantum_ps if quantum_ps is not None else d.options.quantum_ps

    specs = {m.name: m for m in d.modules}
    freqs = {c.name: c.frequency_ghz for c in d.cpus}
    models: dict[str, InitiatorModel | TargetModel | RouterModel] = {}
    for inst in d.instances:
        spec = specs[inst.module]
        f = freqs[inst.cpu]
        if isinstance(spec, InitiatorSpec):
            models[inst.name] = InitiatorModel(inst.name, spec, f, ctx, quantum)
        elif isinstance(spec, TargetSpec):
            models[inst.name] = TargetModel(inst.name, spec, f, ctx)
        else:
            models[inst.name] = RouterModel(inst.name, spec, f, ctx)

    # Resolve bindings: destinations ordered by in-socket index, then
    # declaration order, which fixes the fan-out status-merge order.
    by_from: dict[tuple[str, int], list[tuple[int, str, int]]] = {}
    for idx, binding in enumerate(d.bindings):
        by_from.setdefault((binding.from_instance, binding.from_socket), []).append(
            (idx, binding.to_instance, binding.to_socket))
    for (from_name, from_socket), entries in by_from.items():
        entries.sort(key=lambda e: (e[2], e[0]))
        model = models[from_name]
        model.out_bindings[from_socket] = [(models[to], to_socket)
                                           for _, to, to_socket in entries]

    # Fail fast on wiring a transaction could fall off of.
    bound_in: dict[str, set[int]] = {}
    for binding in d.bindings:
        bound_in.setdefault(binding.to_instance, set()).add(binding.to_socket)
    for inst in d.instances:
        spec = specs[inst.module]
        if isinstance(spec, InitiatorSpec):
            for template in spec.workload:
                if template.socket not in models[inst.name].out_bindings:
                    raise ElaborationError(
                        f"initiator '{inst.name}' socket {template.socket} is unbound")
        elif isinstance(spec, RouterSpec):
            for in_socket in sorted(bound_in.get(inst.name, ())):
                outs = spec.connections.get(in_socket)
                if not outs:
                    raise ElaborationError(
                        f"router '{inst.name}' in-socket {in_socket} is bound "
                        "but has no connection entry")
                for out in outs:
                    if out not in models[inst.name].out_bindings:
                        raise ElaborationError(
                            f"router '{inst.name}' out-socket {out} is unbound")

    return ExecutableModel(ctx, models)
