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
    E010  a used socket is unbound, or a bound router in-socket has no connections
    E011  a path from an initiator passes more than MAX_ROUTERS routers
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .components import (
    Binding,
    BusSpec,
    CpuSpec,
    Destination,
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
from .jsontext import JsonSyntaxError, kind, load_json, parse_json
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


class InvalidDescriptionError(ValueError):
    """The description has validation diagnostics, kept sorted in ``diagnostics``."""

    def __init__(self, diagnostics: list[Diagnostic]):
        summary = "; ".join(str(p) for p in diagnostics[:3])
        super().__init__(f"description has {len(diagnostics)} validation diagnostic(s): {summary}")
        self.diagnostics = diagnostics


# --------------------------------------------------------------------------
# Parsing

_ADDRESS_RE = re.compile(r"0x[0-9A-Fa-f]+")
_SOCKET_KEY_RE = re.compile(r"[0-9]+")
_MAX_LENGTH = 2**32 - 1  # a TLM-2.0 data length is an unsigned int


class _SocketKey(str):
    """A socket-index key: ``_spell`` writes it ``[key]``; it equals the raw string."""


def _spell(path: tuple) -> str:
    """A diagnostic's name for a path: the root is ``$`` and its members go by
    their key; below them an index or socket key is ``[k]``, any other key ``.k``."""
    if not path:
        return "$"
    return path[0] + "".join(f".{step}" if type(step) is str else f"[{step}]"
                             for step in path[1:])


def _typed(cls: type, what: str):
    """A converter that accepts values of one JSON type as they are."""
    def convert(self: _Build, value, path: tuple):
        if isinstance(value, cls):
            return value
        return self.err(path, "E-TYPE", f"expected {what}, got {kind(value)}")
    return convert


def _parsed(parse):
    """A converter that reads a string with ``parse`` and reports what it raises."""
    def convert(self: _Build, value, path: tuple):
        s = self.str_(value, path)
        if s is None:
            return None
        try:
            return parse(s)
        except (ValueError, OverflowError) as exc:
            return self.err(path, "E-TYPE", str(exc))
    return convert


class _Build:
    """Walks the plain JSON value, collecting typed values and diagnostics.

    Every converter takes ``(value, path)``: a JSON value and its path from the
    root, a tuple of object keys and array indices.  It returns the typed value,
    or records at least one diagnostic and returns None; None is never a value.
    A diagnostic takes its line and column from ``positions`` (path -> (line,
    column), empty when the text was read without positions) and spells its
    ``where`` from the path only when it is made.  A record is a table of key ->
    converter read by ``fields``; arrays, fixed pairs and objects keyed by socket
    index go through ``items``, ``pair`` and ``by_socket``.
    """

    def __init__(self, positions: dict[tuple, tuple[int, int]]) -> None:
        self.positions = positions
        self.diags: list[Diagnostic] = []

    def err(self, at: tuple, code: str, message: str, where: str | None = None) -> None:
        line, column = self.positions.get(at, (None, None))
        self.diags.append(Diagnostic(code, message, where=_spell(at) if where is None else where,
                                     line=line, column=column))

    # -- converters of single values

    obj = _typed(dict, "an object")
    arr = _typed(list, "an array")
    str_ = _typed(str, "a string")
    bool_ = _typed(bool, "a boolean")
    time_ps = _parsed(parse_time)
    freq_ghz = _parsed(parse_frequency_ghz)

    def int_(self, v, path: tuple, minimum: int | None = None,
             maximum: int | None = None) -> int | None:
        if not isinstance(v, int) or isinstance(v, bool):
            return self.err(path, "E-TYPE", f"expected an integer, got {kind(v)}")
        if minimum is not None and v < minimum:
            return self.err(path, "E-TYPE", f"expected an integer >= {minimum}, got {v}")
        if maximum is not None and v > maximum:
            return self.err(path, "E-TYPE", f"expected an integer <= {maximum}, got {v}")
        return v

    def count(self, v, path: tuple) -> int | None:
        return self.int_(v, path, minimum=1)

    def ident(self, v, path: tuple) -> str | None:
        s = self.str_(v, path)
        if s is None or IDENTIFIER_RE.fullmatch(s):
            return s
        return self.err(path, "E-TYPE",
                        f"bad identifier {s!r}: use letters, digits, '_', '.', '-'")

    def command(self, v, path: tuple) -> Command | None:
        s = self.str_(v, path)
        if s is None:
            return None
        try:
            return Command(s)
        except ValueError:
            return self.err(path, "E-TYPE", f"unknown command {s!r}")

    def address(self, v, path: tuple) -> int | None:
        if isinstance(v, int) and not isinstance(v, bool):
            if 0 <= v <= U64_MAX:
                return v
            return self.err(path, "E-TYPE", f"address {v} outside the unsigned 64-bit range")
        if isinstance(v, str):
            if _ADDRESS_RE.fullmatch(v) and int(v, 16) <= U64_MAX:
                return int(v, 16)
            return self.err(path, "E-TYPE", f"bad address {v!r}: expected 0x-prefixed hex")
        return self.err(path, "E-TYPE", f"expected an address, got {kind(v)}")

    def bandwidth(self, v, path: tuple) -> Fraction | None:
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
                raise ValueError(f"expected bytes-per-ns, got {kind(v)}")
            if result <= 0:
                raise ValueError(f"bandwidth must be positive, got {v!r}")
        except ValueError as exc:
            return self.err(path, "E-TYPE", str(exc))
        return result

    def hex_data(self, v, path: tuple) -> bytes | None:
        s = self.str_(v, path)
        if s is None:
            return None
        if len(s) % 2 != 0:
            return self.err(path, "E-TYPE", "hex data needs an even number of digits")
        if not s:
            return self.err(path, "E-TYPE", "data must hold at least one byte")
        try:
            data = bytes.fromhex(s)
        except ValueError:
            data = b""
        if 2 * len(data) != len(s):  # fromhex also skips blanks; a description has none
            return self.err(path, "E-TYPE", f"bad hex data {s!r}")
        return data

    # -- records, arrays, pairs and socket-keyed objects

    def absent(self, members: dict, keys, path: tuple) -> bool:
        """Report each of ``keys`` missing from the object; True if any is."""
        missing = [key for key in keys if key not in members]
        for key in missing:
            # The root names a missing section by its key, a record by the record's path.
            self.err(path, "E-MISSING", f"required key '{key}' is missing",
                     None if path else key)
        return bool(missing)

    def fields(self, v, path: tuple, required: dict, optional: dict | None = None,
               other_keys: tuple[str, ...] = ()) -> dict | None:
        """An object whose members are converted by ``required`` and ``optional``.

        ``other_keys`` are allowed but left to the caller.  Returns the present
        members' values by key, or None if anything was reported.
        """
        members = self.obj(v, path)
        if members is None:
            return None
        optional = optional or {}
        start = len(self.diags)
        values = {}
        for key, child in members.items():
            convert = required.get(key) or optional.get(key)
            if convert is not None:
                values[key] = convert(child, path + (key,))
            elif key not in other_keys:
                self.err(path + (key,), "E-TYPE", f"unknown key '{key}'",
                         None if path else f"$.{key}")
        self.absent(members, required, path)
        return values if len(self.diags) == start else None

    def items(self, v, path: tuple, convert, least: int = 0, too_few: str = "",
              every: bool = False) -> list | None:
        """An array of at least ``least`` elements; the walk stops at the first bad
        element unless ``every`` is set."""
        elements = self.arr(v, path)
        if elements is None:
            return None
        if len(elements) < least:
            return self.err(path, "E-TYPE", too_few)
        start = len(self.diags)
        values = []
        for i, item in enumerate(elements):
            value = convert(item, path + (i,))
            if value is None and not every:
                return None
            values.append(value)
        return values if len(self.diags) == start else None

    def pair(self, v, path: tuple, first, second, message: str) -> tuple | None:
        """An array of exactly two elements; both are converted."""
        elements = self.arr(v, path)
        if elements is None:
            return None
        if len(elements) != 2:
            return self.err(path, "E-TYPE", message)
        a, b = first(elements[0], path + (0,)), second(elements[1], path + (1,))
        return None if a is None or b is None else (a, b)

    def by_socket(self, v, path: tuple, convert, label: str) -> dict | None:
        """An object keyed by socket index; every entry is converted."""
        members = self.obj(v, path)
        if members is None:
            return None
        start = len(self.diags)
        values = {}
        for key, child in members.items():
            at = path + (_SocketKey(key),)
            if not _SOCKET_KEY_RE.fullmatch(key):
                self.err(at, "E-TYPE", f"{label} key {key!r} must be a socket index")
            elif (value := convert(child, at)) is not None:
                values[int(key)] = value
        return values if len(self.diags) == start else None

    # -- the records of a description

    def cpu(self, v, path: tuple) -> CpuSpec | None:
        f = self.fields(v, path, {"name": self.ident, "frequency": self.freq_ghz})
        return None if f is None else CpuSpec(f["name"], f["frequency"])

    def bus(self, v, path: tuple) -> BusSpec | None:
        f = self.fields(v, path, {
            "name": self.ident,
            "cpus": lambda v, p: self.items(v, p, self.ident, 2, "a bus joins at least two CPUs")})
        return None if f is None else BusSpec(f["name"], tuple(f["cpus"]))

    def template(self, v, path: tuple) -> TransactionTemplate | None:
        f = self.fields(v, path, {"command": self.command, "address": self.address},
                        {"socket": self.int_, "repeat": lambda v, p: self.int_(v, p, minimum=0)},
                        ("data", "length"))
        if not isinstance(v, dict):
            return None
        if "data" in v and "length" in v:
            data = self.err(path + ("length",), "E-TYPE", "give 'data' or 'length', not both")
        elif "data" in v:
            data = self.hex_data(v["data"], path + ("data",))
        elif "length" in v:
            length = self.int_(v["length"], path + ("length",), minimum=1, maximum=_MAX_LENGTH)
            data = None if length is None else bytes(length)
        else:
            data = self.err(path, "E-MISSING", "required key 'data' or 'length' is missing")
        if f is None or data is None:
            return None
        return TransactionTemplate(f["command"], f["address"], data, f.get("socket", 0),
                                   f.get("repeat", 1))

    def storage(self, v, path: tuple) -> tuple[int, int, int] | None:
        f = self.fields(v, path, {"size": self.count}, {
            "base": self.address, "fill": lambda v, p: self.int_(v, p, minimum=0, maximum=255)})
        return None if f is None else (f.get("base", 0), f["size"], f.get("fill", 0))

    def module(self, v, path: tuple) -> ModuleSpec | None:
        # Without a good kind and name no other member is looked at.
        members = self.obj(v, path)
        if members is None or self.absent(members, ("kind", "name"), path):
            return None
        module_kind = self.str_(members["kind"], path + ("kind",))
        name = self.ident(members["name"], path + ("name",))
        if module_kind is None or name is None:
            return None
        head, bandwidth = ("kind", "name"), {"bandwidth": self.bandwidth}
        if module_kind == "initiator":
            f = self.fields(v, path, {"delay": self.time_ps, "sockets": self.count}, {
                "workload": lambda v, p: self.items(v, p, self.template, every=True),
                **bandwidth}, head)
            return None if f is None else InitiatorSpec(
                name, f["delay"], f["sockets"], tuple(f.get("workload", ())), f.get("bandwidth"))
        if module_kind == "target":
            f = self.fields(v, path, {
                "socket_delays": lambda v, p: self.items(
                    v, p, self.time_ps, 1, "socket_delays must not be empty"),
                "storage": self.storage}, {"dmi": self.bool_, **bandwidth}, head)
            return None if f is None else TargetSpec(
                name, tuple(f["socket_delays"]), *f["storage"], f.get("dmi", False),
                f.get("bandwidth"))
        if module_kind == "router":
            outs = lambda v, p: self.items(v, p, self.int_, 1, "connection list must not be empty")
            ranges = lambda v, p: self.pair(v, p, self.address, self.address,
                                            "expected [base, limit]")
            f = self.fields(v, path, {
                "delay": self.time_ps, "in_sockets": self.count, "out_sockets": self.count,
                "connections": lambda v, p: self.by_socket(v, p, outs, "connection")}, {
                "address_map": lambda v, p: self.by_socket(v, p, ranges, "address_map"),
                **bandwidth}, head)
            return None if f is None else RouterSpec(
                name, f["delay"], f["in_sockets"], f["out_sockets"],
                {k: tuple(c) for k, c in f["connections"].items()}, f.get("address_map"),
                f.get("bandwidth"))
        if "bandwidth" in members:
            self.bandwidth(members["bandwidth"], path + ("bandwidth",))
        return self.err(path + ("kind",), "E-TYPE", f"unknown module kind {module_kind!r}: "
                        "expected initiator, target, or router")

    def instance(self, v, path: tuple) -> Instance | None:
        f = self.fields(v, path, {"name": self.ident, "module": self.ident, "cpu": self.ident})
        return None if f is None else Instance(f["name"], f["module"], f["cpu"])

    def binding(self, v, path: tuple) -> Binding | None:
        end = lambda v, p: self.pair(v, p, self.ident, self.int_, "expected [instance, socket]")
        f = self.fields(v, path, {"from": end, "to": end})
        return None if f is None else Binding(*f["from"], *f["to"])

    def constraint(self, v, path: tuple) -> TimingConstraint | None:
        f = self.fields(v, path, {"instance": self.ident, "max_end": self.time_ps})
        return None if f is None else TimingConstraint(f["instance"], f["max_end"])

    def options(self, v, path: tuple) -> SimOptions | None:
        f = self.fields(v, path, {}, {
            "quantum": self.time_ps, "event_limit": self.count, "trace": self.str_})
        return None if f is None else SimOptions(
            f.get("quantum", 0), f.get("event_limit", DEFAULT_EVENT_LIMIT), f.get("trace"))


def parse_description(text: str) -> tuple[SystemDescription | None, list[Diagnostic]]:
    """Parse description text; returns (description, []) or (None, diagnostics)."""
    try:
        desc, diags = _build(load_json(text), {})
    except ValueError:  # json.loads or jsontext's rules refuse the text
        desc = None
    if desc is None:  # read again, with the positions every diagnostic carries
        try:
            root, positions = parse_json(text)
        except JsonSyntaxError as exc:
            return None, [Diagnostic("E-SYNTAX", exc.reason, line=exc.line, column=exc.column)]
        desc, diags = _build(root, positions)
    return desc, diags


def _build(root, positions: dict) -> tuple[SystemDescription | None, list[Diagnostic]]:
    b = _Build(positions)
    section = lambda record: lambda v, p: b.items(v, p, record, every=True)
    top = b.fields(root, (), {"cpus": section(b.cpu)}, {
        "buses": section(b.bus), "modules": section(b.module),
        "instances": section(b.instance), "bindings": section(b.binding),
        "constraints": section(b.constraint), "options": b.options})
    if top is None:
        return None, sort_diagnostics(b.diags)
    return SystemDescription(**top), []


# --------------------------------------------------------------------------
# Validation

# Delivery recurses twice per router on a path; this keeps the deepest path far
# below the interpreter's default limit of 1000 frames.
MAX_ROUTERS = 256


def validate_description(d: SystemDescription) -> list[Diagnostic]:
    """Apply the E001..E011 rule set; an empty result means the model is sound."""
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
    buses_of: dict[str, set[int]] = {}
    for k, bus in enumerate(d.buses):
        for cpu in bus.cpus:
            buses_of.setdefault(cpu, set()).add(k)
    for i, binding in enumerate(d.bindings):
        src = instances.get(binding.from_instance)
        dst = instances.get(binding.to_instance)
        if src is None or dst is None or src.cpu not in cpu_names or dst.cpu not in cpu_names:
            continue
        if src.cpu == dst.cpu:
            continue
        if buses_of.get(src.cpu, set()).isdisjoint(buses_of.get(dst.cpu, ())):
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
        if spec.address_map is None:
            continue  # a broadcast is one route, which nothing can overlap
        for out, rng in spec.address_map.items():
            mwhere = f"modules[{m}].address_map[{out}]"
            if not 0 <= out < spec.out_socket_count:
                add("E006", f"address_map out-socket {out} out of range "
                    f"({spec.out_socket_count} out-sockets)", mwhere)
            if rng[0] >= rng[1]:
                add("E006", f"empty address range [0x{rng[0]:x}, 0x{rng[1]:x})", mwhere)
        # Overlapping routes, by a sweep in base order: each range still open at a base
        # overlaps the range that starts there.  An empty or inverted range, refused
        # above, is tested against every other range with the same overlap test.
        for in_socket in spec.connections:
            spans = sorted((base, limit, outs[0]) for base, limit, outs in spec.routes(in_socket))
            pairs, live = [], []  # live: (limit, out) of the ranges open at this base
            for base, limit, out in spans:
                if base >= limit:
                    pairs += [(out, o) for b, l, o in spans if base < l and b < limit]
                    continue
                live = [(l, o) for l, o in live if l > base]
                pairs += [(o, out) for _, o in live]
                live.append((limit, out))
            for a, b in map(sorted, pairs):  # the lower out, which routes() lists first
                add("E006", f"address ranges of out-sockets {a} and {b} reachable from "
                    f"in-socket {in_socket} overlap", f"modules[{m}].address_map")

    # E008: an in-socket accepts at most one binding
    bound_in: set[tuple[str, int]] = set()
    bound_out: set[tuple[str, int]] = set()
    for i, binding in enumerate(d.bindings):
        key = (binding.to_instance, binding.to_socket)
        if key in bound_in:
            add("E008", f"in-socket {binding.to_socket} of '{binding.to_instance}' "
                "is bound more than once", f"bindings[{i}].to")
        bound_in.add(key)
        bound_out.add((binding.from_instance, binding.from_socket))

    # E010: a bound router in-socket has connections, and each out it lists is bound.
    for name, socket in bound_in:
        spec = spec_of(name)
        if isinstance(spec, RouterSpec) and 0 <= socket < spec.in_socket_count:
            where, outs = f"{name}.connections[{socket}]", spec.outs(socket)
            if not outs:
                add("E010", f"router '{name}' in-socket {socket} is bound "
                    "but has no connection entry", where)
            for out in outs:
                if 0 <= out < spec.out_socket_count and (name, out) not in bound_out:
                    add("E010", f"router '{name}' out-socket {out} is unbound", where)

    # One socket graph for E004 and E009.  Nodes are sockets (instance, index, is_out); a
    # router joins each in-socket to its connected outs, a binding an out to an in.  A fan
    # is a socket where a transaction can split: an out with several bindings, or a router
    # in-socket with a route to several outs.
    successors: dict[tuple[str, int, bool], list[tuple[str, int, bool]]] = {}
    fans: list[tuple[str, int, bool]] = []
    for inst in d.instances:
        if isinstance(inst_spec := spec_of(inst.name), RouterSpec):
            for in_socket, outs in inst_spec.connections.items():
                successors[(inst.name, in_socket, False)] = [(inst.name, o, True) for o in outs]
                if any(len(to) > 1 for _, _, to in inst_spec.routes(in_socket)):
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

    # E009: no binding cycle.  The search is iterative so no description can exhaust the stack.
    # In post-order it counts the routers on the deepest path from each socket, for E011.
    position: dict[tuple[str, int, bool], int] = {}  # index on the path; -1 once finished
    routers: dict[tuple[str, int, bool], int] = {}
    for root in successors:
        if root in position:
            continue
        position[root] = 0
        path = [(root, iter(successors[root]))]
        while path:
            node = next(path[-1][1], None)
            if node is None:
                done = path.pop()[0]
                position[done] = -1
                nexts = successors.get(done, ())  # only router in-sockets have successors
                routers[done] = (not done[2] and bool(nexts)) + max(
                    (routers.get(n, 0) for n in nexts), default=0)
            elif node not in position:
                position[node] = len(path)
                path.append((node, iter(successors.get(node, ()))))
            elif position[node] >= 0:
                loop = [f"{name}[{socket}]" for (name, socket, is_out), _ in path[position[node]:]
                        if not is_out]
                add("E009", "binding cycle " + " -> ".join(loop + loop[:1]), "bindings")

    # Per initiator: E004 for each READ that reaches a fan; E010 and E011 once for each
    # socket its workload uses, which must be bound and pass at most MAX_ROUTERS routers.
    for inst in d.instances:
        if not isinstance(inst_spec := spec_of(inst.name), InitiatorSpec):
            continue
        first: dict[int, int] = {}  # socket -> index of the first template using it
        for idx, template in enumerate(inst_spec.workload):
            if (template.command is Command.READ
                    and (inst.name, template.socket, True) in reaches_fan):
                add("E004", f"READ issued by '{inst.name}' can reach more than one destination "
                    "with no disjoint address decode", f"{inst.name}.workload[{idx}]")
            if 0 <= template.socket < inst_spec.socket_count:
                first.setdefault(template.socket, idx)
        for socket, idx in first.items():
            where = f"{inst.name}.workload[{idx}]"
            if (inst.name, socket) not in bound_out:
                add("E010", f"initiator '{inst.name}' socket {socket} is unbound", where)
            elif (count := routers[(inst.name, socket, True)]) > MAX_ROUTERS:
                add("E011", f"a path from '{inst.name}' socket {socket} passes {count} routers; "
                    f"at most {MAX_ROUTERS} are allowed", where)

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
    """Build the executable model: component models, storage, bindings, route tables.

    Raises InvalidDescriptionError for an invalid description; a valid one is
    never refused.  The initiators start when ``run()`` is called.  Elaboration
    order follows description order, so two elaborations of equal descriptions
    produce identical runs.  ``quantum_ps`` and ``event_limit`` override the
    description's options when given.  Delays are scaled here, once; one outside
    the 64-bit range raises ``TimeOverflowError`` before anything runs.
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

    # Each out-socket's destinations, ordered by in-socket index, then declaration
    # order (the sort is stable), which fixes the fan-out status-merge order.
    wiring: dict[str, dict[int, list[Destination]]] = {name: {} for name in models}
    for b in sorted(d.bindings, key=lambda b: b.to_socket):
        wiring[b.from_instance].setdefault(b.from_socket, []).append(
            (models[b.to_instance], b.to_socket))
    for name, model in models.items():
        if isinstance(model, InitiatorModel):
            model.out_bindings = wiring[name]
    for b in d.bindings:
        if isinstance(router := models[b.to_instance], RouterModel):
            router.connect(b.to_socket, wiring[b.to_instance])
    return ExecutableModel(ctx, models)
