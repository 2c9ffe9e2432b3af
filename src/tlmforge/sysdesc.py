"""System descriptions: parse, validate, and elaborate.

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

import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import repeat

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
)
from .diagnostics import IDENTIFIER_RE, Diagnostic, sort_diagnostics
from .jsontext import JsonSyntaxError, Positions, kind, load_json, parse_json
from .kernel import DEFAULT_EVENT_LIMIT, Scheduler
from .payload import Command
from .simtime import (
    TIME_UNITS_PS,
    U64_MAX,
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
_WHOLE_TIME_RE = re.compile(f"([0-9]{{1,6}})({'|'.join(TIME_UNITS_PS)})")  # <= 10**18 ps: in range
_COMMANDS = {c.value: c for c in Command}
_HEX_DIGITS = b"0123456789ABCDEFabcdef"
MAX_LENGTH = 2**32 - 1  # a data length, a repeat count and a storage size export as unsigned
_MAX_SOCKETS = 2**18  # the export writes code per socket; over 1000x wide_map's 250 outs


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
    def convert(self: _Build, value, path: tuple, key):
        return value if isinstance(value, cls) else self.expected(what, value, path + (key,))
    return convert


def _parsed(parse):
    """A converter that reads a string with ``parse`` and reports what it raises."""
    def convert(self: _Build, value, path: tuple, key):
        s = self.str_(value, path, key)
        if s is None:
            return None
        try:
            return parse(s)
        except (ValueError, OverflowError) as exc:
            return self.err(path + (key,), "E-TYPE", str(exc))
    return convert


def _integer(minimum: int | None = None, maximum: int | None = None):
    """A converter of integers within the bounds given."""
    def convert(self: _Build, v, path: tuple, key) -> int | None:
        if type(v) is not int:  # a JSON boolean is no integer
            return self.expected("an integer", v, path + (key,))
        if minimum is not None and v < minimum:
            return self.err(path + (key,), "E-TYPE", f"expected an integer >= {minimum}, got {v}")
        if maximum is not None and v > maximum:
            return self.err(path + (key,), "E-TYPE", f"expected an integer <= {maximum}, got {v}")
        return v
    return convert


def _array(element, least: int = 0, too_few: str = "", every: bool = False):
    """A converter of an array of at least ``least`` elements, each converted by
    ``element``; the walk stops at the first bad element unless ``every`` is set."""
    def convert(self: _Build, v, path: tuple, key) -> list | None:
        at = path + (key,)
        if type(v) is not list:
            return self.expected("an array", v, at)
        if len(v) < least:
            return self.err(at, "E-TYPE", too_few)
        start = len(self.diags)
        values = []
        for i, item in enumerate(v):
            value = element(self, item, at, i)
            if value is None and not every:
                return None
            values.append(value)
        return values if len(self.diags) == start else None
    return convert


def _pair(first, second, message: str):
    """A converter of an array of exactly two elements; both are converted."""
    def convert(self: _Build, v, path: tuple, key) -> tuple | None:
        at = path + (key,)
        if type(v) is not list:
            return self.expected("an array", v, at)
        if len(v) != 2:
            return self.err(at, "E-TYPE", message)
        a, b = first(self, v[0], at, 0), second(self, v[1], at, 1)
        return None if a is None or b is None else (a, b)
    return convert


def _by_socket(entry, label: str):
    """A converter of an object keyed by socket index, each index named once; the entry
    of each such key is converted.  One that reports is held as None, as is the map."""
    def convert(self: _Build, v, path: tuple, key) -> dict | None:
        at = path + (key,)
        if type(v) is not dict:
            return self.expected("an object", v, at)
        start = len(self.diags)
        values = {}
        for k, child in v.items():
            try:
                i = int(k) if _SOCKET_KEY_RE.fullmatch(k) else None
            except ValueError:  # more digits than int() reads
                i = None
            if i is None or i in values:
                self.err(at + (_SocketKey(k),), "E-TYPE", f"{label} key {k!r} must be a socket index"
                         if i is None else f"{label} key {k!r} names socket {i} a second time",
                         at_key=True)
            else:
                values[i] = entry(self, child, at, _SocketKey(k))
        return values if len(self.diags) == start else None
    return convert


def _table(required: dict, optional: dict | None = None) -> tuple[dict, object]:
    """A record's converters by key, and a set-like view of the keys it requires."""
    return required | (optional or {}), required.keys()


def _record(make, required: dict, optional: dict | None = None):
    """A converter of a record with no rule beyond its members' own; ``make`` builds
    its value from the members' values by key."""
    table = _table(required, optional)

    def convert(self: _Build, v, path: tuple, key):
        f = self.fields(v, path + (key,), table)
        return None if f is None else make(f)
    return convert


class _Build:
    """Walks the plain JSON value, collecting typed values and diagnostics.

    Every converter takes ``(value, path, key)``: member ``key`` (an object key,
    array index or socket key) of the container at ``path``, a tuple of keys from
    the root.  It returns the typed value, or records at least one diagnostic and
    returns None; None is never a value.  A leaf forms its own path, ``path +
    (key,)``, only to report; a container forms it once, for its children.  A
    diagnostic takes its line and column from ``positions`` (path -> (line,
    column)), or from its ``key_at`` for a bad key, which the first diagnostic
    reads from ``text``.  A converter tests
    the value's exact JSON type once, then each bound or pattern once, in the
    order its messages need.  A record's converters by key are a table
    read by ``fields``, of plain functions built once, with the class: ``_record``
    keeps its table in the converter it makes, a record with rules of its own in
    a class attribute.  A table of bound methods would be built per parse and tie
    each builder to itself in a reference cycle.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.positions: Positions | None = None
        self.diags: list[Diagnostic] = []

    def err(self, at: tuple, code: str, message: str, where: str | None = None,
            at_key: bool = False) -> None:
        if self.positions is None:  # an accepted text is never read for positions
            self.positions = parse_json(self.text)[1]
        line, column = (self.positions.key_at if at_key else self.positions).get(at, (None, None))
        self.diags.append(Diagnostic(code, message, where=_spell(at) if where is None else where,
                                     line=line, column=column))

    def expected(self, what: str, v, at: tuple) -> None:
        return self.err(at, "E-TYPE", f"expected {what}, got {kind(v)}")

    # -- converters of single values

    str_ = _typed(str, "a string")
    bool_ = _typed(bool, "a boolean")
    freq_ghz = _parsed(parse_frequency_ghz)
    any_time = _parsed(parse_time)
    int_ = _integer()
    count = _integer(1)
    sockets = _integer(1, _MAX_SOCKETS)
    byte = _integer(0, 255)
    repeat = _integer(0, MAX_LENGTH)
    length = _integer(1, MAX_LENGTH)  # a template's length or a storage's size

    def time_ps(self, v, path: tuple, key) -> int | None:
        if type(v) is str and (m := _WHOLE_TIME_RE.fullmatch(v)):
            return int(m[1]) * TIME_UNITS_PS[m[2]]
        return self.any_time(v, path, key)

    def ident(self, v, path: tuple, key) -> str | None:
        if type(v) is not str:
            return self.expected("a string", v, path + (key,))
        return v if IDENTIFIER_RE.fullmatch(v) else self.err(
            path + (key,), "E-TYPE", f"bad identifier {v!r}: use letters, digits, '_', '.', '-'")

    def command(self, v, path: tuple, key) -> Command | None:
        if type(v) is not str:
            return self.expected("a string", v, path + (key,))
        return _COMMANDS[v] if v in _COMMANDS else self.err(
            path + (key,), "E-TYPE", f"unknown command {v!r}")

    def address(self, v, path: tuple, key) -> int | None:
        if type(v) is str:
            if _ADDRESS_RE.fullmatch(v) and (n := int(v, 16)) <= U64_MAX:
                return n
            return self.err(path + (key,), "E-TYPE", f"bad address {v!r}: expected 0x-prefixed hex")
        if type(v) is not int:  # a JSON boolean is no address
            return self.expected("an address", v, path + (key,))
        if not 0 <= v <= U64_MAX:
            return self.err(path + (key,), "E-TYPE",
                            f"address {v} outside the unsigned 64-bit range")
        return v

    def bandwidth(self, v, path: tuple, key) -> Fraction | None:
        try:
            if isinstance(v, bool):
                raise ValueError("expected a number")
            if isinstance(v, (int, Decimal)):  # a Decimal is a float literal's exact value
                _, digits, exponent = Decimal(v).as_tuple()
                if len(digits) + abs(exponent) > 4300:  # int()'s limit; Fraction builds 10**exp
                    raise ValueError("bandwidth needs more than 4300 digits")
                result = Fraction(v)
            elif isinstance(v, str):
                result = parse_rational(v)
            else:
                raise ValueError(f"expected bytes-per-ns, got {kind(v)}")
            if result <= 0:
                raise ValueError("bandwidth must be positive, got "  # a Decimal spelled as a number
                                 + (str(v) if isinstance(v, Decimal) else repr(v)))
        except ValueError as exc:
            return self.err(path + (key,), "E-TYPE", str(exc))
        return result

    def hex_data(self, v, path: tuple, key) -> bytes | None:
        s = self.str_(v, path, key)
        if s is None:
            return None
        at = path + (key,)
        if len(s) % 2 != 0:
            return self.err(at, "E-TYPE", "hex data needs an even number of digits")
        if not s:
            return self.err(at, "E-TYPE", "data must hold at least one byte")
        # Every character a hex digit; on 8 KiB, deleting the digits took 7 us, a regex 30 us.
        if not s.isascii() or s.encode().translate(None, _HEX_DIGITS):
            return self.err(at, "E-TYPE", f"bad hex data {s!r}")
        return bytes.fromhex(s)

    # -- records

    def absent(self, members: dict, keys, at: tuple) -> bool:
        """Report each of ``keys`` missing from the object; True if any is."""
        missing = [key for key in keys if key not in members]
        for key in missing:
            # The root names a missing section by its key, a record by the record's path.
            self.err(at, "E-MISSING", f"required key '{key}' is missing", None if at else key)
        return bool(missing)

    def fields(self, v, at: tuple, table: tuple, other_keys: tuple[str, ...] = ()) -> dict | None:
        """The object at ``at``, its members converted by ``table`` (see ``_table``); the
        present members' values by key, or None if anything was reported.  ``other_keys``
        are allowed but left to the caller."""
        if type(v) is not dict:
            return self.expected("an object", v, at)
        converters, required = table
        start = len(self.diags)
        values = {}
        for key, child in v.items():
            if (convert := converters.get(key)) is not None:
                values[key] = convert(self, child, at, key)
            elif key not in other_keys:
                self.err(at + (key,), "E-TYPE", f"unknown key '{key}'", None if at else f"$.{key}",
                         at_key=True)
        if not v.keys() >= required:
            self.absent(v, required, at)
        return values if len(self.diags) == start else None

    cpu = _record(lambda f: CpuSpec(f["name"], f["frequency"]),
                  {"name": ident, "frequency": freq_ghz})
    bus = _record(lambda f: BusSpec(f["name"], tuple(f["cpus"])),
                  {"name": ident, "cpus": _array(ident, 2, "a bus joins at least two CPUs")})
    instance = _record(lambda f: Instance(f["name"], f["module"], f["cpu"]),
                       {"name": ident, "module": ident, "cpu": ident})
    binding = _record(lambda f: Binding(*f["from"], *f["to"]), dict.fromkeys(
        ("from", "to"), _pair(ident, int_, "expected [instance, socket]")))
    constraint = _record(lambda f: TimingConstraint(f["instance"], f["max_end"]),
                         {"instance": ident, "max_end": time_ps})
    options = _record(lambda f: SimOptions(
        f.get("quantum", 0), f.get("event_limit", DEFAULT_EVENT_LIMIT), f.get("trace")),
        {}, {"quantum": time_ps, "event_limit": count, "trace": str_})

    def template(self, v, path: tuple, key) -> TransactionTemplate | None:
        at = path + (key,)
        f = self.fields(v, at, self.TEMPLATE, ("data", "length"))
        if type(v) is not dict:
            return None
        if "data" in v and "length" in v:
            data = self.err(at + ("length",), "E-TYPE", "give 'data' or 'length', not both")
        elif "data" in v:
            data = self.hex_data(v["data"], at, "data")
        elif "length" in v:
            length = self.length(v["length"], at, "length")
            data = None if length is None else bytes(length)
        else:
            data = self.err(at, "E-MISSING", "required key 'data' or 'length' is missing")
        if f is None or data is None:
            return None
        return TransactionTemplate(f["command"], f["address"], data, f.get("socket", 0),
                                   f.get("repeat", 1))

    def storage(self, v, path: tuple, key) -> tuple[int, int, int] | None:
        at = path + (key,)
        f = self.fields(v, at, self.STORAGE)
        if f is None:
            return None
        base, size = f.get("base", 0), f["size"]
        if base + size > U64_MAX:  # the exported range check computes base + size in 64 bits
            return self.err(at, "E-TYPE", f"storage ends at {base + size:#x}, past {U64_MAX:#x}")
        return base, size, f.get("fill", 0)

    def module(self, v, path: tuple, key) -> ModuleSpec | None:
        # Without a good kind and name no other member is looked at.
        at = path + (key,)
        if type(v) is not dict:
            return self.expected("an object", v, at)
        if self.absent(v, ("kind", "name"), at):
            return None
        module_kind = self.str_(v["kind"], at, "kind")
        name = self.ident(v["name"], at, "name")
        if module_kind is None or name is None:
            return None
        if module_kind == "initiator":
            f = self.fields(v, at, self.INITIATOR, ("kind", "name"))
            return None if f is None else InitiatorSpec(
                name, f["delay"], f["sockets"], tuple(f.get("workload", ())), f.get("bandwidth"))
        if module_kind == "target":
            f = self.fields(v, at, self.TARGET, ("kind", "name"))
            return None if f is None else TargetSpec(
                name, tuple(f["socket_delays"]), *f["storage"], f.get("dmi", False),
                f.get("bandwidth"))
        if module_kind == "router":
            f = self.fields(v, at, self.ROUTER, ("kind", "name"))
            return None if f is None else RouterSpec(
                name, f["delay"], f["in_sockets"], f["out_sockets"],
                {k: tuple(c) for k, c in f["connections"].items()}, f.get("address_map"),
                f.get("bandwidth"))
        if "bandwidth" in v:
            self.bandwidth(v["bandwidth"], at, "bandwidth")
        return self.err(at + ("kind",), "E-TYPE", f"unknown module kind {module_kind!r}: "
                        "expected initiator, target, or router")

    # -- the tables of the records above: required converters, then optional ones

    TEMPLATE = _table({"command": command, "address": address}, {"socket": int_, "repeat": repeat})
    STORAGE = _table({"size": length}, {"base": address, "fill": byte})
    INITIATOR = _table({"delay": time_ps, "sockets": sockets},
                       {"workload": _array(template, every=True), "bandwidth": bandwidth})
    TARGET = _table({"socket_delays": _array(time_ps, 1, "socket_delays must not be empty"),
                     "storage": storage}, {"dmi": bool_, "bandwidth": bandwidth})
    ROUTER = _table({"delay": time_ps, "in_sockets": sockets, "out_sockets": sockets,
                     "connections": _by_socket(_array(int_, 1, "connection list must not be empty"),
                                               "connection")},
                    {"address_map": _by_socket(_pair(address, address, "expected [base, limit]"),
                                               "address_map"), "bandwidth": bandwidth})
    TOP = _table({"cpus": _array(cpu, every=True)}, {
        "buses": _array(bus, every=True), "modules": _array(module, every=True),
        "instances": _array(instance, every=True), "bindings": _array(binding, every=True),
        "constraints": _array(constraint, every=True), "options": options})


def parse_description(text: str) -> tuple[SystemDescription | None, list[Diagnostic]]:
    """Parse description text; returns (description, []) or (None, diagnostics)."""
    b = _Build(text)
    try:
        try:
            root = load_json(text)
        except ValueError:  # json.loads or jsontext's rules refuse the text
            root, b.positions = parse_json(text)
        top = b.fields(root, (), _Build.TOP)
    except JsonSyntaxError as exc:  # from parse_json here or in the first diagnostic
        return None, [Diagnostic("E-SYNTAX", exc.reason, line=exc.line, column=exc.column)]
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
    spec_of = {inst.name: specs.get(inst.module) for inst in d.instances}

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

    # E001: unresolved references of buses and instances
    buses_of: dict[str, set[int]] = {}
    for i, bus in enumerate(d.buses):
        for j, cpu in enumerate(bus.cpus):
            if cpu not in cpu_names:
                add("E001", f"unknown CPU '{cpu}'", f"buses[{i}].cpus[{j}]")
            buses_of.setdefault(cpu, set()).add(i)
    for i, inst in enumerate(d.instances):
        if inst.cpu not in cpu_names:
            add("E001", f"unknown CPU '{inst.cpu}'", f"instances[{i}].cpu")
        if inst.module not in specs:
            add("E001", f"unknown module '{inst.module}'", f"instances[{i}].module")

    # One socket graph for E004, E009 and E010.  Nodes are sockets (instance, index, is_out);
    # a router joins each in-socket to its connected outs, a binding an out to an in.  A fan
    # is a socket where a transaction can split: an out with several bindings, or a router
    # in-socket with a route to several outs.  Router edges go in first: E009's search
    # starts from the sockets in this order, which decides the loop its message names.
    successors: dict[tuple[str, int, bool], list[tuple[str, int, bool]]] = {}
    fans: list[tuple[str, int, bool]] = []
    ins_of, outs_of = {}, {}  # socket counts of each instance whose module resolves, for E002
    for name, spec in spec_of.items():
        if isinstance(spec, InitiatorSpec):
            ins_of[name], outs_of[name] = 0, spec.socket_count
        elif isinstance(spec, RouterSpec):
            ins_of[name], outs_of[name] = spec.in_socket_count, spec.out_socket_count
            for in_socket, outs in spec.connections.items():
                successors[(name, in_socket, False)] = [(name, o, True) for o in outs]
                if any(len(to) > 1 for _, _, to in spec.routes(in_socket)):
                    fans.append((name, in_socket, False))
        elif spec is not None:  # a target
            ins_of[name], outs_of[name] = len(spec.socket_delays_ps), 0

    # Per binding: E001 or else E002 for each end (the socket counts hold only known
    # instances), E003 for a cross-CPU binding, which needs a shared bus, E008 for an
    # in-socket bound before; and the binding's edge.
    bound_in: set[tuple[str, int]] = set()
    for i, binding in enumerate(d.bindings):
        for end, name, socket, counts, side in (
                ("from", binding.from_instance, binding.from_socket, outs_of, "out"),
                ("to", binding.to_instance, binding.to_socket, ins_of, "in")):
            if name not in instances:
                add("E001", f"unknown instance '{name}'", f"bindings[{i}].{end}")
            elif (count := counts.get(name)) is not None and not 0 <= socket < count:
                add("E002", f"{side}-socket {socket} out of range for '{name}' "
                    f"({count} {side}-sockets)", f"bindings[{i}].{end}")
        src = instances.get(binding.from_instance)
        dst = instances.get(binding.to_instance)
        if (src is not None and dst is not None and src.cpu != dst.cpu
                and src.cpu in cpu_names and dst.cpu in cpu_names
                and buses_of.get(src.cpu, set()).isdisjoint(buses_of.get(dst.cpu, ()))):
            add("E003",
                f"instances '{src.name}' ({src.cpu}) and '{dst.name}' ({dst.cpu}) "
                "share no bus", f"bindings[{i}]")
        key = (binding.to_instance, binding.to_socket)
        if key in bound_in:
            add("E008", f"in-socket {binding.to_socket} of '{binding.to_instance}' "
                "is bound more than once", f"bindings[{i}].to")
        bound_in.add(key)
        successors.setdefault((binding.from_instance, binding.from_socket, True), []).append(
            (binding.to_instance, binding.to_socket, False))
    fans += [node for node, nexts in successors.items() if node[2] and len(nexts) > 1]

    # Per module: E002 for each workload socket of an initiator, E006 for a router's
    # internal wiring.
    for m, spec in enumerate(d.modules):
        if isinstance(spec, InitiatorSpec):
            for k, template in enumerate(spec.workload):
                if not 0 <= template.socket < spec.socket_count:
                    add("E002",
                        f"socket {template.socket} out of range for '{spec.name}' "
                        f"({spec.socket_count} sockets)",
                        f"modules[{m}].workload[{k}].socket")
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
        mwhere = f"modules[{m}].address_map"
        for out, rng in spec.address_map.items():
            if not 0 <= out < spec.out_socket_count:
                add("E006", f"address_map out-socket {out} out of range "
                    f"({spec.out_socket_count} out-sockets)", f"{mwhere}[{out}]")
            if rng[0] >= rng[1]:
                add("E006", f"empty address range [0x{rng[0]:x}, 0x{rng[1]:x})", f"{mwhere}[{out}]")
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
                    f"in-socket {in_socket} overlap", mwhere)

    # E010: a bound router in-socket has connections, and each out it lists is bound.
    for name, socket in bound_in:
        spec = spec_of.get(name)
        if isinstance(spec, RouterSpec) and 0 <= socket < spec.in_socket_count:
            where, outs = f"{name}.connections[{socket}]", spec.outs(socket)
            if not outs:
                add("E010", f"router '{name}' in-socket {socket} is bound "
                    "but has no connection entry", where)
            for out in outs:
                if 0 <= out < spec.out_socket_count and (name, out, True) not in successors:
                    add("E010", f"router '{name}' out-socket {out} is unbound", where)

    # E004: a READ's out-socket must not reach a fan.  One reverse walk finds all that do.
    reaches_fan, stack = set(fans), list(fans)
    if fans:
        predecessors: dict[tuple[str, int, bool], list[tuple[str, int, bool]]] = {}
        for node, nexts in successors.items():
            for nxt in nexts:
                predecessors.setdefault(nxt, []).append(node)
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
                nexts = successors[done]  # an in-socket with successors is a router's
                routers[done] = (not done[2] and bool(nexts)) + max(
                    map(routers.get, nexts, repeat(0)), default=0)
            elif node not in successors:
                continue  # a target's socket, say: its path ends here, 0 routers deep
            elif node not in position:
                position[node] = len(path)
                path.append((node, iter(successors[node])))
            elif position[node] >= 0:
                loop = [f"{name}[{socket}]" for (name, socket, is_out), _ in path[position[node]:]
                        if not is_out]
                add("E009", "binding cycle " + " -> ".join(loop + loop[:1]), "bindings")

    # Per initiator: E004 for each READ that reaches a fan; E010 and E011 once for each
    # socket its workload uses, which must be bound and pass at most MAX_ROUTERS routers.
    for name, spec in spec_of.items():
        if not isinstance(spec, InitiatorSpec):
            continue
        first: dict[int, int] = {}  # socket -> index of the first template using it
        for idx, template in enumerate(spec.workload):
            if template.command is Command.READ and (name, template.socket, True) in reaches_fan:
                add("E004", f"READ issued by '{name}' can reach more than one destination "
                    "with no disjoint address decode", f"{name}.workload[{idx}]")
            if 0 <= template.socket < spec.socket_count:
                first.setdefault(template.socket, idx)
        for socket, idx in first.items():
            where = f"{name}.workload[{idx}]"
            if (name, socket, True) not in successors:
                add("E010", f"initiator '{name}' socket {socket} is unbound", where)
            elif (count := routers[(name, socket, True)]) > MAX_ROUTERS:
                add("E011", f"a path from '{name}' socket {socket} passes {count} routers; "
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
    for b in sorted(d.bindings, key=lambda b: b.to_socket):
        models[b.from_instance].out_bindings.setdefault(b.from_socket, []).append(
            (models[b.to_instance], b.to_socket))
    for b in d.bindings:
        if isinstance(router := models[b.to_instance], RouterModel):
            router.connect(b.to_socket)
    return ExecutableModel(ctx, models)
