"""Export a validated description as standard TLM-2.0 source text.

Emits one header per module spec and a top-level ``top.cpp`` that
instantiates and binds every instance, in the blocking-transport coding
style (generic payload, initiator/target sockets, b_transport).  Delays
in the emitted text are pre-scaled by each instance's CPU frequency, so
the generated system carries the same timing the simulator executes.

The bundle is a dict from file name to file text, ``top.cpp`` first; it is
never compiled here.  Emission is template-based and byte-deterministic:
equal descriptions produce equal bundles.
"""

from __future__ import annotations

import re
import string

from . import __version__
from .components import (
    InitiatorSpec,
    RouterSpec,
    TargetSpec,
    effective_delay,
    transfer_time,
)
from .sysdesc import require_valid

_IDENT_CHARS = set(string.ascii_letters + string.digits + "_")
# C++20 keywords and alternative tokens; a name equal to one gets a "_" suffix.
_CPP_KEYWORDS = frozenset("""
    alignas alignof and and_eq asm auto bitand bitor bool break case catch char char8_t char16_t
    char32_t class compl concept const consteval constexpr constinit const_cast continue
    co_await co_return co_yield decltype default delete do double dynamic_cast else enum
    explicit export extern false float for friend goto if inline int long mutable namespace new
    noexcept not not_eq nullptr operator or or_eq private protected public register
    reinterpret_cast requires return short signed sizeof static static_assert static_cast struct
    switch template this thread_local throw true try typedef typeid typename union unsigned
    using virtual void volatile wchar_t while xor xor_eq""".split())
# Names the bundle already spells: namespaces, sc_main, and members of a module's own class.
_RESERVED = _CPP_KEYWORDS | frozenset("""std sc_core sc_dt tlm tlm_utils sc_main run execute
    forward wait kBase kSize m_delay m_storage SC_CURRENT_USER_MODULE""".split())
_NUMBERED_MEMBER_RE = re.compile(r"(?:socket|in|out|b_transport|b_transport_in|m_delay)[0-9]+")

_COMMAND_NAMES = {
    "READ": "tlm::TLM_READ_COMMAND",
    "WRITE": "tlm::TLM_WRITE_COMMAND",
    "IGNORE": "tlm::TLM_IGNORE_COMMAND",
}
_BYTE_LITERALS = tuple(f"0x{b:02x}" for b in range(256))


class CodegenError(ValueError):
    """Source emission failed; code E-NAME-UNSANITIZABLE for empty names."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


def sanitize_identifier(name: str) -> str:
    """Map a name into C++ identifier grammar (bad chars become '_', a reserved name gets '_')."""
    out = "".join(ch if ch in _IDENT_CHARS else "_" for ch in name)
    if not out:
        raise CodegenError("E-NAME-UNSANITIZABLE", f"name {name!r} sanitizes to nothing")
    if out[0] in string.digits:
        out = "_" + out
    return out + "_" if out in _RESERVED or _NUMBERED_MEMBER_RE.fullmatch(out) else out


class _Namer:
    """Deterministic collision-avoiding identifier allocator for one scope."""

    def __init__(self, case_insensitive: bool = False):
        self._used: set[str] = set()
        self._fold = (lambda s: s.lower()) if case_insensitive else (lambda s: s)

    def unique(self, name: str) -> str:
        base = sanitize_identifier(name)
        candidate = base
        counter = 2
        while self._fold(candidate) in self._used:
            candidate = f"{base}_{counter}"
            counter += 1
        self._used.add(self._fold(candidate))
        return candidate


def _sc_time(ps: int) -> str:
    return f"sc_core::sc_time({ps}, sc_core::SC_PS)"


def _handler(spec: TargetSpec | RouterSpec, name: str, delay: str, lines: list[str]) -> list[str]:
    """A b_transport method that adds ``delay`` and, for a module with bandwidth
    set, the serialization latency, then runs ``lines``."""
    serialize = []
    if spec.bandwidth is not None:
        num, den = spec.bandwidth.numerator, spec.bandwidth.denominator
        expr = f"trans.get_data_length() * {1000 * den}ull"
        serialize = [f"        t += sc_core::sc_time(({expr} + {num - 1}ull) / {num}ull, "
                     "sc_core::SC_PS);  // bandwidth serialization"]
    return [f"    void {name}(int, tlm::tlm_generic_payload& trans, sc_core::sc_time& t) {{",
            f"        t += {delay};", *serialize, *lines, "    }", ""]


def _header(cls: str, guard: str, std: str, comment: str, sockets: dict[str, list[str]],
            thread: str | None, delays: list[str], ctor: list[str], body: list[str]) -> str:
    """One module header: banner, include guard and includes, then ``SC_MODULE``
    with its sockets (``"initiator"`` or ``"target"`` -> names, declared in that
    order) and a constructor that takes each of ``delays`` as an ``sc_time``,
    builds each socket, keeps each delay in ``m_<delay>``, registers ``thread``
    if any and runs ``ctor``; ``body`` closes the class."""
    lines = [
        f"// Generated by tlmforge {__version__}. Blocking-transport coding style.",
        f"#ifndef {guard}",
        f"#define {guard}",
        "",
        f"#include <{std}>",
        "#include <systemc>",
        "#include <tlm>",
        *(f"#include <tlm_utils/multi_passthrough_{kind}_socket.h>" for kind in sorted(sockets)),
        "",
        f"// {comment}",
        f"SC_MODULE({cls}) {{",
        *(f"    tlm_utils::multi_passthrough_{kind}_socket<{cls}> {s};"
          for kind, names in sockets.items() for s in names),
        "",
        *([f"    SC_HAS_PROCESS({cls});", ""] if thread else []),
        f"    {cls}(sc_core::sc_module_name name, "
        f"{', '.join(f'sc_core::sc_time {d}' for d in delays)})",
        "        : sc_core::sc_module(name)",
        *(f'        , {s}("{s}")' for names in sockets.values() for s in names),
        *(f"        , m_{d}({d})" for d in delays),
        "    {",
        *([f"        SC_THREAD({thread});"] if thread else []),
        *(f"        {line}" for line in ctor),
        "    }",
        "",
        *body,
        "};",
        "",
        f"#endif  // {guard}",
        "",
    ]
    return "\n".join(lines)


def _emit_initiator(spec: InitiatorSpec, cls: str, guard: str) -> str:
    body = ["    void run() {"]
    if not spec.workload:
        body.append("        // no workload declared")
    for k, t in enumerate(spec.workload):
        size = len(t.data)
        byte_list = ", ".join([_BYTE_LITERALS[b] for b in t.data])
        wait_ps = transfer_time(size, spec.bandwidth)
        wait_expr = ("m_delay" if wait_ps == 0
                     else f"m_delay + {_sc_time(wait_ps)}")
        body += [
            f"        // workload[{k}]: {t.command.value} {size} byte(s) at 0x{t.address:x} "
            f"via socket {t.socket}, repeat {t.repeat}",
            "        {",
            f"            static const unsigned char kData[{size}] = {{ {byte_list} }};",
            f"            for (unsigned rep = 0; rep < {t.repeat}u; ++rep) {{",
            f"                unsigned char data[{size}];",
            f"                std::memcpy(data, kData, {size});",
            "                tlm::tlm_generic_payload trans;",
            f"                trans.set_command({_COMMAND_NAMES[t.command.value]});",
            f"                trans.set_address(0x{t.address:x});",
            "                trans.set_data_ptr(data);",
            f"                trans.set_data_length({size});",
            f"                trans.set_streaming_width({size});",
            "                trans.set_byte_enable_ptr(0);",
            "                trans.set_dmi_allowed(false);",
            "                trans.set_response_status(tlm::TLM_INCOMPLETE_RESPONSE);",
            f"                wait({wait_expr});",
            "                sc_core::sc_time t = sc_core::SC_ZERO_TIME;",
            f"                socket{t.socket}->b_transport(trans, t);",
            "                wait(t);",
            "            }",
            "        }",
        ]
    body += [
        "    }",
        "",
        "private:",
        "    sc_core::sc_time m_delay;",
    ]
    return _header(
        cls, guard, "cstring",
        f"Initiator '{spec.name}': {spec.socket_count} out-socket(s), "
        f"nominal delay {spec.delay_ps} ps at 1 GHz.",
        {"initiator": [f"socket{i}" for i in range(spec.socket_count)]}, "run",
        ["delay"], [], body)


def _emit_target(spec: TargetSpec, cls: str, guard: str) -> str:
    n = len(spec.socket_delays_ps)
    body = []
    for i in range(n):
        body += _handler(spec, f"b_transport{i}", f"m_delay{i}", ["        execute(trans);"])
    body += [
        "private:",
        f"    static const sc_dt::uint64 kBase = 0x{spec.storage_base:x};",
        f"    static const unsigned kSize = {spec.storage_size};",
        "",
        "    void execute(tlm::tlm_generic_payload& trans) {",
        "        const unsigned length = trans.get_data_length();",
        "        const unsigned width = trans.get_streaming_width();",
        "        unsigned char* data = trans.get_data_ptr();",
        "        const unsigned char* enables = trans.get_byte_enable_ptr();",
        "        const unsigned enable_length = trans.get_byte_enable_length();",
        "        if (trans.get_command() == tlm::TLM_IGNORE_COMMAND) {",
        "            trans.set_response_status(tlm::TLM_OK_RESPONSE);",
        "            return;",
        "        }",
        "        if (width == 0 || length % width != 0) {",
        "            trans.set_response_status(tlm::TLM_BURST_ERROR_RESPONSE);",
        "            return;",
        "        }",
        "        for (unsigned i = 0; i < length; ++i) {",
        "            const sc_dt::uint64 addr = trans.get_address() + (i % width);",
        "            if (addr < kBase || addr >= kBase + kSize) {",
        "                trans.set_response_status(tlm::TLM_ADDRESS_ERROR_RESPONSE);",
        "                return;",
        "            }",
        "            if (enables && enables[i % enable_length] != 0xff)",
        "                continue;",
        "            if (trans.is_write())",
        "                m_storage[addr - kBase] = data[i];",
        "            else",
        "                data[i] = m_storage[addr - kBase];",
        "        }",
        f"        trans.set_dmi_allowed({'true' if spec.dmi_allowed else 'false'});",
        "        trans.set_response_status(tlm::TLM_OK_RESPONSE);",
        "    }",
        "",
        *(f"    sc_core::sc_time m_delay{i};" for i in range(n)),
        f"    unsigned char m_storage[{spec.storage_size}];",
    ]
    sockets = [f"socket{i}" for i in range(n)]
    return _header(
        cls, guard, "cstring",
        f"Target '{spec.name}': {n} in-socket(s), {spec.storage_size}-byte "
        f"storage at 0x{spec.storage_base:x}.",
        {"target": sockets}, None, [f"delay{i}" for i in range(n)],
        [f"{s}.register_b_transport(this, &{cls}::b_transport{i});"
         for i, s in enumerate(sockets)]
        + [f"std::memset(m_storage, 0x{spec.storage_fill:02x}, kSize);"], body)


def _emit_router(spec: RouterSpec, cls: str, guard: str) -> str:
    ins = [f"in{i}" for i in range(spec.in_socket_count)]
    body = []
    for i in range(spec.in_socket_count):
        lines = []
        if i not in spec.connections:
            lines.append("        // in-socket has no connection entry")
            lines.append("        trans.set_response_status(tlm::TLM_ADDRESS_ERROR_RESPONSE);")
        elif spec.address_map is not None:
            lines.append("        const sc_dt::uint64 addr = trans.get_address();")
            for base, limit, (out,) in spec.routes(i):
                lines += [
                    f"        if (addr >= 0x{base:x} && addr < 0x{limit:x}) {{",
                    f"            out{out}->b_transport(trans, t);",
                    "            return;",
                    "        }",
                ]
            lines.append("        trans.set_response_status(tlm::TLM_ADDRESS_ERROR_RESPONSE);")
        else:
            ((_, _, outs),) = spec.routes(i)
            if len(outs) == 1:
                lines.append(f"        out{outs[0]}->b_transport(trans, t);")
            else:
                arm_list = ", ".join(f"out{o}" for o in outs)
                lines += [
                    f"        // connection: in{i} -> {arm_list} "
                    "(broadcast; join at the slowest arm)",
                    "        sc_core::sc_time done = t;",
                    "        tlm::tlm_response_status merged = tlm::TLM_OK_RESPONSE;",
                    *(f"        forward(out{out}, trans, t, done, merged);" for out in outs),
                    "        trans.set_response_status(merged);",
                    "        t = done;",
                ]
        body += _handler(spec, f"b_transport_in{i}", "m_delay", lines)
    body += [
        "private:",
        f"    void forward(tlm_utils::multi_passthrough_initiator_socket<{cls}>& out,",
        "                 tlm::tlm_generic_payload& trans,",
        "                 const sc_core::sc_time& base,",
        "                 sc_core::sc_time& done,",
        "                 tlm::tlm_response_status& merged) {",
        "        std::vector<unsigned char> buffer(",
        "            trans.get_data_ptr(), trans.get_data_ptr() + trans.get_data_length());",
        "        tlm::tlm_generic_payload copy;",
        "        copy.set_command(trans.get_command());",
        "        copy.set_address(trans.get_address());",
        "        copy.set_data_ptr(buffer.data());",
        "        copy.set_data_length(trans.get_data_length());",
        "        copy.set_streaming_width(trans.get_streaming_width());",
        "        copy.set_byte_enable_ptr(trans.get_byte_enable_ptr());",
        "        copy.set_byte_enable_length(trans.get_byte_enable_length());",
        "        copy.set_response_status(tlm::TLM_INCOMPLETE_RESPONSE);",
        "        sc_core::sc_time arm = base;",
        "        out->b_transport(copy, arm);",
        "        if (arm > done)",
        "            done = arm;",
        "        if (merged == tlm::TLM_OK_RESPONSE)",
        "            merged = copy.get_response_status();",
        "    }",
        "",
        "    sc_core::sc_time m_delay;",
    ]
    return _header(
        cls, guard, "vector",
        f"Router '{spec.name}': {spec.in_socket_count} in-socket(s), "
        f"{spec.out_socket_count} out-socket(s).",
        {"target": ins, "initiator": [f"out{i}" for i in range(spec.out_socket_count)]}, None,
        ["delay"], [f"{s}.register_b_transport(this, &{cls}::b_transport_in{i});"
         for i, s in enumerate(ins)], body)


def export_tlm(description) -> dict[str, str]:
    """Emit the source bundle for a validated description: file name -> text.

    ``top.cpp`` first, then one header per module spec in module order; raises
    CodegenError when a name cannot be sanitized and InvalidDescriptionError
    (a ValueError) when the description has validation diagnostics.
    """
    require_valid(description)
    file_namer = _Namer(case_insensitive=True)
    class_namer = _Namer()
    classes: dict[str, str] = {}
    headers: dict[str, str] = {}
    for spec in description.modules:
        cls = class_namer.unique(spec.name)
        classes[spec.name] = cls
        stem = file_namer.unique(spec.name).lower()
        file_name, guard = f"{stem}.h", f"TLMFORGE_{stem.upper()}_H"
        if isinstance(spec, InitiatorSpec):
            text = _emit_initiator(spec, cls, guard)
        elif isinstance(spec, TargetSpec):
            text = _emit_target(spec, cls, guard)
        else:
            text = _emit_router(spec, cls, guard)
        headers[file_name] = text

    freqs = {c.name: c.frequency_ghz for c in description.cpus}
    specs = {m.name: m for m in description.modules}
    spec_of = {inst.name: specs[inst.module] for inst in description.instances}
    # Classes and sc_main's variables share one scope, so a variable never shadows a class.
    variables = {inst.name: class_namer.unique(inst.name) for inst in description.instances}

    top = [
        f"// Generated by tlmforge {__version__}. Instantiates and binds the described system.",
        "#include <systemc>",
        "#include <tlm>",
        "",
    ]
    for file_name in headers:
        top.append(f'#include "{file_name}"')
    if headers:
        top.append("")
    top.append("int sc_main(int, char*[]) {")
    if description.cpus:
        listing = ", ".join(f"{c.name} @ {c.frequency_ghz} GHz" for c in description.cpus)
        top.append(f"    // CPUs: {listing}.")
        top.append("    // Delays below are pre-scaled by each instance's CPU frequency.")
    for inst in description.instances:
        spec = specs[inst.module]
        f = freqs[inst.cpu]
        if isinstance(spec, TargetSpec):
            args = ", ".join(_sc_time(effective_delay(p, f)) for p in spec.socket_delays_ps)
        else:
            args = _sc_time(effective_delay(spec.delay_ps, f))
        top.append(f'    {classes[inst.module]} {variables[inst.name]}("{inst.name}", {args});')
    if description.bindings:
        top.append("")
    for binding in description.bindings:
        from_spec, to_spec = spec_of[binding.from_instance], spec_of[binding.to_instance]
        from_sock = (f"out{binding.from_socket}" if isinstance(from_spec, RouterSpec)
                     else f"socket{binding.from_socket}")
        to_sock = (f"in{binding.to_socket}" if isinstance(to_spec, RouterSpec)
                   else f"socket{binding.to_socket}")
        top.append(f"    {variables[binding.from_instance]}.{from_sock}.bind("
                   f"{variables[binding.to_instance]}.{to_sock});")
    top += [
        "",
        "    sc_core::sc_start();",
        "    return 0;",
        "}",
        "",
    ]

    return {"top.cpp": "\n".join(top), **headers}
