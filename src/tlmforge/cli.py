"""Command-line front end: validate, run, render, check, export.

Exit codes: 0 success or PASS, 1 validation or constraint FAIL, 2 usage error (a file
that cannot be read as UTF-8 or written, a closed stdout, an --event-limit below 1),
3 runtime error (event limit, 64-bit time overflow, an export the C++ cannot hold, out
of memory).  Commands raise their refusals; ``run_command`` alone prints them and picks
the exit code, and leaves the caller's standard streams as they were: ``main()`` alone
replaces one, and drops what stderr cannot take.  A command runs with the cyclic
collector held off; test_cli's safety fence pins why.  TLMFORGE_COLOR=0 forces plain output.
"""

from __future__ import annotations

import argparse
import functools
import gc
import io
import os
import stat
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

from . import __version__
from .codegen import BANNER, CodegenError, export_tlm
from .kernel import SimulationError
from .simtime import TimeOverflowError, format_ns, parse_time
from .sysdesc import InvalidDescriptionError, elaborate, parse_description, require_valid
from .trace import (
    TraceSyntaxError,
    check_columns,
    format_trace,
    read_columns,
    render_svg_columns,
    render_text_columns,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _verdict(word: str) -> str:
    if os.environ.get("TLMFORGE_COLOR") == "0" or not sys.stdout.isatty():
        return word
    code = "32" if word == "PASS" else "31"
    return f"\x1b[{code}m{word}\x1b[0m"


class _UsageError(Exception):
    """A bad option value or a file that cannot be read or written: exit 2."""


@contextmanager
def _file_access(what: str):
    # ValueError: text that is not UTF-8, or a path with a NUL or a lone surrogate
    try:
        yield
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot {what}: {exc}") from None


def _read(path: str, what: str) -> str:
    # newline="", as in _write: no line end is translated, on any platform
    with _file_access(f"read {what}"), open(path, encoding="utf-8", newline="") as f:
        return f.read()


def _write(path: str | Path, text: str, what: str) -> None:
    """Write the UTF-8 bytes over the old ones (README: why not O_TRUNC; O_BINARY keeps
    Windows from writing CRLF), then cut a regular file that was longer, never a device or FIFO."""
    try:  # as _file_access does, without entering a generator for each exported file
        data = text.encode()
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            old = os.fstat(fd)
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot write {what}: {exc}") from None


def _load_description(path: str):
    desc, diags = parse_description(_read(path, "description"))
    if desc is None:
        raise InvalidDescriptionError(diags)
    return desc


def _cmd_validate(args) -> int:
    desc = _load_description(args.description)
    require_valid(desc)
    print(f"OK: {len(desc.cpus)} cpus, {len(desc.buses)} buses, {len(desc.modules)} modules, "
          f"{len(desc.instances)} instances, {len(desc.bindings)} bindings")
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        quantum = None if args.quantum is None else parse_time(args.quantum)
    except (ValueError, OverflowError) as exc:
        raise _UsageError(str(exc)) from None
    if args.event_limit is not None and args.event_limit < 1:
        raise _UsageError(f"--event-limit must be at least 1, got {args.event_limit}")
    desc = _load_description(args.description)
    model = elaborate(desc, quantum_ps=quantum, event_limit=args.event_limit)
    final = model.run()
    text = format_trace(model.records)  # an elaborated model's rows are valid
    out_path = desc.options.trace_path if args.trace is None else args.trace
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    _write(out_path, text, "trace")
    print(f"trace written: {out_path} ({len(model.records)} records)")
    print(f"final time: {format_ns(final)} ns")
    return EXIT_OK


def _cmd_render(args) -> int:
    names, acts, starts, ends, _, _ = read_columns(_read(args.trace, "trace"))
    if args.svg is not None:
        _write(args.svg, render_svg_columns(names, starts, ends), "svg")
        print(f"svg written: {args.svg}")
        return EXIT_OK
    sys.stdout.write(render_text_columns(names, acts, starts, ends))
    return EXIT_OK


def _cmd_check(args) -> int:
    desc = _load_description(args.description)
    require_valid(desc)
    names, _, _, ends, _, _ = read_columns(_read(args.trace, "trace"))
    checks = check_columns(names, ends, desc.constraints)
    for c in checks:
        word, rest = str(c).split(" ", 1)
        print(f"{_verdict(word)} {rest}")
    passed = all(c.passed for c in checks)
    print(f"result: {_verdict('PASS' if passed else 'FAIL')}")
    return EXIT_OK if passed else EXIT_FAIL


def _cmd_export(args) -> int:
    bundle = export_tlm(_load_description(args.description))
    out_dir = Path(args.out)
    with _file_access("write export"):
        os.makedirs(args.out, exist_ok=True)  # unlike Path(""), refuses an empty path
    for name, text in bundle.items():
        _write(path := out_dir / name, text, "export")
        print(f"written: {path}")
    # Then remove what an earlier export left (a regular *.h or *.cpp directly in --out, outside
    # the bundle, whose names are lower case, that starts with the banner), and only then print.
    removed = []
    with _file_access("write export"), os.scandir(out_dir) as entries:
        for entry in entries:
            if (entry.name.endswith((".h", ".cpp")) and entry.name.lower() not in bundle
                    and entry.is_file(follow_symlinks=False)):
                with open(entry.path, "rb") as f:
                    stale = f.read(len(BANNER)) == BANNER.encode()  # the banner is ASCII
                if stale:
                    os.remove(entry.path)
                    removed.append(f"removed: {entry.path}\n")
    sys.stdout.write("".join(removed))
    return EXIT_OK


@functools.cache  # argparse reads sys.stdout and sys.stderr when it writes, not here
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlmforge",
        description="Simulate component-based real-time system descriptions, "
                    "render timing diagrams, check deadlines, export TLM-2.0 sources.")
    parser.add_argument("--version", action="version", version=f"tlmforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a description")
    p.add_argument("description")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="simulate a description and write the trace")
    p.add_argument("description")
    p.add_argument("--trace", help="trace CSV output path (default: stdout)")
    p.add_argument("--quantum", help='global quantum override, e.g. "1us" (default: description)')
    p.add_argument("--event-limit", type=int, help="kernel event-count safety limit")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("render", help="render a trace as SVG or a text chart")
    p.add_argument("trace")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--svg", help="write an SVG timing diagram to this path")
    group.add_argument("--text", action="store_true", help="print a text chart (default)")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("check", help="check a trace against a description's constraints")
    p.add_argument("description")
    p.add_argument("trace")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("export", help="export TLM-2.0 source text")
    p.add_argument("description")
    p.add_argument("--out", required=True, help="output directory for the source bundle")
    p.set_defaults(fn=_cmd_export)
    return parser


def run_command(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 0 (--help, --version) or 2
        return exc.code
    enabled = gc.isenabled()
    gc.disable()  # the young generation fills with records and rows, and each scan frees nothing
    try:
        return args.fn(args)
    except InvalidDescriptionError as exc:
        for d in exc.diagnostics:
            print(str(d))
        return EXIT_FAIL
    except TraceSyntaxError as exc:
        print(str(exc))
        return EXIT_FAIL
    except _UsageError as exc:
        error, code = str(exc), EXIT_USAGE
    except (SimulationError, CodegenError, TimeOverflowError, MemoryError) as exc:
        error, code = str(exc) or "out of memory", EXIT_RUNTIME
    finally:
        if enabled:
            gc.enable()
    with suppress(OSError):  # a stderr that cannot be written (2</dev/null) drops the message
        print(f"error: {error}", file=sys.stderr)
    return code


def main() -> None:
    if sys.stdout is None:  # started with fd 1 closed: exit 2 unheard, as on a closed pipe
        sys.exit(EXIT_USAGE)
    sys.stderr = sys.stderr or open(os.devnull, "w", encoding="utf-8")  # fd 2 closed: not stdout
    if isinstance(sys.stdout.buffer, io.RawIOBase):  # -u: a write cut short drops the rest unseen
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(sys.stdout.buffer), sys.stdout.encoding)
    # a diagnostic quotes the description's text, which the terminal may not encode
    sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # as after `| head`; the signal module's recipe quiets the exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    try:  # argparse's usage or an error line may sit in a buffer that stderr cannot take:
        sys.stderr.flush()
    except OSError:  # drop it here, not in a flush at exit that would fail with exit 120
        sys.stderr = None
    sys.exit(code)


if __name__ == "__main__":
    main()
