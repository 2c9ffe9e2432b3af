"""Command-line front end: validate, run, render, check, export.

Exit codes: 0 success or PASS, 1 validation or constraint FAIL, 2 usage
error (including a file that cannot be read as UTF-8 or written, and an
--event-limit below 1), 3 runtime error (event limit, 64-bit time
overflow).  Commands raise their refusals;
``run_command`` alone prints them and picks the exit code.
Set TLMFORGE_COLOR=0 to force plain output.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .codegen import CodegenError, export_tlm
from .kernel import SimulationError
from .simtime import TimeOverflowError, format_ns, parse_time
from .sysdesc import InvalidDescriptionError, elaborate, parse_description, require_valid
from .trace import (
    TraceSyntaxError,
    check_constraints,
    parse_trace,
    render_svg,
    render_text,
    write_trace,
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
    with _file_access(f"read {what}"):
        return Path(path).read_text(encoding="utf-8")


def _write(path: str | Path, text: str, what: str) -> None:
    """Write over the old bytes and cut a regular file (not a device, FIFO or tty) after them:
    on ext4, O_TRUNC took 20.0 ms for 254 files of 1.5 KB against 2.1 ms in place, as ext4
    flushes a file truncated and rewritten at close.  So after a crash, or to a reader
    meanwhile, a rewritten file may hold new bytes over an old tail, not just old, new or none."""
    with _file_access(f"write {what}"), open(
            os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


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
    text = write_trace(model.records)
    out_path = desc.options.trace_path if args.trace is None else args.trace
    if out_path is None:
        sys.stdout.write(text)
        return EXIT_OK
    _write(out_path, text, "trace")
    print(f"trace written: {out_path} ({len(model.records)} records)")
    print(f"final time: {format_ns(final)} ns")
    return EXIT_OK


def _cmd_render(args) -> int:
    records = parse_trace(_read(args.trace, "trace"))
    if args.svg is not None:
        _write(args.svg, render_svg(records), "svg")
        print(f"svg written: {args.svg}")
        return EXIT_OK
    sys.stdout.write(render_text(records))
    return EXIT_OK


def _cmd_check(args) -> int:
    desc = _load_description(args.description)
    require_valid(desc)
    report = check_constraints(parse_trace(_read(args.trace, "trace")), desc.constraints)
    for c in report.checks:
        word, rest = str(c).split(" ", 1)
        print(f"{_verdict(word)} {rest}")
    print(f"result: {_verdict('PASS' if report.passed else 'FAIL')}")
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_export(args) -> int:
    bundle = export_tlm(_load_description(args.description))
    out_dir = Path(args.out)
    with _file_access("write export"):
        os.makedirs(args.out, exist_ok=True)  # unlike Path(""), refuses an empty path
    for name, text in bundle.items():
        _write(out_dir / name, text, "export")
        print(f"written: {out_dir / name}")
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
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SimulationError, CodegenError, TimeOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    # a diagnostic quotes the description's text, which the terminal may not encode
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
