import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import descmut

import tlmforge
from tlmforge import cli
from tlmforge.cli import run_command


def invoke(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BROKEN_E003 = {
    "cpus": [{"name": "Cpu0", "frequency": "1GHz"}, {"name": "Cpu1", "frequency": "1GHz"}],
    "modules": [
        {"kind": "initiator", "name": "I", "delay": "1ns", "sockets": 1,
         "workload": [{"command": "WRITE", "address": 0, "length": 1}]},
        {"kind": "target", "name": "T", "socket_delays": ["1ns"],
         "storage": {"size": 16}},
    ],
    "instances": [{"name": "i0", "module": "I", "cpu": "Cpu0"},
                  {"name": "t0", "module": "T", "cpu": "Cpu1"}],
    "bindings": [{"from": ["i0", 0], "to": ["t0", 0]}],
}


CPU = [{"name": "Cpu0", "frequency": "1GHz"}]
WRITER = {"kind": "initiator", "name": "I", "delay": "1ns", "sockets": 1,
          "workload": [{"command": "WRITE", "address": 0, "length": 1}]}

# r0's in-socket 1 forwards to out-socket 0, which is bound back to in-socket 1.
LOOPED = {
    "cpus": CPU,
    "modules": [WRITER, {"kind": "router", "name": "R", "delay": "1ns", "in_sockets": 2,
                         "out_sockets": 1, "connections": {"0": [0], "1": [0]}}],
    "instances": [{"name": "i0", "module": "I", "cpu": "Cpu0"},
                  {"name": "r0", "module": "R", "cpu": "Cpu0"}],
    "bindings": [{"from": ["i0", 0], "to": ["r0", 0]},
                 {"from": ["r0", 0], "to": ["r0", 1]}],
}

# r0 is bound to its own other in-socket, which leads on to t0: no loop.
SELF_BOUND_ACYCLIC = {
    "cpus": CPU,
    "modules": [
        {**WRITER, "workload": [{"command": "WRITE", "address": 0, "length": 4, "repeat": 2}]},
        {"kind": "router", "name": "R", "delay": "2ns", "in_sockets": 2, "out_sockets": 2,
         "connections": {"0": [0], "1": [1]}},
        {"kind": "target", "name": "T", "socket_delays": ["3ns"], "storage": {"size": 16}},
    ],
    "instances": [{"name": "i0", "module": "I", "cpu": "Cpu0"},
                  {"name": "r0", "module": "R", "cpu": "Cpu0"},
                  {"name": "t0", "module": "T", "cpu": "Cpu0"}],
    "bindings": [{"from": ["i0", 0], "to": ["r0", 0]},
                 {"from": ["r0", 0], "to": ["r0", 1]},
                 {"from": ["r0", 1], "to": ["t0", 0]}],
}

# "big" scales 1 s by a 1 Hz CPU to 10^21 ps; nothing is bound to it.
UNBOUND_OVERFLOW = {
    "cpus": CPU + [{"name": "Slow", "frequency": "1Hz"}],
    "modules": [
        WRITER,
        {"kind": "target", "name": "T", "socket_delays": ["1ns"], "storage": {"size": 16}},
        {"kind": "target", "name": "Big", "socket_delays": ["1s"], "storage": {"size": 16}},
    ],
    "instances": [{"name": "i0", "module": "I", "cpu": "Cpu0"},
                  {"name": "t0", "module": "T", "cpu": "Cpu0"},
                  {"name": "big", "module": "Big", "cpu": "Slow"}],
    "bindings": [{"from": ["i0", 0], "to": ["t0", 0]}],
}


def router_chain(n: int) -> dict:
    """i0 -> r0 -> ... -> r(n-1) -> t0, one router per hop."""
    return {
        "cpus": CPU,
        "modules": [WRITER,
                    {"kind": "router", "name": "R", "delay": "1ns", "in_sockets": 1,
                     "out_sockets": 1, "connections": {"0": [0]}},
                    {"kind": "target", "name": "T", "socket_delays": ["1ns"],
                     "storage": {"size": 16}}],
        "instances": [{"name": "i0", "module": "I", "cpu": "Cpu0"},
                      {"name": "t0", "module": "T", "cpu": "Cpu0"}]
                     + [{"name": f"r{k}", "module": "R", "cpu": "Cpu0"} for k in range(n)],
        "bindings": [{"from": ["i0", 0], "to": ["r0", 0]},
                     {"from": [f"r{n - 1}", 0], "to": ["t0", 0]}]
                    + [{"from": [f"r{k}", 0], "to": [f"r{k + 1}", 0]} for k in range(n - 1)],
    }


# Three ways to miswire abs.json so that a transaction would fall off the wiring.
MISWIRED_ABS = {
    "unbound initiator socket": (
        lambda doc: doc["bindings"].pop(0),
        "E010 Brake.workload[0]: initiator 'Brake' socket 0 is unbound\n"),
    "bound router in-socket without connections": (
        lambda doc: doc["modules"][1].update(connections={}),
        "E010 Router.connections[0]: router 'Router' in-socket 0 is bound "
        "but has no connection entry\n"),
    "unbound router out-socket": (
        lambda doc: doc["bindings"].pop(4),
        "E010 Router.connections[0]: router 'Router' out-socket 3 is unbound\n"),
}


def write_description(tmp_path, doc) -> str:
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def broken_path(tmp_path) -> Path:
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_E003), encoding="utf-8")
    return path


def test_validate_ok(capsys, abs_path):
    code, out, _ = invoke(capsys, "validate", str(abs_path))
    assert code == 0
    assert out.startswith("OK:")


def test_validate_prints_code_and_exits_one(capsys, broken_path):
    code, out, _ = invoke(capsys, "validate", str(broken_path))
    assert code == 1
    assert "E003" in out


def test_run_then_check_passes(capsys, abs_path, tmp_path):
    trace = tmp_path / "t.csv"
    code, out, _ = invoke(capsys, "run", str(abs_path), "--trace", str(trace))
    assert code == 0
    assert "final time: 16 ns" in out
    code, out, _ = invoke(capsys, "check", str(abs_path), str(trace))
    assert code == 0
    assert "PASS Brake" in out
    assert out.strip().endswith("result: PASS")


def test_check_fails_when_deadline_is_tightened(capsys, abs_path, tmp_path):
    trace = tmp_path / "t.csv"
    invoke(capsys, "run", str(abs_path), "--trace", str(trace))
    doc = json.loads(abs_path.read_text())
    doc["constraints"] = [{"instance": "Brake", "max_end": "15ns"}]
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(capsys, "check", str(tight), str(trace))
    assert code == 1
    assert "FAIL Brake" in out


def test_check_without_the_constrained_instance_fails_with_its_reason(capsys, abs_path,
                                                                     tmp_path):
    trace = tmp_path / "t.csv"
    invoke(capsys, "run", str(abs_path), "--trace", str(trace))
    rows = trace.read_text(encoding="utf-8").splitlines(keepends=True)
    trace.write_text("".join(r for r in rows if not r.startswith("Brake,")), encoding="utf-8")
    code, out, _ = invoke(capsys, "check", str(abs_path), str(trace))
    assert code == 1
    assert out.splitlines() == ["FAIL Brake: E-NO-INSTANCE: no trace records for 'Brake'",
                                "result: FAIL"]


def test_run_twice_writes_identical_bytes(capsys, abs_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    invoke(capsys, "run", str(abs_path), "--trace", str(a))
    invoke(capsys, "run", str(abs_path), "--trace", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_without_trace_prints_csv(capsys, abs_path):
    code, out, _ = invoke(capsys, "run", str(abs_path))
    assert code == 0
    assert out.startswith("# tlm-forge-trace v1\n")


def test_run_honors_trace_path_from_options(capsys, abs_path, tmp_path, monkeypatch):
    doc = json.loads(abs_path.read_text())
    doc["options"]["trace"] = "from_options.csv"
    desc = tmp_path / "abs.json"
    desc.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, _ = invoke(capsys, "run", str(desc))
    assert code == 0
    assert (tmp_path / "from_options.csv").exists()


def test_render_svg_is_idempotent(capsys, abs_path, tmp_path):
    trace = tmp_path / "t.csv"
    invoke(capsys, "run", str(abs_path), "--trace", str(trace))
    d1, d2 = tmp_path / "d1.svg", tmp_path / "d2.svg"
    assert invoke(capsys, "render", str(trace), "--svg", str(d1))[0] == 0
    assert invoke(capsys, "render", str(trace), "--svg", str(d2))[0] == 0
    assert d1.read_bytes() == d2.read_bytes()
    assert d1.read_text().count('fill="green"') == 6


def test_render_text_to_stdout(capsys, abs_path, tmp_path):
    trace = tmp_path / "t.csv"
    invoke(capsys, "run", str(abs_path), "--trace", str(trace))
    code, out, _ = invoke(capsys, "render", str(trace), "--text")
    assert code == 0
    assert "Brake #0" in out


def test_render_rejects_malformed_trace(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not a trace\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "render", str(bad))
    assert code == 1
    assert "E-TRACE-SYNTAX" in out


def test_render_rejects_a_wrong_column_line_at_line_2(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# tlm-forge-trace v1\ninstance,start,end\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "render", str(bad))
    assert (code, out) == (1, "E-TRACE-SYNTAX line 2: expected column line "
                              "'instance,activation,start_ps,end_ps,txn_id,status'\n")


def test_export_writes_bundle(capsys, abs_path, tmp_path):
    out_dir = tmp_path / "gen"
    code, out, _ = invoke(capsys, "export", str(abs_path), "--out", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["module0.h", "module1.h", "module2.h", "top.cpp"]


def test_an_export_past_the_64_bit_literals_exits_3_and_writes_nothing(capsys, abs_text,
                                                                        tmp_path):
    """A bandwidth the simulator reads exactly still runs; the export refuses it."""
    doc = json.loads(abs_text)
    doc["modules"][2]["bandwidth"] = "100000000000000000001/100000000000000000000"
    path = write_description(tmp_path, doc)
    assert invoke(capsys, "run", path)[0] == 0
    out_dir = tmp_path / "gen"
    code, out, err = invoke(capsys, "export", path, "--out", str(out_dir))
    assert (code, out) == (3, "")
    assert err == ("error: E-BANDWIDTH-RANGE: module 'Module2': bandwidth "
                   "100000000000000000001/100000000000000000000 needs a C++ literal past "
                   "2^64 - 1\n")
    assert not out_dir.exists()


def test_export_twice_is_byte_identical(capsys, abs_path, tmp_path):
    d1, d2 = tmp_path / "g1", tmp_path / "g2"
    invoke(capsys, "export", str(abs_path), "--out", str(d1))
    invoke(capsys, "export", str(abs_path), "--out", str(d2))
    for p in d1.iterdir():
        assert p.read_bytes() == (d2 / p.name).read_bytes()


# -- export --out holds exactly the bundle -------------------------------------

MARKER = "// Generated by tlmforge"


def _tree(root: Path) -> dict[str, bytes]:
    """Every regular file under ``root``: its bytes by its relative path."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_export_after_a_module_rename_equals_a_fresh_export(capsys, tmp_path, abs_path,
                                                           abs_text):
    """The old module's generated header is removed, so ``diff -r`` finds nothing."""
    renamed = tmp_path / "renamed.json"
    renamed.write_text(abs_text.replace('"Module1"', '"Renamed"'), encoding="utf-8")
    gen, fresh = tmp_path / "gen", tmp_path / "fresh"
    assert invoke(capsys, "export", str(abs_path), "--out", str(gen))[0] == 0
    code, out, _ = invoke(capsys, "export", str(renamed), "--out", str(gen))
    assert code == 0
    assert f"removed: {gen / 'module1.h'}\n" in out
    assert invoke(capsys, "export", str(renamed), "--out", str(fresh))[0] == 0
    assert sorted(_tree(gen)) == ["module0.h", "module2.h", "renamed.h", "top.cpp"]
    assert _tree(gen) == _tree(fresh)


def test_export_removes_only_its_own_stale_files_directly_in_out(capsys, tmp_path, abs_path):
    gen, outside = tmp_path / "gen", tmp_path / "outside"
    (gen / "sub").mkdir(parents=True)
    outside.mkdir()
    kept = {
        "notes.txt": MARKER + " but not a header\n",
        "user.h": "// written by hand\n",
        "late.cpp": "int x;  " + MARKER + "\n",
        "sub/old.h": MARKER + " 0.1.0.\n",
    }
    for name, text in kept.items():
        (gen / name).write_text(text, encoding="utf-8")
    (outside / "target.h").write_text(MARKER + " 0.1.0.\n", encoding="utf-8")
    (gen / "link.h").symlink_to(outside / "target.h")
    (gen / "stale.h").write_text(MARKER + " 0.1.0.\n", encoding="utf-8")
    assert invoke(capsys, "export", str(abs_path), "--out", str(gen))[0] == 0
    assert not (gen / "stale.h").exists()
    assert (gen / "link.h").is_symlink() and os.readlink(gen / "link.h") == str(
        outside / "target.h")
    assert _tree(outside) == {"target.h": (MARKER + " 0.1.0.\n").encode()}
    for name, text in kept.items():
        assert (gen / name).read_text(encoding="utf-8") == text


def test_an_unremovable_stale_file_is_a_usage_error(capsys, monkeypatch, tmp_path, abs_path):
    gen = tmp_path / "gen"
    gen.mkdir()
    (gen / "stale.h").write_text(MARKER + " 0.1.0.\n", encoding="utf-8")

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(os, "remove", refuse)
    monkeypatch.setattr(os, "unlink", refuse)
    code, _, err = invoke(capsys, "export", str(abs_path), "--out", str(gen))
    assert (code, err) == (
        2, f"error: cannot write export: [Errno 13] Permission denied: '{gen / 'stale.h'}'\n")


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = invoke(capsys, "frobnicate")
    assert code == 2
    assert "usage" in err.lower()


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = invoke(capsys, "validate", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


# Where each command reads a description or a trace: (argv with {bad} for the
# file under test, what the refusal names).
INPUT_ROLES = {
    "validate description": (["validate", "{bad}"], "description"),
    "run description": (["run", "{bad}"], "description"),
    "check description": (["check", "{bad}", "{trace}"], "description"),
    "export description": (["export", "{bad}", "--out", "{tmp}/gen"], "description"),
    "render trace": (["render", "{bad}"], "trace"),
    "check trace": (["check", "{abs}", "{bad}"], "trace"),
}


@pytest.mark.parametrize("role", sorted(INPUT_ROLES))
def test_input_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, abs_path, role):
    """Such a file used to escape every command as a UnicodeDecodeError traceback."""
    argv, what = INPUT_ROLES[role]
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe{}")
    trace = tmp_path / "t.csv"
    assert invoke(capsys, "run", str(abs_path), "--trace", str(trace))[0] == 0
    fields = {"bad": bad, "trace": trace, "abs": abs_path, "tmp": tmp_path}
    assert invoke(capsys, *(a.format(**fields) for a in argv)) == (
        2, "", f"error: cannot read {what}: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte\n")
    assert not (tmp_path / "gen").exists()


# An output path that cannot be written, for each command that writes one:
# (argv with {abs}, {desc}, {trace} and {tmp} fields, options.trace of {desc},
# what the refusal names, the reason it gives with the same fields).
NO_ENTRY = "[Errno 2] No such file or directory: "
UNWRITABLE = {
    "run --trace into a missing directory": (
        ["run", "{abs}", "--trace", "{tmp}/missing/t.csv"], None, "trace",
        NO_ENTRY + "'{tmp}/missing/t.csv'"),
    "run --trace onto a directory": (
        ["run", "{abs}", "--trace", "{tmp}"], None, "trace", "[Errno 21] Is a directory: '{tmp}'"),
    "options.trace with a NUL": (["run", "{desc}"], "a\u0000b.csv", "trace", "embedded null byte"),
    "options.trace with a lone surrogate": (
        ["run", "{desc}"], "\ud800.csv", "trace",
        "'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed"),
    "options.trace empty": (["run", "{desc}"], "", "trace", NO_ENTRY + "''"),
    "run --trace empty": (["run", "{abs}", "--trace", ""], None, "trace", NO_ENTRY + "''"),
    "render --svg into a missing directory": (
        ["render", "{trace}", "--svg", "{tmp}/missing/d.svg"], None, "svg",
        NO_ENTRY + "'{tmp}/missing/d.svg'"),
    "export --out below a regular file": (
        ["export", "{abs}", "--out", "{trace}/gen"], None, "export",
        "[Errno 20] Not a directory: '{trace}/gen'"),
    "export --out empty": (["export", "{abs}", "--out", ""], None, "export", NO_ENTRY + "''"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_an_unwritable_output_is_a_usage_error(capsys, monkeypatch, tmp_path, abs_path,
                                               abs_text, case):
    """Each used to escape run_command as a traceback (FileNotFoundError,
    IsADirectoryError, NotADirectoryError, ValueError or UnicodeEncodeError),
    or, for an empty path, to write to stdout or the current directory."""
    monkeypatch.chdir(tmp_path)
    argv, option, what, reason = UNWRITABLE[case]
    doc = json.loads(abs_text)
    doc["options"]["trace"] = option
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps(doc), encoding="utf-8")
    trace = tmp_path / "t.csv"
    assert invoke(capsys, "run", str(abs_path), "--trace", str(trace))[0] == 0
    if option is not None:
        assert invoke(capsys, "validate", str(desc))[0] == 0
    fields = {"abs": abs_path, "desc": desc, "trace": trace, "tmp": tmp_path}
    code, out, err = invoke(capsys, *(a.format(**fields) for a in argv))
    assert (code, out, err) == (2, "", f"error: cannot write {what}: {reason.format(**fields)}\n")


# -- how an output is written: over the old bytes, cut to the new length ------

PADDING = "a line an older, longer output left behind\n" * 40


def _outputs(capsys, abs_path, where: Path) -> dict[str, bytes]:
    """Run, render and export into ``where``; every output's bytes by its name."""
    trace, svg, gen = where / "t.csv", where / "d.svg", where / "gen"
    where.mkdir(exist_ok=True)
    assert invoke(capsys, "run", str(abs_path), "--trace", str(trace))[0] == 0
    assert invoke(capsys, "render", str(trace), "--svg", str(svg))[0] == 0
    assert invoke(capsys, "export", str(abs_path), "--out", str(gen))[0] == 0
    return _tree(where)


def test_an_output_over_a_longer_file_is_the_bytes_a_fresh_write_gives(capsys, tmp_path,
                                                                       abs_path):
    """Each output is written over the old bytes; the tail they leave is cut off."""
    fresh = _outputs(capsys, abs_path, tmp_path / "fresh")
    old = tmp_path / "old"
    for name, data in fresh.items():
        (old / name).parent.mkdir(parents=True, exist_ok=True)
        (old / name).write_bytes(data + PADDING.encode())
    assert _outputs(capsys, abs_path, old) == fresh


def test_an_output_to_the_null_device_succeeds(capsys, tmp_path, abs_path):
    """A character device cannot be truncated; it is written and left as it is."""
    trace = tmp_path / "t.csv"
    assert invoke(capsys, "run", str(abs_path), "--trace", os.devnull)[0] == 0
    assert invoke(capsys, "run", str(abs_path), "--trace", str(trace))[0] == 0
    assert invoke(capsys, "render", str(trace), "--svg", os.devnull)[0] == 0


def test_an_output_through_a_symlink_rewrites_its_target(capsys, tmp_path, abs_path):
    fresh = tmp_path / "fresh.csv"
    assert invoke(capsys, "run", str(abs_path), "--trace", str(fresh))[0] == 0
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text(PADDING, encoding="utf-8")
    link.symlink_to(real.name)
    assert invoke(capsys, "run", str(abs_path), "--trace", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_bytes() == fresh.read_bytes()


def test_an_output_keeps_an_existing_files_mode_and_a_new_one_gets_the_umasks(
        capsys, tmp_path, abs_path):
    old = tmp_path / "old.csv"
    old.write_text(PADDING, encoding="utf-8")
    old.chmod(0o604)
    mask = os.umask(0o027)
    try:
        assert invoke(capsys, "run", str(abs_path), "--trace", str(old))[0] == 0
        assert invoke(capsys, "run", str(abs_path), "--trace", str(tmp_path / "new.csv"))[0] == 0
    finally:
        os.umask(mask)
    assert old.stat().st_mode & 0o7777 == 0o604
    assert (tmp_path / "new.csv").stat().st_mode & 0o7777 == 0o640


def test_unknown_flag_is_usage_error(capsys, abs_path):
    code, _, err = invoke(capsys, "run", str(abs_path), "--warp-speed")
    assert code == 2
    assert "usage" in err.lower()


def test_event_limit_maps_to_runtime_error(capsys, abs_path):
    code, _, err = invoke(capsys, "run", str(abs_path), "--event-limit", "1")
    assert code == 3
    assert "E-EVENT-LIMIT" in err


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_an_event_limit_below_one_is_a_usage_error(capsys, abs_path, limit):
    code, out, err = invoke(capsys, "run", str(abs_path), "--event-limit", limit)
    assert (code, out, err) == (2, "", f"error: --event-limit must be at least 1, got {limit}\n")


def test_quantum_flag_accepts_units(capsys, abs_path, tmp_path):
    trace = tmp_path / "t.csv"
    code, _, _ = invoke(capsys, "run", str(abs_path), "--quantum", "1us",
                        "--trace", str(trace))
    assert code == 0
    # temporal decoupling never changes the reported timestamps
    zero_q = tmp_path / "zero.csv"
    invoke(capsys, "run", str(abs_path), "--trace", str(zero_q))
    assert trace.read_bytes() == zero_q.read_bytes()


def test_bad_quantum_is_usage_error(capsys, abs_path):
    code, _, err = invoke(capsys, "run", str(abs_path), "--quantum", "fast")
    assert code == 2


def test_color_disabled_without_tty(capsys, abs_path, tmp_path, monkeypatch):
    monkeypatch.setenv("TLMFORGE_COLOR", "0")
    trace = tmp_path / "t.csv"
    invoke(capsys, "run", str(abs_path), "--trace", str(trace))
    _, out, _ = invoke(capsys, "check", str(abs_path), str(trace))
    assert "\x1b[" not in out


def test_check_colours_the_verdict_on_a_terminal(capsys, abs_path, tmp_path, monkeypatch):
    monkeypatch.delenv("TLMFORGE_COLOR", raising=False)
    trace = tmp_path / "t.csv"
    invoke(capsys, "run", str(abs_path), "--trace", str(trace))
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    _, out, _ = invoke(capsys, "check", str(abs_path), str(trace))
    assert out.splitlines() == ["\x1b[32mPASS\x1b[0m Brake: end 16000 ps <= deadline 16000 ps",
                                "result: \x1b[32mPASS\x1b[0m"]


@pytest.mark.parametrize("quantum", ["0ps", "1us", "1s"])
def test_run_reports_the_final_time_under_any_quantum(capsys, abs_path, tmp_path, quantum):
    code, out, _ = invoke(capsys, "run", str(abs_path), "--quantum", quantum,
                          "--trace", str(tmp_path / "t.csv"))
    assert code == 0
    assert out.splitlines()[-1] == "final time: 16 ns"


def test_binding_cycle_is_a_validation_failure(capsys, tmp_path):
    path = write_description(tmp_path, LOOPED)
    for command in ("validate", "run"):
        code, out, _ = invoke(capsys, command, path)
        assert code == 1
        assert out == "E009 bindings: binding cycle r0[1] -> r0[1]\n"


def test_router_bound_to_its_other_in_socket_runs(capsys, tmp_path):
    path = write_description(tmp_path, SELF_BOUND_ACYCLIC)
    code, out, _ = invoke(capsys, "run", path)
    assert code == 0
    assert out == (
        "# tlm-forge-trace v1\n"
        "instance,activation,start_ps,end_ps,txn_id,status\n"
        "i0,0,0,8000,0,OK\n"
        "r0,0,1000,3000,0,OK\n"
        "r0,1,3000,5000,0,OK\n"
        "t0,0,5000,8000,0,OK\n"
        "i0,1,8000,16000,1,OK\n"
        "r0,2,9000,11000,1,OK\n"
        "r0,3,11000,13000,1,OK\n"
        "t0,1,13000,16000,1,OK\n")


def test_out_of_range_delay_refuses_run_and_export(capsys, tmp_path):
    path = write_description(tmp_path, UNBOUND_OVERFLOW)
    assert invoke(capsys, "validate", path)[0] == 0
    for argv in (("run", path), ("export", path, "--out", str(tmp_path / "gen"))):
        code, _, err = invoke(capsys, *argv)
        assert code == 3
        assert err == "error: scaled delay 1000000000000000000000 ps exceeds the 64-bit range\n"


U64_TOP = "18446744073709551615ps"  # 2^64 - 1
SLOW = "1/100000000000000000000"     # bytes per ns: 4 bytes take 4e23 ps


def _set(doc, index, **fields):
    doc["modules"][index].update(fields)


# Each edit of abs.json makes one place on the transaction path add past 2^64 - 1,
# and the message names that sum.  Module 0 is the initiator, 1 the router, 2 the targets.
OVERFLOWS = {
    "initiator delay, then sync": (
        lambda d: (_set(d, 0, delay="18000000000000000000ps"),
                   d["modules"][0]["workload"][0].update(repeat=2)),
        "18000000000000006000 ps + 18000000000000000000 ps exceeds the unsigned 64-bit range"),
    "initiator delay plus send time": (
        lambda d: _set(d, 0, delay=U64_TOP, bandwidth="1"),
        "18446744073709551615 ps + 4000 ps exceeds the unsigned 64-bit range"),
    "initiator offset ahead of the quantum": (
        lambda d: (_set(d, 0, delay="10000000000000000000ps"),
                   d["modules"][0]["workload"][0].update(repeat=2),
                   d["options"].update(quantum=U64_TOP)),
        "10000000000000006000 ps + 10000000000000000000 ps exceeds the unsigned 64-bit range"),
    "initiator transfer time": (
        lambda d: _set(d, 0, bandwidth=SLOW),
        "transfer time 400000000000000000000000 ps exceeds the 64-bit range"),
    "router arrival": (
        lambda d: (_set(d, 0, delay="8000000000000000000ps", bandwidth="1/1000000000000000",
                        workload=[{"command": "WRITE", "address": "0x0", "data": "abcd"},
                                  {"command": "WRITE", "address": "0x0", "data": "ab"}]),
                   d["options"].update(quantum="10000000000000000000ps")),
        "10000000000000000000 ps + 9000000000000006000 ps exceeds the unsigned 64-bit range"),
    "router service end": (
        lambda d: (_set(d, 0, delay="18000000000000000000ps"), _set(d, 1, delay=U64_TOP)),
        "18000000000000000000 ps + 3689348814741910323 ps exceeds the unsigned 64-bit range"),
    "router end at the top of the range": (
        lambda d: _set(d, 0, delay=U64_TOP),
        "18446744073709551615 ps + 1000 ps exceeds the unsigned 64-bit range"),
    "router transfer time": (
        lambda d: _set(d, 1, bandwidth=SLOW),
        "transfer time 400000000000000000000000 ps exceeds the 64-bit range"),
    "target service end": (
        lambda d: (_set(d, 0, delay="18000000000000000000ps"),
                   _set(d, 2, socket_delays=[U64_TOP])),
        "18000000000000000000 ps + 4611686018427388904 ps exceeds the unsigned 64-bit range"),
    "target transfer time": (
        lambda d: _set(d, 2, bandwidth=SLOW),
        "transfer time 400000000000000000000000 ps exceeds the 64-bit range"),
}


@pytest.mark.parametrize("place", sorted(OVERFLOWS))
def test_a_time_past_64_bits_ends_run_with_exit_3_and_names_the_sum(capsys, tmp_path, abs_path,
                                                                    place):
    edit, message = OVERFLOWS[place]
    doc = json.loads(abs_path.read_text(encoding="utf-8"))
    edit(doc)
    path = write_description(tmp_path, doc)
    assert invoke(capsys, "validate", path)[0] == 0
    assert invoke(capsys, "run", path) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("variant", sorted(MISWIRED_ABS))
def test_miswired_abs_is_refused_by_every_command(capsys, tmp_path, abs_path, variant):
    miswire, expected = MISWIRED_ABS[variant]
    doc = json.loads(abs_path.read_text(encoding="utf-8"))
    miswire(doc)
    path = write_description(tmp_path, doc)
    for argv in (("validate", path), ("run", path), ("export", path, "--out", str(tmp_path))):
        assert invoke(capsys, *argv) == (1, expected, "")


READ_TEMPLATE = {"command": "READ", "address": "0x0", "length": 4}

# Edits of abs.json that each lead the validator to one finding along two routes.
FOUND_TWICE = {
    "a repeated bad connection out": (
        lambda doc: doc["modules"][1].update(connections={"0": [0, 1, 2, 3, 7, 7]}),
        "E006 modules[1].connections[0]: connection out-socket 7 out of range (4 out-sockets)"),
    "a repeated self binding": (
        lambda doc: doc["bindings"].extend([{"from": ["Router", 0], "to": ["Router", 0]}] * 2),
        "E009 bindings: binding cycle Router[0] -> Router[0]"),
    "a repeated initiator name and a READ": (
        lambda doc: (doc["instances"].append({"name": "Brake", "module": "Module0",
                                              "cpu": "Cpu0"}),
                     doc["modules"][0]["workload"].append(READ_TEMPLATE)),
        "E004 Brake.workload[1]: READ issued by 'Brake' can reach more than one destination "
        "with no disjoint address decode"),
    "a repeated initiator name and an unbound socket": (
        lambda doc: (doc["instances"].append({"name": "Brake", "module": "Module0",
                                              "cpu": "Cpu0"}),
                     doc["modules"][0].update(sockets=2),
                     doc["modules"][0]["workload"].append({**READ_TEMPLATE, "socket": 1})),
        "E010 Brake.workload[1]: initiator 'Brake' socket 1 is unbound"),
}


@pytest.mark.parametrize("variant", sorted(FOUND_TWICE))
def test_a_diagnostic_found_twice_is_printed_once(capsys, tmp_path, abs_path, variant):
    edit, line = FOUND_TWICE[variant]
    doc = json.loads(abs_path.read_text(encoding="utf-8"))
    edit(doc)
    code, out, err = invoke(capsys, "validate", write_description(tmp_path, doc))
    lines = out.splitlines()
    assert (code, err) == (1, "")
    assert line in lines
    assert len(lines) == len(set(lines))


def test_a_path_through_256_routers_runs(capsys, tmp_path):
    path = write_description(tmp_path, router_chain(256))
    code, out, err = invoke(capsys, "run", path)
    assert (code, err) == (0, "")
    assert out.count("\n") == 2 + 1 + 256 + 1  # header lines, then i0, each router and t0


@pytest.mark.parametrize("n", [257, 600])
def test_a_path_through_more_routers_is_refused(capsys, tmp_path, n):
    path = write_description(tmp_path, router_chain(n))
    expected = (f"E011 i0.workload[0]: a path from 'i0' socket 0 passes {n} routers; "
                "at most 256 are allowed\n")
    for argv in (("validate", path), ("run", path), ("export", path, "--out", str(tmp_path))):
        assert invoke(capsys, *argv) == (1, expected, "")


def test_module_entry_point_runs_the_command(broken_path):
    env = {**os.environ, "PYTHONPATH": str(Path(tlmforge.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "tlmforge.cli", "validate", str(broken_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert "E003" in done.stdout


def test_a_diagnostic_the_stdout_cannot_encode_is_escaped(tmp_path, abs_text):
    desc = edited_abs(tmp_path, abs_text, ("modules", 1, "connections"), {"²": [0, 1, 2, 3]})
    env = {**os.environ, "PYTHONPATH": str(Path(tlmforge.__file__).parents[1]),
           "PYTHONIOENCODING": "ascii"}
    done = subprocess.run([sys.executable, "-m", "tlmforge.cli", "validate", desc],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "E-TYPE modules[1].connections[\\xb2] (70:14): "
           "connection key '\\xb2' must be a socket index\n", "")


@pytest.mark.parametrize("escape", ["\\u-123", "\\u 12 ", "\\u+fff", "\\u1_2a"])
def test_bad_unicode_escape_is_a_syntax_error(capsys, tmp_path, abs_path, escape):
    path = tmp_path / "desc.json"
    path.write_text('{"cpus": "%s"}' % escape, encoding="utf-8")
    trace = tmp_path / "t.csv"
    assert invoke(capsys, "run", str(abs_path), "--trace", str(trace))[0] == 0
    for argv in (("validate", path), ("run", path), ("check", path, trace),
                 ("export", path, "--out", tmp_path / "gen")):
        code, out, err = invoke(capsys, *map(str, argv))
        assert (code, out, err) == (1, f"E-SYNTAX 1:13: bad \\u escape '{escape[2:]}'\n", "")


@pytest.mark.parametrize("depth", [495, 100_000])
def test_deep_nesting_is_a_syntax_error(capsys, tmp_path, abs_path, depth):
    """Nesting past 256 levels is refused at the opening bracket of level 257
    (the root object is level 1), never by a RecursionError."""
    path = tmp_path / "desc.json"
    path.write_text('{"cpus": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    trace = tmp_path / "t.csv"
    assert invoke(capsys, "run", str(abs_path), "--trace", str(trace))[0] == 0
    for argv in (("validate", path), ("run", path), ("check", path, trace),
                 ("export", path, "--out", tmp_path / "gen")):
        code, out, err = invoke(capsys, *map(str, argv))
        assert (code, out, err) == (1, "E-SYNTAX 1:265: nesting deeper than 256\n", "")
    assert not (tmp_path / "gen").exists()


def test_run_and_export_validate_once(capsys, monkeypatch, abs_path, tmp_path):
    from tlmforge import cli, codegen, sysdesc

    calls = []
    real = sysdesc.validate_description

    def counting(desc):
        calls.append(desc)
        return real(desc)

    for module in (sysdesc, cli, codegen):
        if hasattr(module, "validate_description"):
            monkeypatch.setattr(module, "validate_description", counting)
    for argv in (("run", abs_path, "--trace", tmp_path / "t.csv"),
                 ("export", abs_path, "--out", tmp_path / "gen")):
        calls.clear()
        assert invoke(capsys, *map(str, argv))[0] == 0
        assert len(calls) == 1


def test_every_command_reports_diagnostics_like_validate(capsys, broken_path, abs_path, tmp_path):
    trace = tmp_path / "t.csv"
    assert invoke(capsys, "run", str(abs_path), "--trace", str(trace))[0] == 0
    code, expected, err = invoke(capsys, "validate", str(broken_path))
    assert (code, err) == (1, "")
    assert expected.startswith("E003 bindings[0]:")
    for argv in (("run", broken_path, "--trace", tmp_path / "r.csv"),
                 ("export", broken_path, "--out", tmp_path / "gen"),
                 ("check", broken_path, trace)):
        assert invoke(capsys, *map(str, argv)) == (1, expected, "")
    assert not (tmp_path / "r.csv").exists()
    assert not (tmp_path / "gen").exists()


def test_bad_quantum_is_reported_before_the_description(capsys, broken_path):
    code, out, err = invoke(capsys, "run", str(broken_path), "--quantum", "fast")
    assert (code, out) == (2, "")
    assert err == "error: bad time 'fast': expected <number><ps|ns|us|ms|s>\n"


# Digits outside ASCII: Unicode superscripts and Arabic-Indic digits, and a
# separator or blank that int() and bytes.fromhex() would skip.
@pytest.mark.parametrize("path,value,expected", [
    (("modules", 1, "connections"), {"²": [0, 1, 2, 3]},
     "E-TYPE modules[1].connections[²] (70:14): connection key '²' must be a socket index"),
    (("modules", 1, "connections"), {"١": [0, 1, 2, 3]},
     "E-TYPE modules[1].connections[١] (70:14): connection key '١' must be a socket index"),
    (("modules", 1, "address_map"), {"²": ["0x0", "0x40"]},
     "E-TYPE modules[1].address_map[²] (78:14): address_map key '²' must be a socket index"),
    (("modules", 0, "workload", 0, "address"), "0x١٠",
     "E-TYPE modules[0].workload[0].address (56:22): bad address '0x١٠': expected 0x-prefixed hex"),
    (("modules", 0, "workload", 0, "address"), "0x1_0",
     "E-TYPE modules[0].workload[0].address (56:22): bad address '0x1_0': expected 0x-prefixed hex"),
    (("modules", 0, "workload", 0, "address"), "0x10 ",
     "E-TYPE modules[0].workload[0].address (56:22): bad address '0x10 ': expected 0x-prefixed hex"),
    (("modules", 0, "workload", 0, "data"), "de  ad",
     "E-TYPE modules[0].workload[0].data (57:19): bad hex data 'de  ad'"),
    (("modules", 0, "delay"), "١٠ns",
     "E-TYPE modules[0].delay (51:16): bad time '١٠ns': expected <number><ps|ns|us|ms|s>"),
    (("cpus", 0, "frequency"), "١GHz",
     "E-TYPE cpus[0].frequency (5:20): bad frequency '١GHz': expected <number><GHz|MHz|kHz|Hz>"),
    (("cpus", 0, "frequency"), "1/٣GHz",
     "E-TYPE cpus[0].frequency (5:20): bad frequency '1/٣GHz': expected <number><GHz|MHz|kHz|Hz>"),
    (("modules", 1, "bandwidth"), "٣",
     "E-TYPE modules[1].bandwidth (77:20): bad rational '٣'"),
])
def test_non_ascii_digits_are_type_errors(capsys, tmp_path, abs_text, path, value, expected):
    desc = edited_abs(tmp_path, abs_text, path, value)
    assert invoke(capsys, "validate", desc) == (1, expected + "\n", "")


def edited_abs(tmp_path, abs_text, path, value) -> str:
    """Writes abs.json, indented by 2, with the value at ``path`` replaced
    (or removed, for None)."""
    doc = json.loads(abs_text)
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    if value is None:
        target.pop(key, None)
    else:
        target[key] = value
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps(doc, indent=2, ensure_ascii=False), encoding="utf-8")
    return str(desc)


BRAKE = ("modules", 0)  # the ABS initiator
BRAKE_WRITE = BRAKE + ("workload", 0)


@pytest.mark.parametrize("path,value,expected", [
    (BRAKE_WRITE + ("repeat",), -1,
     "E-TYPE modules[0].workload[0].repeat (59:21): expected an integer >= 0, got -1"),
    (BRAKE_WRITE + ("command",), "FLY",
     "E-TYPE modules[0].workload[0].command (55:22): unknown command 'FLY'"),
    (BRAKE + ("bandwidth",), [1],
     "E-TYPE modules[0].bandwidth (62:20): expected bytes-per-ns, got array"),
    (BRAKE + ("bandwidth",), 0,
     "E-TYPE modules[0].bandwidth (62:20): bandwidth must be positive, got 0"),
    (BRAKE_WRITE + ("data",), "abc",
     "E-TYPE modules[0].workload[0].data (57:19): hex data needs an even number of digits"),
    (BRAKE_WRITE + ("data",), "",
     "E-TYPE modules[0].workload[0].data (57:19): data must hold at least one byte"),
    (BRAKE_WRITE + ("data",), "zz",
     "E-TYPE modules[0].workload[0].data (57:19): bad hex data 'zz'"),
])
def test_initiator_value_refusals(capsys, tmp_path, abs_text, path, value, expected):
    desc = edited_abs(tmp_path, abs_text, path, value)
    assert invoke(capsys, "validate", desc) == (1, expected + "\n", "")


def test_a_float_bandwidth_simulates_like_its_fraction(capsys, tmp_path, abs_text):
    traces = []
    for value in (0.5, "1/2", None):
        desc = edited_abs(tmp_path, abs_text, BRAKE + ("bandwidth",), value)
        code, out, err = invoke(capsys, "run", desc)
        assert (code, err) == (0, "")
        traces.append(out)
    assert traces[0] == traces[1] != traces[2]


def test_an_initiator_transfer_past_64_bits_is_a_runtime_error(capsys, tmp_path, abs_text):
    """bytes(2**32 - 1) is zero pages nobody touches: the transfer time overflows first."""
    doc = json.loads(abs_text)
    doc["modules"][0]["bandwidth"] = "1/1000000000000"
    write = doc["modules"][0]["workload"][0]
    del write["data"]
    write["length"] = 2**32 - 1
    path = write_description(tmp_path, doc)
    assert invoke(capsys, "run", path) == (
        3, "", "error: transfer time 4294967295000000000000000 ps exceeds the 64-bit range\n")


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="int() takes a 5000-digit literal on this interpreter")
@pytest.mark.parametrize("command", ["validate", "run", "check", "export"])
def test_an_integer_past_the_digit_limit_is_a_syntax_error(capsys, tmp_path, abs_path, abs_text,
                                                           command):
    """int() refuses more digits than sys.get_int_max_str_digits(); that
    ValueError used to escape every command as a traceback."""
    path = tmp_path / "desc.json"
    path.write_text(abs_text.replace('"sockets": 1,', '"sockets": %s,' % ("9" * 5000)),
                    encoding="utf-8")
    trace = tmp_path / "t.csv"
    assert invoke(capsys, "run", str(abs_path), "--trace", str(trace))[0] == 0
    argv = {"validate": [path], "run": [path], "check": [path, trace],
            "export": [path, "--out", tmp_path / "gen"]}[command]
    code, out, err = invoke(capsys, command, *map(str, argv))
    assert (code, out, err) == (1, "E-SYNTAX 19:18: integer literal too long\n", "")


@pytest.mark.parametrize("command", ["validate", "run", "check", "export"])
def test_a_float_past_the_exponent_decimal_holds_is_a_syntax_error(capsys, tmp_path, abs_path,
                                                                  abs_text, command):
    """Decimal refuses such a literal with InvalidOperation, an ArithmeticError that
    would escape every command as a traceback."""
    path = tmp_path / "desc.json"
    path.write_text(abs_text.replace('"sockets": 1,', '"sockets": 1e1000000000000000000,'),
                    encoding="utf-8")
    trace = tmp_path / "t.csv"
    assert invoke(capsys, "run", str(abs_path), "--trace", str(trace))[0] == 0
    argv = {"validate": [path], "run": [path], "check": [path, trace],
            "export": [path, "--out", tmp_path / "gen"]}[command]
    code, out, err = invoke(capsys, command, *map(str, argv))
    assert (code, out, err) == (1, "E-SYNTAX 19:18: number out of range\n", "")


@pytest.mark.parametrize("char", ["\t", "\x00", "\x1f"])
def test_a_raw_control_character_in_a_string_is_a_syntax_error(capsys, tmp_path, abs_text, char):
    """RFC 8259 section 7: a control character in a string must be escaped."""
    path = tmp_path / "desc.json"
    path.write_text(abs_text.replace('"Brake"', f'"Br{char}ake"', 1), encoding="utf-8")
    assert invoke(capsys, "validate", str(path)) == (
        1, f"E-SYNTAX 41:17: control character {char!r} inside string\n", "")


def test_non_ascii_digit_in_a_number_is_a_syntax_error(capsys, tmp_path, abs_text):
    path = tmp_path / "desc.json"
    path.write_text(abs_text.replace('"sockets": 1,', '"sockets": 1١,'), encoding="utf-8")
    assert invoke(capsys, "validate", str(path)) == (
        1, "E-SYNTAX 19:19: expected ',' or '}' in object\n", "")


# Values and keys that int(), bytes.fromhex() or \d would take but a description must not.
NOT_ASCII_DIGITS = ["²", "١", "٣٠", "0x١٠", "0x1_0", "0x10 ", "١٠ns", "1/٣GHz", "٣", "de  ad"]


@given(seed=st.integers(0, 2**32), edits=st.lists(st.tuples(
    st.sampled_from(["value", "key", "socket_key"]), st.integers(0, 10**6),
    st.sampled_from(NOT_ASCII_DIGITS)), max_size=3))
def test_validate_never_raises(seed, edits):
    """``validate`` ends in exit 0 or 1 on any mutated description, never in a traceback.

    Only ``validate``: ``run`` and ``export`` allocate storage and sockets by the
    described size, which has no total bound yet (ROADMAP item 5).  For the same reason
    the mutations hold no large positive integer: a template's ``length`` of up
    to 2**32 - 1 bytes is allocated while the description is parsed.
    """
    (_, text), = descmut.cases(seed, 1)
    doc = json.loads(text)
    objects = [v for _, v in descmut.walk(doc) if isinstance(v, dict)]
    socket_keyed = [v for p, v in descmut.walk(doc)
                    if p and p[-1] in ("connections", "address_map") and isinstance(v, dict) and v]
    for how, pick, odd in edits:
        targets = socket_keyed if how == "socket_key" and socket_keyed else objects
        target = targets[pick % len(targets)]
        if how == "value" and target:
            target[list(target)[pick % len(target)]] = odd
        elif target:
            target[odd] = target.pop(list(target)[pick % len(target)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "desc.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert run_command(["validate", str(path)]) in (0, 1)


def test_a_parser_kept_across_calls_answers_as_a_fresh_process(capsys, monkeypatch, abs_path):
    """run_command builds its parser once per process; a usage error, a success and
    --version in one process answer as each does alone."""
    calls = [["validate"], ["validate", str(abs_path)], ["--version"]]
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(tlmforge.__file__).parents[1])}
    alone = [subprocess.run([sys.executable, "-m", "tlmforge.cli", *argv], capture_output=True,
                            text=True, env=env, timeout=60) for argv in calls]
    together = [invoke(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in together] == [2, 0, 0]
    assert together == [(done.returncode, done.stdout, done.stderr) for done in alone]
    assert cli._build_parser() is cli._build_parser()


# -- the cyclic garbage collector is held off while a command runs


@contextlib.contextmanager
def collector(enabled: bool):
    """The cyclic garbage collector on or off for the block, then as it was."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("argv, expected", [
    (["validate", "{abs}"], 0),
    (["validate", "{broken}"], 1),
    (["validate", "{missing}"], 2),
    (["run", "{abs}", "--event-limit", "1"], 3),
], ids=["exit 0", "exit 1", "exit 2", "exit 3"])
def test_a_command_leaves_the_collector_as_it_found_it(capsys, abs_path, broken_path, tmp_path,
                                                      monkeypatch, argv, expected, enabled):
    """The command itself runs with the collector off, whatever the caller chose."""
    during = []
    require_valid = cli.require_valid

    def watched(desc):
        during.append(gc.isenabled())
        return require_valid(desc)
    monkeypatch.setattr(cli, "require_valid", watched)
    paths = {"abs": abs_path, "broken": broken_path, "missing": tmp_path / "nope.json"}
    with collector(enabled):
        assert run_command([a.format(**paths) for a in argv]) == expected
        assert gc.isenabled() is enabled
    assert during == ([False] if expected in (0, 1) else [])  # exit 2 and 3 never validate here


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_an_exception_that_escapes_a_command_restores_the_collector(monkeypatch, abs_path,
                                                                   enabled):
    def boom(desc):
        raise RuntimeError("not a refusal")
    monkeypatch.setattr(cli, "require_valid", boom)
    with collector(enabled):
        with pytest.raises(RuntimeError, match="not a refusal"):
            run_command(["validate", str(abs_path)])
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["--version"], ["frobnicate"],
                                  ["run"]])
def test_a_usage_exit_leaves_the_collector_untouched(capsys, monkeypatch, argv):
    touched = []
    monkeypatch.setattr(gc, "disable", lambda: touched.append("disable"))
    monkeypatch.setattr(gc, "enable", lambda: touched.append("enable"))
    assert run_command(argv) in (0, 2)
    assert touched == []


def cyclic_garbage_of_a_second_run(argv: list[str]) -> tuple[int, int]:
    """The exit code of a command run twice in one process, and how many objects the
    collector finds unreachable after the second run, with it held off around that run.
    The first run makes what a process makes once: imports, caches, the parser."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        first = run_command(argv)
        with collector(False):
            gc.collect()
            second = run_command(argv)
            garbage = gc.collect()
    assert first == second
    return second, garbage


@pytest.mark.parametrize("repeat", [1, 2000])
@pytest.mark.parametrize("quantum", ["0ps", "1us"])
def test_a_run_leaves_no_cyclic_garbage(tmp_path, abs_text, repeat, quantum):
    """The safety fence of the collector's hold: a command makes no reference cycle.
    A change that makes a cycle per transaction fails here instead of leaking while
    the collector is held off."""
    desc = edited_abs(tmp_path, abs_text, BRAKE_WRITE + ("repeat",), repeat)
    argv = ["run", desc, "--quantum", quantum, "--trace", str(tmp_path / "t.csv")]
    assert cyclic_garbage_of_a_second_run(argv) == (0, 0)


def test_a_refused_run_leaves_no_cyclic_garbage(abs_path):
    argv = ["run", str(abs_path), "--event-limit", "1"]
    assert cyclic_garbage_of_a_second_run(argv) == (3, 0)


@pytest.mark.parametrize("command, code", [
    (["render", "{trace}", "--svg", "{svg}"], 0),
    (["render", "{trace}", "--text"], 0),
    (["check", "{desc}", "{trace}"], 1),  # 2000 WRITEs end past Brake's 16 ns deadline
    (["validate", "{desc}"], 0),
    (["export", "{desc}", "--out", "{gen}"], 0),
], ids=["render --svg", "render --text", "check", "validate", "export"])
def test_every_other_command_leaves_no_cyclic_garbage(capsys, tmp_path, abs_text, command,
                                                       code):
    desc = edited_abs(tmp_path, abs_text, BRAKE_WRITE + ("repeat",), 2000)
    trace = str(tmp_path / "t.csv")
    assert invoke(capsys, "run", desc, "--trace", trace)[0] == 0
    paths = {"desc": desc, "trace": trace, "svg": tmp_path / "t.svg", "gen": tmp_path / "gen"}
    assert cyclic_garbage_of_a_second_run([a.format(**paths) for a in command]) == (code, 0)
