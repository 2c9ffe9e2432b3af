#!/usr/bin/env python3
"""tlmforge benchmark: seeded workloads, CLI-level metrics, a per-layer traced run.

    python3 perfbench/run.py --workload abs_stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics
(medians over the rounds that fit in ``--seconds``); with ``--trace 1`` it
reports the per-layer metrics instead.  Both first run an oracle round that
checks every output, then time rounds, then print one JSON object as the
last line of stdout.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import gc
import hashlib
import io
import json
import os
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
MIN_ROUNDS = 3
# A timed sample repeats a call until this much time has passed and reports
# the mean, so a 4 ms call (and its file I/O) is averaged over about sixty
# calls rather than timed one at a time.
MIN_SAMPLE_S = 0.25
# Seconds one calibration chunk takes on the reference host (2-core x86-64
# VM, CPython 3.11).  Every reported time is rescaled by CAL_REF_S / (mean
# chunk seconds measured around and between its calls); see calibration_s.
CAL_REF_S = 0.0014
CAL_BRACKET = 10  # chunks before and after every timed sample

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "sim_txn_per_s": "1/s", "render_s": "s",
    "check_s": "s", "export_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
}

# The peak-RSS probe: a fresh interpreter runs the user's full pipeline.
RSS_CHILD = """
import contextlib, json, os, sys
sys.path.insert(0, sys.argv[1])
from tlmforge.cli import run_command
codes = []
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    for argv in json.loads(sys.argv[2]):
        codes.append(run_command(argv))
sys.exit(max(codes))
"""


class Ledger:
    """Counts operations (CLI calls and oracle checks) and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class _Cal:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: str):
        self.a = a
        self.b = b


def calibration_s() -> float:
    """Seconds a fixed, bench-owned interpreter loop takes right now.

    The host's speed drifts by tens of percent between seconds and between
    processes, alike for this loop and for the program, so each sample is
    divided by chunks of this loop run around and between its calls.  The
    collector is off so that the program's live heap cannot change the
    loop's cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        d: dict[str, int] = {}
        out = []
        for i in range(2_000):
            k = f"k{i % 97}"
            d[k] = d.get(k, 0) + i
            c = _Cal(i, k)
            out.append(c.a + len(c.b))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def bracket() -> list[float]:
    return [calibration_s() for _ in range(CAL_BRACKET)]


def calibrated(raw_s: float, chunks: list[float]) -> float:
    """Host seconds rescaled to the reference host's speed."""
    return raw_s * CAL_REF_S * len(chunks) / sum(chunks)


class Spans:
    """Spans kept in memory: name, start, end, parent (seconds since creation)."""

    def __init__(self) -> None:
        self.items: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.items), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self._t0, "end": None}
        self.items.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def timed(self, name: str, fn):
        """Run ``fn`` in a span whose ``scale`` calibrates its duration."""
        chunks = bracket()
        with self.span(name) as rec:
            result = fn()
        rec["scale"] = calibrated(1.0, chunks + bracket())
        return result

    def durations(self, name: str) -> list[float]:
        """Calibrated durations of every span with this name."""
        return [(r["end"] - r["start"]) * r.get("scale", 1.0)
                for r in self.items if r["name"] == name]

    def dump(self, path: Path) -> None:
        """Write every span with its self time (duration minus its children's)."""
        child_time = [0.0] * len(self.items)
        for r in self.items:
            if r["parent"] is not None:
                child_time[r["parent"]] += r["end"] - r["start"]
        rows = [dict(r, self=r["end"] - r["start"] - child_time[r["id"]]) for r in self.items]
        path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def timed(fn, min_s: float = MIN_SAMPLE_S, prepare=None):
    """Call ``fn`` until its calls add up to ``min_s``, with a calibration
    chunk between calls.  Returns (calibrated seconds per call, last result).

    With ``prepare``, each call is ``fn(prepare())`` and ``prepare`` is not timed.
    """
    chunks = bracket()
    calls = 0
    elapsed = 0.0
    while True:
        args = () if prepare is None else (prepare(),)
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed += time.perf_counter() - t0
        calls += 1
        if elapsed >= min_s:
            return calibrated(elapsed / calls, chunks + bracket()), result
        chunks.append(calibration_s())


class Bench:
    """One workload at one seed: its generated inputs, files and the program's API."""

    def __init__(self, name: str, seed: int, ledger: Ledger):
        from tlmforge import cli, codegen, components, jsontext, payload, simtime, sysdesc, trace
        self.tl = {"cli": cli, "codegen": codegen, "components": components,
                   "jsontext": jsontext, "payload": payload, "simtime": simtime,
                   "sysdesc": sysdesc, "trace": trace}
        self.ledger = ledger
        self.w = workloads.generate(name, seed, ROOT)
        self.seed = seed
        self.dir = OUT / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.desc_path = self.dir / "desc.json"
        self.desc_path.write_text(self.w.text, encoding="utf-8")
        self.trace_path = self.dir / "trace.csv"
        self.svg_path = self.dir / "diagram.svg"
        self.gen_dir = self.dir / "gen"
        self.reference: dict[str, str] | None = None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- the program, called in-process

    def cli(self, *argv: str) -> tuple[int | None, str]:
        """One ``tlmforge`` invocation through ``run_command``; None if it raised."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = self.tl["cli"].run_command(list(argv))
        except Exception:  # a traceback is a failed operation, not a crash of the bench
            return None, out.getvalue() + traceback.format_exc()
        return code, out.getvalue()

    def commands(self) -> dict[str, list[str]]:
        """The user's artifact drop, as in scripts/run_abs.py, by CLI step."""
        desc, tr = str(self.desc_path), str(self.trace_path)
        return {"validate": ["validate", desc], "run": ["run", desc, "--trace", tr],
                "render": ["render", tr, "--svg", str(self.svg_path)],
                "check": ["check", desc, tr], "export": ["export", desc, "--out", str(self.gen_dir)]}

    def setup(self):
        """Description text to a model ready to run, as ``tlmforge run`` does it."""
        sysdesc = self.tl["sysdesc"]
        desc, diags = sysdesc.parse_description(self.w.text)
        if desc is None or sysdesc.validate_description(desc):
            raise RuntimeError(f"generated {self.w.name} description does not validate: {diags}")
        self.desc = desc
        return sysdesc.elaborate(desc)

    def elaborate(self):
        """A fresh model of the last description ``setup`` parsed."""
        return self.tl["sysdesc"].elaborate(self.desc)

    @staticmethod
    def simulate(model):
        model.run()
        return model

    def outputs(self) -> dict[str, str]:
        """sha256 of the trace, SVG and export bundle files the CLI wrote."""
        bundle = hashlib.sha256()
        for path in sorted(self.gen_dir.iterdir()):
            bundle.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        return {"trace": sha256(self.trace_path.read_bytes()),
                "svg": sha256(self.svg_path.read_bytes()), "export": bundle.hexdigest()}

    # -- the oracle round: every output against the workload's expectations

    def oracle_round(self) -> None:
        """Run the pipeline once untimed and check it."""
        w, check, tr = self.w, self.ledger.check, self.tl["trace"]
        model = self.setup()
        model.run()
        self.check_model(model)
        api_text = tr.write_trace(model.records)
        ordered = sorted(model.records, key=lambda r: (r.start, r.instance, r.activation))
        check(tr.parse_trace(api_text) == ordered, "parse_trace(write_trace(r)) != r")

        steps = self.commands()
        for step, argv in steps.items():
            code, out = self.cli(*argv)
            check(code == 0, f"{step} exited {code}: {out[-400:]}")
            if step == "check":
                check(out.rstrip().endswith("result: PASS"), f"check verdict is not PASS: {out}")
        code, chart = self.cli("render", str(self.trace_path), "--text")
        check(code == 0, f"render --text exited {code}")

        text = self.trace_path.read_text(encoding="utf-8")
        check(text == api_text, "CLI trace differs from the API trace")
        records = tr.parse_trace(text)
        check(len(records) == w.trace_records,
              f"trace has {len(records)} records, expected {w.trace_records}")
        check(all(r.status.value == "OK" for r in records), "a trace record is not OK")
        check(max(r.end for r in records) == w.final_ps,
              f"final time {max(r.end for r in records)} ps, expected {w.final_ps} ps")
        mine = [r for r in records if r.instance == w.initiator]
        check(len(mine) == w.transactions,
              f"{len(mine)} initiator activations, expected {w.transactions}")
        if w.fixed_latency_ps is not None:
            check(all(r.end - r.start == w.fixed_latency_ps for r in mine),
                  f"an activation does not take exactly {w.fixed_latency_ps} ps")
        files = sorted(p.name for p in self.gen_dir.iterdir())
        check(len(files) == w.export_files,
              f"export wrote {len(files)} files, expected {w.export_files}")

        # IEEE 1666-2011 quantum keeper: the quantum moves kernel events, never results.
        alt = self.dir / "trace_alt_quantum.csv"
        code, out = self.cli("run", str(self.desc_path), "--trace", str(alt),
                             "--quantum", self.alt_quantum())
        check(code == 0, f"run --quantum {self.alt_quantum()} exited {code}: {out[-400:]}")
        check(code == 0 and alt.read_text(encoding="utf-8") == text,
              f"trace under quantum {self.alt_quantum()} differs")

        self.reference = self.outputs()
        digests = dict(self.reference, text=sha256(chart))
        if self.seed == DEFAULT_SEED:
            committed = json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"].get(w.name)
            for key, value in digests.items():
                check(committed is not None and committed.get(key) == value,
                      f"{key} bytes differ from the committed digest")

    def alt_quantum(self) -> str:
        """A quantum other than the description's, for the invariance check."""
        return "1us" if self.w.quantum == "0ps" else "0ps"

    def check_model(self, model) -> None:
        """Checks on a simulated model: final time and mirror storage."""
        check = self.ledger.check
        final = max((r.end for r in model.records), default=0)
        check(final == self.w.final_ps, f"simulated final time {final} ps != {self.w.final_ps} ps")
        for name, image in self.w.mirrors.items():
            check(bytes(model.instances[name].storage.data) == image,
                  f"{name} storage differs from the written bytes")

    def check_outputs(self) -> None:
        """Every later round must write the oracle round's bytes again."""
        now = self.outputs()
        for key, value in self.reference.items():
            self.ledger.check(now[key] == value, f"{key} bytes changed between rounds")

    def step(self, argv: list[str]) -> float:
        """Time one CLI step (repeated up to MIN_SAMPLE_S) and check its exit code."""
        seconds, (code, out) = timed(lambda: self.cli(*argv))
        self.ledger.check(code == 0, f"{argv[0]} exited {code}: {out[-400:]}")
        return seconds

    # -- end-to-end rounds

    def e2e_round(self) -> dict[str, float]:
        gc.collect()
        setup_s, model = timed(self.setup)
        sim_s, model = timed(self.simulate, prepare=self.elaborate)
        self.check_model(model)
        sample = {"setup_s": setup_s, "sim_txn_per_s": self.w.transactions / sim_s}
        for step, argv in self.commands().items():
            sample[f"{step}_s"] = self.step(argv)
        self.check_outputs()
        sample["pipeline_s"] = sum(sample[f"{s}_s"] for s in
                                   ("validate", "run", "render", "check", "export"))
        return sample

    def peak_rss_mb(self) -> float:
        """Peak RSS of a fresh interpreter running validate, run, render, check, export."""
        argv = [sys.executable, "-c", RSS_CHILD, str(ROOT / "src"),
                json.dumps(list(self.commands().values()))]
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.ledger.check(False, "peak-RSS child timed out")
            return 0.0
        self.ledger.check(proc.returncode == 0, f"peak-RSS child exited {proc.returncode}: "
                          f"{err.decode(errors='replace')[-400:]}")
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # -- per-layer rounds

    def layer_round(self, spans: Spans) -> None:
        """Time each public layer call from here, one span per call."""
        gc.collect()
        tl, t = self.tl, spans.timed
        text = self.w.text
        with spans.span("round"):
            t("jsontext.parse_json", lambda: tl["jsontext"].parse_json(text))
            desc, _ = t("sysdesc.parse_description", lambda: tl["sysdesc"].parse_description(text))
            t("sysdesc.validate_description", lambda: tl["sysdesc"].validate_description(desc))
            model = t("sysdesc.elaborate", lambda: tl["sysdesc"].elaborate(desc))
            t("kernel.run", model.run)
            self.check_model(model)
            trace_text = t("trace.write_trace", lambda: tl["trace"].write_trace(model.records))
            records = t("trace.parse_trace", lambda: tl["trace"].parse_trace(trace_text))
            t("trace.render_svg", lambda: tl["trace"].render_svg(records))
            t("trace.render_text", lambda: tl["trace"].render_text(records))
            t("trace.check_constraints",
              lambda: tl["trace"].check_constraints(records, desc.constraints))
            t("codegen.export_tlm", lambda: tl["codegen"].export_tlm(desc))
            replay = self.storage_replay(model)
            t("components.storage_replay",
              lambda: [apply(storage, p) for apply, storage, p in replay])
            for step, argv in self.commands().items():
                code, out = t(f"cli.{step}", lambda: self.cli(*argv))
                self.ledger.check(code == 0, f"{step} exited {code}: {out[-400:]}")
            self.check_outputs()

    def storage_replay(self, model):
        """Every target access of one run as (apply_write|apply_read, storage, payload).

        With a single initiator, transaction ``k`` is the ``k``-th template
        after expanding repeats, so each target trace row maps to a template.
        """
        comp, payload = self.tl["components"], self.tl["payload"]
        initiator = next(m for m in model.instances.values()
                         if isinstance(m, comp.InitiatorModel))
        expanded = [t for t in initiator.spec.workload for _ in range(t.repeat)]
        storages = {}
        replay = []
        for r in model.records:
            target = model.instances[r.instance]
            if not isinstance(target, comp.TargetModel):
                continue
            if r.instance not in storages:
                s = target.spec
                storages[r.instance] = comp.Storage(s.storage_base, s.storage_size, s.storage_fill)
            t = expanded[r.txn_id]
            p = payload.GenericPayload(command=t.command, address=t.address,
                                       data=bytearray(t.data))
            apply = comp.apply_write if t.command is payload.Command.WRITE else comp.apply_read
            replay.append((apply, storages[r.instance], p))
        return replay


def profile(fn) -> tuple[pstats.Stats, float]:
    """cProfile one call; returns its stats and calibrated seconds."""
    prof = cProfile.Profile()
    chunks = bracket()
    t0 = time.perf_counter()
    prof.runcall(fn)
    elapsed = time.perf_counter() - t0
    return pstats.Stats(prof), calibrated(elapsed, chunks + bracket())


def ncalls(stats: pstats.Stats, file_suffix: str, func: str) -> int:
    return sum(v[1] for (f, _, n), v in stats.stats.items()
               if n == func and f.endswith(file_suffix))


MODULE_SHARES = ("jsontext", "sysdesc", "kernel", "components", "payload", "simtime",
                 "trace", "codegen", "cli")


def self_shares(stats: pstats.Stats) -> dict[str, float]:
    """cProfile self time grouped by tlmforge module, plus fractions and copy."""
    import copy
    import fractions
    groups = {str(ROOT / "src" / "tlmforge" / f"{m}.py"): m for m in MODULE_SHARES}
    groups[fractions.__file__] = "fractions"
    groups[copy.__file__] = "copy"
    total = sum(v[2] for v in stats.stats.values())
    tt = dict.fromkeys(list(MODULE_SHARES) + ["fractions", "copy"], 0.0)
    for (f, _, _), v in stats.stats.items():
        key = groups.get(f)
        if key is not None:
            tt[key] += v[2]
    return {f"{k}.self_share": v / total for k, v in tt.items()}


def e2e_metrics(bench: Bench, seconds: float) -> dict[str, tuple[float, str, int]]:
    samples: list[dict[str, float]] = []
    t_end = time.perf_counter() + seconds
    while len(samples) < MIN_ROUNDS or time.perf_counter() < t_end:
        samples.append(bench.e2e_round())
    metrics = {name: (statistics.median(s[name] for s in samples), unit, len(samples))
               for name, unit in E2E_UNITS.items() if name != "peak_rss_mb"}
    metrics["peak_rss_mb"] = (bench.peak_rss_mb(), "MB", 1)
    return metrics


def layer_metrics(bench: Bench, seconds: float) -> dict[str, tuple[float, str, int]]:
    spans = Spans()
    t_end = time.perf_counter() + seconds
    while len(spans.durations("round")) < MIN_ROUNDS or time.perf_counter() < t_end:
        bench.layer_round(spans)
    w = bench.w
    med = lambda name: statistics.median(spans.durations(name))  # noqa: E731
    m: dict[str, tuple[float, str]] = {
        "jsontext.parse_s": (med("jsontext.parse_json"), "s"),
        "jsontext.mb_per_s": (len(w.text.encode()) / 1e6 / med("jsontext.parse_json"), "MB/s"),
        "sysdesc.parse_description_s": (med("sysdesc.parse_description"), "s"),
        "sysdesc.validate_s": (med("sysdesc.validate_description"), "s"),
        "sysdesc.elaborate_s": (med("sysdesc.elaborate"), "s"),
        "kernel.simulate_s": (med("kernel.run"), "s"),
        "trace.write_s": (med("trace.write_trace"), "s"),
        "trace.parse_s": (med("trace.parse_trace"), "s"),
        "trace.render_svg_s": (med("trace.render_svg"), "s"),
        "trace.render_text_s": (med("trace.render_text"), "s"),
        "trace.check_s": (med("trace.check_constraints"), "s"),
        "codegen.export_s": (med("codegen.export_tlm"), "s"),
    }

    # Exact counts from single runs; cProfile only counts calls here.
    model = bench.setup()
    sim_stats, traced_s = profile(model.run)
    bench.check_model(model)
    replayed = sum(len(p.data) for _, _, p in bench.storage_replay(model))
    m["components.storage_bytes_per_s"] = (replayed / med("components.storage_replay"), "B/s")
    events = model.scheduler._dispatched
    m["kernel.events"] = (events, "count")
    m["kernel.events_per_txn"] = (events / w.transactions, "events/txn")
    sysdesc = bench.tl["sysdesc"]
    alt = sysdesc.elaborate(sysdesc.parse_description(w.text)[0],
                            quantum_ps=bench.tl["simtime"].parse_time(bench.alt_quantum()))
    alt.run()
    m["kernel.events_alt_quantum"] = (alt.scheduler._dispatched, "count")
    m["components.fraction_calls"] = (
        ncalls(sim_stats, "fractions.py", "__new__") / w.transactions, "calls/txn")
    m["payload.copies"] = (ncalls(sim_stats, "payload.py", "deep_copy_payload"), "count")
    m["traced.overhead_x"] = (traced_s / med("kernel.run"), "x")
    trace_text = bench.trace_path.read_text(encoding="utf-8")
    m["trace.records"] = (len(model.records), "count")
    m["trace.bytes"] = (len(trace_text.encode()), "B")

    merged = None
    for step, argv in bench.commands().items():
        stats, _ = profile(lambda: bench.cli(*argv))
        if step in ("run", "export"):
            m[f"sysdesc.validate_calls_{step}"] = (
                ncalls(stats, "sysdesc.py", "validate_description"), "count")
        merged = stats if merged is None else merged.add(stats)
    for name, share in self_shares(merged).items():
        m[name] = (share, "share")
    bench.check_outputs()
    OUT.mkdir(exist_ok=True)
    spans.dump(OUT / f"spans-{w.name}-{bench.seed}.json")
    return {k: (v, unit, len(spans.durations("round")) if unit == "s" or unit.endswith("/s")
                else 1) for k, (v, unit) in m.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "tlmforge" / "__init__.py", ROOT / "fixtures" / "abs.json"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a tlmforge checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    ledger = Ledger()
    bench = Bench(args.workload, args.seed, ledger)
    metrics: dict[str, tuple[float, str, int]] = {}
    try:
        bench.oracle_round()
        if args.trace:
            metrics = layer_metrics(bench, args.seconds)
        else:
            metrics = e2e_metrics(bench, args.seconds)
    except Exception:  # report the failure in the result line instead of a bare traceback
        ledger.check(False, traceback.format_exc())
    finally:
        bench.close()

    for what in ledger.failures:
        print(f"FAILED: {what}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"failed_ops={len(ledger.failures)}/{ledger.attempted}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit:6s} (n={n})")
    print(json.dumps({
        "correct": not ledger.failures and bool(metrics),
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
