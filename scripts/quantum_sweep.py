#!/usr/bin/env python3
"""Sweep the global quantum over a long ABS run and tabulate what it buys.

Temporal decoupling lets an initiator run ahead of the kernel for up to one
quantum, so a larger quantum dispatches fewer kernel events.  This repeats
the ABS model's Brake WRITE many times and prints, per quantum, the kernel
events dispatched, events per transaction and the wall time of ``run``
(the median of a few rounds, with the cyclic collector off as the CLI
holds it).  At every quantum it asserts that the trace rows, as a
multiset, and the final time equal those at quantum 0.  Wall time is
printed here only; it never enters a trace.
"""

import gc
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from tlmforge.simtime import parse_time                      # noqa: E402
from tlmforge.sysdesc import elaborate, parse_description    # noqa: E402

REPEAT = 2000
QUANTA = ["0ps", "16ns", "1us", "1s"]
ROUNDS = 9


def timed_run(desc, quantum_ps: int):
    """``(events, final time, rows, median run seconds)`` over ROUNDS fresh models."""
    times = []
    for _ in range(ROUNDS):
        model = elaborate(desc, quantum_ps=quantum_ps)
        gc.disable()
        try:
            start = time.perf_counter()
            final = model.run()
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return model.scheduler.dispatched, final, Counter(model.records), statistics.median(times)


def main() -> None:
    desc, diags = parse_description((REPO / "fixtures" / "abs.json").read_text(encoding="utf-8"))
    assert desc is not None, diags
    templates = desc.modules[0].workload  # the Brake initiator's
    for template in templates:
        template.repeat = REPEAT
    transactions = REPEAT * len(templates)

    print(f"{'quantum':>8} | {'kernel events':>13} | {'events/txn':>10} | {'run [ms]':>8}")
    print("-" * 50)
    reference = None
    for quantum in QUANTA:
        events, final, rows, seconds = timed_run(desc, parse_time(quantum))
        if reference is None:
            reference = final, rows
        assert (final, rows) == reference, f"quantum {quantum} changed the rows or final time"
        print(f"{quantum:>8} | {events:>13} | {events / transactions:>10.2f} | "
              f"{seconds * 1000:>8.1f}")


if __name__ == "__main__":
    main()
