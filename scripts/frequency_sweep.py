#!/usr/bin/env python3
"""Sweep the brake controller's CPU frequency and tabulate system latency.

Shows how the end-to-end time of the ABS model reacts when only Cpu0 (the
initiator's processor) gets faster while the rest of the platform stays
fixed: the 10 ns compute phase shrinks, the transport path does not.
"""

import sys
from fractions import Fraction
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from tlmforge.simtime import format_ns                       # noqa: E402
from tlmforge.sysdesc import elaborate, parse_description    # noqa: E402
from tlmforge.trace import end_to_end_latency                # noqa: E402

SWEEP = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4), Fraction(5), Fraction(10)]


def main() -> None:
    desc, diags = parse_description((REPO / "fixtures" / "abs.json").read_text(encoding="utf-8"))
    assert desc is not None, diags

    print(f"{'Cpu0 [GHz]':>12} | {'Brake latency [ns]':>20}")
    print("-" * 35)
    for freq in SWEEP:
        desc.cpus[0].frequency_ghz = freq
        model = elaborate(desc)
        model.run()
        latency = end_to_end_latency(model.records, "Brake")
        print(f"{str(freq):>12} | {format_ns(latency):>20}")


if __name__ == "__main__":
    main()
