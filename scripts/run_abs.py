#!/usr/bin/env python3
"""Run the bundled ABS model end to end and drop all artifacts into out/.

Produces the trace CSV, an SVG timing diagram, a text chart, and the
exported TLM-2.0 source bundle.
"""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from tlmforge.codegen import export_tlm                      # noqa: E402
from tlmforge.sysdesc import elaborate, parse_description    # noqa: E402
from tlmforge.simtime import format_ns                       # noqa: E402
from tlmforge.trace import (                                 # noqa: E402
    check_constraints, end_to_end_latency, render_svg, render_text, write_trace)


def main() -> None:
    out = REPO / "out"
    out.mkdir(exist_ok=True)

    desc, diags = parse_description((REPO / "fixtures" / "abs.json").read_text())
    assert desc is not None, diags
    model = elaborate(desc)
    model.run()

    (out / "abs_trace.csv").write_text(write_trace(model.records))
    (out / "abs_diagram.svg").write_text(render_svg(model.records))
    chart = render_text(model.records)
    (out / "abs_diagram.txt").write_text(chart)
    gen = out / "abs_tlm"
    gen.mkdir(exist_ok=True)
    for name, text in export_tlm(desc).items():
        (gen / name).write_text(text)

    print(chart)
    latency = end_to_end_latency(model.records, "Brake")
    print(f"Brake end-to-end latency: {format_ns(latency)} ns")
    report = check_constraints(model.records, desc.constraints)
    for check in report.checks:
        print(check)
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
