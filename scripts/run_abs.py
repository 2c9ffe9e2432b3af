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


def save(path: Path, text: str) -> None:
    """Write UTF-8 with "\\n" line ends on every platform, as the CLI does."""
    path.write_text(text, encoding="utf-8", newline="")


def main() -> None:
    out = REPO / "out"
    out.mkdir(exist_ok=True)

    desc, diags = parse_description((REPO / "fixtures" / "abs.json").read_text(encoding="utf-8"))
    assert desc is not None, diags
    model = elaborate(desc)
    model.run()

    save(out / "abs_trace.csv", write_trace(model.records))
    save(out / "abs_diagram.svg", render_svg(model.records))
    chart = render_text(model.records)
    save(out / "abs_diagram.txt", chart)
    gen = out / "abs_tlm"
    gen.mkdir(exist_ok=True)
    for name, text in export_tlm(desc).items():
        save(gen / name, text)

    print(chart)
    latency = end_to_end_latency(model.records, "Brake")
    print(f"Brake end-to-end latency: {format_ns(latency)} ns")
    for check in check_constraints(model.records, desc.constraints):
        print(check)
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
