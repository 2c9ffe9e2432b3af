"""Transaction-level virtual platform simulator.

Takes a declarative description of CPUs, virtual buses, and initiator,
router, and target modules; runs it on a deterministic discrete-event
kernel with frequency-scaled component timing; logs per-instance
start/end traces; renders timing diagrams; checks deadline constraints;
and exports standard TLM-2.0 source text.
"""

__version__ = "0.1.0"

from .kernel import QuantumKeeper, Scheduler, SimulationError, Wait
from .payload import (
    Command,
    GenericPayload,
    Phase,
    ResponseStatus,
    deep_copy_payload,
    validate_payload,
)
from .sysdesc import (
    SystemDescription,
    elaborate,
    parse_description,
    serialize_description,
    validate_description,
)
from .trace import (
    TraceRecord,
    check_constraints,
    end_to_end_latency,
    parse_trace,
    render_svg,
    render_text,
    write_trace,
)
from .codegen import export_tlm

__all__ = [
    "Command",
    "GenericPayload",
    "Phase",
    "QuantumKeeper",
    "ResponseStatus",
    "Scheduler",
    "SimulationError",
    "SystemDescription",
    "TraceRecord",
    "Wait",
    "check_constraints",
    "deep_copy_payload",
    "elaborate",
    "end_to_end_latency",
    "export_tlm",
    "parse_description",
    "parse_trace",
    "render_svg",
    "render_text",
    "serialize_description",
    "validate_description",
    "validate_payload",
    "write_trace",
    "__version__",
]
