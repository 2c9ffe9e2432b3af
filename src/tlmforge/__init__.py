"""Transaction-level virtual platform simulator.

Takes a declarative description of CPUs, virtual buses, and initiator,
router, and target modules; runs it on a deterministic discrete-event
kernel with frequency-scaled component timing; logs per-instance
start/end traces; renders timing diagrams; checks deadline constraints;
and exports standard TLM-2.0 source text.
"""

__version__ = "0.1.0"
