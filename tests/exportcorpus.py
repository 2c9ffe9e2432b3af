"""Seeded valid descriptions whose TLM export bundles are pinned by sha256.

The corpus is ``fixtures/abs.json``, a valid variant of the ``descmut`` base
document (``map_document``), each descmut mutation that parses and
validates, and ``COUNT`` seeded platforms.
A platform is a ``topogen`` topology (CPUs, buses, instances, bindings) plus
one to four extra module specs that no instance uses, drawn so that every
emitter branch is reached: bandwidth on initiators, routers and targets,
initiators with no workload, READ, WRITE and IGNORE templates (zero-filled
data included), targets with several sockets and with DMI allowed, and
routers with in-sockets that have no connection entry, repeated outs,
single-out and several-out broadcasts, and address maps that leave some
connected outs unmapped.  Extra module names are never equal to another
name but for letter case, so each bundle is the same whichever name the
include guards are built from.

``tests/golden/export_corpus.txt`` holds one ``label sha256`` line per
description; regenerate it only when the exported text is meant to change::

    PYTHONPATH=src python tests/exportcorpus.py > tests/golden/export_corpus.txt
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction

import descmut
import topogen
from tlmforge.codegen import export_tlm
from tlmforge.components import (
    InitiatorSpec,
    RouterSpec,
    TargetSpec,
    TransactionTemplate,
)
from tlmforge.payload import Command
from tlmforge.sysdesc import parse_description, validate_description

SEED = 20261018
COUNT = 300

# Prefixes that sanitize differently: '.' and '-' become '_' (so "ext.3" and
# "ext-3" need a suffix), and a leading digit gets a leading '_'.
PREFIXES = ["Ext", "ext.", "ext-", "9ext"]


def _bandwidth(rng: random.Random) -> Fraction | None:
    return Fraction(rng.randint(1, 64), rng.choice([1, 2, 3])) if rng.random() < 0.5 else None


def _initiator(rng: random.Random, name: str) -> InitiatorSpec:
    sockets = rng.randint(1, 2)
    workload = tuple(
        TransactionTemplate(
            rng.choice([Command.READ, Command.WRITE, Command.IGNORE]),
            rng.randrange(0, 1 << rng.choice([8, 16, 40])),
            bytes(rng.randint(1, 6)) if rng.random() < 0.3 else rng.randbytes(rng.randint(1, 6)),
            rng.randrange(sockets), rng.randint(1, 3))
        for _ in range(rng.choice([0, 0, 1, 2, 3])))
    return InitiatorSpec(name, rng.randint(0, 50_000), sockets, workload, _bandwidth(rng))


def _target(rng: random.Random, name: str) -> TargetSpec:
    delays = tuple(rng.randint(0, 50_000) for _ in range(rng.randint(1, 3)))
    return TargetSpec(name, delays, rng.randrange(0, 1 << 20), rng.randint(1, 64),
                      rng.randrange(256), rng.random() < 0.5, _bandwidth(rng))


def _router(rng: random.Random, name: str) -> RouterSpec:
    ins, outs = rng.randint(1, 3), rng.randint(1, 4)
    connections = {i: tuple(rng.randrange(outs) for _ in range(rng.randint(1, 3)))
                   for i in range(ins) if rng.random() < 0.75}
    address_map = None
    if rng.random() < 0.5:
        address_map, base = {}, rng.randrange(0, 4096)
        for out in rng.sample(range(outs), outs):
            if rng.random() < 0.7:
                size = rng.randint(1, 4096)
                address_map[out] = (base, base + size)
                base += size + rng.choice([0, 0, 64])
    return RouterSpec(name, rng.randint(0, 50_000), ins, outs, connections, address_map,
                      _bandwidth(rng))


def platform(rng: random.Random):
    """A topogen topology plus extra, uninstantiated module specs."""
    d = topogen.random_topology(rng)
    for k in range(rng.randint(1, 4)):
        make = rng.choice([_initiator, _target, _router])
        d.modules.append(make(rng, f"{rng.choice(PREFIXES)}{k}"))
    return d


def map_document() -> dict:
    """The descmut base made valid, with its ``Map`` router in use: the
    ``length`` template WRITEs, and a second initiator reaches two more
    targets through ``Map``, whose in-socket 1 stays unbound."""
    doc = descmut.base_document()
    doc["modules"][0]["workload"][-1]["command"] = "WRITE"
    doc["modules"].append({"kind": "initiator", "name": "Core", "delay": "3ns", "sockets": 1,
                           "workload": [{"command": "READ", "address": "0x50", "length": 8}]})
    doc["instances"] += [{"name": "core", "module": "Core", "cpu": "Cpu1"},
                         {"name": "map", "module": "Map", "cpu": "Cpu1"},
                         {"name": "mem0", "module": "Module2", "cpu": "Cpu2"},
                         {"name": "mem1", "module": "Module2", "cpu": "Cpu3"}]
    doc["bindings"] += [{"from": ["core", 0], "to": ["map", 0]},
                        {"from": ["map", 0], "to": ["mem0", 0]},
                        {"from": ["map", 1], "to": ["mem1", 0]}]
    return doc


def descriptions(seed: int = SEED, count: int = COUNT):
    """Yield (label, description) for every valid description of the corpus."""
    yield "abs", parse_description(descmut.FIXTURE.read_text(encoding="utf-8"))[0]
    yield "descmut map", parse_description(json.dumps(map_document()))[0]
    for i, (_, text) in enumerate(descmut.cases()):
        d, diags = parse_description(text)
        if d is not None and not validate_description(d):
            yield f"descmut {i}", d
    rng = random.Random(seed)
    for i in range(count):
        d = platform(rng)
        if not validate_description(d):
            yield f"platform {i}", d


def bundle_digest(d) -> str:
    h = hashlib.sha256()
    for name, text in export_tlm(d).items():
        h.update(f"{name}\0{text}\0".encode("utf-8"))
    return h.hexdigest()


def golden_text(seed: int = SEED, count: int = COUNT) -> str:
    return "".join(f"{label} {bundle_digest(d)}\n" for label, d in descriptions(seed, count))


if __name__ == "__main__":
    sys.stdout.write(golden_text())
