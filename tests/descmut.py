"""Seeded mutations of a description, for pinning what the parser reports.

The base document is ``fixtures/abs.json`` with a bandwidth on every
module, plus one address-mapped router, a ``length`` template and an
options ``trace``.  Each case applies one to three mutations: a value
swapped for one of another type or form, a deleted key, an unknown key, an
array of the wrong length, a template given both or neither of ``data`` and
``length``, a renamed socket-index key, or several members of one object or
array damaged at once.  Every value and key is ASCII.  Most cases keep their
mutations inside one object or array, picked by kind of record with modules
weighted up, so rules that suppress or add diagnostics inside one record get
exercised together.

``render`` turns a description text into what the parser made of it: the
diagnostic lines, or ``ok`` and the text of ``topogen.serialize_description``
on one line, keeping only the top-level sections that differ from the base's.
``tests/golden/parse_diagnostics.txt`` holds the base's serialization and the
rendering of ``cases(SEED, COUNT)``; regenerate it only when the parse output
is meant to change::

    PYTHONPATH=src python tests/descmut.py > tests/golden/parse_diagnostics.txt
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

from topogen import serialize_description

from tlmforge.sysdesc import parse_description

SEED = 20260418
COUNT = 400

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "abs.json"

MAP_ROUTER = {
    "kind": "router", "name": "Map", "delay": "2ns", "in_sockets": 2, "out_sockets": 2,
    "connections": {"0": [0, 1], "1": [1]},
    "address_map": {"0": ["0x0", "0x40"], "1": ["0x40", 128]},
    "bandwidth": "1/2",
}
LENGTH_TEMPLATE = {"command": "READ", "address": 16, "length": 4, "repeat": 2, "socket": 0}

# Replacement values: every JSON kind, and strings that are valid or nearly
# valid for some member (times, frequencies, addresses, hex data, names).
# No large positive integer: a template ``length`` is allocated as it is parsed.
VALUES = [
    "x", "", "0x10", "0x", "0xzz", "0x10000000000000000", "10ns", "1.5ps", "-1ns", "1GHz",
    "1/3GHz", "0GHz", "Bad Name", "READ", "WRITE", "deadbeef", "abc", "zz", "1/0", "0", "3/2",
    0, 1, -1, 2, 7, 256, -2**63, 1.5, 0.0, -0.5, True, False, None,
    [], [0], ["x", 1], [1, 2, 3], ["0x0", "0x10"], {}, {"a": 1}, {"0": [0]},
]
UNKNOWN_KEYS = ["extra", "Kind", "cpu", "size"]
OPTIONAL_KEYS = ["bandwidth", "socket", "repeat", "dmi", "base", "fill", "trace", "address_map"]
SOCKET_KEYS = ["x", "-1", "", "9", "01", "1", "0"]


def base_document() -> dict:
    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    for module, bandwidth in zip(doc["modules"], (16, "0.5", 8)):
        module["bandwidth"] = bandwidth
    doc["modules"].append(copy.deepcopy(MAP_ROUTER))
    doc["modules"][0]["workload"].append(dict(LENGTH_TEMPLATE))
    doc["options"]["trace"] = "trace.csv"
    return doc


def walk(value, path: tuple = ()):
    """Every (path, value) pair in the document, the root included."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from walk(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from walk(child, path + (i,))


def _at(doc, path: tuple):
    for step in path:
        doc = doc[step]
    return doc


def _label(path: tuple) -> str:
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path) or "$"


def _is_template(path: tuple) -> bool:
    return len(path) >= 2 and path[-2] == "workload"


def _mutate(rng: random.Random, doc: dict, scope: tuple) -> str | None:
    """Apply one mutation inside ``scope``; returns its label or None if none applied."""
    nodes = list(walk(_at(doc, scope), scope))
    if rng.random() < 0.5:  # only the scope's own members
        nodes = [(p, v) for p, v in nodes if len(p) <= len(scope) + 1]
    kind = rng.choice(["swap", "swap", "delete", "unknown", "length", "data_length",
                       "socket_key", "scramble", "scramble", "scramble"])
    if kind == "scramble":  # damage several members of one object or array at once
        containers = [(p, v) for p, v in nodes if isinstance(v, (dict, list)) and v]
        if not containers:
            return None
        path, target = containers[0] if rng.random() < 0.7 else rng.choice(containers)
        share = rng.uniform(0.3, 0.9)
        for key in list(target) if isinstance(target, dict) else range(len(target)):
            if rng.random() < share:
                if isinstance(target, dict) and rng.random() < 0.3:
                    del target[key]
                else:
                    target[key] = copy.deepcopy(rng.choice(VALUES))
        if isinstance(target, dict) and rng.random() < 0.5:
            key = rng.choice(OPTIONAL_KEYS)
            target.setdefault(key, copy.deepcopy(rng.choice(VALUES)))
        if isinstance(target, list) and rng.random() < 0.3:
            del target[rng.randint(0, 1):]
        elif isinstance(target, list) and rng.random() < 0.3:
            target += copy.deepcopy(rng.sample(VALUES, 2))
        return f"scramble {_label(path)}"
    if kind == "swap":
        path, value = rng.choice([n for n in nodes if n[0]] or nodes)
        if not path:
            return None
        new = rng.choice([v for v in VALUES if v != value or type(v) is not type(value)])
        _at(doc, path[:-1])[path[-1]] = copy.deepcopy(new)
        return f"swap {_label(path)}={json.dumps(new)}"
    if kind == "delete":
        objects = [(p, v) for p, v in nodes if isinstance(v, dict) and v]
        if not objects:
            return None
        path, obj = rng.choice(objects)
        key = rng.choice(list(obj))
        del obj[key]
        return f"delete {_label(path + (key,))}"
    if kind == "unknown":
        objects = [(p, v) for p, v in nodes if isinstance(v, dict)]
        if not objects:
            return None
        path, obj = rng.choice(objects)
        key = rng.choice([k for k in UNKNOWN_KEYS if k not in obj] or ["extra2"])
        obj[key] = copy.deepcopy(rng.choice(VALUES))
        return f"unknown {_label(path + (key,))}"
    if kind == "length":
        arrays = [(p, v) for p, v in nodes if isinstance(v, list)]
        if not arrays:
            return None
        path, arr = rng.choice(arrays)
        how = rng.choice(["empty", "one", "grow"])
        if how == "empty":
            arr.clear()
        elif how == "one":
            del arr[1:]
        else:
            arr.append(copy.deepcopy(arr[-1] if arr and rng.random() < 0.5
                                     else rng.choice(VALUES)))
        return f"length {_label(path)} {how}"
    if kind == "data_length":
        templates = [(p, v) for p, v in nodes if _is_template(p) and isinstance(v, dict)]
        if not templates:
            return None
        path, template = rng.choice(templates)
        if rng.random() < 0.5:
            template.pop("data", None)
            template.pop("length", None)
            return f"neither {_label(path)}"
        template["data"] = rng.choice(["ab", "zz", "", 5])
        template["length"] = rng.choice([3, 0, "x"])
        return f"both {_label(path)}"
    maps = [(p, v) for p, v in nodes
            if p and p[-1] in ("connections", "address_map") and isinstance(v, dict) and v]
    if not maps:
        return None
    path, mapping = rng.choice(maps)
    old = rng.choice(list(mapping))
    new = rng.choice([k for k in SOCKET_KEYS if k not in mapping] or ["x"])
    mapping[new] = mapping.pop(old)
    return f"key {_label(path)} {old!r}->{new!r}"




def cases(seed: int = SEED, count: int = COUNT, base: dict | None = None):
    """Yield (label, description text) for ``count`` seeded mutations of ``base``."""
    rng = random.Random(seed)
    base = base_document() if base is None else base
    shapes: dict[str, list[tuple]] = {}  # containers grouped by their path with indices blanked
    for path, value in walk(base):
        if isinstance(value, (dict, list)):
            shapes.setdefault(_label(tuple("*" if isinstance(p, int) else p for p in path)),
                              []).append(path)
    # The records with the most irregular rules come up more often.
    weighted = sorted(shapes) + [shape for shape in ["$"] * 3 + [".modules.*"] * 12
                                 + [".buses.*.cpus"] * 3 + [".modules.*.socket_delays"] * 2
                                 if shape in shapes]
    for _ in range(count):
        doc = copy.deepcopy(base)
        shape = rng.choice(weighted)
        scope = rng.choice(shapes[shape]) if rng.random() < 0.8 else ()
        labels = []
        for _ in range(rng.randint(1, 3)):
            try:
                target = _at(doc, scope)
            except (KeyError, IndexError, TypeError):
                target = None
            if not isinstance(target, (dict, list)):
                scope = ()
            label = _mutate(rng, doc, scope)
            if label is not None:
                labels.append(label)
        indent = rng.choice([None, 1, 2])
        yield "; ".join(labels), json.dumps(doc, indent=indent)


def render(text: str, base: dict | None = None) -> list[str]:
    """What the parser makes of ``text``: diagnostic lines, or ``ok`` and the serialization.

    Top-level sections equal to those in ``base`` (a parsed serialization) are left out.
    """
    desc, diags = parse_description(text)
    if desc is None:
        return [str(d) for d in diags]
    doc = json.loads(serialize_description(desc))
    changed = {key: value for key, value in doc.items() if (base or {}).get(key) != value}
    return ["ok " + json.dumps(changed, separators=(",", ":"))]


def golden_text(seed: int = SEED, count: int = COUNT) -> str:
    base_text = json.dumps(base_document())
    out = ["== base"] + render(base_text)
    base = json.loads(serialize_description(parse_description(base_text)[0]))
    for i, (label, text) in enumerate(cases(seed, count)):
        out.append(f"== {i}: {label}")
        out += render(text, base)
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    sys.stdout.write(golden_text())
