"""Diagnostic records shared by payload validation and description checking."""

from __future__ import annotations

import re
from dataclasses import dataclass

# Lexical rule for every user-visible name (CPUs, buses, modules, instances).
# Keeps the trace CSV unambiguous and generated identifiers sane.  Match it with
# ``fullmatch``: a ``$`` anchor would also accept a name ending in a newline.
IDENTIFIER_RE = re.compile(r"[A-Za-z0-9_.\-]+")


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a human message, and where it applies.

    ``where`` is a path-like hint ("modules[1].connections"); ``line`` and
    ``column`` are set when the finding points into a concrete text document.
    """

    code: str
    message: str
    where: str = ""
    line: int | None = None
    column: int | None = None

    def __str__(self) -> str:
        loc = self.where
        if self.line is not None:
            pos = f"{self.line}:{self.column}" if self.column is not None else str(self.line)
            loc = f"{loc} ({pos})" if loc else pos
        return f"{self.code} {loc}: {self.message}" if loc else f"{self.code}: {self.message}"


def sort_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Each distinct diagnostic once, even if it was found twice, in a stable order:
    code first, then location, so repeated runs agree byte for byte."""
    return sorted(dict.fromkeys(diags),
                  key=lambda d: (d.code, d.where, d.line or 0, d.column or 0, d.message))
