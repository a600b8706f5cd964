"""Shared report documents and CSV output.

Every verifier and CLI run produces the same JSON shape:

    {
      "schema": "nlmarkov.report/1",
      "kind": "<what ran>",
      "parameters": {...},
      "claims": [{"name": ..., "passed": ..., "witness": {...}}, ...],
      "passed": <all claims passed>,
      "details": {...}
    }

Result dataclasses derive from ``Record`` and serialize through one
rule: each field goes out under its own name, unless its metadata says
otherwise -- ``metadata={"key": "kernel"}`` renames it and
``metadata={"key": None}`` drops it -- and a ``passed`` property, when
the class has one, is added as a key of its own.  Nested records, numpy
scalars and arrays (and anything with ``__array__``, such as a
``DiscreteMeasure``) become plain JSON values.

Documents contain no timestamps, floats serialize via repr (exact
round-trip), and keys are sorted, so a rerun with the same inputs is
byte-identical.  CSV files open with a schema comment line and print
floats with 17 significant digits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

REPORT_SCHEMA = "nlmarkov.report/1"
CSV_SCHEMA = "nlmarkov.csv/1"

__all__ = [
    "Record",
    "Claim",
    "NumericalFailure",
    "report_document",
    "write_json_report",
    "write_csv",
    "format_float",
]


class Record:
    """Base of the result dataclasses that serialize by the module's rule."""

    def to_dict(self) -> dict:
        return _plain(self)


@dataclass(frozen=True)
class Claim(Record):
    """One named pass/fail assertion with the numbers that back it."""

    name: str
    passed: bool
    witness: dict = field(default_factory=dict)


class NumericalFailure(RuntimeError):
    """A run failed numerically; the CLI exits 3 with its one-line message."""


def _plain(value):
    """Recursively convert records and numpy values so json can emit them."""
    if isinstance(value, Record):
        out = {}
        for f in fields(value):
            key = f.metadata.get("key", f.name)
            if key is not None:
                out[key] = _plain(getattr(value, f.name))
        if isinstance(getattr(type(value), "passed", None), property):
            out["passed"] = _plain(value.passed)
        return out
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    # numpy scalars have __array__ too, so they are caught first
    if isinstance(value, np.generic):
        return value.item()
    if hasattr(value, "__array__"):
        return np.asarray(value).tolist()
    return value


def report_document(
    kind: str,
    parameters: dict,
    claims: Sequence[Claim] = (),
    details: dict | None = None,
) -> dict:
    doc = {
        "schema": REPORT_SCHEMA,
        "kind": kind,
        "parameters": _plain(parameters),
        "claims": _plain(list(claims)),
        "passed": all(c.passed for c in claims),
    }
    if details is not None:
        doc["details"] = _plain(details)
    return doc


def write_json_report(path, doc: dict | Record) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_plain(doc), sort_keys=True, indent=2) + "\n")
    return path


def format_float(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path, columns: Sequence[str], rows: Iterable[Sequence],
              tag: str = "table") -> Path:
    """Write rows with a leading schema comment, e.g.

        # nlmarkov.csv/1 rate-report
        n,measured,bound
        0,2,2
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {CSV_SCHEMA} {tag}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(format_float(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path
