"""Deterministic JSON/CSV export of structured result rows.

Both encoders are byte-deterministic for equal inputs (fixed field order,
``repr``-faithful float formatting), so "a parallel sweep equals a serial
sweep" can be asserted on the exported bytes, and exported artefacts diff
cleanly between runs.

The encoders are *row-type generic*: any iterable of frozen dataclasses
works (sweep rows, serving reports, per-request metrics...).  Rows encode
through their ``to_dict`` hook when they define one (a report's derived
keys, a frontier point's flat shape), otherwise through
:func:`repro.codec.encode`; CSV column order is the row dataclass's field
order, exactly as for :class:`~repro.sweep.engine.SweepResult`.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import pathlib
from collections.abc import Iterable, Sequence
from typing import Any

from repro.codec import encode
from repro.sweep.engine import SweepResult

#: Column order of the sweep-row export (that dataclass's field order);
#: other row types derive their columns the same way.
FIELDNAMES: tuple[str, ...] = tuple(
    field.name for field in dataclasses.fields(SweepResult))


def _row_dict(row: Any) -> dict[str, object]:
    """A row's export dict: its ``to_dict`` hook, or its codec payload."""
    to_dict = getattr(row, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if dataclasses.is_dataclass(row) and not isinstance(row, type):
        return encode(row)
    raise TypeError(f"cannot export row of type {type(row).__name__}: "
                    "expected a dataclass or a to_dict() hook")


def fieldnames_of(row_type: type) -> tuple[str, ...]:
    """The CSV column order of a row dataclass (its field order)."""
    return tuple(field.name for field in dataclasses.fields(row_type))


def _fieldnames_for(rows: Sequence[Any]) -> tuple[str, ...]:
    """CSV column order: the first row's dataclass field order."""
    if not rows:
        return FIELDNAMES
    first = rows[0]
    if dataclasses.is_dataclass(first) and not isinstance(first, type):
        return fieldnames_of(type(first))
    return tuple(_row_dict(first))


def to_json(results: Iterable[Any], indent: int | None = 2) -> str:
    """Encode rows as a JSON array of objects (stable key order)."""
    payload = [_row_dict(row) for row in results]
    return json.dumps(payload, indent=indent)


def to_csv(results: Iterable[Any],
           fieldnames: Sequence[str] | None = None) -> str:
    """Encode rows as CSV with a header row.

    ``fieldnames`` pins the column set explicitly — pass it (e.g. via
    :func:`fieldnames_of`) when the row collection may be empty, where no
    row type is available to derive the header from.
    """
    rows = list(results)
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=fieldnames if fieldnames is not None
        else _fieldnames_for(rows),
        lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(_row_dict(row))
    return buffer.getvalue()


def write_json(results: Sequence[Any], path: str | pathlib.Path) -> pathlib.Path:
    """Write the JSON encoding to ``path`` and return the path."""
    path = pathlib.Path(path)
    path.write_text(to_json(results) + "\n", encoding="utf-8")
    return path


def write_csv(results: Sequence[Any], path: str | pathlib.Path,
              fieldnames: Sequence[str] | None = None) -> pathlib.Path:
    """Write the CSV encoding to ``path`` and return the path."""
    path = pathlib.Path(path)
    path.write_text(to_csv(results, fieldnames=fieldnames), encoding="utf-8")
    return path
