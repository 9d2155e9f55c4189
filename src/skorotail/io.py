"""Text I/O: CSV tables, dense matrices with a time header, JSON reports.

Floats are written with 17 significant digits so repeated runs with the same
configuration produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "fmt",
    "write_csv",
    "read_two_columns",
    "write_matrix",
    "read_matrix",
    "write_json",
]


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _csv_field(s: str) -> str:
    """A CSV field, quoted (inner quotes doubled) when it holds a comma or a quote."""
    return '"' + s.replace('"', '""') + '"' if "," in s or '"' in s else s


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns as CSV with the given header; a text field
    holding a comma or a quote is quoted."""
    cols = [np.asarray(c) for c in columns]
    n = cols[0].shape[0]
    if any(c.shape[0] != n for c in cols):
        raise ValueError("columns must have equal length")
    # a formatted number holds no comma or quote: quote text columns once
    cols = [c if c.dtype.kind in "biuf" else np.array([_csv_field(fmt(x)) for x in c], dtype=object)
            for c in cols]
    lines = [",".join(map(_csv_field, header))]
    for i in range(n):
        lines.append(",".join(fmt(c[i]) for c in cols))
    Path(path).write_text("\n".join(lines) + "\n")


def read_two_columns(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column text table (comma or whitespace separated; lines
    starting with '#' and a non-numeric header row are skipped)."""
    a, b = [], []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            raise ValueError(f"expected two columns, got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            continue  # header row
        a.append(x)
        b.append(y)
    if not a:
        raise ValueError(f"no data rows in {path}")
    return np.asarray(a), np.asarray(b)


def write_matrix(path, times: np.ndarray, m: np.ndarray) -> None:
    """Dense matrix with a header row of grid times."""
    lines = [",".join(fmt(t) for t in times)]
    for row in np.asarray(m):
        lines.append(",".join(fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> tuple[np.ndarray, np.ndarray]:
    rows = [r for r in Path(path).read_text().splitlines() if r.strip()]
    times = np.array([float(x) for x in rows[0].split(",")])
    m = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    if m.shape != (times.size, times.size):
        raise ValueError("matrix shape does not match the header grid")
    return times, m


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")
