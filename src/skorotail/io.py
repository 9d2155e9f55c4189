"""Text I/O: CSV tables, dense matrices with a time header, JSON reports.

Floats are written with 17 significant digits so repeated runs with the same
configuration produce byte-identical files.  Tables are written in blocks of
rows, and each distinct float in a block is formatted once.
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


# cells formatted per block of rows: bounds the text held at once
_BLOCK_CELLS = 1 << 16


def _text(a: np.ndarray) -> np.ndarray:
    """``fmt`` of every element of ``a``, as an object array of its shape.

    A float array is formatted once per distinct value, found by its 64-bit
    pattern: float equality would merge 0.0 with -0.0 (texts "0" and "-0").
    """
    if a.dtype.kind != "f":
        return np.array([fmt(x) for x in a.ravel()], dtype=object).reshape(a.shape)
    bits = a.astype(np.float64).view(np.int64)
    distinct, where = np.unique(bits.ravel(), return_inverse=True)
    text = np.array([f"{x:.17g}" for x in distinct.view(np.float64).tolist()], dtype=object)
    return text[where].reshape(a.shape)


def _write_rows(fh, cells: np.ndarray) -> None:
    """Write a 2-d array of field texts as comma-joined lines."""
    fh.writelines(",".join(row) + "\n" for row in cells.tolist())


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
    floats = [j for j, c in enumerate(cols) if c.dtype.kind == "f"]
    rows = max(1, _BLOCK_CELLS // len(cols))
    with Path(path).open("w") as fh:
        fh.write(",".join(map(_csv_field, header)) + "\n")
        for lo in range(0, n, rows):
            cells = np.empty((min(rows, n - lo), len(cols)), dtype=object)
            for j, c in enumerate(cols):
                if c.dtype.kind != "f":
                    cells[:, j] = _text(c[lo : lo + rows])
            if floats:
                # one pass over the block's floats shares values across columns
                cells[:, floats] = _text(np.stack([cols[j][lo : lo + rows] for j in floats], 1))
            _write_rows(fh, cells)


def read_two_columns(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column text table (comma or whitespace separated; blank
    lines and lines starting with '#' are skipped, and the first other line
    may be a non-numeric header).  Any later non-numeric row raises
    ``ValueError``."""
    a, b = [], []
    rows = 0
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows += 1
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            raise ValueError(f"expected two columns, got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            if rows == 1:
                continue  # header row
            raise ValueError(f"non-numeric data row {raw!r} in {path}") from None
        a.append(x)
        b.append(y)
    if not a:
        raise ValueError(f"no data rows in {path}")
    return np.asarray(a), np.asarray(b)


def write_matrix(path, times: np.ndarray, m: np.ndarray) -> None:
    """Dense matrix with a header row of grid times."""
    m = np.asarray(m)
    rows = max(1, _BLOCK_CELLS // max(m.shape[1], 1))
    with Path(path).open("w") as fh:
        fh.write(",".join(fmt(t) for t in times) + "\n")
        for lo in range(0, m.shape[0], rows):
            _write_rows(fh, _text(m[lo : lo + rows]))


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
