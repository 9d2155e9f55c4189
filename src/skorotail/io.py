"""Text I/O: CSV tables, JSON reports, and dense matrices with a time header
(``write_csv`` of ``[fmt(t) for t in times]`` and ``[m]``, a 2-d entry
standing for its columns; ``read_matrix``).

Floats are written with 17 significant digits so repeated runs with the same
configuration produce byte-identical files.  Tables are written in blocks of
rows; adjacent float cells of a row with one 64-bit pattern form a run,
written as one text repeated, and each distinct float in a block is
formatted once.
"""

from __future__ import annotations

import json
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .paths import _table

__all__ = [
    "fmt",
    "write_csv",
    "read_two_columns",
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


def _entry(c) -> np.ndarray:
    """An entry of ``write_csv``'s columns as a 2-d array of table columns."""
    a = np.asarray(c)
    if a.ndim not in (1, 2):
        raise ValueError("each entry of columns must be 1-d or 2-d")
    return a[:, None] if a.ndim == 1 else a


def write_csv(path, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns as UTF-8 CSV with the given header; a 2-d
    entry of ``columns`` stands for its columns in order.  A text field
    holding a comma or a quote is quoted.

    Each cell's text carries its leading separator, and column 0 carries the
    line break, so no run crosses a row: a run is a maximal stretch of
    adjacent float cells of a row, after column 0, that share one 64-bit
    pattern (float equality would merge 0.0 with -0.0, texts "0" and "-0"),
    written as its first cell's text repeated.  Each distinct run value of a
    block of rows is formatted once."""
    entries = [_entry(c) for c in columns]
    n = entries[0].shape[0]
    if any(e.shape[0] != n for e in entries):
        raise ValueError("columns must have equal length")
    table = [(e, j) for e in entries for j in range(e.shape[1])]  # column -> (entry, its column)
    width = len(table)
    if width == 0:
        raise ValueError("columns must hold at least one column")
    in_run = np.array([e.dtype.kind == "f" for e, _ in table])
    in_run[0] = False
    # column 0 and every non-float column, each cell a run of its own, as
    # texts formatted once here: a formatted number holds no comma or quote,
    # so only text columns are quoted
    alone = np.flatnonzero(~in_run)
    text = np.empty((n, alone.size), dtype=object)
    for k, c in enumerate(alone.tolist()):
        e, j = table[c]
        sep = b"\n" if c == 0 else b","
        if e.dtype.kind == "f":
            text[:, k] = [sep + b"%.17g" % x for x in e[:, j].astype(np.float64).tolist()]
        else:
            quote = str if e.dtype.kind in "biu" else _csv_field
            text[:, k] = [sep + quote(fmt(x)).encode() for x in e[:, j]]
    # a cell starts a run whatever its value when it or the cell before it
    # is in no run
    new_run = ~in_run
    new_run[1:] |= ~in_run[:-1]
    edges = list(accumulate((e.shape[1] for e in entries), initial=0))
    rows = max(1, _BLOCK_CELLS // width)
    with Path(path).open("wb") as fh:
        fh.write(",".join(map(_csv_field, header)).encode())
        for lo in range(0, n, rows):
            r = min(rows, n - lo)
            cells = np.zeros((r, width))
            for e, a, b in zip(entries, edges, edges[1:]):
                if e.dtype.kind == "f":
                    cells[:, a:b] = e[lo : lo + r]
            # a cell in no run reads 0.0, formatted once and unused
            cells[:, 0] = 0.0
            bits = cells.view(np.int64)
            # run starts, and one past the last cell
            start = np.ones(r * width + 1, dtype=bool)
            starts = start[:-1].reshape(r, width)
            np.not_equal(bits[:, 1:], bits[:, :-1], out=starts[:, 1:])
            starts |= new_run
            at = start.nonzero()[0]
            count = at[1:] - at[:-1]
            at = at[:-1]
            distinct, where = np.unique(bits.ravel()[at], return_inverse=True)
            pieces = np.array([b",%.17g" % x for x in distinct.view(np.float64).tolist()],
                              dtype=object)[where]
            # the cells in no run, each a run of its own, in row-major order
            pieces[np.searchsorted(at, (np.arange(r)[:, None] * width + alone).ravel())] = (
                text[lo : lo + r].ravel())
            many = np.flatnonzero(count > 1)
            pieces[many] = pieces[many] * count[many]
            fh.write(b"".join(pieces.tolist()))
        fh.write(b"\n")


def read_two_columns(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column text table (comma or whitespace separated; blank
    lines and lines starting with '#' are skipped, and the first other line
    may be a non-numeric header).  Any later non-numeric row, and any data
    row of more or fewer than two fields, raises a ``ValueError`` that names
    the file."""
    a, b = [], []
    rows = 0
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows += 1
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            raise ValueError(f"expected two columns in {path}, got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            if rows == 1:
                continue  # header row
            raise ValueError(f"non-numeric data row {raw!r} in {path}") from None
        if len(parts) > 2:
            raise ValueError(f"expected two columns in {path}, got {raw!r}")
        a.append(x)
        b.append(y)
    if not a:
        raise ValueError(f"no data rows in {path}")
    return np.asarray(a), np.asarray(b)


def read_matrix(path) -> tuple[np.ndarray, np.ndarray]:
    """The header grid and the square matrix below it, one row per header
    time, of a comma-separated file (blank lines are skipped).  Any fault
    of the file raises a ``ValueError`` that names it."""
    try:
        rows = [[float(x) for x in r.split(",")]
                for r in Path(path).read_text().splitlines() if r.strip()]
        return _table("header", rows[0] if rows else [], None,
                      values=("matrix", rows[1:], None), shape="nn")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def _tolist(obj):
    """The json ``default`` hook: a numpy array, integer or bool as a list or
    Python scalar (a numpy float is a ``float``, which json writes itself)."""
    return obj.tolist()


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2, default=_tolist) + "\n")
