"""Tiny CSV helpers shared by the data types that serialize to disk.

Floats are written with ``repr`` so a write/read cycle reproduces the
exact same binary values (shortest round-trip representation).  A CSV
write formats and writes 512 rows at a time, so its memory is one chunk's
cells, whatever the record's length.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def format_value(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, header: list[str], columns: list, meta: dict | None = None) -> None:
    """Write named columns to ``path``; optional metadata as '# key = value' lines."""
    if len(header) != len(columns):
        raise ValueError("header/column count mismatch")
    if len({len(c) for c in columns}) > 1:
        raise ValueError("ragged columns")
    with open(path, "w") as f:
        f.writelines(f"# {k} = {format_value(v)}\n" for k, v in (meta or {}).items())
        f.write(",".join(header) + "\n")
        # Each 512-row chunk is sliced from every column, formatted and
        # written on its own, so a write's memory is one chunk, not the record.
        # repr of a float column's Python floats is format_value's text, but fast.
        for i in range(0, len(columns[0]) if columns else 0, 512):
            cells = [map(repr, c[i:i + 512].tolist())
                     if isinstance(c, np.ndarray) and c.dtype.kind == "f"
                     else map(format_value, c[i:i + 512]) for c in columns]
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_csv(path) -> tuple[list[str], dict[str, np.ndarray], dict[str, str]]:
    """Read a CSV written by :func:`write_csv`.

    Returns (header, columns keyed by name, metadata). Columns parse as
    float arrays when every entry is numeric, otherwise as object arrays
    of strings.
    """
    meta: dict[str, str] = {}
    rows: list[list[str]] = []
    header: list[str] | None = None
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            k, _, v = line[1:].partition("=")
            meta[k.strip()] = v.strip()
            continue
        if header is None:
            header = [h.strip() for h in line.split(",")]
            continue
        rows.append(line.split(","))
    if header is None:
        raise ValueError(f"no header in {path}")
    cols: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        raw = [r[j] for r in rows]
        try:
            cols[name] = np.array([float(v) for v in raw])
        except ValueError:
            cols[name] = np.array(raw, dtype=object)
    return header, cols, meta


def write_keyvalues(path, items: dict) -> None:
    """Write a flat 'key = value' text file."""
    lines = [f"{k} = {format_value(v)}" for k, v in items.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_keyvalues(path) -> dict[str, str]:
    """Read a flat 'key = value' text file (values returned as strings);
    '#' comments are skipped and a later key wins."""
    out: dict[str, str] = {}
    for i, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, sep, v = line.partition("=")
        if not sep:
            raise ValueError(f"{path!s}:{i}: expected 'key = value', got {line!r}")
        out[k.strip()] = v.strip()
    return out
