"""The grid CSV format.

A file starts with the header ``# resolution=K``, then holds one line per
grid row.  A 1D grid is a one-column 2D grid: one value per line.  A 2D
grid adds ``dims=2`` to the header and writes each row as comma-separated
values.  Values are written with ``repr``, which round-trips every float.
"""

from __future__ import annotations

import numpy as np


def write_grid(path_or_buf, K: int, samples: np.ndarray) -> None:
    """Write a vector (1D) or matrix (2D) of samples at resolution K."""
    two_d = samples.ndim == 2
    lines = ((",".join(map(repr, row.tolist())) for row in samples) if two_d
             else map(repr, samples.tolist()))
    buf = path_or_buf if hasattr(path_or_buf, "write") else open(path_or_buf, "w")
    try:
        buf.write(f"# resolution={K}{' dims=2' if two_d else ''}\n")
        buf.writelines(line + "\n" for line in lines)
    finally:
        if buf is not path_or_buf:
            buf.close()


def read_grid(path_or_buf) -> tuple[int, np.ndarray]:
    """K and the samples of a grid CSV: a vector, or a matrix with one row
    per line under a ``dims=2`` header.  Blank lines are skipped.  A line
    whose value count differs from the first line's, or a nan/inf value,
    is a ValueError naming its line."""
    buf = path_or_buf if hasattr(path_or_buf, "read") else open(path_or_buf)
    try:
        header = buf.readline().strip()
        if not header.startswith("# resolution="):
            raise ValueError(f"missing grid header, got {header!r}")
        K, *fields = header[len("# resolution="):].split()
        lines = [(no, line) for no, line in enumerate(buf, start=2) if line.strip()]
    finally:
        if buf is not path_or_buf:
            buf.close()
    if "dims=2" in fields:
        rows = [[float(x) for x in line.split(",")] for _, line in lines]
        for (no, _), row in zip(lines, rows):
            if len(row) != len(rows[0]):
                raise ValueError(
                    f"line {no}: {len(row)} values, but line {lines[0][0]} has "
                    f"{len(rows[0])}")
        values = np.array(rows)
    else:
        values = np.array([float(line) for _, line in lines])
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        first = tuple(bad[0])
        raise ValueError(f"line {lines[first[0]][0]}: non-finite sample {values[first]}")
    return int(K), values
