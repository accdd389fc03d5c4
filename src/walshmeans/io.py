"""The grid CSV format, numbers read from outside text, and the JSON report.

A grid file starts with the header ``# resolution=K``, then holds one line per
grid row.  A 1D grid is a one-column 2D grid: one value per line.  A 2D
grid adds ``dims=2`` to the header and writes each row as comma-separated
values; ``dims=1`` may mark a 1D grid, and the header holds no other
field.  Values are written with ``repr``, which round-trips every float.
Files are read as UTF-8 (see `open_text`).

A grid file is refused from its header when K exceeds the resolution cap
of its dimension, ``MAX_K``, before its body is read, and at its first
line past the header's shape, before the rest is read.  No line is held
longer than ``VALUE_CHARS`` characters per value of a row.

A report is ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``,
written column by column (see `report_json`): it never holds a NaN or an
infinity, and one that would is refused naming the first such value.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

MAX_K = {1: 14, 2: 8}   # largest resolution of a 1D and of a 2D grid
MAX_REPORT_VALUES = 1 << 20   # subsequence terms, errors in one mt2-experiment report
# characters a line may spend per value: twice the longest float repr,
# '-2.2250738585072014e-308', so other writers' formats fit too
VALUE_CHARS = 48
_HEADER_CHARS = 64


class GuardRailError(ValueError):
    """A request would exceed a size or work limit; raised before any of
    it is allocated or computed."""


def parse_numbers(source: str, text, sep: str = ",", count: int | None = None,
                  kind=int) -> list:
    """kind(x) (int or float) for each field of `text`, a string split at
    `sep` or a list of fields, exactly `count` of them when given; else a
    ValueError that names `source` and the text."""
    fields = text.split(sep) if isinstance(text, str) else text
    try:
        values = [kind(x) for x in fields]
    except ValueError:
        values = None
    if values is None or count not in (None, len(values)):
        noun = "integer" if kind is int else "number"
        expected = (f"one {noun}" if count == 1 else
                    f"{count or 'one or more'} {noun}s separated by {sep!r}")
        raise ValueError(f"{source} {sep.join(fields)!r}: expected {expected}")
    return values


def check_grid_resolution(K: int, dims: int) -> None:
    """Refuse a `dims`-dimensional grid of resolution K above MAX_K."""
    if K > MAX_K[dims]:
        raise GuardRailError(
            f"resolution {K} exceeds the {dims}D guard rail of {MAX_K[dims]}")


def write_grid(path_or_buf, K: int, samples: np.ndarray) -> None:
    """Write a vector (1D) or matrix (2D) of samples at resolution K; a
    non-finite sample is refused before anything is written."""
    finite = np.isfinite(samples)
    if not finite.all():
        cell = np.unravel_index(np.argmin(finite), samples.shape)
        raise ValueError(f"the grid would hold a non-finite sample "
                         f"({float(samples[cell])}) at cell {', '.join(map(str, cell))}")
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


@contextmanager
def open_text(path, newline=None):
    """`path` opened as UTF-8 text; a byte that is not UTF-8 raises a
    ValueError naming the path and the byte."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: byte {exc.object[exc.start]:#04x} "
                             "is not UTF-8 text") from None


def read_grid(path_or_buf) -> tuple[int, np.ndarray]:
    """K and the samples of a grid CSV: a vector, or a matrix with one row
    per line under a ``dims=2`` header.  Blank lines are skipped.  A K
    above MAX_K is a GuardRailError raised from the header, and a K below
    1 or a header field other than one ``dims=1`` or ``dims=2`` a
    ValueError.  The body is refused, with a ValueError naming the line,
    at its first line past 2^K rows, without 2^K values (in 2D) or longer
    than VALUE_CHARS per value, before any later line is read, and at a
    value that is not a finite number."""
    if not hasattr(path_or_buf, "read"):
        with open_text(path_or_buf) as buf:
            return read_grid(buf)
    buf = path_or_buf
    header = buf.readline(_HEADER_CHARS + 1)
    if len(header) > _HEADER_CHARS:
        raise ValueError(f"line 1: longer than the {_HEADER_CHARS} characters "
                         "of a grid header")
    header = header.strip()
    if not header.startswith("# resolution="):
        raise ValueError(f"missing grid header, got {header!r}")
    K, *fields = header[len("# resolution="):].split() or [""]
    [K] = parse_numbers("line 1: resolution", K, count=1)
    dims = 1
    for i, field in enumerate(fields):
        if i or field not in ("dims=1", "dims=2"):
            raise ValueError(f"line 1: header field {field!r}: expected at most "
                             "one field, 'dims=1' or 'dims=2'")
        dims = int(field[len("dims="):])
    check_grid_resolution(K, dims)
    if K < 1:
        raise ValueError(f"grid resolution must be >= 1, got {K}")
    # each line is read at most `limit` characters at a time, and one
    # longer than that is refused (_too_long raises) before it is parsed
    limit = (1 << K if dims == 2 else 1) * VALUE_CHARS
    read = iter(partial(buf.readline, limit + 1), "")
    lines = ((no, line) for no, line in enumerate(read, start=2)
             if (len(line) <= limit or _too_long(buf, no, line, K, dims))
             and line.strip())
    if dims == 2:
        lines = ((no, _grid_row(no, line, K)) for no, line in lines)
    body = list(islice(lines, 1 << K))
    extra = next(lines, None)
    if extra:
        raise ValueError(f"line {extra[0]}: past the {1 << K} rows of resolution {K}")
    if dims == 2:
        values = np.array([row for _, row in body] or np.empty((0, 1 << K)))
    else:
        try:
            values = np.array([float(line) for _, line in body])
        except ValueError:   # name the line only once parsing has failed
            for no, line in body:
                parse_numbers(f"line {no}", line.strip(), count=1, kind=float)
            raise
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        first = tuple(bad[0])
        raise ValueError(f"line {body[first[0]][0]}: non-finite sample {values[first]}")
    return K, values


def _too_long(buf, no: int, head: str, K: int, dims: int):
    """Refuse line `no`, of which `head` holds more than VALUE_CHARS per
    value of a row; in 2D its values are counted chunk by chunk, so the
    line is never held whole."""
    values = 1 << K if dims == 2 else 1
    limit = values * VALUE_CHARS
    count, line = head.count(",") + 1, head
    while dims == 2 and line and not line.endswith("\n"):
        line = buf.readline(1 << 16)
        count += line.count(",")
    if dims == 2 and count != values:
        raise _row_size_error(no, count, K)
    raise ValueError(f"line {no}: longer than the limit of {limit} characters "
                     f"for {values} value{'s' * (values > 1)}")


def _row_size_error(no: int, count: int, K: int) -> ValueError:
    return ValueError(f"line {no}: {count} values, but a row at resolution {K} has {1 << K}")


def _grid_row(no: int, line: str, K: int) -> list[float]:
    """The values of line `no` of a 2D grid, which must hold 2^K (counted
    before the line is split)."""
    count = line.count(",") + 1
    if count != 1 << K:
        raise _row_size_error(no, count, K)
    try:
        return [float(x) for x in line.split(",")]
    except ValueError:
        for x in line.split(","):
            parse_numbers(f"line {no}", x.strip(), count=1, kind=float)
        raise


# JSON text of a leaf, by exact type; bools (an int subclass), non-finite
# floats (which the stdlib refuses) and everything else take the stdlib path
_LEAF = {float: float.__repr__, int: int.__repr__, str: encode_basestring_ascii}


def report_json(payload) -> str:
    """Exactly ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``:
    a NaN or an infinity raises ValueError, as there, here naming the first
    one and its JSON path, such as ``diagnostics[0].W_values[2]``.

    The stdlib encodes with indent in pure Python, one value at a time.
    Here a list of scalars of one type is mapped through its leaf encoder,
    a list of dicts sharing one key set is encoded column by column and
    joined through one row template, and every other value is left to the
    stdlib.  JSON text holds no raw newline, so a subtree dumped on its
    own is placed at depth `level` by indenting its lines.
    """
    try:
        return _encode(payload, 0)
    except ValueError:   # the stdlib's refusal of NaN and infinities
        path, value = _first_non_finite(payload, "")
        raise ValueError(
            f"the report would hold a non-finite number ({value}) at {path}") from None


def _first_non_finite(obj, path: str):
    """(JSON path, value) of the first NaN or infinity of obj in its written
    order; None if every float in it is finite."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_first_non_finite(v, p) for p, v in items)), None)


def _encode(obj, level: int) -> str:
    """JSON text of obj at depth `level`."""
    if type(obj) in (list, tuple) and obj:
        items = _rows(obj, level + 1) or _column(obj, level + 1)
        pad = "\n" + "  " * (level + 1)
        return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"
    as_row = _rows([obj], level)
    if as_row:
        return as_row[0]
    return json.dumps(obj, indent=2, sort_keys=True,
                      allow_nan=False).replace("\n", "\n" + "  " * level)


def _column(values, level: int) -> list[str]:
    """JSON texts of values at depth `level`."""
    kinds = set(map(type, values))
    leaf = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
    if leaf is float.__repr__ and not all(map(math.isfinite, values)):
        leaf = None
    if leaf is None:
        return [_encode(v, level) for v in values]
    return list(map(leaf, values))


def _rows(items, level: int) -> list[str] | None:
    """JSON texts of non-empty dicts at depth `level` that share one key
    set of str keys, encoded column by column through one %-template;
    None for any other list."""
    first = items[0]
    if set(map(type, items)) != {dict} or not first or not all(type(k) is str for k in first):
        return None
    if not all(map(first.keys().__eq__, map(dict.keys, items))):
        return None
    keys = sorted(first)
    pad = "\n" + "  " * (level + 1)
    fields = (encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys)
    template = "{" + pad + ("," + pad).join(fields) + "\n" + "  " * level + "}"
    columns = [_column(list(map(itemgetter(k), items)), level + 1) for k in keys]
    return [template % row for row in zip(*columns)]
