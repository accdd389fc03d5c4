"""Matrices of transformation and their summation means.

A matrix of transformation is a triangular weight array t_{k,n} with
nonnegative, nonincreasing rows summing to one.  Row n defines the mean
T_n(f) = sum_k t_{n-k,n} S_k(f), equivalently convolution with the kernel
V_n = sum_{k=1}^{n} t_{n-k,n} D_k.  Means, kernels and the boundedness
functionals need only the cumulative weights tau_{s,n} = t_{0,n} + ... +
t_{s,n}, so a matrix is given by them and row n is their first difference.
"""

from __future__ import annotations

import csv

import numpy as np

from .dyadic import GridSpec, prefix
from .io import GuardRailError, open_text, parse_numbers
from .transform import GridFunction, _check_dims, forward_array, inverse_array

ROW_SUM_TOL = 1e-12


class MatrixValidationError(ValueError):
    pass


_MAX_TABLE = 1 << 24   # entries of a cumulative table (128 MiB of float64)


class TransformationMatrix:
    """A matrix given by its cumulative weights.

    ``tau_fn(s, n)`` returns tau_{s,n} elementwise for integer arrays
    0 <= s <= n that broadcast together.  ``row(n)`` is its first
    difference and is checked against conditions (a)-(c) on every call.
    """

    def __init__(self, name, tau_fn):
        self.name = name
        self._tau_fn = tau_fn

    @classmethod
    def from_rows(cls, name, row_fn) -> "TransformationMatrix":
        """A matrix given row by row: tau_{.,n} is the cumulative sum of
        ``row_fn(n)``, which is validated each time it is built."""
        def cum(n: int) -> np.ndarray:
            return np.cumsum(T._validate(n, np.asarray(row_fn(n), dtype=float)))

        T = cls(name, _tau_of_rows(cum, name))
        return T

    def __repr__(self):
        return f"TransformationMatrix({self.name!r})"

    def _validate(self, n: int, row: np.ndarray) -> np.ndarray:
        if row.shape != (n + 1,):
            raise MatrixValidationError(
                f"{self.name}: row {n} has {row.size} entries, expected {n + 1}")
        finite = np.isfinite(row)
        if not finite.all():
            # every comparison below is false for NaN
            k = int(np.argmin(finite))
            raise MatrixValidationError(
                f"{self.name}: row {n} has a non-finite entry at k={k} (t={row[k]})")
        if np.any(row < -1e-15):
            k = int(np.argmin(row))
            raise MatrixValidationError(
                f"{self.name}: row {n} violates nonnegativity at k={k} (t={row[k]})")
        if np.any(np.diff(row) > 1e-12):
            k = int(np.argmax(np.diff(row)))
            raise MatrixValidationError(
                f"{self.name}: row {n} is not nonincreasing at k={k}")
        s = row.sum()
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise MatrixValidationError(
                f"{self.name}: row {n} sums to {s!r}, off by {s - 1.0:.3e}")
        return row

    def row(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("row index must be >= 0")
        return self._validate(n, np.diff(self._tau_fn(np.arange(n + 1), n), prepend=0.0))

    def tau(self, s, n):
        """Cumulative weight tau_{s,n} = t_{0,n} + ... + t_{s,n}: a float for
        ints, elementwise for integer arrays."""
        s, n = np.asarray(s), np.asarray(n)
        if np.any(s < 0) or np.any(s > n):
            raise ValueError(f"tau requires 0 <= s <= n, got s={s}, n={n}")
        t = self._tau_fn(s, n)
        return float(t) if np.ndim(t) == 0 else t


def _tau_of_rows(cum, name: str):
    """tau_fn from ``cum(n)`` = [tau_{0,n}, ..., tau_{n,n}], building each
    distinct row once per call.  A call whose distinct rows hold more than
    _MAX_TABLE entries in all is refused before any row is built."""
    def tau_fn(s, n):
        s, n = np.broadcast_arrays(s, n)
        shape, s, n = n.shape, s.ravel(), n.ravel()
        entries = 0
        for count, row in enumerate(np.unique(n), 1):
            entries += int(row) + 1         # Python ints: rows reach 2^63
            if entries > _MAX_TABLE:
                what = f"row {row} needs" if count == 1 else f"{count} rows up to {row} need"
                raise GuardRailError(
                    f"{name}: {what} {entries} entries, above the limit of "
                    f"{_MAX_TABLE} entries")
        out = np.empty(n.size)
        order = np.argsort(n, kind="stable")
        for group in np.split(order, np.flatnonzero(np.diff(n[order])) + 1):
            if group.size:
                out[group] = cum(int(n[group[0]]))[s[group]]
        return out.reshape(shape)
    return tau_fn


class _CumulativeTable:
    """tau_{s,n} = C[s] / C[n] for a family whose row n is the prefix
    a_0, ..., a_n of one base sequence, rescaled to sum one.

    C = cumsum(a) is rebuilt at the next power of two whenever an index
    outgrows it.  Each rebuild checks a >= 0 and diff(a) <= 0, which give
    conditions (a) and (b) for every row it covers; (c) holds by
    construction because tau_{n,n} = C[n] / C[n].
    """

    def __init__(self, name: str, base):
        self._name = name
        self._base = base          # m -> a_0, ..., a_{m-1}
        self._C = np.ones(0)

    def __call__(self, s, n):
        C = self._C
        top = int(np.max(n)) + 1
        if top > C.size:
            size = 1 << (top - 1).bit_length()
            if size > _MAX_TABLE:
                raise GuardRailError(
                    f"{self._name}: index {top - 1} needs a cumulative table of "
                    f"{size} entries ({size * 8 / 2**30:g} GiB), above the limit "
                    f"of {_MAX_TABLE} entries")
            C = self._C = self._build(size)
        return C[s] / C[n]

    def _build(self, size: int) -> np.ndarray:
        a = self._base(size)
        for bad, what in ((~(a >= 0), "not >= 0"),
                          (~(np.diff(a, prepend=a[0]) <= 0), "above the weight before it")):
            if bad.any():
                k = int(np.argmax(bad))
                raise MatrixValidationError(
                    f"{self._name}: base weight a_{k} = {float(a[k])!r} is {what}")
        return np.cumsum(a)


def _cesaro_numbers(alpha: float, n: int) -> np.ndarray:
    # A_0..A_n for exponent alpha, vectorised
    if n == 0:
        return np.ones(1)
    k = np.arange(1, n + 1)
    return np.concatenate([[1.0], np.cumprod((k + alpha) / k)])


def _fejer_tau(s, n):
    # (s+1)/n below the diagonal, tau_{n,n} = 1, and tau_{0,0} = 1
    m = np.maximum(n, 1)
    return np.minimum(s + 1, m) / m


def _identity_tau(s, n):
    return np.ones(np.broadcast(s, n).shape)


def _cesaro_seq_row(alphas: list[float]):
    """Row n of the Cesaro matrix of exponent alphas[n], the last exponent
    standing for every later n."""
    if not alphas:
        raise MatrixValidationError("cesaro-seq needs at least one exponent")

    def row(n: int) -> np.ndarray:
        if n == 0:
            return np.ones(1)
        a = alphas[min(n, len(alphas) - 1)]
        if not 0.0 < a <= 1.0:
            raise MatrixValidationError(f"cesaro exponent {a} outside (0, 1]")
        A = _cesaro_numbers(a - 1.0, n)
        # dividing by the exact partial sum keeps condition (c) at machine
        # precision; analytically the sum equals A_n^alpha
        return A / A.sum()
    return row


def builtin_matrix(family: str, alpha: float | None = None,
                   alpha_seq: list[float] | None = None) -> TransformationMatrix:
    """Built-in families: identity, fejer, cesaro (fixed alpha or a list
    alpha_n), and the Norlund logarithmic family."""
    if family == "identity":
        return TransformationMatrix("identity", _identity_tau)
    if family == "fejer":
        return TransformationMatrix("fejer", _fejer_tau)
    if family == "nlog":
        # a_k = 1/(k+1), so C[s] is the harmonic number H_{s+1}
        return TransformationMatrix(
            "nlog", _CumulativeTable("nlog", lambda m: 1.0 / np.arange(1, m + 1)))
    if family == "cesaro":
        if alpha_seq is not None:
            return TransformationMatrix.from_rows("cesaro-seq", _cesaro_seq_row(list(alpha_seq)))
        if alpha is None or not 0.0 < alpha <= 1.0:
            raise ValueError(f"cesaro needs alpha in (0, 1], got {alpha}")
        # a_k = A_k^{alpha-1}, so C[s] = A_s^alpha
        name = f"cesaro:{alpha:g}"
        table = _CumulativeTable(name, lambda m: _cesaro_numbers(alpha - 1.0, m - 1))
        return TransformationMatrix(name, table)
    raise ValueError(f"unknown matrix family {family!r}")


def _rows_from_csv(path: str):
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [np.array(parse_numbers(f"{path} line {reader.line_num}", rec, kind=float))
                for rec in reader if rec]
    if not rows:
        raise MatrixValidationError(f"{path}: no rows")

    def row(n: int) -> np.ndarray:
        if n >= len(rows):
            raise MatrixValidationError(f"custom matrix has no row {n}")
        return rows[n]
    return row, len(rows)


def matrix_from_spec(text: str) -> TransformationMatrix:
    """Parse the config grammar: fejer | cesaro:0.5 | cesaro-seq:<file> |
    nlog | identity | custom:<rows.csv>."""
    if text in ("fejer", "nlog", "identity"):
        return builtin_matrix(text)
    if text.startswith("cesaro:"):
        [alpha] = parse_numbers("matrix cesaro:", text.split(":", 1)[1], count=1, kind=float)
        return builtin_matrix("cesaro", alpha=alpha)
    if text.startswith("cesaro-seq:"):
        path = text.split(":", 1)[1]
        with open_text(path) as fh:
            seq = [parse_numbers(f"{path} line {no}", line.strip(), count=1, kind=float)[0]
                   for no, line in enumerate(fh, start=1) if line.strip()]
        if not seq:
            raise MatrixValidationError(f"{path}: no exponents")
        return builtin_matrix("cesaro", alpha_seq=seq)
    if text.startswith("custom:"):
        path = text.split(":", 1)[1]
        row_fn, count = _rows_from_csv(path)
        T = TransformationMatrix.from_rows(f"custom:{path}", row_fn)
        for n in range(count):      # validation happens on load
            T.tau(0, n)
        return T
    raise ValueError(f"unrecognised matrix spec {text!r}")


# ---------------------------------------------------------------------------
# Boundedness functionals.

_ALTERNATION_BLOCK = 1 << 14   # indices per block of (index, bit) arrays


def _alternation_sum(n, what: str, weights):
    """sum_k |eps_k(n) - eps_{k+1}(n)| weights(col, k)[..., k] for an int
    n >= 1 (a float) or elementwise over an integer array.

    ``weights`` receives the indices as a column ``col`` and the bit
    positions k = 0..max order, and returns one weight per (index, k).
    Terms are added in increasing k, the order of the per-index sum.
    """
    try:
        n = np.asarray(n, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{what} takes indices below 2^63") from None
    if np.any(n < 1):
        raise ValueError(f"{what} is undefined for n = {int(n.min())}")
    flat = n.ravel()
    k = np.arange(int(n.max()).bit_length())
    total = np.zeros(flat.size)
    for i in range(0, flat.size, _ALTERNATION_BLOCK):    # bounds the (index, k) arrays
        col = flat[i: i + _ALTERNATION_BLOCK, None]
        alternates = ((col >> k) ^ (col >> (k + 1))) & 1 == 1
        w = weights(col, k)
        part = total[i: i + _ALTERNATION_BLOCK]
        for j in k:
            part += np.where(alternates[:, j], w[:, j], 0.0)
    return float(total[0]) if n.ndim == 0 else total.reshape(n.shape)


def upsilon(T: TransformationMatrix, n):
    """Binary-alternation weighted sum of cumulative weights,
    sum_{k=0}^{|n|} |eps_k - eps_{k+1}| tau_{2^k, n}, for an int or
    elementwise over an integer array (one tau call for all of them)."""
    return _alternation_sum(
        n, "upsilon", lambda col, k: T.tau(np.minimum(1 << k, col), col))


def c2_quantity(alpha: float, n):
    """2^{-|n| alpha} sum_k |eps_k - eps_{k+1}| 2^{k alpha}, for an int or
    elementwise over an integer array.

    Accumulated as powers of the exponent difference so single-bit indices
    evaluate to exactly 1 + 2^-alpha.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")

    def weights(col, k):
        order = ((col >> k) > 0).sum(axis=-1, keepdims=True) - 1
        powers = np.array([2.0 ** (-j * alpha) for j in range(k.size)])
        return powers[np.maximum(order - k, 0)]
    return _alternation_sum(n, "c2_quantity", weights)


# ---------------------------------------------------------------------------
# Kernels and means.

def mean_coefficient_weights(T: TransformationMatrix, n: int, size: int) -> np.ndarray:
    """Spectral multiplier of the mean: coefficient i is weighted by
    sum_{k=i+1}^{n} t_{n-k,n} = tau_{n-1-i,n} for i < n and 0 beyond."""
    w = np.zeros(size)
    if n == 0:
        return w
    top = min(n, size)
    w[:top] = T.tau(n - 1 - np.arange(top), n)
    return w


def check_order(what: str, n: int, spec: GridSpec) -> None:
    """Refuse an order n of a mean or kernel outside 0 <= n <= 2^K."""
    if n < 0:
        raise ValueError(f"{what} order must be >= 0, got {n}")
    if n > spec.size:
        raise ValueError(f"{what} order {n} exceeds 2^K = {spec.size}")


def kernel_V(T: TransformationMatrix, n: int, spec: GridSpec) -> GridFunction:
    """V_n = sum_{k=1}^{n} t_{n-k,n} D_k on the grid."""
    check_order("kernel", n, spec)
    w = mean_coefficient_weights(T, n, spec.size)
    return GridFunction(spec, inverse_array(w, spec.resolution))


def apply_mean(T: TransformationMatrix, n: int, f: GridFunction,
               path: str = "coefficient") -> GridFunction:
    """The matrix mean T_n(f), evaluated in coefficient space or through
    convolution with the kernel; the two paths agree up to round-off.
    ``f`` must be a 1D grid."""
    _check_dims(f.samples, 1)
    spec = f.spec
    check_order("mean", n, spec)
    K = spec.resolution
    if path == "coefficient":
        c = forward_array(f.samples, K) * mean_coefficient_weights(T, n, spec.size)
        return GridFunction(spec, inverse_array(c, K))
    if path == "kernel":
        from .transform import dyadic_convolve
        return dyadic_convolve(f, kernel_V(T, n, spec))
    raise ValueError(f"unknown evaluation path {path!r}")


def kernel_decomposition(T: TransformationMatrix, n: int, spec: GridSpec
                         ) -> tuple[GridFunction, GridFunction]:
    """Split V_n into the Dirichlet-driven part V1 and the Fejer-driven
    remainder V2 with V1 + V2 = V_n, from row n's cumulative weights t.

    Set bit s of n, with block = 2^s and base = n(s-1), adds to V1 the
    term t[n(s)-1] w_{2^s} D_{2^s} (the index is forced by the
    reconstruction identity) and to V2, by Abel summation of the row
    differences against scaled Fejer kernels, w_m times the polynomial with
    coefficients t[base+i] - t[base+block-1], i < block, where
    m = n(s) xor (block-1) = block + (block-1-base).  Both parts are then
    multiplied by w_n.  As w_i w_m = w_{i xor m}, each term fills one band
    [2^s, 2^{s+1}): V2's coefficient i lands at block + (i xor (block-1-base)).
    Bands of different bits do not overlap, so each part is one spectrum,
    multiplied by w_n as the gather c[j xor n] and inverted once.
    """
    if not 1 <= n < spec.size:
        raise ValueError(
            f"decomposition needs 1 <= n < 2^K so that w_n is on the grid, got n={n}")
    K, size = spec.resolution, spec.size
    t = T.tau(np.arange(n + 1), n)
    c1, c2 = np.zeros(size), np.zeros(size)
    for s in range(n.bit_length()):
        if not (n >> s) & 1:
            continue
        block, base = 1 << s, prefix(n, s - 1)
        c1[block: 2 * block] = t[block + base - 1]
        c2[block + (np.arange(block) ^ (block - 1 - base))] = (
            t[base: base + block] - t[base + block - 1])
    shift = np.arange(size) ^ n
    return (GridFunction(spec, inverse_array(c1[shift], K)),
            GridFunction(spec, inverse_array(c2[shift], K)))
