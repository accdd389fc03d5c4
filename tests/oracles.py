"""Reference helpers that only the tests call.

The classical Walsh objects built through the package's transform
(partial sums S_m, the Dirichlet and Fejer kernels), the total integral of
a grid function, endpoint, length and grid views of dyadic intervals and
exact step functions, the full-grid fold of the streamed maximal
supremum, the row-by-row bank of mean weights, the weak quasinorm through
the distinct values, the L log L functional as one expression, the dyadic
maximal function folded over the full grid,
and the Paley transform with its transposing copy.
No program path needs them, so they live here and not in `walshmeans`.
"""

from __future__ import annotations

import itertools

import numpy as np

from walshmeans.dyadic import DyadicInterval, DyadicRational, GridSpec
from walshmeans.exact import SparseStepFunction
from walshmeans.maximal import _block_sizes, _level, _level_groups
from walshmeans.summability import mean_coefficient_weights
from walshmeans.transform import GridFunction, forward_array, inverse_array, paley_matrix


def partial_sum(f: GridFunction, m: int) -> GridFunction:
    """S_m(f): reconstruction from coefficients below m; S_0 = 0."""
    if not 0 <= m <= f.spec.size:
        raise ValueError(f"partial sum order {m} out of range [0, {f.spec.size}]")
    c = forward_array(f.samples, f.spec.resolution).copy()
    c[m:] = 0.0
    return GridFunction(f.spec, inverse_array(c, f.spec.resolution))


def dirichlet_kernel(n: int, spec: GridSpec) -> GridFunction:
    """D_n = w_0 + ... + w_{n-1}; D_0 = 0.

    Built through the inverse transform; all intermediate values are
    integers, so the samples are exact.
    """
    if not 0 <= n <= spec.size:
        raise ValueError(f"Dirichlet order {n} exceeds 2^K = {spec.size}")
    c = np.zeros(spec.size)
    c[:n] = 1.0
    return GridFunction(spec, inverse_array(c, spec.resolution))


def fejer_kernel(n: int, spec: GridSpec) -> GridFunction:
    """The Fejer kernel (1/n) (D_1 + ... + D_n); the n = 0 kernel is 0."""
    if not 0 <= n <= spec.size:
        raise ValueError(f"Fejer order {n} exceeds 2^K = {spec.size}")
    c = np.zeros(spec.size)
    if n >= 1:
        c[:n] = (n - np.arange(n)) / n
    return GridFunction(spec, inverse_array(c, spec.resolution))


def grid_integral(f: GridFunction) -> float:
    """Integral of a grid function over [0, 1)."""
    return float(f.samples.mean())


def interval_start(interval: DyadicInterval) -> DyadicRational:
    return DyadicRational(interval.offset, interval.depth)


def interval_end(interval: DyadicInterval) -> DyadicRational:
    return DyadicRational(interval.offset + 1, interval.depth)


def interval_length(interval: DyadicInterval) -> DyadicRational:
    return DyadicRational(1, interval.depth)


def interval_cells(interval: DyadicInterval, spec: GridSpec) -> range:
    """Grid-index range covered at resolution K (requires depth <= K)."""
    K = spec.resolution
    if interval.depth > K:
        raise ValueError(f"interval depth {interval.depth} exceeds resolution {K}")
    w = 1 << (K - interval.depth)
    return range(interval.offset * w, (interval.offset + 1) * w)


def step_integral(f: SparseStepFunction) -> DyadicRational:
    """Integral of f over [0, 1), summed piece by piece: independent of the
    antiderivative table that `SparseStepFunction.integral_over` reads."""
    return sum((value * interval_length(interval) for interval, value in f.pieces),
               DyadicRational(0))


def to_grid(f: SparseStepFunction, spec: GridSpec) -> GridFunction:
    """Float samples at resolution K; requires every piece to be
    cell-aligned (depth <= K)."""
    samples = np.zeros(spec.size)
    for interval, value in f.pieces:
        cells = interval_cells(interval, spec)
        samples[cells.start: cells.stop] = float(value)
    return GridFunction(spec, samples)


def sup_of_means_reference(coeffs: np.ndarray, banks, K: int) -> np.ndarray:
    """`maximal._sup_of_means` folded over the full grid: each level tuple's
    block sups go into a (..., 2^m, 2^{K-m}, ...) view of the 2^K result by
    a broadcast running maximum.  The blocks, and so every transform, are
    the same as the coarse-to-fine fold's, so the two agree bit for bit."""
    d = len(banks)
    batch = coeffs.shape[:coeffs.ndim - d]
    coeffs = coeffs.reshape((-1,) + coeffs.shape[coeffs.ndim - d:])
    out = np.zeros(coeffs.shape)
    for group in itertools.product(*(_level_groups(s) for _, s in banks)):
        ms = [m for m, _ in group]
        band = coeffs[(slice(None),) + tuple(slice(0, 1 << m) for m in ms)]
        fine = sum(((1 << m, 1 << (K - m)) for m in ms), ())    # of the result
        coarse = sum(((1 << m, 1) for m in ms), ())             # of one sup
        counts, sizes = _block_sizes(len(coeffs), group)
        for starts in itertools.product(*map(range, [0] * len(counts), counts, sizes)):
            t = slice(starts[0], starts[0] + sizes[0])
            x = band[t].reshape((-1,) + (1,) * d + band.shape[1:])
            for j, ((bank, _), (m, _)) in enumerate(zip(banks, group)):
                w = bank[m][starts[j + 1]: starts[j + 1] + sizes[j + 1]]
                shape = [1] * (1 + 2 * d)
                shape[1 + j], shape[1 + d + j] = w.shape
                x = x * w.reshape(shape)
            for j, m in enumerate(ms):
                axis = 1 + d + j
                x = np.moveaxis(inverse_array(np.moveaxis(x, axis, -1), m), -1, axis)
            view = out[t].reshape((-1,) + fine)
            sup = np.abs(x).max(axis=tuple(range(1, d + 1)))
            np.maximum(view, sup.reshape((-1,) + coarse), out=view)
    return out.reshape(batch + out.shape[1:])


def mean_weight_rows(T, subseq):
    """The rows of `maximal._mean_weight_matrix`, one `mean_coefficient_weights`
    call (so one `tau` call) per index, each at the width 2^{m*} of the
    largest index's level."""
    width = 1 << _level(subseq.indices[-1])
    for n in subseq:
        yield mean_coefficient_weights(T, n, width)


def weak_quasinorm_values_reference(values, cell_measure: float) -> float:
    """`maximal._weak_quasinorm_values` through the distinct values: the
    largest v x #(values >= v) over them, times the cell measure."""
    uniq, counts = np.unique(np.ravel(values), return_counts=True)
    if uniq[-1] <= 0:
        return 0.0
    tail = np.cumsum(counts[::-1])[::-1]   # number of samples >= uniq[j]
    return float(np.max(uniq * tail) * cell_measure)


def llogl_values_reference(values, cell_measure: float) -> float:
    """`maximal._llogl_values` as one expression: the sum of |v| ln |v| over
    the |v| > 1, times the cell measure."""
    a = np.abs(np.ravel(values))
    big = a > 1.0
    if not big.any():
        return 0.0
    return float(np.sum(a[big] * np.log(a[big])) * cell_measure)


def dyadic_maximal_reference(f) -> np.ndarray:
    """The samples of `maximal.dyadic_maximal` by a running maximum over the
    full grid: each level's |average| repeated out to 2^K cells."""
    K = f.spec.resolution
    x = f.samples
    best = np.repeat(np.abs(x.mean(axis=0))[None], len(x), axis=0)   # n = 0 term
    for n in range(1, K + 1):
        block = 1 << (K - n)
        avg = x.reshape((1 << n, block) + x.shape[1:]).mean(axis=1)
        np.maximum(best, np.repeat(np.abs(avg), block, axis=0), out=best)
    return best


def paley_factors(K: int) -> list:
    """The widths of `transform._paley`'s Kronecker factors, lowest cell bits
    first: K itself up to 5; above it the top a = min(5, floor(K/2)) bits
    come last, after the factors of the remaining K - a bits.  K = 7 gives
    4, 3; K = 14 gives 5, 4, 5; K = 16 gives 3, 3, 5, 5."""
    if K <= 5:
        return [K]
    a = min(5, K // 2)
    return paley_factors(K - a) + [a]


def paley_with_copy(values, K: int) -> np.ndarray:
    """values @ W_K as `transform._paley` computes it, one factor at a time
    in the order of `paley_factors`: a GEMM with W_f over the lowest f of
    the bits still to do, in contiguous rows, then a transposing copy that
    makes the next bits the contiguous ones."""
    x = np.asarray(values, dtype=float)
    y, left = x.reshape(-1, 1 << K), K
    for f in paley_factors(K):
        y = np.matmul(y.reshape(-1, 1 << f), paley_matrix(f))
        left -= f
        y = np.ascontiguousarray(y.reshape(-1, 1 << left, 1 << f).transpose(0, 2, 1))
    return y.reshape(x.shape)
