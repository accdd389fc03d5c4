"""Walsh-Lebesgue point functionals and convergence diagnostics.

The one-dimensional functional W_n aggregates dyadically shifted local
averages of |f - f(x)|; the two-dimensional W and the one-sided H
functionals classify points where tensor means are guaranteed to
converge.  All functionals are evaluated as exact cell sums on the grid.
"""

from __future__ import annotations

import numpy as np

from .maximal import IndexSubsequence
from .summability import TransformationMatrix
from .tensor import _tensor_banks
from .transform import GridFunction, _check_dims, _forward_axes, walsh_sample


def _shifted_index(x: int, digit: int, K: int) -> int:
    # dyadic shift by 2^-(digit+1); digits at or below the cell width leave
    # the cell unchanged
    if digit >= K:
        return x
    return x ^ (1 << (K - 1 - digit))


def _block_bounds(x: int, depth: int, K: int) -> tuple[int, int]:
    width = 1 << (K - depth)
    start = (x >> (K - depth)) << (K - depth)
    return start, start + width


class _DeltaTable:
    """Prefix sums of |F - F(x0,x1)| for O(1) rectangle integrals."""

    def __init__(self, F: GridFunction, x0: int, x1: int):
        _check_dims(F.samples, 2)
        self.K = F.spec.resolution
        F.spec.check_index(x0)
        F.spec.check_index(x1)
        delta = np.abs(F.samples - F.samples[x0, x1])
        self.pref = np.zeros((delta.shape[0] + 1, delta.shape[1] + 1))
        np.cumsum(np.cumsum(delta, axis=0), axis=1, out=self.pref[1:, 1:])
        self.cell_measure = F.cell_measure
        self.x0 = x0
        self.x1 = x1

    def rect(self, a0: int, b0: int, a1: int, b1: int) -> float:
        p = self.pref
        return (p[b0, b1] - p[a0, b1] - p[b0, a1] + p[a0, a1]) * self.cell_measure

    def w(self, n0: int, n1: int) -> float:
        K = self.K
        total = 0.0
        for i0 in range(n0 + 1):
            a0, b0 = _block_bounds(_shifted_index(self.x0, i0, K), n0, K)
            for i1 in range(n1 + 1):
                a1, b1 = _block_bounds(_shifted_index(self.x1, i1, K), n1, K)
                total += 2.0 ** (i0 + i1) * self.rect(a0, b0, a1, b1)
        return total


def w2d(F: GridFunction, x0: int, x1: int, n0: int, n1: int) -> float:
    """Two-dimensional W_{n0,n1} f(x0,x1) as an exact double cell sum."""
    K = F.spec.resolution
    if not (0 <= n0 <= K and 0 <= n1 <= K):
        raise ValueError(f"depths ({n0},{n1}) exceed resolution {K}")
    return _DeltaTable(F, x0, x1).w(n0, n1)


def h0(F: GridFunction, x0: int, x1: int, n0: int) -> float:
    """H^(0)_{n0} = W_{n0,0}: shifted first-variable averages integrated
    over the full second variable (a depth-0 block is the whole axis)."""
    return w2d(F, x0, x1, n0, 0)


def h1(F: GridFunction, x0: int, x1: int, n1: int) -> float:
    """H^(1)_{n1} = W_{0,n1}: shifted second-variable averages integrated
    over the full first variable."""
    return w2d(F, x0, x1, 0, n1)


_DECAY_FACTOR = 4.0     # wl1: the deepest diagonal W is at most 1/4 of the first
_H_GROWTH_LIMIT = 2.0   # wl2/wl3: an H sup at most doubles past the shallow half
_ATOL = 1e-13           # a value at or below it counts as zero


def classify_wlp(F: GridFunction, point: tuple[int, int],
                 depth_range=None) -> dict:
    """Classify a grid point against the three Walsh-Lebesgue conditions
    over a finite depth range.

    Limits are not decidable from samples, so the verdict speaks only
    about the tested depths and the thresholds the diagnostic records:
    wl1 passes when the diagonal W values decay by ``decay_factor``, and
    wl2/wl3 pass when the H sups do not keep growing across the range
    (the deepest at most ``h_growth_limit`` times the shallow half's).
    The diagnostic holds the point, the depths, the diagonal W_values,
    H0_sup, H1_sup, the verdict ("passes" or "fails wl1".."fails wl3")
    and the thresholds."""
    K = F.spec.resolution
    if depth_range is None:
        if K < 2:
            raise ValueError(f"resolution K = {K} leaves the default depths "
                             f"2..min(K, 7) empty")
        depth_range = range(2, min(K, 7) + 1)
    depths = tuple(depth_range)
    if not depths or not 0 <= depths[0] <= depths[-1] <= K or sorted(depths) != list(depths):
        raise ValueError(f"depth range {depth_range!r}: expected increasing depths "
                         f"a..b with 0 <= a <= b <= {K}, the grid's resolution")
    x0, x1 = point
    table = _DeltaTable(F, x0, x1)
    w_vals = [table.w(n, n) for n in depths]
    h0_vals = [table.w(n, 0) for n in depths]
    h1_vals = [table.w(0, n) for n in depths]

    half = max(1, len(depths) // 2)

    def h_bounded(vals):
        shallow = max(vals[:half])
        deep = max(vals)
        return deep <= _ATOL or deep <= _H_GROWTH_LIMIT * max(shallow, _ATOL)

    if not (w_vals[-1] <= _ATOL or w_vals[-1] * _DECAY_FACTOR <= w_vals[0]):
        verdict = "fails wl1"
    elif not h_bounded(h1_vals):
        verdict = "fails wl2"
    elif not h_bounded(h0_vals):
        verdict = "fails wl3"
    else:
        verdict = "passes"
    return {"point": [x0, x1], "depths": list(depths), "W_values": w_vals,
            "H0_sup": max(h0_vals), "H1_sup": max(h1_vals), "verdict": verdict,
            "thresholds": {"decay_factor": _DECAY_FACTOR,
                           "h_growth_limit": _H_GROWTH_LIMIT, "atol": _ATOL}}


def mt2_convergence_experiment(T0: TransformationMatrix, T1: TransformationMatrix,
                               subseq0: IndexSubsequence, subseq1: IndexSubsequence,
                               F: GridFunction, points) -> dict:
    """Pointwise error table of the tensor means over the index grid.

    The report holds both index lists (indices0, indices1), the leading
    row weights t_{0,n} of both matrices (t0_axis0, t0_axis1), so the
    vanishing of t_{0,n} along the subsequences can be read off directly,
    and one entry per requested point: its value F(point), its
    Walsh-Lebesgue classification (`classify_wlp`), the per-pair errors
    errors[a][b] = |T_{n_a} x T_{n_b} F - F(point)|, the diagonal
    diag_errors and whether they decrease (errors_decreasing).  Errors at
    passing points are expected to shrink as min(n_a, n_b) grows.
    """
    _check_dims(F.samples, 2)
    spec = F.spec
    W0, W1 = (bank.matrix() for bank, _ in _tensor_banks(((T0, subseq0), (T1, subseq1)), spec))
    points = [tuple(p) for p in points]
    diags = [classify_wlp(F, p) for p in points]

    # the means are diagonal in the Walsh basis, so at one point x
    # (T0_{n_a} x T1_{n_b} F)(x) = sum_{k,l} W0[a,k] w_k(x0) F^[k,l] W1[b,l] w_l(x1)
    # for every pair at once; w_k(x0) = w_{x0}(k / 2^K) by symmetry, and the
    # weights vanish past the banks' widths
    coeffs = _forward_axes(F.samples, spec.resolution, 2)[:W0.shape[1], :W1.shape[1]]
    reports = []
    for (x0, x1), diag in zip(points, diags):
        row0 = W0 * walsh_sample(x0, spec).samples[:W0.shape[1]]
        row1 = W1 * walsh_sample(x1, spec).samples[:W1.shape[1]]
        value = float(F.samples[x0, x1])
        errs = np.abs(row0 @ coeffs @ row1.T - value).tolist()
        diag_errs = [errs[i][i] for i in range(min(len(subseq0), len(subseq1)))]
        decreasing = len(diag_errs) < 2 or diag_errs[-1] <= diag_errs[0] + 1e-15
        reports.append({"point": [x0, x1], "value": value, "classification": diag,
                        "errors": errs, "diag_errors": diag_errs,
                        "errors_decreasing": decreasing})

    idx0, idx1 = subseq0.indices, subseq1.indices
    return {"indices0": list(idx0), "indices1": list(idx1),
            "t0_axis0": T0.tau(0, np.array(idx0)).tolist(),
            "t0_axis1": T1.tau(0, np.array(idx1)).tolist(),
            "points": reports}
