"""Tensor-product means on the square grid.

Two-dimensional means are computed by iterating the one-dimensional mean
along each axis; both application orders agree because the operators are
diagonal in the Walsh basis and act on separate variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import GridSpec
from .io import read_grid, write_grid
from .maximal import (
    IndexSubsequence,
    WeakTypeReport,
    _mean_weight_matrix,
    _ratio_summary,
    _sup_of_means,
    abs_kernel_spectra,
    dyadic_maximal,
    llogl_norm,
)
from .summability import TransformationMatrix, check_order, mean_coefficient_weights
from .transform import forward_array, inverse_array


@dataclass
class GridFunction2D:
    """Cellwise-constant function on the 2^K x 2^K grid; axis 0 is the
    first variable."""

    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        n = self.spec.size
        if self.samples.shape != (n, n):
            raise ValueError(
                f"expected {n}x{n} samples for K={self.spec.resolution}, "
                f"got {self.samples.shape}")

    def l1_norm(self) -> float:
        return float(np.abs(self.samples).mean())

    @property
    def cell_measure(self) -> float:
        return self.spec.cell_measure ** 2


def _axis_apply(samples: np.ndarray, weights: np.ndarray, K: int, axis: int) -> np.ndarray:
    moved = np.moveaxis(samples, axis, -1)
    out = inverse_array(forward_array(moved, K) * weights, K)
    return np.moveaxis(out, -1, axis)


def apply_axis(T: TransformationMatrix, n: int, F: GridFunction2D,
               axis: int) -> GridFunction2D:
    """Apply the one-dimensional mean along every slice of the chosen axis,
    leaving the other variable fixed."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    spec = F.spec
    check_order("mean", n, spec)
    w = mean_coefficient_weights(T, n, spec.size)
    return GridFunction2D(spec, _axis_apply(F.samples, w, spec.resolution, axis))


def tensor_mean(T0: TransformationMatrix, n0: int, T1: TransformationMatrix,
                n1: int, F: GridFunction2D) -> GridFunction2D:
    """(T0_{n0} x T1_{n1}) F by iterated axis application."""
    return apply_axis(T1, n1, apply_axis(T0, n0, F, axis=0), axis=1)


def tensor_maximal(T0: TransformationMatrix, subseq0: IndexSubsequence,
                   T1: TransformationMatrix, subseq1: IndexSubsequence,
                   F: GridFunction2D) -> GridFunction2D:
    """sup over the product of subsequences of |(T0_{n_a} x T1_{n_b}) F|.

    Each product mean is constant on 2^{m_a} x 2^{m_b} cells, so it is
    inverted on that coarse grid (see `maximal`)."""
    spec = F.spec
    subseq0.check_resolution(spec)
    subseq1.check_resolution(spec)
    K = spec.resolution
    coeffs = forward_array(forward_array(F.samples, K).T, K).T   # both axes
    banks = [(_mean_weight_matrix(T0, subseq0), subseq0),
             (_mean_weight_matrix(T1, subseq1), subseq1)]
    return GridFunction2D(spec, _sup_of_means(coeffs, banks, K))


def iterated_majorant(T0: TransformationMatrix, subseq0: IndexSubsequence,
                      T1: TransformationMatrix, subseq1: IndexSubsequence,
                      F: GridFunction2D) -> GridFunction2D:
    """sup_a |V_{n_a}|-average (axis 0) of sup_b |T1_{n_b} F| (axis 1); the
    iterated bound dominating the tensor maximal function."""
    spec = F.spec
    subseq0.check_resolution(spec)
    subseq1.check_resolution(spec)
    K = spec.resolution
    inner = _sup_of_means(forward_array(F.samples, K),       # along axis 1
                          [(_mean_weight_matrix(T1, subseq1), subseq1)], K)
    out = _sup_of_means(forward_array(inner.T, K),           # along axis 0
                        [(abs_kernel_spectra(T0, subseq0), subseq0)], K)
    return GridFunction2D(spec, out.T)


def hybrid_maximal(F: GridFunction2D) -> GridFunction2D:
    """sup_n of first-variable dyadic averages with the second variable
    fixed: f-natural, the dyadic maximal function along axis 0."""
    return dyadic_maximal(F)


# ---------------------------------------------------------------------------
# Experiment harness.

def random_test_function_2d(spec: GridSpec, rng: np.random.Generator) -> GridFunction2D:
    """Nonnegative 2D test function: 10 point spikes plus 2 product blocks,
    resolution-matched through float draws."""
    N = spec.size
    n_spikes, n_blocks = 10, 2
    F = np.zeros((N, N))
    pos = rng.random((n_spikes, 2))
    masses = 0.2 + rng.random(n_spikes)
    for (px, py), m in zip(pos, masses):
        F[int(px * N), int(py * N)] += m * N * N
    depths = rng.integers(1, 4, size=(n_blocks, 2))
    offsets = rng.random((n_blocks, 2))
    heights = 2.0 * rng.random(n_blocks)
    for (dx, dy), (ox, oy), h in zip(depths, offsets, heights):
        wx, wy = N >> int(dx), N >> int(dy)
        ax = int(ox * (1 << int(dx))) * wx
        ay = int(oy * (1 << int(dy))) * wy
        F[ax: ax + wx, ay: ay + wy] += h
    return GridFunction2D(spec, F)


def llogl_weak_type_experiment(T0: TransformationMatrix, subseq0: IndexSubsequence,
                               T1: TransformationMatrix, subseq1: IndexSubsequence,
                               trials: int, K: int, seed: int = 0,
                               generator=random_test_function_2d) -> WeakTypeReport:
    """Ratio ||tensor maximal F||_{1,infty} / (1 + int |F| ln+ |F|) over a
    seeded random ensemble.  The trials run one at a time: stacked, their
    means would hold every trial's blocks at once."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = GridSpec(K)
    rng = np.random.default_rng(seed)
    inputs = [generator(spec, rng) for _ in range(trials)]
    sups = (tensor_maximal(T0, subseq0, T1, subseq1, F).samples for F in inputs)
    summary = _ratio_summary(sups, inputs[0].cell_measure,
                             [1.0 + llogl_norm(F) for F in inputs])
    return WeakTypeReport(
        family=[T0.name, T1.name], subsequence=[subseq0.describe(), subseq1.describe()],
        K=K, trials=trials, seed=seed, **summary)


def save_grid2d(F: GridFunction2D, path_or_buf) -> None:
    """Write F as a 2D grid CSV (see `walshmeans.io`)."""
    write_grid(path_or_buf, F.spec.resolution, F.samples)


def load_grid2d(path_or_buf) -> GridFunction2D:
    """Read a 2D grid CSV."""
    K, samples = read_grid(path_or_buf)
    return GridFunction2D(GridSpec(K), samples)
