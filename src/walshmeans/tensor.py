"""Tensor-product means on the square grid.

Two-dimensional means are computed by iterating the one-dimensional mean
along each axis; both application orders agree because the operators are
diagonal in the Walsh basis and act on separate variables.
"""

from __future__ import annotations

import numpy as np

from .dyadic import GridSpec
from .io import write_grid
from .maximal import (
    IndexSubsequence,
    _mean_weight_matrix,
    _ratio_summary,
    _sup_of_means,
    _random_test_function,
    _weak_quasinorm_values,
    abs_kernel_spectra,
    dyadic_maximal,
    llogl_norm,
)
from .summability import TransformationMatrix, check_order, mean_coefficient_weights
from .transform import GridFunction, _load_grid, forward_array, inverse_array


def apply_axis(T: TransformationMatrix, n: int, F: GridFunction,
               axis: int) -> GridFunction:
    """Apply the one-dimensional mean along every slice of the chosen axis,
    leaving the other variable fixed."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    spec = F.spec
    check_order("mean", n, spec)
    K = spec.resolution
    w = mean_coefficient_weights(T, n, spec.size)
    out = inverse_array(forward_array(np.moveaxis(F.samples, axis, -1), K) * w, K)
    return GridFunction(spec, np.moveaxis(out, -1, axis))


def tensor_mean(T0: TransformationMatrix, n0: int, T1: TransformationMatrix,
                n1: int, F: GridFunction) -> GridFunction:
    """(T0_{n0} x T1_{n1}) F by iterated axis application."""
    return apply_axis(T1, n1, apply_axis(T0, n0, F, axis=0), axis=1)


def tensor_maximal(T0: TransformationMatrix, subseq0: IndexSubsequence,
                   T1: TransformationMatrix, subseq1: IndexSubsequence,
                   F: GridFunction) -> GridFunction:
    """sup over the product of subsequences of |(T0_{n_a} x T1_{n_b}) F|.

    Each product mean is constant on 2^{m_a} x 2^{m_b} cells, so it is
    inverted on that coarse grid (see `maximal`)."""
    _, sup = next(_tensor_sups(T0, subseq0, T1, subseq1, F.spec, [F]))
    return GridFunction(F.spec, sup)


def _tensor_sups(T0: TransformationMatrix, subseq0: IndexSubsequence,
                 T1: TransformationMatrix, subseq1: IndexSubsequence,
                 spec: GridSpec, inputs):
    """Each grid F of the iterable `inputs` (on `spec`) with the samples of
    its tensor maximal function, one at a time, so that F is taken from
    `inputs` only after the previous one's supremum; the two banks of mean
    weights are built once."""
    subseq0.check_resolution(spec)
    subseq1.check_resolution(spec)
    K = spec.resolution
    banks = [(_mean_weight_matrix(T0, subseq0), subseq0),
             (_mean_weight_matrix(T1, subseq1), subseq1)]
    for F in inputs:
        coeffs = forward_array(forward_array(F.samples, K).T, K).T   # both axes
        yield F, _sup_of_means(coeffs, banks, K)


def iterated_majorant(T0: TransformationMatrix, subseq0: IndexSubsequence,
                      T1: TransformationMatrix, subseq1: IndexSubsequence,
                      F: GridFunction) -> GridFunction:
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
    return GridFunction(spec, out.T)


def hybrid_maximal(F: GridFunction) -> GridFunction:
    """sup_n of first-variable dyadic averages with the second variable
    fixed: f-natural, the dyadic maximal function along axis 0."""
    return dyadic_maximal(F)


# ---------------------------------------------------------------------------
# Experiment harness.

def random_test_function_2d(spec: GridSpec, rng: np.random.Generator) -> GridFunction:
    """Nonnegative 2D test function: 10 point spikes plus 2 product blocks,
    resolution-matched through float draws (see `random_test_function`)."""
    return _random_test_function(spec, rng, 2)


def llogl_weak_type_experiment(T0: TransformationMatrix, subseq0: IndexSubsequence,
                               T1: TransformationMatrix, subseq1: IndexSubsequence,
                               trials: int, K: int, seed: int = 0,
                               generator=random_test_function_2d) -> dict:
    """Ratio ||tensor maximal F||_{1,infty} / (1 + int |F| ln+ |F|) over a
    seeded random ensemble.  The two banks are built once; the trials are
    drawn and reduced to their ratios one at a time, so the working set does
    not grow with ``trials`` (a stacked forward transform would also round
    differently from one of a single trial).  The report is that of
    `weak_type_experiment` with a family and a subsequence per axis, and no
    operator."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    spec = GridSpec(K)
    rng = np.random.default_rng(seed)
    inputs = (generator(spec, rng) for _ in range(trials))
    sups = _tensor_sups(T0, subseq0, T1, subseq1, spec, inputs)
    summary = _ratio_summary([_weak_quasinorm_values(sup, F.cell_measure) / (1.0 + llogl_norm(F))
                              for F, sup in sups])
    return {"family": [T0.name, T1.name],
            "subsequence": [subseq0.describe(), subseq1.describe()],
            "K": K, "trials": trials, "seed": seed, **summary}


def save_grid2d(F: GridFunction, path_or_buf) -> None:
    """Write a 2D F as a grid CSV (see `walshmeans.io`)."""
    write_grid(path_or_buf, F.spec.resolution, F.samples)


def load_grid2d(path_or_buf) -> GridFunction:
    """Read a 2D grid CSV; a 1D one is refused."""
    return _load_grid(path_or_buf, 2)
