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
    _check_trials,
    _maximal,
    _mean_weight_matrix,
    _random_test_function,
    _trial_summary,
    dyadic_maximal,
    llogl_norm,
    maximal_abs_mean,
    maximal_mean,
)
from .summability import TransformationMatrix, check_order, mean_coefficient_weights
from .transform import GridFunction, _check_dims, _load_grid, forward_array, inverse_array


def apply_axis(T: TransformationMatrix, n: int, F: GridFunction,
               axis: int) -> GridFunction:
    """Apply the one-dimensional mean along every slice of the chosen axis,
    leaving the other variable fixed."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    _check_dims(F.samples, 2)
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
    _check_dims(F.samples, 2)
    return _maximal(F, _tensor_banks(((T0, subseq0), (T1, subseq1)), F.spec))


def _tensor_banks(pairs, spec: GridSpec) -> list:
    """The bank of mean weights of each (matrix, subsequence) axis pair."""
    for _, subseq in pairs:
        subseq.check_resolution(spec)
    return [(_mean_weight_matrix(T, subseq), subseq) for T, subseq in pairs]


def iterated_majorant(T0: TransformationMatrix, subseq0: IndexSubsequence,
                      T1: TransformationMatrix, subseq1: IndexSubsequence,
                      F: GridFunction) -> GridFunction:
    """sup_a |V_{n_a}|-average (axis 0) of sup_b |T1_{n_b} F| (axis 1); the
    iterated bound dominating the tensor maximal function."""
    _check_dims(F.samples, 2)
    subseq0.check_resolution(F.spec)
    inner = maximal_mean(T1, subseq1, F).samples   # along axis 1
    out = maximal_abs_mean(T0, subseq0, GridFunction(F.spec, inner.T))   # along axis 0
    return GridFunction(F.spec, out.samples.T)


hybrid_maximal = dyadic_maximal   # f-natural: E* along axis 0, the second variable fixed


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
    seeded random ensemble, through the trial loop of `weak_type_experiment`.
    The two banks are built once; the trials run one per block, since a
    stacked 2D forward transform rounds differently from one of a single
    trial.  The report is that of `weak_type_experiment` with a family and a
    subsequence per axis, and no operator."""
    _check_trials(trials, seed)
    spec = GridSpec(K)
    banks = _tensor_banks(((T0, subseq0), (T1, subseq1)), spec)
    return {"family": [T0.name, T1.name],
            "subsequence": [subseq0.describe(), subseq1.describe()],
            **_trial_summary(trials, seed, 1, spec, generator, banks,
                             lambda F: 1.0 + llogl_norm(F))}


def save_grid2d(F: GridFunction, path_or_buf) -> None:
    """Write a 2D F as a grid CSV (see `walshmeans.io`); a 1D one is refused."""
    _check_dims(F.samples, 2)
    write_grid(path_or_buf, F.spec.resolution, F.samples)


def load_grid2d(path_or_buf) -> GridFunction:
    """Read a 2D grid CSV; a 1D one is refused."""
    return _load_grid(path_or_buf, 2)
