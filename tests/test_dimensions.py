"""The dimension contract of the public operators.

Every name that `walshmeans` exports and that takes a `GridFunction` has a
row in CONTRACT, which calls it with a grid of the other dimension than
its own (both, for the names that take either): the name either matches
a brute-force definition there or raises a ValueError that names both
dimensions.  A name found by its signature without a row, or a row without
its name, fails the test.
"""

import inspect
import io
import itertools

import numpy as np
import pytest

import walshmeans
from oracles import dyadic_maximal_reference, llogl_values_reference
from walshmeans import (
    GridFunction,
    GridSpec,
    apply_axis,
    apply_mean,
    classify_wlp,
    dyadic_convolve,
    dyadic_maximal,
    h0,
    h1,
    hybrid_maximal,
    iterated_majorant,
    llogl_norm,
    matrix_from_spec,
    maximal_abs_mean,
    maximal_mean,
    mt2_convergence_experiment,
    save_grid1d,
    save_grid2d,
    subsequence_from_spec,
    tensor_maximal,
    tensor_mean,
    w2d,
    weak_quasinorm,
)

K = 3
N = 1 << K
SPEC = GridSpec(K)
_rng = np.random.default_rng(60)
F1 = GridFunction(SPEC, _rng.normal(size=N) * 3.0)
F2 = GridFunction(SPEC, _rng.normal(size=(N, N)) * 3.0)
G2 = GridFunction(SPEC, _rng.normal(size=(N, N)))
T, SUB = matrix_from_spec("nlog"), subsequence_from_spec(f"all:1..{N}")


def assert_rel_close(got, ref, rel=1e-13):
    assert np.shape(got) == np.shape(ref)
    assert np.abs(np.asarray(got) - ref).max() <= rel * np.abs(ref).max()


def refuses(call, *args):
    """``call(*args)`` raises a ValueError whose text names 1D and 2D."""
    with pytest.raises(ValueError, match=r"(?s)(1D.*2D|2D.*1D)"):
        call(*args)


def by_rows(op):
    # a 2D grid is a batch of 1D rows along its last axis; the batch shape
    # can move the GEMMs' rounding, so the rows agree to a few ulps
    expect = [op(T, SUB, GridFunction(SPEC, row)).samples for row in F2.samples]
    assert_rel_close(op(T, SUB, F2).samples, np.array(expect))


def xor_convolution(f, g):
    """2^-Kd sum_j f(j) g(l xor j), l and j in {0..N-1}^d."""
    out = np.zeros(f.shape)
    cells = list(itertools.product(range(N), repeat=f.ndim))
    for l in cells:
        out[l] = sum(f[j] * g[tuple(a ^ b for a, b in zip(l, j))] for j in cells)
    return out / N ** f.ndim


def by_columns(op):
    # E* in the first variable, the second carried: each column is the 1D E*
    expect = [dyadic_maximal_reference(GridFunction(SPEC, col)) for col in F2.samples.T]
    assert_rel_close(op(F2).samples, np.array(expect).T)


def weak_brute(g):
    a = np.abs(g.samples).ravel()
    return max(v * np.count_nonzero(a >= v) for v in a) / a.size


def both_dimensions(check):
    for grid in (F1, F2):
        check(grid)


CONTRACT = {
    # 1D operators along the last axis of a 2D grid
    "maximal_mean": lambda: by_rows(maximal_mean),
    "maximal_abs_mean": lambda: by_rows(maximal_abs_mean),
    "dyadic_maximal": lambda: by_columns(dyadic_maximal),
    # the 2D name of E* on a 1D grid is the 1D E*
    "hybrid_maximal": lambda: assert_rel_close(hybrid_maximal(F1).samples,
                                               dyadic_maximal_reference(F1)),
    # either dimension, against its definition
    "dyadic_convolve": lambda: (
        assert_rel_close(dyadic_convolve(F2, G2).samples,
                         xor_convolution(F2.samples, G2.samples)),
        assert_rel_close(dyadic_convolve(F1, F1).samples,
                         xor_convolution(F1.samples, F1.samples)),
        refuses(dyadic_convolve, F1, F2)),
    "llogl_norm": lambda: both_dimensions(lambda g: assert_rel_close(
        llogl_norm(g), llogl_values_reference(g.samples, 1.0 / g.samples.size))),
    "weak_quasinorm": lambda: both_dimensions(lambda g: assert_rel_close(
        weak_quasinorm(g), weak_brute(g))),
    # refused in the other dimension
    "apply_mean": lambda: refuses(apply_mean, T, 3, F2),
    "save_grid1d": lambda: refuses(save_grid1d, F2, io.StringIO()),
    "save_grid2d": lambda: refuses(save_grid2d, F1, io.StringIO()),
    "apply_axis": lambda: refuses(apply_axis, T, 3, F1, 0),
    "tensor_mean": lambda: refuses(tensor_mean, T, 3, T, 3, F1),
    "tensor_maximal": lambda: refuses(tensor_maximal, T, SUB, T, SUB, F1),
    "iterated_majorant": lambda: refuses(iterated_majorant, T, SUB, T, SUB, F1),
    "classify_wlp": lambda: refuses(classify_wlp, F1, (0, 0)),
    "w2d": lambda: refuses(w2d, F1, 0, 0, 1, 1),
    "h0": lambda: refuses(h0, F1, 0, 0, 1),
    "h1": lambda: refuses(h1, F1, 0, 0, 1),
    "mt2_convergence_experiment": lambda: refuses(mt2_convergence_experiment,
                                                  T, T, SUB, SUB, F1, [(0, 0)]),
}


def _takes_a_grid(obj) -> bool:
    """A parameter annotated with GridFunction, or an unannotated f, F or g."""
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):
        return False
    return any("GridFunction" in str(p.annotation) if p.annotation is not p.empty
               else p.name in ("f", "F", "g") for p in params)


GRID_NAMES = {name for name in dir(walshmeans) if not name.startswith("_")
              and callable(getattr(walshmeans, name))
              and not inspect.isclass(getattr(walshmeans, name))
              and _takes_a_grid(getattr(walshmeans, name))}


@pytest.mark.parametrize("name", sorted(GRID_NAMES | CONTRACT.keys()))
def test_each_grid_operator_keeps_its_dimension_contract(name):
    assert name in GRID_NAMES, f"{name} has a row but is not an exported grid operator"
    assert name in CONTRACT, f"{name} takes a GridFunction but has no row in CONTRACT"
    CONTRACT[name]()
