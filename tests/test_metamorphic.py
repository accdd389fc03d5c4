"""Metamorphic relations of the maximal operators at full size.

A Walsh mean is a convolution on the dyadic group, so it commutes with the
shift x -> x xor h (Schipp, Wade and Simon, Walsh Series, 1990, ch. 1); the
operators are positively homogeneous and even; and the tensor mean of a
product a (x) b is the product of the 1D means.  A power of two scales
every sum exactly, so it scales the operators and leaves a weak-type
report to the last bit.  The dyadic maximal
function commutes with the shift too, which permutes the cells of each
level.  None of these needs a reference, so they check the level-by-level
banks and the shared level sums at K = 14 and the 2D cap (T. Y. Chen, S. C. Cheung and S. M. Yiu, "Metamorphic testing: a new
approach for generating next test cases", HKUST-CS98-01, 1998).
"""

import numpy as np
import pytest

from walshmeans.dyadic import GridSpec
from walshmeans.maximal import (
    dyadic_maximal,
    maximal_abs_mean,
    maximal_mean,
    random_test_function,
    subsequence_from_spec,
    weak_type_experiment,
)
from walshmeans.summability import matrix_from_spec
from walshmeans.tensor import tensor_maximal, tensor_mean
from walshmeans.transform import GridFunction

OPERATORS = {"mean": maximal_mean, "abs_mean": maximal_abs_mean}


def assert_rel_close(got, ref, rel=1e-13):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


@pytest.mark.parametrize("operator", OPERATORS)
@pytest.mark.parametrize("matrix", ["fejer", "nlog", "cesaro:0.5"])
@pytest.mark.parametrize("K", [6, 10, 14])
def test_shift_and_scale_commute_with_the_maximal_means(K, matrix, operator):
    # Op(f(. xor h)) = Op(f)(. xor h) and Op(-2.5 f) = 2.5 Op(f), over
    # all:1..min(2^K, 300), whose levels reach 9
    spec = GridSpec(K)
    rng = np.random.default_rng(K)
    T = matrix_from_spec(matrix)
    sub = subsequence_from_spec(f"all:1..{min(spec.size, 300)}")
    op = OPERATORS[operator]
    f = rng.normal(size=spec.size)
    base = op(T, sub, GridFunction(spec, f)).samples
    for h in rng.integers(1, spec.size, size=2).tolist():
        shift = np.arange(spec.size) ^ h
        got = op(T, sub, GridFunction(spec, f[shift])).samples
        assert_rel_close(got, base[shift])
    assert_rel_close(op(T, sub, GridFunction(spec, -2.5 * f)).samples, 2.5 * base)


@pytest.mark.parametrize("operator", ["abs_mean", "mean", "dyadic_maximal"])
@pytest.mark.parametrize("K", [7, 12])
def test_weak_type_report_is_blind_to_a_power_of_two(K, operator):
    # 2^k f scales every sup and every norm exactly, so each ratio and the
    # whole report keep their bits (nlog over all:1..100, levels up to 7)
    T, sub = matrix_from_spec("nlog"), subsequence_from_spec("all:1..100")
    base = weak_type_experiment(T, sub, trials=6, K=K, seed=K, operator=operator)
    for k in (-9, 7):
        def scaled(spec, rng, k=k):
            return GridFunction(spec, 2.0 ** k * random_test_function(spec, rng).samples)
        assert weak_type_experiment(T, sub, trials=6, K=K, seed=K, operator=operator,
                                    generator=scaled) == base


@pytest.mark.parametrize("K", [4, 7])
def test_tensor_maximal_scales_by_a_power_of_two(K):
    # every product mean, and so the sup, of 2^k F is 2^k times F's, bit for bit
    spec = GridSpec(K)
    F = np.random.default_rng(60 + K).normal(size=(spec.size, spec.size))
    T0, s0 = matrix_from_spec("cesaro:0.5"), subsequence_from_spec(f"all:1..{min(20, spec.size)}")
    T1, s1 = matrix_from_spec("fejer"), subsequence_from_spec(f"powers:0..{K}")
    base = tensor_maximal(T0, s0, T1, s1, GridFunction(spec, F)).samples
    for k in (-9, 7):
        scaled = tensor_maximal(T0, s0, T1, s1, GridFunction(spec, 2.0 ** k * F)).samples
        assert np.array_equal(scaled, 2.0 ** k * base)


@pytest.mark.parametrize("K", [4, 7])
def test_tensor_maximal_of_a_product_is_the_outer_product(K):
    # sup_{a,b} |T0_{n_a} a(x) T1_{n_b} b(y)| = sup_a |T0_{n_a} a(x)| sup_b |T1_{n_b} b(y)|
    spec = GridSpec(K)
    rng = np.random.default_rng(20 + K)
    a, b = rng.normal(size=(2, spec.size))
    T0, s0 = matrix_from_spec("fejer"), subsequence_from_spec(f"powers:0..{K}")
    T1, s1 = matrix_from_spec("nlog"), subsequence_from_spec(f"all:1..{spec.size}")
    got = tensor_maximal(T0, s0, T1, s1, GridFunction(spec, np.outer(a, b))).samples
    expect = np.outer(maximal_mean(T0, s0, GridFunction(spec, a)).samples,
                      maximal_mean(T1, s1, GridFunction(spec, b)).samples)
    assert_rel_close(got, expect)


@pytest.mark.parametrize("K", [4, 7])
def test_tensor_maximal_swaps_its_axes_with_its_pairs(K):
    # (T0, s0) on axis 0 and (T1, s1) on axis 1 of F, transposed, are
    # (T1, s1) on axis 0 and (T0, s0) on axis 1 of F^T: the 2D fold's lower
    # levels run on both axes, in both orders (all:1..min(20, 2^K) has
    # levels 0..5, alternating:0..m levels 0, 3, 5, ...)
    spec = GridSpec(K)
    F = np.random.default_rng(40 + K).normal(size=(spec.size, spec.size))
    T0, s0 = matrix_from_spec("fejer"), subsequence_from_spec(f"all:1..{min(20, spec.size)}")
    T1, s1 = matrix_from_spec("nlog"), subsequence_from_spec(f"alternating:0..{(K - 1) // 2}")
    got = tensor_maximal(T1, s1, T0, s0, GridFunction(spec, F.T)).samples
    assert_rel_close(got, tensor_maximal(T0, s0, T1, s1, GridFunction(spec, F)).samples.T)


def test_dyadic_shift_along_both_axes_commutes_with_the_tensor_mean():
    # (T0_{n0} x T1_{n1}) F(. xor h0, . xor h1) is the shifted tensor mean,
    # its axis-0 mean read from a transposed view of F
    spec = GridSpec(7)
    rng = np.random.default_rng(50)
    F = rng.normal(size=(spec.size, spec.size))
    T0, T1 = matrix_from_spec("fejer"), matrix_from_spec("cesaro:0.5")
    base = tensor_mean(T0, 100, T1, 37, GridFunction(spec, F)).samples
    for h0, h1 in rng.integers(1, spec.size, size=(2, 2)).tolist():
        shift = np.ix_(np.arange(spec.size) ^ h0, np.arange(spec.size) ^ h1)
        got = tensor_mean(T0, 100, T1, 37, GridFunction(spec, F[shift])).samples
        assert_rel_close(got, base[shift])


@pytest.mark.parametrize("K, dims", [(6, 1), (10, 1), (14, 1), (4, 2), (7, 2)])
def test_dyadic_maximal_scales_negates_and_shifts(K, dims):
    # E*(2^k f) = 2^k E*(f) and E*(-f) = E*(f) to the last bit, since the
    # level sums scale and negate exactly; E*(f(. xor h)) = E*(f)(. xor h),
    # the 2D grid shifted along both axes (the second is carried along)
    spec = GridSpec(K)
    rng = np.random.default_rng(30 + K)
    f = rng.normal(size=(spec.size,) * dims)
    base = dyadic_maximal(GridFunction(spec, f)).samples
    for k in (-3, 5):
        scaled = dyadic_maximal(GridFunction(spec, 2.0 ** k * f)).samples
        assert np.array_equal(scaled, 2.0 ** k * base)
    assert np.array_equal(dyadic_maximal(GridFunction(spec, -f)).samples, base)
    for h in rng.integers(1, spec.size, size=2).tolist():
        shift = np.ix_(*[np.arange(spec.size) ^ h] * dims)
        assert_rel_close(dyadic_maximal(GridFunction(spec, f[shift])).samples, base[shift])
