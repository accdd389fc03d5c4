"""Tensor-product means: axis iteration, kernel-path agreement, maximal
operators, 2D functionals, and the L log L experiment."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from walshmeans import maximal
from walshmeans.dyadic import GridSpec
from walshmeans.io import GuardRailError
from walshmeans.lebesgue import classify_wlp, h0, h1, mt2_convergence_experiment, w2d
from walshmeans.maximal import (
    IndexSubsequence,
    llogl_norm,
    subsequence_from_spec,
    weak_quasinorm,
    weak_type_experiment,
)
from walshmeans.summability import (
    apply_mean,
    builtin_matrix,
    kernel_V,
    matrix_from_spec,
    mean_coefficient_weights,
)
from walshmeans.tensor import (
    apply_axis,
    hybrid_maximal,
    iterated_majorant,
    llogl_weak_type_experiment,
    random_test_function_2d,
    tensor_maximal,
    tensor_mean,
)
from walshmeans.transform import (
    GridFunction,
    dyadic_convolve,
    forward_array,
    inverse_array,
    walsh_sample,
)

PAIRS = (("fejer", "fejer"), ("fejer", "nlog"), ("cesaro:0.5", "fejer"))


def tensor_mean_kernel_path(T0, n0, T1, n1, F: GridFunction) -> GridFunction:
    """Direct convolution with the product kernel V_{n0} (x) V_{n1}: the
    quadratic reference for the iterated path."""
    spec = F.spec
    K = spec.resolution
    v0 = inverse_array(mean_coefficient_weights(T0, n0, spec.size), K)
    v1 = inverse_array(mean_coefficient_weights(T1, n1, spec.size), K)
    idx = np.arange(spec.size)
    A0 = v0[idx[:, None] ^ idx[None, :]]   # A0[x, u] = V0(x xor u)
    A1 = v1[idx[:, None] ^ idx[None, :]]
    out = A0 @ F.samples @ A1.T * spec.cell_measure ** 2
    return GridFunction(spec, out)


def hybrid_maximal_reference(F: GridFunction) -> np.ndarray:
    """sup over n of the first-variable dyadic averages of depth n, as its
    own loop."""
    Kf, N = F.spec.resolution, F.spec.size
    best = np.abs(F.samples.mean(axis=0))[None, :].repeat(N, axis=0)  # n = 0
    for n in range(1, Kf + 1):
        block = 1 << (Kf - n)
        avg = F.samples.reshape(1 << n, block, N).mean(axis=1)
        np.maximum(best, np.repeat(np.abs(avg), block, axis=0), out=best)
    return best


def _random_F(spec, rng):
    return GridFunction(spec, rng.normal(size=(spec.size, spec.size)))


def test_apply_axis_constant_and_identity():
    spec = GridSpec(4)
    T = builtin_matrix("nlog")
    F = GridFunction(spec, np.full((spec.size, spec.size), 3.0))
    for axis in (0, 1):
        got = apply_axis(T, 5, F, axis).samples
        assert np.abs(got - 3.0 * (1 - T.row(5)[5])).max() < 1e-12
    I = builtin_matrix("identity")
    rng = np.random.default_rng(0)
    F = _random_F(spec, rng)
    assert np.abs(apply_axis(I, spec.size, F, 0).samples - F.samples).max() < 1e-11


def test_apply_axis_separable():
    spec = GridSpec(4)
    rng = np.random.default_rng(1)
    fx = rng.normal(size=spec.size)
    gy = rng.normal(size=spec.size)
    F = GridFunction(spec, np.outer(fx, gy))
    T = builtin_matrix("fejer")
    got = apply_axis(T, 6, F, axis=0).samples
    fx_mean = apply_mean(T, 6, GridFunction(spec, fx)).samples
    assert np.abs(got - np.outer(fx_mean, gy)).max() < 1e-11
    got = apply_axis(T, 6, F, axis=1).samples
    gy_mean = apply_mean(T, 6, GridFunction(spec, gy)).samples
    assert np.abs(got - np.outer(fx, gy_mean)).max() < 1e-11


def test_tensor_mean_orders_agree():
    spec = GridSpec(6)
    rng = np.random.default_rng(2)
    from walshmeans.summability import matrix_from_spec
    for m0, m1 in PAIRS:
        T0, T1 = matrix_from_spec(m0), matrix_from_spec(m1)
        for _ in range(3):
            F = _random_F(spec, rng)
            n0 = int(rng.integers(1, spec.size + 1))
            n1 = int(rng.integers(1, spec.size + 1))
            a = tensor_mean(T0, n0, T1, n1, F).samples
            b = apply_axis(T0, n0, apply_axis(T1, n1, F, 1), 0).samples
            assert np.abs(a - b).max() < 1e-10


def test_tensor_mean_matches_2d_kernel_path():
    spec = GridSpec(5)
    rng = np.random.default_rng(3)
    T0 = builtin_matrix("fejer")
    T1 = builtin_matrix("nlog")
    for _ in range(3):
        F = _random_F(spec, rng)
        n0, n1 = (int(v) for v in rng.integers(1, spec.size + 1, 2))
        a = tensor_mean(T0, n0, T1, n1, F).samples
        b = tensor_mean_kernel_path(T0, n0, T1, n1, F).samples
        assert np.abs(a - b).max() < 1e-11


def test_tensor_mean_eigenbehavior():
    spec = GridSpec(4)
    T0 = builtin_matrix("fejer")
    T1 = builtin_matrix("nlog")
    from walshmeans.summability import mean_coefficient_weights
    a, b = 3, 5
    F = GridFunction(spec, np.outer(walsh_sample(a, spec).samples,
                                      walsh_sample(b, spec).samples))
    n0, n1 = 7, 11
    lam = mean_coefficient_weights(T0, n0, spec.size)[a]
    mu = mean_coefficient_weights(T1, n1, spec.size)[b]
    got = tensor_mean(T0, n0, T1, n1, F).samples
    assert np.abs(got - lam * mu * F.samples).max() < 1e-12


def test_tensor_mean_constant():
    spec = GridSpec(4)
    T0 = builtin_matrix("nlog")
    T1 = builtin_matrix("cesaro", alpha=0.5)
    F = GridFunction(spec, np.full((spec.size, spec.size), 2.0))
    n0, n1 = 3, 6
    expect = 2.0 * (1 - T0.row(n0)[n0]) * (1 - T1.row(n1)[n1])
    assert np.abs(tensor_mean(T0, n0, T1, n1, F).samples - expect).max() < 1e-12


def test_tensor_maximal_basic():
    spec = GridSpec(5)
    rng = np.random.default_rng(4)
    T0 = builtin_matrix("fejer")
    T1 = builtin_matrix("nlog")
    F = _random_F(spec, rng)
    s0 = IndexSubsequence((4,))
    s1 = IndexSubsequence((9,))
    got = tensor_maximal(T0, s0, T1, s1, F).samples
    expect = np.abs(tensor_mean(T0, 4, T1, 9, F).samples)
    assert np.abs(got - expect).max() < 1e-12

    zero = GridFunction(spec, np.full((spec.size, spec.size), 0.0))
    s = IndexSubsequence((1, 2, 8))
    assert np.abs(tensor_maximal(T0, s, T1, s, zero).samples).max() == 0.0

    # pointwise max over the product equals the brute-force pair loop
    got = tensor_maximal(T0, s, T1, s, F).samples
    expect = np.maximum.reduce([np.abs(tensor_mean(T0, n0, T1, n1, F).samples)
                                for n0 in s for n1 in s])
    assert np.abs(got - expect).max() < 1e-12


def test_iterated_majorant_singleton_orientation():
    # singleton subsequences against a handwritten two-step computation
    spec = GridSpec(4)
    N = spec.size
    rng = np.random.default_rng(11)
    F = _random_F(spec, rng)
    T0, T1 = builtin_matrix("nlog"), builtin_matrix("fejer")
    n0, n1 = 5, 9
    G = np.abs(apply_axis(T1, n1, F, 1).samples)
    v0 = np.abs(kernel_V(T0, n0, spec).samples)
    idx = np.arange(N)
    direct = np.array([[(v0[x0 ^ idx] * G[:, y]).mean() for y in range(N)]
                       for x0 in range(N)])
    got = iterated_majorant(T0, IndexSubsequence((n0,)),
                            T1, IndexSubsequence((n1,)), F).samples
    assert np.abs(got - direct).max() < 1e-12


def test_tensor_maximal_matches_every_pair():
    # n = 1, powers of two, one past them and 2^K on both axes
    spec = GridSpec(6)
    rng = np.random.default_rng(12)
    s0 = IndexSubsequence((1, 2, 3, 8, 9, 33, 64))
    s1 = IndexSubsequence((1, 4, 5, 16, 17, 63))
    for name0, name1 in PAIRS + (("identity", "nlog"),):
        T0, T1 = matrix_from_spec(name0), matrix_from_spec(name1)
        F = _random_F(spec, rng)
        got = tensor_maximal(T0, s0, T1, s1, F).samples
        expect = np.maximum.reduce([np.abs(tensor_mean(T0, n0, T1, n1, F).samples)
                                    for n0 in s0 for n1 in s1])
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def iterated_majorant_reference(T0, s0, T1, s1, F):
    """The full-resolution formula: sup_b over axis 1, then the |V_{n_a}|
    coefficient rows over axis 0, every row at length 2^K."""
    K, N = F.spec.resolution, F.spec.size
    w1 = np.stack([mean_coefficient_weights(T1, n, N) for n in s1])
    fh = forward_array(F.samples, K)
    inner = np.abs(inverse_array(fh[None, :, :] * w1[:, None, :], K)).max(axis=0)
    w0 = np.stack([mean_coefficient_weights(T0, n, N) for n in s0])
    spectra0 = forward_array(np.abs(inverse_array(w0, K)), K)
    cols0 = forward_array(inner.T, K)
    out = inverse_array(cols0[None, :, :] * spectra0[:, None, :], K)
    return np.abs(out).max(axis=0).T


def test_iterated_majorant_matches_full_resolution_formula():
    spec = GridSpec(6)
    rng = np.random.default_rng(13)
    s0 = IndexSubsequence((1, 2, 5, 32, 33, 64))
    s1 = IndexSubsequence((1, 3, 4, 17, 40))
    for name0, name1 in PAIRS:
        T0, T1 = matrix_from_spec(name0), matrix_from_spec(name1)
        F = _random_F(spec, rng)
        got = iterated_majorant(T0, s0, T1, s1, F).samples
        expect = iterated_majorant_reference(T0, s0, T1, s1, F)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def test_tensor_maximal_small_chunks(monkeypatch):
    # blocks of a few cells split both row axes of every level pair
    from walshmeans import maximal
    spec = GridSpec(5)
    F = _random_F(spec, np.random.default_rng(14))
    T0, T1 = builtin_matrix("nlog"), builtin_matrix("fejer")
    s0, s1 = subsequence_from_spec("all:1..32"), subsequence_from_spec("all:5..20")
    whole = tensor_maximal(T0, s0, T1, s1, F).samples
    monkeypatch.setattr(maximal, "_CHUNK_CELLS", 16)
    split = tensor_maximal(T0, s0, T1, s1, F).samples
    assert np.abs(split - whole).max() <= 1e-13 * np.abs(whole).max()


def test_tensor_maximal_dominated_by_iterated_majorant():
    spec = GridSpec(5)
    rng = np.random.default_rng(5)
    T0 = builtin_matrix("fejer")
    T1 = builtin_matrix("fejer")
    s0 = subsequence_from_spec("powers:0..5")
    s1 = subsequence_from_spec("list:1,3,7,20")
    for _ in range(3):
        F = _random_F(spec, rng)
        lhs = tensor_maximal(T0, s0, T1, s1, F).samples
        rhs = iterated_majorant(T0, s0, T1, s1, F).samples
        assert np.all(lhs <= rhs + 1e-10)


def test_tensor_mean_linear_and_maximal_homogeneous():
    spec = GridSpec(5)
    rng = np.random.default_rng(9)
    T0 = builtin_matrix("fejer")
    T1 = builtin_matrix("nlog")
    F = _random_F(spec, rng)
    G = _random_F(spec, rng)
    a, b = 1.7, -0.4
    lhs = tensor_mean(T0, 6, T1, 9,
                      GridFunction(spec, a * F.samples + b * G.samples)).samples
    rhs = (a * tensor_mean(T0, 6, T1, 9, F).samples
           + b * tensor_mean(T0, 6, T1, 9, G).samples)
    assert np.abs(lhs - rhs).max() < 1e-11

    s = IndexSubsequence((1, 4, 9))
    sup_F = tensor_maximal(T0, s, T1, s, F).samples
    sup_G = tensor_maximal(T0, s, T1, s, G).samples
    sup_sum = tensor_maximal(
        T0, s, T1, s, GridFunction(spec, F.samples + G.samples)).samples
    assert np.all(sup_sum <= sup_F + sup_G + 1e-11)          # sublinear
    c = 2.3
    sup_cF = tensor_maximal(T0, s, T1, s,
                            GridFunction(spec, c * F.samples)).samples
    assert np.abs(sup_cF - c * sup_F).max() < 1e-11          # homogeneous


def test_weak_quasinorm_2d_and_llogl_2d():
    spec = GridSpec(4)
    half = spec.size // 2
    Q = np.zeros((spec.size, spec.size))
    Q[:half, :half] = 1.0
    assert weak_quasinorm(GridFunction(spec, Q)) == pytest.approx(0.25)
    assert weak_quasinorm(GridFunction(spec, -3.0 * Q)) == pytest.approx(0.75)
    assert llogl_norm(GridFunction(spec, np.full((spec.size, spec.size), 1.0))) == 0.0
    e = math.e
    assert llogl_norm(GridFunction(spec, np.full((spec.size, spec.size), e))) == pytest.approx(e)


def test_hybrid_maximal():
    spec = GridSpec(4)
    minus = GridFunction(spec, np.full((spec.size, spec.size), -1.5))
    assert np.abs(hybrid_maximal(minus).samples
                  - 1.5).max() == 0.0
    rng = np.random.default_rng(6)
    g = rng.normal(size=spec.size)
    fx = np.r_[np.ones(spec.size // 2), np.zeros(spec.size // 2)]
    F = GridFunction(spec, np.outer(fx, g))
    got = hybrid_maximal(F).samples
    # on the left half the full first-variable average is attained
    assert np.abs(got[: spec.size // 2, :] - np.abs(g)[None, :]).max() < 1e-12
    F = _random_F(spec, rng)
    assert np.all(hybrid_maximal(F).samples >= np.abs(F.samples) - 1e-14)
    for K in (1, 2, 4, 7):
        F = _random_F(GridSpec(K), rng)
        assert np.array_equal(hybrid_maximal(F).samples, hybrid_maximal_reference(F))


def test_report_key_sets():
    # one report shape: 1D names one family and its operator, 2D lists two
    # families and has no operator key
    T = builtin_matrix("fejer")
    s = subsequence_from_spec("powers:1..4")
    one = weak_type_experiment(T, s, trials=2, K=4, seed=1, operator="mean")
    two = llogl_weak_type_experiment(T, s, builtin_matrix("nlog"), s, trials=2, K=4,
                                     seed=1)
    common = {"family", "subsequence", "K", "trials", "seed", "max_ratio", "quantiles"}
    assert set(one) == common | {"operator"} and set(two) == common
    assert one["family"] == "fejer" and one["operator"] == "mean"
    assert two["family"] == ["fejer", "nlog"]
    assert two["subsequence"] == ["2,4,8,16", "2,4,8,16"]
    assert set(one["quantiles"]) == set(two["quantiles"]) == {"q25", "q50", "q75", "q90"}


def test_llogl_experiment_constant_oracle_and_determinism():
    spec = GridSpec(5)
    T = builtin_matrix("fejer")
    s = subsequence_from_spec("powers:1..5")

    def const_gen(sp, rng):
        return GridFunction(sp, np.full((sp.size, sp.size), 1.0))

    rep = llogl_weak_type_experiment(T, s, T, s, trials=2, K=5, seed=0,
                                     generator=const_gen)
    cap = max(kernel_V(T, n, spec).l1_norm() for n in s) ** 2
    assert rep["max_ratio"] <= cap + 1e-12

    a = llogl_weak_type_experiment(T, s, T, s, trials=6, K=5, seed=3)
    b = llogl_weak_type_experiment(T, s, T, s, trials=6, K=5, seed=3)
    assert a == b


def test_llogl_experiment_builds_two_banks(monkeypatch):
    # the two banks are built once per experiment, not once per trial, and
    # each trial's ratio is that of tensor_maximal bit for bit
    from walshmeans import tensor
    from walshmeans.maximal import _ratio_summary, _weak_quasinorm_values
    T0, T1 = builtin_matrix("nlog"), matrix_from_spec("cesaro:0.5")
    s0, s1 = subsequence_from_spec("all:1..16"), subsequence_from_spec("powers:2..5")
    K, trials = 5, 4
    rng = np.random.default_rng(8)
    inputs = [tensor.random_test_function_2d(GridSpec(K), rng) for _ in range(trials)]
    cell = inputs[0].cell_measure
    expect = _ratio_summary([_weak_quasinorm_values(tensor_maximal(T0, s0, T1, s1, F).samples,
                                                    cell) / (1.0 + llogl_norm(F))
                             for F in inputs])
    built = []
    bank = tensor._mean_weight_matrix
    monkeypatch.setattr(tensor, "_mean_weight_matrix",
                        lambda T, s: built.append(T.name) or bank(T, s))
    rep = llogl_weak_type_experiment(T0, s0, T1, s1, trials=trials, K=K, seed=8)
    assert built == ["nlog", "cesaro:0.5"]
    assert {"max_ratio": rep["max_ratio"], "quantiles": rep["quantiles"]} == expect


def _llogl_peak(trials: int) -> int:
    """tracemalloc peak, in bytes, of a fejer L log L experiment over
    powers:1..8 on both axes at K = 8, after a small one has made the lazy
    imports and the caches."""
    T = builtin_matrix("fejer")
    llogl_weak_type_experiment(T, subsequence_from_spec("powers:1..2"), T,
                               subsequence_from_spec("powers:1..2"), trials=1, K=2)
    s = subsequence_from_spec("powers:1..8")
    tracemalloc.start()
    try:
        llogl_weak_type_experiment(T, s, T, s, trials=trials, K=8)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_llogl_experiment_memory_does_not_grow_with_trials():
    # each trial is drawn and reduced to its ratio before the next is drawn,
    # so 56 more trials cost less than one more 4^K grid of samples
    grid = 8 * 4 ** 8
    assert abs(_llogl_peak(64) - _llogl_peak(8)) < grid


def test_llogl_experiment_stability_fejer():
    T = builtin_matrix("fejer")
    ratios = {}
    for K in (5, 7):
        s = subsequence_from_spec(f"powers:1..{K}")
        ratios[K] = llogl_weak_type_experiment(T, s, T, s, trials=12, K=K,
                                               seed=21)["max_ratio"]
    assert ratios[7] <= 1.2 * ratios[5]


def test_random_test_function_2d_nonnegative():
    F = random_test_function_2d(GridSpec(5), np.random.default_rng(8))
    assert F.samples.min() >= 0.0
    assert F.l1_norm() > 0.0
    # the spike and block counts are fixed: pin the draws (no BLAS is
    # involved, so the bytes are portable)
    F = random_test_function_2d(GridSpec(5), np.random.default_rng(0))
    assert hashlib.sha256(F.samples.tobytes()).hexdigest() == (
        "bf5b46f7d169d5757a1bc10c3ced4a1f5ab4914d9ddcc14c193ad959fa9d4bb4")


_LINE = GridFunction(GridSpec(4), np.arange(16.0))   # a 1D grid at K = 4
_SQUARE = GridFunction(GridSpec(4), np.ones((16, 16)))
_FEJER, _SEQ = builtin_matrix("fejer"), subsequence_from_spec("powers:1..4")


@pytest.mark.parametrize("call, message", [
    (lambda: tensor_maximal(_FEJER, _SEQ, _FEJER, _SEQ, _LINE), "a 1D grid"),
    (lambda: iterated_majorant(_FEJER, _SEQ, _FEJER, _SEQ, _LINE), "a 1D grid"),
    (lambda: apply_axis(_FEJER, 3, _LINE, axis=0), "a 1D grid"),
    (lambda: tensor_mean(_FEJER, 3, _FEJER, 3, _LINE), "a 1D grid"),
    (lambda: classify_wlp(_LINE, (1, 2)), "a 1D grid"),
    (lambda: w2d(_LINE, 1, 2, 2, 2), "a 1D grid"),
    (lambda: h0(_LINE, 1, 2, 2), "a 1D grid"),
    (lambda: h1(_LINE, 1, 2, 2), "a 1D grid"),
    (lambda: mt2_convergence_experiment(_FEJER, _FEJER, _SEQ, _SEQ, _LINE, [(1, 2)]),
     "a 1D grid"),
    (lambda: mt2_convergence_experiment(_FEJER, _FEJER, _SEQ, _SEQ, _LINE, []), "a 1D grid"),
    (lambda: dyadic_convolve(_LINE, _SQUARE), "a 1D grid at K=4 and a 2D grid at K=4"),
    (lambda: dyadic_convolve(_SQUARE, _LINE), "a 2D grid at K=4 and a 1D grid at K=4"),
], ids=["tensor_maximal", "iterated_majorant", "apply_axis", "tensor_mean", "classify_wlp",
        "w2d", "h0", "h1", "mt2", "mt2-no-points", "convolve-1d-2d", "convolve-2d-1d"])
def test_2d_operators_refuse_a_1d_grid(call, message):
    # named ValueErrors, not an IndexError, an AxisError or a (16,) answer
    with pytest.raises(ValueError, match=f"(expected a 2D grid, got|mismatched grids:) {message}"):
        call()


def test_experiment_checks_trials_and_seed_before_the_banks():
    # 4097 indices at level 14 need 2^26 + 2^14 bank cells, past the cap, so
    # a bank built before the trials and seed checks would raise GuardRailError
    big = IndexSubsequence(tuple(range(8193, 12290)))
    assert len(big) << 14 > maximal._MAX_BANK_CELLS
    T = builtin_matrix("fejer")
    with pytest.raises(GuardRailError):
        weak_type_experiment(T, big, trials=1, K=14)
    with pytest.raises(GuardRailError):
        llogl_weak_type_experiment(T, big, T, _SEQ, trials=1, K=14)
    for trials, seed, message in [(0, 0, "trials must be >= 1"),
                                  (1, -1, "seed must be >= 0, got -1")]:
        with pytest.raises(ValueError, match=message):
            weak_type_experiment(T, big, trials=trials, K=14, seed=seed)
        with pytest.raises(ValueError, match=message):
            llogl_weak_type_experiment(T, big, T, _SEQ, trials=trials, K=14, seed=seed)
