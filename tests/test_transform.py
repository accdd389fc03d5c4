"""Walsh functions, the fast Paley-ordered transform, kernels, and dyadic
convolution, checked against naive definition-based oracles."""

import tracemalloc

import numpy as np
import pytest

from oracles import dirichlet_kernel, fejer_kernel, paley_factors, paley_with_copy, partial_sum
from walshmeans.dyadic import GridSpec
from walshmeans.transform import (
    GridFunction,
    _paley,
    _walsh_signs,
    bit_reversal,
    dyadic_convolve,
    forward_array,
    inverse_array,
    paley_matrix,
    walsh_sample,
)


def walsh_matrix_oracle(K: int) -> np.ndarray:
    """w_n(l/2^K) straight from the definition: the product of Rademacher
    signs over the set bits of n, with digit x_k of l/2^K read off bit
    K-1-k of l."""
    N = 1 << K
    W = np.ones((N, N))
    for n in range(N):
        for l in range(N):
            v = 1.0
            for k in range(K):
                if (n >> k) & 1 and (l >> (K - 1 - k)) & 1:
                    v = -v
            W[n, l] = v
    return W


def test_walsh_sample_examples():
    spec = GridSpec(2)
    assert np.array_equal(walsh_sample(0, spec).samples, np.ones(4))
    assert np.array_equal(walsh_sample(1, spec).samples, [1, 1, -1, -1])
    # w_3 = rho_0 * rho_1 evaluated per cell
    w1 = walsh_sample(1, spec).samples
    w2 = walsh_sample(2, spec).samples
    assert np.array_equal(walsh_sample(3, spec).samples, w1 * w2)
    with pytest.raises(ValueError):
        walsh_sample(4, spec)


def test_walsh_sample_matches_definition():
    K = 5
    spec = GridSpec(K)
    W = walsh_matrix_oracle(K)
    for n in range(1 << K):
        assert np.array_equal(walsh_sample(n, spec).samples, W[n])


def test_fwht_matches_naive_and_roundtrip():
    K = 6
    spec = GridSpec(K)
    W = walsh_matrix_oracle(K)
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = GridFunction(spec, rng.normal(size=spec.size))
        coeffs = forward_array(f.samples, K)
        naive = W @ f.samples / spec.size
        assert np.abs(coeffs - naive).max() < 1e-12
        back = inverse_array(forward_array(f.samples, K), K)
        assert np.abs(back - f.samples).max() < 1e-12


def fwht_natural(values: np.ndarray, dtype=float) -> np.ndarray:
    """Slow reference: unnormalised natural-order (Hadamard) butterfly
    X[i] = sum_j (-1)^popcount(i&j) x[j] along the last axis, in ``dtype``."""
    x = np.asarray(values, dtype=dtype)
    shape = x.shape
    n = shape[-1]
    x = x.reshape(-1, n).copy()
    h = 1
    while h < n:
        x = x.reshape(x.shape[0], -1, 2, h)
        top = x[:, :, 0, :] + x[:, :, 1, :]
        bot = x[:, :, 0, :] - x[:, :, 1, :]
        x = np.concatenate([top[:, :, None, :], bot[:, :, None, :]], axis=2)
        x = x.reshape(-1, n)
        h *= 2
    return x.reshape(shape)


def butterfly_forward(samples: np.ndarray, K: int) -> np.ndarray:
    """Paley coefficients as the butterfly composed with a K-bit reversal."""
    return fwht_natural(np.asarray(samples)[..., bit_reversal(K)]) / (1 << K)


def butterfly_inverse(coefficients: np.ndarray, K: int) -> np.ndarray:
    return fwht_natural(coefficients)[..., bit_reversal(K)]


def test_paley_matrix_is_symmetric_read_only_walsh_table():
    for k in range(1, 8):
        W = paley_matrix(k)
        spec = GridSpec(k)
        assert np.array_equal(W, [walsh_sample(n, spec).samples for n in range(1 << k)])
        assert np.array_equal(W, W.T)
        assert not W.flags.writeable
        assert paley_matrix(k) is W


@pytest.mark.parametrize("K", range(1, 11))
def test_transform_matches_dense_walsh_sample_oracle(K):
    spec = GridSpec(K)
    W = np.stack([walsh_sample(n, spec).samples for n in range(spec.size)])
    x = np.random.default_rng(K).normal(size=(3, spec.size))
    assert np.abs(forward_array(x, K) - x @ W.T / spec.size).max() < 1e-13
    assert np.abs(inverse_array(x, K) - x @ W).max() < 1e-12 * spec.size


@pytest.mark.parametrize("K", range(11, 17))
def test_transform_matches_butterfly_on_long_rows(K):
    x = np.random.default_rng(K).normal(size=(2, 1 << K))
    assert np.abs(forward_array(x, K) - butterfly_forward(x, K)).max() < 1e-14
    assert np.abs(inverse_array(x, K) - butterfly_inverse(x, K)).max() < 1e-12 * (1 << K)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 on this platform")
@pytest.mark.parametrize("K", range(1, 15))
def test_transform_error_against_long_double_butterfly(K):
    # Student-t rows with 3 degrees of freedom put much of each row's L1 norm
    # in a few cells.  The butterfly in long double is exact to about 1e-18
    # of that norm, so the difference is the transform's own rounding, per
    # entry against the row's L1 norm (its mean for the forward transform,
    # whose output is scaled by 2^-K).  Split into Kronecker factors, the
    # transform keeps it within 2.5e-16; as one dense product it is a sum of
    # N terms, bounded by N * eps / 2 whatever order BLAS adds them in
    N = 1 << K
    bound = N * np.finfo(float).eps / 2 if len(paley_factors(K)) == 1 else 2.5e-16
    x = np.random.default_rng(400 + K).standard_t(3, size=(16, N))
    wide, rev = x.astype(np.longdouble), bit_reversal(K)
    l1 = np.abs(x).sum(axis=1, keepdims=True)
    forward = fwht_natural(wide[:, rev], np.longdouble) / N
    inverse = fwht_natural(wide, np.longdouble)[:, rev]
    assert (np.abs(forward_array(x, K) - forward) / (l1 / N)).max() <= bound
    assert (np.abs(inverse_array(x, K) - inverse) / l1).max() <= bound


@pytest.mark.parametrize("K", (3, 7, 9, 15))
def test_transform_batches_and_non_contiguous_views(K):
    N = 1 << K
    rng = np.random.default_rng(K)
    inputs = (rng.normal(size=N),
              rng.normal(size=(N, 4)).T,
              rng.normal(size=(2, 3, N)),
              np.moveaxis(rng.normal(size=(N, 2, 3)), 0, -1))
    assert not inputs[1].flags.c_contiguous and not inputs[3].flags.c_contiguous
    for x in inputs:
        got_f = forward_array(x, K)
        got_i = inverse_array(x, K)
        assert got_f.shape == got_i.shape == x.shape
        assert np.abs(got_f - butterfly_forward(x, K)).max() < 1e-14
        assert np.abs(got_i - butterfly_inverse(x, K)).max() < 1e-12 * N
    with pytest.raises(ValueError):
        forward_array(np.zeros(N), K + 1)


def _batches(K: int, rng) -> list:
    """Inputs of 1, 3 and 8 rows; the 8 rows a transposed (strided) view."""
    N = 1 << K
    return [rng.normal(size=(1, N)), rng.normal(size=(3, N)), rng.normal(size=(N, 8)).T]


def _check_rows(x, K: int, idx) -> None:
    """forward_array and inverse_array of the rows x, at the coefficients or
    cells idx, against the dense product with rows idx of W_K, read from
    `_walsh_signs` (W_K is symmetric, so they are also its columns)."""
    N = 1 << K
    W = _walsh_signs(np.asarray(idx)[:, None], K)
    inverse = inverse_array(x, K)
    assert np.abs(forward_array(x, K)[:, idx] - x @ W.T / N).max() < 1e-13
    assert np.abs(inverse[:, idx] - x @ W.T).max() < 1e-12 * N


@pytest.mark.parametrize("K", range(1, 13))
def test_transform_matches_dense_paley_product(K):
    # the whole product, 512 rows of W_K at a time
    N = 1 << K
    for x in _batches(K, np.random.default_rng(100 + K)):
        for start in range(0, N, 512):
            _check_rows(x, K, np.arange(start, min(N, start + 512)))


@pytest.mark.parametrize("K", range(13, 17))
def test_transform_matches_walsh_rows_at_sampled_coefficients(K):
    N = 1 << K
    rng = np.random.default_rng(200 + K)
    idx = np.concatenate([[0, 1, N // 2, N - 1], rng.integers(0, N, 12)])
    for x in _batches(K, rng):
        _check_rows(x, K, idx)


@pytest.mark.parametrize("K", range(6, 17))
def test_paley_equals_transposing_copy_reference(K):
    # GEMM packs the transposed view as it packs the reference's contiguous
    # copy, and the two apply the same factors in the same order, so every
    # entry is the same double; K = 6 and 7 take two factors, K = 11 to 15
    # three and K = 16 four
    rng = np.random.default_rng(300 + K)
    for rows in (1, 8, 512):
        x = rng.normal(size=(rows, 1 << K))
        assert np.array_equal(_paley(x, K), paley_with_copy(x, K))


@pytest.mark.parametrize("K", (3, 5, 6, 8, 11, 14))
def test_paley_reads_strided_views_without_a_copy(K):
    # a transposed 2D view and a 3D batch with its last two axes swapped go
    # straight into the GEMMs, as the batch of matrices whose rows are the
    # axis of unit stride: every entry is the double of the copying reference
    rng = np.random.default_rng(500 + K)
    N = 1 << K
    for x in (rng.normal(size=(N, 6)).T, rng.normal(size=(2, N, 3)).swapaxes(-2, -1)):
        assert not x.flags.c_contiguous
        assert np.array_equal(_paley(x, K), paley_with_copy(x, K))


def test_forward_transform_of_a_transposed_grid_holds_two_grids():
    # the output and the one temporary of a 256 x 256 transposed view: 2.0
    # grids, where a copy of the view before the first GEMM made it 3.0
    x = np.random.default_rng(7).normal(size=(256, 256)).T
    forward_array(x, 8)
    tracemalloc.start()
    try:
        forward_array(x, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 2 * x.nbytes <= peak < 2.25 * x.nbytes


def _paley_peak(x, K: int) -> int:
    """tracemalloc peak, in bytes, of _paley(x, K), after one call has made
    the cached Paley matrices."""
    _paley(x, K)
    tracemalloc.start()
    try:
        _paley(x, K)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_paley_holds_one_temporary():
    # each factor reads the last one's output through a transposed view, and
    # the three factors at K = 13 and 14 alternate between the output and
    # one temporary: nothing but those two is allocated
    for K in (13, 14):
        x = np.random.default_rng(4).normal(size=(8, 1 << K))
        assert 2 * x.nbytes <= _paley_peak(x, K) < 2.5 * x.nbytes


@pytest.mark.parametrize("K", (14, 16))
def test_integer_vectors_transform_exactly(K):
    rng = np.random.default_rng(K)
    c = rng.integers(-3, 4, size=(2, 1 << K)).astype(float)
    assert np.array_equal(inverse_array(c, K), butterfly_inverse(c, K))
    assert np.array_equal(forward_array(c, K), butterfly_forward(c, K))


def test_fwht_unit_vectors_and_half_indicator():
    spec = GridSpec(3)
    c = forward_array(walsh_sample(5, spec).samples, 3)
    expect = np.zeros(8)
    expect[5] = 1.0
    assert np.abs(c - expect).max() < 1e-14

    half = GridFunction(spec, np.arange(spec.size) < 4)
    c = forward_array(half.samples, 3)
    assert abs(c[0] - 0.5) < 1e-15 and abs(c[1] - 0.5) < 1e-15
    assert np.abs(c[2:]).max() < 1e-15


def test_parseval():
    spec = GridSpec(7)
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = GridFunction(spec, rng.normal(size=spec.size))
        lhs = np.mean(f.samples ** 2)
        rhs = np.sum(forward_array(f.samples, 7) ** 2)
        assert abs(lhs - rhs) < 1e-12


def test_partial_sum():
    spec = GridSpec(4)
    rng = np.random.default_rng(2)
    f = GridFunction(spec, rng.normal(size=spec.size))
    assert np.abs(partial_sum(f, spec.size).samples - f.samples).max() < 1e-12
    mean = forward_array(f.samples, 4)[0]
    assert np.abs(partial_sum(f, 1).samples - mean).max() < 1e-12
    assert np.abs(partial_sum(f, 0).samples).max() == 0.0

    half = GridFunction(spec, np.arange(spec.size) < 8)
    assert np.abs(partial_sum(half, 2).samples - half.samples).max() < 1e-13
    with pytest.raises(ValueError):
        partial_sum(f, spec.size + 1)


def test_dirichlet_kernel():
    spec = GridSpec(4)
    assert np.abs(dirichlet_kernel(0, spec).samples).max() == 0.0
    d4 = dirichlet_kernel(4, spec).samples
    expect = np.zeros(16)
    expect[:4] = 4.0
    assert np.array_equal(d4, expect)        # exact integer-valued match
    assert np.array_equal(dirichlet_kernel(3, GridSpec(2)).samples, [3, 1, 1, -1])
    # direct-sum oracle
    spec6 = GridSpec(6)
    for n in (1, 5, 23, 64):
        direct = sum(walsh_sample(k, spec6).samples for k in range(n))
        assert np.abs(dirichlet_kernel(n, spec6).samples - direct).max() < 1e-11


def test_fejer_kernel_against_dirichlet_average():
    spec = GridSpec(5)
    assert np.abs(fejer_kernel(1, spec).samples - 1.0).max() < 1e-14
    k2 = fejer_kernel(2, GridSpec(1)).samples
    assert np.abs(k2 - [1.5, 0.5]).max() < 1e-14
    for n in (3, 7, 12, 32):
        direct = sum(dirichlet_kernel(k, spec).samples for k in range(1, n + 1)) / n
        assert np.abs(fejer_kernel(n, spec).samples - direct).max() < 1e-12


def fejer_pow2_closed_form(m: int, spec: GridSpec) -> np.ndarray:
    """((2^m+1) 1_{I_m} + sum_{j<m} 2^j 1_{[2^-j-1, 2^-j-1 + 2^-m)}) / 2."""
    K = spec.resolution
    g = np.zeros(spec.size)
    width = 1 << (K - m)
    g[:width] += (1 << m) + 1
    for j in range(m):
        start = 1 << (K - j - 1)
        g[start: start + width] += 1 << j
    return g / 2.0


def test_fejer_kernel_power_of_two_closed_form():
    spec = GridSpec(8)
    for m in range(0, 9):
        if m == 0:
            continue
        expect = fejer_pow2_closed_form(m, spec)
        assert np.abs(fejer_kernel(1 << m, spec).samples - expect).max() < 1e-12


def test_fejer_l1_bound():
    spec = GridSpec(8)
    norms = [fejer_kernel(n, spec).l1_norm() for n in range(1, spec.size + 1)]
    assert max(norms) <= 2.0 + 1e-12


def test_convolution_against_naive_sum():
    K = 6
    spec = GridSpec(K)
    rng = np.random.default_rng(3)
    f = GridFunction(spec, rng.normal(size=spec.size))
    g = GridFunction(spec, rng.normal(size=spec.size))
    naive = np.array([
        np.mean([f.samples[j] * g.samples[l ^ j] for j in range(spec.size)])
        for l in range(spec.size)])
    fast = dyadic_convolve(f, g).samples
    assert np.abs(fast - naive).max() < 1e-10


@pytest.mark.parametrize("K", [2, 3])
def test_convolution_of_2d_grids_against_naive_sum(K):
    # the group convolution on 4 x 4 and 8 x 8 grids: xor on both indices,
    # not row by row
    N = 1 << K
    spec = GridSpec(K)
    rng = np.random.default_rng(7 + K)
    f = GridFunction(spec, rng.normal(size=(N, N)))
    g = GridFunction(spec, rng.normal(size=(N, N)))
    naive = np.array([[sum(f.samples[a, b] * g.samples[i ^ a, j ^ b]
                           for a in range(N) for b in range(N)) / N ** 2
                       for j in range(N)] for i in range(N)])
    fast = dyadic_convolve(f, g).samples
    assert fast.shape == (N, N)
    assert np.abs(fast - naive).max() < 1e-12


def test_convolution_identities():
    spec = GridSpec(5)
    rng = np.random.default_rng(4)
    f = GridFunction(spec, rng.normal(size=spec.size))
    for n in range(spec.resolution + 1):
        lhs = dyadic_convolve(f, dirichlet_kernel(1 << n, spec)).samples
        rhs = partial_sum(f, 1 << n).samples
        assert np.abs(lhs - rhs).max() < 1e-11
    for m in (1, 3, 11, 27):          # any order, not only powers of two
        lhs = dyadic_convolve(f, dirichlet_kernel(m, spec)).samples
        assert np.abs(lhs - partial_sum(f, m).samples).max() < 1e-11
    for n in (0, 3, 17):
        w = walsh_sample(n, spec)
        lhs = dyadic_convolve(f, w).samples
        rhs = forward_array(f.samples, spec.resolution)[n] * w.samples
        assert np.abs(lhs - rhs).max() < 1e-12
    with pytest.raises(ValueError):
        dyadic_convolve(f, GridFunction(GridSpec(4), np.ones(16)))


def test_character_multiplicativity():
    spec = GridSpec(5)
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = (int(v) for v in rng.integers(0, spec.size, 2))
        lhs = walsh_sample(a, spec).samples * walsh_sample(b, spec).samples
        assert np.array_equal(lhs, walsh_sample(a ^ b, spec).samples)


def test_translation_covariance():
    spec = GridSpec(5)
    rng = np.random.default_rng(6)
    f = GridFunction(spec, rng.normal(size=spec.size))
    g = GridFunction(spec, rng.normal(size=spec.size))
    for y in (1, 7, 19):
        shift = np.arange(spec.size) ^ y       # x -> x dyadic+ y/2^K
        lhs = dyadic_convolve(GridFunction(spec, f.samples[shift]), g).samples
        rhs = dyadic_convolve(f, g).samples[shift]
        assert np.abs(lhs - rhs).max() < 1e-12
