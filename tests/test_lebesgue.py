"""Walsh-Lebesgue functionals: shifted-average sums, the domination
inequalities, point classification, and the tensor convergence report."""

import re

import numpy as np
import pytest

from oracles import dirichlet_kernel, fejer_kernel
from walshmeans.dyadic import GridSpec
from walshmeans.lebesgue import classify_wlp, h0, h1, mt2_convergence_experiment, w2d
from walshmeans.maximal import IndexSubsequence, subsequence_from_spec
from walshmeans.summability import builtin_matrix, matrix_from_spec, mean_coefficient_weights
from walshmeans.tensor import apply_axis, random_test_function_2d
from walshmeans.transform import GridFunction, forward_array, inverse_array

K = 6
SPEC = GridSpec(K)


# ---------------------------------------------------------------------------
# Slow references: the one-dimensional functionals, cell by cell.

def w1(f: GridFunction, x: int, n: int) -> float:
    """W_n f(x) = sum_{k<=n} 2^k int_{I_n(x + 2^-(k+1))} |f - f(x)|."""
    Kf = f.spec.resolution
    if not 0 <= n <= Kf:
        raise ValueError(f"depth {n} exceeds resolution {Kf}")
    f.spec.check_index(x)
    total = 0.0
    for k in range(n + 1):
        # x dyadic+ 2^-(k+1); digits at or below the cell width leave x
        y = x ^ (1 << (Kf - 1 - k)) if k < Kf else x
        a = (y >> (Kf - n)) << (Kf - n)
        total += (2.0 ** k) * np.abs(f.samples[a: a + (1 << (Kf - n))] - f.samples[x]).sum()
    return total * f.spec.cell_measure


def classical_lebesgue_avg(f: GridFunction, x: int, depth: int) -> float:
    """(1/eps) int_[0,eps] |f(x+t) - f(x)| dt with eps = 2^-depth and
    ordinary (non-dyadic) translation."""
    Kf = f.spec.resolution
    if not 0 <= depth <= Kf:
        raise ValueError(f"depth {depth} exceeds resolution {Kf}")
    f.spec.check_index(x)
    width = 1 << (Kf - depth)
    if x + width > f.spec.size:
        raise ValueError("averaging window exits [0,1)")
    return float(np.abs(f.samples[x: x + width] - f.samples[x]).mean())


def h_reference(F: GridFunction, x0: int, x1: int, n: int, axis: int) -> float:
    """H^(0)_n (axis 0) or H^(1)_n (axis 1) as its own loop: shifted
    averages along one axis over blocks spanning the whole other axis,
    read from the prefix sums of |F - F(x0, x1)|."""
    Kf, N = F.spec.resolution, F.spec.size
    p = np.zeros((N + 1, N + 1))
    np.cumsum(np.cumsum(np.abs(F.samples - F.samples[x0, x1]), axis=0), axis=1,
              out=p[1:, 1:])
    x = (x0, x1)[axis]
    total = 0.0
    for i in range(n + 1):
        y = x ^ (1 << (Kf - 1 - i)) if i < Kf else x
        a = (y >> (Kf - n)) << (Kf - n)
        b = a + (1 << (Kf - n))
        rect = (p[b, N] - p[a, N] - p[b, 0] + p[a, 0] if axis == 0
                else p[N, b] - p[0, b] - p[N, a] + p[0, a])
        total += 2.0 ** i * (rect * F.spec.cell_measure ** 2)
    return total


def mt2_means_reference(T0, T1, subseq0, subseq1, F: GridFunction, points):
    """means[a, b, j] = (T0_{n_a} x T1_{n_b} F)(points[j]), one full 2D
    grid per pair."""
    spec = F.spec
    Kf = spec.resolution
    cells = tuple(np.array(points, dtype=int).reshape(-1, 2).T)
    means = np.empty((len(subseq0), len(subseq1), len(points)))
    for a, n0 in enumerate(subseq0):
        gh = forward_array(apply_axis(T0, n0, F, axis=0).samples, Kf)
        for b, n1 in enumerate(subseq1):
            w = mean_coefficient_weights(T1, n1, spec.size)
            means[a, b] = inverse_array(gh * w, Kf)[cells]
    return means


def quarter_square(spec: GridSpec) -> GridFunction:
    half = spec.size // 2
    F = np.zeros((spec.size, spec.size))
    F[:half, :half] = 1.0
    return GridFunction(spec, F)


def spike_ladder(spec: GridSpec) -> GridFunction:
    """Mass 4^(K-j) on the cell at (2^-j-1, 2^-j-1): the shifted averages
    at the origin pick up a unit contribution at every depth, so W never
    decays there while the one-sided H sums stay summable."""
    Kr = spec.resolution
    F = np.zeros((spec.size, spec.size))
    for j in range(Kr):
        c = 1 << (Kr - 1 - j)
        F[c, c] = float(4 ** (Kr - j))
    return GridFunction(spec, F)


def test_w1_examples():
    f = GridFunction(SPEC, np.full(SPEC.size, 7.0))
    for x in (0, 13, 40):
        for n in (0, 2, K):
            assert w1(f, x, n) == 0.0
    half = GridFunction(SPEC, np.arange(SPEC.size) < SPEC.size // 2)
    x = SPEC.size // 4          # the point 1/4
    for n in range(2, K + 1):
        assert w1(half, x, n) == pytest.approx(2.0 ** (-n), abs=1e-15)
    rng = np.random.default_rng(0)
    f = GridFunction(SPEC, rng.normal(size=SPEC.size))
    for x in rng.integers(0, SPEC.size, 10):
        assert w1(f, int(x), 3) >= 0.0
    with pytest.raises(ValueError):
        w1(half, 0, K + 1)


def test_w2d_constant_and_separable_decay():
    F = GridFunction(SPEC, np.full((SPEC.size, SPEC.size), 1.0))
    assert w2d(F, 5, 9, 3, 3) == 0.0
    Q = quarter_square(SPEC)
    x = SPEC.size // 4
    vals = [w2d(Q, x, x, n, n) for n in range(1, K + 1)]
    assert all(v > 0 for v in vals)
    # 2^-n-type decay: every diagonal step shrinks and the asymptotic ratio
    # settles near 1/2 (measured 0.65, 0.56, 0.53, 0.51, 0.51)
    for a, b in zip(vals, vals[1:]):
        assert b <= 0.7 * a
    assert vals[-1] * 16 <= vals[0]


def test_w2d_reduces_to_w1_for_y_constant_functions():
    # for F(x,y) = f(x) the second-variable sum telescopes:
    # W_{n0,n1} F = (2 - 2^-n1) W_{n0} f
    rng = np.random.default_rng(8)
    f = GridFunction(SPEC, rng.normal(size=SPEC.size))
    F = GridFunction(SPEC, np.repeat(f.samples[:, None], SPEC.size, axis=1))
    for x0, x1 in ((0, 0), (17, 40), (33, 5)):
        for n0 in (1, 3, K):
            for n1 in (0, 2, K):
                expect = (2.0 - 2.0 ** (-n1)) * w1(f, x0, n0)
                assert w2d(F, x0, x1, n0, n1) == pytest.approx(expect, abs=1e-11)


def test_wl1_lower_bound_inequality():
    # (|F| * D_{2^s0} x D_{2^s1})(x) <= W_{s0,s1} F(x) for F >= 0 vanishing at x
    rng = np.random.default_rng(1)
    for trial in range(6):
        F = random_test_function_2d(SPEC, rng)
        x0, x1 = (int(v) for v in rng.integers(0, SPEC.size, 2))
        F.samples[x0, x1] = 0.0
        for s0, s1 in ((0, 0), (1, 3), (2, 2), (4, 1), (K, K)):
            d0 = dirichlet_kernel(1 << s0, SPEC).samples
            d1 = dirichlet_kernel(1 << s1, SPEC).samples
            idx = np.arange(SPEC.size)
            conv = (d0[x0 ^ idx][:, None] * d1[x1 ^ idx][None, :]
                    * np.abs(F.samples)).mean()
            assert conv <= w2d(F, x0, x1, s0, s1) + 1e-12


def test_wl2_wl3_dominations():
    rng = np.random.default_rng(2)
    for trial in range(5):
        F = GridFunction(SPEC, rng.normal(size=(SPEC.size, SPEC.size)))
        x0, x1 = (int(v) for v in rng.integers(0, SPEC.size, 2))
        for s0, s1 in ((0, 0), (1, 2), (3, 3), (5, 2), (K, K)):
            w = w2d(F, x0, x1, s0, s1)
            bound2 = 2.0 ** s0 * h1(F, x0, x1, s1)
            bound3 = 2.0 ** s1 * h0(F, x0, x1, s0)
            slack = 1e-12 * max(1.0, w)
            assert w <= bound2 + slack
            assert w <= bound3 + slack


def test_wl4_uniform_bound():
    # W_{s0,s1} <= 4 (||F||_1 + |F(x)|) 2^(s0+s1), an s-independent constant
    rng = np.random.default_rng(3)
    for trial in range(4):
        F = random_test_function_2d(SPEC, rng)
        x0, x1 = (int(v) for v in rng.integers(0, SPEC.size, 2))
        c = 4.0 * (F.l1_norm() + abs(F.samples[x0, x1]))
        for s0 in range(K + 1):
            for s1 in range(K + 1):
                assert w2d(F, x0, x1, s0, s1) <= c * 2.0 ** (s0 + s1) + 1e-9


def test_zz_inequality_with_true_constant():
    # |F_x| * (|K_l0| x |K_l1|)(x) <= c (1/(l0 l1)) sum 2^{i0+i1} W_{i0,i1}.
    # The constant-free form fails (see the counterexample test below). Both
    # sides are linear in |F - F(x)|, so the sup of LHS/RHS is reached by a
    # unit mass, where it is the product of an off-point factor
    # 3 2^{K-2}/(2^{K-1}+1) and an on-point factor 3 2^{K-1}/(2^K+1) (two
    # on-point factors would put the mass at x, where |F - F(x)| vanishes).
    # At K=6 the sup is (48/33)(96/65) = 1536/715; as K grows it tends to
    # 9/4 without reaching it, so c = 2.25 is asserted here.
    rng = np.random.default_rng(4)
    idx = np.arange(SPEC.size)
    kernels = np.stack([np.abs(fejer_kernel(l, SPEC).samples)
                        for l in range(1, SPEC.size + 1)])
    for trial in range(3):
        F = random_test_function_2d(SPEC, rng)
        x0, x1 = (int(v) for v in rng.integers(0, SPEC.size, 2))
        delta = np.abs(F.samples - F.samples[x0, x1])
        wtab = np.array([[w2d(F, x0, x1, i0, i1) for i1 in range(K + 1)]
                         for i0 in range(K + 1)])
        pow2 = 2.0 ** np.arange(K + 1)
        A0 = kernels[:, x0 ^ idx]      # A0[l-1, u] = |K_l(x0 xor u)|
        A1 = kernels[:, x1 ^ idx]
        conv = A0 @ delta @ A1.T / SPEC.size ** 2
        for l0 in range(1, SPEC.size + 1):
            o0 = l0.bit_length() - 1
            for l1 in range(1, SPEC.size + 1):
                o1 = l1.bit_length() - 1
                rhs = (pow2[: o0 + 1, None] * pow2[None, : o1 + 1]
                       * wtab[: o0 + 1, : o1 + 1]).sum() / (l0 * l1)
                assert conv[l0 - 1, l1 - 1] <= 2.25 * rhs + 1e-10


def test_zz_constant_free_counterexample():
    # unit mass on the cell adjacent to the point in the second variable:
    # at (l0, l1) = (1, 3) the convolution side is 2 while the weighted-W
    # side is 5/3, so the constant-free comparison fails by the ratio 6/5
    N = SPEC.size
    x0, x1 = 8, 16
    S = np.zeros((N, N))
    S[x0, x1 ^ 1] = float(N * N)
    F = GridFunction(SPEC, S)
    idx = np.arange(N)
    k3 = np.abs(fejer_kernel(3, SPEC).samples)
    lhs = (k3[x1 ^ idx][None, :] * np.abs(F.samples)).mean()
    rhs = (w2d(F, x0, x1, 0, 0) + 2 * w2d(F, x0, x1, 0, 1)) / 3
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(5 / 3, abs=1e-12)
    assert lhs > rhs
    assert lhs <= 2.25 * rhs


def test_classify_wlp_verdicts():
    spec = GridSpec(8)
    const = GridFunction(spec, np.full((spec.size, spec.size), 4.2))
    d = classify_wlp(const, (17, 200))
    assert d["verdict"] == "passes"
    assert max(d["W_values"]) == 0.0 and d["H0_sup"] == 0.0 and d["H1_sup"] == 0.0

    Q = quarter_square(spec)
    x = spec.size // 4
    d = classify_wlp(Q, (x, x))
    assert d["verdict"] == "passes"
    assert d["W_values"][-1] * 4 <= d["W_values"][0]

    ladder = spike_ladder(spec)
    d = classify_wlp(ladder, (0, 0))
    assert d["verdict"] == "fails wl1"
    assert d["W_values"][-1] > 0.5

    payload = d
    assert set(payload) == {"point", "depths", "W_values", "H0_sup", "H1_sup",
                            "verdict", "thresholds"}
    assert payload["thresholds"] == {"decay_factor": 4.0, "h_growth_limit": 2.0,
                                     "atol": 1e-13}


def test_classical_lebesgue_avg():
    f = GridFunction(SPEC, np.full(SPEC.size, 3.0))
    assert classical_lebesgue_avg(f, 5, 2) == 0.0
    half = GridFunction(SPEC, np.arange(SPEC.size) < SPEC.size // 2)
    for depth in range(1, K + 1):
        assert classical_lebesgue_avg(half, 0, depth) == 0.0
    x = SPEC.size // 2 - 1      # just left of the jump
    v = classical_lebesgue_avg(half, x, 1)
    assert 0.0 < v <= 1.0
    with pytest.raises(ValueError):
        classical_lebesgue_avg(half, SPEC.size - 1, K - 1)


def test_h_functionals_equal_their_loops():
    # H^(0)_n = W_{n,0} and H^(1)_n = W_{0,n} to the last bit
    spec = GridSpec(5)
    rng = np.random.default_rng(4)
    F = random_test_function_2d(spec, rng)
    N = spec.size
    points = [(0, 0), (N - 1, N // 2), (N // 2 - 1, 3)] + [tuple(p) for p in rng.integers(0, N, (6, 2))]
    for x0, x1 in points:
        for n in range(spec.resolution + 1):
            assert h0(F, x0, x1, n) == h_reference(F, x0, x1, n, 0)
            assert h1(F, x0, x1, n) == h_reference(F, x0, x1, n, 1)
        d = classify_wlp(F, (x0, x1), depth_range=range(1, 6))
        assert d["H0_sup"] == max(h_reference(F, x0, x1, n, 0) for n in range(1, 6))
        assert d["H1_sup"] == max(h_reference(F, x0, x1, n, 1) for n in range(1, 6))


@pytest.mark.parametrize("names", [("fejer", "nlog"), ("nlog", "cesaro:0.5"),
                                   ("cesaro:0.3", "identity"), ("identity", "fejer")])
def test_mt2_point_form_matches_per_pair_grids(names):
    spec = GridSpec(5)
    N = spec.size
    T0, T1 = map(matrix_from_spec, names)
    F = GridFunction(spec, np.random.default_rng(7).normal(size=(N, N)))
    # 1, 2^m, 2^m + 1 and 2^K; points on the edges of the halves
    sub0 = IndexSubsequence((1, 2, 3, 4, 5, 8, 9, 16, 17, 32))
    sub1 = IndexSubsequence((1, 4, 5, 16, 17, 32))
    edges = (0, N // 2 - 1, N // 2, N - 1)
    points = [(a, b) for a in edges for b in edges]
    rep = mt2_convergence_experiment(T0, T1, sub0, sub1, F, points)
    ref = mt2_means_reference(T0, T1, sub0, sub1, F, points)
    for j, p in enumerate(rep["points"]):
        expect = np.abs(ref[:, :, j] - F.samples[points[j]])
        assert np.abs(np.array(p["errors"]) - expect).max() <= 1e-13


def test_mt2_experiment_quarter_square():
    spec = GridSpec(8)
    Q = quarter_square(spec)
    F = builtin_matrix("fejer")
    sub = subsequence_from_spec("powers:2..8")
    pt = (spec.size // 4, spec.size // 4)
    rep = mt2_convergence_experiment(F, F, sub, sub, Q, [pt])
    p = rep["points"][0]
    assert p["classification"]["verdict"] == "passes"
    assert p["errors_decreasing"]
    # closed form for the separable indicator: 1 - (1 - 2^-m-1)^2 at 2^m
    for i, m in enumerate(range(2, 9)):
        expect = 1.0 - (1.0 - 2.0 ** (-m - 1)) ** 2
        assert p["diag_errors"][i] == pytest.approx(expect, abs=1e-12)
    assert rep["t0_axis0"] == pytest.approx([2.0 ** (-m) for m in range(2, 9)])


def test_mt2_experiment_points_from_generator():
    spec = GridSpec(5)
    F = random_test_function_2d(spec, np.random.default_rng(11))
    T0, T1 = builtin_matrix("fejer"), builtin_matrix("nlog")
    sub0, sub1 = subsequence_from_spec("powers:1..5"), subsequence_from_spec("list:3,9")
    pts = [(0, 0), (7, 30), (31, 2)]
    rep = mt2_convergence_experiment(T0, T1, sub0, sub1, F, (p for p in pts))
    assert [tuple(p["point"]) for p in rep["points"]] == pts
    for p in pts:
        alone = mt2_convergence_experiment(T0, T1, sub0, sub1, F, [p])
        assert rep["points"][pts.index(p)] == alone["points"][0]


def test_mt2_experiment_constant_input():
    spec = GridSpec(6)
    F = GridFunction(spec, np.full((spec.size, spec.size), 1.0))
    L = builtin_matrix("nlog")
    sub = subsequence_from_spec("list:1,4,16")
    rep = mt2_convergence_experiment(L, L, sub, sub, F, [(3, 3)])
    p = rep["points"][0]
    for i, n0 in enumerate(sub):
        for j, n1 in enumerate(sub):
            defect = 1 - (1 - L.row(n0)[n0]) * (1 - L.row(n1)[n1])
            assert p["errors"][i][j] == pytest.approx(defect, abs=1e-12)


@pytest.mark.parametrize("depths", [range(-2, 3), (5, 2), range(3, 6), ()],
                         ids=["negative", "reversed", "past-K", "empty"])
def test_classify_wlp_checks_its_depth_range(depths):
    # 0 <= a <= b <= K, checked by the library itself and named as given
    F = GridFunction(GridSpec(4), np.ones((16, 16)))
    with pytest.raises(ValueError, match=re.escape(
            f"depth range {depths!r}: expected increasing depths a..b with "
            "0 <= a <= b <= 4, the grid's resolution")):
        classify_wlp(F, (1, 1), depth_range=depths)
