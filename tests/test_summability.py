"""Transformation matrices: row conditions, cumulative weights, the
boundedness functional, kernels, the V1+V2 split, and the means."""

import tracemalloc

import numpy as np
import pytest

from oracles import dirichlet_kernel, fejer_kernel, grid_integral, partial_sum
from walshmeans import summability
from walshmeans.dyadic import GridSpec, prefix
from walshmeans.summability import (
    GuardRailError,
    MatrixValidationError,
    TransformationMatrix,
    apply_mean,
    builtin_matrix,
    c2_quantity,
    kernel_V,
    kernel_decomposition,
    matrix_from_spec,
    upsilon,
)
from walshmeans.transform import GridFunction, inverse_array, walsh_sample

FAMILIES = ("fejer", "nlog", "cesaro:0.5", "identity")


# ---------------------------------------------------------------------------
# Slow references: rows from each family's definition and the per-index
# loops of the boundedness functionals.

def reference_row(name, n, alpha_seq=None):
    """Row n of a family, built from its definition."""
    if n == 0:
        return np.ones(1)
    if name == "fejer":
        row = np.full(n + 1, 1.0 / n)
        row[n] = 0.0
        return row
    if name == "identity":
        row = np.zeros(n + 1)
        row[0] = 1.0
        return row
    if name == "nlog":
        t = 1.0 / np.arange(1, n + 2)
        return t / t.sum()
    alpha = alpha_seq[min(n, len(alpha_seq) - 1)] if alpha_seq else float(name.split(":")[1])
    k = np.arange(1, n + 1)
    A = np.concatenate([[1.0], np.cumprod((k + alpha - 1.0) / k)])   # A_k^{alpha-1}
    return A / A.sum()


def upsilon_reference(cum, n):
    """sum_{k<=|n|} |eps_k - eps_{k+1}| tau_{2^k,n}, index by index, with
    cum[s] = tau_{s,n}."""
    total = 0.0
    for k in range(n.bit_length()):
        if (n >> k) & 1 != (n >> (k + 1)) & 1:
            total += cum[1 << k]
    return total


def cesaro_A(alpha: float, k: int) -> float:
    """Cesaro number A_k^alpha by the product recurrence A_k = A_{k-1}(k+alpha)/k."""
    if alpha <= -1:
        raise ValueError("cesaro_A requires alpha > -1")
    a = 1.0
    for i in range(1, k + 1):
        a *= (i + alpha) / i
    return a


def c2_reference(alpha, n):
    """2^{-|n| alpha} sum_k |eps_k - eps_{k+1}| 2^{k alpha}, index by index."""
    order = n.bit_length() - 1
    total = 0.0
    for k in range(order + 1):
        if (n >> k) & 1 != (n >> (k + 1)) & 1:
            total += 2.0 ** ((k - order) * alpha)
    return total


def kernel_decomposition_reference(T, n, spec):
    """V1 and V2 bit by bit, from the row differences: one inverse
    transform and one Walsh-sample product per set bit of n."""
    K, size = spec.resolution, spec.size
    row = T.row(n)
    v1_coeffs = np.zeros(size)
    v2 = np.zeros(size)
    for s in range(n.bit_length()):
        if not (n >> s) & 1:
            continue
        # w_{2^s} D_{2^s} has spectrum 1 on [2^s, 2^{s+1})
        v1_coeffs[1 << s: 1 << (s + 1)] = T.tau(prefix(n, s) - 1, n)
        if s == 0:
            continue  # empty difference block and a zero-length Fejer term
        base = prefix(n, s - 1)
        block = 1 << s
        coeff = np.zeros(block)             # coeff[l] multiplies l*K_l
        coeff[1: block - 1] = row[base + 1: base + block - 1] - row[base + 2: base + block]
        coeff[block - 1] = row[base + block - 1]
        # spectrum of sum_l coeff[l] * l * K_l at i is sum_{l>i} coeff[l](l-i)
        l = np.arange(block, dtype=float)
        s1 = np.cumsum((coeff * l)[::-1])[::-1]
        s0 = np.cumsum(coeff[::-1])[::-1]
        bracket = np.zeros(size)
        bracket[:block] = s1 - np.arange(block) * s0
        v2 -= walsh_sample(prefix(n, s) ^ (block - 1), spec).samples * inverse_array(bracket, K)
    wn = walsh_sample(n, spec).samples
    return wn * inverse_array(v1_coeffs, K), wn * v2


def test_builtin_rows():
    F = builtin_matrix("fejer")
    assert np.allclose(F.row(4), [0.25, 0.25, 0.25, 0.25, 0.0])
    C1 = builtin_matrix("cesaro", alpha=1.0)
    for n in (1, 4, 9):
        assert np.allclose(C1.row(n), np.full(n + 1, 1.0 / (n + 1)))
    L = builtin_matrix("nlog")
    assert np.allclose(L.row(2), np.array([6, 3, 2]) / 11.0)
    I = builtin_matrix("identity")
    assert np.array_equal(I.row(5), [1, 0, 0, 0, 0, 0])


def test_row_conditions_sweep():
    # full sweep: row() raises MatrixValidationError on any (a)-(c) breach
    for name in FAMILIES:
        T = matrix_from_spec(name)
        for n in range(0, (1 << 14) + 1):
            T.row(n)
    # spot-check the numbers behind the validation
    rng = np.random.default_rng(0)
    for name in FAMILIES:
        T = matrix_from_spec(name)
        for n in rng.integers(1, 1 << 14, 25):
            row = T.row(int(n))
            assert abs(row.sum() - 1.0) <= 1e-12
            assert row.min() >= -1e-15
            assert np.all(np.diff(row) <= 1e-12)


def test_validation_rejects_bad_rows():
    bad_sum = TransformationMatrix.from_rows("badsum", lambda n: np.full(n + 1, 1.0))
    with pytest.raises(MatrixValidationError):
        bad_sum.row(2)
    increasing = TransformationMatrix.from_rows(
        "inc", lambda n: np.arange(n + 1, dtype=float) * 2 / (n * (n + 1)) if n else np.ones(1))
    with pytest.raises(MatrixValidationError):
        increasing.row(3)
    negative = TransformationMatrix.from_rows(
        "neg", lambda n: np.array([1.5] + [-0.5 / n] * n) if n else np.ones(1))
    with pytest.raises(MatrixValidationError):
        negative.row(2)
    nan = TransformationMatrix.from_rows("nan", lambda n: np.full(n + 1, np.nan))
    with pytest.raises(MatrixValidationError, match="row 1 has a non-finite entry at k=0"):
        nan.row(1)
    short = TransformationMatrix.from_rows("short", lambda n: np.ones(1))
    with pytest.raises(MatrixValidationError, match="row 2 has 1 entries"):
        short.row(2)


def test_cumulative_table_rejects_bad_base_sequence():
    from walshmeans.summability import _CumulativeTable
    rising = TransformationMatrix("rising", _CumulativeTable(
        "rising", lambda m: np.minimum(np.arange(1.0, m + 1), 3.0)))
    with pytest.raises(MatrixValidationError, match="a_1 = 2.0 is above the weight before it"):
        rising.tau(0, 5)
    negative = TransformationMatrix("neg", _CumulativeTable(
        "neg", lambda m: np.where(np.arange(m) < 4, 1.0, -1.0)))
    assert negative.tau(1, 3) == pytest.approx(0.5)    # rows up to 3 are valid
    with pytest.raises(MatrixValidationError, match="a_4 = -1.0 is not >= 0"):
        negative.row(4)
    with pytest.raises(MatrixValidationError, match="a_2 = nan is not >= 0"):
        TransformationMatrix("nan", _CumulativeTable(
            "nan", lambda m: np.where(np.arange(m) == 2, np.nan, 0.0))).row(3)


def test_empty_cesaro_alpha_seq_rejected_when_built():
    # refused by the library itself, not by a first tau call's IndexError
    with pytest.raises(MatrixValidationError, match="cesaro-seq needs at least one exponent"):
        builtin_matrix("cesaro", alpha_seq=[])


def test_cesaro_A():
    from walshmeans.summability import _cesaro_numbers
    for a in (-0.5, 0.0, 0.5):
        expect = [cesaro_A(a, k) for k in range(30)]
        assert np.allclose(_cesaro_numbers(a, 29), expect, rtol=1e-14, atol=0)
    for n in (0, 1, 5, 20):
        assert cesaro_A(1.0, n) == pytest.approx(n + 1, rel=1e-14)
    assert cesaro_A(0.3, 0) == 1.0
    assert cesaro_A(0.5, 2) == pytest.approx(15 / 8, rel=1e-14)
    # sum_{k<=n} A_k^{a-1} = A_n^a
    for a in (0.25, 0.5, 0.9):
        for n in (3, 17, 200):
            s = sum(cesaro_A(a - 1.0, k) for k in range(n + 1))
            assert s == pytest.approx(cesaro_A(a, n), rel=1e-9)


def test_tau():
    F = builtin_matrix("fejer")
    L = builtin_matrix("nlog")
    assert F.tau(2, 4) == pytest.approx(0.75)
    assert L.tau(1, 2) == pytest.approx(9 / 11)
    for T in map(matrix_from_spec, FAMILIES):
        for n in (1, 6, 13):
            assert T.tau(n, n) == pytest.approx(1.0, abs=1e-12)
            vals = [T.tau(s, n) for s in range(n + 1)]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        F.tau(5, 4)


def test_tau_fast_path_agrees_with_rows():
    rng = np.random.default_rng(1)
    for name in FAMILIES:
        T = matrix_from_spec(name)
        for _ in range(40):
            n = int(rng.integers(1, 3000))
            s = int(rng.integers(0, n + 1))
            generic = float(T.row(n)[: s + 1].sum())
            assert T.tau(s, n) == pytest.approx(generic, abs=1e-12)


@pytest.mark.parametrize("name", FAMILIES + ("cesaro:0.01", "cesaro:1"))
def test_tau_and_rows_match_reference_rows(name):
    # every n below 2^10, then the edges of each power of two and random
    # indices up to 2^14 (the whole range would cost seconds per family)
    rng = np.random.default_rng(8)
    edges = {(1 << m) + d for m in range(10, 15) for d in (-1, 0, 1)} - {(1 << 14) + 1}
    ns = list(range(1 << 10)) + sorted(edges) + [int(n) for n in rng.integers(1, 1 << 14, 40)]
    T = matrix_from_spec(name)
    for n in ns:
        ref = reference_row(name, n)
        cum = T.tau(np.arange(n + 1), n)
        row = T.row(n)
        assert np.abs(cum - np.cumsum(ref)).max() <= 1e-12, n
        assert np.abs(cum - np.cumsum(row)).max() <= 1e-12, n
        assert np.abs(row - ref).max() <= 1e-12, n
        assert cum[n] == 1.0


def test_upsilon_examples():
    F = builtin_matrix("fejer")
    assert upsilon(F, 4) == pytest.approx(7 / 4)
    assert upsilon(F, 7) == pytest.approx(5 / 7)
    for T in map(matrix_from_spec, FAMILIES):
        assert upsilon(T, 1) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        upsilon(F, 0)


def test_kernel_V():
    spec = GridSpec(6)
    F = builtin_matrix("fejer")
    for n in (1, 2, 5, 16, 33):
        assert np.abs(kernel_V(F, n, spec).samples
                      - fejer_kernel(n, spec).samples).max() < 1e-12
    I = builtin_matrix("identity")
    for n in (1, 7, 64):
        assert np.abs(kernel_V(I, n, spec).samples
                      - dirichlet_kernel(n, spec).samples).max() < 1e-11
    # integral of the kernel equals 1 - t_{n,n}
    for name in FAMILIES:
        T = matrix_from_spec(name)
        for n in (1, 3, 10, 40):
            got = grid_integral(kernel_V(T, n, spec))
            assert got == pytest.approx(1.0 - T.row(n)[n], abs=1e-12)


def test_kernel_V_definition_oracle():
    # direct weighted Dirichlet sum
    spec = GridSpec(5)
    L = builtin_matrix("nlog")
    for n in (1, 4, 11):
        t = L.row(n)
        direct = sum(t[n - k] * dirichlet_kernel(k, spec).samples
                     for k in range(1, n + 1))
        assert np.abs(kernel_V(L, n, spec).samples - direct).max() < 1e-12


def test_kernel_decomposition_identity():
    spec = GridSpec(7)
    rng = np.random.default_rng(2)
    ns = [1, 2, 3, 4, 8, 16, 64] + [int(v) for v in rng.integers(1, 128, 20)]
    for name in FAMILIES:
        T = matrix_from_spec(name)
        for n in ns:
            v1, v2 = kernel_decomposition(T, n, spec)
            v = kernel_V(T, n, spec)
            assert np.abs(v1.samples + v2.samples - v.samples).max() < 1e-10


@pytest.mark.parametrize("K", [4, 7, 12])
def test_kernel_decomposition_parts_against_reference(K, tmp_path):
    # each part on its own, not only their sum: a term moved from V2 into
    # V1 keeps V1 + V2 = V_n but fails here
    count = 130             # rows of the custom matrix
    rows = tmp_path / "rows.csv"
    rows.write_text("".join(",".join(map(repr, reference_row("cesaro:0.3", n).tolist())) + "\n"
                            for n in range(count)))
    alphas = tmp_path / "alphas.txt"
    alphas.write_text("1.0\n0.3\n0.8\n0.5\n0.2\n0.9\n0.4\n")
    specs = FAMILIES + ("cesaro:0.01", f"custom:{rows}", f"cesaro-seq:{alphas}")
    spec = GridSpec(K)
    ns = {1, 2, 3, spec.size - 1}
    for m in range(2, K):
        ns |= {(1 << m) - 1, 1 << m, (1 << m) + 1}
    ns |= {int(n) for n in np.random.default_rng(K).integers(1, spec.size, 8)}
    for text in specs:
        T = matrix_from_spec(text)
        for n in sorted(ns):
            if text.startswith("custom:") and n >= count:
                continue
            v1, v2 = kernel_decomposition(T, n, spec)
            r1, r2 = kernel_decomposition_reference(T, n, spec)
            tol = 1e-12 * np.abs(kernel_V(T, n, spec).samples).max()
            assert np.abs(v1.samples - r1).max() <= tol, (text, n)
            assert np.abs(v2.samples - r2).max() <= tol, (text, n)


def test_kernel_decomposition_single_bit():
    # single-bit n: the V2 inner sum ranges over one scale only
    spec = GridSpec(6)
    T = matrix_from_spec("nlog")
    for m in range(0, 6):
        v1, v2 = kernel_decomposition(T, 1 << m, spec)
        v = kernel_V(T, 1 << m, spec)
        assert np.abs(v1.samples + v2.samples - v.samples).max() < 1e-12


def test_kernel_decomposition_fejer_n3():
    spec = GridSpec(4)
    v1, v2 = kernel_decomposition(builtin_matrix("fejer"), 3, spec)
    v = kernel_V(builtin_matrix("fejer"), 3, spec)
    assert np.abs(v1.samples + v2.samples - v.samples).max() < 1e-12


def test_apply_mean_against_definition():
    spec = GridSpec(5)
    rng = np.random.default_rng(3)
    f = GridFunction(spec, rng.normal(size=spec.size))
    for name in FAMILIES:
        T = matrix_from_spec(name)
        for n in (1, 2, 7, 12):
            t = T.row(n)
            direct = sum(t[n - k] * partial_sum(f, k).samples for k in range(n + 1))
            got = apply_mean(T, n, f).samples
            assert np.abs(got - direct).max() < 1e-11


def test_apply_mean_special_cases():
    spec = GridSpec(5)
    rng = np.random.default_rng(4)
    f = GridFunction(spec, rng.normal(size=spec.size))

    # constant rule: c -> c (1 - t_{n,n})
    for name in FAMILIES:
        T = matrix_from_spec(name)
        c = GridFunction(spec, np.full(spec.size, 2.5))
        for n in (1, 5, 9):
            expect = 2.5 * (1.0 - T.row(n)[n])
            assert np.abs(apply_mean(T, n, c).samples - expect).max() < 1e-12

    I = builtin_matrix("identity")
    for n in (0, 1, 9, 32):
        assert np.abs(apply_mean(I, n, f).samples
                      - partial_sum(f, n).samples).max() < 1e-11

    F = builtin_matrix("fejer")
    w1 = walsh_sample(1, spec)
    got = apply_mean(F, 2, w1).samples
    assert np.abs(got - w1.samples / 2).max() < 1e-13


def test_apply_mean_paths_agree():
    spec = GridSpec(6)
    rng = np.random.default_rng(5)
    for name in FAMILIES:
        T = matrix_from_spec(name)
        for _ in range(10):
            f = GridFunction(spec, rng.normal(size=spec.size))
            n = int(rng.integers(1, spec.size + 1))
            a = apply_mean(T, n, f, path="coefficient").samples
            b = apply_mean(T, n, f, path="kernel").samples
            assert np.abs(a - b).max() < 1e-10


@pytest.mark.parametrize("path", ["coefficient", "kernel"])
def test_apply_mean_refuses_a_2d_grid(path):
    spec = GridSpec(4)
    square = GridFunction(spec, np.ones((spec.size, spec.size)))
    with pytest.raises(ValueError, match="expected a 1D grid, got a 2D grid"):
        apply_mean(builtin_matrix("fejer"), 3, square, path=path)


def test_cesaro1_is_fejer_up_to_s0():
    # (C,1) and Fejer means differ only in how S_0 = 0 is weighted:
    # T^{C,1}_n = (n/(n+1)) T^F_n
    spec = GridSpec(5)
    rng = np.random.default_rng(6)
    f = GridFunction(spec, rng.normal(size=spec.size))
    C1 = builtin_matrix("cesaro", alpha=1.0)
    F = builtin_matrix("fejer")
    for n in (1, 3, 8, 20):
        lhs = apply_mean(C1, n, f).samples
        rhs = apply_mean(F, n, f).samples * n / (n + 1)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_c2_quantity():
    for alpha in (0.1, 0.5, 1.0):
        for m in range(1, 21):
            assert c2_quantity(alpha, 1 << m) == 1.0 + 2.0 ** (-alpha)
    # all bits set: only the leading alternation survives
    for m in (0, 3, 10):
        assert c2_quantity(0.3, (1 << (m + 1)) - 1) == pytest.approx(1.0)
    # alternating-bit indices grow monotonically for small alpha
    vals = [c2_quantity(0.1, sum(4 ** j for j in range(a + 1))) for a in range(2, 9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        c2_quantity(0.1, 0)
    with pytest.raises(ValueError):
        c2_quantity(1.5, 3)


def test_stationary_cesaro_upsilon_bounded():
    # max upsilon up to 2^14 stays finite and stable over the last range
    # doubling (slowest convergence at alpha = 0.25: measured +3.9%); the
    # alpha = 0.5 case runs in the acceptance suite
    for alpha, cap in ((0.25, 6.0), (0.75, 3.0)):
        C = builtin_matrix("cesaro", alpha=alpha)
        ups = upsilon(C, np.arange(1, 1 << 14))
        m12 = ups[: (1 << 12) - 1].max()
        m14 = ups.max()
        assert m14 <= cap
        assert m14 <= 1.05 * m12


def test_upsilon_array_matches_per_index_reference(tmp_path):
    seq = tmp_path / "alpha.txt"
    seq.write_text("1.0\n0.5\n0.25\n0.75\n0.1\n")
    alphas = [1.0, 0.5, 0.25, 0.75, 0.1]
    cases = [(name, matrix_from_spec(name), None) for name in FAMILIES + ("cesaro:0.01",)]
    cases.append(("cesaro-seq", matrix_from_spec(f"cesaro-seq:{seq}"), alphas))
    ns = np.arange(1, 1 << 12)
    for name, T, alpha_seq in cases:
        got = upsilon(T, ns)
        ref = np.array([upsilon_reference(np.cumsum(reference_row(name, int(n), alpha_seq)), int(n))
                        for n in ns])
        assert got.shape == ns.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, ref)), name
        # a scalar index takes the same path and returns a float
        for n in (1, 2, 3, 1000, 4095):
            assert upsilon(T, n) == got[n - 1] and isinstance(upsilon(T, n), float)
    # any array shape; out-of-order and repeated indices
    F = builtin_matrix("fejer")
    grid = np.array([[7, 4], [4, 1]])
    assert np.array_equal(upsilon(F, grid), [[5 / 7, 7 / 4], [7 / 4, 1.0]])
    with pytest.raises(ValueError, match="undefined for n = 0"):
        upsilon(F, np.array([3, 0, 5]))


def test_c2_array_matches_per_index_reference():
    ns = np.arange(1, 1 << 12)
    for alpha in (0.1, 0.5, 1.0):
        got = c2_quantity(alpha, ns)
        ref = np.array([c2_reference(alpha, int(n)) for n in ns])
        assert np.array_equal(got, ref)     # same terms, added in the same order
        assert c2_quantity(alpha, 6) == ref[5] and isinstance(c2_quantity(alpha, 6), float)
    with pytest.raises(ValueError, match="undefined for n = -2"):
        c2_quantity(0.5, np.array([4, -2]))


def test_nlog_upsilon_dichotomy_shape():
    L = builtin_matrix("nlog")
    assert all(upsilon(L, 1 << a) <= 3.0 for a in range(1, 17))
    alt = [upsilon(L, sum(4 ** j for j in range(a + 1))) for a in range(2, 9)]
    assert all(x < y for x, y in zip(alt, alt[1:]))   # strict growth


def test_matrix_spec_grammar(tmp_path):
    assert matrix_from_spec("fejer").name == "fejer"
    assert matrix_from_spec("cesaro:0.5").name == "cesaro:0.5"
    with pytest.raises(ValueError):
        matrix_from_spec("cesaro:1.5")
    with pytest.raises(ValueError):
        matrix_from_spec("mystery")

    rows = tmp_path / "rows.csv"
    rows.write_text("1.0\n0.6,0.4\n0.5,0.3,0.2\n")
    T = matrix_from_spec(f"custom:{rows}")
    assert np.allclose(T.row(2), [0.5, 0.3, 0.2])
    with pytest.raises(MatrixValidationError):
        T.row(3)
    # validation happens already on load
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\n0.7,0.7\n")
    with pytest.raises(MatrixValidationError):
        matrix_from_spec(f"custom:{bad}")

    seq = tmp_path / "alpha.txt"
    seq.write_text("1.0\n0.5\n0.5\n")
    S = matrix_from_spec(f"cesaro-seq:{seq}")
    assert abs(S.row(2).sum() - 1.0) < 1e-12


def test_row_cache_thread_safety():
    # threads race to grow the shared cumulative table; every row must
    # equal the one a single thread computes
    import sys
    from concurrent.futures import ThreadPoolExecutor
    T = builtin_matrix("nlog")
    ns = [37] * 64 + list(range(1, 65)) * 2 + [int(n) for n in np.random.default_rng(9).integers(1, 1 << 14, 64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            rows = list(pool.map(T.row, ns, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(abs(r.sum() - 1.0) < 1e-12 for r in rows)
    assert all(np.array_equal(r, rows[0]) for r in rows[:64])
    single = builtin_matrix("nlog")
    assert all(np.array_equal(r, single.row(n)) for n, r in zip(ns, rows))


def test_cumulative_table_size_guard():
    # an index near 2^40 is refused before any table entry is allocated,
    # and the table still serves the indices below the cap
    for T in (builtin_matrix("nlog"), builtin_matrix("cesaro", alpha=0.5)):
        tracemalloc.start()
        try:
            with pytest.raises(GuardRailError, match=r"index 1099511627776 .* 2199023255552 entries"):
                T.tau(0, 1 << 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert T.tau(5, 1 << 15) > 0


def test_cesaro_seq_row_size_guard():
    # a cesaro-seq row has n + 1 entries; one above the table cap is refused
    # before it is allocated, and rows below the cap are still served
    T = builtin_matrix("cesaro", alpha_seq=[1.0, 0.5])
    tracemalloc.start()
    try:
        with pytest.raises(GuardRailError, match=r"row 1099511627776 needs "
                           r"1099511627777 entries, above the limit of 16777216"):
            T.tau(0, 1 << 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert T.tau(5, 1 << 10) > 0


def test_row_sum_guard_counts_every_distinct_row():
    # the rows of one call are refused together, before any is built: the
    # first 5792 rows of a sweep hold 16782320 > 2^24 entries
    built = []

    def row(n):
        built.append(n)
        return np.full(n + 1, 1.0 / (n + 1))
    T = TransformationMatrix.from_rows("probe", row)
    with pytest.raises(GuardRailError, match=r"probe: 5792 rows up to 5792 "
                       r"need 16782320 entries, above the limit of 16777216"):
        upsilon(T, np.arange(1, 6001))
    assert built == []
    assert upsilon(T, np.arange(1, 5001)).shape == (5000,)
    assert sorted(built) == list(range(1, 5001))


def test_alternation_blocks_give_the_same_sums(monkeypatch):
    rng = np.random.default_rng(12)
    grid = rng.integers(1, 1 << 40, size=(37, 11))
    ns = np.arange(1, 3000)
    C = builtin_matrix("cesaro", alpha=0.5)
    whole = [upsilon(C, ns), upsilon(builtin_matrix("fejer"), grid), c2_quantity(0.3, grid)]
    monkeypatch.setattr(summability, "_ALTERNATION_BLOCK", 7)
    parts = [upsilon(C, ns), upsilon(builtin_matrix("fejer"), grid), c2_quantity(0.3, grid)]
    for a, b in zip(whole, parts):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert upsilon(C, 1000) == whole[0][999]


def test_alternation_sum_memory_is_bounded():
    # the (index, bit) arrays are built one block of indices at a time: at
    # 2^18 indices the peak stays a few times the 2 MiB result (one array
    # for all indices peaked at about 115 MiB)
    L = builtin_matrix("nlog")
    ns = np.arange(1, 1 << 18)
    L.tau(0, ns[-1])     # the cumulative table is not what is measured
    tracemalloc.start()
    try:
        ups = upsilon(L, ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ups.shape == ns.shape
    assert peak < 16 << 20
