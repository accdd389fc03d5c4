"""Maximal operators, weak quasi-norms, size functionals, and the
weak-type experiment harness."""

import hashlib
import itertools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    dyadic_maximal_reference,
    llogl_values_reference,
    mean_weight_rows,
    sup_of_means_reference,
    weak_quasinorm_values_reference,
)
from walshmeans import maximal
from walshmeans.dyadic import GridSpec
from walshmeans.maximal import (
    IndexSubsequence,
    dyadic_maximal,
    llogl_norm,
    maximal_abs_mean,
    maximal_mean,
    mean_work,
    random_test_function,
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
from walshmeans.tensor import llogl_weak_type_experiment, random_test_function_2d, tensor_maximal
from walshmeans.transform import (
    GridFunction,
    forward_array,
    inverse_array,
    paley_matrix,
    walsh_sample,
)


def test_subsequence_validation():
    with pytest.raises(ValueError):
        IndexSubsequence(())
    with pytest.raises(ValueError):
        IndexSubsequence((3, 3, 5))
    with pytest.raises(ValueError):
        IndexSubsequence((0, 1))
    s = IndexSubsequence((1, 2, 8))
    with pytest.raises(ValueError):
        s.check_resolution(GridSpec(2))


def test_subsequence_grammar():
    assert tuple(subsequence_from_spec("list:1,3,7")) == (1, 3, 7)
    assert tuple(subsequence_from_spec("all:1..5")) == (1, 2, 3, 4, 5)
    assert tuple(subsequence_from_spec("powers:1..4")) == (2, 4, 8, 16)
    alt = subsequence_from_spec("alternating:1..3")
    assert tuple(alt) == (5, 21, 85)     # sums of 4^j
    with pytest.raises(ValueError):
        subsequence_from_spec("powers:3")
    with pytest.raises(ValueError):
        subsequence_from_spec("weird:1..2")


def test_maximal_mean_basic():
    spec = GridSpec(4)
    F = builtin_matrix("fejer")
    sub = IndexSubsequence((2, 4, 8))
    zero = GridFunction(spec, np.zeros(spec.size))
    assert np.abs(maximal_mean(F, sub, zero).samples).max() == 0.0

    rng = np.random.default_rng(0)
    f = GridFunction(spec, rng.normal(size=spec.size))
    single = maximal_mean(F, IndexSubsequence((5,)), f).samples
    assert np.abs(single - np.abs(apply_mean(F, 5, f).samples)).max() < 1e-13

    f = GridFunction(spec, np.arange(spec.size) < 8)
    got = maximal_mean(F, sub, f).samples
    expect = np.maximum.reduce([np.abs(apply_mean(F, n, f).samples)
                                for n in (2, 4, 8)])
    assert np.abs(got - expect).max() < 1e-13


def test_maximal_abs_mean_dominates():
    spec = GridSpec(5)
    rng = np.random.default_rng(1)
    f = GridFunction(spec, np.abs(rng.normal(size=spec.size)))
    for name in ("fejer", "nlog", "identity"):
        T = builtin_matrix(name)
        sub = IndexSubsequence((1, 3, 5, 12))
        hi = maximal_abs_mean(T, sub, f).samples
        lo = maximal_mean(T, sub, f).samples
        assert np.all(hi >= lo - 1e-12)


def test_maximal_abs_mean_fejer_powers_equality():
    # K_{2^m} >= 0, so the absolute-kernel operator coincides with the
    # plain one along the powers subsequence
    spec = GridSpec(5)
    rng = np.random.default_rng(2)
    f = GridFunction(spec, rng.normal(size=spec.size))
    F = builtin_matrix("fejer")
    sub = subsequence_from_spec("powers:0..5")
    a = maximal_abs_mean(F, sub, f).samples
    b = maximal_mean(F, sub, f).samples
    assert np.abs(a - b).max() < 1e-11


def test_maximal_abs_mean_constant_input():
    spec = GridSpec(5)
    T = builtin_matrix("nlog")
    sub = IndexSubsequence((1, 4, 9, 17))
    one = GridFunction(spec, np.full(spec.size, 1.0))
    got = maximal_abs_mean(T, sub, one).samples
    expect = max(kernel_V(T, n, spec).l1_norm() for n in sub)
    assert np.abs(got - expect).max() < 1e-12


def test_dyadic_maximal():
    spec = GridSpec(3)
    c = GridFunction(spec, np.full(spec.size, -2.0))
    assert np.abs(dyadic_maximal(c).samples - 2.0).max() == 0.0
    w5 = walsh_sample(5, spec)
    assert np.abs(dyadic_maximal(w5).samples - 1.0).max() == 0.0

    rng = np.random.default_rng(3)
    spec = GridSpec(6)
    f = GridFunction(spec, rng.normal(size=spec.size))
    e = dyadic_maximal(f).samples
    assert np.all(e >= abs(forward_array(f.samples, 6)[0]) - 1e-14)
    assert np.all(e >= np.abs(f.samples) - 1e-14)   # n = K term
    # the shared sup along axis 0 equals the one-variable loop to the last bit
    for K in (1, 2, 6, 11):
        f = GridFunction(GridSpec(K), rng.normal(size=1 << K))
        best = np.full(f.spec.size, abs(float(f.samples.mean())))
        for n in range(1, K + 1):
            avg = f.samples.reshape(1 << n, -1).mean(axis=1)
            np.maximum(best, np.repeat(np.abs(avg), 1 << (K - n)), out=best)
        assert np.array_equal(dyadic_maximal(f).samples, best)


def _level_inputs(K, dims, seed):
    """A normal draw shifted so that most values are negative, a rounded
    one (ties between levels), zeros of both signs, subnormals (about
    1e-310), and values near +-1e308 whose level sums overflow to +-inf
    and, where both meet, to nan."""
    rng = np.random.default_rng(seed)
    shape = (1 << K,) * dims
    x = rng.normal(size=shape)
    signs = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return [x - 0.5, np.round(x) - 1.0, signs * 0.0, x * 1e-310,
            signs * rng.uniform(0.2, 1.7, size=shape) * 1e308]


@pytest.mark.parametrize("K", range(1, 15))
def test_level_sums_are_numpys_row_sums(K):
    # each level is formed in the order numpy adds a row, so every bit of
    # x.reshape(2^n, -1).sum(axis=1) agrees, overflows included
    for x in _level_inputs(K, 1, 60 + K):
        with np.errstate(over="ignore", invalid="ignore"):
            levels = list(maximal._level_sums(x, K))
            assert len(levels) == K + 1 and levels[-1] is x
            for n, sums in enumerate(levels):
                assert np.array_equal(sums, x.reshape(1 << n, -1).sum(axis=1), equal_nan=True)


@pytest.mark.parametrize("K, dims", [(K, 1) for K in range(1, 15)] + [(3, 2), (8, 2)])
def test_dyadic_maximal_matches_full_grid_fold(K, dims):
    # the coarse-to-fine fold takes the maximum of the same averages as the
    # full-grid running maximum, so every bit agrees (see `_level_inputs`)
    for x in _level_inputs(K, dims, 40 + K):
        f = GridFunction(GridSpec(K), x)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(dyadic_maximal(f).samples, dyadic_maximal_reference(f),
                                  equal_nan=True)


def test_dyadic_maximal_memory():
    # the level sums hold the pair sums and the levels of 128 cells or
    # more; with the running maximum and the finest level's |x|, about 1.5
    # grids of 2^14 cells (2.5 when each level's fold repeated the maximum
    # into a full-level temporary)
    f = GridFunction(GridSpec(14), np.random.default_rng(5).normal(size=1 << 14))
    dyadic_maximal(f)
    tracemalloc.start()
    try:
        dyadic_maximal(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * f.samples.nbytes


def test_weak_quasinorm():
    spec = GridSpec(4)
    assert weak_quasinorm(GridFunction(spec, np.arange(spec.size) < 8)) == pytest.approx(0.5)
    assert weak_quasinorm(GridFunction(spec, np.full(spec.size, 0.0))) == 0.0
    g = GridFunction(spec, -3.0 * np.r_[np.ones(4), np.zeros(12)])
    assert weak_quasinorm(g) == pytest.approx(3.0 * 4 / 16)


def test_weak_quasinorm_chebyshev_and_homogeneity():
    spec = GridSpec(6)
    rng = np.random.default_rng(4)
    for _ in range(30):
        g = GridFunction(spec, rng.normal(size=spec.size) ** 3)
        wq = weak_quasinorm(g)
        assert wq <= g.l1_norm() + 1e-14
        c = float(rng.random() * 5 + 0.1)
        assert weak_quasinorm(GridFunction(spec, c * g.samples)) == pytest.approx(c * wq)
    # oracle: explicit sup over a fine t-grid never exceeds the exact value
    g = GridFunction(spec, rng.normal(size=spec.size))
    wq = weak_quasinorm(g)
    a = np.abs(g.samples)
    for t in np.linspace(1e-9, a.max() * 1.001, 997):
        assert t * (a > t).mean() <= wq + 1e-12


def test_llogl_norm():
    spec = GridSpec(4)
    assert llogl_norm(GridFunction(spec, np.full(spec.size, 0.9))) == 0.0
    e = math.e
    assert llogl_norm(GridFunction(spec, np.full(spec.size, e))) == pytest.approx(e)
    f = GridFunction(spec, np.r_[np.full(4, e * e), np.zeros(12)])
    assert llogl_norm(f) == pytest.approx(e * e / 2)


def test_llogl_values_equal_the_one_expression():
    rng = np.random.default_rng(8)
    grids = [rng.normal(size=(256, 256)) * 3.0, rng.standard_cauchy(size=(64, 64)),
             rng.uniform(-1.0, 1.0, size=(32, 32)), rng.normal(size=1 << 12) * 2.0]
    for values in grids:
        for cell_measure in (2.0 ** -16, 0.3):
            assert maximal._llogl_values(values, cell_measure) == \
                llogl_values_reference(values, cell_measure)
    assert maximal._llogl_values(grids[2], 1.0) == 0.0


def test_llogl_values_memory():
    # |values|, the mask, the values above 1 and their log: about 3.1 grids
    values = np.random.default_rng(9).uniform(1.5, 4.0, size=(256, 256))
    values[::3] *= -1.0
    maximal._llogl_values(values[:2], 1.0)
    tracemalloc.start()
    try:
        maximal._llogl_values(values, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * values.nbytes


def test_weak_type_experiment_constant_oracle():
    spec = GridSpec(6)
    T = builtin_matrix("nlog")
    sub = IndexSubsequence((1, 5, 9, 33))

    def const_gen(s, rng):
        return GridFunction(s, np.full(s.size, 1.0))

    rep = weak_type_experiment(T, sub, trials=3, K=6, seed=1, generator=const_gen)
    expect = max(kernel_V(T, n, spec).l1_norm() for n in sub)
    assert rep["max_ratio"] == pytest.approx(expect, rel=1e-12)
    assert math.isfinite(rep["max_ratio"])


def test_weak_type_experiment_deterministic():
    T = builtin_matrix("fejer")
    sub = subsequence_from_spec("powers:1..6")
    a = weak_type_experiment(T, sub, trials=8, K=6, seed=42)
    b = weak_type_experiment(T, sub, trials=8, K=6, seed=42)
    assert a == b
    c = weak_type_experiment(T, sub, trials=8, K=6, seed=43)
    assert a["max_ratio"] != c["max_ratio"]


def test_random_test_function_matched_across_resolutions():
    # the draw stream is resolution independent: same masses, aligned spikes
    fa = random_test_function(GridSpec(7), np.random.default_rng(9))
    fb = random_test_function(GridSpec(9), np.random.default_rng(9))
    assert fa.samples.min() >= 0 and fb.samples.min() >= 0
    assert fa.l1_norm() == pytest.approx(fb.l1_norm(), rel=0.02)
    # the spike and block counts are fixed: pin the draws (no BLAS is
    # involved, so the bytes are portable)
    f = random_test_function(GridSpec(6), np.random.default_rng(0))
    assert hashlib.sha256(f.samples.tobytes()).hexdigest() == (
        "6f52b7d5fe0735bfde79eb033cf590adb4ea273ba0007744dd01f349222149af")


def test_dyadic_maximal_weak_type_stability():
    # E* is weak (1,1): the max ratio moves < 20% between K=7 and K=9
    sub = IndexSubsequence((1,))     # unused by the dyadic_maximal operator
    T = builtin_matrix("fejer")
    r7 = weak_type_experiment(T, sub, trials=40, K=7, seed=7,
                              operator="dyadic_maximal")["max_ratio"]
    r9 = weak_type_experiment(T, sub, trials=40, K=9, seed=7,
                              operator="dyadic_maximal")["max_ratio"]
    assert r9 <= 1.2 * r7


def test_abs_fejer_full_range_stability():
    # sup_k |f| * |K_k| over every k <= 2^K stays weak (1,1) stable
    T = builtin_matrix("fejer")
    ratios = {}
    for K in (7, 9):
        sub = subsequence_from_spec(f"all:1..{1 << K}")
        ratios[K] = weak_type_experiment(T, sub, trials=12, K=K, seed=11)["max_ratio"]
    assert ratios[9] <= 1.2 * ratios[7]


# ---------------------------------------------------------------------------
# The band-limited, streamed sup against full-resolution references.

def full_bank(T, subseq, K, absolute):
    """Multiplier rows at the full 2^K: mean weights, or the coefficients
    of |V_n| for the absolute-kernel operator."""
    w = np.stack([mean_coefficient_weights(T, n, 1 << K) for n in subseq])
    return forward_array(np.abs(inverse_array(w, K)), K) if absolute else w


def full_sup(T, subseq, samples, K, absolute):
    """sup_a |inverse(f_hat * row_a)| over the full grid, one row per n_a."""
    fh = forward_array(samples, K)
    return np.abs(inverse_array(fh * full_bank(T, subseq, K, absolute), K)).max(0)


def assert_rel_close(got, ref, rel=1e-12):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


def _custom_matrix(tmp_path, rows):
    rng = np.random.default_rng(17)
    lines = []
    for n in range(rows):
        r = np.sort(rng.random(n + 1))[::-1]
        lines.append(",".join(repr(float(v)) for v in r / r.sum()))
    path = tmp_path / "rows.csv"
    path.write_text("\n".join(lines) + "\n")
    return matrix_from_spec(f"custom:{path}")


# n = 1, powers of two, one past them, and 2^K
EDGE_INDICES = {10: (1, 2, 3, 4, 5, 8, 9, 63, 64, 65, 512, 513, 1000, 1024),
                5: (1, 2, 3, 4, 5, 8, 9, 16, 17, 31, 32)}


def _cases(tmp_path):
    for name in ("fejer", "nlog", "cesaro:0.5", "identity"):
        yield matrix_from_spec(name), 10
    yield _custom_matrix(tmp_path, 33), 5


def test_band_limited_sup_matches_full_resolution(tmp_path):
    rng = np.random.default_rng(21)
    for T, K in _cases(tmp_path):
        sub = IndexSubsequence(EDGE_INDICES[K])
        f = GridFunction(GridSpec(K), rng.normal(size=1 << K))
        assert_rel_close(maximal_mean(T, sub, f).samples,
                         full_sup(T, sub, f.samples, K, absolute=False))
        assert_rel_close(maximal_abs_mean(T, sub, f).samples,
                         full_sup(T, sub, f.samples, K, absolute=True))


def test_weak_type_experiment_matches_per_trial_loop(tmp_path):
    # the batched, band-limited experiment against one full-resolution
    # sup per trial, for each operator
    for T, K in _cases(tmp_path):
        sub = IndexSubsequence(EDGE_INDICES[K])
        spec = GridSpec(K)
        for operator in ("abs_mean", "mean", "dyadic_maximal"):
            rep = weak_type_experiment(T, sub, trials=6, K=K, seed=5,
                                       operator=operator)
            rng = np.random.default_rng(5)
            ratios = []
            for _ in range(6):
                f = random_test_function(spec, rng)
                if operator == "dyadic_maximal":
                    sup = dyadic_maximal(f).samples
                else:
                    sup = full_sup(T, sub, f.samples, K, operator == "abs_mean")
                ratios.append(weak_quasinorm(GridFunction(spec, sup)) / f.l1_norm())
            assert rep["max_ratio"] == pytest.approx(max(ratios), rel=1e-12)
            for p in (25, 50, 75, 90):
                assert rep["quantiles"][f"q{p}"] == pytest.approx(
                    np.quantile(ratios, p / 100), rel=1e-12)


def test_small_chunks_give_the_same_sup(monkeypatch):
    # blocks of a few cells split the trial and row axes of every level
    T = builtin_matrix("nlog")
    sub = IndexSubsequence(EDGE_INDICES[10])
    rep = weak_type_experiment(T, sub, trials=5, K=10, seed=2)
    f = random_test_function(GridSpec(10), np.random.default_rng(4))
    sup = maximal_abs_mean(T, sub, f).samples
    monkeypatch.setattr(maximal, "_CHUNK_CELLS", 8)
    assert weak_type_experiment(T, sub, trials=5, K=10, seed=2)["max_ratio"] == \
        pytest.approx(rep["max_ratio"], rel=1e-13)
    assert_rel_close(maximal_abs_mean(T, sub, f).samples, sup, rel=1e-13)


FOLD_SPECS = ("list:1,3,7,20", "list:2,64", "list:1", "alternating:0..3", "all:1..9")


@pytest.mark.parametrize("chunk", [None, 8], ids=["whole", "chunk8"])
def test_coarse_to_fine_fold_matches_full_grid_fold(chunk, monkeypatch):
    # bit for bit against the full-grid fold, in 1D and 2D: level gaps,
    # an index at level 0 (n = 1), top levels below K, a (2, 3) batch, and
    # with 8-cell blocks the batch and row axes split
    if chunk:
        monkeypatch.setattr(maximal, "_CHUNK_CELLS", chunk)
    K = 7
    rng = np.random.default_rng(12)
    banks = {}
    for spec, name in zip(FOLD_SPECS, ("fejer", "nlog", "cesaro:0.5", "identity", "nlog")):
        sub = subsequence_from_spec(spec)
        T = matrix_from_spec(name)
        banks[spec] = (maximal._mean_weight_matrix(T, sub), sub)
        banks["abs " + spec] = (maximal.abs_kernel_spectra(T, sub), sub)
    coeffs = rng.normal(size=(2, 3, 1 << K))
    for bank in banks.values():
        got = maximal._sup_of_means(coeffs, [bank], K)
        assert got.shape == coeffs.shape
        assert np.array_equal(got, sup_of_means_reference(coeffs, [bank], K))
    coeffs = rng.normal(size=(2, 1 << K, 1 << K))
    for s0, s1 in [("list:1,3,7,20", "list:2,64"), ("list:2,64", "alternating:0..3"),
                   ("list:1", "all:1..9"), ("alternating:0..3", "abs list:1,3,7,20")]:
        pair = [banks[s0], banks[s1]]
        got = maximal._sup_of_means(coeffs, pair, K)
        assert got.shape == coeffs.shape
        assert np.array_equal(got, sup_of_means_reference(coeffs, pair, K))


def test_replayed_plan_reads_the_coefficient_buffer():
    # one workspace, two sets of coefficients written into the same buffer:
    # the second call runs the first one's plan, and each result is its own
    # coefficients' sup, so the plan reads the buffer, not a snapshot of it
    K, rng = 7, np.random.default_rng(13)
    T = matrix_from_spec("nlog")
    one = [(maximal._mean_weight_matrix(T, subsequence_from_spec("all:1..9")),
            subsequence_from_spec("all:1..9"))]
    two = one + [(maximal.abs_kernel_spectra(T, subsequence_from_spec("list:2,64")),
                  subsequence_from_spec("list:2,64"))]
    for banks, shape in [(one, (3, 1 << K)), (two, (2, 1 << K, 1 << K))]:
        work, buffer = maximal._Workspace(), np.empty(shape)
        for i in range(2):
            buffer[...] = rng.normal(size=shape)
            got = maximal._sup_of_means(buffer, banks, K, work)
            plan = work.plan if i == 0 else plan
            assert work.plan is plan
            assert np.array_equal(got, sup_of_means_reference(buffer, banks, K))


def _plan_arrays(plan):
    """The owners of every array a plan's steps read or write."""
    for step in plan[1]:
        for a in (getattr(step.func, "__self__", None), *step.args, *step.keywords.values()):
            if isinstance(a, np.ndarray):
                yield a if a.base is None else a.base


@pytest.mark.parametrize("spec", ["powers:1..14", "all:1..300"])
def test_replayed_blocks_keep_every_buffer(spec, monkeypatch):
    # a 20-trial experiment at K = 14 runs blocks of 8, 8 and 4 trials in one
    # workspace, got hold of by a stubbed constructor; the draw that opens a
    # block sees the buffers the last block left.  After the second block
    # each buffer is the object it was after the first, the plan is the same
    # one, and each array the plan steps on is a workspace buffer, a bank
    # level or a Paley matrix: no slot grew, and no outgrown buffer is kept
    T, sub, K = builtin_matrix("fejer"), subsequence_from_spec(spec), 14
    works, seen = [], []
    init = maximal._Workspace.__init__

    def keep(self):
        init(self)
        works.append(self)

    def draw(grid, rng, drawn=itertools.count()):
        if next(drawn) in (8, 16):
            seen.append((dict(works[0]._buffers), works[0].plan))
        return random_test_function(grid, rng)

    monkeypatch.setattr(maximal._Workspace, "__init__", keep)
    weak_type_experiment(T, sub, trials=20, K=K, seed=4, generator=draw)
    monkeypatch.undo()
    (first, plan), (second, replayed) = seen
    assert len(works) == 1 and replayed is plan
    assert first.keys() == second.keys()
    assert all(second[slot] is buffer for slot, buffer in first.items())
    bank = maximal.abs_kernel_spectra(T, sub)
    owners = {id(a) for a in first.values()}
    owners |= {id(paley_matrix(k)) for k in range(6)}
    levels = {(a.shape, a.tobytes()) for a in bank.values()}
    for owner in _plan_arrays(plan):
        assert id(owner) in owners or (owner.shape, owner.tobytes()) in levels


def _experiment_peak(spec, trials, K, operator="abs_mean"):
    """tracemalloc peak, in bytes, of one fejer weak-type experiment, after
    a small one has made the lazy imports and the caches."""
    weak_type_experiment(builtin_matrix("fejer"), subsequence_from_spec("powers:1..2"),
                         trials=1, K=2, operator=operator)
    tracemalloc.start()
    try:
        weak_type_experiment(builtin_matrix("fejer"), subsequence_from_spec(spec),
                             trials=trials, K=K, operator=operator)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_sup_memory_is_bounded():
    # one level-10 group of 512 rows x 64 trials is 16 blocks unchunked; the
    # experiment holds the bank, the inputs, their coefficients and the sup
    # (trials x 2^K each) and at most 5 blocks of means
    sub = subsequence_from_spec("all:513..1024")
    trials, K = 64, 10
    unchunked = trials * len(sub) * (1 << K)
    assert unchunked > 4 * maximal._CHUNK_CELLS
    peak = _experiment_peak("all:513..1024", trials, K)
    bank = len(sub) * (1 << K)
    held = 8 * (bank + 3 * trials * (1 << K)) + 5 * 8 * maximal._CHUNK_CELLS
    assert peak < held < 8 * unchunked / 2


@pytest.mark.parametrize("operator", ["abs_mean", "mean"])
@pytest.mark.parametrize("K", [12, 14])
def test_weak_type_experiment_holds_three_grids(K, operator):
    # 50 trials are 1.6 MiB a grid at K = 12, 6.6 MiB at 14: the inputs,
    # their coefficients and the sup at most, never a stack of the inputs
    # and the forward transform's full-size temporaries
    trials = 50
    bank = 8 * K * (1 << K)   # powers:1..K, up to level K
    held = 3 * 8 * trials * (1 << K) + bank + 5 * 8 * maximal._CHUNK_CELLS
    assert _experiment_peak(f"powers:1..{K}", trials, K, operator) < held


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 8, 32])
def test_repeat_matches_np_repeat(r):
    # strided copies up to _SHORT_REPEAT, a broadcast above, run from the
    # steps it plans: the same bytes as np.repeat along each axis of a batch
    # of 1D and 2D grids
    rng = np.random.default_rng(r)
    for shape in [(3, 4), (2, 4, 8)]:
        a = rng.normal(size=shape)
        for axis in range(1, len(shape)):
            ref = np.repeat(a, r, axis)
            out = np.full(ref.shape, np.nan)
            steps = []
            maximal._repeat(a, out, axis, steps)
            for step in steps:
                step()
            assert np.array_equal(out, ref)


@pytest.mark.parametrize("op, spec, K", [
    (maximal_mean, "all:1..512", 14),        # spread from level 9 to 14
    (maximal_abs_mean, "powers:1..14", 14),  # the top level is K: no spread
    (tensor_maximal, "all:1..64", 7),        # spread on both axes
])
def test_one_shot_result_holds_only_its_grid(op, spec, K):
    # a maximal operator called once returns an array of exactly its grid's
    # size, not a view that keeps a larger workspace buffer alive (level 9
    # of all:1..512 folds blocks of 256 rows x 512 cells, 8 times the grid)
    T, sub = builtin_matrix("nlog"), subsequence_from_spec(spec)
    rng = np.random.default_rng(3)
    if op is tensor_maximal:
        f = random_test_function_2d(GridSpec(K), rng)
        sup = op(T, sub, T, sub, f).samples
    else:
        f = random_test_function(GridSpec(K), rng)
        sup = op(T, sub, f).samples
    owner = sup if sup.base is None else sup.base
    assert sup.shape == f.samples.shape and owner.nbytes == sup.nbytes


@pytest.mark.parametrize("operator", maximal._OPERATORS)
def test_weak_type_experiment_memory_does_not_grow_with_trials(operator):
    # the trials are drawn, transformed and reduced one block at a time:
    # 400 trials hold what 50 hold, to within one block of cells
    low, high = (_experiment_peak("powers:1..12", trials, 12, operator) for trials in (50, 400))
    assert abs(high - low) < 8 * maximal._CHUNK_CELLS


def _fading(generator, large: int):
    """``generator`` with its first ``large`` draws scaled by 2^20 and the
    later ones by 2^-20.  A power of two scales every ratio's numerator and
    denominator exactly alike, but a sup or a running maximum left over
    from a large draw would dominate a small one's."""
    drawn = itertools.count()

    def draw(spec, rng):
        f = generator(spec, rng)
        return GridFunction(spec, f.samples * 2.0 ** (20 if next(drawn) < large else -20))
    return draw


@pytest.mark.parametrize("operator", ["abs_mean", "mean"])
@pytest.mark.parametrize("spec", ["powers:1..14", "all:1..300", "all:4097..4160"])
def test_trial_blocks_share_no_state(spec, operator, monkeypatch):
    # 20 trials at K = 14 are blocks of 8, 8 and 4 in one workspace, the
    # first block 2^40 times the others; the report equals the one made
    # with a fresh workspace per block (top level at K and below it, one
    # row per level and many, and a single level, which folds straight
    # into the sup)
    T, sub, K = builtin_matrix("fejer"), subsequence_from_spec(spec), 14
    assert maximal._CHUNK_CELLS >> K == 8

    def run():
        return weak_type_experiment(T, sub, trials=20, K=K, seed=9, operator=operator,
                                    generator=_fading(random_test_function, 8))

    shared = run()
    trial_ratios = maximal._trial_ratios
    monkeypatch.setattr(maximal, "_trial_ratios",
                        lambda *args: trial_ratios(*args[:-1], maximal._Workspace()))
    assert run() == shared


def test_llogl_trials_share_no_state():
    # each 2D trial is a block of its own in one workspace, the first 2^40
    # times the others; every ratio is that of tensor_maximal and
    # weak_quasinorm on the same function, so the reports are equal (lower
    # levels on both axes, and top levels below K on both)
    T0, T1 = builtin_matrix("fejer"), builtin_matrix("nlog")
    s0, s1 = subsequence_from_spec("all:1..20"), subsequence_from_spec("alternating:0..2")
    K, trials, spec = 7, 4, GridSpec(7)
    report = llogl_weak_type_experiment(T0, s0, T1, s1, trials=trials, K=K, seed=2,
                                        generator=_fading(random_test_function_2d, 1))
    rng, draw = np.random.default_rng(2), _fading(random_test_function_2d, 1)
    ratios = []
    for _ in range(trials):
        F = draw(spec, rng)
        ratios.append(weak_quasinorm(tensor_maximal(T0, s0, T1, s1, F)) / (1.0 + llogl_norm(F)))
    summary = maximal._ratio_summary(ratios)
    assert {key: report[key] for key in summary} == summary


_BLOCK_FAULTS = """
import resource
from walshmeans.maximal import subsequence_from_spec, weak_type_experiment
from walshmeans.summability import builtin_matrix
from walshmeans.transform import _one_blas_thread

T, sub = builtin_matrix("fejer"), subsequence_from_spec("powers:1..14")

def faults(trials, operator):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    weak_type_experiment(T, sub, trials=trials, K=14, operator=operator)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

with _one_blas_thread():
    for operator in ("abs_mean", "mean"):
        low = min(faults(16, operator) for _ in range(2))
        high = min(faults(48, operator) for _ in range(2))
        print(operator, (high - low) / 4)
"""


def test_trial_blocks_fault_in_no_fresh_memory():
    # after the first block every buffer of the trial loop is reused: each
    # further block of 8 trials at K = 14 adds fewer than 64 minor page
    # faults (about 1,370 when each block allocated its own buffers).  It
    # runs in a fresh interpreter: the heap that earlier tests leave behind
    # can serve freed blocks again without a fault and hide them.  The bound
    # assumes glibc malloc with its default tunables: another allocator may
    # map and unmap the trials' transient arrays differently.
    pytest.importorskip("resource")
    if not sys.platform.startswith("linux"):
        pytest.skip("minor page faults are counted on Linux")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the fault count assumes glibc malloc")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _BLOCK_FAULTS], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    per_block = dict(line.split() for line in done.stdout.splitlines())
    assert set(per_block) == {"abs_mean", "mean"}
    for operator, faults in per_block.items():
        assert float(faults) < 64, (operator, faults)


def test_weak_quasinorm_sort_matches_distinct_values():
    # bit for bit against the np.unique form: ties, zeros, a lone positive
    # value, an all-zero input and 2D sups of ties at several scales
    rng = np.random.default_rng(5)
    cases = [np.zeros(16), np.zeros((4, 4)), np.array([0.0, 0.0, 3.0, 0.0]),
             np.array([2.0, 2.0, 2.0, 2.0]), np.array([0.0, 1.5, 1.5, 0.25, 1.5, 0.0, 0.25, 4.0])]
    for _ in range(100):
        n = 1 << int(rng.integers(0, 12))
        cases.append(rng.random(n) * 10.0 ** rng.integers(-3, 4))
        cases.append(rng.integers(0, 5, size=n) / 4)     # many ties and zeros
        cases.append(np.abs(rng.normal(size=(16, 16))).round(1))
    for values in cases:
        cell_measure = 1.0 / values.size
        # the function sorts and scales its input in place: give it a copy
        assert (maximal._weak_quasinorm_values(values.copy(), cell_measure)
                == weak_quasinorm_values_reference(values, cell_measure))


def _tau_calls(T):
    """Count the calls of T's tau in T.calls (an instance attribute)."""
    tau = T.tau
    T.calls = 0

    def counted(s, n):
        T.calls += 1
        return tau(s, n)
    T.tau = counted
    return T


@pytest.mark.parametrize("matrix, spec, chunk, calls", [
    ("fejer", "all:1..4096", None, 94),
    ("nlog", "all:1..4096", None, 94),
    ("cesaro:0.5", "alternating:0..5", None, 6),
    ("cesaro:0.5", "all:1..300", 1 << 10, 70),
    ("cesaro-seq", "all:1..300", 1 << 10, 70),
    ("custom", "all:1..300", 1 << 10, 70),
    ("custom", "list:1,2,5,77,300", None, 5),
])
def test_bank_fill_matches_row_by_row(matrix, spec, chunk, calls, tmp_path, monkeypatch):
    # one tau call per run of rows holding at most _CHUNK_CELLS cells, and
    # every bit as the per-row loop, cut to the level's width 2^m, past
    # which each row vanishes: all:1..4096 fills levels 10, 11 and 12 with
    # 4, 16 and 64 calls, and 1024-cell runs split all:1..300 from level 6
    # on
    if chunk:
        monkeypatch.setattr(maximal, "_CHUNK_CELLS", chunk)
    if matrix == "cesaro-seq":
        alphas = tmp_path / "alphas.txt"
        alphas.write_text("".join(f"{a!r}\n" for a in np.linspace(0.9, 0.3, 40).tolist()))
        T = matrix_from_spec(f"cesaro-seq:{alphas}")
    elif matrix == "custom":
        T = _custom_matrix(tmp_path, 301)
    else:
        T = matrix_from_spec(matrix)
    sub = subsequence_from_spec(spec)
    bank = maximal._mean_weight_matrix(_tau_calls(T), sub)
    assert T.calls == calls
    assert list(bank) == [m for m, _ in maximal._level_groups(sub)]
    refs = list(mean_weight_rows(T, sub))
    for m, rows in maximal._level_groups(sub):
        level = bank[m]
        assert level.shape == (rows.stop - rows.start, 1 << m) and level.flags.c_contiguous
        assert all(np.array_equal(row, ref[:1 << m]) and not ref[1 << m:].any()
                   for row, ref in zip(level, refs[rows]))


@pytest.mark.parametrize("build", ["_mean_weight_matrix", "abs_kernel_spectra"])
def test_bank_stores_each_row_at_its_level(build):
    # fejer all:1..4096: 8 bytes for each of the 2^{m_a} cells of row a, two
    # thirds of 4096 rows at the top level's 2^12 cells (128 MiB); the build
    # holds them and at most a few runs of _CHUNK_CELLS cells beside them
    sub = subsequence_from_spec("all:1..4096")
    stored = 8 * sum(1 << maximal._level(n) for n in sub)
    T = builtin_matrix("fejer")
    getattr(maximal, build)(T, subsequence_from_spec("all:1..64"))
    tracemalloc.start()
    try:
        bank = getattr(maximal, build)(T, sub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bank.nbytes == stored < 0.7 * 8 * len(sub) * 4096
    assert peak < stored + 6 * 2 ** 20


@pytest.mark.parametrize("operator", maximal._OPERATORS)
@pytest.mark.parametrize("matrix, spec, K, trials", [
    ("fejer", "powers:1..12", 12, 50),
    ("nlog", "all:1..512", 11, 5),
    ("cesaro:0.5", "alternating:0..5", 12, 20),
])
def test_block_size_leaves_reports_unchanged(matrix, spec, K, trials, operator,
                                             monkeypatch):
    # the blocks of the forward transform and of the means split the trial
    # and row axes differently at 2^17 and 2^21 cells; every bit agrees
    T, sub = matrix_from_spec(matrix), subsequence_from_spec(spec)
    report = weak_type_experiment(T, sub, trials=trials, K=K, seed=3, operator=operator)
    monkeypatch.setattr(maximal, "_CHUNK_CELLS", 1 << 21)
    assert weak_type_experiment(T, sub, trials=trials, K=K, seed=3,
                                operator=operator) == report


def test_mean_work_counts_every_index_tuple():
    s0 = IndexSubsequence((1, 2, 3, 8, 9))
    s1 = IndexSubsequence((4, 5, 64))

    def level(n):
        return math.ceil(math.log2(n))
    assert mean_work(s0) == sum(level(n) * 2 ** level(n) for n in s0)
    assert mean_work(s0, s1) == sum(
        (level(a) + level(b)) * 2 ** (level(a) + level(b))
        for a, b in itertools.product(s0, s1))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda K: st.lists(
    st.integers(-6, 6).map(lambda v: v / 4), min_size=1 << K, max_size=1 << K)))
def test_weak_quasinorm_matches_brute_force(values):
    # sup_t t mu(|g| > t) over every threshold: the supremum is approached
    # as t rises to a value v of |g|, where it tends to v mu(|g| >= v)
    K = len(values).bit_length() - 1
    g = GridFunction(GridSpec(K), np.array(values))
    a = [abs(v) for v in values]
    brute = max([v * sum(x >= v for x in a) / len(a) for v in a if v > 0],
                default=0.0)
    wq = weak_quasinorm(g)
    assert wq == pytest.approx(brute, rel=1e-15, abs=0)
    for t in sorted(set(a)) + [v / 2 for v in a] + [v * (1 - 1e-9) for v in a]:
        if t > 0:
            assert t * sum(x > t for x in a) / len(a) <= wq * (1 + 1e-15)
