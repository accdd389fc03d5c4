"""Exact rational divergence example: sequence validation, the sparse step
function, Fejer means at zero, and Lebesgue averages, cross-checked against
an independent Fraction-based quadrature oracle and the float grid path."""

import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import interval_length, interval_start, step_integral, to_grid
from walshmeans.cli import main
from walshmeans.dyadic import DyadicRational, GridSpec
from walshmeans.exact import (
    SparseStepFunction,
    avg_sweep_at_zero,
    build_example1,
    divergence_report,
    exact_avg_at_zero,
    exact_fejer_at_zero,
    validate_nseq,
)
from walshmeans.summability import apply_mean, builtin_matrix
from walshmeans.dyadic import DyadicInterval

SEQ = (5, 17, 65)


# ---------------------------------------------------------------------------
# Independent oracle: pieces and quadrature in Fraction arithmetic.

def oracle_pieces(seq):
    out = []
    prev = 0
    for k, nk in enumerate(seq, start=1):
        for a in range(prev + 1, nk + 1):
            start = Fraction(1, 2 ** a)
            out.append((start, start + Fraction(1, 2 ** nk),
                        Fraction(2 ** (nk - a), 2 ** k)))
        prev = nk
    return out

def oracle_sigma(pieces, m):
    plats = [(Fraction(0), Fraction(1, 2 ** m), Fraction(2 ** m + 1, 2))]
    for j in range(m):
        s = Fraction(1, 2 ** (j + 1))
        plats.append((s, s + Fraction(1, 2 ** m), Fraction(2 ** j, 2)))
    total = Fraction(0)
    for ps, pe, pv in plats:
        for qs, qe, qv in pieces:
            lo, hi = max(ps, qs), min(pe, qe)
            if hi > lo:
                total += pv * qv * (hi - lo)
    return total

def oracle_avg(pieces, depth):
    w = Fraction(1, 2 ** depth)
    mass = sum((min(e, w) - s) * v for s, e, v in pieces if s < w)
    return mass / w

def oracle_integral(pieces, window):
    ws = Fraction(window.offset, 2 ** window.depth)
    we = ws + Fraction(1, 2 ** window.depth)
    return sum((max(min(e, we) - max(s, ws), 0) * v for s, e, v in pieces), Fraction(0))


def piece_loop_integral(f, window):
    """The piece loop `SparseStepFunction.integral_over` once ran: dyadic
    intervals are nested or disjoint, so each piece meets the window in
    the deeper of the two or not at all."""
    total = DyadicRational(0)
    for interval, value in f.pieces:
        shallow, deep = sorted((interval, window), key=lambda i: i.depth)
        if deep.offset >> (deep.depth - shallow.depth) == shallow.offset:
            total = total + value * interval_length(deep)
    return total


@st.composite
def valid_nseqs(draw, top=300):
    """Sequences with n_k > 3 n_{k-1} and n_k > 4^k, all at most `top`."""
    seq, prev = [], 0
    for k in range(1, 5):
        low = max(3 * prev, 4 ** k) + 1
        if low > top or (seq and not draw(st.booleans())):
            break
        prev = draw(st.integers(low, top))
        seq.append(prev)
    return tuple(seq)


@st.composite
def windows(draw, pieces, max_depth):
    """A dyadic window of depth 0..max_depth: anywhere, or next to the
    start of one of the pieces at that depth."""
    depth = draw(st.integers(0, max_depth))
    if draw(st.booleans()):
        offset = draw(st.integers(0, (1 << depth) - 1))
    else:
        piece = draw(st.sampled_from(pieces))[0]
        gap = depth - piece.depth
        near = piece.offset << gap if gap >= 0 else piece.offset >> -gap
        offset = min(max(near + draw(st.integers(-1, 1)), 0), (1 << depth) - 1)
    return DyadicInterval(depth, offset)


def test_validate_nseq():
    assert validate_nseq(SEQ) == []
    v = validate_nseq((4, 17, 65))
    assert v and any("n2" in s and "k=1" in s for s in v)
    v = validate_nseq((5, 14, 65))
    assert v and any("n1" in s and "k=2" in s for s in v)
    assert validate_nseq(())


def test_build_example1_structure():
    f = build_example1((5,))
    assert len(f.pieces) == 5
    for interval, _ in f.pieces:
        assert interval_length(interval).as_fraction() == Fraction(1, 32)
    # values 2^(5-a)/2 for a = 1..5
    vals = sorted(v.as_fraction() for _, v in f.pieces)
    assert vals == [Fraction(2 ** (5 - a), 2) for a in (5, 4, 3, 2, 1)]

    f = build_example1(SEQ)
    assert len(f.pieces) == 65
    assert all(interval.offset > 0 for interval, _ in f.pieces)   # none starts at 0
    total = f.integral_over(DyadicInterval(0, 0)).as_fraction()
    oracle = sum((e - s) * v for s, e, v in oracle_pieces(SEQ))
    assert total == oracle
    assert total < 1

    with pytest.raises(ValueError):
        build_example1((4, 17, 65))


def test_group_masses_match_tail_bound():
    # integral of group k is 2^-n_{k-1} - 2^-n_k < 2^-n_{k-1} (before the
    # 2^-k damping); with damping the s > k tail over any window is < 2^-n_k
    f = build_example1(SEQ)
    prev = 0
    for k, nk in enumerate(SEQ, start=1):
        group = [(p, v) for p, v in f.pieces
                 if Fraction(1, 2 ** nk) <= interval_start(p).as_fraction() < Fraction(1, 2 ** prev if prev else 1)]
        mass = sum((v * interval_length(p)).as_fraction() for p, v in group)
        assert mass == (Fraction(1, 2 ** prev if prev else 1) - Fraction(1, 2 ** nk)) / 2 ** k
        prev = nk


def test_exact_fejer_unit_function():
    one = SparseStepFunction(((DyadicInterval(0, 0), DyadicRational(1)),))
    for m in (0, 1, 5, 20, 40):
        assert exact_fejer_at_zero(one, m) == 1


def test_exact_fejer_matches_oracle():
    f = build_example1(SEQ)
    pieces = oracle_pieces(SEQ)
    for m in (0, 1, 3, 5, 17, 30, 65):
        got = exact_fejer_at_zero(f, m).as_fraction()
        assert got == oracle_sigma(pieces, m)


def test_exact_results_invariant_under_piece_order():
    f = build_example1(SEQ)
    pieces = list(f.pieces)
    random.Random(0).shuffle(pieces)
    g = SparseStepFunction(tuple(pieces))
    assert exact_fejer_at_zero(f, 17) == exact_fejer_at_zero(g, 17)
    assert exact_avg_at_zero(f, 9) == exact_avg_at_zero(g, 9)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_antiderivative_matches_piece_loop_and_fractions(data):
    # F(end) - F(start) from the integer table, on shuffled pieces, against
    # the piece loop and the Fraction quadrature, at windows deeper than
    # every piece too
    seq = data.draw(valid_nseqs())
    f = build_example1(seq)
    pieces = list(f.pieces)
    data.draw(st.randoms(use_true_random=False)).shuffle(pieces)
    g = SparseStepFunction(tuple(pieces))
    fractions = oracle_pieces(seq)
    assert g.integral_over(DyadicInterval(0, 0)) == step_integral(f)
    for _ in range(4):
        window = data.draw(windows(f.pieces, seq[-1] + 3))
        got = g.integral_over(window)
        assert got == piece_loop_integral(f, window)
        assert got.as_fraction() == oracle_integral(fractions, window)


def test_overlapping_pieces_rejected():
    half = DyadicInterval(1, 0)
    with pytest.raises(ValueError, match="pieces overlap"):
        SparseStepFunction(((DyadicInterval(3, 3), DyadicRational(1)),
                            (half, DyadicRational(1))))
    adjacent = SparseStepFunction(((DyadicInterval(1, 1), DyadicRational(3, 2)),
                                   (half, DyadicRational(1))))
    assert adjacent.integral_over(DyadicInterval(0, 0)) == DyadicRational(7, 3)


def test_example1_report_bytes_pinned(tmp_path):
    # the sweep benchmark's example1 report, byte for byte as the piece
    # loop wrote it
    out = tmp_path / "ex1.json"
    assert main(["example1", "--nseq", "5,17,65,257", "--out", str(out)]) == 3
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c9d867d418e4daef8ecaee820bdfba639e869454a27d31bee7c61118b0b7e470")


def test_exact_avg_matches_oracle_and_bound():
    f = build_example1(SEQ)
    pieces = oracle_pieces(SEQ)
    prev = 0
    for k, nk in enumerate(SEQ, start=1):
        for depth in range(prev + 1, nk + 1):
            got = exact_avg_at_zero(f, depth).as_fraction()
            assert got == oracle_avg(pieces, depth)
            # single constant across the sweep: avg <= 2 * 2^-k
            assert got <= Fraction(2, 2 ** k)
        prev = nk
    # a window containing every piece averages to the full mass over eps
    full = exact_avg_at_zero(f, 0).as_fraction()
    assert full == step_integral(f).as_fraction()


def test_exact_vs_grid_cross_validation():
    # float grid path at K = 17 against the exact rational path
    seq = (5, 17)
    f = build_example1(seq)
    spec = GridSpec(17)
    grid = to_grid(f, spec)
    F = builtin_matrix("fejer")
    for m in (0, 2, 5, 9, 17):
        exact = float(exact_fejer_at_zero(f, m))
        approx = float(apply_mean(F, 1 << m, grid).samples[0])
        assert abs(exact - approx) < 1e-10


def test_exact_avg_vs_grid_classical_average():
    # the grid-path classical Lebesgue average at zero agrees with the
    # exact rational windows
    from test_lebesgue import classical_lebesgue_avg
    seq = (5, 17)
    f = build_example1(seq)
    grid = to_grid(f, GridSpec(17))
    for depth in (1, 4, 9, 16):
        exact = float(exact_avg_at_zero(f, depth))
        approx = classical_lebesgue_avg(grid, 0, depth)
        assert abs(exact - approx) < 1e-10


def test_divergence_report_structure():
    t0 = time.time()
    rows = divergence_report(SEQ)
    assert time.time() - t0 < 10.0
    assert [r["k"] for r in rows] == [1, 2, 3]
    prev = 0
    for r in rows:
        assert r["lower_bound"].as_fraction() == Fraction(r["n_k"] - prev, 2 ** (r["k"] + 1))
        prev = r["n_k"]
    # the bound column grows along a valid sequence, and so do the exact
    # means themselves (the divergence phenomenon at the point zero)
    bounds = [r["lower_bound"].as_fraction() for r in rows]
    assert bounds[0] < bounds[1] < bounds[2]
    sigmas = [r["sigma_exact"].as_fraction() for r in rows]
    assert sigmas[0] < sigmas[1] < sigmas[2]
    # exact sigma values against the independent oracle
    pieces = oracle_pieces(SEQ)
    for r in rows:
        assert r["sigma_exact"].as_fraction() == oracle_sigma(pieces, r["n_k"])
    # sigma exceeds the derivable bound (n_k - n_{k-1})/2^(k+2); the printed
    # bound is 2x that and is not met -- derivation in test_criterion_09 of
    # test_acceptance.py
    prev = 0
    for r in rows:
        assert r["sigma_exact"].as_fraction() > Fraction(r["n_k"] - prev, 2 ** (r["k"] + 2))
        prev = r["n_k"]
    assert [r["meets_bound"] for r in rows] == [False, False, False]


def test_avg_sweep_report():
    sweep = avg_sweep_at_zero(SEQ)
    assert len(sweep) == 65
    assert all(s["avg_times_2k"] <= 2.0 for s in sweep)
    assert {s["k"] for s in sweep} == {1, 2, 3}
