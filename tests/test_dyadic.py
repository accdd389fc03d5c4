"""Binary-expansion arithmetic: bits, prefixes, dyadic sums, intervals,
and exact dyadic rationals."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from walshmeans.dyadic import (
    BinaryIndex,
    DyadicInterval,
    DyadicRational,
    GridSpec,
    binary_bits,
    dyadic_add,
    interval_of,
    prefix,
)


def test_binary_bits_examples():
    assert binary_bits(0) == []
    assert BinaryIndex(0).order is None
    assert binary_bits(5) == [1, 0, 1]
    assert BinaryIndex(5).order == 2
    assert binary_bits(12) == [0, 0, 1, 1]
    assert BinaryIndex(12).order == 3


def test_binary_bits_reconstruct():
    rng = np.random.default_rng(0)
    for n in rng.integers(0, 1 << 30, 200):
        n = int(n)
        bits = binary_bits(n)
        assert sum(b << k for k, b in enumerate(bits)) == n
        if n >= 1:
            assert 2 ** BinaryIndex(n).order <= n < 2 ** (BinaryIndex(n).order + 1)


def test_prefix_examples():
    assert prefix(13, 0) == 1
    assert prefix(13, 2) == 5
    assert prefix(13, 9) == 13


def test_prefix_monotone_and_saturating():
    rng = np.random.default_rng(1)
    for n in rng.integers(1, 1 << 20, 100):
        n = int(n)
        vals = [prefix(n, s) for s in range(24)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[BinaryIndex(n).order] == n
        assert all(v == n for v in vals[BinaryIndex(n).order:])


def test_dyadic_add_examples():
    spec = GridSpec(2)
    for i in range(4):
        assert dyadic_add(i, i, spec) == 0
    assert dyadic_add(2, 1, spec) == 3     # 1/2 + 1/4 = 3/4 digitwise
    assert dyadic_add(5, 3, GridSpec(3)) == 6


def test_dyadic_add_group_laws():
    spec = GridSpec(5)
    rng = np.random.default_rng(2)
    for _ in range(200):
        i, j = (int(v) for v in rng.integers(0, 32, 2))
        assert dyadic_add(dyadic_add(i, j, spec), j, spec) == i
        assert dyadic_add(0, j, spec) == j
    with pytest.raises(ValueError):
        dyadic_add(32, 0, spec)


def test_interval_of_examples():
    spec = GridSpec(4)
    assert interval_of(0, 3, spec) == DyadicInterval(3, 0)
    # x = 3/4 at depth 1 -> [1/2, 1)
    assert interval_of(12, 1, spec) == DyadicInterval(1, 1)
    # x = 5/16 at depth 2 -> [1/4, 1/2)
    assert interval_of(5, 2, spec) == DyadicInterval(2, 1)
    assert interval_of(DyadicRational(5, 4), 2) == DyadicInterval(2, 1)


def test_interval_nesting():
    spec = GridSpec(6)
    rng = np.random.default_rng(3)
    for x in rng.integers(0, 64, 50):
        x = int(x)
        for k in range(6):
            outer = interval_of(x, k, spec)
            inner = interval_of(x, k + 1, spec)
            assert outer.intersect(inner) == inner
            assert outer.start <= inner.start
            assert inner.end <= outer.end


def test_interval_intersect_disjoint():
    a = DyadicInterval(2, 1)   # [1/4, 1/2)
    b = DyadicInterval(3, 5)   # [5/8, 3/4)
    assert a.intersect(b) is None
    c = DyadicInterval(3, 2)   # [1/4, 3/8) inside a
    assert a.intersect(c) == c


def test_dyadic_rational_canonical_form():
    assert DyadicRational(4, 2) == DyadicRational(1, 0)
    assert DyadicRational(6, 3) == DyadicRational(3, 2)
    z = DyadicRational(0, 7)
    assert z.numerator == 0 and z.scale == 0
    # negative scale means multiplication by a power of two
    assert DyadicRational(3, -2) == DyadicRational(12, 0)


def test_dyadic_rational_matches_fraction_arithmetic():
    rng = np.random.default_rng(4)
    for _ in range(300):
        a_num, b_num = (int(v) for v in rng.integers(-50, 50, 2))
        a_sc, b_sc = (int(v) for v in rng.integers(0, 8, 2))
        a = DyadicRational(a_num, a_sc)
        b = DyadicRational(b_num, b_sc)
        fa, fb = Fraction(a_num, 2 ** a_sc), Fraction(b_num, 2 ** b_sc)
        assert (a + b).as_fraction() == fa + fb
        assert (a - b).as_fraction() == fa - fb
        assert (a * b).as_fraction() == fa * fb
        assert (a < b) == (fa < fb)
        assert a.times_pow2(3).as_fraction() == fa * 8


def _fraction(numerator: int, scale: int) -> Fraction:
    return Fraction(numerator) / Fraction(2) ** scale


def _is_canonical(x: DyadicRational) -> bool:
    if x.numerator == 0:
        return x.scale == 0
    return x.scale >= 0 and (x.scale == 0 or x.numerator % 2 == 1)


_numerators = st.integers(-(1 << 80), 1 << 80)
_scales = st.integers(-8, 120)


@settings(max_examples=300, deadline=None)
@given(_numerators, _scales, _numerators, _scales, st.integers(-70, 70))
def test_dyadic_rational_properties_against_fraction(a_num, a_sc, b_num, b_sc, k):
    a, b = DyadicRational(a_num, a_sc), DyadicRational(b_num, b_sc)
    fa, fb = _fraction(a_num, a_sc), _fraction(b_num, b_sc)
    results = {"a": (a, fa), "+": (a + b, fa + fb), "-": (a - b, fa - fb),
               "*": (a * b, fa * fb), "times_pow2": (a.times_pow2(k), fa * Fraction(2) ** k),
               "int+": (a_num + b, a_num + fb), "int-": (a_num - b, a_num - fb)}
    for op, (got, want) in results.items():
        assert got.as_fraction() == want, op
        assert _is_canonical(got), (op, got.numerator, got.scale)
    assert (a < b) == (fa < fb)
    assert (a == b) == (fa == fb)
    assert (a <= b) == (fa <= fb)
    # canonical form makes equal values identical, whatever their spelling
    assert DyadicRational(a_num << 5, a_sc + 5) == a
    assert hash(DyadicRational(a_num << 5, a_sc + 5)) == hash(a)


def test_dyadic_rational_int_mixing():
    x = DyadicRational(3, 1)
    assert x + 1 == DyadicRational(5, 1)
    assert 2 * x == DyadicRational(3, 0)
    assert x < 2
    assert str(x) == "3/2^1"
    assert float(DyadicRational(1, 2)) == 0.25
