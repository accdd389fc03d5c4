"""Binary-expansion arithmetic: prefixes, dyadic intervals, and exact
dyadic rationals."""

import numpy as np
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from oracles import interval_end, interval_start
from walshmeans.dyadic import DyadicInterval, DyadicRational, prefix


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
        assert vals[n.bit_length() - 1] == n
        assert all(v == n for v in vals[n.bit_length() - 1:])


def test_interval_nesting():
    K = 6
    rng = np.random.default_rng(3)
    for x in rng.integers(0, 64, 50):
        x = int(x)
        for k in range(K):
            # the depth-k interval holding the point x/2^K
            outer = DyadicInterval(k, x >> (K - k))
            inner = DyadicInterval(k + 1, x >> (K - k - 1))
            assert interval_start(outer) <= interval_start(inner)
            assert interval_end(inner) <= interval_end(outer)


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
