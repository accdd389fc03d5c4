"""Exact rational reproduction of the divergence example.

The example function is a sparse step function built from a rapidly
growing index sequence: group k places pieces of width 2^-n_k at the
points 2^-a, a in (n_{k-1}, n_k], with value 2^(n_k - a) / 2^k.  Its
Fejer means at zero along the orders 2^m are integrals against a kernel
that is constant on m+1 dyadic plateaus, so the whole computation stays
in dyadic rationals; denominators reach 2^65 with the default sequence
and are handled by arbitrary-precision integers.  No grid is involved.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .dyadic import DyadicInterval, DyadicRational

ZERO = DyadicRational(0)


@dataclass(frozen=True)
class SparseStepFunction:
    """Finitely many disjoint dyadic intervals with exact dyadic values;
    zero off the listed pieces.

    Construction tabulates the antiderivative in integers.  With P the
    deepest piece and V the largest value scale, the pieces sorted by start
    have integer ends in units of 2^-P, integer values in units of 2^-V and
    integer prefix masses in units of 2^-(P+V), so an integral over any
    window is two bisections and no rational arithmetic.
    """

    pieces: tuple[tuple[DyadicInterval, DyadicRational], ...]

    def __post_init__(self):
        depth = max((p.depth for p, _ in self.pieces), default=0)
        vscale = max((v.scale for _, v in self.pieces), default=0)
        rows = sorted((p.offset << (depth - p.depth), (p.offset + 1) << (depth - p.depth),
                       v.numerator << (vscale - v.scale)) for p, v in self.pieces)
        if any(later[0] < row[1] for row, later in zip(rows, rows[1:])):
            raise ValueError("pieces overlap")
        prefix = list(accumulate((v * (e - s) for s, e, v in rows), initial=0))
        starts = [s for s, _, _ in rows]
        # the table is derived from `pieces`, so it stays out of eq/hash/repr
        object.__setattr__(self, "_table", (depth, vscale, rows, starts, prefix))

    def _mass_below(self, x: int, shift: int) -> int:
        """Integral of f over [0, x/2^(P+shift)), in units of 2^-(P+shift+V)."""
        _, _, rows, starts, prefix = self._table
        i = bisect_right(starts, x >> shift) - 1
        if i < 0:
            return 0
        start, stop, value = rows[i]
        return (prefix[i] << shift) + value * (min(x, stop << shift) - (start << shift))

    def integral_over(self, window: DyadicInterval) -> DyadicRational:
        """Exact integral over a dyadic window, F(end) - F(start); the window
        may be deeper than every piece."""
        depth, vscale = self._table[:2]
        shift = max(window.depth - depth, 0)
        scale = depth + shift
        lo = window.offset << (scale - window.depth)
        hi = (window.offset + 1) << (scale - window.depth)
        return DyadicRational(self._mass_below(hi, shift) - self._mass_below(lo, shift),
                              scale + vscale)


def validate_nseq(seq) -> list[str]:
    """Check the growth conditions n_k > 3 n_{k-1} and n_k > 2^{2k}
    (with n_0 = 0); returns each violation, none for a valid sequence."""
    seq = tuple(int(v) for v in seq)
    violations = []
    if not seq:
        violations.append("sequence is empty")
    prev = 0
    for k, nk in enumerate(seq, start=1):
        if nk <= 3 * prev:
            violations.append(f"n1 fails at k={k}: need n_{k} > {3 * prev}, got {nk}")
        if nk <= 4 ** k:
            violations.append(f"n2 fails at k={k}: need n_{k} > {4 ** k}, got {nk}")
        prev = nk
    return violations


def build_example1(seq) -> SparseStepFunction:
    """The example step function truncated at the sequence length.

    Group k contributes, for each a in (n_{k-1}, n_k], the piece
    [2^-a, 2^-a + 2^-n_k) with value 2^(n_k - a)/2^k; the point 0 carries
    no piece, so the function vanishes there.
    """
    seq = tuple(int(v) for v in seq)
    violations = validate_nseq(seq)
    if violations:
        raise ValueError("invalid index sequence: " + "; ".join(violations))
    pieces = []
    prev = 0
    for k, nk in enumerate(seq, start=1):
        for a in range(prev + 1, nk + 1):
            interval = DyadicInterval(depth=nk, offset=1 << (nk - a))
            pieces.append((interval, DyadicRational(1 << (nk - a), k)))
        prev = nk
    return SparseStepFunction(tuple(pieces))


def _fejer_pow2_plateaus(m: int):
    """The order-2^m Fejer kernel as m+1 dyadic plateaus.

    Value (2^m+1)/2 on [0, 2^-m) and 2^(j-1) on [2^-(j+1), 2^-(j+1)+2^-m)
    for j < m; zero elsewhere.  Verified against the grid kernel in tests.
    """
    plateaus = [(DyadicInterval(depth=m, offset=0), DyadicRational((1 << m) + 1, 1))]
    for j in range(m):
        plateaus.append((DyadicInterval(depth=m, offset=1 << (m - j - 1)),
                         DyadicRational(1 << j, 1)))
    return plateaus


def exact_fejer_at_zero(f: SparseStepFunction, m: int) -> DyadicRational:
    """Fejer mean of order 2^m at zero, as an exact dyadic rational.

    The kernel is never materialised; the mean sums f's exact integral over
    each of its m+1 plateaus.
    """
    if m < 0:
        raise ValueError("order exponent must be >= 0")
    total = ZERO
    for interval, value in _fejer_pow2_plateaus(m):
        total = total + value * f.integral_over(interval)
    return total


def exact_avg_at_zero(f: SparseStepFunction, depth: int) -> DyadicRational:
    """Average of f over [0, 2^-depth), exactly (f(0) = 0 for the example
    function, so this is the classical Lebesgue-point average)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    window = DyadicInterval(depth=depth, offset=0)
    return f.integral_over(window).times_pow2(depth)


def divergence_report(seq, f: SparseStepFunction | None = None) -> list[dict]:
    """Exact sigma_{2^{n_k}}(f, 0) against the lower bound
    (n_k - n_{k-1}) / 2^{k+1}, one row for each k; f is
    `build_example1(seq)`, built here when not given.  Each row holds k,
    n_k, sigma_exact and lower_bound as exact `DyadicRational`s, their
    float values sigma_decimal and lower_bound_decimal, the ratio of the
    two and whether sigma meets the bound."""
    seq = tuple(int(v) for v in seq)
    if f is None:
        f = build_example1(seq)
    rows = []
    prev = 0
    for k, nk in enumerate(seq, start=1):
        sigma = exact_fejer_at_zero(f, nk)
        bound = DyadicRational(nk - prev, k + 1)
        rows.append({"k": k, "n_k": nk, "sigma_exact": sigma, "sigma_decimal": float(sigma),
                     "lower_bound": bound, "lower_bound_decimal": float(bound),
                     "ratio": float(sigma) / float(bound), "meets_bound": sigma >= bound})
        prev = nk
    return rows


def avg_sweep_at_zero(seq, f: SparseStepFunction | None = None) -> list[dict]:
    """Exact Lebesgue averages at zero for every depth in the sweep
    (n_{k-1}, n_k], with the group index k of each depth; f is
    `build_example1(seq)`, built here when not given."""
    seq = tuple(int(v) for v in seq)
    if f is None:
        f = build_example1(seq)
    out = []
    prev = 0
    for k, nk in enumerate(seq, start=1):
        for depth in range(prev + 1, nk + 1):
            avg = exact_avg_at_zero(f, depth)
            out.append({"depth": depth, "k": k, "avg": avg,
                        "avg_decimal": float(avg),
                        "avg_times_2k": float(avg.times_pow2(k))})
        prev = nk
    return out
