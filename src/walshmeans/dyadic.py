"""Binary-expansion arithmetic on the dyadic group.

Conventions used throughout the package:

* A point x in [0,1) has the dyadic expansion x = sum_m x_m 2^-(m+1) with
  digits x_m in {0,1}; for dyadic rationals the expansion terminating in
  zeros is chosen.
* At resolution K the unit interval splits into 2^K cells; the grid index
  l in [0, 2^K) stands for the point x = l/2^K, and digit x_m of that point
  equals bit (K-1-m) of l.  Under this identification the dyadic sum of two
  points is the bitwise exclusive-or of their indices, and evaluating a
  Walsh function reduces to a popcount.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


@dataclass(frozen=True)
class GridSpec:
    """Dyadic grid of 2^K cells of width 2^-K on [0,1)."""

    resolution: int

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError(f"grid resolution must be >= 1, got {self.resolution}")

    @property
    def size(self) -> int:
        return 1 << self.resolution

    @property
    def cell_measure(self) -> float:
        return 2.0 ** (-self.resolution)

    def check_index(self, i: int) -> int:
        if not 0 <= i < self.size:
            raise ValueError(f"grid index {i} out of range [0, {self.size})")
        return i


def prefix(n: int, s: int) -> int:
    """sum_{j=0}^{s} eps_j(n) 2^j; equals n once s reaches the order of n."""
    return n & ((1 << (s + 1)) - 1) if s >= 0 else 0


@total_ordering
class DyadicRational:
    """Exact rational with a power-of-two denominator: numerator / 2^scale.

    Canonical form keeps the numerator odd (or zero with scale 0), so that
    equal values compare equal.  Closed under +, -, * and shifts by powers
    of two, which is all the exact quadrature in this package needs.
    """

    __slots__ = ("numerator", "scale")

    def __init__(self, numerator: int, scale: int = 0):
        numerator = int(numerator)
        scale = int(scale)
        if numerator == 0:
            scale = 0
        elif scale > 0:
            # strip common factors of two: the numerator's trailing zero bits
            shift = min((numerator & -numerator).bit_length() - 1, scale)
            numerator >>= shift
            scale -= shift
        elif scale < 0:
            numerator <<= -scale
            scale = 0
        self.numerator = numerator
        self.scale = scale

    @staticmethod
    def _coerce(other) -> "DyadicRational":
        if isinstance(other, DyadicRational):
            return other
        if isinstance(other, int):
            return DyadicRational(other, 0)
        raise TypeError(f"cannot mix DyadicRational with {type(other).__name__}")

    def _aligned(self, other: "DyadicRational") -> tuple[int, int, int]:
        s = max(self.scale, other.scale)
        return (self.numerator << (s - self.scale),
                other.numerator << (s - other.scale), s)

    def __add__(self, other):
        o = self._coerce(other)
        a, b, s = self._aligned(o)
        return DyadicRational(a + b, s)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        a, b, s = self._aligned(o)
        return DyadicRational(a - b, s)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        return DyadicRational(self.numerator * o.numerator, self.scale + o.scale)

    __rmul__ = __mul__

    def __neg__(self):
        return DyadicRational(-self.numerator, self.scale)

    def __abs__(self):
        return DyadicRational(abs(self.numerator), self.scale)

    def times_pow2(self, k: int) -> "DyadicRational":
        """Exact multiplication by 2^k (k may be negative)."""
        return DyadicRational(self.numerator, self.scale - k)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.numerator == o.numerator and self.scale == o.scale

    def __lt__(self, other):
        o = self._coerce(other)
        a, b, _ = self._aligned(o)
        return a < b

    def __hash__(self):
        return hash((self.numerator, self.scale))

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.scale)

    def __float__(self) -> float:
        return self.numerator / (1 << self.scale) if self.scale < 1024 else float(self.as_fraction())

    def __repr__(self):
        if self.scale == 0:
            return f"DyadicRational({self.numerator})"
        return f"DyadicRational({self.numerator}, 2**-{self.scale})"

    def __str__(self):
        if self.scale == 0:
            return str(self.numerator)
        return f"{self.numerator}/2^{self.scale}"


@dataclass(frozen=True)
class DyadicInterval:
    """Half-open dyadic interval [offset/2^depth, (offset+1)/2^depth)."""

    depth: int
    offset: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("interval depth must be >= 0")
        if not 0 <= self.offset < (1 << self.depth):
            raise ValueError(f"offset {self.offset} out of range at depth {self.depth}")
