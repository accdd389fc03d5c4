"""Walsh-Paley functions on the dyadic grid and the fast transform.

The Paley matrix W_K[n, l] = w_n(l/2^K) = (-1)^popcount(n & rev_K(l)) is
symmetric, so the forward transform of a sample row x is 2^-K x W_K and
the inverse of a coefficient row c is c W_K; the normalisation makes
f_hat(i) equal the integral of f * w_i.

For K <= 7 the product is one GEMM against the cached dense W_K.
Larger K uses the Kronecker factorisation of the Walsh matrix (Fino and
Algazi, IEEE Trans. Computers, 1976) in Paley order: split a cell index as
l = l_hi 2^b + l_lo and a coefficient index as n = n_hi 2^a + n_lo with
a + b = K.  Then w_n(l/2^K) = w_{n_hi}(l_lo/2^b) w_{n_lo}(l_hi/2^a), so for
a row viewed as the matrix X[l_hi, l_lo] the coefficients in row-major
(n_hi, n_lo) order are (X W_b)^T W_a.  With b = min(7, ceil(K/2)) that is
one GEMM with W_b over all rows, one transposing copy, and the same
transform on the remaining a bits.  The bit reversal lives inside the W
matrices, so no gather is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dyadic import GridSpec
from .io import read_grid, write_grid


@dataclass
class GridFunction:
    """Piecewise-constant function on the dyadic grid, a value per cell:
    2^K samples in 1D, 2^K x 2^K in 2D (axis 0 the first variable)."""

    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        n = self.spec.size
        if self.samples.shape not in ((n,), (n, n)):
            raise ValueError(f"expected {n} or {n}x{n} samples for K={self.spec.resolution}, "
                             f"got shape {self.samples.shape}")

    def l1_norm(self) -> float:
        return float(np.abs(self.samples).mean())

    @property
    def cell_measure(self) -> float:
        return self.spec.cell_measure ** self.samples.ndim


@lru_cache(maxsize=32)
def bit_reversal(K: int) -> np.ndarray:
    idx = np.arange(1 << K, dtype=np.uint64)
    rev = np.zeros_like(idx)
    for _ in range(K):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.setflags(write=False)
    return rev


def _walsh_signs(n, K: int) -> np.ndarray:
    """w_n(l/2^K) over the cells l (last axis), broadcast against n."""
    parity = np.bitwise_count(np.asarray(n, dtype=np.uint64) & bit_reversal(K)) & 1
    return 1.0 - 2.0 * parity


_RADIX = 7   # largest factor applied as one dense GEMM (a 128 x 128 W)


@lru_cache(maxsize=_RADIX + 1)
def paley_matrix(k: int) -> np.ndarray:
    """Read-only symmetric Paley-Walsh matrix W[n, l] = w_n(l/2^k)."""
    W = _walsh_signs(np.arange(1 << k)[:, None], k)
    W.setflags(write=False)
    return W


def _paley(values, K: int, out=None) -> np.ndarray:
    """values @ W_K along the last axis, leading axes a batch, written into
    ``out`` (C-contiguous, of the same shape, not overlapping ``values``)
    or a new array.  The first GEMM of the factorisation writes into
    ``out`` too, so the transposing copy is the only temporary."""
    x = np.asarray(values, dtype=float)
    if x.shape[-1] != 1 << K:
        raise ValueError(f"last axis has length {x.shape[-1]}, expected 2^{K}")
    if out is None:
        out = np.empty(x.shape)
    elif out.shape != x.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {x.shape}")
    if K <= _RADIX:
        np.matmul(x.reshape(-1, 1 << K), paley_matrix(K), out=out.reshape(-1, 1 << K))
        return out
    b = min(_RADIX, (K + 1) // 2)
    a = K - b
    y = np.matmul(x.reshape(-1, 1 << b), paley_matrix(b), out=out.reshape(-1, 1 << b))
    z = np.ascontiguousarray(y.reshape(-1, 1 << a, 1 << b).transpose(0, 2, 1))
    _paley(z.reshape(-1, 1 << a), a, out.reshape(-1, 1 << a))
    return out


def forward_array(samples: np.ndarray, K: int) -> np.ndarray:
    """Paley-ordered coefficients of sample rows: 2^-K x W_K."""
    out = _paley(samples, K)
    out *= 1.0 / (1 << K)
    return out


def inverse_array(coefficients: np.ndarray, K: int, *, out=None) -> np.ndarray:
    """Samples from Paley-ordered coefficient rows: c W_K, written into
    ``out`` when given (a C-contiguous array of the same shape that does not
    overlap ``coefficients``) and returned."""
    return _paley(coefficients, K, out)


def walsh_sample(n: int, spec: GridSpec) -> GridFunction:
    """The Walsh-Paley function w_n sampled on the grid (+/-1 per cell)."""
    if not 0 <= n < spec.size:
        raise ValueError(f"w_{n} is not representable at resolution {spec.resolution}")
    return GridFunction(spec, _walsh_signs(n, spec.resolution))


def dyadic_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """(f * g)(l) = 2^-K sum_j f(j) g(l xor j), via the convolution theorem.

    Characters of the dyadic group diagonalise the convolution, so the
    product of the two coefficient vectors is the spectrum of f * g.
    """
    if f.spec.resolution != g.spec.resolution:
        raise ValueError(
            f"mismatched resolutions {f.spec.resolution} vs {g.spec.resolution}")
    K = f.spec.resolution
    c = forward_array(f.samples, K) * forward_array(g.samples, K)
    return GridFunction(f.spec, inverse_array(c, K))


def save_grid1d(f: GridFunction, path_or_buf) -> None:
    """Write a 1D f as a grid CSV (see `walshmeans.io`)."""
    write_grid(path_or_buf, f.spec.resolution, f.samples)


def load_grid1d(path_or_buf) -> GridFunction:
    """Read a 1D grid CSV; a 2D one is refused."""
    return _load_grid(path_or_buf, 1)


def _load_grid(path_or_buf, dims: int) -> GridFunction:
    """Read a `dims`-dimensional grid CSV, refusing one of the other dimension."""
    K, samples = read_grid(path_or_buf)
    if samples.ndim != dims:
        raise ValueError(f"expected a {dims}D grid, got a {samples.ndim}D grid")
    return GridFunction(GridSpec(K), samples)
