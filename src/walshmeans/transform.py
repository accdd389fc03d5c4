"""Walsh-Paley functions on the dyadic grid and the fast transform.

The Paley matrix W_K[n, l] = w_n(l/2^K) = (-1)^popcount(n & rev_K(l)) is
symmetric, so the forward transform of a sample row x is 2^-K x W_K and
the inverse of a coefficient row c is c W_K; the normalisation makes
f_hat(i) equal the integral of f * w_i.

For K <= 5 the product is one GEMM against the cached dense W_K.
Larger K uses the Kronecker factorisation of the Walsh matrix (Fino and
Algazi, IEEE Trans. Computers, 1976) in Paley order: split a cell index as
l = l_hi 2^b + l_lo and a coefficient index as n = n_hi 2^a + n_lo with
a + b = K.  Then w_n(l/2^K) = w_{n_hi}(l_lo/2^b) w_{n_lo}(l_hi/2^a), so for
a row viewed as the matrix X[l_hi, l_lo] the coefficients in row-major
(n_hi, n_lo) order are (X W_b)^T W_a.  With a = min(5, floor(K/2)) that is
the transform on the b bits over all rows, by the same rule, then one GEMM
with W_a over each row's transposed view, which BLAS packs as it would a
contiguous operand; a strided input goes to the first GEMM the same way,
so no copy is made.  W's entries are +/-1, so every product is exact and
only the order of the sums could change a bit: it is BLAS's own in either
layout.  Every factor is thus a GEMM with a W of at most 32 x 32, the
leading a bits of the cell index applied last: K = 14 is the factors 5, 4
and 5 (lowest bits first), 80 multiply-adds per value in place of the 256
of two 128-wide factors.  On one BLAS thread the GEMMs are bound by those
multiply-adds, not by memory traffic, so narrower factors run faster down
to 32 wide; factors of at most 16 or 64 were no faster overall.  The split
depends on K alone, so a row's bits never depend on the batch.  The
factors alternate between the output and one temporary, and the bit
reversal lives inside the W matrices, so no gather is needed.

The GEMMs gain no wall time from a second BLAS thread, which spins for
twice the CPU, so the CLI runs its commands inside `_one_blas_thread`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial

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


_RADIX = 5   # largest factor applied as one dense GEMM (a 32 x 32 W)


@lru_cache(maxsize=_RADIX + 1)
def paley_matrix(k: int) -> np.ndarray:
    """Read-only symmetric Paley-Walsh matrix W[n, l] = w_n(l/2^k)."""
    W = _walsh_signs(np.arange(1 << k)[:, None], k)
    W.setflags(write=False)
    return W


def _paley(values, K: int, out=None, tmp=None) -> np.ndarray:
    """values @ W_K along the last axis, leading axes a batch, written into
    ``out`` (C-contiguous, of the same shape, not overlapping ``values``)
    or a new array, with ``tmp``, of the same kind, as work space: it runs
    the steps of `_paley_steps`."""
    x = np.asarray(values, dtype=float)
    if x.shape[-1] != 1 << K:
        raise ValueError(f"last axis has length {x.shape[-1]}, expected 2^{K}")
    for name, given in (("out", out), ("tmp", tmp)):
        if given is not None and (given.shape != x.shape or not given.flags.c_contiguous):
            raise ValueError(f"{name} must be a C-contiguous array of shape {x.shape}")
    out = np.empty(x.shape) if out is None else out
    tmp = np.empty(x.shape) if tmp is None and K > _RADIX else tmp
    for step in _paley_steps(x, K, out, tmp, []):
        step()
    return out


def _paley_steps(x: np.ndarray, K: int, out: np.ndarray, tmp, steps: list) -> list:
    """``steps`` with the calls appended that write x @ W_K, x any strided
    view, into ``out`` (C-contiguous, of x's shape).  The b-bit factor goes
    into ``tmp``, of out's kind, with ``out`` as its work space, and the
    a-bit GEMM reads its transposed view straight into ``out``.  The first
    factor reads ``x`` as one matrix when its rows merge, else as a batch
    whose matrices' rows are its axis of unit stride."""
    n = x.shape[-1]
    if K <= _RADIX:
        try:
            x, y = x.reshape(-1, n, copy=False), out.reshape(-1, n)
        except ValueError:   # rows that no one stride spans
            i = x.strides[:-1].index(x.itemsize) if x.itemsize in x.strides[:-1] else -2
            x, y = x.swapaxes(i, -2), out.swapaxes(i, -2)
        steps.append(partial(np.matmul, x, paley_matrix(K), out=y))
        return steps
    a = min(_RADIX, K // 2)
    b = K - a
    split = x.shape[:-1] + (1 << a, 1 << b)
    _paley_steps(x.reshape(split), b, tmp.reshape(split), out.reshape(split), steps)
    steps.append(partial(np.matmul, tmp.reshape(-1, 1 << a, 1 << b).transpose(0, 2, 1),
                         paley_matrix(a), out=out.reshape(-1, 1 << b, 1 << a)))
    return steps


@lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) of the loaded OpenBLAS's thread count, or None when the
    process has mapped no OpenBLAS that exports them."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:   # no /proc: not Linux
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:   # e.g. a mapping whose file was since deleted
            continue
        for prefix, suffix in (("openblas_", ""), ("scipy_openblas_", "64_"),
                               ("openblas_", "64_")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, restoring its previous
    count on exit; does nothing when no OpenBLAS is loaded."""
    api = _openblas_threads()
    if api is None:
        yield
        return
    get, put = api
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def forward_array(samples: np.ndarray, K: int, *, out=None, tmp=None) -> np.ndarray:
    """Paley-ordered coefficients of sample rows: 2^-K x W_K, written into
    ``out`` when given (a C-contiguous array of the same shape that does not
    overlap ``samples``) and returned.  ``tmp``, of the same kind and
    overlapping neither, is the transform's work space, or a new array when
    not given."""
    out = _paley(samples, K, out, tmp)
    out *= 1.0 / (1 << K)
    return out


def _forward_axes(samples: np.ndarray, K: int, d: int, *, out=None, tmp=None,
                  swapped=None) -> np.ndarray:
    """Paley coefficients along the last d = 1 or 2 axes of ``samples``, the
    last axis first (the order fixes the rounding).  The coefficients go
    into ``out`` and ``tmp`` is work space; in 2D the second transform reads
    a C-contiguous copy of the first one's swapped axes, made into
    ``swapped``.  Each is an array of the shape of ``samples``, or new when
    not given; in 2D the result is a view of ``out`` with the last two axes
    swapped."""
    x = forward_array(samples, K, out=out, tmp=tmp)
    if d == 1:
        return x
    if swapped is None:
        swapped = np.empty(x.shape)
    np.copyto(swapped, x.swapaxes(-2, -1))
    return forward_array(swapped, K, out=x, tmp=tmp).swapaxes(-2, -1)


def inverse_array(coefficients: np.ndarray, K: int) -> np.ndarray:
    """Samples from Paley-ordered coefficient rows: c W_K, in a new array."""
    return _paley(coefficients, K)


def _inverse_axes(coefficients: np.ndarray, K: int, d: int) -> np.ndarray:
    """Samples from Paley coefficients along the last d = 1 or 2 axes, the
    twin of `_forward_axes`."""
    x = inverse_array(coefficients, K)
    return inverse_array(x.swapaxes(-2, -1), K).swapaxes(-2, -1) if d == 2 else x


def walsh_sample(n: int, spec: GridSpec) -> GridFunction:
    """The Walsh-Paley function w_n sampled on the grid (+/-1 per cell)."""
    if not 0 <= n < spec.size:
        raise ValueError(f"w_{n} is not representable at resolution {spec.resolution}")
    return GridFunction(spec, _walsh_signs(n, spec.resolution))


def dyadic_convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """(f * g)(l) = 2^-K sum_j f(j) g(l xor j), via the convolution theorem;
    on 2D grids l and j are pairs, xor acts on each, and the factor is 4^-K.

    Characters of the dyadic group diagonalise the convolution, so the
    product of the two coefficient arrays is the spectrum of f * g.
    """
    if f.samples.shape != g.samples.shape:
        raise ValueError(f"mismatched grids: a {f.samples.ndim}D grid at K={f.spec.resolution} "
                         f"and a {g.samples.ndim}D grid at K={g.spec.resolution}")
    K, d = f.spec.resolution, f.samples.ndim
    c = _forward_axes(f.samples, K, d) * _forward_axes(g.samples, K, d)
    return GridFunction(f.spec, _inverse_axes(c, K, d))


def save_grid1d(f: GridFunction, path_or_buf) -> None:
    """Write a 1D f as a grid CSV (see `walshmeans.io`); a 2D one is refused."""
    _check_dims(f.samples, 1)
    write_grid(path_or_buf, f.spec.resolution, f.samples)


def load_grid1d(path_or_buf) -> GridFunction:
    """Read a 1D grid CSV; a 2D one is refused."""
    return _load_grid(path_or_buf, 1)


def _load_grid(path_or_buf, dims: int) -> GridFunction:
    """Read a `dims`-dimensional grid CSV, refusing one of the other dimension."""
    K, samples = read_grid(path_or_buf)
    _check_dims(samples, dims)
    return GridFunction(GridSpec(K), samples)


def _check_dims(samples: np.ndarray, dims: int) -> None:
    """Refuse the samples of a grid that is not `dims`-dimensional."""
    if samples.ndim != dims:
        raise ValueError(f"expected a {dims}D grid, got a {samples.ndim}D grid")
