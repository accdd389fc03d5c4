"""Maximal operators over index subsequences and weak-type functionals.

The tilde variant convolves with the absolute value of the kernel before
taking the pointwise supremum; the dyadic maximal function is the
supremum of the martingale averages S_{2^n}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dyadic import GridSpec
from .summability import TransformationMatrix, mean_coefficient_weights
from .transform import GridFunction1D, forward_array, inverse_array


@dataclass(frozen=True)
class IndexSubsequence:
    """Nonempty strictly increasing index list {n_a}."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("subsequence must be nonempty")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"indices must be strictly increasing: {self.indices}")
        if self.indices[0] < 1:
            raise ValueError("indices must be >= 1")

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def check_resolution(self, spec: GridSpec) -> None:
        if self.indices[-1] > spec.size:
            raise ValueError(
                f"max index {self.indices[-1]} exceeds 2^K = {spec.size}")

    def describe(self) -> str:
        if len(self.indices) <= 8:
            return ",".join(map(str, self.indices))
        return f"{self.indices[0]},...,{self.indices[-1]} ({len(self.indices)} terms)"


def subsequence_from_spec(text: str) -> IndexSubsequence:
    """Grammar: powers:a..b | alternating:a..b | list:1,3,7 | all:1..N.

    powers yields 2^a..2^b; alternating yields sum_{j<=i} 4^j for i in a..b.
    """
    kind, _, arg = text.partition(":")
    if kind == "list":
        return IndexSubsequence(tuple(int(x) for x in arg.split(",")))
    if kind == "all":
        lo, hi = _parse_range(arg)
        return IndexSubsequence(tuple(range(lo, hi + 1)))
    if kind == "powers":
        lo, hi = _parse_range(arg)
        return IndexSubsequence(tuple(2 ** m for m in range(lo, hi + 1)))
    if kind == "alternating":
        lo, hi = _parse_range(arg)
        return IndexSubsequence(tuple(sum(4 ** j for j in range(i + 1))
                                      for i in range(lo, hi + 1)))
    raise ValueError(f"unrecognised subsequence spec {text!r}")


def _parse_range(arg: str) -> tuple[int, int]:
    lo, sep, hi = arg.partition("..")
    if not sep:
        raise ValueError(f"expected a..b, got {arg!r}")
    return int(lo), int(hi)


# ---------------------------------------------------------------------------
# Maximal operators.

_MAX_BATCH_CELLS = 1 << 26   # fail fast before a kernel bank exhausts memory


def _mean_weight_matrix(T: TransformationMatrix, subseq: IndexSubsequence,
                        size: int) -> np.ndarray:
    if len(subseq) * size > _MAX_BATCH_CELLS:
        raise ValueError(
            f"{len(subseq)} indices at grid size {size} need more than "
            f"{_MAX_BATCH_CELLS} kernel cells; shorten the subsequence")
    return np.stack([mean_coefficient_weights(T, n, size) for n in subseq])


def maximal_mean(T: TransformationMatrix, subseq: IndexSubsequence,
                 f: GridFunction1D) -> GridFunction1D:
    """sup_a |T_{n_a}(f)| pointwise."""
    subseq.check_resolution(f.spec)
    K = f.spec.resolution
    fh = forward_array(f.samples, K)
    means = inverse_array(fh[None, :] * _mean_weight_matrix(T, subseq, f.spec.size), K)
    return GridFunction1D(f.spec, np.abs(means).max(axis=0))


def abs_kernel_spectra(T: TransformationMatrix, subseq: IndexSubsequence,
                       spec: GridSpec) -> np.ndarray:
    """Coefficient rows of |V_{n_a}|, precomputable per (matrix, subsequence)."""
    K = spec.resolution
    kernels = inverse_array(_mean_weight_matrix(T, subseq, spec.size), K)
    return forward_array(np.abs(kernels), K)


def maximal_abs_mean(T: TransformationMatrix, subseq: IndexSubsequence,
                     f: GridFunction1D) -> GridFunction1D:
    """sup_a |f * |V_{n_a}|| pointwise (kernel absolute value first)."""
    subseq.check_resolution(f.spec)
    K = f.spec.resolution
    fh = forward_array(f.samples, K)
    out = inverse_array(fh[None, :] * abs_kernel_spectra(T, subseq, f.spec), K)
    return GridFunction1D(f.spec, np.abs(out).max(axis=0))


def dyadic_maximal(f: GridFunction1D) -> GridFunction1D:
    """E*(f) = sup_{0<=n<=K} |S_{2^n} f|, the dyadic martingale maximal function."""
    K = f.spec.resolution
    best = np.full(f.spec.size, abs(float(f.samples.mean())))  # n = 0 term
    for n in range(1, K + 1):
        block = 1 << (K - n)
        avg = f.samples.reshape(1 << n, block).mean(axis=1)
        np.maximum(best, np.repeat(np.abs(avg), block), out=best)
    return GridFunction1D(f.spec, best)


# ---------------------------------------------------------------------------
# Size functionals.

def weak_quasinorm(g: GridFunction1D) -> float:
    """sup_{t>0} t mu(|g| > t), exact for grid step functions.

    The supremum over t of the right-continuous map t -> t mu(|g| > t) is
    attained approaching a value of |g| from the left, so it equals
    max_v v mu(|g| >= v) over the distinct values v > 0.
    """
    return _weak_quasinorm_values(np.abs(g.samples), g.spec.cell_measure)


def _weak_quasinorm_values(values: np.ndarray, cell_measure: float) -> float:
    v = np.ravel(values)
    uniq, counts = np.unique(v, return_counts=True)
    if uniq[-1] <= 0:
        return 0.0
    tail = np.cumsum(counts[::-1])[::-1]   # number of samples >= uniq[j]
    return float(np.max(uniq * tail) * cell_measure)


def llogl_norm(f: GridFunction1D) -> float:
    """Integral of |f| ln+ |f| (ln+ vanishes below 1)."""
    return _llogl_values(f.samples, f.spec.cell_measure)


def _llogl_values(values: np.ndarray, cell_measure: float) -> float:
    a = np.abs(np.ravel(values))
    big = a > 1.0
    if not big.any():
        return 0.0
    return float(np.sum(a[big] * np.log(a[big])) * cell_measure)


def h1_norm(f: GridFunction1D) -> float:
    """Dyadic Hardy norm: the L1 norm of the maximal function E*(f)."""
    return dyadic_maximal(f).l1_norm()


# ---------------------------------------------------------------------------
# Weak-type experiment harness.

def random_test_function(spec: GridSpec, rng: np.random.Generator,
                         n_spikes: int = 12, n_blocks: int = 3) -> GridFunction1D:
    """Nonnegative test function: sparse unit-mass spikes plus smooth dyadic
    blocks.

    All random draws are resolution-independent (positions are uniform
    floats), so a fixed seed produces matched functions across grids.
    """
    N = spec.size
    f = np.zeros(N)
    positions = rng.random(n_spikes)
    masses = 0.2 + rng.random(n_spikes)
    for p, m in zip(positions, masses):
        f[int(p * N)] += m * N
    depths = rng.integers(1, 5, size=n_blocks)
    offsets = rng.random(n_blocks)
    heights = 2.0 * rng.random(n_blocks)
    for d, off, h in zip(depths, offsets, heights):
        width = N >> int(d)
        a = int(off * (1 << int(d))) * width
        f[a: a + width] += h
    return GridFunction1D(spec, f)


_OPERATORS = ("abs_mean", "mean", "dyadic_maximal")


@dataclass
class WeakTypeReport:
    family: str
    subsequence: str
    K: int
    trials: int
    operator: str
    seed: int
    max_ratio: float
    quantiles: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "family": self.family,
            "subsequence": self.subsequence,
            "K": self.K,
            "trials": self.trials,
            "operator": self.operator,
            "seed": self.seed,
            "max_ratio": self.max_ratio,
            "quantiles": self.quantiles,
        }


def weak_type_experiment(T: TransformationMatrix, subseq: IndexSubsequence,
                         trials: int, K: int, seed: int = 0,
                         operator: str = "abs_mean",
                         generator=random_test_function) -> WeakTypeReport:
    """Distribution of ||sup_a Op f||_{1,infty} / ||f||_1 over random
    nonnegative inputs; the maximal ratio is the headline number."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if operator not in _OPERATORS:
        raise ValueError(f"operator must be one of {_OPERATORS}")
    spec = GridSpec(K)
    subseq.check_resolution(spec)
    rng = np.random.default_rng(seed)
    spectra = None
    if operator == "abs_mean":
        spectra = abs_kernel_spectra(T, subseq, spec)
    elif operator == "mean":
        spectra = _mean_weight_matrix(T, subseq, spec.size)
    inputs = [generator(spec, rng) for _ in range(trials)]

    def ratio(f: GridFunction1D) -> float:
        if operator == "dyadic_maximal":
            sup = dyadic_maximal(f).samples
        else:
            fh = forward_array(f.samples, K)
            sup = np.abs(inverse_array(fh[None, :] * spectra, K)).max(axis=0)
        return _weak_quasinorm_values(sup, spec.cell_measure) / max(
            f.l1_norm(), np.finfo(float).tiny)

    ratios = np.array([ratio(f) for f in inputs])
    qs = {f"q{p}": float(np.quantile(ratios, p / 100)) for p in (25, 50, 75, 90)}
    return WeakTypeReport(
        family=T.name, subsequence=subseq.describe(), K=K, trials=trials,
        operator=operator, seed=seed, max_ratio=float(ratios.max()), quantiles=qs)
