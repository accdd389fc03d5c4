"""Maximal operators over index subsequences and weak-type functionals.

The tilde variant convolves with the absolute value of the kernel before
taking the pointwise supremum; the dyadic maximal function is the
supremum of the martingale averages S_{2^n}.

The mean weights of T_n vanish at and above n, and a Walsh polynomial of
degree < 2^m is constant on the dyadic intervals of length 2^-m (Schipp,
Wade and Simon, Walsh Series, 1990).  So with m = ceil(log2 n) the mean
T_n f, the kernel V_n, |V_n| and f * |V_n| all live on a 2^m-cell grid
whatever the resolution K: each is evaluated there, from the first 2^m
coefficients, and spread over the 2^(K-m) fine cells of each coarse cell.

A weak-type experiment runs its trials in blocks, all in one `_Workspace`
of flat buffers sized once: the trials, their coefficients, the
transforms' temporary, the blocks of means and the supremum are written
into the same memory in every block, buffers never live at once share it,
and so no block after the first faults in fresh memory.  The trials'
forward transforms and the supremum's fold are planned once, as a flat
list of numpy calls on views of the slots, the trials and the banks' rows,
and the workspace keeps the plan, keyed by the trials' address, shape and
strides and by the banks: each block writes its trials into the same rows
and runs the list again.  A one-shot operator plans, runs and drops its
own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dyadic import GridSpec
from .io import MAX_REPORT_VALUES, GuardRailError, parse_numbers
from .summability import TransformationMatrix
from .transform import GridFunction, _paley_steps, forward_array, inverse_array


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

    powers yields 2^a..2^b; alternating yields sum_{j<=i} 4^j = (4^{i+1} - 1)/3
    for i in a..b.  A spec is checked from its text before any array is
    built: at most MAX_REPORT_VALUES terms, and indices below 2^63.
    """
    kind, _, arg = text.partition(":")
    if kind == "list":
        subseq = IndexSubsequence(tuple(parse_numbers(f"subsequence {kind}:", arg)))
        _check_spec_size(text, len(subseq), subseq.indices[-1].bit_length())
        return subseq
    if kind not in ("all", "powers", "alternating"):
        raise ValueError(f"unrecognised subsequence spec {text!r}")
    lo, hi = parse_numbers(f"subsequence {kind}:", arg, "..", 2)
    # bit length of the largest index: hi, 2^hi or (4^{hi+1} - 1)/3
    bits = {"all": hi.bit_length(), "powers": hi + 1, "alternating": 2 * hi + 1}[kind]
    _check_spec_size(text, hi - lo + 1, bits)
    terms = range(lo, hi + 1)
    if kind == "powers":
        terms = (2 ** m for m in terms)
    elif kind == "alternating":
        terms = ((4 ** (i + 1) - 1) // 3 for i in terms)
    return IndexSubsequence(tuple(terms))


def _check_spec_size(text: str, terms: int, bits: int) -> None:
    for size, limit, what in ((terms, MAX_REPORT_VALUES, "terms"),
                              (bits, 63, "bits in its largest index")):
        if size > limit:
            raise GuardRailError(
                f"subsequence {text!r} has {size} {what}, above the limit of {limit}")


# ---------------------------------------------------------------------------
# Maximal operators.

_CHUNK_CELLS = 1 << 17      # cells of one streamed block of means (1 MiB)
_MAX_BANK_CELLS = 1 << 26   # len x 2^{m*} of one bank of mean weights (512 MiB)


def _level(n: int) -> int:
    """m = ceil(log2 n): T_n and V_n are Walsh polynomials of degree < 2^m."""
    return (n - 1).bit_length()


def _level_groups(subseq: IndexSubsequence) -> list[tuple[int, slice]]:
    """(m, the run of positions a with m_a = m) for each level m, increasing."""
    levels = [_level(n) for n in subseq]
    ms, starts = np.unique(levels, return_index=True)
    bounds = [*starts.tolist(), len(levels)]
    return [(int(m), slice(a, b)) for m, a, b in zip(ms, bounds, bounds[1:])]


def mean_work(*subseqs: IndexSubsequence) -> int:
    """Element-stages of the band-limited inverse transforms behind one
    supremum over the product of the subsequences: the sum over index
    tuples of 2^(m_a + m_b + ...) (m_a + m_b + ...)."""
    cells = [sum(1 << _level(n) for n in s) for s in subseqs]
    stages = [sum(_level(n) << _level(n) for n in s) for s in subseqs]
    total = math.prod(cells)
    return sum(st * total // c for st, c in zip(stages, cells))


def _block_sizes(n: int, group) -> tuple[list[int], list[int]]:
    """The counts of a level tuple's axes (the batch of n, then the rows of
    each bank) and the block length along each, so that one block holds at
    most _CHUNK_CELLS cells (one item at least); later axes fill first."""
    counts = [n] + [rows.stop - rows.start for _, rows in group]
    room = max(1, _CHUNK_CELLS >> sum(m for m, _ in group))
    sizes = []
    for count in reversed(counts):
        sizes.append(min(count, room))
        room = max(1, room // sizes[-1])
    return counts, sizes[::-1]


class _Workspace:
    """C-contiguous flat buffers of ``cells`` cells each that one weak-type
    experiment reuses in every trial block, so no block faults in fresh
    memory.  `take` returns an array of a shape on the start of one buffer
    (a slot), made at the slot's first take and never resized: a shape of
    more cells is refused.  ``plan`` is the last one `_sup_of_means` made."""

    def __init__(self, cells: int):
        self.cells = cells
        self._buffers = {}
        self.plan = None

    def take(self, slot, shape) -> np.ndarray:
        size = math.prod(shape)
        if size > self.cells:
            raise ValueError(f"workspace slot {slot} takes {size} cells, above its {self.cells}")
        if slot not in self._buffers:
            self._buffers[slot] = np.empty(self.cells)
        return self._buffers[slot][:size].reshape(shape)


# Workspace slots.  The inputs and the forward transform's temporary are dead
# once the coefficients exist: they become the two block buffers of the fold,
# and the inputs' slot then takes the spread sup.
_INPUTS, _TEMP, _COEFFS, _SUP, _SCRATCH, _ACC = range(6)


def _split(a: np.ndarray, axis: int, cells: int) -> np.ndarray:
    """A view of the C-contiguous ``a`` with ``axis`` split into (cells, rest)."""
    return a.reshape(a.shape[:axis] + (cells, -1) + a.shape[axis + 1:])


_SHORT_REPEAT = 4   # the largest r that `_repeat` writes as r strided copies


def _repeat(a: np.ndarray, out: np.ndarray, axis: int, steps: list) -> None:
    """Append to ``steps`` the copies of np.repeat(a, r, axis) into the
    C-contiguous ``out``, r being out's length along ``axis`` over a's: up
    to _SHORT_REPEAT r strided copies of ``a``, which take 0.2-0.8 of a
    broadcast's time at r = 2, 0.6-1.0 at r = 4 and 1.5-2.4 times it at r = 8;
    above it one broadcast copy, so a gap of g levels is one step, not 2^g
    (`list:1,4096` would plan 4096 copies)."""
    view = _split(out, axis, a.shape[axis])
    r = view.shape[axis + 1]
    if r > _SHORT_REPEAT:
        steps.append(partial(np.copyto, view, np.expand_dims(a, axis + 1)))
    else:
        steps += [partial(np.copyto, view[(slice(None),) * (axis + 1) + (k,)], a) for k in range(r)]


def _sup_of_means(samples: np.ndarray, banks, K: int, work=None) -> np.ndarray:
    """sup over the row tuples (a, b, ...) of |inverse(coeffs * rows_0[a] x
    rows_1[b] x ...)| on the full 2^K grid of each of the last d =
    len(banks) axes of ``samples``, coeffs being their Paley coefficients
    along those axes; the leading axes are a batch.

    ``banks[j] = (bank, subseq)``, ``bank`` a `LevelBank`: row a multiplies
    the Walsh coefficients along axis j and vanishes from 2^{m_a} on.  The
    means of one level tuple (m_0, ...) are therefore constant on 2^{m_0} x
    ... cells: they are inverted at that resolution, in blocks of at most
    _CHUNK_CELLS cells over (batch x rows).

    The forward transforms run first, the last axis first (as
    `_forward_axes` does), each scaled by the exact 2^-K: into the
    coefficients' slot, in 2D through the scratch slot, whose swapped axes
    the second transform reads, with the temporary's slot as work space.
    The supremum is folded coarse to fine, one axis inside the other (see
    `_fold_levels`), so each block folds into a running maximum at its own
    levels, never into the full grid.  The maximum reaches the top level
    m*_j of each axis, the level of its largest index, and is spread over
    the 2^K grid once at the end.

    It runs the plan of the `_Workspace` ``work`` (see the module
    docstring), made first if it has none for these samples and banks: the
    result is a view of one of work's slots, valid until ``work`` is used
    again.  A fold block holds at most _CHUNK_CELLS cells or one grid's (see
    `_block_sizes`), any other array at most the samples' cells: a slot of
    the larger size holds them all.  Without ``work`` such a workspace is
    used, and the result is an array of its own, exactly the grid's size.
    """
    once = work is None
    work = _Workspace(max(_CHUNK_CELLS, samples.size)) if once else work
    d = len(banks)
    batch = samples.shape[:samples.ndim - d]
    samples = samples.reshape((-1,) + samples.shape[samples.ndim - d:])
    n = len(samples)
    key = (samples.ctypes.data, samples.shape, samples.strides, K,
           tuple(map(id, itertools.chain(*banks))))
    if work.plan is None or work.plan[0] != key:
        groups = [_level_groups(s) for _, s in banks]
        tops = [g[-1][0] for g in groups]
        coarse = (n,) + tuple(1 << m for m in tops)
        sup = np.empty(coarse) if once else work.take(_SUP, coarse)
        full = (n,) + (1 << K,) * d
        steps = []
        x = samples
        for j in range(d):
            out = work.take(_COEFFS if j == d - 1 else _SCRATCH, x.shape)
            _paley_steps(x, K, out, work.take(_TEMP, x.shape), steps)
            steps.append(partial(np.multiply, out, 1.0 / (1 << K), out=out))
            x = out.swapaxes(-2, -1) if d == 2 else out
        steps.append(partial(sup.fill, 0.0))
        _fold_levels(x, [rows for rows, _ in banks], groups, (), sup, work, steps)
        if min(tops) < K:
            out = np.empty(full) if once else work.take(_INPUTS, full)
            # each cell of the top levels covers 2^(K - m*_j) cells along axis j
            view = out.reshape((n,) + sum(((1 << m, 1 << (K - m)) for m in tops), ()))
            steps.append(partial(np.copyto, view,
                                 sup.reshape((n,) + sum(((1 << m, 1) for m in tops), ()))))
            sup = out
        work.plan = (key, steps, sup, banks)
    _, steps, sup, _ = work.plan
    for step in steps:
        step()
    return sup.reshape(batch + sup.shape[1:])


def _fold_levels(coeffs, banks, groups, levels, into, work, steps) -> None:
    """Plan the fold into ``into`` (C-contiguous) of the sup over the level
    tuples that begin with ``levels``, the chosen (m, positions) of the
    first len(levels) axes.  ``into`` is on 2^m cells along those axes and
    2^{m*} along the others.

    The next axis walks its levels in increasing m.  Below its top level
    m* the maximum runs in a buffer at the current level, repeated up to
    each next level before that level is folded into it; it is folded into
    ``into`` before the top level, which folds into ``into`` directly.  At
    most half as fine as ``into`` along this axis, the buffer alternates
    between the two halves of a workspace slot of into's size; on the first
    axis that slot is ``into`` itself, still free until the top level, and
    the last buffer is staged in the inputs' slot to be spread over it.
    """
    j = len(levels)
    if j == len(groups):
        _fold_blocks(coeffs, banks, levels, into, work, steps)
        return
    *lower, top = groups[j]
    if lower:
        halves = (into if j == 0 else work.take((_ACC, j), into.shape)).reshape(2, -1)
        for i, (m, rows) in enumerate(lower):
            shape = list(into.shape)
            shape[1 + j] = 1 << m
            level = halves[i % 2][:math.prod(shape)].reshape(shape)
            if i == 0:
                steps.append(partial(level.fill, 0.0))
            else:   # each cell of acc covers a run of finer cells
                _repeat(acc, level, 1 + j, steps)
            acc, prev = level, m
            _fold_levels(coeffs, banks, groups, levels + ((m, rows),), acc, work, steps)
        if j == 0:   # into holds nothing but acc yet
            staged = work.take(_INPUTS, acc.shape)
            steps.append(partial(np.copyto, staged, acc))
            _repeat(staged, into, 1, steps)
        else:
            fine = _split(into, 1 + j, 1 << prev)
            steps.append(partial(np.maximum, fine, np.expand_dims(acc, 2 + j), out=fine))
    _fold_levels(coeffs, banks, groups, levels + (top,), into, work, steps)


def _fold_blocks(coeffs, banks, group, into, work, steps) -> None:
    """Plan the fold of the means of one level tuple ``group`` into
    ``into``, which is on its 2^{m_0} x ... cells, inverting them in blocks
    of at most _CHUNK_CELLS cells over (batch x rows).

    The workspace slots of the inputs and of the forward temporary are the
    two block buffers: the product of the coefficients and the rows is
    formed in the first, and each axis is inverted from one into the other,
    with the scratch slot as the transform's work space; the row maximum
    goes into the one the last axis left free."""
    d = len(group)
    ms = [m for m, _ in group]
    band = coeffs[(slice(None),) + tuple(slice(0, 1 << m) for m in ms)]
    counts, sizes = _block_sizes(len(coeffs), group)
    blocks = (_INPUTS, _TEMP)   # taken in turn
    for starts in itertools.product(*map(range, [0] * len(counts), counts, sizes)):
        t = slice(starts[0], starts[0] + sizes[0])
        # axes: batch, one row axis per bank, one coefficient axis per bank
        x = band[t].reshape((-1,) + (1,) * d + band.shape[1:])
        weights = [bank[m][start: start + size] for bank, (m, _), start, size
                   in zip(banks, group, starts[1:], sizes[1:])]
        product = work.take(blocks[0],
                            x.shape[:1] + tuple(len(w) for w in weights) + band.shape[1:])
        for j, w in enumerate(weights):
            shape = [1] * (1 + 2 * d)
            shape[1 + j], shape[1 + d + j] = w.shape
            steps.append(partial(np.multiply, product if j else x, w.reshape(shape), out=product))
        x = product
        for j, m in enumerate(ms):
            axis = 1 + d + j
            rows_of_axis = x.swapaxes(axis, -1)
            out = work.take(blocks[(j + 1) % 2], rows_of_axis.shape)
            _paley_steps(rows_of_axis, m, out, work.take(_SCRATCH, rows_of_axis.shape), steps)
            x = out.swapaxes(axis, -1)
        sup = work.take(blocks[(d + 1) % 2], x.shape[:1] + x.shape[1 + d:])
        steps += [partial(np.abs, x, out=x),
                  partial(np.maximum.reduce, x, axis=tuple(range(1, d + 1)), out=sup),
                  partial(np.maximum, into[t], sup, out=into[t])]


class LevelBank(dict):
    """Spectral multiplier rows of a subsequence, stored level by level: each
    level m of `_level_groups` maps to one C-contiguous array of its rows
    in order, 2^m wide, since row a vanishes from 2^{m_a} on."""

    @property
    def nbytes(self) -> int:
        return sum(rows.nbytes for rows in self.values())

    def matrix(self) -> np.ndarray:
        """The rows padded with zeros to one matrix, 2^{m*} wide for the top
        level m*."""
        out = np.zeros((sum(map(len, self.values())), 1 << max(self)))
        start = 0
        for m, rows in self.items():
            out[start: start + len(rows), :1 << m] = rows
            start += len(rows)
        return out


def _mean_weight_matrix(T: TransformationMatrix, subseq: IndexSubsequence) -> LevelBank:
    """Spectral multipliers of T_{n_a}, one row each, in a `LevelBank`.

    Row a holds tau_{n_a-1-i, n_a} at i < n_a and 0 from n_a up to 2^{m_a},
    as `mean_coefficient_weights` gives it.  Each level is filled with one
    `T.tau` call per run of rows holding at most _CHUNK_CELLS cells.  The
    guard still counts len x 2^{m*} cells, as if every row were as wide as
    the top level's."""
    width = 1 << _level(subseq.indices[-1])
    if len(subseq) * width > _MAX_BANK_CELLS:
        raise GuardRailError(
            f"{len(subseq)} indices up to level {_level(subseq.indices[-1])} need "
            f"{len(subseq) * width} bank cells, above the limit of {_MAX_BANK_CELLS}")
    bank = LevelBank()
    indices = np.array(subseq.indices)[:, None]
    for m, rows in _level_groups(subseq):
        level = bank[m] = np.empty((rows.stop - rows.start, 1 << m))
        step = max(1, _CHUNK_CELLS >> m)
        for i in range(0, len(level), step):
            n = indices[rows][i: i + step]
            s = n - 1 - np.arange(1 << m)
            level[i: i + step] = np.where(s >= 0, T.tau(np.maximum(s, 0), n), 0.0)
    return bank


def maximal_mean(T: TransformationMatrix, subseq: IndexSubsequence,
                 f: GridFunction) -> GridFunction:
    """sup_a |T_{n_a}(f)| pointwise, along the last axis of a 2D f."""
    subseq.check_resolution(f.spec)
    return _maximal(f, [(_mean_weight_matrix(T, subseq), subseq)])


def _maximal(f: GridFunction, banks) -> GridFunction:
    """The supremum of means of f over one bank per trailing axis of f."""
    return GridFunction(f.spec, _sup_of_means(f.samples, banks, f.spec.resolution))


def abs_kernel_spectra(T: TransformationMatrix, subseq: IndexSubsequence) -> LevelBank:
    """Coefficient rows of |V_{n_a}|, stored like the mean weights: V_{n_a}
    is constant on 2^{m_a} cells, so |V_{n_a}| is too."""
    bank = _mean_weight_matrix(T, subseq)
    for m, level in bank.items():
        step = max(1, _CHUNK_CELLS >> m)
        for i in range(0, len(level), step):
            kernels = inverse_array(level[i: i + step], m)
            level[i: i + step] = forward_array(np.abs(kernels, out=kernels), m)
    return bank


def maximal_abs_mean(T: TransformationMatrix, subseq: IndexSubsequence,
                     f: GridFunction) -> GridFunction:
    """sup_a |f * |V_{n_a}|| pointwise, along the last axis of a 2D f."""
    subseq.check_resolution(f.spec)
    return _maximal(f, [(abs_kernel_spectra(T, subseq), subseq)])


def dyadic_maximal(f):
    """E*(f) = sup_{0<=n<=K} |S_{2^n} f|, the dyadic martingale maximal
    function in the first variable: the later axes of ``f.samples`` (the
    second variable of a 2D grid) are carried along.  S_{2^n} f is the
    `_level_sums` of level n times the exact 2^-(K-n), which rounds as
    numpy's mean does; the levels fold coarse to fine."""
    K = f.spec.resolution
    x = f.samples
    best = None
    for n, sums in enumerate(_level_sums(x, K)):
        # the last level of a 1D grid is x itself, scaled into a new array
        avg = np.multiply(sums, 2.0 ** (n - K), out=None if sums is x else sums)
        np.abs(avg, out=avg)
        for k in () if best is None else (0, 1):   # cell i of best covers 2i and 2i + 1
            np.maximum(avg[k::2], best, out=avg[k::2])
        best = avg
    return GridFunction(f.spec, best)


def _halves(s: np.ndarray) -> np.ndarray:
    """The sums of the consecutive pairs of s along axis 0."""
    return s[0::2] + s[1::2]


def _level_sums(x: np.ndarray, K: int):
    """Yield, coarse to fine, the sums of x along axis 0 over the 2^n cells
    of each level n = 0..K, each equal to x.reshape((1 << n, -1) +
    x.shape[1:]).sum(axis=1) but for the sign of a zero.  The caller may
    overwrite each but x itself, the last in 1D.

    numpy adds a contiguous row of L cells in one running sum below 8,
    in eight stride-8 running sums joined as a tree up to 128, and as the
    sum of its two halves above.  So in 1D the rows of 2, 4 and 8 cells
    come from the pair sums in that order, and each row above 128 from
    its halves' sums.  numpy adds along a middle axis in one running sum,
    so a 2D x takes numpy's sums level by level."""
    if x.ndim > 1:
        for n in range(K + 1):
            yield x.reshape((1 << n, -1) + x.shape[1:]).sum(axis=1)
        return
    first = 0   # the coarsest level whose rows numpy sums
    if K > 7:
        levels = [x.reshape(1 << (K - 7), -1).sum(axis=1)]   # rows of 128 cells
        while len(levels[-1]) > 1:
            levels.append(_halves(levels[-1]))
        while levels:
            yield levels.pop()
        first = K - 6
    for n in range(first, K - 3):   # rows of 16 to 128 cells: numpy's own sums
        yield x.reshape(1 << n, -1).sum(axis=1)
    pairs = _halves(x)
    if K >= 3:   # ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
        yield _halves(_halves(pairs))
    if K >= 2:   # ((a0 + a1) + a2) + a3
        yield (pairs[0::2] + x[2::4]) + x[3::4]
    yield pairs
    yield x


# ---------------------------------------------------------------------------
# Size functionals.

def weak_quasinorm(g) -> float:
    """sup_{t>0} t mu(|g| > t) of a 1D or 2D grid function g, mu being its
    cell measure (the product measure in 2D); exact for step functions.

    The supremum over t of the right-continuous map t -> t mu(|g| > t) is
    attained approaching a value of |g| from the left, so it equals
    max_v v mu(|g| >= v) over the distinct values v > 0.
    """
    return _weak_quasinorm_values(np.abs(g.samples), g.cell_measure)


def _weak_quasinorm_values(values: np.ndarray, cell_measure: float) -> float:
    """max_v v #(values >= v) x cell_measure, from one sort: the first of the
    sorted values equal to v has exactly len - i of them at or above it, and
    a later copy of v fewer, so only the first can give the maximum.  A
    C-contiguous ``values`` is sorted and scaled in place: it is consumed."""
    s = values.reshape(-1)
    s.sort()
    if s[-1] <= 0:
        return 0.0
    return float(np.max(np.multiply(s, np.arange(len(s), 0, -1), out=s)) * cell_measure)


def llogl_norm(f) -> float:
    """Integral of |f| ln+ |f| (ln+ vanishes below 1) of a 1D or 2D grid
    function."""
    return _llogl_values(f.samples, f.cell_measure)


def _llogl_values(values: np.ndarray, cell_measure: float) -> float:
    a = np.abs(np.ravel(values))
    big = a > 1.0
    if not big.any():
        return 0.0
    b = a[big]   # gathered once: its log is multiplied by it in place
    terms = np.log(b)
    return float(np.sum(np.multiply(terms, b, out=terms)) * cell_measure)


# ---------------------------------------------------------------------------
# Weak-type experiment harness.

_TEST_FUNCTION_SHAPES = {1: (12, 3, 4), 2: (10, 2, 3)}   # dims: spikes, blocks, deepest


def random_test_function(spec: GridSpec, rng: np.random.Generator) -> GridFunction:
    """Nonnegative test function: 12 sparse unit-mass spikes plus 3 smooth
    dyadic blocks.

    All random draws are resolution-independent (positions are uniform
    floats), so a fixed seed produces matched functions across grids.
    """
    return _random_test_function(spec, rng, 1)


def _random_test_function(spec: GridSpec, rng: np.random.Generator,
                          dims: int) -> GridFunction:
    """Spikes of mass 0.2..1.2 at uniform points plus blocks of height
    0..2 on dyadic boxes of depth 1..deepest per axis.  A 1D function draws
    (n, 1) arrays, the same stream as n draws."""
    N = spec.size
    n_spikes, n_blocks, deepest = _TEST_FUNCTION_SHAPES[dims]
    f = np.zeros((N,) * dims)
    positions = rng.random((n_spikes, dims))
    masses = 0.2 + rng.random(n_spikes)
    for p, m in zip(positions, masses):
        f[tuple(int(x * N) for x in p)] += m * N ** dims   # exact: N is 2^K
    depths = rng.integers(1, deepest + 1, size=(n_blocks, dims))
    offsets = rng.random((n_blocks, dims))
    heights = 2.0 * rng.random(n_blocks)
    for ds, offs, h in zip(depths.tolist(), offsets, heights):
        starts = [int(o * (1 << d)) * (N >> d) for d, o in zip(ds, offs)]
        f[tuple(slice(a, a + (N >> d)) for a, d in zip(starts, ds))] += h
    return GridFunction(spec, f)


_OPERATORS = ("abs_mean", "mean", "dyadic_maximal")


def _ratio_summary(ratios) -> dict:
    """max_ratio and quantiles of the trials' ratios."""
    ratios = np.array(ratios)
    return {"max_ratio": float(ratios.max()),
            "quantiles": {f"q{p}": float(np.quantile(ratios, p / 100))
                          for p in (25, 50, 75, 90)}}


def weak_type_experiment(T: TransformationMatrix, subseq: IndexSubsequence,
                         trials: int, K: int, seed: int = 0,
                         operator: str = "abs_mean",
                         generator=random_test_function) -> dict:
    """Distribution of ||sup_a Op f||_{1,infty} / ||f||_1 over random
    nonnegative inputs f = generator(GridSpec(K), rng), 1D (the workspace
    holds blocks of 1D trials); the maximal ratio is the headline number.
    The report names the family, the subsequence and the ``operator``, with
    K, trials, seed, max_ratio and the ratio quantiles; the 2D report of
    `llogl_weak_type_experiment` has the same keys but no operator."""
    _check_trials(trials, seed)
    if operator not in _OPERATORS:
        raise ValueError(f"operator must be one of {_OPERATORS}")
    spec = GridSpec(K)
    subseq.check_resolution(spec)
    bank = {"abs_mean": abs_kernel_spectra, "mean": _mean_weight_matrix}.get(operator)
    banks = None if bank is None else [(bank(T, subseq), subseq)]
    return {"family": T.name, "subsequence": subseq.describe(), "operator": operator,
            **_trial_summary(trials, seed, max(1, _CHUNK_CELLS >> K), spec, generator, banks,
                             lambda f: max(f.l1_norm(), np.finfo(float).tiny))}


def _check_trials(trials: int, seed: int) -> None:
    """The checks of both weak-type experiments, made before any bank is built."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _trial_summary(trials: int, seed: int, block: int, spec: GridSpec, generator, banks,
                   norm) -> dict:
    """K, trials, seed and the `_ratio_summary` of ``trials`` seeded trials,
    each block of ``block`` reduced to its ratios before the next is drawn
    in one `_Workspace`: the working set does not grow with ``trials``, and
    after the first block no block allocates a buffer of its own."""
    rng = np.random.default_rng(seed)
    trial_cells = spec.size ** (1 if banks is None else len(banks))
    work = _Workspace(max(_CHUNK_CELLS, block * trial_cells))   # see `_sup_of_means`
    ratios = [r for i in range(0, trials, block)
              for r in _trial_ratios(min(block, trials - i), spec, rng, generator, banks, norm,
                                     work)]
    return {"K": spec.resolution, "trials": trials, "seed": seed, **_ratio_summary(ratios)}


def _trial_ratios(count: int, spec: GridSpec, rng, generator, banks, norm,
                  work) -> list[float]:
    """||sup||_{1,infty} / norm(f) for each of ``count`` trials f
    drawn from ``rng``: sup is the `dyadic_maximal` of f when ``banks`` is
    None, else the supremum of means over one bank per axis of f.  Each f
    is written into a row of the `_Workspace` ``work`` as it is drawn."""
    norms = []
    for i in range(count):
        f = generator(spec, rng)
        if i == 0:
            inputs = work.take(_INPUTS, (count,) + f.samples.shape)
        inputs[i] = f.samples
        norms.append(norm(f))
    cell_measure = f.cell_measure
    del f   # its samples are in inputs
    if banks is None:
        sups = (dyadic_maximal(GridFunction(spec, x)).samples for x in inputs)
    else:
        sups = _sup_of_means(inputs, banks, spec.resolution, work)
    return [_weak_quasinorm_values(sup, cell_measure) / d for sup, d in zip(sups, norms)]
