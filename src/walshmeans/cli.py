"""Command-line front end.

Subcommands map one-to-one onto the library operations and emit CSV for
grid data and JSON for structured reports: a report is the dict its
library function returns (example1 writes its exact rationals as text).
A fixed seed makes reports byte-identical across runs, and a report never
holds a NaN or an infinity.  Exit codes: 0 ok, 1 config or usage error,
2 guard rail, 3 a checked identity failed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .dyadic import DyadicRational, GridSpec
from .exact import avg_sweep_at_zero, build_example1, divergence_report
from .io import MAX_REPORT_VALUES, GuardRailError, check_grid_resolution, parse_numbers, report_json
from .lebesgue import classify_wlp, mt2_convergence_experiment
from .maximal import mean_work, subsequence_from_spec, weak_type_experiment
from .summability import (
    _MAX_TABLE,
    MatrixValidationError,
    apply_mean,
    c2_quantity,
    kernel_V,
    kernel_decomposition,
    matrix_from_spec,
    upsilon,
)
from .tensor import llogl_weak_type_experiment, load_grid2d, save_grid2d, tensor_mean
from .transform import GridFunction, _one_blas_thread, load_grid1d, save_grid1d

MAX_WORK = 1 << 31   # predicted element-stages of one maximal experiment
MAX_NSEQ = 1 << 12   # largest n_k of example1: n_max pieces of n_max-bit rationals

OK, CONFIG_ERROR, GUARD_RAIL, IDENTITY_FAILURE = 0, 1, 2, 3


def _check_resolution(K: int, dims: int) -> GridSpec:
    check_grid_resolution(K, dims)
    return GridSpec(K)


def _check_work(work: int, unit: str = "element-stages",
                remedy: str = "shorten the subsequence or lower --trials") -> None:
    """Refuse an experiment predicted to take more than MAX_WORK units of
    work: element-stages of each trial's forward transform, d K 2^{dK} on a
    d-dimensional grid, and of its band-limited means (`mean_work` of the
    subsequences), times the trials; or element reads of the dyadic maximal
    function."""
    if work > MAX_WORK:
        raise GuardRailError(
            f"predicted work of {work} {unit} exceeds the limit of {MAX_WORK}; {remedy}")


def _check_points(count: int, spec: GridSpec) -> None:
    """Refuse `count` points whose prefix tables, 4^K cells each, would
    hold more than _MAX_TABLE cells."""
    cells = count * spec.size ** 2
    if cells > _MAX_TABLE:
        raise GuardRailError(
            f"{count} points need {cells} prefix-table cells at K={spec.resolution}, "
            f"above the limit of {_MAX_TABLE}")


def _emit(payload, out: str | None) -> None:
    text = report_json(payload) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_kernel(args) -> int:
    spec = _check_resolution(args.resolution, 1)
    T = matrix_from_spec(args.matrix)
    if args.decompose:
        v1, v2 = kernel_decomposition(T, args.n, spec)
        v = kernel_V(T, args.n, spec)
        err = float(abs(v1.samples + v2.samples - v.samples).max())
        base = args.out or "kernel.csv"
        stem = base[:-4] if base.endswith(".csv") else base
        save_grid1d(v, f"{stem}.csv")
        save_grid1d(v1, f"{stem}.part1.csv")
        save_grid1d(v2, f"{stem}.part2.csv")
        sys.stderr.write(f"max |V1+V2-V| = {err:.3e}\n")
        return OK if err <= 1e-9 else IDENTITY_FAILURE
    save_grid1d(kernel_V(T, args.n, spec), args.out or sys.stdout)
    return OK


def cmd_mean(args) -> int:
    f = load_grid1d(args.input)
    T = matrix_from_spec(args.matrix)
    coeff = apply_mean(T, args.n, f, path="coefficient")
    kern = apply_mean(T, args.n, f, path="kernel")
    err = float(abs(coeff.samples - kern.samples).max())
    save_grid1d(coeff, args.out or sys.stdout)
    if not err <= 1e-10:
        sys.stderr.write(f"mean path disagreement: {err:.3e}\n")
        return IDENTITY_FAILURE
    return OK


def cmd_upsilon(args) -> int:
    T = matrix_from_spec(args.matrix)
    n = np.array(subsequence_from_spec(args.seq).indices)
    rows = [{"n": i, "upsilon": u, "t0": t0} for i, u, t0 in
            zip(n.tolist(), upsilon(T, n).tolist(), T.tau(0, n).tolist())]
    _emit({"family": T.name, "subsequence": args.seq, "rows": rows}, args.out)
    return OK


def cmd_maximal(args) -> int:
    spec = _check_resolution(args.resolution, 1)
    T = matrix_from_spec(args.matrix)
    subseq = subsequence_from_spec(args.seq)
    subseq.check_resolution(spec)   # before the work guard: an index off the grid exits 1
    if args.operator == "dyadic_maximal":   # K + 1 averages over the 2^K cells of each trial
        _check_work(args.trials * (args.resolution + 1) * spec.size, "element reads",
                    "lower --trials")
    else:
        _check_work(args.trials * (args.resolution * spec.size + mean_work(subseq)))
    _emit(weak_type_experiment(T, subseq, trials=args.trials, K=args.resolution,
                               seed=args.seed, operator=args.operator), args.out)
    return OK


def cmd_tensor(args) -> int:
    F = load_grid2d(args.input)
    T0 = matrix_from_spec(args.matrix0)
    T1 = matrix_from_spec(args.matrix1)
    first = tensor_mean(T0, args.n0, T1, args.n1, F)
    other = tensor_mean(T1, args.n1, T0, args.n0, GridFunction(F.spec, F.samples.T))
    err = float(abs(first.samples - other.samples.T).max())
    save_grid2d(first, args.out or sys.stdout)
    if not err <= 1e-10:
        sys.stderr.write(f"iteration order disagreement: {err:.3e}\n")
        return IDENTITY_FAILURE
    return OK


def cmd_llogl(args) -> int:
    spec = _check_resolution(args.resolution, 2)
    T0 = matrix_from_spec(args.matrix0)
    T1 = matrix_from_spec(args.matrix1)
    subseq0 = subsequence_from_spec(args.seq0)
    subseq1 = subsequence_from_spec(args.seq1)
    subseq0.check_resolution(spec)
    subseq1.check_resolution(spec)
    _check_work(args.trials * (2 * args.resolution * spec.size ** 2
                               + mean_work(subseq0, subseq1)))
    _emit(llogl_weak_type_experiment(T0, subseq0, T1, subseq1, trials=args.trials,
                                     K=args.resolution, seed=args.seed), args.out)
    return OK


def _parse_point(text: str) -> tuple[int, int]:
    i, j = parse_numbers("--point", text, ",", 2)
    return i, j


def cmd_wlp(args) -> int:
    points = [_parse_point(p) for p in args.point]
    depths = None
    if args.depths:
        lo, hi = parse_numbers("--depths", args.depths, "..", 2)
        depths = range(lo, hi + 1)
    F = load_grid2d(args.input)
    _check_points(len(points), F.spec)
    if depths is not None and not 0 <= lo <= hi <= F.spec.resolution:
        raise ValueError(f"--depths {args.depths!r}: expected a..b with "
                         f"0 <= a <= b <= {F.spec.resolution}, the grid's resolution")
    diags = [classify_wlp(F, p, depth_range=depths) for p in points]
    _emit({"diagnostics": diags}, args.out)
    return OK


def cmd_mt2(args) -> int:
    if args.input:
        F = load_grid2d(args.input)
    else:
        spec = _check_resolution(args.resolution, 2)
        half = spec.size // 2
        samples = np.zeros((spec.size, spec.size))
        samples[:half, :half] = 1.0
        F = GridFunction(spec, samples)
    T0 = matrix_from_spec(args.matrix0)
    T1 = matrix_from_spec(args.matrix1)
    subseq0 = subsequence_from_spec(args.seq0)
    subseq1 = subsequence_from_spec(args.seq1)
    _check_points(len(args.point), F.spec)
    values = len(args.point) * len(subseq0) * len(subseq1)
    if values > MAX_REPORT_VALUES:
        raise GuardRailError(
            f"{len(args.point)} points x {len(subseq0)} x {len(subseq1)} index pairs "
            f"need {values} report values, above the limit of {MAX_REPORT_VALUES}")
    points = [_parse_point(p) for p in args.point]
    _emit(mt2_convergence_experiment(T0, T1, subseq0, subseq1, F, points), args.out)
    return OK


def _exact_as_text(row: dict) -> dict:
    """A report row with each exact `DyadicRational` written as its text."""
    return {k: str(v) if isinstance(v, DyadicRational) else v for k, v in row.items()}


def cmd_example1(args) -> int:
    seq = tuple(parse_numbers("--nseq", args.nseq))
    top = max(seq)
    if top > MAX_NSEQ:
        raise GuardRailError(
            f"--nseq {args.nseq!r} has largest index {top}, above the limit of {MAX_NSEQ}")
    f = build_example1(seq)
    rows = divergence_report(seq, f)
    _emit({"nseq": list(seq), "divergence": list(map(_exact_as_text, rows)),
           "avg_at_zero": list(map(_exact_as_text, avg_sweep_at_zero(seq, f)))}, args.out)
    return OK if all(r["meets_bound"] for r in rows) else IDENTITY_FAILURE


def cmd_c2(args) -> int:
    n = np.array(subsequence_from_spec(args.seq).indices)
    rows = [{"n": i, "c2": c2} for i, c2 in
            zip(n.tolist(), c2_quantity(args.alpha, n).tolist())]
    _emit({"alpha": args.alpha, "subsequence": args.seq, "rows": rows}, args.out)
    return OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="walshmeans",
        description="Walsh-Paley summability experiments on the dyadic grid")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", help="output path (stdout when omitted)")
        return sp

    sp = add("kernel", cmd_kernel, "sample a summation kernel V_n")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--resolution", type=int, required=True)
    sp.add_argument("--decompose", action="store_true",
                    help="also write the V1/V2 split and check V1+V2=V")

    sp = add("mean", cmd_mean, "apply a matrix mean to a grid CSV")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--input", required=True)

    sp = add("upsilon", cmd_upsilon, "boundedness functional along a subsequence")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--seq", required=True)

    sp = add("maximal", cmd_maximal, "weak-type ratio experiment (1D)")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--seq", required=True)
    sp.add_argument("--resolution", type=int, required=True)
    sp.add_argument("--trials", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--operator", default="abs_mean",
                    choices=("abs_mean", "mean", "dyadic_maximal"))

    sp = add("tensor", cmd_tensor, "tensor-product mean of a 2D grid CSV")
    sp.add_argument("--matrix0", required=True)
    sp.add_argument("--matrix1", required=True)
    sp.add_argument("--n0", type=int, required=True)
    sp.add_argument("--n1", type=int, required=True)
    sp.add_argument("--input", required=True)

    sp = add("llogl-experiment", cmd_llogl, "2D L log L weak-type experiment")
    sp.add_argument("--matrix0", required=True)
    sp.add_argument("--matrix1", required=True)
    sp.add_argument("--seq0", required=True)
    sp.add_argument("--seq1", required=True)
    sp.add_argument("--resolution", type=int, required=True)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("wlp", cmd_wlp, "Walsh-Lebesgue point diagnostics")
    sp.add_argument("--input", required=True)
    sp.add_argument("--point", action="append", required=True,
                    help="grid point i,j (repeatable)")
    sp.add_argument("--depths", help="diagonal depth range a..b")

    sp = add("mt2-experiment", cmd_mt2, "tensor-mean convergence at points")
    sp.add_argument("--matrix0", required=True)
    sp.add_argument("--matrix1", required=True)
    sp.add_argument("--seq0", required=True)
    sp.add_argument("--seq1", required=True)
    sp.add_argument("--point", action="append", required=True)
    sp.add_argument("--input", help="2D grid CSV; defaults to the quarter square")
    sp.add_argument("--resolution", type=int, default=8)

    sp = add("example1", cmd_example1, "exact divergence example tables")
    sp.add_argument("--nseq", default="5,17,65")

    sp = add("c2-check", cmd_c2, "Cesaro subsequence condition values")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--seq", required=True)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:   # --help
            raise
        # argparse has printed the usage error; its own exit code, 2, is
        # the guard-rail code
        return CONFIG_ERROR
    try:
        # overflow reaches the output as a non-finite number, which the
        # report and grid writers refuse with one error line; the CLI owns
        # its process, so it runs the Paley GEMMs on one BLAS thread
        with np.errstate(all="ignore"), _one_blas_thread():
            return args.fn(args)
    except GuardRailError as exc:
        sys.stderr.write(f"guard rail: {exc}\n")
        return GUARD_RAIL
    except (ValueError, OSError, MatrixValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
