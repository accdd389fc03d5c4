"""The CLI's outputs, recorded for comparison between trees.

    python tests/digest_outputs.py SRC OUT.json
    python tests/digest_outputs.py --compare A.json B.json

The first form imports `walshmeans` from SRC (a tree's `src/` directory)
and runs, in process through `walshmeans.cli.main`:

- every op of every `perfbench/workloads.py` workload at input seeds 0-3;
- every command of the README's CLI block, on the `f.csv` and `F.csv` that
  `tests/test_cli.py` writes for them;
- the README's large `maximal` command (about 2 s);
- `maximal` over a `cesaro-seq:` and a `custom:` matrix, the families
  built row by row, whose files are written into the case directory;
- `maximal` and `llogl-experiment` over level-0 subsequences, whose work
  is all forward transforms, a 64-trial `llogl-experiment`, a `maximal`
  mean over `alternating:0..6` (the fold's broadcast repeat), a `maximal`
  over `list:1,4096` (a broadcast repeat by 4096, which strided copies
  would plan as 4096 steps) and an `llogl-experiment` whose fold blocks
  outgrow its trials;
- the library operators no command calls (`maximal_mean`,
  `maximal_abs_mean`, `tensor_maximal`, `iterated_majorant`) on the
  README's `f.csv` and `F.csv`, and `dyadic_maximal` on `f.csv` and
  `hybrid_maximal` on `F.csv` (its 1D and 2D paths), recording their
  samples as a JSON list.

The commands and inputs come from the tree this script is in, so two trees
run the same cases.  Each case runs in a fresh empty directory and records
its stdout, its stderr, its exit code and each file it wrote.  OUT.json
(about 17 MB) maps the case names to these outputs; run the script once
per tree.  Two files that `cmp` finds equal mean byte-identical outputs.
`--compare` says how far a rounding change moved them: for each case it
prints `identical`, the largest |a - b| / scale over the floats of an
output whose other text is the same (the scale being the largest |float|
of that output in either file), or the first difference outside the
floats (text, an integer, the exit code, a shape).  It exits 1 when any
case differs outside its floats or is missing from one file.  It is not a
pytest module.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LARGE = ["maximal", "--matrix", "fejer", "--seq", "all:1..4096", "--resolution", "14",
         "--trials", "8"]


def _readme_commands() -> list[list[str]]:
    """The argv of each command in the README's CLI block."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("walshmeans ")]


def _write_grid(path: str, K: int, values: np.ndarray) -> None:
    """The grid CSV of `values`, as `save_grid1d`/`save_grid2d` write it."""
    with open(path, "w") as fh:
        fh.write(f"# resolution={K}{' dims=2' if values.ndim == 2 else ''}\n")
        for row in values.tolist():
            fh.write((",".join(map(repr, row)) if values.ndim == 2 else repr(row)) + "\n")


def _readme_inputs(workdir: str) -> None:
    rng = np.random.default_rng(2)
    _write_grid(os.path.join(workdir, "f.csv"), 7, rng.normal(size=128))
    _write_grid(os.path.join(workdir, "F.csv"), 6, rng.normal(size=(64, 64)))


# the cesaro-seq subsequence puts 188 indices at level 10, so its bank
# fills that level with two tau calls
ROW_BUILT = [
    ["maximal", "--matrix", "cesaro-seq:alphas.txt", "--seq", "all:1..700",
     "--resolution", "10", "--trials", "4", "--seed", "1"],
    ["maximal", "--matrix", "custom:rows.csv", "--seq", "all:1..160", "--resolution", "8",
     "--trials", "4", "--seed", "2"],
]


# level-0 subsequences: each trial's work is its forward transform; a 2D
# experiment of 64 trials, each drawn after the last one's ratio; a mean
# over alternating:0..6, whose levels 0 and 3 take `_repeat`'s broadcast;
# list:1,4096, whose level 0 is repeated 4096 times up to level 12; and a
# 2D experiment whose fold blocks (2^17 cells) outgrow its trials (2^12
# cells)
EXTRA = [
    ["maximal", "--matrix", "fejer", "--seq", "list:1", "--resolution", "14",
     "--trials", "4", "--seed", "3"],
    ["llogl-experiment", "--matrix0", "fejer", "--matrix1", "nlog", "--seq0", "list:1",
     "--seq1", "powers:0..0", "--resolution", "8", "--trials", "4", "--seed", "3"],
    ["llogl-experiment", "--matrix0", "fejer", "--matrix1", "fejer", "--seq0", "powers:1..8",
     "--seq1", "powers:1..8", "--resolution", "8", "--trials", "64", "--seed", "5"],
    ["maximal", "--matrix", "nlog", "--seq", "alternating:0..6", "--resolution", "14",
     "--trials", "8", "--operator", "mean"],
    ["maximal", "--matrix", "fejer", "--seq", "list:1,4096", "--resolution", "12"],
    ["llogl-experiment", "--matrix0", "fejer", "--matrix1", "nlog", "--seq0", "list:64",
     "--seq1", "all:33..64", "--resolution", "6", "--trials", "4", "--seed", "1"],
]


def _matrix_files(workdir: str) -> None:
    """alphas.txt: 50 Cesaro exponents from 0.9 down to 0.2; rows.csv: 161
    random nonincreasing rows, each scaled to sum one."""
    with open(os.path.join(workdir, "alphas.txt"), "w") as fh:
        fh.writelines(f"{a!r}\n" for a in np.linspace(0.9, 0.2, 50).tolist())
    rng = np.random.default_rng(3)
    with open(os.path.join(workdir, "rows.csv"), "w") as fh:
        for n in range(161):
            row = np.sort(rng.random(n + 1))[::-1]
            fh.write(",".join(map(repr, (row / row.sum()).tolist())) + "\n")


def _run(main, argv: list[str], make_inputs) -> dict:
    """The outputs of one CLI run in a fresh directory that holds only the
    files `make_inputs` writes into it."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            make_inputs(".")
            inputs = set(os.listdir("."))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = f"SystemExit({exc.code!r})"
                except Exception as exc:   # recorded, not fatal: it is an output too
                    rc = f"raised {type(exc).__name__}: {exc}"
            outputs = {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": str(rc)}
            for name in sorted(set(os.listdir(".")) - inputs):
                with open(name, "rb") as fh:
                    outputs[f"file:{name}"] = fh.read().decode("utf-8", "backslashreplace")
        finally:
            os.chdir(cwd)
    return outputs


def library_outputs(wm) -> dict:
    """The samples, as a JSON list, of the operators no command calls, run
    on the README's f.csv (K = 7) and F.csv (K = 6) over powers:1..K: the
    1D ones with fejer and with nlog, the 2D ones with fejer x nlog; and of
    `dyadic_maximal` on f.csv and `hybrid_maximal` on F.csv."""
    with tempfile.TemporaryDirectory() as workdir:
        _readme_inputs(workdir)
        f = wm.load_grid1d(os.path.join(workdir, "f.csv"))
        F = wm.load_grid2d(os.path.join(workdir, "F.csv"))
    fejer, nlog = wm.builtin_matrix("fejer"), wm.builtin_matrix("nlog")
    s7, s6 = wm.subsequence_from_spec("powers:1..7"), wm.subsequence_from_spec("powers:1..6")
    runs = {f"library {op.__name__} {T.name} powers:1..7 f.csv": (op, T, s7, f)
            for op in (wm.maximal_mean, wm.maximal_abs_mean) for T in (fejer, nlog)}
    for op in (wm.tensor_maximal, wm.iterated_majorant):
        runs[f"library {op.__name__} fejer x nlog powers:1..6 F.csv"] = (op, fejer, s6, nlog,
                                                                          s6, F)
    runs["library dyadic_maximal f.csv"] = (wm.dyadic_maximal, f)
    runs["library hybrid_maximal F.csv"] = (wm.hybrid_maximal, F)
    return {name: {"samples": json.dumps(op(*args).samples.tolist())}
            for name, (op, *args) in runs.items()}


def cases() -> list[tuple[str, list[str], object]]:
    """(name, argv, input writer) of every case."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    found = []
    for workload in ("weak1d", "tensor2d", "sweep"):
        for seed in range(4):
            def make(workdir, workload=workload, seed=seed):
                workloads.build_inputs(workload, seed, workdir)
            for op in workloads.ops(workload, seed, "."):
                found.append((f"perfbench {workload} {seed} {op.name}", list(op.argv), make))
    for argv in _readme_commands():
        found.append(("readme " + " ".join(argv), argv, _readme_inputs))
    found.append(("readme-large " + " ".join(LARGE), LARGE, lambda workdir: None))
    for argv in ROW_BUILT:
        for operator in ("abs_mean", "mean"):
            args = argv + ["--operator", operator]
            found.append(("row-built " + " ".join(args), args, _matrix_files))
    for argv in EXTRA:
        found.append(("extra " + " ".join(argv), argv, lambda workdir: None))
    return found


# a float as `repr` writes it: digits on both sides of the point, or an exponent
_FLOAT = re.compile(r"(-?\d+\.\d+(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+)")


def _difference(a: str, b: str) -> tuple[str, float | None]:
    """How output b differs from output a: ("", max |a - b| / scale) when
    only their floats differ, or a description of the first other
    difference and None."""
    pa, pb = _FLOAT.split(a), _FLOAT.split(b)
    if len(pa) != len(pb):
        return f"{len(pa) // 2} floats against {len(pb) // 2}", None
    for i in range(0, len(pa), 2):
        if pa[i] != pb[i]:
            return f"text {pa[i][:60]!r} against {pb[i][:60]!r}", None
    fa, fb = (np.array(p[1::2], dtype=float) for p in (pa, pb))
    scale = max(np.abs(fa).max(), np.abs(fb).max())
    return "", float(np.abs(fa - fb).max() / scale) if scale else 0.0


def compare(path_a: str, path_b: str) -> int:
    """Print, case by case, how the outputs in path_b differ from those in
    path_a; 1 when any differ outside their floats or a case is missing."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    counts = {"identical": 0, "floats only": 0, "other": 0}
    worst = 0.0
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            counts["other"] += 1
            continue
        found, moved = [], []
        for field in sorted(a[name].keys() | b[name].keys()):
            va, vb = a[name].get(field), b[name].get(field)
            if va == vb:
                continue
            if va is None or vb is None:
                found.append(f"{field} only in {path_a if vb is None else path_b}")
                continue
            what, delta = _difference(va, vb)
            if what:
                found.append(f"{field}: {what}")
            else:
                moved.append((delta, field))
        if found:
            print(f"{name}: " + "; ".join(found))
            counts["other"] += 1
        elif moved:
            delta, field = max(moved)
            print(f"{name}: floats only, max |a - b| / scale {delta:.3g} ({field})")
            counts["floats only"] += 1
            worst = max(worst, delta)
        else:
            print(f"{name}: identical")
            counts["identical"] += 1
    print(f"{counts['identical']} identical, {counts['floats only']} differ in floats only "
          f"(at most {worst:.3g} of scale), {counts['other']} differ otherwise")
    return 1 if counts["other"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record the CLI's outputs under SRC into "
                                     "OUT.json, or compare two such files.")
    parser.add_argument("--compare", action="store_true", help="compare A.json with B.json")
    parser.add_argument("paths", nargs=2, metavar="PATH", help="SRC OUT.json, or A.json B.json")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        return compare(*args.paths)
    src, out = map(os.path.abspath, args.paths)
    sys.path.insert(0, src)
    import walshmeans
    from walshmeans import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"imported {cli.__file__}, not a module under {src}\n")
        return 2
    outputs = {name: _run(cli.main, argv_, make) for name, argv_, make in cases()}
    outputs.update(library_outputs(walshmeans))
    with open(out, "w") as fh:
        json.dump(outputs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{len(outputs)} cases written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
