"""Command-line interface: dispatch, file round-trips, determinism, guard
rails, and exit codes."""

import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracles import fejer_kernel
from walshmeans.cli import main
from walshmeans import cli, tensor, transform
from walshmeans.dyadic import DyadicRational, GridSpec
from walshmeans.exact import avg_sweep_at_zero, divergence_report
from walshmeans.lebesgue import classify_wlp, mt2_convergence_experiment
from walshmeans.maximal import subsequence_from_spec, weak_type_experiment
from walshmeans.summability import builtin_matrix
from walshmeans.transform import GridFunction, load_grid1d, save_grid1d
from walshmeans.tensor import llogl_weak_type_experiment, load_grid2d, save_grid2d


def run(args):
    return main(args)


def test_kernel_command(tmp_path):
    out = tmp_path / "k.csv"
    code = run(["kernel", "--matrix", "fejer", "--n", "4",
                "--resolution", "4", "--out", str(out)])
    assert code == 0
    got = load_grid1d(str(out))
    assert len(got.samples) == 16
    expect = fejer_kernel(4, GridSpec(4)).samples
    assert np.abs(got.samples - expect).max() < 1e-15


def test_kernel_decompose_command(tmp_path):
    out = tmp_path / "k.csv"
    code = run(["kernel", "--matrix", "nlog", "--n", "11",
                "--resolution", "5", "--decompose", "--out", str(out)])
    assert code == 0
    v = load_grid1d(str(tmp_path / "k.csv"))
    v1 = load_grid1d(str(tmp_path / "k.part1.csv"))
    v2 = load_grid1d(str(tmp_path / "k.part2.csv"))
    assert np.abs(v1.samples + v2.samples - v.samples).max() < 1e-10


def test_mean_command_roundtrip(tmp_path):
    spec = GridSpec(5)
    rng = np.random.default_rng(0)
    f = GridFunction(spec, rng.normal(size=spec.size))
    src = tmp_path / "f.csv"
    save_grid1d(f, str(src))
    out = tmp_path / "g.csv"
    # identity family at full order returns the input exactly
    code = run(["mean", "--matrix", "identity", "--n", str(spec.size),
                "--input", str(src), "--out", str(out)])
    assert code == 0
    got = load_grid1d(str(out))
    assert np.abs(got.samples - f.samples).max() < 1e-11
    # and the source file itself round-trips bit for bit
    assert np.array_equal(load_grid1d(str(src)).samples, f.samples)


def test_upsilon_command(tmp_path, capsys):
    code = run(["upsilon", "--matrix", "nlog", "--seq", "alternating:2..8"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    ups = [row["upsilon"] for row in payload["rows"]]
    assert all(a < b for a, b in zip(ups, ups[1:]))   # monotone growth
    assert payload["family"] == "nlog"


def test_maximal_command_deterministic(tmp_path):
    args = ["maximal", "--matrix", "fejer", "--seq", "powers:1..6",
            "--resolution", "6", "--trials", "5", "--seed", "3"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["K"] == 6 and payload["trials"] == 5
    assert payload["max_ratio"] > 0


def test_tensor_command(tmp_path):
    spec = GridSpec(4)
    rng = np.random.default_rng(1)
    F = GridFunction(spec, rng.normal(size=(spec.size, spec.size)))
    src = tmp_path / "F.csv"
    save_grid2d(F, str(src))
    out = tmp_path / "G.csv"
    code = run(["tensor", "--matrix0", "fejer", "--matrix1", "nlog",
                "--n0", "4", "--n1", "7", "--input", str(src),
                "--out", str(out)])
    assert code == 0
    got = load_grid2d(str(out))
    from walshmeans.tensor import tensor_mean
    expect = tensor_mean(builtin_matrix("fejer"), 4, builtin_matrix("nlog"), 7, F)
    assert np.abs(got.samples - expect.samples).max() < 1e-12
    assert np.array_equal(load_grid2d(str(src)).samples, F.samples)


def test_llogl_command(tmp_path, capsys):
    code = run(["llogl-experiment", "--matrix0", "fejer", "--matrix1", "fejer",
                "--seq0", "powers:1..5", "--seq1", "powers:1..5",
                "--resolution", "5", "--trials", "3", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_ratio"] > 0


def test_wlp_command(tmp_path, capsys):
    spec = GridSpec(6)
    half = spec.size // 2
    S = np.zeros((spec.size, spec.size))
    S[:half, :half] = 1.0
    src = tmp_path / "F.csv"
    save_grid2d(GridFunction(spec, S), str(src))
    code = run(["wlp", "--input", str(src), "--point", "16,16",
                "--depths", "2..6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"][0]["verdict"] == "passes"


def test_mt2_command(capsys):
    code = run(["mt2-experiment", "--matrix0", "fejer", "--matrix1", "fejer",
                "--seq0", "powers:2..6", "--seq1", "powers:2..6",
                "--point", "16,16", "--resolution", "6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    pt = payload["points"][0]
    assert pt["classification"]["verdict"] == "passes"
    assert pt["diag_errors"][-1] < pt["diag_errors"][0]
    assert payload["t0_axis0"] == [2.0 ** (-m) for m in range(2, 7)]


def test_example1_command(tmp_path):
    out = tmp_path / "ex1.json"
    code = run(["example1", "--nseq", "5,17,65", "--out", str(out)])
    # the printed lower bound (n_k - n_{k-1})/2^{k+1} is twice what holds
    # (derivation in test_criterion_09 of test_acceptance.py), so the exit
    # code is 3; the table is still written
    assert code == 3
    payload = json.loads(out.read_text())
    assert [r["k"] for r in payload["divergence"]] == [1, 2, 3]
    r2 = payload["divergence"][1]
    assert r2["lower_bound_decimal"] == 1.5
    assert 0.81 < r2["sigma_decimal"] < 0.82
    assert len(payload["avg_at_zero"]) == 65

    assert run(["example1", "--nseq", "4,17,65"]) == 1


def test_example1_builds_the_function_once(monkeypatch, capsys):
    # cmd_example1 hands one built function to both reports
    from walshmeans import cli, exact
    built = []
    real = exact.build_example1

    def build(seq):
        built.append(tuple(seq))
        return real(seq)

    monkeypatch.setattr(exact, "build_example1", build)
    monkeypatch.setattr(cli, "build_example1", build)
    assert run(["example1", "--nseq", "5,17,65"]) == 3
    assert built == [(5, 17, 65)]
    capsys.readouterr()


def _as_text(rows):
    return [{k: str(v) if isinstance(v, DyadicRational) else v for k, v in row.items()}
            for row in rows]


_FEJER, _NLOG = builtin_matrix("fejer"), builtin_matrix("nlog")
_P4 = subsequence_from_spec("powers:1..4")


@pytest.mark.parametrize("argv, report", [
    (["maximal", "--matrix", "fejer", "--seq", "powers:1..4", "--resolution", "5",
      "--trials", "3", "--seed", "2", "--operator", "mean"],
     lambda F: weak_type_experiment(_FEJER, _P4, trials=3, K=5, seed=2, operator="mean")),
    (["llogl-experiment", "--matrix0", "fejer", "--matrix1", "nlog", "--seq0", "powers:1..4",
      "--seq1", "all:1..5", "--resolution", "4", "--trials", "2", "--seed", "1"],
     lambda F: llogl_weak_type_experiment(_FEJER, _P4, _NLOG, subsequence_from_spec("all:1..5"),
                                          trials=2, K=4, seed=1)),
    (["wlp", "--input", "{F}", "--point", "1,2", "--point", "15,0", "--depths", "1..4"],
     lambda F: {"diagnostics": [classify_wlp(F, p, depth_range=range(1, 5))
                                for p in ((1, 2), (15, 0))]}),
    (["mt2-experiment", "--matrix0", "nlog", "--matrix1", "fejer", "--seq0", "all:1..5",
      "--seq1", "powers:1..4", "--point", "3,9", "--input", "{F}"],
     lambda F: mt2_convergence_experiment(_NLOG, _FEJER, subsequence_from_spec("all:1..5"),
                                          _P4, F, [(3, 9)])),
    (["example1", "--nseq", "5,17,65"],
     lambda F: {"nseq": [5, 17, 65], "divergence": _as_text(divergence_report((5, 17, 65))),
                "avg_at_zero": _as_text(avg_sweep_at_zero((5, 17, 65)))}),
], ids=["maximal", "llogl-experiment", "wlp", "mt2-experiment", "example1"])
def test_library_report_is_the_cli_report(argv, report, tmp_path):
    # each CLI report is the library call's dict as it is, but for
    # example1's exact values, which it writes as text
    src, out = tmp_path / "F.csv", tmp_path / "report.json"
    F = GridFunction(GridSpec(4), np.random.default_rng(6).normal(size=(16, 16)))
    save_grid2d(F, str(src))
    code = run([a.format(F=src) for a in argv] + ["--out", str(out)])
    assert code == (3 if argv[0] == "example1" else 0)
    assert json.loads(out.read_text()) == report(F)


def test_c2_command(capsys):
    code = run(["c2-check", "--alpha", "0.5", "--seq", "powers:1..4"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    for row in payload["rows"]:
        assert row["c2"] == 1.0 + 2.0 ** (-0.5)


def test_help_renders(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert "kernel" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["upsilon", "--matrix", "fejer"], "the following arguments are required: --seq"),
    (["maximal", "--matrix", "fejer", "--seq", "powers:1..4", "--resolution", "4",
      "--operator", "bogus"], "argument --operator: invalid choice: 'bogus'"),
    # argparse reads -1,0 as an option, not as the value of --point
    (["wlp", "--input", "F.csv", "--point", "-1,0"], "argument --point: expected one argument"),
], ids=["missing-seq", "bogus-operator", "negative-point"])
def test_usage_errors_exit_1(argv, message, capsys):
    # a usage error is a config error (exit 1), not argparse's 2, which
    # is the guard-rail code
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["kernel", "--matrix", "fejer", "--n", "-1", "--resolution", "3"],
     "kernel order must be >= 0, got -1"),
    (["mean", "--matrix", "fejer", "--n", "-1", "--input", "{f}"],
     "mean order must be >= 0, got -1"),
    (["tensor", "--matrix0", "fejer", "--matrix1", "fejer", "--n0", "1", "--n1", "-1",
      "--input", "{F}"], "mean order must be >= 0, got -1"),
    (["wlp", "--input", "{F}", "--point=1"],
     "--point '1': expected 2 integers separated by ','"),
    (["example1", "--nseq", "5,,17"],
     "--nseq '5,,17': expected one or more integers separated by ','"),
    (["maximal", "--matrix", "fejer", "--seq", "powers:1..4", "--resolution", "4",
      "--seed", "-1"], "seed must be >= 0, got -1"),
    (["llogl-experiment", "--matrix0", "fejer", "--matrix1", "fejer", "--seq0", "powers:1..2",
      "--seq1", "powers:1..2", "--resolution", "2", "--seed", "-5"],
     "seed must be >= 0, got -5"),
    (["wlp", "--input", "{F}", "--point", "0,0", "--depths", "2..1"],
     "--depths '2..1': expected a..b with 0 <= a <= b <= 2, the grid's resolution"),
], ids=["kernel-negative-n", "mean-negative-n", "tensor-negative-n1", "wlp-point-one-int",
        "example1-empty-term", "maximal-negative-seed", "llogl-negative-seed",
        "wlp-depths-reversed"])
def test_config_errors_name_the_value(argv, message, tmp_path, capsys):
    # a bad order or integer is a config error (exit 1) whose message names
    # the option or order and the value given
    save_grid1d(GridFunction(GridSpec(3), np.ones(8)), str(tmp_path / "f.csv"))
    save_grid2d(GridFunction(GridSpec(2), np.ones((4, 4))), str(tmp_path / "F.csv"))
    argv = [a.format(f=tmp_path / "f.csv", F=tmp_path / "F.csv") for a in argv]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, text, message", [
    (["upsilon", "--matrix", "fejer", "--seq", "all:1..x"], None,
     "subsequence all: '1..x': expected 2 integers separated by '..'"),
    (["upsilon", "--matrix", "fejer", "--seq", "list:1,,3"], None,
     "subsequence list: '1,,3': expected one or more integers separated by ','"),
    (["upsilon", "--matrix", "fejer", "--seq", "powers:1"], None,
     "subsequence powers: '1': expected 2 integers separated by '..'"),
    (["upsilon", "--matrix", "cesaro:x", "--seq", "list:1"], None,
     "matrix cesaro: 'x': expected one number"),
    (["upsilon", "--matrix", "cesaro-seq:{path}", "--seq", "list:1"], "0.5\n\nx\n",
     "{path} line 3 'x': expected one number"),
    (["upsilon", "--matrix", "custom:{path}", "--seq", "list:1"], "1\n0.5,y\n",
     "{path} line 2 '0.5,y': expected one or more numbers separated by ','"),
    (["mean", "--matrix", "fejer", "--n", "1", "--input", "{path}"], "# resolution=x\n1\n",
     "line 1: resolution 'x': expected one integer"),
    (["mean", "--matrix", "fejer", "--n", "1", "--input", "{path}"],
     "# resolution=1\n1.0\n\nabc\n", "line 4 'abc': expected one number"),
    (["wlp", "--input", "{path}", "--point", "0,0"],
     "# resolution=1 dims=2\n1.0,2.0\n3.0, abc\n", "line 3 'abc': expected one number"),
], ids=["seq-all", "seq-list", "seq-powers", "matrix-cesaro", "cesaro-seq-line",
        "custom-row", "grid-header", "grid-1d-value", "grid-2d-value"])
def test_bad_numbers_name_their_source(argv, text, message, tmp_path, capsys):
    # a number that does not parse is a config error (exit 1) naming the
    # spec, or the file and line, it was read from, and the text
    path = tmp_path / "in.txt"
    if text is not None:
        path.write_text(text)
    assert run([a.format(path=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert f"error: {message.format(path=path)}\n" == captured.err
    assert captured.out == ""


_MEAN_OF = ["mean", "--matrix", "fejer", "--n", "1", "--input", "{path}"]
_WLP_OF = ["wlp", "--input", "{path}", "--point", "0,0"]
_ROWS_2D = "1,2,3,4\n" * 4


@pytest.mark.parametrize("argv, header, body, field", [
    (_MEAN_OF, "dims=3", "1\n2\n3\n4\n", "dims=3"),
    (_WLP_OF, "dim=2", _ROWS_2D, "dim=2"),
    (_WLP_OF, "dims=2 dims=2", _ROWS_2D, "dims=2"),
    (_MEAN_OF, "dims=1 size=4", "1\n2\n3\n4\n", "size=4"),
], ids=["dims-3", "dim-2", "dims-twice", "unknown-field"])
def test_grid_header_fields_refused(argv, header, body, field, tmp_path, capsys):
    # a grid header holds the resolution and at most one dims=1 or dims=2;
    # any other field is a config error naming line 1 and the field
    path = tmp_path / "in.csv"
    path.write_text(f"# resolution=2 {header}\n{body}")
    assert run([a.format(path=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: line 1: header field {field!r}: expected at most "
                            "one field, 'dims=1' or 'dims=2'\n")
    assert captured.out == ""


def test_grid_header_dims_1_accepted(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text("# resolution=2 dims=1\n1\n2\n3\n4\n")
    assert run([a.format(path=path) for a in _MEAN_OF]) == 0
    assert capsys.readouterr().out.count("\n") == 5


@pytest.mark.parametrize("argv, text", [
    (_MEAN_OF, "# resolution=1\n1.0\n\xff2.0\n"),
    (_MEAN_OF, "# resolution=\xff\n1.0\n2.0\n"),
    (_WLP_OF, "# resolution=1 dims=2\n1.0,2.0\n3.0,\xff\n"),
    (["upsilon", "--matrix", "cesaro-seq:{path}", "--seq", "list:1"], "0.5\n\n\xff\n"),
    (["upsilon", "--matrix", "custom:{path}", "--seq", "list:1"], "1\n0.5,\xff\n"),
], ids=["grid-1d", "grid-header", "grid-2d", "cesaro-seq", "custom"])
def test_undecodable_bytes_name_the_file(argv, text, tmp_path, capsys):
    # a byte that is not UTF-8 is a config error naming the file and byte
    path = tmp_path / "in.txt"
    path.write_bytes(text.encode("latin-1"))
    assert run([a.format(path=path) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: byte 0xff is not UTF-8 text\n"
    assert captured.out == ""


def test_undecodable_bytes_from_a_pipe(capsys):
    # the same message when the input cannot seek, as /dev/stdin from a pipe
    r, w = os.pipe()
    os.write(w, b"# resolution=1\n1.0\n\xff2.0\n")
    os.close(w)
    path = f"/dev/fd/{r}"
    try:
        assert run([a.format(path=path) for a in _MEAN_OF]) == 1
    finally:
        os.close(r)
    assert capsys.readouterr().err == f"error: {path}: byte 0xff is not UTF-8 text\n"


@pytest.mark.parametrize("argv, message", [
    (["mean", "--matrix", "fejer", "--n", "1", "--input", "{F}"],
     "expected a 1D grid, got a 2D grid"),
    (["wlp", "--input", "{f}", "--point", "0,0"], "expected a 2D grid, got a 1D grid"),
    (["tensor", "--matrix0", "fejer", "--matrix1", "fejer", "--n0", "1", "--n1", "1",
      "--input", "{f}"], "expected a 2D grid, got a 1D grid"),
], ids=["mean-2d", "wlp-1d", "tensor-1d"])
def test_grid_of_the_other_dimension_refused(argv, message, tmp_path, capsys):
    # each loader refuses a grid of the other dimension, naming both
    save_grid1d(GridFunction(GridSpec(2), np.ones(4)), str(tmp_path / "f.csv"))
    save_grid2d(GridFunction(GridSpec(2), np.ones((4, 4))), str(tmp_path / "F.csv"))
    argv = [a.format(f=tmp_path / "f.csv", F=tmp_path / "F.csv") for a in argv]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_guard_rails_and_errors(tmp_path, capsys):
    assert run(["kernel", "--matrix", "fejer", "--n", "4",
                "--resolution", "15"]) == 2
    assert run(["kernel", "--matrix", "nope", "--n", "4",
                "--resolution", "4"]) == 1
    assert run(["mean", "--matrix", "fejer", "--n", "2",
                "--input", str(tmp_path / "missing.csv")]) == 1
    capsys.readouterr()


def test_non_finite_input_rejected(tmp_path, capsys):
    src1 = tmp_path / "f.csv"
    src1.write_text("# resolution=2\n1.0\n\n2.0\nnan\n3.0\n")
    assert run(["mean", "--matrix", "fejer", "--n", "2", "--input", str(src1)]) == 1
    err = capsys.readouterr().err
    assert "line 5" in err and "nan" in err

    src2 = tmp_path / "F.csv"
    src2.write_text("# resolution=1 dims=2\n1.0,2.0\n3.0,nan\n")
    for cmd in (["tensor", "--matrix0", "fejer", "--matrix1", "fejer",
                 "--n0", "1", "--n1", "1"],
                ["wlp", "--point", "0,0"]):
        assert run(cmd + ["--input", str(src2)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err and "nan" in err


@pytest.mark.parametrize("argv, samples", [
    (["wlp", "--point", "1,1"],
     np.where(np.add.outer(np.arange(64), np.arange(64)) % 2, 1e308, -1e308)),
    (["mt2-experiment", "--matrix0", "fejer", "--matrix1", "fejer", "--seq0", "powers:2..4",
      "--seq1", "powers:2..4", "--point", "1,1"], np.full((64, 64), 1e308)),
], ids=["wlp-checkerboard-1e308", "mt2-constant-1e308"])
def test_non_finite_report_refused(argv, samples, tmp_path, capsys):
    # finite samples whose sums overflow: the report would hold NaN, so the
    # command exits 1 before it writes anything, naming the first NaN's key
    src, out = tmp_path / "G.csv", tmp_path / "out.json"
    save_grid2d(GridFunction(GridSpec(6), samples), str(src))
    where = "diagnostics[0].H0_sup" if argv[0] == "wlp" else "points[0].diag_errors[0]"
    for extra in ([], ["--out", str(out)]):
        assert run(argv + ["--input", str(src)] + extra) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: the report would hold a non-finite number (nan) at {where}\n"
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["tensor", "--matrix0", "fejer", "--matrix1", "fejer", "--n0", "3", "--n1", "5",
      "--input", "{H}"], "the grid would hold a non-finite sample (nan) at cell 0, 0"),
    (["mean", "--matrix", "fejer", "--n", "3", "--input", "{h}"],
     "the grid would hold a non-finite sample (nan) at cell 0"),
    (["mt2-experiment", "--matrix0", "fejer", "--matrix1", "fejer", "--seq0", "powers:2..4",
      "--seq1", "powers:2..4", "--point", "1,1", "--input", "{H}"],
     "the report would hold a non-finite number (nan) at points[0].diag_errors[0]"),
], ids=["tensor", "mean", "mt2-experiment"])
def test_overflow_exits_1_with_one_error_line(argv, message, tmp_path, capsys):
    # K = 6 grids of 1e308, whose sums overflow: a grid or report of NaN is
    # refused before any file is written, and stderr holds the error line
    # only (a floating-point warning would raise here)
    H, h, out = tmp_path / "H.csv", tmp_path / "h.csv", tmp_path / "out"
    save_grid2d(GridFunction(GridSpec(6), np.full((64, 64), 1e308)), str(H))
    save_grid1d(GridFunction(GridSpec(6), np.full(64, 1e308)), str(h))
    argv = [a.format(H=H, h=h) for a in argv] + ["--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_non_finite_matrix_rows_rejected(tmp_path, capsys):
    rows = tmp_path / "bad.csv"
    rows.write_text("1\n0.5,0.5\nnan,nan,nan\n")
    assert run(["upsilon", "--matrix", f"custom:{rows}", "--seq", "list:1,2"]) == 1
    captured = capsys.readouterr()
    assert "row 2 has a non-finite entry at k=0" in captured.err
    assert captured.out == ""


def test_work_guard_rail(capsys):
    # both requests are refused before any bank or transform is built
    assert run(["maximal", "--matrix", "fejer", "--seq", "all:1..16384",
                "--resolution", "14"]) == 2
    err = capsys.readouterr().err
    assert "predicted work of 122298732100 element-stages" in err
    assert "limit of 2147483648" in err
    assert run(["llogl-experiment", "--matrix0", "fejer", "--matrix1", "fejer",
                "--seq0", "all:1..256", "--seq1", "all:1..256",
                "--resolution", "8"]) == 2
    err = capsys.readouterr().err
    assert "predicted work of 585413961200 element-stages" in err
    assert "limit of 2147483648" in err
    # an index beyond the grid is a config error, not a guard rail
    assert run(["maximal", "--matrix", "fejer", "--seq", "list:3,40",
                "--resolution", "5"]) == 1
    capsys.readouterr()


def test_dyadic_maximal_work_guard_rail(capsys):
    # the dyadic maximal function reads (K + 1) 2^K cells a trial: at K = 14,
    # 8739 trials are the first count above the limit, refused at once
    t0 = time.perf_counter()
    code = run(["maximal", "--matrix", "fejer", "--seq", "powers:1..4", "--resolution", "14",
                "--operator", "dyadic_maximal", "--trials", "8739"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("guard rail: predicted work of 2147696640 element reads exceeds "
                            "the limit of 2147483648; lower --trials\n")
    assert captured.out == ""
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, work", [
    (["maximal", "--matrix", "fejer", "--seq", "list:1", "--resolution", "14",
      "--trials", "9363"], 2147647488),
    (["maximal", "--matrix", "nlog", "--seq", "powers:0..0", "--resolution", "14",
      "--trials", "9363", "--operator", "mean"], 2147647488),
    (["llogl-experiment", "--matrix0", "fejer", "--matrix1", "nlog", "--seq0", "list:1",
      "--seq1", "powers:0..0", "--resolution", "8", "--trials", "2049"], 2148532224),
], ids=["maximal-list", "maximal-powers", "llogl-experiment"])
def test_level_zero_work_guard_rail(argv, work, capsys):
    # the means of a level-0 index cost nothing, but each trial still
    # forward-transforms its grid: K 2^K element-stages in 1D (9363 trials
    # are the first count above the limit at K = 14) and 2K 4^K in 2D (2049
    # at K = 8); refused at once
    t0 = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"guard rail: predicted work of {work} element-stages exceeds the "
                            "limit of 2147483648; shorten the subsequence or lower --trials\n")
    assert captured.out == ""
    assert elapsed < 1.0


def test_commands_run_on_one_blas_thread(monkeypatch, capsys):
    # a command sees one OpenBLAS thread; after main the caller's count is
    # back, also when the command failed with exit code 1
    api = transform._openblas_threads()
    assert api is not None, "numpy's OpenBLAS was not found in the process"
    get, put = api
    seen = []
    real = cli.c2_quantity

    def spy(*args):
        seen.append(get())
        return real(*args)

    def failing(*args):
        seen.append(get())
        raise ValueError("refused")

    argv = ["c2-check", "--alpha", "0.5", "--seq", "powers:1..3"]
    before = get()
    put(2)
    try:
        monkeypatch.setattr(cli, "c2_quantity", spy)
        assert run(argv) == 0
        assert (seen, get()) == ([1], 2)
        monkeypatch.setattr(cli, "c2_quantity", failing)
        assert run(argv) == 1
        assert (seen, get()) == ([1, 1], 2)
    finally:
        put(before)
    assert capsys.readouterr().err == "error: refused\n"


def test_maximal_without_openblas(monkeypatch, capsys):
    # with no OpenBLAS found the command runs on the library's own thread
    # count, and its report is the same bytes
    argv = ["maximal", "--matrix", "fejer", "--seq", "powers:1..14", "--resolution", "14",
            "--trials", "3", "--seed", "2"]
    assert run(argv) == 0
    expect = capsys.readouterr().out
    monkeypatch.setattr(transform, "_openblas_threads", lambda: None)
    assert run(argv) == 0
    assert capsys.readouterr().out == expect


def test_openblas_lookup_waits_for_a_command():
    # importing the CLI finds no library; the first command does, once
    code = ("from walshmeans import cli, transform; "
            "assert transform._openblas_threads.cache_info().currsize == 0; "
            "cli.main(['c2-check', '--alpha', '0.5', '--seq', 'powers:1..2']); "
            "cli.main(['c2-check', '--alpha', '0.5', '--seq', 'powers:1..2']); "
            "info = transform._openblas_threads.cache_info(); "
            "assert (info.misses, info.hits) == (1, 1), info")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr


def test_cumulative_table_guard_rail(capsys):
    assert run(["upsilon", "--matrix", "nlog", "--seq", "list:1099511627776"]) == 2
    captured = capsys.readouterr()
    assert "index 1099511627776" in captured.err
    assert "2199023255552 entries (16384 GiB)" in captured.err
    assert captured.out == ""


_TERMS = "has 100000000 terms, above the limit of 1048576"


@pytest.mark.parametrize("argv, message", [
    (["upsilon", "--matrix", "fejer", "--seq", "all:1..100000000"], _TERMS),
    (["c2-check", "--alpha", "0.5", "--seq", "all:1..100000000"], _TERMS),
    (["maximal", "--matrix", "fejer", "--seq", "all:1..100000000",
      "--resolution", "14"], _TERMS),
    (["upsilon", "--matrix", "nlog", "--seq", "alternating:1..40"],
     "'alternating:1..40' has 81 bits in its largest index, above the limit of 63"),
    (["upsilon", "--matrix", "cesaro-seq:{alpha}", "--seq", "list:1099511627776"],
     "row 1099511627776 needs 1099511627777 entries, above the limit of 16777216"),
    (["upsilon", "--matrix", "cesaro-seq:{alpha}", "--seq", "all:1..6000"],
     "5792 rows up to 5792 need 16782320 entries, above the limit of 16777216"),
    (["mt2-experiment", "--matrix0", "fejer", "--matrix1", "nlog", "--seq0", "all:1..256",
      "--seq1", "all:1..256", "--resolution", "8"] + ["--point", "1,2"] * 17,
     "17 points x 256 x 256 index pairs need 1114112 report values, above the limit of 1048576"),
    (["wlp", "--input", "{grid}"] + ["--point", "1,2"] * 257,
     "257 points need 16842752 prefix-table cells at K=8, above the limit of 16777216"),
    # an index beyond the grid is a config error (exit 1), not a guard rail
    (["mt2-experiment", "--matrix0", "fejer", "--matrix1", "nlog", "--seq0", "list:1,257",
      "--seq1", "all:1..256", "--resolution", "8", "--point", "1,2"],
     "error: max index 257 exceeds 2^K = 256"),
    (["kernel", "--matrix", "fejer", "--n", "4", "--resolution", "15"],
     "resolution 15 exceeds the 1D guard rail of 14"),
    (["mean", "--matrix", "fejer", "--n", "4", "--input", "{grid15}"],
     "resolution 15 exceeds the 1D guard rail of 14"),
    # tensor's only limit is the file it reads, refused from its header: one
    # that claims K = 30, and a full 1024 x 1024 body under K = 10 (last row)
    (["tensor", "--matrix0", "fejer", "--matrix1", "fejer", "--n0", "1", "--n1", "1",
      "--input", "{huge}"],
     "resolution 30 exceeds the 2D guard rail of 8"),
    (["llogl-experiment", "--matrix0", "fejer", "--matrix1", "nlog", "--seq0", "powers:1..8",
      "--seq1", "powers:1..8", "--resolution", "8", "--trials", "1000000"],
     "predicted work of 4706296000000 element-stages exceeds the limit of 2147483648"),
    (["example1", "--nseq", "5,17,65,257,1048577"],
     "'5,17,65,257,1048577' has largest index 1048577, above the limit of 4096"),
    (["tensor", "--matrix0", "fejer", "--matrix1", "fejer", "--n0", "1", "--n1", "1",
      "--input", "{big}"],
     "resolution 10 exceeds the 2D guard rail of 8"),
    # the same body under K = 2 is refused at its first line
    (["tensor", "--matrix0", "fejer", "--matrix1", "fejer", "--n0", "1", "--n1", "1",
      "--input", "{wide}"],
     "error: line 2: 1024 values, but a row at resolution 2 has 4"),
    # a list term is checked from its text too, before it can wrap in int64
    (["upsilon", "--matrix", "fejer", "--seq", "list:9223372036854775808"],
     "'list:9223372036854775808' has 64 bits in its largest index, above the limit of 63"),
    # a subsequence holds at most 2^20 terms, the report-row limit
    (["upsilon", "--matrix", "fejer", "--seq", "all:1..1048577"],
     "'all:1..1048577' has 1048577 terms, above the limit of 1048576"),
])
def test_size_guards_before_allocation(argv, message, tmp_path, capsys):
    # each request is refused from its text, index or point count, or from
    # the resolution of the file it reads: exit 2 (1 for a config error)
    # within a second, with no more than a few MiB allocated
    alpha = tmp_path / "alpha.txt"
    alpha.write_text("0.5\n")
    grid, grid15 = tmp_path / "F.csv", tmp_path / "f15.csv"
    huge, big, wide = tmp_path / "huge.csv", tmp_path / "big.csv", tmp_path / "wide.csv"
    if "{grid}" in argv:
        save_grid2d(GridFunction(GridSpec(8), np.zeros((256, 256))), str(grid))
    if "{grid15}" in argv:
        save_grid1d(GridFunction(GridSpec(15), np.zeros(1 << 15)), str(grid15))
    body = (",".join(["0.0"] * 1024) + "\n") * 1024
    if "{big}" in argv:
        big.write_text("# resolution=10 dims=2\n" + body)
    if "{wide}" in argv:
        wide.write_text("# resolution=2 dims=2\n" + body)
    huge.write_text("# resolution=30 dims=2\n0.0\n")
    argv = [a.format(alpha=alpha, grid=grid, grid15=grid15, huge=huge, big=big, wide=wide)
            for a in argv]
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == (1 if message.startswith("error: ") else 2)
    assert message in captured.err
    assert captured.out == ""
    assert elapsed < 1.0
    assert peak < 16 << 20


def test_mt2_all_pairs_at_full_resolution(tmp_path):
    # 256 x 256 index pairs at three points, read from one 2D transform
    out = tmp_path / "mt2.json"
    t0 = time.perf_counter()
    code = run(["mt2-experiment", "--matrix0", "fejer", "--matrix1", "nlog",
                "--seq0", "all:1..256", "--seq1", "all:1..256", "--resolution", "8",
                "--point", "0,0", "--point", "64,64", "--point", "255,128",
                "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 1.0
    points = json.loads(out.read_text())["points"]
    assert [np.array(p["errors"]).shape for p in points] == [(256, 256)] * 3
    assert all(len(p["diag_errors"]) == 256 for p in points)


def _readme_commands() -> list[list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("walshmeans ")]


@pytest.mark.parametrize("argv", _readme_commands(),
                         ids=lambda argv: " ".join(argv[:3]))
def test_readme_cli_commands_run(argv, tmp_path, monkeypatch, capsys):
    # every command of the README's CLI block runs as written; example1 at
    # its default sequence reports the published bound and exits 3
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(2)
    save_grid1d(GridFunction(GridSpec(7), rng.normal(size=128)), "f.csv")
    save_grid2d(GridFunction(GridSpec(6), rng.normal(size=(64, 64))), "F.csv")
    assert run(argv) == (3 if argv[0] == "example1" else 0)
    capsys.readouterr()


def test_benchmark_tracer_installs(tmp_path, monkeypatch, capsys):
    # perfbench/spans.py wraps about 40 names of the package, methods through
    # the class __dict__, so deleting or renaming one breaks every traced
    # benchmark run: install it, and the README commands must give the same
    # exit codes, output and files as untraced, with every layer timed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from spans import Tracer

    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(2)
    save_grid1d(GridFunction(GridSpec(7), rng.normal(size=128)), "f.csv")
    save_grid2d(GridFunction(GridSpec(6), rng.normal(size=(64, 64))), "F.csv")
    inputs = {"f.csv", "F.csv"}

    def outputs():
        for path in tmp_path.iterdir():
            if path.name not in inputs:
                path.unlink()
        codes = [run(argv) for argv in _readme_commands()]
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name not in inputs}
        # no CLI command calls tensor_maximal, so call it for its span
        sup = tensor.tensor_maximal(builtin_matrix("fejer"), subsequence_from_spec("powers:0..6"),
                                    builtin_matrix("nlog"), subsequence_from_spec("all:1..8"),
                                    load_grid2d("F.csv"))
        return codes, capsys.readouterr(), files, sup.samples.tobytes()

    untraced = outputs()
    tracer = Tracer()
    tracer.install()
    try:
        traced = outputs()
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert {"transform.short", "csv.load", "csv.save", "summability.weights",
            "summability.upsilon", "summability.decomposition", "summability.mean",
            "maximal.bank", "maximal.experiment", "maximal.quasinorm", "maximal.llogl",
            "tensor.maximal", "tensor.mean", "tensor.experiment", "lebesgue.classify",
            "lebesgue.mt2", "exact.divergence", "exact.avg_sweep",
            "exact.integral_over", "dyadic"} <= set(tracer.spans)


def test_benchmark_selftest_passes():
    # perfbench/selftest.py checks every op at one seed against its recorded
    # references, and that the tracer sees every layer
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ragged_grid2d_rejected(tmp_path, capsys):
    src = tmp_path / "F.csv"
    src.write_text("# resolution=1 dims=2\n1.0,2.0\n3.0,4.0,5.0\n")
    assert run(["wlp", "--input", str(src), "--point", "0,0"]) == 1
    err = capsys.readouterr().err
    assert "line 3: 3 values, but a row at resolution 1 has 2" in err


def test_grid_refused_past_header_shape(tmp_path, capsys):
    # a 1D body is refused at its first line past 2^K values, blank lines
    # not counted, and a header K below 1 is named
    src = tmp_path / "f.csv"
    src.write_text("# resolution=1\n1.0\n\n2.0\n3.0\n4.0\n")
    assert run(["mean", "--matrix", "fejer", "--n", "1", "--input", str(src)]) == 1
    assert "error: line 5: past the 2 rows of resolution 1" in capsys.readouterr().err
    src.write_text("# resolution=0\n1.0\n")
    assert run(["mean", "--matrix", "fejer", "--n", "1", "--input", str(src)]) == 1
    assert "error: grid resolution must be >= 1, got 0" in capsys.readouterr().err


def test_empty_cesaro_seq_rejected(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    assert run(["upsilon", "--matrix", f"cesaro-seq:{empty}", "--seq", "list:1"]) == 1
    captured = capsys.readouterr()
    assert f"error: {empty}: no exponents" in captured.err
    assert captured.out == ""


def test_mt2_default_depths_need_resolution_2(capsys):
    # classify_wlp's default depths 2..min(K, 7) are empty at K = 1
    assert run(["mt2-experiment", "--matrix0", "fejer", "--matrix1", "fejer",
                "--seq0", "list:1", "--seq1", "list:1", "--resolution", "1",
                "--point", "0,0"]) == 1
    captured = capsys.readouterr()
    assert "error: resolution K = 1 leaves the default depths 2..min(K, 7) empty" in captured.err
    assert captured.out == ""


def test_readme_tour_runs():
    # the README's library tour runs as written, at K = 7 for speed, so a
    # name it uses cannot leave the package unseen
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = text.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert tour.count("K = 10\n") == 1
    exec(tour.replace("K = 10\n", "K = 7\n"), {})
