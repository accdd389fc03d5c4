"""The three benchmark workloads: fixed lists of `walshmeans` CLI invocations.

Each op is one CLI call run in process through `walshmeans.cli.main(argv)`.
Its inputs come from the input seed only: the seeded grid CSVs written by
`build_inputs` and the `--seed`/`--point` arguments below.  Row lengths and
batch shapes are those of the paper's experiments; they decide which
transform shape (long rows, a 512-row bank, many short rows) a workload
stresses, so keep them when scaling trial counts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# References are recorded for input seeds 0..POOL-1; a benchmark seed s runs
# on input seed s mod POOL, so every run is checked against a reference.
POOL = 32

WHY = {
    "weak1d": "long rows (N = 2^13-2^14) in banks up to 512 x 8192: the shape "
              "streaming maximal operators act on; the bank sets peak RSS",
    "tensor2d": "many short rows (N = 128-256) where a dense transform backend "
                "acts; the only workload with tensor, lebesgue and 2D CSV I/O",
    "sweep": "scalar Python paths (row build and cache, upsilon/tau, exact "
             "rationals) with almost no transform work",
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation, its expected exit code and the files it writes.

    `seeded` marks ops whose output depends on the input seed; the others
    have one reference for every seed.
    """

    name: str
    argv: tuple[str, ...]
    expect_rc: int = 0
    outputs: tuple[str, ...] = ()
    seeded: bool = True

    @property
    def kind(self) -> str:
        """The subcommand."""
        return self.argv[0]


def input_seed(seed: int) -> int:
    return seed % POOL


def _points(seed: int, count: int, size: int) -> list[str]:
    rng = np.random.default_rng([seed, 7])
    return [f"{i},{j}" for i, j in rng.integers(0, size, size=(count, 2))]


def _write_grid1d(path: str, values: np.ndarray, K: int) -> None:
    with open(path, "w") as fh:
        fh.write(f"# resolution={K}\n")
        fh.write("".join(repr(float(v)) + "\n" for v in values))


def _write_grid2d(path: str, values: np.ndarray, K: int) -> None:
    with open(path, "w") as fh:
        fh.write(f"# resolution={K} dims=2\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def build_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write the workload's seeded input CSVs into `workdir`."""
    rng = np.random.default_rng([seed, 1])
    if workload == "tensor2d":
        grid = rng.random((256, 256))
        for i, j in rng.integers(0, 256, size=(6, 2)):
            grid[i, j] += 256.0 * rng.random()
        _write_grid2d(os.path.join(workdir, "grid2d.csv"), grid, 8)
    elif workload == "sweep":
        _write_grid1d(os.path.join(workdir, "grid1d.csv"),
                      rng.standard_normal(1 << 14), 14)


def ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """The op list of one workload for one input seed."""
    def path(name):
        return os.path.join(workdir, name)

    s = str(seed)
    if workload == "weak1d":
        powers = ("--seq", "powers:1..14", "--resolution", "14", "--trials", "50",
                  "--seed", s)
        return [
            Op("maximal-nlog-all512",
               ("maximal", "--matrix", "nlog", "--seq", "all:1..512",
                "--resolution", "13", "--trials", "5", "--seed", s)),
            Op("maximal-fejer-abs", ("maximal", "--matrix", "fejer") + powers),
            Op("maximal-cesaro-mean",
               ("maximal", "--matrix", "cesaro:0.5") + powers + ("--operator", "mean")),
            Op("maximal-fejer-dyadic",
               ("maximal", "--matrix", "fejer") + powers
               + ("--operator", "dyadic_maximal")),
        ]
    if workload == "tensor2d":
        grid = path("grid2d.csv")
        return [
            Op("llogl-fejer-nlog",
               ("llogl-experiment", "--matrix0", "fejer", "--matrix1", "nlog",
                "--seq0", "powers:1..8", "--seq1", "powers:1..8",
                "--resolution", "8", "--trials", "8", "--seed", s)),
            Op("llogl-cesaro-fejer",
               ("llogl-experiment", "--matrix0", "cesaro:0.5", "--matrix1", "fejer",
                "--seq0", "all:1..16", "--seq1", "powers:2..6",
                "--resolution", "7", "--trials", "8", "--seed", s)),
            Op("tensor-fejer-nlog",
               ("tensor", "--matrix0", "fejer", "--matrix1", "nlog", "--n0", "100",
                "--n1", "37", "--input", grid, "--out", path("tensor.csv")),
               outputs=("tensor.csv",)),
            Op("mt2-fejer-nlog",
               ("mt2-experiment", "--matrix0", "fejer", "--matrix1", "nlog",
                "--seq0", "powers:2..8", "--seq1", "powers:2..8", "--resolution", "8")
               + sum((("--point", p) for p in _points(seed, 3, 256)), ())),
            Op("wlp",
               ("wlp", "--input", grid, "--depths", "2..8")
               + sum((("--point", p) for p in _points(seed + POOL, 3, 256)), ())),
        ]
    if workload == "sweep":
        return [
            Op("upsilon-cesaro", ("upsilon", "--matrix", "cesaro:0.5", "--seq",
                                  "all:1..8192"), seeded=False),
            Op("upsilon-nlog", ("upsilon", "--matrix", "nlog", "--seq", "all:1..8192"),
               seeded=False),
            Op("c2-check", ("c2-check", "--alpha", "0.5", "--seq", "all:1..8192"),
               seeded=False),
            # every row of (5,17,65,257) misses the published lower bound, which
            # is twice the provable one, so the command's verdict is exit 3
            Op("example1", ("example1", "--nseq", "5,17,65,257"), expect_rc=3,
               seeded=False),
            Op("kernel-decompose",
               ("kernel", "--matrix", "nlog", "--n", "3001", "--resolution", "12",
                "--decompose", "--out", path("kernel.csv")),
               outputs=("kernel.csv", "kernel.part1.csv", "kernel.part2.csv"),
               seeded=False),
            Op("mean-cesaro",
               ("mean", "--matrix", "cesaro:0.5", "--n", "1000",
                "--input", path("grid1d.csv"), "--out", path("mean.csv")),
               outputs=("mean.csv",)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
