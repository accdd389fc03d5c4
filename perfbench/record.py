"""Record the reference fingerprints the benchmark checks every op against.

    python3 perfbench/record.py weak1d tensor2d sweep

Runs each workload's op list once per input seed 0..POOL-1 (ops whose
output does not depend on the seed run once) and writes
`perfbench/refs/<workload>.json`.  Run it only on a commit whose outputs
are trusted: the references define "correct" for every later commit.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

import workloads
from check import RTOL, fingerprint
from run import git_commit
from worker import HERE, import_cli, run_op, scratch_dir


def record(cli, workload: str) -> dict:
    refs = {"meta": {"commit": git_commit(), "python": platform.python_version(),
                     "numpy": np.__version__, "rtol": RTOL, "pool": workloads.POOL},
            "ops": {}}
    with scratch_dir(f"record-{os.getpid()}") as workdir:
        for seed in range(workloads.POOL):
            workloads.build_inputs(workload, seed, workdir)
            for op in workloads.ops(workload, seed, workdir):
                if not op.seeded and seed > 0:
                    continue
                rc, _, _, outputs = run_op(cli, op, workdir)
                if rc != op.expect_rc:
                    raise SystemExit(f"{workload}/{op.name} seed {seed}: exit {rc!r}, "
                                     f"expected {op.expect_rc}")
                key = str(seed) if op.seeded else "*"
                refs["ops"].setdefault(op.name, {})[key] = {
                    name: fingerprint(text) for name, text in outputs.items()}
    return refs


def main(names) -> int:
    cli = import_cli()
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    for workload in names:
        refs = record(cli, workload)
        path = os.path.join(HERE, "refs", f"{workload}.json")
        with open(path, "w") as fh:
            json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
