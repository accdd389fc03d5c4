"""Prove that the benchmark's output gate is live.

    python3 perfbench/selftest.py

Checks, on input seed 1:
  1. a perturbed reference value (a float, and separately a verdict
     string) makes the op count as failed;
  2. a wrong expected exit code makes the op count as failed;
  3. with the tracer installed every op writes exactly the bytes it writes
     without it, and the tracer saw every layer;
  4. BENCHMARK.json lists the per-layer metrics the tracer reports.
Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

import workloads
from spans import METRICS, Tracer
from worker import ROOT, import_cli, load_refs, run_pass, scratch_dir

SEED = 1


def failures_of(cli, ops, workdir, refs, **kw) -> list[str]:
    failures: list[str] = []
    run_pass(cli, ops, workdir, refs, failures, **kw)
    return failures


def main() -> int:
    cli = import_cli()
    results = []

    def check(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))

    with scratch_dir(f"selftest-{os.getpid()}") as workdir:
        lists, refs = {}, {}
        for w in ("tensor2d", "sweep", "weak1d"):
            workloads.build_inputs(w, SEED, workdir)
            lists[w] = {op.name: op for op in workloads.ops(w, SEED, workdir)}
            refs.update(load_refs(w, SEED))
        tensor_op = lists["tensor2d"]["tensor-fejer-nlog"]
        wlp_op = lists["tensor2d"]["wlp"]

        base = failures_of(cli, [tensor_op, wlp_op], workdir, refs)
        check("unperturbed references pass", base == [], "; ".join(base))

        bent = copy.deepcopy(refs)
        bent[tensor_op.name]["tensor.csv"]["floats"]["values"]["samples"][5] *= 1 + 1e-6
        got = failures_of(cli, [tensor_op], workdir, bent)
        check("perturbed float reference fails the op", len(got) == 1, "; ".join(got))

        bent = copy.deepcopy(refs)
        exact = bent[wlp_op.name]["stdout"]["exact"]
        verdict = next(pair for pair in exact if pair[0].endswith(".verdict"))
        verdict[1] = "passes" if verdict[1] != "passes" else "fails wl1"
        got = failures_of(cli, [wlp_op], workdir, bent)
        check("perturbed verdict reference fails the op", len(got) == 1, "; ".join(got))

        example1 = lists["sweep"]["example1"]
        got = failures_of(cli, [example1], workdir, refs)
        check("example1 passes with its expected exit code 3", got == [], "; ".join(got))
        wrong = dataclasses.replace(example1, expect_rc=0)
        got = failures_of(cli, [wrong], workdir, refs)
        check("wrong expected exit code fails the op", len(got) == 1, "; ".join(got))

        ops = (list(lists["sweep"].values()) + list(lists["tensor2d"].values())
               + [lists["weak1d"]["maximal-fejer-abs"],
                  lists["weak1d"]["maximal-fejer-dyadic"]])
        failures: list[str] = []
        texts = run_pass(cli, ops, workdir, refs, failures)[2]
        tracer = Tracer()
        tracer.install()
        try:
            run_pass(cli, ops, workdir, refs, failures, tracer, texts)
        finally:
            tracer.uninstall()
        check("traced outputs equal untraced outputs byte for byte", failures == [],
              "; ".join(failures))
        layers = {name.split(".")[0] for name in tracer.spans}
        missing = {"cli", "csv", "transform", "summability", "maximal", "tensor",
                   "lebesgue", "exact", "dyadic"} - layers
        check("the tracer saw every layer", not missing, f"missing {sorted(missing)}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [(m["name"], m["unit"], m["better"]) for m in json.load(fh)["per_layer"]]
    check("BENCHMARK.json per_layer matches the tracer's metrics",
          listed == list(METRICS))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
