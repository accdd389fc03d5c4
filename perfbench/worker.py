"""One workload run in one fresh Python process (started by run.py).

The process imports walshmeans from the checkout's `src/`, writes the
workload's seeded inputs and reports `setup_s`, the time from its spawn
until the first op is ready.  Unless `--setup-only` is given it then runs
the op list in a closed loop (each op starts when the previous one has
ended) for `--seconds`, checks every op, and prints one JSON
line with the per-pass times, the op counts and, with `--trace 1`, the
per-layer metrics of its traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads
from check import compare, fingerprint

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh directory `.perfbench_run/<name>` in the checkout, removed on
    exit together with `.perfbench_run` once that is empty."""
    base = os.path.join(ROOT, ".perfbench_run")
    path = os.path.join(base, name)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):     # another run still uses it
            os.rmdir(base)


def import_cli():
    """walshmeans.cli from the checkout; SystemExit(2) when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "walshmeans", "cli.py")):
        sys.stderr.write(f"perfbench: no walshmeans sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    from walshmeans import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported {cli.__file__}, not the checkout\n")
        raise SystemExit(2)
    return cli


def run_op(cli, op, workdir: str) -> tuple[object, float, float, dict]:
    """Run one op; returns (exit code or error text, wall s, cpu s, outputs)."""
    for name in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = f"SystemExit({exc.code!r})"
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    outputs = {"stdout": out.getvalue()}
    for name in op.outputs:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path) as fh:
                outputs[name] = fh.read()
    return rc, wall, cpu, outputs


def check_op(op, rc, outputs: dict, ref: dict | None) -> list[str]:
    """Reasons the op failed: wrong exit code or output unlike the reference."""
    if rc != op.expect_rc:
        return [f"exit {rc!r}, expected {op.expect_rc}"]
    if ref is None:
        return ["no reference recorded"]
    errors = []
    for name, fp in ref.items():
        if name not in outputs:
            errors.append(f"{name}: not written")
            continue
        try:
            got = fingerprint(outputs[name])
        except ValueError as exc:     # unparsable JSON or CSV
            errors.append(f"{name}: {exc}")
            continue
        errors += [f"{name}: {e}" for e in compare(got, fp)]
    return errors


def load_refs(workload: str, seed: int) -> dict:
    """op name -> output name -> fingerprint, for one input seed."""
    with open(os.path.join(HERE, "refs", f"{workload}.json")) as fh:
        recorded = json.load(fh)["ops"]
    key = str(seed)
    return {name: (entry.get("*") or entry.get(key)) for name, entry in recorded.items()}


def run_pass(cli, ops, workdir, refs, failures, tracer=None, untraced=None):
    """Run the op list once; each failed op appends one line to `failures`.

    A traced pass also requires every output to equal, byte for byte, the
    outputs `untraced` of the untraced pass before it.
    Returns ([wall s, cpu s] per op, seconds per subcommand, outputs per op).
    """
    times, kinds, texts = [], {}, []
    for i, op in enumerate(ops):
        if tracer is None:
            rc, wall, cpu, outputs = run_op(cli, op, workdir)
        else:
            rc, wall, cpu, outputs = tracer.root(f"cli.{op.kind}", run_op, cli, op,
                                                 workdir)
        times.append([wall, cpu])
        kinds[op.kind] = kinds.get(op.kind, 0.0) + wall
        reasons = check_op(op, rc, outputs, refs.get(op.name))
        if untraced is not None and outputs != untraced[i]:
            reasons.append("traced output differs from untraced")
        if reasons:
            failures.append(f"{op.name}: " + "; ".join(reasons))
        texts.append(outputs)
    return times, kinds, texts


def blas_info() -> dict:
    """The BLAS library numpy loaded and its thread count, read through
    the library's own query function."""
    import ctypes

    import numpy as np

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.lower() and ".so" in line})
    info = {"library": libs[0] if libs else "unknown", "threads": None}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{cfg.get('name')} {cfg.get('version')}"
    except (KeyError, TypeError):
        info["name"] = "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            query = getattr(lib, sym, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                info["threads"] = query()
                return info
    return info


def environment(seed: int, in_seed: int) -> dict:
    import platform

    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "WALSHMEANS_THREADS": os.environ.get("WALSHMEANS_THREADS", "unset"),
        "seed": seed,
        "input_seed": in_seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.perf_counter() of the parent just before the spawn")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    cli = import_cli()
    seed = workloads.input_seed(args.seed)
    with scratch_dir(str(os.getpid())) as workdir:
        workloads.build_inputs(args.workload, seed, workdir)
        ops = workloads.ops(args.workload, seed, workdir)
        setup_s = time.perf_counter() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(cli, args, ops, workdir, load_refs(args.workload, seed))
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment(args.seed, seed)
    print(json.dumps(result))
    return 0


def measure(cli, args, ops, workdir, refs) -> dict:
    """Closed-loop passes over the op list for `args.seconds`: a new pass
    starts only if, taking as long as the last one, it ends in time.

    With tracing on, every untraced pass is followed by a traced one.
    """
    failures: list[str] = []
    passes, layers = [], []
    tracer_cls = None
    if args.trace:
        from spans import Tracer as tracer_cls
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= args.seconds:
        begin = time.perf_counter()
        times, kinds, texts = run_pass(cli, ops, workdir, refs, failures)
        passes.append(times)
        if tracer_cls is not None:
            tracer = tracer_cls()
            tracer.install()
            try:
                traced = run_pass(cli, ops, workdir, refs, failures, tracer, texts)[0]
            finally:
                tracer.uninstall()
            layers.append(tracer.metrics(kinds, sum(t[0] for t in times),
                                         sum(t[0] for t in traced)))
        last = time.perf_counter() - begin
    result = {"passes": passes, "attempted": len(ops) * (len(passes) + len(layers)),
              "failed": len(failures), "errors": failures[:10]}
    if layers:
        result["layers"] = {name: statistics.median(v[name] for v in layers)
                            for name in layers[0]}
        result["traced_passes"] = len(layers)
    return result


if __name__ == "__main__":
    sys.exit(main())
