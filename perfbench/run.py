"""Run one walshmeans benchmark workload and print its metrics.

    python3 perfbench/run.py --workload weak1d --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it imports walshmeans from `src/`.
With `--trace 0` it starts SETUP_SAMPLES set-up-only processes and then
one measuring process, and reports the end-to-end metrics: `setup_s` (the
median over all of them), `wall_s` and `cpu_s` (one pass of the op list,
see `per_op_median`) and `peak_rss_mb` of the measuring process.  With
`--trace 1` the measuring process alternates untraced and traced passes
and the per-layer metrics are reported instead.  Every op's exit code and
outputs are checked against `refs/`; the last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from spans import METRICS
from workloads import WHY

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 9        # plus the measuring process: 10 set-up samples
DEADLINE_S = 170         # the whole run, set-up processes included

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))


class RunError(RuntimeError):
    pass


def spawn(deadline: float, *args: str) -> dict:
    """Run worker.py to completion and return the JSON of its last line."""
    env = dict(os.environ)
    env.pop("WALSHMEANS_THREADS", None)     # the program's default: one worker
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawned-at", repr(time.perf_counter())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish within {exc.timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "walshmeans", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def per_op_median(passes: list, column: int) -> float:
    """Time of one pass of the op list: the sum over the ops of each op's
    median over the passes, which keeps a noisy pass from moving it."""
    return sum(statistics.median(times[i][column] for times in passes)
               for i in range(len(passes[0])))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WHY))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "walshmeans", "cli.py")):
        sys.stderr.write(f"perfbench: no walshmeans sources under {ROOT}/src; "
                         "run from the root of a walshmeans checkout\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ("--workload", args.workload, "--seed", str(args.seed))
    try:
        setups = [] if args.trace else [
            spawn(deadline, *common, "--setup-only")["setup_s"]
            for _ in range(SETUP_SAMPLES)]
        res = spawn(deadline, *common, "--seconds", str(args.seconds),
                    "--trace", str(args.trace))
    except (RunError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    env = dict(res["env"], commit=git_commit(), src_sha256=source_digest(),
               workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("environment: " + json.dumps(env, sort_keys=True))
    for line in res["errors"]:
        print(f"FAILED {line}")
    passes = res["passes"]          # [wall s, cpu s] of each op, per pass
    walls = [sum(t[0] for t in times) for times in passes]
    attempted, failed = res["attempted"], res["failed"]
    print(f"{args.workload}: {len(walls)} untraced passes, {attempted} ops, "
          f"{failed} failed; fail_frac = {failed / attempted:.4g} ratio")
    if args.trace:
        units = {name: unit for name, unit, _ in METRICS}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in res["layers"].items()}
        for m in metrics.values():      # counts repeat exactly from pass to pass
            if m["unit"] in ("count", "bytes") and float(m["value"]).is_integer():
                m["value"] = int(m["value"])
        print(f"per-layer metrics: median of {res['traced_passes']} traced passes")
    else:
        setups.append(res["setup_s"])
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": per_op_median(passes, 0),
            "cpu_s": per_op_median(passes, 1),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"pass wall times: {min(walls):.4f} .. {max(walls):.4f} s; "
              f"setup_s over {len(setups)} processes: {min(setups):.4f} .. "
              f"{max(setups):.4f} s")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
