"""Run one natmap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository; natmap is imported from ``src``.
Each workload process is started fresh, single-threaded (BLAS threads set
to 1).  With --trace 0 the benchmark first times the set-up alone in
``SETUP_REPEATS`` fresh processes, then runs the workload process, and
reports the end-to-end metrics.  With --trace 1 one traced workload
process reports the per-layer metrics.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rigidity-path", "exact-natural-map", "atomic-barycenter", "psi-volume")
SETUP_REPEATS = 2          # set-up-only processes before the workload process
DEADLINE_S = 170.0         # the whole run ends well within 180 s
PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def _child(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
                "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])})
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(deadline - perf_counter(), 1.0), text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def _tail(times_ms: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times_ms)
    if n < 40:
        return f"fewer than 40 units ({n}): median only"
    cuts = statistics.quantiles(times_ms, n=1000, method="inclusive")
    p = next(p for p in PERCENTILES if n * (100.0 - p) / 100.0 >= 10)
    return f"p{p:g} = {cuts[int(round(p * 10)) - 1]:.6g} ms"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "natmap" / "__init__.py").is_file():
        print(f"natmap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    try:
        setups = ([] if args.trace else
                  [_child(args, ["--setup-only"], deadline)["setup_s"]
                   for _ in range(SETUP_REPEATS)])
        res = _child(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    times_ms = [1e3 * t for t in res["unit_s"]]
    for msg in res["problems"][:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    before, after = res["host_probe_ms"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(times_ms)} units, {res['attempted']} operations attempted, "
          f"{res['failed']} failed, {len(res['problems'])} failed checks")
    print(f"unit time: median {statistics.median(times_ms):.6g} ms, {_tail(times_ms)}")
    print(f"host probe (numpy kernel, not natmap): {before:.4g} ms before, "
          f"{after:.4g} ms after the units")
    if args.trace:
        print(f"spans recorded: {res['spans']}, written to "
              f"perfbench/out/{args.workload}.spans.csv.gz")
        metrics = {name: {"value": value, "unit": _unit(name)}
                   for name, value in res["per_layer"].items()}
    else:
        setups.append(res["setup_s"])
        metrics = {
            "units_per_s": {"value": len(times_ms) / sum(res["unit_s"]), "unit": "1/s"},
            "unit_ms_p50": {"value": statistics.median(times_ms), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    return "ms" if name.endswith("ms") else "count"


if __name__ == "__main__":
    sys.exit(main())
