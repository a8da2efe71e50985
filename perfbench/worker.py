"""One workload process: set-up, timed units, checks, result as JSON.

``python3 -m perfbench.worker --workload W --seed N --seconds S --trace T
[--setup-only]``, started by perfbench/run.py with BLAS threads set to 1
and ``src`` on the path.  The last line of standard output is a JSON
object: set-up time only with --setup-only, else unit times, operation
counts, failed checks, peak RSS and host-probe times, plus the per-layer
metrics when traced.
"""

from time import perf_counter

START = perf_counter()   # set-up time counts from here, so the imports below are in it

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

from perfbench import workloads
from perfbench.tracing import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy kernel that does not touch natmap."""
    rng = np.random.default_rng(12345)
    a = rng.standard_normal(200_000)
    m = rng.standard_normal((2000, 4, 4))
    m = m + m.transpose(0, 2, 1)
    times = []
    for _ in range(repeats):
        t = perf_counter()
        np.exp(a).sum()
        np.sort(a)
        np.linalg.eigvalsh(m)
        times.append(perf_counter() - t)
    return 1e3 * statistics.median(times)


def run_units(w, seconds: float, min_units: int, tracer: Tracer | None):
    """Run whole rounds of units until ``seconds`` of unit time have passed.

    With a tracer, odd units run traced and even units untraced.
    Returns (unit times, traced flags, failed operations, problems).
    """
    times, traced, failed, problems = [], [], 0, []
    i = 0
    while True:
        inp = w.make_input(i)
        on = tracer is not None and i % 2 == 1
        if on:
            tracer.unit = i
            tracer.install()
        t = perf_counter()
        try:
            out = w.run(inp)
        finally:
            dt = perf_counter() - t
            if on:
                tracer.uninstall()
        times.append(dt)
        traced.append(on)
        failed += w.failed(inp, out)
        problems += w.check(inp, out)
        i += 1
        if i % w.round_units == 0 and i >= min_units and sum(times) >= seconds:
            return times, traced, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    scratch = OUT_DIR / f"tmp-{args.workload}-{args.seed}"
    if tracer:
        tracer.install()
    w = workloads.make_workload(args.workload, args.seed, scratch)
    setup_s = perf_counter() - START
    if tracer:
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probe_before = host_probe_ms()
    # a traced run alternates untraced and traced units, so it needs twice
    # the units whose counts it reports
    min_units = 2 * w.count_units if tracer else 1
    try:
        times, traced, failed, problems = run_units(w, args.seconds, min_units, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_after = host_probe_ms()
    result = {
        "setup_s": setup_s, "unit_s": times, "attempted": len(times) * w.ops_per_unit,
        "failed": failed, "problems": problems, "peak_rss_mb": peak_rss_mb,
        "host_probe_ms": [probe_before, probe_after],
    }
    if tracer:
        traced_ids = [i for i, on in enumerate(traced) if on]
        layer = tracer.metrics(set(traced_ids[:w.count_units]))
        on_s = sum(t for t, on in zip(times, traced) if on)
        off_s = sum(t for t, on in zip(times, traced) if not on)
        n_on = len(traced_ids)
        n_off = len(times) - n_on
        layer["trace.overhead_pct"] = 100.0 * (1.0 - (n_on / on_s) / (n_off / off_s))
        result["per_layer"] = layer
        result["spans"] = len(tracer.names)
        tracer.write(OUT_DIR / f"{args.workload}.spans.csv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
