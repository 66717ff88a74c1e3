"""The closed-loop client: runs one job stream in process through ``apmod.cli.main``.

``bench/run.py`` starts this script in a fresh interpreter for every run, so
every cache in ``apmod`` starts cold, as it does for each CLI user.  It runs
the rounds of the job file one job after another, each job writing its CSV
with ``--out``, and stops at the end of the first round that finishes after
``--seconds`` once at least ``MIN_JOBS`` jobs have run (or after exactly
``--rounds`` rounds).  It times each job from the call into ``cli.main``
until it returns, and writes exit codes, latencies, the loop's wall time and
``ru_maxrss`` to ``--result``.  Output checks happen in ``run.py`` after the
process has ended, so they cost the loop nothing.

With ``--trace`` it first wraps the layer functions (``bench/tracer.py``),
and afterwards measures the per-span wrapper cost and writes the spans next
to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter_ns

# job_p90_ms needs at least 10 samples beyond the 90th percentile
MIN_JOBS = 100


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding the apmod package")
    ap.add_argument("--jobs", required=True, help="JSON file: list of rounds of argv lists")
    ap.add_argument("--out-dir", required=True, help="directory for the jobs' CSV files")
    ap.add_argument("--result", required=True, help="JSON result file to write")
    ap.add_argument("--seconds", type=float, default=None, help="measure at least this long")
    ap.add_argument("--rounds", type=int, default=None, help="run exactly this many rounds")
    ap.add_argument("--trace", action="store_true", help="record spans around layer calls")
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import numpy

    import apmod.cli

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    with open(args.jobs) as fh:
        rounds = json.load(fh)
    if args.rounds is not None:
        rounds = rounds[: args.rounds]

    codes, latency_ns, errors = [], [], []
    deadline = None if args.seconds is None else args.seconds * 1e9
    rounds_done = 0
    t_start = perf_counter_ns()
    for batch in rounds:
        for argv in batch:
            path = os.path.join(args.out_dir, f"{len(codes):05d}.csv")
            t0 = perf_counter_ns()
            try:
                code = apmod.cli.main(argv + ["--out", path])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                code = None
                errors.append({"job": len(codes), "traceback": traceback.format_exc()})
            latency_ns.append(perf_counter_ns() - t0)
            codes.append(code)
        rounds_done += 1
        if (
            deadline is not None
            and perf_counter_ns() - t_start >= deadline
            and len(codes) >= MIN_JOBS
        ):
            break
    wall_ns = perf_counter_ns() - t_start
    if deadline is not None and rounds_done == len(rounds):
        print("bench client: job file ran out before the deadline", file=sys.stderr)
        return 3

    result = {
        "rounds": rounds_done,
        "codes": codes,
        "latency_ns": latency_ns,
        "errors": errors,
        "wall_ns": wall_ns,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "apmod_file": apmod.cli.__file__,
    }
    if tracer is not None:
        result["span_cost_ns"] = tracer.span_cost_ns()
        spans_path = os.path.splitext(args.result)[0] + ".spans.npz"
        arrays = {k: numpy.frombuffer(v, dtype=v.typecode) for k, v in tracer.arrays().items()}
        numpy.savez_compressed(spans_path, **arrays)
        result["span_names"] = tracer.names
        result["spans"] = spans_path
        result["caches"] = tracer.cache_stats()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
