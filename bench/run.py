"""apmod benchmark: closed-loop streams of CLI jobs, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sieve-identities --seed 1 --seconds 30 --trace 0

One client process runs a seeded stream of ``apmod`` CLI jobs one after
another, in process, through ``apmod.cli.main`` (``bench/client.py``), in a
fresh interpreter on the checkout's ``src`` with every cache cold, and
stops at the end of the first whole round after ``--seconds``.  The
workloads and the reason for each are in ``bench/workloads.py``.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:

  setup_s      median, over 21 fresh interpreters started before the job
               stream, of the time from spawning the interpreter until
               ``apmod.cli`` is imported
  jobs_per_s   jobs completed per second of wall time in the closed loop
  job_p50_ms   median job latency, call into ``cli.main`` to its return
               with the CSV written
  job_p90_ms   90th-percentile job latency (a run has at least 100 jobs)
  peak_rss_mb  ``ru_maxrss`` of the client process
  failed_frac  failed jobs / attempted jobs; printed in the table and
               carried by ``attempted``/``failed`` in the result line

``--trace 1`` runs the stream untraced, then the same jobs again in a new
interpreter with spans around every public layer function
(``bench/tracer.py``), and reports the per-layer metrics in ``PER_LAYER``,
among them ``trace.overhead_s``: the traced run's span count times the
per-span wrapper cost measured inside the traced process, an estimate of
what tracing added to its wall time.  Its CSV bodies must equal the
untraced ones.  The spans go to
``bench/out/<workload>.spans.npz``.

A job fails when its exit code is not 0, an exception escapes ``cli.main``,
a verdict cell reads anything but ``pass``, ``exact`` or ``True``, or its
CSV body (``#`` lines dropped) differs byte for byte from the reference
digest in ``bench/reference/<workload>.json`` (``bench/make_reference.py``
writes those).

Every run prints a table of its metrics with unit and sample count, a JSON
line of run facts, and last the JSON result line.  The same goes to
``bench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

from tracer import LAYERS, self_times  # noqa: E402
from workloads import LAYER_MAP, WORKLOADS, job_key, rounds  # noqa: E402

SETUP_SAMPLES = 21
MAX_ROUNDS = 400
CLIENT_TIMEOUT_S = 150
VERDICT_COLUMNS = {"ok", "property_ok", "rough_equal_one", "sign_property"}
VERDICTS = {"pass", "exact", "True"}

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _expand(spec: str) -> list[str]:
    stem, _, fields = spec.partition("{")
    return [stem + f for f in fields.rstrip("}").split(",")] if fields else [spec]


# Per-layer metrics of the traced run.  <module>.<function>.calls counts
# calls made through any apmod namespace, .self_s is the summed self time of
# those spans, <module>.self_s sums it over the module (methods included),
# .hit_ratio is hits / lookups from the function's cache_info(), and
# .bytes_built is computed from the nbytes of the arrays built on cache
# misses (not measured memory).  Every .hit_ratio has a .calls beside it: a
# function a workload never calls has calls 0 and, with no lookups, a
# hit_ratio of 0 that means "not used", not "every lookup missed".
PER_LAYER = [m for specs, *_ in LAYER_MAP for spec in specs for m in _expand(spec)]
PER_LAYER[-1:-1] = [f"{layer}.self_s" for layer in LAYERS if f"{layer}.self_s" not in PER_LAYER]
# Metric stems that name a method by its bare name, and the span they read.
SPAN_OF = {
    "completion.hat": "completion.SmoothBump.hat",
    "identities.identity_sides": "identities.ReductionSequences.identity_sides",
}
# One rule picks the per-layer metrics of the result line: a time must be
# measured on every workload, because a time that reads exactly the same on
# every run (a self time of 0 s, where a workload never calls the function)
# is not a measurement.  So the result line carries every count, ratio and
# computed byte count, which are exact and read 0 on the workloads that
# LAYER_MAP lists as flat, and the self times that are above 0 on all three
# workloads.  The table and the result file under bench/out hold all of
# PER_LAYER, every self time included.
SELF_TIMES_ON_EVERY_WORKLOAD = (
    "primes.sieve_upto.self_s", "arith.factorize.self_s",
    "primes.self_s", "arith.self_s", "cli.self_s", "trace.overhead_s",
)
RESULT_PER_LAYER = [m for m in PER_LAYER
                    if not m.endswith("_s") or m in SELF_TIMES_ON_EVERY_WORKLOAD]
UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio",
         "bytes_built": "computed_bytes", "overhead_s": "s"}


def child_env() -> dict[str, str]:
    """Environment of every interpreter the benchmark starts."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("APMOD_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def setup_times(env) -> list[float]:
    """Seconds from spawning an interpreter until it has imported apmod.cli."""
    code = "import apmod.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    out = []
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                                stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.close()
            if proc.wait(timeout=60) != 0 or line != b"ready\n":
                raise RuntimeError("apmod.cli failed to import")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        out.append(t1 - t0)
    return out[1:]  # the first start may still be writing bytecode


def run_client(env, jobs_file, out_dir, result_file, *, seconds=None, n_rounds=None, trace=False):
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(BENCH, "client.py"), "--src", SRC, "--jobs", jobs_file,
           "--out-dir", out_dir, "--result", result_file]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if n_rounds is not None:
        cmd += ["--rounds", str(n_rounds)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=CLIENT_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"client exited with {code}")
    with open(result_file) as fh:
        result = json.load(fh)
    if os.path.dirname(os.path.abspath(result["apmod_file"])) != os.path.join(SRC, "apmod"):
        raise RuntimeError(f"client imported apmod from {result['apmod_file']}")
    return result


def body_of(path: str) -> bytes:
    """The CSV file without its '#' lines."""
    with open(path, "rb") as fh:
        return b"".join(line for line in fh if not line.startswith(b"#"))


def bad_verdicts(body: bytes) -> list[str]:
    """Verdict cells that read anything but pass, exact or True."""
    rows = list(csv.reader(body.decode().splitlines()))
    if not rows:
        return []
    header, bad = rows[0], []
    cols = [i for i, h in enumerate(header) if h in VERDICT_COLUMNS]
    for row in rows[1:]:
        cells = [row[i] if i < len(row) else "" for i in cols]
        if header == ["section", "content"] and row[0] in ("split", "exact"):
            cells.append(row[1].rsplit(" ", 1)[-1])  # "<name> exact" / "True"
        bad += [c for c in cells if c not in VERDICTS]
    return bad


def check_jobs(jobs, result, out_dir, reference):
    """(bodies, failures): CSV bodies of the jobs run and why any failed."""
    bodies, failures = [], []
    for i, (argv, code) in enumerate(zip(jobs, result["codes"])):
        path = os.path.join(out_dir, f"{i:05d}.csv")
        body = body_of(path) if os.path.exists(path) else b""
        bodies.append(body)
        why = []
        if code is None:
            why.append("exception escaped cli.main")
        elif code != 0:
            why.append(f"exit code {code}")
        bad = bad_verdicts(body)
        if bad:
            why.append(f"verdict cells {sorted(set(bad))}")
        want = reference.get(job_key(argv))
        if want is None:
            why.append("no reference output")
        elif hashlib.sha256(body).hexdigest() != want:
            why.append("CSV body differs from the reference")
        if why:
            failures.append({"job": i, "argv": argv, "why": why})
    return bodies, failures


def run_facts(workload, seed, seconds, trace):
    lines = modules = 0
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "apmod")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            modules += 1
            lines += data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            models = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_commit": commit,
        "src_sha256": digest.hexdigest(), "src_lines": lines, "src_modules": modules,
    }


def end_to_end(setup, result):
    lat_ms = [ns / 1e6 for ns in result["latency_ns"]]
    n = len(lat_ms)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "jobs_per_s": (n / (result["wall_ns"] / 1e9), n),
        "job_p50_ms": (statistics.median(lat_ms), n),
        "job_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], n),
        "peak_rss_mb": (result["maxrss_kb"] / 1024, 1),
    }


def per_layer(traced):
    import numpy as np

    spans = np.load(traced["spans"])
    fn = spans["fn"]
    own = self_times(spans["parent"], spans["start"], spans["end"])
    names = traced["span_names"]
    calls = np.bincount(fn, minlength=len(names))
    self_s = np.bincount(fn, weights=own, minlength=len(names)) / 1e9
    by_name = {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(names)}
    jobs = len(traced["codes"])
    # a function that a later version renames or removes reads as never called
    no_cache = {"hits": 0, "misses": 0, "bytes_built": 0}
    out = {}
    cost = traced["span_cost_ns"]
    cached_spans = sum(by_name[name][0] for name in traced["caches"])
    for metric in PER_LAYER:
        stem, _, field = metric.rpartition(".")
        stem = SPAN_OF.get(stem, stem)
        if metric == "trace.overhead_s":
            value = (cost["plain"] * (len(fn) - cached_spans) + cost["cached"] * cached_spans) / 1e9
        elif stem in LAYERS:
            value = sum(s for name, (_, s) in by_name.items() if name.startswith(stem + "."))
        elif field in ("calls", "self_s"):
            value = by_name.get(stem, (0, 0.0))[field == "self_s"]
        else:
            cache = traced["caches"].get(stem, no_cache)
            looked_up = cache["hits"] + cache["misses"]
            value = (cache["hits"] / looked_up if looked_up else 0.0) if field == "hit_ratio" \
                else cache["bytes_built"]
        out[metric] = (value, jobs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="apmod CLI job-stream benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ref_file = os.path.join(BENCH, "reference", f"{args.workload}.json")
    if not os.path.isfile(os.path.join(SRC, "apmod", "cli.py")):
        print(f"bench: no apmod package under {SRC}", file=sys.stderr)
        return 2
    with open(ref_file) as fh:
        reference = json.load(fh)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    stream = rounds(args.workload, args.seed, MAX_ROUNDS)
    jobs_file = os.path.join(work, "jobs.json")
    with open(jobs_file, "w") as fh:
        json.dump(stream, fh)
    env = child_env()
    facts = run_facts(args.workload, args.seed, args.seconds, args.trace)
    setup = None if args.trace else setup_times(env)

    plain_dir = os.path.join(work, "csv")
    plain = run_client(env, jobs_file, plain_dir, os.path.join(work, "client.json"),
                       seconds=args.seconds)
    jobs = [argv for batch in stream[: plain["rounds"]] for argv in batch]
    bodies, failures = check_jobs(jobs, plain, plain_dir, reference)
    if args.trace:
        traced_dir = os.path.join(work, "csv-traced")
        traced = run_client(env, jobs_file, traced_dir, os.path.join(work, "client-traced.json"),
                            n_rounds=plain["rounds"], trace=True)
        traced_bodies, traced_failures = check_jobs(jobs, traced, traced_dir, reference)
        failed_jobs = {f["job"] for f in failures} | {f["job"] for f in traced_failures}
        for i, (a, b) in enumerate(zip(bodies, traced_bodies)):
            if a != b:
                traced_failures.append(
                    {"job": i, "argv": jobs[i], "why": ["traced CSV body differs"]})
                failed_jobs.add(i)
        failures += traced_failures
        metrics = per_layer(traced)
        spans_file = os.path.join(OUT, f"{args.workload}.spans.npz")
        shutil.move(traced["spans"], spans_file)
        facts["spans"] = os.path.relpath(spans_file, ROOT)
        details = {"span_names": traced["span_names"], "caches": traced["caches"]}
        units = {m: UNITS[m.rpartition(".")[2]] for m in metrics}
    else:
        failed_jobs = {f["job"] for f in failures}
        metrics = end_to_end(setup, plain)
        details = {}
        units = dict(END_TO_END)
    facts.update(jobs=len(jobs), rounds=plain["rounds"], python=plain["python"],
                 numpy=plain["numpy"])

    attempted, failed = len(jobs), len(failed_jobs)
    width = max(len(m) for m in metrics)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} jobs "
          f"in {plain['rounds']} rounds, {failed} failed")
    print(f"{'metric':<{width}}  {'value':>14}  {'unit':<14}  samples")
    for name, (value, samples) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {units[name]:<14}  {samples}")
    print(f"{'failed_frac':<{width}}  {failed / attempted:>14.6g}  {'ratio':<14}  {attempted}")
    for f in failures[:10]:
        print(f"FAILED job {f['job']}: {' '.join(f['argv'])}: {'; '.join(f['why'])}")
    print(json.dumps({"facts": facts}))

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()
                    if not args.trace or name in RESULT_PER_LAYER},
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({"facts": facts, "failed_frac": failed / attempted, "failures": failures,
                   "metrics": {name: {"value": value, "unit": units[name], "samples": samples}
                               for name, (value, samples) in metrics.items()},
                   **details, "result": line}, fh, indent=1)
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
