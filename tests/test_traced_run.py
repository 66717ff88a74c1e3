"""Smoke test of the benchmark's traced run on the real package.

``bench/client.py --trace`` wraps every layer module's public functions
(``bench/tracer.py``) before it runs any job, so a renamed layer module, a
moved public function or a cached function that lost ``cache_clear`` breaks
it.  This runs one round of a few small jobs through the client in a fresh
interpreter, traced and untraced, and reads the bench files without editing
them.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

# one small job of each workload's pool, by workload
BENCH_JOBS = {
    "sieve-identities": ["omega", "--u", "2"],
    "discrepancy-scan": ["moduli-set", "--kind", "divisor-window", "--x", "100000",
                         "--delta", "0.005"],
    "expsum-sweeps": ["verify", "deligne", "--p-max", "60"],
}
CORRELATION = ["expsum", "correlation", "--H", "40", "--a1", "1", "--a2", "2",
               "--r1", "3", "--r2", "5", "--s", "7"]


def _run_client(tmp_path: Path, jobs_file: Path, name: str, trace: bool):
    """(result, CSV bodies without '#' lines) of one client round."""
    out_dir = tmp_path / name
    out_dir.mkdir()  # the client writes into it but does not create it
    result_file = tmp_path / f"{name}.json"
    cmd = [sys.executable, str(BENCH / "client.py"), "--src", str(ROOT / "src"),
           "--jobs", str(jobs_file), "--out-dir", str(out_dir),
           "--result", str(result_file), "--rounds", "1"]
    proc = subprocess.run(cmd + ["--trace"] * trace, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_file.read_text())
    bodies = []
    for path in sorted(out_dir.glob("*.csv")):
        lines = path.read_bytes().splitlines(keepends=True)
        bodies.append(b"".join(line for line in lines if not line.startswith(b"#")))
    return result, bodies


def test_traced_round_runs_every_layer(tmp_path):
    jobs = [*BENCH_JOBS.values(), CORRELATION]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps([jobs]))
    plain, plain_bodies = _run_client(tmp_path, jobs_file, "plain", trace=False)
    traced, traced_bodies = _run_client(tmp_path, jobs_file, "traced", trace=True)

    # the client exits 0 even when a job fails, so every job's code is read
    assert plain["codes"] == traced["codes"] == [0] * len(jobs)
    assert plain["errors"] == traced["errors"] == []
    assert len(traced_bodies) == len(jobs)
    assert traced_bodies == plain_bodies

    for (workload, argv), body in zip(BENCH_JOBS.items(), traced_bodies):
        reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
        assert hashlib.sha256(body).hexdigest() == reference[" ".join(argv)], argv

    names = traced["span_names"]
    calls = np.bincount(np.load(traced["spans"])["fn"], minlength=len(names))
    for name in ("expsums.kl3_squarefree", "completion.kl3_correlation"):
        assert name in names
        assert calls[names.index(name)] > 0, name
