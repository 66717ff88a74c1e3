"""Write ``bench/reference/<workload>.json``: the reference CSV digest of every job.

Usage, from the root of a checkout:

    python3 bench/make_reference.py [workload ...]

Runs every job a workload can generate (its pool) through the benchmark
client twice, in fresh interpreters, once in pool order and once reversed,
so a result that depends on what ran before it is caught.  A job whose exit
code is not 0, whose verdict cells do not all pass, or whose two CSV bodies
differ stops the script with no file written.  Otherwise each job maps to
the sha256 of its CSV body with ``#`` lines dropped.

Run it only when the expected outputs change on purpose: the digests are
what ``bench/run.py`` checks every job against.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

from run import BENCH, OUT, bad_verdicts, body_of, child_env, run_client
from workloads import WORKLOADS, job_key, pool


def bodies(env, jobs, work):
    os.makedirs(work)
    jobs_file = os.path.join(work, "jobs.json")
    with open(jobs_file, "w") as fh:
        json.dump([jobs], fh)
    out_dir = os.path.join(work, "csv")
    result = run_client(env, jobs_file, out_dir, os.path.join(work, "client.json"), n_rounds=1)
    out = {}
    for i, (argv, code) in enumerate(zip(jobs, result["codes"])):
        body = body_of(os.path.join(out_dir, f"{i:05d}.csv"))
        if code != 0 or bad_verdicts(body):
            raise SystemExit(f"reference job failed (exit {code}): {job_key(argv)}")
        out[job_key(argv)] = body
    return out


def main(names) -> int:
    env = child_env()
    for workload in names or sorted(WORKLOADS):
        jobs = pool(workload)
        work = os.path.join(OUT, f"reference-{workload}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        forward = bodies(env, jobs, os.path.join(work, "forward"))
        backward = bodies(env, jobs[::-1], os.path.join(work, "backward"))
        unequal = [k for k in forward if forward[k] != backward[k]]
        if unequal:
            raise SystemExit(f"{workload}: output depends on job order: {unequal[:3]}")
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in forward.items()}
        with open(os.path.join(BENCH, "reference", f"{workload}.json"), "w") as fh:
            json.dump(digests, fh, indent=0, sort_keys=True)
            fh.write("\n")
        shutil.rmtree(work)
        print(f"{workload}: {len(digests)} reference outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
