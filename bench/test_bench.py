"""Tests of the benchmark itself: job streams, reference coverage, memory.

Run from the root of a checkout with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import (  # noqa: E402
    BENCH, END_TO_END, OUT, PER_LAYER, RESULT_PER_LAYER, UNITS, check_jobs, child_env,
    run_client,
)
from tracer import Tracer, self_times  # noqa: E402
from workloads import WHY, WORKLOADS, job_key, pool, rounds  # noqa: E402

NAMES = sorted(WORKLOADS)


@pytest.fixture
def work(request):
    """A scratch directory under bench/out, so the tests write inside the checkout."""
    path = Path(OUT) / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _reference(workload):
    with open(os.path.join(BENCH, "reference", f"{workload}.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_jobs(workload):
    assert rounds(workload, 7, 40) == rounds(workload, 7, 40)


@pytest.mark.parametrize("workload", NAMES)
def test_different_seeds_different_jobs(workload):
    assert rounds(workload, 7, 40) != rounds(workload, 8, 40)


@pytest.mark.parametrize("workload", NAMES)
def test_every_round_runs_the_whole_pool_once(workload):
    want = sorted(map(job_key, pool(workload)))
    assert all(sorted(map(job_key, batch)) == want for batch in rounds(workload, 3, 10))


@pytest.mark.parametrize("workload", NAMES)
def test_reference_covers_exactly_the_pool(workload):
    assert set(_reference(workload)) == {job_key(job) for job in pool(workload)}


@pytest.mark.parametrize("workload", NAMES)
def test_jobs_carry_no_threads_or_config_flag(workload):
    assert not any(
        flag in job for job in pool(workload) for flag in ("--threads", "--config", "--out")
    )


def test_check_jobs_flags_a_wrong_body(work):
    job = ["omega", "--u", "2"]
    (work / "00000.csv").write_text("# comment\nu,omega\n2,0.25\n")  # omega(2) = 1/2
    _, failures = check_jobs([job], {"codes": [0]}, str(work), _reference("sieve-identities"))
    assert failures and "CSV body differs from the reference" in failures[0]["why"]


def test_check_jobs_flags_a_failed_verdict(work):
    job = ["verify", "reduction", "--n-max", "10000"]
    (work / "00000.csv").write_text("z1,z2,y,n_max,ok\n30,5,100,10000,FAIL\n")
    _, failures = check_jobs([job], {"codes": [1]}, str(work), _reference("sieve-identities"))
    assert any("verdict" in why for why in failures[0]["why"])


def test_self_time_subtracts_the_child_spans():
    # root [0, 10] with children [2, 5] and [6, 9]; [3, 4] nests in the first
    parent, start, end = [-1, 0, 1, 0], [0, 2, 3, 6], [10, 5, 4, 9]
    assert list(self_times(parent, start, end)) == [4, 2, 1, 3]


def test_wrapper_keeps_the_lru_cache_and_counts_built_bytes():
    tracer = Tracer()
    table = tracer.wrap("m.table", functools.lru_cache(maxsize=2)(np.zeros))
    table(3), table(3), table(5)
    info = table.cache_info()
    assert (info.hits, info.misses) == (1, 2)
    assert tracer.bytes_built["m.table"] == 8 * (3 + 5)  # float64, misses only
    assert list(tracer.fn) == [0, 0, 0] and list(tracer.parent) == [-1, -1, -1]


def test_methods_are_wrapped_but_not_generators_or_private_ones():
    class Table:
        def size(self, n):
            return n

        @staticmethod
        def make(n):
            return n + 1

        def rows(self):
            yield 1

        def _cell(self):
            return 0

    tracer = Tracer()
    tracer._wrap_methods("m.Table", Table)
    assert (Table().size(2), Table.make(2), list(Table().rows())) == (2, 3, [1])
    assert tracer.names == ["m.Table.size", "m.Table.make"]
    assert list(tracer.fn) == [0, 1]


def test_span_cost_is_measured_without_keeping_the_calibration_spans():
    tracer = Tracer()
    tracer.wrap("m.f", abs)(-1)
    cost = tracer.span_cost_ns()
    assert cost["plain"] > 0 and cost["cached"] > 0
    assert tracer.names == ["m.f"] and list(tracer.fn) == [0]


def test_every_hit_ratio_comes_with_a_call_count():
    ratios = [m for m in RESULT_PER_LAYER if m.endswith(".hit_ratio")]
    assert ratios and all(m.replace("hit_ratio", "calls") in RESULT_PER_LAYER for m in ratios)


@pytest.mark.parametrize("workload", NAMES)
def test_whole_pool_stays_well_below_machine_memory(workload, work):
    """Every distinct job of the workload in one interpreter, so every cache
    holds the most it can in a run, peaks under 2 GiB (a quarter of 8 GB)."""
    jobs = pool(workload)
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps([jobs]))
    result = run_client(child_env(), str(jobs_file), str(work / "csv"),
                        str(work / "client.json"), n_rounds=1)
    _, failures = check_jobs(jobs, result, str(work / "csv"), _reference(workload))
    assert failures == []
    assert result["maxrss_kb"] < 2 * 1024 * 1024


def test_benchmark_json_matches_the_benchmark():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m, UNITS[m.rpartition(".")[2]]) for m in RESULT_PER_LAYER
    ]
    # the result line leaves out only self times
    assert all(m.endswith(".self_s") for m in set(PER_LAYER) - set(RESULT_PER_LAYER))
