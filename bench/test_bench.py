"""Tests of the benchmark itself: python -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from run import BENCH, DROPPED, ROOT, WORKLOADS, normalize
from tracer import layer_stats


def test_normalize_drops_only_the_listed_fields():
    kept = {"schema_version": 1, "chain": [2, 2, 3], "tool_version": "0.1.0"}
    detail = {"entries": 702, "window_hull": [-9, 10], "matrix": [[1, -1], [0, 1]]}
    report = {**kept, "offset": 2, "stats": {"hom_queries": 5},
              "provenance": {"engine": "x"},
              "checks": [{"name": "hom_table", "status": "pass", "elapsed_ns": 12,
                          "detail": {**detail, "cache_hit": False}}]}
    assert normalize(report, 2) == {
        **kept, "checks": [{"name": "hom_table", "status": "pass", "detail": detail}]}
    assert DROPPED == {"elapsed_ns", "cache_hit", "offset", "stats", "provenance"}


def test_normalize_rebases_the_absolute_collection_index():
    report = {"offset": 3, "checks": [
        {"name": "triangle_structural", "status": "pass", "detail": {"i": 4},
         "elapsed_ns": 1}]}
    assert normalize(report, 3)["checks"][0]["detail"] == {"i": 1}


def test_self_time_on_a_hand_built_span_tree():
    names = ["a", "b", "c"]
    spans = [
        [0, 0, 100, -1],   # a: children cover 10..40, 50..70, 75..95
        [1, 10, 40, 0],    # b: child c covers 20..30
        [2, 20, 30, 1],
        [1, 50, 70, 0],
        [0, 75, 95, 0],    # a inside a: not added again to a's inclusive time
        [2, 80, 90, 4],
        [2, 85, 92, 4],    # overlaps its sibling; the union 80..92 is covered
    ]
    st = layer_stats(names, spans)
    ns = 1e-9
    assert st["a"] == {"calls": 2, "s": pytest.approx(100 * ns),
                       "self_s": pytest.approx((30 + 8) * ns)}
    assert st["b"] == {"calls": 2, "s": pytest.approx(50 * ns),
                       "self_s": pytest.approx(40 * ns)}
    assert st["c"] == {"calls": 3, "s": pytest.approx(27 * ns),
                       "self_s": pytest.approx(27 * ns)}


def bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_on_the_smallest_chain(workload):
    result = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                   "--chains", "3,3")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["verify_cold", "triangles"])
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1",
            "--chains", "3,3")
    first, second = bench(*args), bench(*args)
    counts = {k for k, m in first["metrics"].items()
              if m["unit"] == "count" or k.endswith(".bytes")}
    assert {"homcalc.rank_d.misses", "exactmath.sparse_rank.rows",
            "exactmath.sparse_rank.nnz", "mf.t_power.calls"} <= counts
    assert first["metrics"]["homcalc.hom_dim.calls"]["value"] > 0
    assert {k: first["metrics"][k] for k in counts} == \
        {k: second["metrics"][k] for k in counts}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "triangles",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
    assert not (tmp_path / ".bench_out").exists()
