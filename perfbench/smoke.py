"""Smoke tests of the benchmark itself, on a tiny corpus (3 courses x 20 threads).

    python3 -m pytest -q perfbench/smoke.py

The file name keeps it out of the repository's default test collection;
each test starts the benchmark as its own processes, the way it is run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import cross_check  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
COURSES = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", f"{COURSES}x20"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return request.param, _result(_bench(request.param, 1))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = _result(_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(traced):
    _workload, result = traced
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_span_self_times_are_nonnegative_and_fit_in_the_root(traced):
    workload, _result_line = traced
    files = sorted((HERE / "out" / f"{workload}-s{SEED}").glob("spans-*.json"))
    assert files
    for path in files:
        doc = json.loads(path.read_text("utf-8"))
        spans = [(doc["names"][n], start, end, parent) for n, start, end, parent in doc["spans"]]
        roots = [s for s in spans if s[3] == -1]
        assert [s[0] for s in roots] == ["run"]
        own = self_times(spans)
        assert min(own) >= 0
        assert sum(own) <= roots[0][2] - roots[0][1]


def test_rows_and_tags_per_thread(traced):
    workload, result = traced
    expected = {"ccv-eplusp": COURSES, "indomain-pdtb": 5, "featurize-train": 1}[workload]
    assert result["metrics"]["features.rows_per_thread"]["value"] == expected
    assert result["metrics"]["discourse.tags_per_thread"]["value"] == expected


def test_differing_outputs_count_as_failures():
    runs = [
        {"traced": False, "failures": [], "output_sha256": "a"},
        {"traced": True, "failures": [], "output_sha256": "b", "layers": {"features.rows": 1}},
    ]
    cross_check(runs)
    assert runs[0]["failures"] == []
    assert runs[1]["failures"] == ["traced output bytes differ from the first run's"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("ccv-eplusp", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
