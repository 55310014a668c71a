"""The benchmark in ``perfbench/`` calls and wraps package attributes by name.

A renamed or removed attribute makes every benchmark run fail, so each
workload runs here once, traced, on a corpus of 3 courses x 20 threads. A
traced run also checks how often each thread is vectorized and tagged, that
every fit reached its optimum, and that every fit ran its optimizer inside the
span the benchmark times.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from forum_sentinel.corpus import filter_and_label, load_corpus
from forum_sentinel.syngen import GenSpec, generate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _perfbench_workloads()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "corpus.jsonl"
    generate(GenSpec(n_courses=3, threads_per_course=20, seed=7, **WORKLOADS.GEN_KNOBS), path)
    return path, len(filter_and_label(load_corpus(path).threads))


@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_traced_workload_runs_clean(workload, corpus, tmp_path):
    path, n_threads = corpus
    assert n_threads == 60
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [
            sys.executable, str(PERFBENCH / "execute.py"), "--workload", workload,
            "--corpus", str(path), "--courses", "3", "--threads", str(n_threads),
            "--out", str(tmp_path / "out"), "--result", str(result),
            "--spans", str(tmp_path / "spans.json"),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(result.read_text("utf-8"))
    assert doc["traced"]
    assert doc["failures"] == []
    assert doc["layers"]["model.unconverged"] == 0
    # the benchmark times a fit's optimizer as one scipy.optimize.minimize call: every fit makes one
    optimize_calls = [row["calls"] for row in doc["table"] if row["span"] == "model.optimize"]
    assert optimize_calls == [doc["layers"]["model.train_calls"]] and optimize_calls[0] > 0
