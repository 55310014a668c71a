"""The numpy-free modules run on Python 3.10, the oldest version ``pyproject.toml`` claims.

A Python 3.10 interpreter is looked for as ``python3.10`` on PATH and in an
installed pyenv; numpy need not be installed for it. The test skips where none
is found. ``corpus``, ``textprep``, ``discourse``, ``features`` and ``syngen``
are loaded without the package ``__init__``, which imports the fitting modules.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from forum_sentinel import corpus, discourse, features, syngen

from conftest import post_obj, record
from test_corpus import UTC_FORMS

PACKAGE = Path(corpus.__file__).resolve().parent


def _python310() -> str | None:
    """A Python 3.10 executable: ``python3.10`` on PATH, else an installed pyenv 3.10 (a bare pyenv shim
    fails unless a 3.10 is selected)."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which("python3.10"), *map(str, sorted(pyenv.glob("versions/3.10*/bin/python3.10")))]
    for exe in filter(None, candidates):
        try:
            proc = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2] == (3, 10))"],
                                  capture_output=True, text=True, timeout=60)
        except OSError:
            continue
        if proc.returncode == 0 and proc.stdout.strip() == "True":
            return exe
    return None


def rows_digest(corpus, discourse, features, syngen) -> str:
    """A digest of the eplusp rows of the seed-7 3 x 20 corpus with the benchmark's knobs."""
    import hashlib

    spec = syngen.GenSpec(n_courses=3, threads_per_course=20, intervention_ratio=0.25,
                          vocabulary_disjointness=0.5, discourse_signal_strength=0.6, seed=7)
    threads = corpus.filter_and_label(syngen.generate_threads(spec))
    space = features.build_space("eplusp", features.build_vocabulary(threads))
    rows = features.vectorize(threads, space, discourse.load_lexicon())
    text = repr([(sorted(vec.values.items()), label) for vec, label in rows])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_outcome(corpus, good: str, bad: str) -> str:
    """A digest of the threads loaded from ``good``, then the error text of loading ``bad``."""
    import hashlib

    digest = hashlib.sha256(repr(corpus.load_corpus(good).threads).encode("utf-8")).hexdigest()[:16]
    try:
        corpus.load_corpus(bad)
    except corpus.CorpusFormatError as exc:
        return f"{digest} {exc}"
    return f"{digest} loaded"


# a stand-in package whose submodules load from the source directory, so the package __init__ never runs
_PREAMBLE = """
import sys, types
package = types.ModuleType("forum_sentinel")
package.__path__ = [sys.argv[1]]
sys.modules["forum_sentinel"] = package
from forum_sentinel import corpus, discourse, features, syngen, textprep
assert "numpy" not in sys.modules
"""


def _run_on_python_310(function, call: str, *args: str) -> str:
    """What ``call`` prints in a Python 3.10 that has the package's numpy-free modules and ``function``."""
    exe = _python310()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    script = f"{_PREAMBLE}{inspect.getsource(function)}\nprint({call})\n"
    proc = subprocess.run([exe, "-c", script, str(PACKAGE), *args], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_numpy_free_modules_give_the_same_rows_on_python_310():
    on_310 = _run_on_python_310(rows_digest, "rows_digest(corpus, discourse, features, syngen)")
    assert on_310 == rows_digest(corpus, discourse, features, syngen)


def test_a_corpus_loads_the_same_on_python_310(tmp_path):
    # Python 3.10's fromisoformat reads no Z: every timestamp form, syngen's whole-second Z among them
    records = [record(tid=f"t{i}", posts=[post_obj(0, ts=ts)]) for i, (ts, _utc) in enumerate(UTC_FORMS.values())]
    records.append(record(tid="syngen-form", posts=[post_obj(1), post_obj(0), post_obj(2, parent="p1")]))
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    bad_id = {**post_obj(1), "post_id": "x\ty"}
    bad.write_text(f"{json.dumps(record())}\n{json.dumps(record(tid='t2', posts=[bad_id]))}\n", "utf-8")
    on_310 = _run_on_python_310(load_outcome, "load_outcome(corpus, sys.argv[2], sys.argv[3])", str(good), str(bad))
    assert on_310 == load_outcome(corpus, good, bad)
    assert on_310.endswith("corpus line 2: post_id 'x\\ty' holds a tab, CR, LF or lone surrogate")
