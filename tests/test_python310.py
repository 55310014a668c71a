"""The numpy-free modules run on Python 3.10, the oldest version ``pyproject.toml`` claims.

A Python 3.10 interpreter is looked for as ``python3.10`` on PATH and in an
installed pyenv; numpy need not be installed for it. The test skips where none
is found. ``corpus``, ``textprep``, ``discourse``, ``features`` and ``syngen``
are loaded without the package ``__init__``, which imports the fitting modules.
"""

from __future__ import annotations

import inspect
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from forum_sentinel import corpus, discourse, features, syngen

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


# a stand-in package whose submodules load from the source directory, so the package __init__ never runs
_SCRIPT = f"""
import sys, types
package = types.ModuleType("forum_sentinel")
package.__path__ = [sys.argv[1]]
sys.modules["forum_sentinel"] = package
from forum_sentinel import corpus, discourse, features, syngen, textprep
assert "numpy" not in sys.modules
{inspect.getsource(rows_digest)}
print(rows_digest(corpus, discourse, features, syngen))
"""


def test_numpy_free_modules_give_the_same_rows_on_python_310():
    exe = _python310()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    proc = subprocess.run([exe, "-c", _SCRIPT, str(PACKAGE)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == rows_digest(corpus, discourse, features, syngen)
