"""Byte-identity check: run a fixed set of forum-sentinel commands and print one sha256 per output file.

    python tests/identity_check.py                 # this checkout's outputs
    python tests/identity_check.py --against REV   # and REV's, from `git archive REV`; lists each file that differs

The set: four syngen corpora, written once by this checkout's syngen and read by every side. Three are shaped
like the benchmark's workloads, at seed 3 (featurize-train 14 x 200, ccv-eplusp 14 x 60, indomain-pdtb
5 x 120); the fourth (3 x 20) has a course with no intervened thread, so its ccv fold has no positive and its
in-domain splits are degenerate. On each corpus: ingest; tag; for each of edm15, pdtb and eplusp,
featurize, train on that dump, and eval --emit records in both regimes; and for pdtb and eplusp, eval in both
regimes again with --tags reading the tags.tsv that tag wrote, so the import path's discourse block is checked
too. Both sides of --against run this checkout's command list. The files are every command's output
files and, per command, a ``.stdout`` file with its stdout, stderr and exit code (the output and corpus
directories spelled OUT and CORPORA). Each command runs in a fresh process.

REV is unpacked in a temporary directory; the repository's worktree and index are not touched. Model files
depend on the machine's BLAS (docs/model-format.md), so compare them only against a REV run on this machine.
Exit status: 0 when every file matches (or without --against), 1 when a file differs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# label: (courses, threads per course, intervention ratio); the benchmark's other generation knobs
CORPORA = {
    "ft3": (14, 200, 0.25),
    "ccv3": (14, 60, 0.25),
    "ind3": (5, 120, 0.25),
    "deg3": (3, 20, [0.0, 0.1, 0.25]),
}
CONFIGS = ("edm15", "pdtb", "eplusp")


def write_corpora(into: Path) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from forum_sentinel.syngen import GenSpec, generate

    into.mkdir()
    for label, (courses, threads, ratio) in CORPORA.items():
        generate(GenSpec(n_courses=courses, threads_per_course=threads, intervention_ratio=ratio,
                         vocabulary_disjointness=0.5, discourse_signal_strength=0.6, seed=3), into / f"{label}.jsonl")


def commands(corpora: Path, out: Path):
    """(label, argv after the program name) for every command, in run order, writing under ``out``."""
    for label in CORPORA:
        corpus = str(corpora / f"{label}.jsonl")
        yield f"{label}.ingest", ["ingest", "--corpus", corpus]
        yield f"{label}.tag", ["tag", "--corpus", corpus, "--out", str(out / f"{label}.tag")]
        for config in CONFIGS:
            name, into = f"{label}.{config}", str(out / f"{label}.{config}")
            yield f"{name}.featurize", ["featurize", "--corpus", corpus, "--features", config, "--out", into]
            yield f"{name}.train", ["train", "--features-file", f"{into}/features.tsv", "--out", into]
            for regime in ("ccv", "in-domain"):
                yield f"{name}.{regime}", ["eval", "--corpus", corpus, "--features", config, "--regime", regime,
                                           "--emit", "records", "--out", str(out / f"{name}.{regime}")]
        for config in CONFIGS[1:]:  # the configs with a discourse block, from the tags written above
            for regime in ("ccv", "in-domain"):
                name = f"{label}.{config}.tags.{regime}"
                yield name, ["eval", "--corpus", corpus, "--features", config, "--regime", regime,
                             "--tags", str(out / f"{label}.tag" / "tags.tsv"), "--emit", "records",
                             "--out", str(out / name)]


def run_set(tree: Path, corpora: Path, out: Path) -> dict[str, str]:
    """Run every command on the package under ``tree``/src, writing into ``out``; the sha256 of each file."""
    out.mkdir()
    env = {key: value for key, value in os.environ.items() if key != "FORUM_SENTINEL_LOG"}
    env["PYTHONPATH"] = str(tree / "src")
    for label, argv in commands(corpora, out):
        proc = subprocess.run([sys.executable, "-m", "forum_sentinel.cli", *argv], capture_output=True, text=True,
                              env=env, cwd=out)
        log = f"{proc.stdout}[stderr]\n{proc.stderr}[exit {proc.returncode}]\n"
        log = log.replace(str(out), "OUT").replace(str(corpora), "CORPORA")
        (out / f"{label}.stdout").write_text(log, "utf-8")
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def unpack(rev: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="also run REV and list each file whose bytes differ")
    args = parser.parse_args()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        corpora = tmp / "corpora"
        write_corpora(corpora)
        digests = run_set(ROOT, corpora, tmp / "this")
        for name, digest in digests.items():
            print(f"{digest}  {name}")
        listing = "".join(f"{digest}  {name}\n" for name, digest in digests.items())
        print(f"{hashlib.sha256(listing.encode()).hexdigest()}  (the listing above, {len(digests)} files)")
        differ = []
        if args.against:
            theirs = run_set(unpack(args.against, tmp / "rev"), corpora, tmp / "rev-out")
            differ = sorted(name for name in digests.keys() | theirs.keys() if digests.get(name) != theirs.get(name))
            for name in differ:
                print(f"differs: {name}")
            print(f"{len(differ)} of {len(digests.keys() | theirs.keys())} files differ from {args.against}")
    print(f"took {time.perf_counter() - start:.0f} s", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
