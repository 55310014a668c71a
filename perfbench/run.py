"""Layered benchmark of the forum-sentinel batch pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The corpus is generated from ``--seed`` with
``syngen`` (several times; the median is ``setup_s``). Then the workload runs
in fresh processes, one after another, for about ``--seconds`` seconds and at
least ``MIN_RUNS`` times. With ``--trace 0`` every run is untraced, and each
end-to-end metric is the median over runs. Times are reported at the
reference machine speed of ``speed.py``, because this machine's speed drifts
by more than the bounds. With ``--trace 1`` the runs come in pairs, untraced
then traced on the same corpus. The per-layer metrics are medians over the
traced runs, in plain seconds. The tracing overhead is the median traced wall
time minus the median untraced one, both at reference speed. Output checks
never abort: a run that fails or fails a check counts in ``failed``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A fuller record, with the run
environment, every run's values and quartiles, goes to
``perfbench/out/result-<workload>-s<seed>-trace<0|1>.json``; the spans of
traced runs go beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import at_reference_speed, reference_loops
from workloads import GEN_KNOBS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# measured runs (or untraced/traced pairs) at the least; with RUN_TIMEOUT_S
# this keeps a run of the benchmark under 180 s even if every run hangs
MIN_RUNS = 2
RUN_TIMEOUT_S = 40
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.5  # keep generating the corpus at least this long, for a steady median


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    if not (SRC / "forum_sentinel" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'forum_sentinel'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import forum_sentinel

    if Path(forum_sentinel.__file__).resolve().parent != SRC / "forum_sentinel":
        _fail(f"imported forum_sentinel from {forum_sentinel.__file__}, not from {SRC}")
    return forum_sentinel


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        # None means unset, which lets OpenBLAS start one thread per core
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def summary(values: list[float]) -> dict:
    """Median, quartiles and extremes over runs, with the sample count."""
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values), "values": values}


def setup(spec, corpus: Path, package) -> tuple[list[float], list[float], bool, int]:
    """Generate the corpus repeatedly.

    Returns the raw times, the times at reference speed, whether every copy
    was byte-identical, and the filtered thread count.
    """
    raw: list[float] = []
    scaled: list[float] = []
    first = None
    identical = True
    start = time.perf_counter()
    while len(raw) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        before = reference_loops()
        t0 = time.perf_counter()
        package.syngen.generate(spec, corpus)
        raw.append(time.perf_counter() - t0)
        scaled.append(at_reference_speed(raw[-1], before, reference_loops()))
        data = corpus.read_bytes()
        first = data if first is None else first
        identical = identical and data == first
    return raw, scaled, identical, len(package.filter_and_label(package.load_corpus(corpus).threads))


class Runner:
    """Starts one fresh process per measured run and waits for it to end."""

    def __init__(self, workload, corpus: Path, courses: int, n_threads: int, workdir: Path):
        self.workload = workload
        self.corpus = corpus
        self.courses = courses
        self.n_threads = n_threads
        self.workdir = workdir
        self.records: list[dict] = []

    def run(self, traced: bool) -> dict:
        index = len(self.records)
        result = self.workdir / f"run-{index}.json"
        result.unlink(missing_ok=True)
        command = [
            sys.executable, str(HERE / "execute.py"),
            "--workload", self.workload.name, "--corpus", str(self.corpus),
            "--courses", str(self.courses), "--threads", str(self.n_threads),
            "--out", str(self.workdir / "out"), "--result", str(result),
        ]
        if traced:
            command += ["--spans", str(self.workdir / f"spans-{index}.json")]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=RUN_TIMEOUT_S)
            error = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        except subprocess.TimeoutExpired:
            error = f"timed out after {RUN_TIMEOUT_S} s"
        if error is None and not result.is_file():
            error = "no result file written"
        if error is None:
            record = json.loads(result.read_text("utf-8"))
            for key in ("wall_s", "cpu_s"):
                record[key.replace("_s", "_ref_s")] = at_reference_speed(
                    record[key], record["ref_before"], record["ref_after"])
        else:
            record = {"traced": traced, "failures": [error]}
        record["process_s"] = time.perf_counter() - t0
        self.records.append(record)


def measure(runner: Runner, seconds: float, traced: bool) -> None:
    """Run for about ``seconds``: never start a run (or pair) that would overrun."""
    deadline = time.perf_counter() + seconds
    longest = 0.0
    done = 0
    while done < MIN_RUNS or time.perf_counter() + longest <= deadline:
        t0 = time.perf_counter()
        runner.run(traced=False)
        if traced:
            runner.run(traced=True)
        longest = max(longest, time.perf_counter() - t0)
        done += 1


def cross_check(records: list[dict]) -> None:
    """Every run of one corpus writes the same bytes and, traced, the same counts."""
    good = [r for r in records if not r["failures"]]
    if not good:
        return
    reference = good[0]["output_sha256"]
    traced = [r for r in good if r["traced"]]
    counts = {k: v for k, v in traced[0]["layers"].items() if not k.endswith("_s")} if traced else {}
    for r in good:
        if r["output_sha256"] != reference:
            r["failures"].append(("traced" if r["traced"] else "untraced") + " output bytes differ from the first run's")
        if r["traced"]:
            for key, value in counts.items():
                if r["layers"][key] != value:
                    r["failures"].append(f"{key} is {r['layers'][key]} here, {value} in the first traced run")


def print_table(record: dict) -> None:
    """Self time by layer and span of one traced run, and its share of that run's wall time."""
    wall = record["wall_s"]
    print(f"self time by layer of one traced run, share of its wall time ({wall:.3f} s as timed)")
    print(f"{'layer':<12}{'self_s':>9}{'share':>8}   {'span':<24}{'calls':>8}{'total_s':>10}{'self_s':>9}")
    layers: dict[str, list[dict]] = {}
    for row in record["table"]:
        layers.setdefault(row["layer"], []).append(row)
    ranked = sorted(layers.items(), key=lambda kv: -sum(r["self_s"] for r in kv[1]))
    for layer, rows in ranked:
        own = sum(r["self_s"] for r in rows)
        for i, row in enumerate(sorted(rows, key=lambda r: -r["self_s"])):
            head = f"{layer:<12}{own:>9.3f}{own / wall:>8.1%}" if i == 0 else " " * 29
            print(f"{head}   {row['span']:<24}{row['calls']:>8}{row['total_s']:>10.3f}{row['self_s']:>9.3f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", help="COURSESxTHREADS corpus size instead of the workload's own (smoke tests)")
    args = parser.parse_args(argv)

    package = _import_package()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    workload = WORKLOADS[args.workload]
    courses, per_course = workload.n_courses, workload.threads_per_course
    if args.size:
        courses, per_course = (int(x) for x in args.size.lower().split("x"))
    spec = package.syngen.GenSpec(n_courses=courses, threads_per_course=per_course, seed=args.seed, **GEN_KNOBS)
    workdir = OUT / f"{workload.name}-s{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    corpus = workdir / "corpus.jsonl"
    setup_raw, setup_scaled, setup_identical, n_threads = setup(spec, corpus, package)
    runner = Runner(workload, corpus, courses, n_threads, workdir)
    measure(runner, args.seconds, traced=bool(args.trace))
    cross_check(runner.records)
    if not setup_identical:
        for r in runner.records:
            r["failures"].append("syngen wrote different corpora for one seed")

    good = [r for r in runner.records if not r["failures"]]
    attempted, failed = len(runner.records), len(runner.records) - len(good)
    for i, r in enumerate(runner.records):
        for failure in r["failures"]:
            print(f"run {i} ({'traced' if r['traced'] else 'untraced'}) failed: {failure}")
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no run succeeded", file=sys.stderr)
        return 1

    n_corpus = courses * per_course
    stats = {
        "wall_s": summary([r["wall_ref_s"] for r in untraced]),
        "cpu_s": summary([r["cpu_ref_s"] for r in untraced]),
        "threads_per_s": summary([n_corpus / r["wall_ref_s"] for r in untraced]),
        "peak_rss_mb": summary([r["peak_rss_mb"] for r in untraced]),
        "setup_s": summary(setup_scaled),
        "macro_f1": summary([r["macro_f1"] for r in untraced]),
        "success_rate": summary([(attempted - failed) / attempted]),
    }
    raw = {  # as timed, at whatever speed the machine ran
        "wall_s": summary([r["wall_s"] for r in untraced]),
        "cpu_s": summary([r["cpu_s"] for r in untraced]),
        "setup_s": summary(setup_raw),
    }
    if args.trace:
        per_layer = {key: summary([r["layers"][key] for r in traced]) for key in traced[0]["layers"]}
        traced_wall = statistics.median(r["wall_ref_s"] for r in traced)
        overhead = traced_wall - stats["wall_s"]["median"]
        per_layer["trace.overhead_s"] = summary([overhead])
        # the table shows one traced run: the one nearest the median wall time
        shown = min(traced, key=lambda r: abs(r["wall_ref_s"] - traced_wall))
        print(f"{workload.name}, seed {args.seed}: median wall at reference speed {traced_wall:.3f} s traced, "
              f"{stats['wall_s']['median']:.3f} s untraced; tracing overhead {overhead:+.3f} s "
              f"({overhead / stats['wall_s']['median']:+.1%})")
        print_table(shown)
        # median_low is a measured value, so counts stay whole numbers
        metrics = {m["name"]: {"value": statistics.median_low(per_layer[m["name"]]["values"]), "unit": m["unit"]}
                   for m in declared["per_layer"]}
    else:
        per_layer = {}
        shown = None
        print(f"{workload.name}, seed {args.seed}: {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}")
        for key, s in stats.items():
            print(f"{'':<{len(workload.name) + 10}}{key:<14}{s['median']:>12.4f}{s['q1']:>12.4f}"
                  f"{s['q3']:>12.4f}{s['n']:>5} {units[key]}")
        metrics = {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]}
                   for m in declared["end_to_end"]}

    record = {
        "workload": workload.name,
        "why": next(w["why"] for w in declared["workloads"] if w["name"] == workload.name),
        "trace": args.trace,
        "seconds": args.seconds,
        "corpus": {"courses": courses, "threads_per_course": per_course, "threads": n_corpus,
                   "filtered_threads": n_threads, **GEN_KNOBS},
        "environment": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "end_to_end": {key: {**s, "unit": units[key]} for key, s in stats.items()},
        "raw_times": raw,
        "per_layer": {key: {**s, "unit": units[key]} for key, s in per_layer.items()},
        "self_time_table": shown["table"] if shown else None,
        "runs": runner.records,
    }
    (OUT / f"result-{workload.name}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), "utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
