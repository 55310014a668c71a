"""Run one workload once, in this process, and write its measurements as JSON.

    python3 perfbench/execute.py --workload NAME --corpus FILE --courses C \
        --threads N --out DIR --result FILE [--spans FILE]

``run.py`` starts one fresh process per measured run, so every run pays the
imports, the cold ``prepare_thread`` cache and the lazy lexicon and stopword
loads, as a CLI user does. Wall and CPU time cover the CLI commands, from
reading the corpus to the written report or model; CPU time is user plus
system time of every thread of the process, BLAS threads included. The
reference loop of ``speed.py`` is timed just before and just after.

With ``--spans`` the run is traced: module attributes through which each
layer is called are wrapped to record spans (see ``spans.py``), the spans are
written to that file after the run, and the per-layer metrics go into the
result. Output checks run after the measured part and never abort the run;
their failures are listed in the result.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scipy.optimize  # noqa: E402

from forum_sentinel import cli, evaluation, features  # noqa: E402
from forum_sentinel.evaluation import ConfusionCounts, macro_average, prf1  # noqa: E402
from forum_sentinel.model import load_model, predict, save_model  # noqa: E402
from spans import Tracer, by_name  # noqa: E402
from speed import reference_loops  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

IMPORT_S = time.perf_counter() - _START

# (module, attribute, span name); the span name's first part is the layer
TRACED = (
    (cli, "cmd_eval", "cli.eval"),
    (cli, "cmd_featurize", "cli.featurize"),
    (cli, "cmd_train", "cli.train"),
    (cli, "load_feature_dump", "cli.load_dump"),
    (cli, "load_corpus", "corpus.load"),
    (cli, "filter_and_label", "corpus.filter"),
    (cli, "load_lexicon", "discourse.load_lexicon"),
    (cli, "build_vocabulary", "features.vocab"),
    (cli, "vectorize", "features.vectorize"),
    (cli, "train", "model.train"),
    (cli, "save_model", "model.save"),
    (evaluation, "run_in_domain", "evaluation.run"),
    (evaluation, "run_loo_ccv", "evaluation.run"),
    (evaluation, "render_records", "evaluation.render"),
    (evaluation, "build_vocabulary", "features.vocab"),
    (evaluation, "vectorize", "features.vectorize"),
    (evaluation, "train_model", "model.train"),
    (evaluation, "predict", "model.predict"),
    (features, "prepare_thread", "textprep.prepare"),
    (features, "tag_thread", "discourse.tag"),
    (scipy.optimize, "minimize", "model.optimize"),
)


class Counters:
    """Counts taken from return values at the traced boundaries."""

    def __init__(self):
        self.rows = 0
        self.nnz = 0
        self.dims = 0
        self.iterations = 0
        self.unconverged = 0

    def on_vectors(self, data) -> None:
        self.rows += len(data)
        self.nnz += sum(len(vec.values) for vec, _label in data)
        if data:
            self.dims = max(self.dims, len(data[0][0].space))

    def on_model(self, model) -> None:
        self.iterations += model.n_iterations
        self.unconverged += not model.converged


def _capture_reports(captured: list) -> None:
    for attr in ("run_in_domain", "run_loo_ccv"):
        fn = getattr(evaluation, attr)

        def keep(*args, _fn=fn, **kwargs):
            report = _fn(*args, **kwargs)
            captured.append(report)
            return report

        setattr(evaluation, attr, keep)


def _install_tracer(tracer: Tracer, counters: Counters) -> None:
    hooks = {
        "features.vectorize": counters.on_vectors,
        "model.train": counters.on_model,
    }
    for owner, attr, name in TRACED:
        tracer.wrap(owner, attr, name, on_result=hooks.get(name))


def _argv(command: tuple[str, ...], corpus: Path, out: Path) -> list[str]:
    if command[0] == "train":
        return [*command, "--features-file", str(out / "features.tsv"), "--out", str(out)]
    return [*command, "--corpus", str(corpus), "--out", str(out)]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def fit_tail_percentile(n_fits: int) -> int:
    """Highest whole percentile with at least ten fits beyond it, never below p50."""
    return max(50, int(100 * (1 - 10 / n_fits)))


def layer_metrics(spans, counters: Counters, prepare_info, n_threads: int, out: Path) -> dict:
    rows = by_name(spans)

    def total(name):
        return rows[name]["total_ns"] / 1e9 if name in rows else 0.0

    def own(name):
        return rows[name]["self_ns"] / 1e9 if name in rows else 0.0

    def calls(name):
        return rows[name]["calls"] if name in rows else 0

    names = [s[0] for s in spans]
    folds = sum(1 for name, _s, _e, parent in spans if name == "model.train" and parent >= 0
                and names[parent] == "evaluation.run")
    fits = sorted(rows["model.train"]["durations_ns"]) if "model.train" in rows else [0]
    tail_pct = fit_tail_percentile(len(fits))
    prepare_calls = prepare_info.hits + prepare_info.misses
    dump = out / "features.tsv"
    return {
        "corpus.load_s": total("corpus.load"),
        "corpus.filter_s": total("corpus.filter"),
        "textprep.prepare_calls": prepare_calls,
        "textprep.prepare_misses": prepare_info.misses,
        "textprep.prepare_useful_ratio": prepare_info.misses / prepare_calls if prepare_calls else 0.0,
        "textprep.prepare_s": total("textprep.prepare"),
        "discourse.tag_calls": calls("discourse.tag"),
        "discourse.tag_s": total("discourse.tag"),
        "discourse.tags_per_thread": calls("discourse.tag") / n_threads,
        "features.vocab_calls": calls("features.vocab"),
        "features.vocab_s": total("features.vocab"),
        "features.vectorize_s": total("features.vectorize"),
        "features.vectorize_self_s": own("features.vectorize"),
        "features.rows": counters.rows,
        "features.rows_per_thread": counters.rows / n_threads,
        "features.nnz": counters.nnz,
        "features.dims": counters.dims,
        "model.train_calls": calls("model.train"),
        "model.train_s": total("model.train"),
        "model.optimize_s": total("model.optimize"),
        "model.train_self_s": own("model.train"),
        "model.iterations": counters.iterations,
        "model.unconverged": counters.unconverged,
        "model.predict_s": total("model.predict"),
        "model.save_s": total("model.save"),
        "model.fit_p50_s": _percentile(fits, 50) / 1e9,
        "model.fit_tail_s": _percentile(fits, tail_pct) / 1e9,
        "evaluation.folds": folds,
        "evaluation.run_s": total("evaluation.run"),
        "evaluation.self_s": own("evaluation.run"),
        "evaluation.render_s": total("evaluation.render"),
        "cli.featurize_s": total("cli.featurize"),
        "cli.dump_bytes": dump.stat().st_size if dump.exists() else 0,
        "cli.load_dump_s": total("cli.load_dump"),
        "cli.train_s": total("cli.train"),
        "trace.wall_s": total("run"),
        "trace.spans": len(spans),
    }


def self_time_table(spans) -> list[dict]:
    return [
        {
            "span": name,
            "layer": name.split(".")[0],
            "calls": row["calls"],
            "total_s": row["total_ns"] / 1e9,
            "self_s": row["self_ns"] / 1e9,
        }
        for name, row in sorted(by_name(spans).items())
    ]


def _macro_f1_in_sample(dump_rows, model) -> float:
    """Macro F1 over courses of the saved model on its own training dump."""
    counts: dict[str, ConfusionCounts] = defaultdict(ConfusionCounts)
    for course_id, _thread_id, vec, label in dump_rows:
        guess = predict(model, vec)
        counts[course_id] += ConfusionCounts(
            tp=int(label == 1 and guess == 1), fp=int(label == 0 and guess == 1),
            fn=int(label == 1 and guess == 0), tn=int(label == 0 and guess == 0),
        )
    return macro_average([prf1(c) for _course, c in sorted(counts.items())]).f1


def check_eval(reports: list, failures: list[str]) -> float | None:
    if len(reports) != 1:
        failures.append(f"expected one evaluation report, got {len(reports)}")
        return None
    try:
        evaluation.verify_report(reports[0])
    except AssertionError as exc:
        failures.append(f"verify_report: {exc}")
    return reports[0].macro.f1


def check_featurize_train(out: Path, n_threads: int, failures: list[str]) -> float:
    space, dump_rows = cli.load_feature_dump(out / "features.tsv")
    if len(dump_rows) != n_threads:
        failures.append(f"dump has {len(dump_rows)} rows for {n_threads} filtered threads")
    model = load_model(out / "model.txt")
    save_model(model, out / "model.roundtrip.txt")
    if (out / "model.roundtrip.txt").read_bytes() != (out / "model.txt").read_bytes():
        failures.append("load_model/save_model does not round-trip the saved model")
    if model.feature_space.provenance != space.provenance:
        failures.append("model space provenance differs from the feature dump header")
    return _macro_f1_in_sample(dump_rows, model)


def check_trace(workload: Workload, layers: dict, n_courses: int, n_threads: int, failures: list[str]) -> None:
    per_thread = workload.rows_per_thread(n_courses)
    for key in ("features.rows", "discourse.tag_calls"):
        if layers[key] != per_thread * n_threads:
            failures.append(f"{key} is {layers[key]}, expected {per_thread} x {n_threads} threads")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--corpus", required=True, type=Path)
    parser.add_argument("--courses", required=True, type=int)
    parser.add_argument("--threads", required=True, type=int, help="filtered thread count")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="trace the run and write its spans here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)

    reports: list = []
    _capture_reports(reports)
    tracer = counters = None
    prepare_thread = features.prepare_thread  # the cached function, before any wrapping
    if args.spans:
        tracer = Tracer(run_id=f"{workload.name}-{os.getpid()}-{time.time_ns()}")
        counters = Counters()
        _install_tracer(tracer, counters)

    commands = [_argv(c, args.corpus, args.out) for c in workload.commands]
    ref_before = reference_loops()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer.span("run") if tracer else nullcontext():
        for command in commands:
            code = cli.main(command)
            if code != 0:
                raise SystemExit(f"forum-sentinel {command[0]} exited with {code}")
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_after = reference_loops()
    if tracer is not None:
        tracer.unwrap_all()  # the checks below are not part of the run

    failures: list[str] = []
    if workload.is_eval:
        macro_f1 = check_eval(reports, failures)
    else:
        macro_f1 = check_featurize_train(args.out, args.threads, failures)
    digest = hashlib.sha256()
    for name in workload.outputs:
        digest.update((args.out / name).read_bytes())
    result = {
        "workload": workload.name,
        "traced": tracer is not None,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "import_s": IMPORT_S,
        "ref_before": ref_before,
        "ref_after": ref_after,
        "macro_f1": macro_f1,
        "output_sha256": digest.hexdigest(),
        "failures": failures,
    }
    if tracer is not None:
        spans = tracer.closed_spans()
        result["layers"] = layer_metrics(spans, counters, prepare_thread.cache_info(), args.threads, args.out)
        result["table"] = self_time_table(spans)
        result["fit_tail_pct"] = fit_tail_percentile(result["layers"]["model.train_calls"] or 1)
        check_trace(workload, result["layers"], args.courses, args.threads, failures)
        tracer.write(args.spans)
    args.result.write_text(json.dumps(result, indent=1), "utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
