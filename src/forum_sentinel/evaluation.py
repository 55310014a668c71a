"""Evaluation protocols: in-domain stratified k-fold CV and leave-one-out
cross-course validation, with the aggregation semantics used for reporting.

Positive-class precision/recall/F1 are reported on a 0-100 scale. Aggregate
rows combine per-course precision and recall first and derive F1 from those
means (not the mean of per-course F1 values). In-domain course metrics always
pool confusion counts over folds, which is what permits exactly-zero rows for
courses whose positives are too sparse to ever be predicted.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import random
from collections import Counter
from dataclasses import asdict, dataclass

from .corpus import InputError, Label, Thread, by_course
from .discourse import ConnectiveLexicon, TagImport
from .features import LEXICAL_CONFIGS, build_vocabulary, vectorize
from .model import TrainConfig, predict, train as train_model

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float


def f1_from_pr(precision: float, recall: float) -> float:
    if precision + recall <= 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def prf1(counts: ConfusionCounts) -> Metrics:
    """Positive-class precision, recall and F1 on the percentage scale."""
    p = 100.0 * counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = 100.0 * counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    return Metrics(precision=p, recall=r, f1=f1_from_pr(p, r))


def macro_average(per_course: list[Metrics]) -> Metrics:
    """Unweighted mean of P and R; F1 derived from the two means."""
    return weighted_macro_average(per_course, [1.0] * len(per_course))


def weighted_macro_average(per_course: list[Metrics], weights: list[float]) -> Metrics:
    """P and R averaged with per-course thread-count weights; F1 from the means."""
    if len(per_course) != len(weights):
        raise ValueError("metrics/weights length mismatch")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("total weight must be positive")
    p = sum(m.precision * w for m, w in zip(per_course, weights)) / total
    r = sum(m.recall * w for m, w in zip(per_course, weights)) / total
    return Metrics(precision=p, recall=r, f1=f1_from_pr(p, r))


def stratified_kfold(threads: list[Thread], k: int = 5, seed: int = 0) -> list[list[Thread]]:
    """Split threads into k folds with per-class counts differing by at most 1.

    The split is a function of the thread identities and the seed only, so
    permuting the input order cannot change the folds. There are min(k, len(threads)) folds,
    and as each class is dealt from fold 0, some can be empty: 4 threads, t0 and t1 positive,
    give [[t0, t2], [t1, t3], [], []] at k = 5. ``run_in_domain`` skips empty test folds.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    ordered = sorted(threads, key=lambda t: (t.course_id, t.thread_id))
    pos = [t for t in ordered if t.label is Label.INTERVENED]
    neg = [t for t in ordered if t.label is not Label.INTERVENED]
    rng = random.Random(seed)
    rng.shuffle(pos)
    rng.shuffle(neg)
    if 0 < len(pos) < k:
        logger.warning("only %d positives for %d folds; some folds get none", len(pos), k)
    folds: list[list[Thread]] = [[] for _ in range(min(k, len(ordered)))]
    for i, thread in enumerate(pos):
        folds[i % k].append(thread)
    for i, thread in enumerate(neg):
        folds[i % k].append(thread)
    return folds


@dataclass
class CourseResult:
    course_id: str
    n_threads: int
    counts: ConfusionCounts  # pooled over the course's splits
    vocabulary_sizes: tuple[int, ...] = ()

    @property
    def metrics(self) -> Metrics:
        return prf1(self.counts)


@dataclass
class EvalReport:
    config: dict  # holds "features" and "regime" ("in-domain" | "ccv") among the settings
    per_course: list[CourseResult]
    macro: Metrics
    weighted_macro: Metrics


def verify_report(report: EvalReport) -> None:
    """Recompute the aggregate rows from the per-course rows; raise on drift."""
    metrics = [c.metrics for c in report.per_course]
    weights = [float(c.n_threads) for c in report.per_course]
    macro = macro_average(metrics)
    weighted = weighted_macro_average(metrics, weights)
    for got, want, row in ((report.macro, macro, "macro"), (report.weighted_macro, weighted, "weighted")):
        for attr in ("precision", "recall", "f1"):
            if abs(getattr(got, attr) - getattr(want, attr)) > 1e-9:
                raise AssertionError(f"{row} {attr} row is not recomputable from per-course rows")


def _confusion_from_predictions(pairs: list[tuple[int, int]]) -> ConfusionCounts:
    """Count (label, prediction) pairs in one pass."""
    seen = Counter(pairs)
    return ConfusionCounts(tp=seen[1, 1], fp=seen[0, 1], fn=seen[1, 0], tn=seen[0, 0])


def _fit_and_score(
    fold: tuple[str, int, int],
    train_threads: list[Thread],
    test_threads: list[Thread],
    feature_config: str,
    tags: ConnectiveLexicon | TagImport | None,
    train_config: TrainConfig,
) -> tuple[ConfusionCounts, int, bool]:
    """Fit on one split and score its test side; the flag marks a training
    split of fewer than two classes, which is not fit: its test threads all
    get the training class, or not-intervened when the split is empty. The log
    line names the ``fold``: (course id, split number, split count)."""
    vocabulary = build_vocabulary(train_threads) if feature_config in LEXICAL_CONFIGS else None
    kwargs = dict(vocabulary=vocabulary, tags=tags)
    train_data = vectorize(train_threads, feature_config, **kwargs)
    classes = {label for _vec, label in train_data}
    degenerate = len(classes) < 2
    fitted = None if degenerate else train_model(train_data, train_config)
    test_data = vectorize(test_threads, feature_config, **kwargs)
    fallback = max(classes, default=0)
    pairs = [(label, fallback if degenerate else predict(fitted, vec)) for vec, label in test_data]
    size = vocabulary.size if vocabulary else 0
    fit = "degenerate" if degenerate else f"{fitted.n_iterations} iterations, converged={fitted.converged}"
    logger.info("course %s split %d of %d: %d train / %d test threads, vocabulary %d, %s",
                *fold, len(train_threads), len(test_threads), size, fit)
    return _confusion_from_predictions(pairs), size, degenerate


def _evaluate(regime, plan, feature_config, tags, train_config, extra_config=None) -> EvalReport:
    """Score a plan of ``(course_id, n_threads, [(train, test), ...])`` entries
    in course order. A course's counts pool over its splits."""
    per_course = []
    for course_id, n_threads, splits in plan:
        scored = [
            _fit_and_score((course_id, i, len(splits)), train, test, feature_config, tags, train_config)
            for i, (train, test) in enumerate(splits, 1)
        ]
        fold_counts, sizes, degenerate = zip(*scored)
        if any(degenerate):
            logger.warning("course %s: %d of %d training splits hold one class or none; their test threads "
                           "get that class, or not-intervened", course_id, sum(degenerate), len(scored))
        per_course.append(CourseResult(course_id, n_threads, sum(fold_counts, ConfusionCounts()), sizes))
    metrics = [c.metrics for c in per_course]
    config = {"features": feature_config, "regime": regime, **asdict(train_config), **(extra_config or {})}
    report = EvalReport(
        config, per_course,
        macro=macro_average(metrics),
        weighted_macro=weighted_macro_average(metrics, [float(c.n_threads) for c in per_course]),
    )
    verify_report(report)
    return report


def run_in_domain(
    threads: list[Thread],
    feature_config: str,
    tags: ConnectiveLexicon | TagImport | None,
    train_config: TrainConfig,
    k: int = 5,
    seed: int = 0,
    jobs: int = 1,  # accepted and ignored: evaluation runs serially
) -> EvalReport:
    """Stratified k-fold cross validation run separately within each course."""
    plan = []
    for cid, course_threads in by_course(threads).items():
        folds = stratified_kfold(course_threads, k=k, seed=seed)
        splits = [
            ([t for j, fold in enumerate(folds) if j != i for t in fold], test_fold)
            for i, test_fold in enumerate(folds)
            if test_fold
        ]
        plan.append((cid, len(course_threads), splits))
    # "fold_metrics" names the one aggregation; the seed split the folds
    return _evaluate(
        "in-domain", plan, feature_config, tags, train_config,
        extra_config={"k": k, "fold_metrics": "pooled", "seed": seed},
    )


def run_loo_ccv(
    threads: list[Thread],
    feature_config: str,
    tags: ConnectiveLexicon | TagImport | None,
    train_config: TrainConfig,
    jobs: int = 1,  # accepted and ignored: evaluation runs serially
) -> EvalReport:
    """Leave-one-course-out: train on all other courses, test on the held-out one."""
    grouped = by_course(threads)
    if len(grouped) < 2:
        raise InputError("cross-course validation needs at least 2 courses")
    plan = [
        (cid, len(test), [([t for other, ts in grouped.items() if other != cid for t in ts], test)])
        for cid, test in grouped.items()
    ]
    return _evaluate("ccv", plan, feature_config, tags, train_config)


def render_records(report: EvalReport) -> str:
    """Machine-readable JSONL rendering (deterministic)."""
    verify_report(report)
    lines = [json.dumps({"row": "config", **report.config}, sort_keys=True)]
    for c in report.per_course:
        row = {"row": "course", "course_id": c.course_id, "n_threads": c.n_threads,
               "vocabulary_sizes": list(c.vocabulary_sizes), **asdict(c.counts), **asdict(c.metrics)}
        lines.append(json.dumps(row, sort_keys=True))
    for row, m in (("macro", report.macro), ("weighted_macro", report.weighted_macro)):
        lines.append(json.dumps({"row": row, **asdict(m)}, sort_keys=True))
    return "\n".join(lines) + "\n"


def render_csv(report: EvalReport) -> str:
    verify_report(report)
    rows = [(c.course_id, c.n_threads, c.metrics) for c in report.per_course]
    rows += [("macro_avg", "", report.macro), ("weighted_macro_avg", "", report.weighted_macro)]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["course", "n_threads", "precision", "recall", "f1"])
    for name, n_threads, m in rows:
        writer.writerow([name, n_threads, f"{m.precision:.1f}", f"{m.recall:.1f}", f"{m.f1:.1f}"])
    return out.getvalue()


def render_table(report: EvalReport) -> str:
    """Aligned text table: per-course P R F1 plus the two aggregate rows."""
    verify_report(report)
    rows = [(c.course_id, c.metrics) for c in report.per_course]
    rows.append(("Macro avg.", report.macro))
    rows.append(("Weighted macro avg.", report.weighted_macro))
    name_w = max(len("Course"), max(len(name) for name, _m in rows))
    out = [
        f"{report.config['features']} / {report.config['regime']}",
        f"{'Course':<{name_w}}  {'P':>6}  {'R':>6}  {'F1':>6}",
    ]
    for name, m in rows:
        out.append(f"{name:<{name_w}}  {m.precision:>6.1f}  {m.recall:>6.1f}  {m.f1:>6.1f}")
    return "\n".join(out) + "\n"
