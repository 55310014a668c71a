"""Evaluation protocols: in-domain stratified k-fold CV and leave-one-out
cross-course validation, with the aggregation semantics used for reporting.

Positive-class precision/recall/F1 are reported on a 0-100 scale. Aggregate
rows combine per-course precision and recall first and derive F1 from those
means (not the mean of per-course F1 values). In-domain course metrics pool
confusion counts over folds by default, which is what permits exactly-zero
rows for courses whose positives are too sparse to ever be predicted.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Label, Thread, by_course
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
    if not per_course:
        raise ValueError("no course metrics to average")
    p = sum(m.precision for m in per_course) / len(per_course)
    r = sum(m.recall for m in per_course) / len(per_course)
    return Metrics(precision=p, recall=r, f1=f1_from_pr(p, r))


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
    permuting the input order cannot change the folds. A k above the thread
    count returns as many folds as threads, since the rest would be empty.
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


def significance(
    scores_a: list[float], scores_b: list[float], n_rounds: int = 10000, seed: int = 0
) -> float:
    """Two-sided approximate-randomization p-value for paired score lists."""
    if len(scores_a) != len(scores_b):
        raise ValueError("paired score lists must have equal length")
    if not scores_a:
        raise ValueError("empty score lists")
    d = np.asarray(scores_a, dtype=float) - np.asarray(scores_b, dtype=float)
    observed = abs(float(d.mean()))
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_rounds, d.size)) * 2 - 1
    stats = np.abs((signs * d).mean(axis=1))
    count = int(np.sum(stats >= observed - 1e-12))
    return (count + 1) / (n_rounds + 1)


@dataclass
class CourseResult:
    course_id: str
    n_threads: int
    counts: ConfusionCounts
    metrics: Metrics
    fold_counts: tuple[ConfusionCounts, ...] = ()
    vocabulary_sizes: tuple[int, ...] = ()


@dataclass
class EvalReport:
    regime: str  # "in-domain" | "ccv"
    feature_config: str
    config: dict
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
    tp = sum(1 for y, p in pairs if y == 1 and p == 1)
    fp = sum(1 for y, p in pairs if y == 0 and p == 1)
    fn = sum(1 for y, p in pairs if y == 1 and p == 0)
    tn = sum(1 for y, p in pairs if y == 0 and p == 0)
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


def _fit_and_score(
    fold: tuple[str, int, int],
    train_threads: list[Thread],
    test_threads: list[Thread],
    feature_config: str,
    tags: ConnectiveLexicon | TagImport | None,
    train_config: TrainConfig,
    unigram_mode: str,
) -> tuple[ConfusionCounts, int, bool]:
    """Fit on one split and score its test side; the flag marks a training
    split of fewer than two classes, which is not fit: its test threads all
    get the training class, or not-intervened when the split is empty. The log
    line names the ``fold``: (course id, split number, split count)."""
    vocabulary = build_vocabulary(train_threads) if feature_config in LEXICAL_CONFIGS else None
    kwargs = dict(vocabulary=vocabulary, tags=tags, unigram_mode=unigram_mode)
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


def _evaluate(
    regime, plan, feature_config, tags, train_config, unigram_mode, fold_mode="pooled", extra_config=None,
) -> EvalReport:
    """Score a plan of ``(course_id, n_threads, [(train, test), ...])`` entries
    in course order. A course's counts pool over its splits;
    ``fold_mode="mean"`` averages split metrics.
    """
    if fold_mode not in ("pooled", "mean"):
        raise ValueError(f"unknown fold metric mode {fold_mode!r}")
    per_course = []
    for course_id, n_threads, splits in plan:
        scored = [
            _fit_and_score((course_id, i, len(splits)), train, test, feature_config, tags, train_config, unigram_mode)
            for i, (train, test) in enumerate(splits, 1)
        ]
        fold_counts, sizes, degenerate = zip(*scored)
        if any(degenerate):
            logger.warning("course %s: %d of %d training splits hold one class or none; their test threads "
                           "get that class, or not-intervened", course_id, sum(degenerate), len(scored))
        pooled = sum(fold_counts, ConfusionCounts())
        metrics = macro_average([prf1(c) for c in fold_counts]) if fold_mode == "mean" else prf1(pooled)
        per_course.append(CourseResult(course_id, n_threads, pooled, metrics, fold_counts, sizes))
    metrics = [c.metrics for c in per_course]
    config = {"features": feature_config, "regime": regime, **asdict(train_config), **(extra_config or {})}
    report = EvalReport(
        regime, feature_config, config, per_course,
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
    fold_mode: str = "pooled",
    unigram_mode: str = "counts",
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
    return _evaluate(
        "in-domain", plan, feature_config, tags, train_config, unigram_mode,
        fold_mode=fold_mode, extra_config={"k": k, "fold_metrics": fold_mode, "seed": seed},  # seed split the folds
    )


def run_loo_ccv(
    threads: list[Thread],
    feature_config: str,
    tags: ConnectiveLexicon | TagImport | None,
    train_config: TrainConfig,
    jobs: int = 1,  # accepted and ignored: evaluation runs serially
    unigram_mode: str = "counts",
) -> EvalReport:
    """Leave-one-course-out: train on all other courses, test on the held-out one."""
    grouped = by_course(threads)
    if len(grouped) < 2:
        raise ValueError("cross-course validation needs at least 2 courses")
    plan = [
        (cid, len(test), [([t for other, ts in grouped.items() if other != cid for t in ts], test)])
        for cid, test in grouped.items()
    ]
    return _evaluate("ccv", plan, feature_config, tags, train_config, unigram_mode)


def render_records(report: EvalReport) -> str:
    """Machine-readable JSONL rendering (deterministic)."""
    verify_report(report)
    lines = [json.dumps({"row": "config", **report.config}, sort_keys=True)]
    for c in report.per_course:
        lines.append(
            json.dumps(
                {
                    "row": "course",
                    "course_id": c.course_id,
                    "n_threads": c.n_threads,
                    "tp": c.counts.tp,
                    "fp": c.counts.fp,
                    "fn": c.counts.fn,
                    "tn": c.counts.tn,
                    "precision": c.metrics.precision,
                    "recall": c.metrics.recall,
                    "f1": c.metrics.f1,
                    "vocabulary_sizes": list(c.vocabulary_sizes),
                },
                sort_keys=True,
            )
        )
    for row, m in (("macro", report.macro), ("weighted_macro", report.weighted_macro)):
        lines.append(
            json.dumps(
                {"row": row, "precision": m.precision, "recall": m.recall, "f1": m.f1},
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def render_csv(report: EvalReport) -> str:
    verify_report(report)
    lines = ["course,n_threads,precision,recall,f1"]
    for c in report.per_course:
        m = c.metrics
        lines.append(f"{c.course_id},{c.n_threads},{m.precision:.1f},{m.recall:.1f},{m.f1:.1f}")
    lines.append(
        f"macro_avg,,{report.macro.precision:.1f},{report.macro.recall:.1f},{report.macro.f1:.1f}"
    )
    m = report.weighted_macro
    lines.append(f"weighted_macro_avg,,{m.precision:.1f},{m.recall:.1f},{m.f1:.1f}")
    return "\n".join(lines) + "\n"


def render_table(report: EvalReport) -> str:
    """Aligned text table: per-course P R F1 plus the two aggregate rows."""
    verify_report(report)
    rows = [(c.course_id, c.metrics) for c in report.per_course]
    rows.append(("Macro avg.", report.macro))
    rows.append(("Weighted macro avg.", report.weighted_macro))
    name_w = max(len("Course"), max(len(name) for name, _m in rows))
    out = [
        f"{report.feature_config} / {report.regime}",
        f"{'Course':<{name_w}}  {'P':>6}  {'R':>6}  {'F1':>6}",
    ]
    for name, m in rows:
        out.append(f"{name:<{name_w}}  {m.precision:>6.1f}  {m.recall:>6.1f}  {m.f1:>6.1f}")
    return "\n".join(out) + "\n"
