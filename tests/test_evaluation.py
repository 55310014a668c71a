from __future__ import annotations

import csv
import json
import logging
import random
import re
from dataclasses import replace

import pytest

from forum_sentinel import evaluation
from forum_sentinel.cli import main
from forum_sentinel.corpus import Label, filter_and_label, load_corpus
from forum_sentinel.discourse import load_lexicon
from forum_sentinel.evaluation import (
    ConfusionCounts,
    Metrics,
    f1_from_pr,
    macro_average,
    prf1,
    render_csv,
    render_records,
    render_table,
    run_in_domain,
    run_loo_ccv,
    stratified_kfold,
    verify_report,
    weighted_macro_average,
)
from forum_sentinel.features import build_vocabulary
from forum_sentinel.model import TrainConfig
from forum_sentinel.syngen import GenSpec, generate, generate_threads
from forum_sentinel.textprep import content_filter
from forum_sentinel.features import prepare_thread

from conftest import make_thread
from reference_scores import CCV_BASELINE_PR, COURSE_TOTAL_THREADS, IN_DOMAIN_BASELINE_PR


class TestPrf1:
    def test_f1_from_published_pr(self):
        assert f1_from_pr(25.0, 33.1) == pytest.approx(28.5, abs=0.05)

    def test_all_zero_row(self):
        m = prf1(ConfusionCounts(tp=0, fp=0, fn=3, tn=50))
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)

    def test_balanced_counts(self):
        m = prf1(ConfusionCounts(tp=5, fp=5, fn=5, tn=0))
        assert (m.precision, m.recall, m.f1) == (50.0, 50.0, 50.0)

    def test_f1_between_p_and_r(self):
        rng = random.Random(0)
        for _ in range(200):
            m = prf1(
                ConfusionCounts(
                    tp=rng.randint(1, 50), fp=rng.randint(0, 50),
                    fn=rng.randint(0, 50), tn=rng.randint(0, 50),
                )
            )
            if m.precision > 0 and m.recall > 0:
                assert min(m.precision, m.recall) <= m.f1 <= max(m.precision, m.recall)

    def test_confusion_counts_each_label_prediction_pair(self):
        rng = random.Random(4)
        for n in (0, 1, 7, 200):
            pairs = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n)]
            want = [sum(1 for pair in pairs if pair == cell) for cell in ((1, 1), (0, 1), (1, 0), (0, 0))]
            got = evaluation._confusion_from_predictions(pairs)
            assert [got.tp, got.fp, got.fn, got.tn] == want


class TestAggregation:
    def test_ccv_macro_row(self):
        metrics = [Metrics(p, r, f1_from_pr(p, r)) for _c, p, r in CCV_BASELINE_PR]
        macro = macro_average(metrics)
        assert macro.precision == pytest.approx(41.8, abs=0.05)
        assert macro.recall == pytest.approx(26.7, abs=0.05)
        assert macro.f1 == pytest.approx(32.6, abs=0.05)

    def test_ccv_weighted_row(self):
        metrics = [Metrics(p, r, f1_from_pr(p, r)) for _c, p, r in CCV_BASELINE_PR]
        weights = [float(COURSE_TOTAL_THREADS[c]) for c, _p, _r in CCV_BASELINE_PR]
        weighted = weighted_macro_average(metrics, weights)
        assert weighted.precision == pytest.approx(42.7, abs=0.1)
        assert weighted.recall == pytest.approx(29.3, abs=0.5)

    def test_in_domain_macro_row(self):
        metrics = [Metrics(p, r, f1_from_pr(p, r)) for _c, p, r in IN_DOMAIN_BASELINE_PR]
        macro = macro_average(metrics)
        assert macro.precision == pytest.approx(30.4, abs=0.05)
        assert macro.recall == pytest.approx(29.6, abs=0.05)
        assert macro.f1 == pytest.approx(30.0, abs=0.05)

    def test_macro_differs_from_mean_of_f1(self):
        # the aggregate F1 is not the average of per-course F1 values
        metrics = [Metrics(p, r, f1_from_pr(p, r)) for _c, p, r in CCV_BASELINE_PR]
        mean_f1 = sum(m.f1 for m in metrics) / len(metrics)
        assert abs(macro_average(metrics).f1 - mean_f1) > 2.0

    def test_single_course(self):
        m = Metrics(40.0, 20.0, f1_from_pr(40.0, 20.0))
        macro = macro_average([m])
        assert macro == m

    def test_equal_weights_match_macro(self):
        metrics = [Metrics(10, 20, f1_from_pr(10, 20)), Metrics(30, 40, f1_from_pr(30, 40))]
        assert weighted_macro_average(metrics, [2.0, 2.0]) == macro_average(metrics)

    def test_all_weight_on_one_course(self):
        metrics = [Metrics(10, 20, f1_from_pr(10, 20)), Metrics(30, 40, f1_from_pr(30, 40))]
        assert weighted_macro_average(metrics, [0.0, 5.0]) == metrics[1]

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            weighted_macro_average([Metrics(1, 1, 1)], [0.0])


class TestStratifiedKfold:
    def _course(self, n_pos, n_neg):
        threads = []
        for i in range(n_pos):
            threads.append(make_thread(["student", "instructor"], tid=f"pos{i}"))
        for i in range(n_neg):
            threads.append(make_thread(["student"], tid=f"neg{i}"))
        return threads

    def test_sparse_positives_spread_three_to_four(self):
        threads = self._course(17, 155)
        folds = stratified_kfold(threads, k=5, seed=0)
        per_fold = [sum(1 for t in f if t.label is Label.INTERVENED) for f in folds]
        assert sorted(per_fold) == [3, 3, 3, 4, 4]

    def test_balanced_small(self):
        folds = stratified_kfold(self._course(10, 10), k=5, seed=1)
        for fold in folds:
            assert sum(1 for t in fold if t.label is Label.INTERVENED) == 2
            assert sum(1 for t in fold if t.label is not Label.INTERVENED) == 2

    def test_input_order_invariance(self):
        threads = self._course(6, 20)
        shuffled = list(threads)
        random.Random(42).shuffle(shuffled)
        a = stratified_kfold(threads, k=5, seed=7)
        b = stratified_kfold(shuffled, k=5, seed=7)
        assert [{t.thread_id for t in f} for f in a] == [{t.thread_id for t in f} for f in b]

    def test_partition(self):
        threads = self._course(5, 13)
        folds = stratified_kfold(threads, k=4, seed=3)
        ids = [t.thread_id for f in folds for t in f]
        assert sorted(ids) == sorted(t.thread_id for t in threads)
        assert len(set(ids)) == len(ids)

    def test_fewer_positives_than_k_proceeds(self, caplog):
        folds = stratified_kfold(self._course(2, 20), k=5, seed=0)
        per_fold = [sum(1 for t in f if t.label is Label.INTERVENED) for f in folds]
        assert sum(per_fold) == 2 and 0 in per_fold

    def test_k_above_thread_count_gives_one_fold_per_thread(self):
        threads = self._course(2, 3)
        folds = stratified_kfold(threads, k=10**12, seed=0)  # would not fit in memory as empty lists
        assert len(folds) == 5
        assert sorted(t.thread_id for f in folds for t in f) == sorted(t.thread_id for t in threads)

    def test_k_above_thread_count_can_leave_folds_empty(self, caplog):
        threads = self._course(2, 2)
        folds = stratified_kfold(threads, k=5, seed=0)
        assert [[t.label is Label.INTERVENED for t in f] for f in folds] == [[True, False], [True, False], [], []]
        with caplog.at_level(logging.INFO, logger="forum_sentinel.evaluation"):
            report = run_in_domain(threads, "pdtb", load_lexicon(), TrainConfig(), k=5, seed=0)
        splits = [r.getMessage() for r in caplog.records if " split " in r.getMessage()]
        assert len(splits) == 2 and all("of 2: 2 train / 2 test threads" in m for m in splits)
        assert sum(vars(report.per_course[0].counts).values()) == 4

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(self._course(2, 2), k=1)


def _syn_threads(n_courses=2, threads_per_course=60, disjointness=1.0, signal=0.9, seed=4, ratio=0.3):
    spec = GenSpec(
        n_courses=n_courses,
        threads_per_course=threads_per_course,
        intervention_ratio=ratio,
        vocabulary_disjointness=disjointness,
        discourse_signal_strength=signal,
        seed=seed,
    )
    return filter_and_label(generate_threads(spec))


class TestProtocols:
    def test_loo_ccv_leakage_free_vocabulary(self):
        threads = _syn_threads()
        courses = sorted({t.course_id for t in threads})
        for held_out in courses:
            train = [t for t in threads if t.course_id != held_out]
            held = [t for t in threads if t.course_id == held_out]
            vocab = build_vocabulary(train)
            held_tokens = set()
            for t in held:
                for tok in prepare_thread(t):
                    held_tokens.update(content_filter(tok.tokens))
            train_tokens = set()
            for t in train:
                for tok in prepare_thread(t):
                    train_tokens.update(content_filter(tok.tokens))
            unique_to_held = held_tokens - train_tokens
            assert vocab.index.keys().isdisjoint(unique_to_held)

    def test_loo_course_order_invariance(self):
        threads = _syn_threads()
        report_a = run_loo_ccv(threads, "pdtb", load_lexicon(), TrainConfig())
        report_b = run_loo_ccv(list(reversed(threads)), "pdtb", load_lexicon(), TrainConfig())
        assert render_records(report_a) == render_records(report_b)

    def test_loo_needs_two_courses(self):
        threads = [t for t in _syn_threads() if t.course_id == "SYN-0"]
        with pytest.raises(ValueError, match="2 courses"):
            run_loo_ccv(threads, "pdtb", load_lexicon(), TrainConfig())

    def test_in_domain_report_self_consistent(self):
        threads = _syn_threads()
        report = run_in_domain(threads, "pdtb", load_lexicon(), TrainConfig(), k=5, seed=0)
        verify_report(report)
        assert {c.course_id for c in report.per_course} == {"SYN-0", "SYN-1"}
        for course in report.per_course:
            assert course.counts.total == course.n_threads

    def test_in_domain_report_records_the_fold_seed(self):
        threads = _syn_threads(n_courses=1)
        report = run_in_domain(threads, "pdtb", load_lexicon(), TrainConfig(seed=0), k=3, seed=1)
        assert report.config["seed"] == 1

    def test_tampered_report_detected(self):
        threads = _syn_threads()
        report = run_in_domain(threads, "pdtb", load_lexicon(), TrainConfig(), k=5, seed=0)
        report.macro = Metrics(1.0, 2.0, 3.0)
        with pytest.raises(AssertionError, match="not recomputable"):
            verify_report(report)
        with pytest.raises(AssertionError):
            render_records(report)

    def test_each_split_logs_one_line_naming_its_fold(self, caplog):
        threads = _syn_threads()
        with caplog.at_level(logging.INFO, logger="forum_sentinel.evaluation"):
            report = run_loo_ccv(threads, "edm15", load_lexicon(), TrainConfig())
        lines = [r.getMessage() for r in caplog.records if r.name == "forum_sentinel.evaluation"]
        assert len(lines) == len(report.per_course) == 2
        for course, line in zip(report.per_course, lines):
            head = (f"course {course.course_id} split 1 of 1: {len(threads) - course.n_threads} train / "
                    f"{course.n_threads} test threads, vocabulary {course.vocabulary_sizes[0]}, ")
            assert re.fullmatch(re.escape(head) + r"\d+ iterations, converged=True", line), line

    def test_one_class_split_logs_degenerate(self, caplog):
        negatives = [t for t in _syn_threads(n_courses=1) if t.label is not Label.INTERVENED]
        with caplog.at_level(logging.INFO, logger="forum_sentinel.evaluation"):
            evaluation._fit_and_score(
                ("SYN-0", 2, 5), negatives[:10], negatives[10:12], "pdtb", load_lexicon(), TrainConfig()
            )
        assert caplog.records[-1].getMessage() == (
            "course SYN-0 split 2 of 5: 10 train / 2 test threads, vocabulary 0, degenerate"
        )

    def test_renderers_are_deterministic(self):
        threads = _syn_threads()
        report = run_loo_ccv(threads, "pdtb", load_lexicon(), TrainConfig())
        assert render_records(report) == render_records(report)
        assert render_csv(report).startswith("course,")
        table = render_table(report)
        assert "Macro avg." in table and "Weighted macro avg." in table

    def test_csv_course_ids_with_commas_and_quotes_read_back(self):
        threads = [replace(t, course_id=f'SYN,"x"-{t.course_id[-1]}') for t in _syn_threads()]
        report = run_loo_ccv(threads, "pdtb", load_lexicon(), TrainConfig())
        rows = list(csv.reader(render_csv(report).splitlines()))
        assert [len(row) for row in rows] == [5] * (len(report.per_course) + 3)
        assert [row[0] for row in rows[1:-2]] == ['SYN,"x"-0', 'SYN,"x"-1']
        for row, course in zip(rows[1:], report.per_course):
            m = course.metrics
            assert row[1:] == [str(course.n_threads), f"{m.precision:.1f}", f"{m.recall:.1f}", f"{m.f1:.1f}"]


def test_single_class_training_split_is_scored_not_fatal(tmp_path, caplog, capsys):
    # SYN-0 keeps one intervened thread, so the split that tests it trains on negatives only
    full = tmp_path / "full.jsonl"
    generate(GenSpec(n_courses=2, threads_per_course=40, intervention_ratio=0.25,
                     vocabulary_disjointness=0.5, discourse_signal_strength=0.6, seed=3), full)
    intervened = sorted(t.thread_id for t in filter_and_label(load_corpus(full).threads)
                        if t.course_id == "SYN-0" and t.label is Label.INTERVENED)
    assert len(intervened) > 1
    records = [json.loads(line) for line in full.read_text("utf-8").splitlines()]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records
                              if r["course_id"] != "SYN-0" or r["thread_id"] not in intervened[1:]), "utf-8")
    threads = filter_and_label(load_corpus(corpus).threads)
    with caplog.at_level(logging.WARNING, logger="forum_sentinel.evaluation"):
        report = run_in_domain(threads, "pdtb", load_lexicon(), TrainConfig(), k=5, seed=0)
    verify_report(report)
    sparse = report.per_course[0]
    assert sparse.course_id == "SYN-0"
    assert sparse.counts.total == sparse.n_threads
    assert sparse.counts.tp + sparse.counts.fn == 1
    assert "course SYN-0: 1 of 5 training splits hold one class" in caplog.text
    argv = ["eval", "--corpus", str(corpus), "--features", "pdtb", "--regime", "in-domain",
            "--emit", "records", "--out", str(tmp_path / "o")]
    assert main(argv) == 0


@pytest.mark.parametrize("config", ["pdtb", "eplusp"])
def test_empty_training_split_is_scored_not_fatal(config, tmp_path, caplog, capsys):
    # SYN-0 keeps one thread, so its only in-domain split trains on nothing
    full = tmp_path / "full.jsonl"
    generate(GenSpec(n_courses=2, threads_per_course=40, intervention_ratio=0.25,
                     vocabulary_disjointness=0.5, discourse_signal_strength=0.6, seed=3), full)
    kept = min(t.thread_id for t in filter_and_label(load_corpus(full).threads) if t.course_id == "SYN-0")
    records = [json.loads(line) for line in full.read_text("utf-8").splitlines()]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records
                              if r["course_id"] != "SYN-0" or r["thread_id"] == kept), "utf-8")
    threads = filter_and_label(load_corpus(corpus).threads)
    with caplog.at_level(logging.WARNING, logger="forum_sentinel.evaluation"):
        report = run_in_domain(threads, config, load_lexicon(), TrainConfig(), k=5, seed=0)
    verify_report(report)
    sparse = report.per_course[0]
    assert (sparse.course_id, sparse.n_threads) == ("SYN-0", 1)
    assert sparse.counts.total == 1
    assert sparse.vocabulary_sizes == (0,)
    assert "course SYN-0: 1 of 1 training splits hold one class or none" in caplog.text
    argv = ["eval", "--corpus", str(corpus), "--features", config, "--regime", "in-domain",
            "--emit", "records", "--out", str(tmp_path / "o")]
    assert main(argv) == 0
