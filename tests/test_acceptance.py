"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a `[criterion N] PASS/FAIL` line (visible with `pytest -s`).
Criteria mix arithmetic oracles over published per-course scores, property
suites with independent oracles (finite differences, exact enumeration, a
second optimizer), and a designed synthetic domain-shift experiment.
"""

from __future__ import annotations

import functools
import random
import time

import pytest

from forum_sentinel.corpus import Label, filter_and_label
from forum_sentinel.discourse import load_lexicon
from forum_sentinel.evaluation import (
    ConfusionCounts,
    Metrics,
    f1_from_pr,
    macro_average,
    prf1,
    render_records,
    run_in_domain,
    stratified_kfold,
    verify_report,
    weighted_macro_average,
)
from forum_sentinel.experiments import run_domain_shift
from forum_sentinel.features import (
    PDTB_FEATURE_NAMES,
    build_vocabulary,
    pdtb_features,
    prepare_thread,
)
from forum_sentinel.discourse import SENSES, PostDiscourse, SenseTag, TaggedConnective, tag_post
from forum_sentinel.model import (
    MaxentModel,
    TrainConfig,
    loss_and_gradient,
    save_model,
    load_model,
    train,
)
from forum_sentinel.features import FeatureSpace, FeatureVector
from forum_sentinel.syngen import GenSpec, generate, generate_threads
from forum_sentinel.textprep import content_filter, prepare_text

from conftest import make_thread
from reference_scores import CCV_BASELINE_PR, COURSE_TOTAL_THREADS, IN_DOMAIN_BASELINE_PR

LEXICON = load_lexicon()


def criterion(num: int, desc: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {desc}")
                raise
            print(f"[criterion {num:2d}] PASS  {desc}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def domain_shift():
    start = time.monotonic()
    result = run_domain_shift(
        n_courses=4,
        threads_per_course=160,
        intervention_ratio=0.25,
        vocabulary_disjointness=1.0,
        discourse_signal_strength=0.9,
        seed=7,
    )
    return result, time.monotonic() - start


@criterion(1, "aggregation rows reproduce the published macro / weighted rows")
def test_metric_oracle():
    ccv = [Metrics(p, r, f1_from_pr(p, r)) for _c, p, r in CCV_BASELINE_PR]
    macro = macro_average(ccv)
    assert macro.precision == pytest.approx(41.8, abs=0.05)
    assert macro.recall == pytest.approx(26.7, abs=0.05)
    assert macro.f1 == pytest.approx(32.6, abs=0.05)

    weights = [float(COURSE_TOTAL_THREADS[c]) for c, _p, _r in CCV_BASELINE_PR]
    weighted = weighted_macro_average(ccv, weights)
    assert weighted.precision == pytest.approx(42.7, abs=0.1)
    assert weighted.recall == pytest.approx(29.3, abs=0.5)

    in_domain = [Metrics(p, r, f1_from_pr(p, r)) for _c, p, r in IN_DOMAIN_BASELINE_PR]
    macro_in = macro_average(in_domain)
    assert macro_in.precision == pytest.approx(30.4, abs=0.05)
    assert macro_in.recall == pytest.approx(29.6, abs=0.05)
    assert macro_in.f1 == pytest.approx(30.0, abs=0.05)


@criterion(2, "F1 composition and all-zero confusion rows")
def test_f1_oracle():
    assert f1_from_pr(25.0, 33.1) == pytest.approx(28.5, abs=0.05)
    metrics = prf1(ConfusionCounts(tp=0, fp=0, fn=17, tn=155))
    assert (metrics.precision, metrics.recall, metrics.f1) == (0.0, 0.0, 0.0)


@criterion(3, "stratification spreads 17 positives over 5 folds as 3 or 4, 100 seeds")
def test_stratification():
    threads = [make_thread(["student", "instructor"], tid=f"pos{i}") for i in range(17)]
    threads += [make_thread(["student"], tid=f"neg{i}") for i in range(155)]
    for seed in range(100):
        folds = stratified_kfold(threads, k=5, seed=seed)
        per_fold = [sum(1 for t in f if t.label is Label.INTERVENED) for f in folds]
        assert all(n in (3, 4) for n in per_fold), f"seed {seed}: {per_fold}"
        assert sum(per_fold) == 17


@criterion(4, "25-dim discourse block satisfies its sum and boundary invariants")
def test_pdtb_feature_suite():
    assert len(PDTB_FEATURE_NAMES) == 25

    def tagging_of(*seqs):
        out = []
        for seq in seqs:
            tags = tuple(
                TaggedConnective(start=2 * i, end=2 * i + 1, surface="x", sense=s)
                for i, s in enumerate(seq)
            )
            out.append(PostDiscourse(tags=tags))
        return out

    rng = random.Random(123)
    for _ in range(200):
        seqs = tuple(
            tuple(rng.choice(SENSES) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(1, 4))
        )
        total = sum(len(s) for s in seqs)
        pairs = sum(max(0, len(s) - 1) for s in seqs)
        vec = pdtb_features(tagging_of(*seqs), rng.randint(max(total, 1), 300))
        assert len(vec.space) == 25
        if total:
            rel = sum(vec.get(f"pdtb.rel.{s.label.lower()}") for s in SENSES)
            assert abs(rel - 1.0) <= 1e-12
        if pairs:
            pair_sum = sum(
                vec.get(f"pdtb.pair.{a.label.lower()}.{b.label.lower()}")
                for a in SENSES
                for b in SENSES
            )
            assert abs(pair_sum - 1.0) <= 1e-12

    empty = pdtb_features(tagging_of((), ()), 60)
    assert all(empty.get(name) == 0.0 for name in PDTB_FEATURE_NAMES)

    # connectives in adjacent posts never pair up
    split = pdtb_features(tagging_of((SenseTag.CONTINGENCY,), (SenseTag.CONTINGENCY,)), 50)
    joined = pdtb_features(tagging_of((SenseTag.CONTINGENCY, SenseTag.CONTINGENCY)), 50)
    assert split.get("pdtb.pair.contingency.contingency") == 0.0
    assert joined.get("pdtb.pair.contingency.contingency") == 1.0


@criterion(5, "default lexicon tags the reference excerpt connectives")
def test_tagger_fixtures():
    def tags(text):
        return {(t.surface, t.sense) for t in tag_post(prepare_text(text), LEXICON).tags}

    got = tags("Now if I need to apply the same progression to a minor scale, then should I")
    assert ("now", SenseTag.TEMPORAL) in got
    assert ("if", SenseTag.CONTINGENCY) in got
    assert ("then", SenseTag.CONTINGENCY) in got
    assert ("but", SenseTag.COMPARISON) in tags("But I am confused")
    assert ("or", SenseTag.EXPANSION) in tags("Is that normal or just a mistake? Thank you.")


@criterion(6, "gradient, convexity, optimizer-agreement and determinism suite")
def test_optimization_suite():
    def space_of(n):
        return FeatureSpace(tuple(f"f{i}" for i in range(n)), "test")

    def dataset(rng, n, dims, space):
        data = []
        for i in range(n):
            label = i % 2
            center = 0.8 if label else -0.8
            values = {f"f{j}": rng.gauss(center, 1.0) for j in range(dims)}
            data.append((FeatureVector(values, space), label))
        return data

    # analytic gradient vs central finite differences, 10 random instances
    rng = random.Random(31)
    h = 1e-5
    for _ in range(10):
        space = space_of(5)
        config = TrainConfig(l2_lambda=rng.choice([0.0, 1e-2]))
        data = dataset(rng, 12, 5, space)
        weights = {n: rng.gauss(0, 1) for n in space.names}
        model = MaxentModel(weights, rng.gauss(0, 1), space, config)
        _loss, grad, grad_b = loss_and_gradient(model, data, config)

        def loss_at(w, b, m=model, d=data, c=config, s=space):
            return loss_and_gradient(MaxentModel(w, b, s, c), d, c)[0]

        for name in space.names:
            up, down = dict(weights), dict(weights)
            up[name] += h
            down[name] -= h
            fd = (loss_at(up, model.bias) - loss_at(down, model.bias)) / (2 * h)
            assert abs(grad[name] - fd) / max(abs(fd), 1.0) < 1e-4
        fd_b = (loss_at(weights, model.bias + h) - loss_at(weights, model.bias - h)) / (2 * h)
        assert abs(grad_b - fd_b) / max(abs(fd_b), 1.0) < 1e-4

    # convexity midpoint inequality over 100 random parameter pairs
    space = space_of(4)
    config = TrainConfig(l2_lambda=1e-3)
    data = dataset(random.Random(5), 16, 4, space)
    rng = random.Random(6)
    for _ in range(100):
        w1 = {n: rng.gauss(0, 2) for n in space.names}
        w2 = {n: rng.gauss(0, 2) for n in space.names}
        b1, b2 = rng.gauss(0, 2), rng.gauss(0, 2)
        l1 = loss_and_gradient(MaxentModel(w1, b1, space, config), data, config)[0]
        l2 = loss_and_gradient(MaxentModel(w2, b2, space, config), data, config)[0]
        mid = MaxentModel(
            {n: (w1[n] + w2[n]) / 2 for n in space.names}, (b1 + b2) / 2, space, config
        )
        lm = loss_and_gradient(mid, data, config)[0]
        assert lm <= (l1 + l2) / 2 + 1e-9

    # two independent optimizers find the same strongly-convex optimum
    data = dataset(random.Random(8), 30, 4, space)
    tight = TrainConfig(l2_lambda=1e-2, max_iterations=100000, convergence_tol=1e-8)
    a = train(data, tight, method="lbfgs")
    b = train(data, tight, method="gd")
    for name in space.names:
        assert abs(a.weights[name] - b.weights[name]) < 1e-5
    assert abs(a.bias - b.bias) < 1e-5

    # bit-determinism across repeated runs and across worker counts
    m1, m2 = train(data, tight), train(data, tight)
    assert m1.weights == m2.weights and m1.bias == m2.bias
    spec = GenSpec(
        n_courses=2, threads_per_course=40, intervention_ratio=0.3,
        vocabulary_disjointness=0.5, discourse_signal_strength=0.8, seed=3,
    )
    threads = filter_and_label(generate_threads(spec))
    r1 = run_in_domain(threads, "pdtb", LEXICON, TrainConfig(), k=3, seed=1, jobs=1)
    r2 = run_in_domain(threads, "pdtb", LEXICON, TrainConfig(), k=3, seed=1, jobs=2)
    assert render_records(r1) == render_records(r2)


@criterion(7, "class weighting lifts positive recall on 1:20 imbalance, 9+ of 10 seeds")
def test_class_weight_benefit():
    wins = 0
    for seed in range(10):
        spec = GenSpec(
            n_courses=1, threads_per_course=252, intervention_ratio=0.05,
            vocabulary_disjointness=0.5, discourse_signal_strength=0.5, seed=seed,
        )
        threads = filter_and_label(generate_threads(spec))
        weighted = run_in_domain(
            threads, "pdtb", LEXICON, TrainConfig(class_weight_mode="neg_over_pos"), k=5, seed=seed
        )
        unweighted = run_in_domain(
            threads, "pdtb", LEXICON, TrainConfig(class_weight_mode="none"), k=5, seed=seed
        )
        if weighted.per_course[0].metrics.recall >= unweighted.per_course[0].metrics.recall:
            wins += 1
    assert wins >= 9, f"weighted recall won only {wins}/10 seeds"


@criterion(8, "discourse features stay robust under full vocabulary shift")
def test_domain_shift_experiment(domain_shift):
    result, elapsed = domain_shift
    assert elapsed < 60.0, f"experiment took {elapsed:.1f}s"
    assert result.pdtb_out_f1 > result.edm15_out_f1
    assert result.edm15_in_f1 - result.edm15_out_f1 >= 10.0


@criterion(9, "held-out-course tokens never enter the training vocabulary")
def test_leakage_invariant():
    spec = GenSpec(
        n_courses=3, threads_per_course=50, intervention_ratio=0.3,
        vocabulary_disjointness=1.0, discourse_signal_strength=0.8, seed=21,
    )
    threads = filter_and_label(generate_threads(spec))
    courses = sorted({t.course_id for t in threads})

    def tokens_of(subset):
        seen = set()
        for t in subset:
            for tok in prepare_thread(t):
                seen.update(content_filter(tok.tokens))
        return seen

    for held_out in courses:
        train_threads = [t for t in threads if t.course_id != held_out]
        held_threads = [t for t in threads if t.course_id == held_out]
        vocabulary = build_vocabulary(train_threads)
        unique_to_held = tokens_of(held_threads) - tokens_of(train_threads)
        assert unique_to_held, "disjoint corpus must give the held-out course unique tokens"
        assert vocabulary.index.keys().isdisjoint(unique_to_held)


@criterion(10, "model, corpus and report round-trips are exact")
def test_round_trips(tmp_path, domain_shift):
    space = FeatureSpace(("f0", "f1", "f2"), "test")
    rng = random.Random(2)
    data = [
        (FeatureVector({f"f{j}": rng.gauss(i % 2, 1) for j in range(3)}, space), i % 2)
        for i in range(20)
    ]
    model = train(data, TrainConfig())
    p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    spec = GenSpec(
        n_courses=2, threads_per_course=30, intervention_ratio=0.4,
        vocabulary_disjointness=0.5, discourse_signal_strength=0.5, seed=17,
    )
    c1, c2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    generate(spec, c1)
    generate(spec, c2)
    assert c1.read_bytes() == c2.read_bytes()

    result, _elapsed = domain_shift
    for report in (result.edm15_in, result.edm15_out, result.pdtb_out):
        verify_report(report)
        render_records(report)
