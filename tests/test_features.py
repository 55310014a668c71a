from __future__ import annotations

import random
import re

import pytest

from forum_sentinel.discourse import SENSES, PostDiscourse, SenseTag, TaggedConnective, load_lexicon, tag_thread
from forum_sentinel.features import (
    PDTB_FEATURE_NAMES,
    STRUCTURAL_NAMES,
    FeatureVector,
    build_space,
    _lexical_profile,
    build_vocabulary,
    pdtb_features,
    vectorize,
)
from forum_sentinel.corpus import filter_and_label
from forum_sentinel.syngen import GenSpec, generate_threads
from forum_sentinel.textprep import content_filter, prepare_thread

from conftest import make_thread


def discourse_of(*sense_seqs: tuple[SenseTag, ...]) -> list[PostDiscourse]:
    out = []
    for seq in sense_seqs:
        tags = tuple(
            TaggedConnective(start=i * 2, end=i * 2 + 1, surface="x", sense=s)
            for i, s in enumerate(seq)
        )
        out.append(PostDiscourse(tags=tags))
    return out


class TestPdtbFeatures:
    def test_exactly_25_names_in_fixed_order(self):
        assert len(PDTB_FEATURE_NAMES) == 25
        assert PDTB_FEATURE_NAMES[0] == "pdtb.total"
        assert PDTB_FEATURE_NAMES[1:3] == ("pdtb.abs.temporal", "pdtb.rel.temporal")
        assert PDTB_FEATURE_NAMES[9] == "pdtb.pair.temporal.temporal"
        assert PDTB_FEATURE_NAMES[24] == "pdtb.pair.expansion.expansion"
        assert len(build_space("pdtb")) == 25

    def test_worked_example(self):
        tagging = discourse_of((SenseTag.EXPANSION, SenseTag.CONTINGENCY, SenseTag.EXPANSION))
        vec = pdtb_features(tagging, 100)
        assert vec.get("pdtb.total") == 3
        assert vec.get("pdtb.abs.expansion") == pytest.approx(0.02)
        assert vec.get("pdtb.rel.expansion") == pytest.approx(2 / 3)
        assert vec.get("pdtb.abs.contingency") == pytest.approx(0.01)
        assert vec.get("pdtb.rel.contingency") == pytest.approx(1 / 3)
        assert vec.get("pdtb.pair.expansion.contingency") == pytest.approx(0.5)
        assert vec.get("pdtb.pair.contingency.expansion") == pytest.approx(0.5)
        named = {
            "pdtb.total", "pdtb.abs.expansion", "pdtb.rel.expansion",
            "pdtb.abs.contingency", "pdtb.rel.contingency",
            "pdtb.pair.expansion.contingency", "pdtb.pair.contingency.expansion",
        }
        for name in PDTB_FEATURE_NAMES:
            if name not in named:
                assert vec.get(name) == 0.0

    def test_connective_free_thread_is_all_zero(self):
        vec = pdtb_features(discourse_of((), ()), 50)
        assert all(vec.get(name) == 0.0 for name in PDTB_FEATURE_NAMES)

    def test_pairs_never_cross_posts(self):
        vec = pdtb_features(discourse_of((SenseTag.TEMPORAL,), (SenseTag.COMPARISON,)), 40)
        assert vec.get("pdtb.total") == 2
        assert vec.get("pdtb.rel.temporal") == pytest.approx(0.5)
        assert vec.get("pdtb.rel.comparison") == pytest.approx(0.5)
        for s1 in SENSES:
            for s2 in SENSES:
                assert vec.get(f"pdtb.pair.{s1.label.lower()}.{s2.label.lower()}") == 0.0

    def test_zero_length_with_tags_is_error(self):
        with pytest.raises(ValueError, match="thread_token_length"):
            pdtb_features(discourse_of((SenseTag.TEMPORAL,)), 0)

    def test_sum_invariants(self):
        rng = random.Random(1)
        for _ in range(100):
            seqs = tuple(
                tuple(rng.choice(SENSES) for _ in range(rng.randint(0, 6)))
                for _ in range(rng.randint(1, 4))
            )
            tagging = discourse_of(*seqs)
            total = sum(len(s) for s in seqs)
            n_pairs = sum(max(len(s) - 1, 0) for s in seqs)
            length = rng.randint(max(total, 1), 500)
            vec = pdtb_features(tagging, length)
            rel = sum(vec.get(f"pdtb.rel.{s.label.lower()}") for s in SENSES)
            absolute = sum(vec.get(f"pdtb.abs.{s.label.lower()}") for s in SENSES)
            pairs = sum(
                vec.get(f"pdtb.pair.{a.label.lower()}.{b.label.lower()}")
                for a in SENSES
                for b in SENSES
            )
            if total:
                assert rel == pytest.approx(1.0, abs=1e-12)
            assert absolute == pytest.approx(total / length, abs=1e-12)
            if n_pairs:
                assert pairs == pytest.approx(1.0, abs=1e-12)

    def test_vocabulary_independence(self):
        # renaming content words cannot move the discourse vector
        lex = load_lexicon()
        t1 = make_thread(["student"], texts=["But if alpha is beta then gamma happens"])
        t2 = make_thread(["student"], texts=["But if delta is omega then sigma happens"])
        v1, v2 = (vectorize([t], build_space("pdtb"), lex)[0][0] for t in (t1, t2))
        assert v1.values == v2.values


class TestEdm15Features:
    def _space(self, *threads):
        return build_space("edm15", build_vocabulary(list(threads)))

    def test_counts_example(self):
        thread = make_thread(
            ["student"] * 5,
            parents=[None, "p0", "p0", None, "p0"],
            texts=["alpha beta"] * 5,
        )
        vec = vectorize([thread], self._space(thread))[0][0]
        assert vec.get("n_posts") == 2
        assert vec.get("n_comments") == 3
        assert vec.get("n_posts_plus_comments") == 5
        assert vec.get("avg_comments_per_post") == pytest.approx(1.5)

    def test_forum_one_hot_order(self):
        thread = make_thread(["student"], subforum="lecture")
        vec = vectorize([thread], self._space(thread))[0][0]
        onehot = [vec.get(n) for n in STRUCTURAL_NAMES[:4]]
        assert onehot == [0.0, 0.0, 1.0, 0.0]

    def test_affirmation_in_later_student_post(self):
        thread = make_thread(["student", "student"], texts=["why is this", "thanks a lot"])
        vec = vectorize([thread], self._space(thread))[0][0]
        assert vec.get("affirmation") == 1.0

    def test_affirmation_ignores_first_post(self):
        thread = make_thread(["student", "student"], texts=["thanks a lot", "why is this"])
        vec = vectorize([thread], self._space(thread))[0][0]
        assert vec.get("affirmation") == 0.0

    @pytest.mark.parametrize(
        "reply, expected",
        [("I disagree", 0.0), ("thanksgiving plans", 0.0), ("Thank you!", 1.0), ("thank you", 1.0)],
        ids=["inside-a-word", "word-prefix", "phrase-then-punctuation", "phrase-is-the-whole-post"],
    )
    def test_affirmation_matches_whole_tokens(self, reply, expected):
        thread = make_thread(["student", "student"], texts=["why is this", reply])
        vec = vectorize([thread], self._space(thread))[0][0]
        assert vec.get("affirmation") == expected

    def test_multiword_affirmation(self):
        thread = make_thread(["student", "student"], texts=["hmm", "ok you're right about it"])
        vec = vectorize([thread], self._space(thread))[0][0]
        assert vec.get("affirmation") == 1.0

    def test_url_timeref_and_sentence_counts(self):
        thread = make_thread(
            ["student", "student"],
            texts=["see https://a.b/c now. Look here.", "at 10:30 and 11:45 it breaks"],
        )
        vec = vectorize([thread], self._space(thread))[0][0]
        assert vec.get("n_url") == 1
        assert vec.get("n_timeref") == 2
        assert vec.get("n_sentences") == 3

    def test_unigram_counts_use_filtered_tokens(self):
        thread = make_thread(["student"], texts=["the gradient gradient converges"])
        vec = vectorize([thread], self._space(thread))[0][0]
        assert vec.get("uni.gradient") == 2.0
        assert vec.get("uni.converges") == 1.0
        assert "uni.the" not in vec.space


class TestVocabulary:
    def test_distinct_tokens(self):
        t1 = make_thread(["student"], texts=["alpha beta alpha"], tid="a")
        t2 = make_thread(["student"], texts=["beta gamma"], tid="b")
        vocab = build_vocabulary([t1, t2])
        assert vocab.size == 3

    def test_disjoint_courses_add(self):
        t1 = make_thread(["student"], texts=["alpha beta"], tid="a")
        t2 = make_thread(["student"], texts=["gamma delta"], tid="b")
        assert build_vocabulary([t1, t2]).size == build_vocabulary([t1]).size + build_vocabulary([t2]).size

    def test_unseen_test_token_dropped(self):
        train = make_thread(["student"], texts=["alpha beta"], tid="a")
        test = make_thread(["student"], texts=["alpha newword"], tid="b")
        vocab = build_vocabulary([train])
        vec = vectorize([test], build_space("edm15", vocab))[0][0]
        assert vec.get("uni.alpha") == 1.0
        assert "uni.newword" not in vec.space
        assert all(not name.endswith("newword") for name in vec.values)

    def test_empty_training_set_gives_empty_vocabulary(self):
        assert build_vocabulary([]).size == 0


class TestVectorize:
    def _threads(self):
        pos = make_thread(["student", "instructor"], texts=["But if alpha then beta", "done"], tid="p")
        neg = make_thread(["student"], texts=["gamma delta epsilon"], tid="n")
        return [pos, neg]

    def test_pdtb_vectors_have_25_dims(self):
        data = vectorize(self._threads(), build_space("pdtb"), load_lexicon())
        for vec, _label in data:
            assert len(vec.space) == 25

    def test_eplusp_is_union(self):
        threads = self._threads()
        vocab = build_vocabulary(threads)
        lex = load_lexicon()
        d_ep = vectorize(threads, build_space("eplusp", vocab), lex)
        d_e = vectorize(threads, build_space("edm15", vocab))
        assert len(d_ep[0][0].space) == len(d_e[0][0].space) + 25
        # the shared block is an exact copy
        for (vep, _), (ve, _) in zip(d_ep, d_e):
            for name, value in ve.values.items():
                assert vep.get(name) == value

    def test_deterministic(self):
        threads = self._threads()
        vocab = build_vocabulary(threads)
        lex = load_lexicon()
        a = vectorize(threads, build_space("eplusp", vocab), lex)
        b = vectorize(threads, build_space("eplusp", vocab), lex)
        assert [(v.values, y) for v, y in a] == [(v.values, y) for v, y in b]

    def test_labels(self):
        data = vectorize(self._threads(), build_space("pdtb"), load_lexicon())
        assert [y for _v, y in data] == [1, 0]

    def test_missing_resources_error(self):
        with pytest.raises(ValueError, match="vocabulary"):
            build_space("edm15")
        with pytest.raises(ValueError, match="lexicon"):
            vectorize(self._threads(), build_space("pdtb"))

    def test_unlabeled_thread_rejected(self):
        raw = make_thread(["student"], labeled=False)
        with pytest.raises(ValueError, match="unlabeled"):
            vectorize([raw], build_space("pdtb"), load_lexicon())


def test_feature_vector_validation():
    space = build_space("pdtb")
    with pytest.raises(ValueError, match="not in space"):
        FeatureVector({"nope": 1.0}, space)
    with pytest.raises(ValueError, match="non-finite"):
        FeatureVector({"pdtb.total": float("inf")}, space)
    with pytest.raises(ValueError, match=re.escape("non-finite value for feature 'pdtb.total'")):
        FeatureVector({"pdtb.total": float("nan")}, space)
    # with two bad names the message names the first in row order, whichever check it fails
    with pytest.raises(ValueError, match=re.escape("feature 'nope' not in space")):
        FeatureVector({"pdtb.abs.temporal": 0.5, "nope": 1.0, "pdtb.total": float("nan")}, space)
    with pytest.raises(ValueError, match=re.escape("non-finite value for feature 'pdtb.total'")):
        FeatureVector({"pdtb.total": float("inf"), "nope": 1.0}, space)


def test_edm15_space_order_is_stable():
    t = make_thread(["student"], texts=["zeta alpha"])
    space = build_space("edm15", build_vocabulary([t]))
    assert space.names[: len(STRUCTURAL_NAMES)] == STRUCTURAL_NAMES
    assert space.names[len(STRUCTURAL_NAMES) :] == ("uni.alpha", "uni.zeta")


def _rows(data):
    return [(list(vec.values.items()), label) for vec, label in data]


@pytest.mark.parametrize("config", ["edm15", "eplusp"], ids=["edm15-counts", "eplusp-counts"])  # unigram counts
def test_rows_do_not_depend_on_earlier_vocabularies(config):
    # the per-thread lexical profile is cached across folds; a fold must see only its own vocabulary
    spec = GenSpec(n_courses=2, threads_per_course=30, intervention_ratio=0.3, vocabulary_disjointness=0.8,
                   discourse_signal_strength=0.6, seed=5)
    threads = filter_and_label(generate_threads(spec))
    half = len(threads) // 2
    vocab_a, vocab_b = build_vocabulary(threads[:half]), build_vocabulary(threads[half:])
    assert vocab_a.index != vocab_b.index
    space_a, space_b, lexicon = build_space(config, vocab_a), build_space(config, vocab_b), load_lexicon()
    first_a = _rows(vectorize(threads, space_a, lexicon))
    under_b = _rows(vectorize(threads, space_b, lexicon))
    again_a = _rows(vectorize(threads, space_a, lexicon))
    assert under_b != first_a
    assert again_a == first_a  # same values dicts, same key order
    _lexical_profile.cache_clear()
    assert _rows(vectorize(threads, space_a, lexicon)) == first_a


def _reference_rows(threads, config, vocabulary, tags):
    """Rows built token by token, as a plain reading of the feature definitions: count each
    content token, keep those in the vocabulary as ``uni.<token>`` with float counts, then
    the structural values, then the discourse block."""
    rows = []
    for thread in threads:
        counts: dict[str, int] = {}
        for tok in prepare_thread(thread):
            for token in content_filter(tok.tokens):
                counts[token] = counts.get(token, 0) + 1
        values = {f"uni.{token}": float(count) for token, count in counts.items() if token in vocabulary.index}
        values.update(_lexical_profile(thread)[1])
        if config == "eplusp":
            n_tokens = sum(tok.n_tokens for tok in prepare_thread(thread))
            values.update(pdtb_features(tag_thread(thread, tags), n_tokens).values)
        rows.append(list(values.items()))
    return rows


@pytest.mark.parametrize("config", ["edm15", "eplusp"])
def test_rows_match_a_token_by_token_reference(config):
    many = " ".join(["gradient"] * 300)  # a count of 300
    train = [
        make_thread(["student", "student"], texts=[f"However the {many} converges", "thanks, it works"], tid="a"),
        make_thread(["student"], texts=["alpha beta alpha because of beta"], tid="b"),
    ]
    test = [
        make_thread(["student"], texts=["alpha newword gradient unseen"], tid="c"),  # out-of-vocabulary tokens
        make_thread(["student"], texts=["it is a"], tid="d"),  # no content token
        make_thread(["student"], texts=["alpha gradient beta"], tid="e"),  # all in the vocabulary
    ]
    vocabulary, tags = build_vocabulary(train), load_lexicon()
    for threads in (train, test):
        got = vectorize(threads, build_space(config, vocabulary), tags)
        rows = [list(vec.values.items()) for vec, _label in got]
        assert rows == _reference_rows(threads, config, vocabulary, tags)  # same names, values and order
        assert all(type(value) is float for row in rows for _name, value in row)
    # the threads cover what they are named for
    assert dict(_reference_rows(train[:1], config, vocabulary, tags)[0])["uni.gradient"] == 300.0
    assert not {"newword", "unseen"} & vocabulary.index.keys()
    assert not any(name.startswith("uni.") for name, _value in _reference_rows(test[1:2], config, vocabulary, tags)[0])
