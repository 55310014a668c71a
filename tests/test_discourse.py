from __future__ import annotations

import random
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forum_sentinel import discourse, features
from forum_sentinel.corpus import filter_and_label
from forum_sentinel.discourse import (
    SENSES,
    ConnectiveLexicon,
    LexiconError,
    PostDiscourse,
    SenseTag,
    TaggedConnective,
    format_tag_records,
    load_lexicon,
    load_tag_import,
    sense_distribution,
    tag_post,
    tag_thread,
)
from forum_sentinel.evaluation import run_loo_ccv
from forum_sentinel.model import TrainConfig
from forum_sentinel.syngen import GenSpec, generate_threads
from forum_sentinel.textprep import TokenizedPost, load_stopwords, prepare_text

from conftest import make_thread


def write_lexicon(tmp_path, rows, name="lex.tsv"):
    path = tmp_path / name
    path.write_text("\n".join("\t".join(str(c) for c in row) for row in rows) + "\n", "utf-8")
    return path


def tags_of(text: str, lexicon=None):
    lexicon = lexicon or load_lexicon()
    return [(t.surface, t.sense) for t in tag_post(prepare_text(text), lexicon).tags]


class TestLoadLexicon:
    def test_small_file(self, tmp_path):
        rows = [
            ("if", 0.9, 0.02, 0.9, 0.04, 0.04),
            ("but", 0.9, 0.02, 0.1, 0.8, 0.08),
            ("and", 0.25, 0.05, 0.1, 0.05, 0.8),
        ]
        lex = load_lexicon(write_lexicon(tmp_path, rows))
        assert len(lex.entries) == 3
        assert ("if",) in lex.entries

    def test_prior_out_of_range(self, tmp_path):
        path = write_lexicon(tmp_path, [("but", 1.3, 0.1, 0.1, 0.7, 0.1)])
        with pytest.raises(LexiconError, match="outside"):
            load_lexicon(path)

    def test_duplicate_surface(self, tmp_path):
        path = write_lexicon(tmp_path, [("but", 0.9, 0, 0, 1, 0), ("but", 0.8, 0, 0, 1, 0)])
        with pytest.raises(LexiconError, match="duplicate"):
            load_lexicon(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("but\t0.9\t0.5\n", "utf-8")
        with pytest.raises(LexiconError, match="line 1"):
            load_lexicon(path)

    def test_weights_need_one_positive(self, tmp_path):
        path = write_lexicon(tmp_path, [("but", 0.9, 0, 0, 0, 0)])
        with pytest.raises(LexiconError, match="positive"):
            load_lexicon(path)

    def test_default_lexicon_size(self):
        assert len(load_lexicon().entries) >= 90

    def test_surfaces_are_tokenized_like_posts(self, tmp_path):
        rows = [("e.g.", 0.9, 0, 0, 0, 1), ("As-If", 0.9, 0, 0, 1, 0), ("However", 0.9, 0, 0, 1, 0)]
        lex = load_lexicon(write_lexicon(tmp_path, rows))
        assert [e.surface for e in lex.entries.values()] == ["e . g .", "as - if", "however"]
        assert tags_of("Try a tool, e.g. a debugger", lex) == [("e . g .", SenseTag.EXPANSION)]
        assert tags_of("It runs as-if it were new", lex) == [("as - if", SenseTag.COMPARISON)]
        assert tags_of("However it fails", lex) == [("however", SenseTag.COMPARISON)]

    def test_shipped_surfaces_and_stopwords_are_already_tokens(self):
        # the shipped files give the same tokens as a whitespace split, so tagging and filtering them is unchanged
        text = resources.files("forum_sentinel.data").joinpath("connectives.tsv").read_text("utf-8")
        surfaces = [line.split("\t")[0] for line in text.splitlines() if line.strip() and not line.startswith("#")]
        assert len(surfaces) == len(load_lexicon().entries)
        for surface in surfaces:
            assert prepare_text(surface).tokens == tuple(surface.split()), surface
        for word in load_stopwords():
            assert prepare_text(word).tokens == (word,), word


class TestTagPost:
    def test_conditional_cluster(self):
        got = tags_of("Now if I need to apply the same progression to a minor scale, then should I")
        assert ("now", SenseTag.TEMPORAL) in got
        assert ("if", SenseTag.CONTINGENCY) in got
        assert ("then", SenseTag.CONTINGENCY) in got

    def test_contrast(self):
        assert tags_of("But I am confused") == [("but", SenseTag.COMPARISON)]

    def test_alternative(self):
        got = tags_of("Is that normal or just a mistake? Thank you.")
        assert got == [("or", SenseTag.EXPANSION)]

    def test_no_lexicon_surface(self):
        assert tags_of("three roots total") == []

    def test_longest_match_wins(self):
        got = tags_of("it happened as soon as we started")
        assert ("as soon as", SenseTag.TEMPORAL) in got
        assert all(surface != "as" for surface, _ in got)

    def test_low_prior_needs_cue(self):
        # "and" has a sub-threshold prior: tagged sentence-initially or at a
        # comma, not mid-clause
        assert tags_of("bread and butter") == []
        assert tags_of("And we waited") == [("and", SenseTag.EXPANSION)]
        assert tags_of("we waited, and nothing happened") == [("and", SenseTag.EXPANSION)]

    def test_deterministic(self):
        text = "But if this fails, then we try again as soon as possible"
        lex = load_lexicon()
        tok = prepare_text(text)
        assert tag_post(tok, lex) == tag_post(tok, lex)

    def test_spans_strictly_increasing_nonoverlapping(self):
        lex = load_lexicon()
        surfaces = [e.surface for e in lex.entries.values()]
        rng = random.Random(0)
        fillers = ["alpha", "beta", "gamma", ",", "."]
        for _ in range(50):
            words = []
            for _ in range(rng.randint(0, 40)):
                pick = rng.random()
                words.append(rng.choice(surfaces) if pick < 0.4 else rng.choice(fillers))
            tok = prepare_text(" ".join(words))
            tags = tag_post(tok, lex).tags
            for a, b in zip(tags, tags[1:]):
                assert a.end <= b.start
            for t in tags:
                assert 0 <= t.start < t.end <= len(tok.tokens)
                assert t.sense in SENSES

    def test_removing_entry_never_creates_tags_outside_its_spans(self):
        # restriction property: dropping one lexicon entry may only change
        # tags whose spans overlap that entry's matches
        lex = load_lexicon()
        surfaces = [e.surface for e in lex.entries.values()]
        rng = random.Random(7)
        fillers = ["alpha", "beta", ",", "."]
        for _ in range(30):
            words = [
                rng.choice(surfaces) if rng.random() < 0.5 else rng.choice(fillers)
                for _ in range(rng.randint(5, 30))
            ]
            tok = prepare_text(" ".join(words))
            removed = rng.choice(surfaces)
            before = tag_post(tok, lex).tags
            after = tag_post(tok, ConnectiveLexicon([e for e in lex.entries.values() if e.surface != removed])).tags
            affected = [
                range(t.start, t.end) for t in before if t.surface == removed
            ]
            before_set = {(t.start, t.end, t.surface, t.sense) for t in before}
            for t in after:
                touches = any(
                    t.start < span.stop and span.start < t.end for span in affected
                )
                if not touches:
                    assert (t.start, t.end, t.surface, t.sense) in before_set

    def test_sense_tie_breaks_on_ordinal(self, tmp_path):
        path = write_lexicon(tmp_path, [("maybe", 0.9, 0.5, 0.5, 0.5, 0.5)])
        got = tags_of("it will maybe work", load_lexicon(path))
        assert got == [("maybe", SenseTag.TEMPORAL)]


_WARM = load_lexicon()  # shared by every example below, so its memo fills up as they run
_MEMO_WORDS = sorted({t for e in _WARM.entries.values() for t in e.tokens} | {",", ".", "alpha", "beta"})
_MEMO_WORDS += [w.capitalize() for w in _MEMO_WORDS if w.isalpha()]  # after a ".", these end a sentence


class TestTagMemo:
    def test_equal_tokens_with_other_sentence_bounds_are_tagged_apart(self, tmp_path):
        lex = load_lexicon(write_lexicon(tmp_path, [("so", 0.2, 0, 1, 0, 0)]))  # low prior: needs a cue
        tokens = ("it", "failed", "so", "we", "wait")
        one = TokenizedPost(tokens=tokens, sentences=((0, 5),))
        two = TokenizedPost(tokens=tokens, sentences=((0, 2), (2, 5)))
        assert tag_post(one, lex).tags == ()
        assert [(t.surface, t.start) for t in tag_post(two, lex).tags] == [("so", 2)]  # opens a sentence
        assert tag_post(one, lex).tags == ()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(_MEMO_WORDS), max_size=30).map(" ".join), min_size=1, max_size=3))
    def test_warm_lexicon_tags_like_a_fresh_one(self, texts):
        thread = make_thread(["student"] * len(texts), texts=texts, labeled=False)  # the same ids in every example
        assert tag_thread(thread, _WARM) == tag_thread(thread, load_lexicon())

    def test_cross_course_evaluation_matches_each_distinct_post_once(self, monkeypatch):
        spec = GenSpec(n_courses=3, threads_per_course=20, intervention_ratio=0.3, vocabulary_disjointness=0.5,
                       discourse_signal_strength=0.9, seed=5)
        threads = filter_and_label(generate_threads(spec))
        tagged, matched = [], []
        tag, match = features.tag_thread, discourse.tag_post
        monkeypatch.setattr(features, "tag_thread", lambda *args: tagged.append(1) or tag(*args))
        monkeypatch.setattr(discourse, "tag_post", lambda *args: matched.append(1) or match(*args))
        run_loo_ccv(threads, "pdtb", load_lexicon(), TrainConfig())
        # every thread is in two training splits and one test split, and is matched in the first of them
        assert len(tagged) == 3 * len(threads)
        assert len(matched) == sum(len(thread.posts) for thread in set(threads))

    def test_truncated_copy_of_a_tagged_thread_is_tagged_anew(self):
        texts = ["But why", "If so, then fine", "Because it is", "And then it worked"]
        raw = make_thread(["student", "student", "instructor", "student"], texts=texts, labeled=False)
        (truncated,) = filter_and_label([raw])
        assert hash(truncated) == hash(raw) and len(truncated.posts) == 3  # same ids, fewer posts
        warm = load_lexicon()
        for thread in (raw, truncated):
            assert tag_thread(thread, warm) == tag_thread(thread, load_lexicon())


class TestTagThread:
    def test_one_connective_per_post(self):
        thread = make_thread(
            ["student", "student", "student"],
            texts=["But why", "If you say", "this will work, then fine"],
        )
        taggings = tag_thread(thread, load_lexicon())
        assert [len(t.tags) for t in taggings] == [1, 1, 1]

    def test_empty_posts(self):
        thread = make_thread(["student", "student"], texts=["", ""])
        taggings = tag_thread(thread, load_lexicon())
        assert all(t.tags == () for t in taggings)

    def test_clarification_thread_first_post(self):
        text = (
            "Hi !! I have a question about the 4th bar of the practice solution: "
            "the V chord has three roots. Is that normal or just a mistake? Thank you."
        )
        thread = make_thread(["student", "instructor"], texts=[text, "Please read these threads."])
        taggings = tag_thread(thread, load_lexicon())
        assert [(t.surface, t.sense) for t in taggings[0].tags] == [("or", SenseTag.EXPANSION)]

    def test_never_crosses_posts(self):
        # "as soon" ends one post, "as" starts the next; no cross-post match
        thread = make_thread(["student", "student"], texts=["we did it as soon", "as possible"])
        taggings = tag_thread(thread, load_lexicon())
        for disc in taggings:
            for t in disc.tags:
                assert t.surface != "as soon as"


_LEXICON = load_lexicon()
# the shipped surfaces' words, so texts hold connectives, with other words and the punctuation that cues one
_WORDS = sorted({word for tokens in _LEXICON.entries for word in tokens} | {"We", "the", "plan", ",", ".", "?"})


class TestTagImport:
    def test_round_trip_verbatim(self, tmp_path):
        thread = make_thread(["student", "student"], texts=["But why now", "If only"])
        lex = load_lexicon()
        native = tag_thread(thread, lex)
        path = tmp_path / "tags.tsv"
        path.write_text("\n".join(format_tag_records(thread, native)) + "\n", "utf-8")
        imported = load_tag_import(path)
        echoed = tag_thread(thread, imported)
        assert echoed == native

    @settings(max_examples=100, deadline=None)
    @given(texts=st.lists(st.lists(st.sampled_from(_WORDS), max_size=12).map(" ".join), min_size=1, max_size=4))
    @example(texts=["But why now", "If only , then"])
    def test_written_tags_read_back_and_write_the_same_lines(self, texts, tmp_path_factory):
        thread = make_thread(["student"] * len(texts), texts=texts, labeled=False)
        lines = format_tag_records(thread, tag_thread(thread, _LEXICON))
        path = tmp_path_factory.mktemp("tags") / "tags.tsv"
        path.write_text("\n".join(lines) + "\n", "utf-8")  # as the tag command writes them
        assert format_tag_records(thread, tag_thread(thread, load_tag_import(path))) == lines

    def test_missing_post_is_empty(self, tmp_path):
        thread = make_thread(["student"], texts=["But why"])
        echoed = tag_thread(thread, {})
        assert echoed == [PostDiscourse(tags=())]

    def test_imported_overrides_matcher(self):
        thread = make_thread(["student"], texts=["no connectives here at all"])
        imports = {("C1", "t1", "p0"): ((0, 1, SenseTag.EXPANSION),)}
        (disc,) = tag_thread(thread, imports)
        assert disc.tags[0].sense is SenseTag.EXPANSION
        assert disc.tags[0].surface == "no"

    def test_bad_span_rejected(self):
        thread = make_thread(["student"], texts=["short"])
        imports = {("C1", "t1", "p0"): ((0, 99, SenseTag.EXPANSION),)}
        with pytest.raises(LexiconError, match="out of range"):
            tag_thread(thread, imports)


class TestSenseDistribution:
    def _tagging(self, counts: dict[SenseTag, int]):
        tags = []
        pos = 0
        for sense, n in counts.items():
            for _ in range(n):
                tags.append(TaggedConnective(start=pos, end=pos + 1, surface="x", sense=sense))
                pos += 1
        return [PostDiscourse(tags=tuple(tags))]

    def test_reference_distribution(self):
        tagging = self._tagging(
            {
                SenseTag.EXPANSION: 33,
                SenseTag.CONTINGENCY: 28,
                SenseTag.COMPARISON: 20,
                SenseTag.TEMPORAL: 19,
            }
        )
        dist = sense_distribution(tagging)
        assert dist[SenseTag.EXPANSION] == pytest.approx(33.0)
        assert dist[SenseTag.CONTINGENCY] == pytest.approx(28.0)
        assert dist[SenseTag.COMPARISON] == pytest.approx(20.0)
        assert dist[SenseTag.TEMPORAL] == pytest.approx(19.0)
        assert sum(dist.values()) == pytest.approx(100.0)

    def test_single_connective(self):
        dist = sense_distribution(self._tagging({SenseTag.TEMPORAL: 1}))
        assert dist[SenseTag.TEMPORAL] == 100.0

    def test_empty_is_absent(self):
        assert sense_distribution([]) is None
        assert sense_distribution([PostDiscourse(tags=())]) is None


_MODEL_FORMAT = (Path(__file__).resolve().parent.parent / "docs" / "model-format.md").read_text("utf-8")


def test_model_format_token_examples_hold():
    # every "`text` is the N tokens `t1 t2 ...`" sentence of the doc, however its lines wrap
    examples = re.findall(r"`([^`]+)` is the (\d+) tokens `([^`]+)`", " ".join(_MODEL_FORMAT.split()))
    assert [text for text, _n, _tokens in examples] == ["Don't panic: see https://x.y at 10:30!", "E.g."]
    for text, n, tokens in examples:
        assert prepare_text(text).tokens == tuple(tokens.split()) and len(tokens.split()) == int(n), text


def test_model_format_lexicon_example_loads(tmp_path):
    section = _MODEL_FORMAT[_MODEL_FORMAT.index("## Connective lexicon format"):]
    claim = re.search(r"loads\s+the surfaces ((?:`[^`]+`(?:, | and )?)+)", section).group(1)
    example = re.findall(r"```\n(.*?)```", section, re.DOTALL)[-1]
    path = tmp_path / "lexicon.tsv"
    path.write_text(example, "utf-8")
    assert [e.surface for e in load_lexicon(path).entries.values()] == re.findall(r"`([^`]+)`", claim)
