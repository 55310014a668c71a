from __future__ import annotations

import json
from datetime import datetime

import pytest

from forum_sentinel.cli import main
from forum_sentinel.corpus import (
    CorpusFormatError,
    Label,
    SubForumType,
    corpus_stats,
    filter_and_label,
    load_corpus,
)
from forum_sentinel.features import prepare_thread
from forum_sentinel.syngen import GenSpec, generate_threads

from conftest import make_thread, post_obj, record


class TestLoadCorpus:
    def test_empty_file(self, corpus_file):
        result = load_corpus(corpus_file([]))
        assert result.threads == []
        assert result.resorted_threads == 0

    def test_out_of_order_posts_resorted(self, corpus_file):
        posts = [
            post_obj(0, ts="2020-01-06T11:00:00Z"),
            post_obj(1, ts="2020-01-06T10:00:00Z"),
        ]
        result = load_corpus(corpus_file([record(posts=posts)]))
        thread = result.threads[0]
        assert [p.post_id for p in thread.posts] == ["p1", "p0"]
        assert result.resorted_threads == 1

    def test_unknown_subforum_names_line(self, corpus_file):
        path = corpus_file([record(), record(tid="t2", subforum="off-topic")])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    def test_invalid_json_names_line(self, corpus_file):
        path = corpus_file([record()])
        with path.open("a") as fh:
            fh.write("{broken\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    def test_duplicate_thread_id_within_course(self, corpus_file):
        path = corpus_file([record(), record()])
        with pytest.raises(CorpusFormatError, match="duplicate thread_id"):
            load_corpus(path)

    def test_same_thread_id_other_course_ok(self, corpus_file):
        path = corpus_file([record(), record(course="C2")])
        assert len(load_corpus(path).threads) == 2

    def test_bad_parent_reference(self, corpus_file):
        posts = [post_obj(0), post_obj(1, parent="nope")]
        with pytest.raises(CorpusFormatError, match="parent_post_id"):
            load_corpus(corpus_file([record(posts=posts)]))

    @pytest.mark.parametrize(
        "posts",
        [
            [post_obj(0, text=None)], [post_obj(0, ts="2020-01-06T10:00:00")], [post_obj(0, ts=5)],
            [post_obj(0, ts="9999-12-31T23:59:59-23:59")], 5, [5],
        ],
        ids=[
            "null-text", "timestamp-without-offset", "timestamp-not-string", "timestamp-out-of-range",
            "posts-not-list", "post-not-object",
        ],
    )
    def test_spec_violation_names_line(self, corpus_file, posts):
        path = corpus_file([record(), record(tid="t2", posts=posts)])
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "ts",
        [
            "2020-W01-1T10:00:00Z", "20200101T100000Z", "2020-01-01T10:00Z", "2020-01-01T10:00:00+0100",
            "2020-01-01T10:00:00,5Z", "2020-01-01T10:00:00.Z", "2020-01-01T10:00:00+01:75", "2020-01-01T10:00:00Z\n",
            "\uff12020-01-01T10:00:00Z",
        ],
        ids=[
            "iso-week-date", "basic-format", "no-seconds", "offset-without-colon", "comma-fraction",
            "empty-fraction", "offset-minutes-past-59", "trailing-newline", "non-ascii-digit",
        ],
    )
    def test_timestamp_must_be_rfc3339(self, corpus_file, ts):
        path = corpus_file([record(), record(tid="t2", posts=[post_obj(0, ts=ts)])])
        with pytest.raises(CorpusFormatError, match="line 2: timestamp .* is not RFC 3339"):
            load_corpus(path)
        assert main(["ingest", "--corpus", str(path)]) == 2

    @pytest.mark.parametrize(
        "ts, utc",
        [
            ("2020-01-01t10:00:00z", "2020-01-01T10:00:00"),
            ("2020-01-01 10:00:00Z", "2020-01-01T10:00:00"),
            ("2020-01-01T10:00:00.5-00:00", "2020-01-01T10:00:00.500000"),
            ("2020-01-01T10:00:00.1234567+01:30", "2020-01-01T08:30:00.123456"),
        ],
        ids=["lowercase-t-and-z", "space-separator", "fraction-and-zero-offset", "fraction-past-microseconds"],
    )
    def test_rfc3339_timestamp_loads_as_utc(self, corpus_file, ts, utc):
        (thread,) = load_corpus(corpus_file([record(posts=[post_obj(0, ts=ts)])])).threads
        assert thread.posts[0].timestamp == datetime.fromisoformat(utc + "+00:00")

    @pytest.mark.parametrize("value", [None, 7, "x\ty", "x\ry", "x\ny", "x\ud800"],
                             ids=["null", "number", "tab", "cr", "lf", "lone-surrogate"])
    @pytest.mark.parametrize("field", ["course_id", "thread_id", "post_id", "author_id"])
    def test_id_must_be_a_string_without_separators(self, corpus_file, field, value):
        bad = record(tid="t2")
        (bad if field in bad else bad["posts"][0])[field] = value
        with pytest.raises(CorpusFormatError, match=f"line 2: {field} "):
            load_corpus(corpus_file([record(), bad]))

    def test_parent_post_id_must_be_a_string(self, corpus_file):
        posts = [{**post_obj(0), "post_id": "7"}, post_obj(1, parent=7)]
        with pytest.raises(CorpusFormatError, match="line 2: parent_post_id "):
            load_corpus(corpus_file([record(), record(tid="t2", posts=posts)]))

    def test_stable_order_across_loads(self, corpus_file):
        path = corpus_file([record(tid=f"t{i}") for i in range(5)])
        a = load_corpus(path).threads
        b = load_corpus(path).threads
        assert a == b


class TestFilterAndLabel:
    def test_noisy_subforum_dropped(self):
        raw = make_thread(["student"], subforum="study_group", labeled=False)
        assert filter_and_label([raw]) == []

    def test_truncation_and_label(self):
        raw = make_thread(["student", "student", "instructor", "student"], labeled=False)
        (thread,) = filter_and_label([raw])
        assert [p.role.value for p in thread.posts] == ["student", "student", "instructor"]
        assert thread.label is Label.INTERVENED

    def test_staff_first_thread_dropped(self):
        raw = make_thread(["instructor", "student"], labeled=False)
        assert filter_and_label([raw]) == []

    def test_teaching_assistant_is_staff(self):
        truncated = filter_and_label([make_thread(["student", "teaching_assistant", "student"], labeled=False)])
        assert truncated[0].label is Label.INTERVENED
        assert len(truncated[0].posts) == 2
        dropped = filter_and_label([make_thread(["teaching_assistant", "student"], labeled=False)])
        assert dropped == []

    def test_staff_free_thread_labeled_negative(self):
        (thread,) = filter_and_label([make_thread(["student", "student"], labeled=False)])
        assert thread.label is Label.NOT_INTERVENED
        assert len(thread.posts) == 2

    def test_idempotent(self):
        raw = generate_threads(
            GenSpec(n_courses=2, threads_per_course=30, intervention_ratio=0.4,
                    vocabulary_disjointness=0.5, discourse_signal_strength=0.5, seed=3)
        )
        once = filter_and_label(raw)
        assert filter_and_label(once) == once

    def test_truncation_invariant_holds_corpus_wide(self):
        raw = generate_threads(
            GenSpec(n_courses=3, threads_per_course=40, intervention_ratio=0.3,
                    vocabulary_disjointness=0.3, discourse_signal_strength=0.7, seed=11)
        )
        for thread in filter_and_label(raw):
            staff = [i for i, p in enumerate(thread.posts) if p.role.is_staff]
            if thread.label is Label.INTERVENED:
                assert staff == [len(thread.posts) - 1]
            else:
                assert staff == []
            assert thread.posts[0].role.value == "student"


class TestCorpusStats:
    def _threads(self, course, n_pos, n_neg):
        out = []
        for i in range(n_pos):
            out.append(make_thread(["student", "instructor"], course=course, tid=f"pos{i}"))
        for i in range(n_neg):
            out.append(make_thread(["student"], course=course, tid=f"neg{i}"))
        return out

    def test_ratio_displays(self):
        threads = self._threads("CLASSIC-1", 164, 527) + self._threads("DISASTER-1", 81, 2332)
        rows = {r.course_id: r for r in corpus_stats(threads)}
        assert rows["CLASSIC-1"].ratio_display() == "0.31"
        assert rows["DISASTER-1"].ratio_display() == "0.03"

    def test_zero_numerator(self):
        (row,) = corpus_stats(self._threads("C1", 0, 10))
        assert row.ratio == 0.0
        assert row.ratio_display() == "0.00"

    def test_zero_denominator_absent(self):
        (row,) = corpus_stats(self._threads("C1", 5, 0))
        assert row.ratio is None
        assert row.ratio_display() == "-"

    def test_counts_sum_to_labels(self):
        raw = generate_threads(
            GenSpec(n_courses=3, threads_per_course=25, intervention_ratio=0.5,
                    vocabulary_disjointness=0.2, discourse_signal_strength=0.2, seed=5)
        )
        threads = filter_and_label(raw)
        rows = corpus_stats(threads)
        assert sum(r.n_intervened for r in rows) == sum(
            1 for t in threads if t.label is Label.INTERVENED
        )
        assert sum(r.total for r in rows) == len(threads)


def test_subforum_enumeration_closed():
    assert {s.value for s in SubForumType} == {
        "errata", "exam", "lecture", "homework",
        "general", "peer_review", "study_group", "technical_issues",
    }
    with pytest.raises(ValueError):
        SubForumType("off-topic")


def test_thread_hash_is_by_ids_and_equality_by_content():
    a = make_thread(["student", "instructor"], texts=["alpha beta gamma", "noted"])
    b = make_thread(["student", "instructor"], texts=["alpha beta gamma", "noted"])
    assert a is not b and a == b and hash(a) == hash(b)
    other = make_thread(["student", "instructor"], texts=["delta epsilon zeta", "noted"])
    assert (other.course_id, other.thread_id) == (a.course_id, a.thread_id)
    assert other != a
    # same ids, different text: separate prepare_thread cache entries
    assert prepare_thread(a) is prepare_thread(b)
    assert prepare_thread(other)[0].tokens == ("delta", "epsilon", "zeta")
    assert prepare_thread(a)[0].tokens == ("alpha", "beta", "gamma")
