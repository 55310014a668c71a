from __future__ import annotations

import json
import re
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from forum_sentinel import corpus
from forum_sentinel.cli import load_feature_dump, main
from forum_sentinel.corpus import (
    CorpusFormatError,
    InputError,
    Label,
    SubForumType,
    corpus_stats,
    filter_and_label,
    load_corpus,
)
from forum_sentinel.discourse import load_lexicon, load_tag_import
from forum_sentinel.features import prepare_thread
from forum_sentinel.syngen import GenSpec, generate_threads

from conftest import make_thread, post_obj, record
from test_cli import _json_values, _records


# RFC 3339 timestamps in forms other than syngen's, and each one's UTC time
UTC_FORMS = {
    "lowercase-t-and-z": ("2020-01-01t10:00:00z", "2020-01-01T10:00:00"),
    "space-separator": ("2020-01-01 10:00:00Z", "2020-01-01T10:00:00"),
    "fraction-and-zero-offset": ("2020-01-01T10:00:00.5-00:00", "2020-01-01T10:00:00.500000"),
    "fraction-past-microseconds": ("2020-01-01T10:00:00.1234567+01:30", "2020-01-01T08:30:00.123456"),
}


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

    @pytest.mark.parametrize("ts, utc", UTC_FORMS.values(), ids=UTC_FORMS)
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

    def test_a_load_holds_one_string_per_id_value(self, corpus_file):
        posts = [post_obj(0), {**post_obj(1, parent="p0"), "author_id": "u0"}]
        threads = load_corpus(corpus_file([record(tid="t1", posts=posts), record(tid="t2", posts=posts)])).threads
        ids = [thread.course_id for thread in threads] + [thread.thread_id for thread in threads]
        for thread in threads:
            first, comment = thread.posts
            ids += [first.post_id, first.author_id, comment.post_id, comment.author_id, comment.parent_post_id]
        assert len({id(value) for value in ids}) == len(set(ids)) == 6  # C1, t1, t2, p0, p1, u0

    def test_posts_have_no_instance_dict(self, corpus_file):
        post = load_corpus(corpus_file([record()])).threads[0].posts[0]
        assert not hasattr(post, "__dict__")

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


_REPEATS = {  # a reader, the file it reads, and the full message of the repeat
    "corpus": (load_corpus, "".join(json.dumps(r) + "\n" for r in [record(), record(tid="t2"), record()]),
               "corpus line 3: duplicate thread_id 't1' in course 'C1'"),
    "lexicon": (load_lexicon, "# surfaces read as tokens\ne.g.\t0.9\t0\t0\t0\t1\nE. g.\t0.9\t0\t0\t0\t1\n",
                "lexicon line 3: duplicate surface 'e . g .'"),
    "tag-import": (load_tag_import, "C1\tt1\tp0\t0:1:Temporal\nC1\tt1\tp1\n\nC1\tt1\tp0\n",
                   "tag import line 4: duplicate post record ('C1', 't1', 'p0')"),
    "feature-dump": (load_feature_dump,
                     "#space\tedm15\tn_posts\nC1\tt1\tintervened\tn_posts:1.0\nC1\tt1\tnot_intervened\n",
                     "feature dump line 3: duplicate row for thread_id 't1' in course 'C1'"),
}


@pytest.mark.parametrize("reader, text, message", _REPEATS.values(), ids=_REPEATS)
def test_each_reader_names_the_line_of_a_repeated_record(reader, text, message, tmp_path):
    path = tmp_path / "input"
    path.write_text(text, "utf-8")
    with pytest.raises(InputError) as exc:
        reader(path)
    assert str(exc.value) == message


# ids a writer may escape (tab, CR, LF, lone surrogates) or that are not printable yet allowed, timestamps in every
# RFC 3339 form, in and out of order or range, roles and sub-forums near their enum values, and fields of the wrong
# JSON type, dropped into records of the CLI fuzz's shape
_ODD_IDS = st.sampled_from(["x\ty", "x\ry", "x\ny", "x\ud800", "\udfff", "", "p0", "C1", "t1", "x\u00a0y", "\x1c",
                            "\u200b", "\r\n"])
_IN_RANGE_STAMPS = st.sampled_from(["2020-01-06T09:00:00Z", "2020-01-06T11:00:00Z", "2020-01-06T10:00:00Z"])
_ODD_STAMPS = _IN_RANGE_STAMPS | st.sampled_from([
    *(ts for ts, _utc in UTC_FORMS.values()), "2020-01-06T10:00:00.000001z", "2020-01-06t10:00:00+00:00",
    "9999-12-31T23:59:59-01:00", "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59.9999999Z",
    "2020-13-06T10:00:00Z", "2020-02-30T10:00:00Z", "0000-01-01T00:00:00Z", "2020-01-06T10:00:00ZZ", "",
    "2020-01-06T10:00:00Z2020-01-06T10:00:00Z", "2020-01-06T10:00:00", "2020-01-06T10:00:00+0100",
    "\uff12020-01-06T10:00:00Z",
])
_ENUM_VALUES = st.sampled_from([*(role.value for role in corpus.AuthorRole), *(forum.value for forum in SubForumType),
                                "Student", "student ", "", "SubForumType.EXAM"])
_RECORD_FIELDS = ("course_id", "thread_id", "subforum")
_POST_FIELDS = ("post_id", "author_id", "role", "timestamp", "text", "parent_post_id")


@st.composite
def _odd_records(draw):
    if draw(st.booleans()):  # the CLI fuzz's records, most of them malformed somewhere
        rec = draw(_records)
    else:  # a valid record, as most real records are, before the changes below
        posts = [post_obj(i, role=draw(st.sampled_from(["student", "instructor"])), text=draw(st.text(max_size=20)),
                          ts=draw(_IN_RANGE_STAMPS), parent="p0" if i and draw(st.booleans()) else None)
                 for i in range(draw(st.integers(1, 3)))]
        rec = record(tid=draw(st.integers(0, 10**6).map("t{}".format)), posts=posts)
    raw_posts = rec.get("posts") if isinstance(rec, dict) else None
    posts = [p for p in raw_posts if isinstance(p, dict)] if isinstance(raw_posts, list) else []
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if isinstance(rec, dict) else 0):
        field = draw(st.sampled_from(_RECORD_FIELDS + _POST_FIELDS))
        value = draw(_ODD_STAMPS if field == "timestamp" else _ENUM_VALUES if field in ("role", "subforum")
                     else _ODD_IDS | _json_values)
        if field in _RECORD_FIELDS:
            rec[field] = value
        elif posts:
            draw(st.sampled_from(posts))[field] = value
    return rec


def _load_outcome(path):
    """The repr of the loaded threads and the re-sort count, or the error text."""
    try:
        result = load_corpus(path)
    except CorpusFormatError as exc:
        return str(exc)
    return repr(result.threads), result.resorted_threads


# the record parser before its shortcuts (roles and sub-forums by dict, no id search for a printable id, no
# astimezone for a Z timestamp): every field read by its enum call, regex search and offset conversion
_ORACLE_RFC3339_RE = re.compile(r"(\d{4}-\d\d-\d\d[Tt ]\d\d:\d\d:\d\d)(?:\.(\d+))?([Zz]|[+-]\d\d:[0-5]\d)", re.ASCII)
_ORACLE_BAD_ID_CHARS = re.compile("[\t\r\n\ud800-\udfff]")


def _oracle_rfc3339(value):
    if (m := _ORACLE_RFC3339_RE.fullmatch(value)) is None:
        raise ValueError(f"timestamp {value!r} is not RFC 3339 with Z or a numeric offset")
    date_time, fraction, offset = m.groups()
    if fraction:
        date_time += "." + fraction[:6].ljust(6, "0")
    ts = datetime.fromisoformat(date_time + ("+00:00" if offset in "Zz" else offset))
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {value!r} is out of range") from None


def _oracle_string(obj, key):
    value = obj.get(key)
    if not isinstance(value, str):
        raise ValueError(f"{key} is not a string" if key in obj else f"missing {key!r}")
    if key.endswith("_id") and _ORACLE_BAD_ID_CHARS.search(value):
        raise ValueError(f"{key} {value!r} holds a tab, CR, LF or lone surrogate")
    return value


def _oracle_post(obj):
    if not isinstance(obj, dict):
        raise ValueError("post is not an object")
    return corpus.Post(
        post_id=_oracle_string(obj, "post_id"),
        author_id=_oracle_string(obj, "author_id"),
        role=corpus.AuthorRole(_oracle_string(obj, "role")),
        timestamp=_oracle_rfc3339(_oracle_string(obj, "timestamp")),
        text=_oracle_string(obj, "text"),
        parent_post_id=None if obj.get("parent_post_id") is None else _oracle_string(obj, "parent_post_id"),
    )


def _oracle_record(line):
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON ({getattr(exc, 'msg', 'nested too deeply')})") from None
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    course_id, thread_id = _oracle_string(obj, "course_id"), _oracle_string(obj, "thread_id")
    subforum = SubForumType(_oracle_string(obj, "subforum"))
    if not isinstance(obj.get("posts"), list) or not obj["posts"]:
        raise ValueError("posts is not a non-empty list")
    posts = [_oracle_post(p) for p in obj["posts"]]
    seen_ids = set()
    for post in posts:
        if post.post_id in seen_ids:
            raise ValueError(f"duplicate post_id {post.post_id!r}")
        seen_ids.add(post.post_id)
    top_level = {p.post_id for p in posts if p.parent_post_id is None}
    for post in posts:
        if post.parent_post_id is not None and post.parent_post_id not in top_level:
            raise ValueError(f"parent_post_id {post.parent_post_id!r} does not name a top-level post")
    monotone = all(posts[i].timestamp <= posts[i + 1].timestamp for i in range(len(posts) - 1))
    if not monotone:
        posts = sorted(posts, key=lambda p: p.timestamp)
    return corpus.Thread(course_id, thread_id, subforum, tuple(posts)), not monotone


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(_odd_records(), min_size=1, max_size=4))
@example(records=[record(posts=[post_obj(0, ts="2020-01-06T11:00:00Z"), post_obj(1, ts="2020-01-06T10:00:00Z")])])
@example(records=[record(posts=[post_obj(0), post_obj(1, parent="p0"), post_obj(2, parent="p1")])])
@example(records=[record(course="C\t1")])
@example(records=[record(course="C\u00a01", posts=[post_obj(0, ts="2020-01-06 10:00:00.5z")])])
@example(records=[record(posts=[post_obj(0, ts="2020-01-06T10:00:00Z" * 2), post_obj(1, ts="")])])
@example(records=[record(posts=[post_obj(0, ts="9999-12-31T23:59:59-01:00")])])
@example(records=[record(posts=[post_obj(0), post_obj(0)])])
@example(records=[record(posts=[{**post_obj(0), "author_id": "\r\n"}])])
def test_load_matches_the_per_field_parser(records, tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_parse_record", _oracle_record)
        oracle = _load_outcome(path)
    assert _load_outcome(path) == oracle
