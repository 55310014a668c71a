"""Forum thread ingestion, filtering, truncation and intervention labeling.

Input corpora are line-delimited JSON (one thread per line, schema frozen in
docs/corpus-format.md). Threads from the noisy sub-forums are removed, threads
opened by instructional staff are dropped, and the remaining threads are
truncated at the first staff post, which also determines the label.
Every id (course, thread, post, author, parent) is an interned string, one
``str`` per distinct value for the run, and posts are slotted.
"""

from __future__ import annotations

import json
import logging
import operator
import re
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import TypeVar

logger = logging.getLogger(__name__)
_T = TypeVar("_T")


class InputError(ValueError):
    """A malformed input file; the CLI exits 2 for it and for every subclass."""


class CorpusFormatError(InputError):
    """Raised when an input corpus file violates the frozen record schema."""


# the one grammar of numbers in the tab-separated files, the forms their writers write: a tag span bound, str of
# an int, and repr or %.17g of a finite float. int() and float() also read "_", "+", spaces and other scripts'
# digits, and \d matches those digits, so [0-9]
WRITTEN = {"count": re.compile("[0-9]+"), "int": re.compile("-?[0-9]+"),
           "float": re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?")}


def parse_lines(path, kind: str, parse: Callable[[str], _T], key: Callable[[_T], str | None], error: type[InputError],
                comments=False) -> Iterator[_T]:
    """Stream ``parse(line)`` over the lines of a UTF-8 file (a path, or a package resource).

    Lines end in LF or CRLF; blank lines, and ``#`` lines when ``comments`` is
    set, are skipped. ``key(item)`` names the record a line holds, or is None if
    it holds none. A ValueError from decoding or from ``parse``, or a name seen
    before, is raised as ``error("<kind> line N: <reason>")``, the last with
    reason ``duplicate <name>``.
    """
    seen: set[str] = set()
    with (Path(path) if isinstance(path, str) else path).open("rb") as fh:
        for n, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").rstrip("\r\n")
                if not line.strip() or comments and line.lstrip().startswith("#"):
                    continue
                item = parse(line)
                if (name := key(item)) in seen:
                    raise ValueError(f"duplicate {name}")
                if name is not None:
                    seen.add(name)
            except ValueError as exc:
                raise error(f"{kind} line {n}: {exc}") from None
            yield item


class SubForumType(str, Enum):
    ERRATA = "errata"
    EXAM = "exam"
    LECTURE = "lecture"
    HOMEWORK = "homework"
    GENERAL = "general"
    PEER_REVIEW = "peer_review"
    STUDY_GROUP = "study_group"
    TECHNICAL_ISSUES = "technical_issues"


# Sub-forums whose threads enter the prediction task, in the order of the
# forum.* feature columns and of syngen's draws; the other four are
# dropped as noise during filtering.
CONTENT_SUBFORUMS = (
    SubForumType.ERRATA,
    SubForumType.EXAM,
    SubForumType.LECTURE,
    SubForumType.HOMEWORK,
)


class AuthorRole(str, Enum):
    STUDENT = "student"
    INSTRUCTOR = "instructor"
    TEACHING_ASSISTANT = "teaching_assistant"

    @property
    def is_staff(self) -> bool:
        return self is not AuthorRole.STUDENT


class Label(str, Enum):
    INTERVENED = "intervened"
    NOT_INTERVENED = "not_intervened"


@dataclass(frozen=True, slots=True)
class Post:
    post_id: str
    author_id: str
    role: AuthorRole
    timestamp: datetime
    text: str
    # Absent for top-level posts; set to the parent's post_id for comments.
    parent_post_id: str | None = None


@dataclass(frozen=True)
class Thread:
    course_id: str
    thread_id: str
    subforum: SubForumType
    posts: tuple[Post, ...]
    label: Label | None = None

    def __hash__(self) -> int:
        # ids keep cache lookups cheap; the generated __eq__ still compares every field
        return hash((self.course_id, self.thread_id))

    def first_staff_index(self) -> int | None:
        for i, post in enumerate(self.posts):
            if post.role.is_staff:
                return i
        return None


@dataclass(frozen=True)
class CourseStats:
    course_id: str
    n_intervened: int
    n_not_intervened: int

    @property
    def total(self) -> int:
        return self.n_intervened + self.n_not_intervened

    @property
    def ratio(self) -> float | None:
        """Intervened / non-intervened, or None when undefined."""
        if self.n_not_intervened == 0:
            return None
        return self.n_intervened / self.n_not_intervened

    def ratio_display(self) -> str:
        return "-" if self.ratio is None else f"{self.ratio:.2f}"


@dataclass
class LoadResult:
    """Raw threads plus load diagnostics."""

    threads: list[Thread]
    resorted_threads: int = 0


# RFC 3339's date-time. With a 6-digit fraction and Z as +00:00, datetime.fromisoformat reads it on every supported
# Python and range-checks each field; [0-5] keeps an offset's minutes from carrying into its hours
_RFC3339_RE = re.compile(r"(\d{4}-\d\d-\d\d[Tt ]\d\d:\d\d:\d\d)(?:\.(\d+))?([Zz]|[+-]\d\d:[0-5]\d)", re.ASCII)


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp into UTC; fractional digits past the microsecond are dropped."""
    if (m := _RFC3339_RE.fullmatch(value)) is None:
        raise ValueError(f"timestamp {value!r} is not RFC 3339 with Z or a numeric offset")
    date_time, fraction, offset = m.groups()
    if fraction:
        date_time += "." + fraction[:6].ljust(6, "0")
    if offset in "Zz":  # already UTC
        return datetime.fromisoformat(date_time + "+00:00")
    ts = datetime.fromisoformat(date_time + offset)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:  # the offset pushes the time out of range
        raise ValueError(f"timestamp {value!r} is out of range") from None


# Ids are written as cells of the tab-separated tag and dump files, in UTF-8.
_BAD_ID_CHARS = re.compile("[\t\r\n\ud800-\udfff]")


def _string(obj: dict, key: str) -> str:
    """The JSON string under ``key``."""
    if not isinstance(value := obj.get(key), str):
        raise ValueError(f"{key} is not a string" if key in obj else f"missing {key!r}")
    return value


def _id(obj: dict, key: str) -> str:
    """The id string under ``key``: it holds no tab, CR, LF or lone surrogate, and is interned (the parsed threads
    are held for the run, so each id value is one string)."""
    value = _string(obj, key)
    # none of those characters is printable, so a printable id needs no search
    if not value.isprintable() and _BAD_ID_CHARS.search(value):
        raise ValueError(f"{key} {value!r} holds a tab, CR, LF or lone surrogate")
    return sys.intern(value)


def _member(members: dict[str, _T], enum: Callable[[str], _T], value: str) -> _T:
    """The enum member named by value: a dict lookup, and the (much slower) enum call raises for any other value."""
    return members[value] if value in members else enum(value)


_ROLES = {role.value: role for role in AuthorRole}
_SUBFORUMS = {forum.value: forum for forum in SubForumType}


def _parse_post(obj: dict) -> Post:
    if not isinstance(obj, dict):
        raise ValueError("post is not an object")
    return Post(_id(obj, "post_id"), _id(obj, "author_id"), _member(_ROLES, AuthorRole, _string(obj, "role")),
                parse_rfc3339(_string(obj, "timestamp")), _string(obj, "text"),
                None if obj.get("parent_post_id") is None else _id(obj, "parent_post_id"))


def _parse_record(line: str) -> tuple[Thread, bool]:
    """Returns the thread and whether its posts needed re-sorting."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested past the interpreter's limit
        raise ValueError(f"invalid JSON ({getattr(exc, 'msg', 'nested too deeply')})") from None
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    course_id, thread_id = _id(obj, "course_id"), _id(obj, "thread_id")
    subforum = _member(_SUBFORUMS, SubForumType, _string(obj, "subforum"))
    if not isinstance(obj.get("posts"), list) or not obj["posts"]:
        raise ValueError("posts is not a non-empty list")
    posts = list(map(_parse_post, obj["posts"]))
    seen_ids = set()
    for post in posts:
        if post.post_id in seen_ids:
            raise ValueError(f"duplicate post_id {post.post_id!r}")
        seen_ids.add(post.post_id)
    top_level = {p.post_id for p in posts if p.parent_post_id is None}
    for post in posts:
        if post.parent_post_id is not None and post.parent_post_id not in top_level:
            raise ValueError(f"parent_post_id {post.parent_post_id!r} does not name a top-level post")
    times = [post.timestamp for post in posts]
    monotone = all(map(operator.le, times, times[1:]))
    if not monotone:
        # stable sort: equal timestamps keep input order
        posts = sorted(posts, key=operator.attrgetter("timestamp"))
    return Thread(course_id, thread_id, subforum, tuple(posts)), not monotone


def load_corpus(path: str | Path) -> LoadResult:
    """Read a line-delimited corpus file into raw (unfiltered) threads.

    Posts are returned in chronological order; threads keep file order so
    repeated loads are stable. Threads with out-of-order timestamps are
    re-sorted and counted in the result metadata.
    """
    def key(parsed: tuple[Thread, bool]) -> str:
        return f"thread_id {parsed[0].thread_id!r} in course {parsed[0].course_id!r}"

    threads, resorted = [], 0
    for thread, was_resorted in parse_lines(path, "corpus", _parse_record, key, CorpusFormatError):
        threads.append(thread)
        resorted += was_resorted
    if resorted:
        logger.warning("re-sorted posts of %d thread(s) with non-monotone timestamps", resorted)
    return LoadResult(threads=threads, resorted_threads=resorted)


def filter_and_label(raw: list[Thread]) -> list[Thread]:
    """Apply sub-forum filtering, staff-first removal, truncation and labeling.

    Keeps only errata/exam/lecture/homework threads, drops threads opened by
    instructional staff, truncates each remaining thread right after its first
    staff post (labeled intervened), and labels staff-free threads
    not_intervened. Total: never raises.
    """
    kept: list[Thread] = []
    for thread in raw:
        if thread.subforum not in CONTENT_SUBFORUMS:
            continue
        if not thread.posts or thread.posts[0].role.is_staff:
            continue
        staff_idx = thread.first_staff_index()
        if staff_idx is None:
            kept.append(replace(thread, label=Label.NOT_INTERVENED))
        else:
            kept.append(
                replace(
                    thread,
                    posts=thread.posts[: staff_idx + 1],
                    label=Label.INTERVENED,
                )
            )
    return kept


def corpus_stats(threads: list[Thread]) -> list[CourseStats]:
    """Per-course intervened / non-intervened counts, sorted by course id."""
    flags = {cid: [t.label is Label.INTERVENED for t in course] for cid, course in by_course(threads).items()}
    return [CourseStats(cid, sum(intervened), len(intervened) - sum(intervened)) for cid, intervened in flags.items()]


def by_course(threads: list[Thread]) -> dict[str, list[Thread]]:
    """Group threads by course id, courses in sorted order."""
    grouped: dict[str, list[Thread]] = {}
    for thread in threads:
        grouped.setdefault(thread.course_id, []).append(thread)
    return {cid: grouped[cid] for cid in sorted(grouped)}
