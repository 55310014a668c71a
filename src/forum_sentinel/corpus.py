"""Forum thread ingestion, filtering, truncation and intervention labeling.

Input corpora are line-delimited JSON (one thread per line, schema frozen in
docs/corpus-format.md). Threads from the noisy sub-forums are removed, threads
opened by instructional staff are dropped, and the remaining threads are
truncated at the first staff post, which also determines the label.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

logger = logging.getLogger(__name__)


class CorpusFormatError(ValueError):
    """Raised when an input corpus file violates the frozen record schema."""


class SubForumType(str, Enum):
    ERRATA = "errata"
    EXAM = "exam"
    LECTURE = "lecture"
    HOMEWORK = "homework"
    GENERAL = "general"
    PEER_REVIEW = "peer_review"
    STUDY_GROUP = "study_group"
    TECHNICAL_ISSUES = "technical_issues"


# Sub-forums whose threads enter the prediction task; the other four are
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


@dataclass(frozen=True)
class Post:
    post_id: str
    author_id: str
    role: AuthorRole
    timestamp: datetime
    text: str
    # Absent for top-level posts; set to the parent's post_id for comments.
    parent_post_id: str | None = None

    @property
    def is_comment(self) -> bool:
        return self.parent_post_id is not None


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


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp, which must carry ``Z`` or a numeric offset."""
    if not isinstance(value, str):
        raise ValueError(f"timestamp {value!r} is not a string")
    # py3.10 fromisoformat rejects the 'Z' suffix
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        raise ValueError(f"timestamp {value!r} has no Z or numeric offset")
    return ts.astimezone(timezone.utc)


def _parse_post(obj: dict, line_no: int) -> Post:
    try:
        role = AuthorRole(obj["role"])
    except ValueError:
        raise CorpusFormatError(
            f"line {line_no}: unknown author role {obj.get('role')!r}"
        ) from None
    except (KeyError, TypeError):
        raise CorpusFormatError(f"line {line_no}: post missing 'role'") from None
    if not isinstance(obj.get("text", ""), str):
        raise CorpusFormatError(f"line {line_no}: post text is not a string")
    try:
        return Post(
            post_id=str(obj["post_id"]),
            author_id=str(obj["author_id"]),
            role=role,
            timestamp=parse_rfc3339(obj["timestamp"]),
            text=obj["text"],
            parent_post_id=(
                str(obj["parent_post_id"]) if obj.get("parent_post_id") is not None else None
            ),
        )
    except KeyError as exc:
        raise CorpusFormatError(f"line {line_no}: post missing {exc}") from None
    except ValueError as exc:
        raise CorpusFormatError(f"line {line_no}: bad post field ({exc})") from None


def _parse_record(line: str, line_no: int) -> tuple[Thread, bool]:
    """Returns the thread and whether its posts needed re-sorting."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from None
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"line {line_no}: record is not an object")
    for key in ("course_id", "thread_id", "subforum", "posts"):
        if key not in obj:
            raise CorpusFormatError(f"line {line_no}: record missing '{key}'")
    try:
        subforum = SubForumType(obj["subforum"])
    except ValueError:
        raise CorpusFormatError(
            f"line {line_no}: unknown subforum {obj['subforum']!r}"
        ) from None
    posts = [_parse_post(p, line_no) for p in obj["posts"]]
    if not posts:
        raise CorpusFormatError(f"line {line_no}: thread has no posts")
    seen_ids = set()
    for post in posts:
        if post.post_id in seen_ids:
            raise CorpusFormatError(
                f"line {line_no}: duplicate post_id {post.post_id!r}"
            )
        seen_ids.add(post.post_id)
    top_level = {p.post_id for p in posts if p.parent_post_id is None}
    for post in posts:
        if post.parent_post_id is not None and post.parent_post_id not in top_level:
            raise CorpusFormatError(
                f"line {line_no}: parent_post_id {post.parent_post_id!r} does not "
                f"name a top-level post"
            )
    monotone = all(
        posts[i].timestamp <= posts[i + 1].timestamp for i in range(len(posts) - 1)
    )
    if not monotone:
        # stable sort: equal timestamps keep input order
        posts = sorted(posts, key=lambda p: p.timestamp)
    thread = Thread(
        course_id=str(obj["course_id"]),
        thread_id=str(obj["thread_id"]),
        subforum=subforum,
        posts=tuple(posts),
    )
    return thread, not monotone


def load_corpus(path: str | Path) -> LoadResult:
    """Read a line-delimited corpus file into raw (unfiltered) threads.

    Posts are returned in chronological order; threads keep file order so
    repeated loads are stable. Threads with out-of-order timestamps are
    re-sorted and counted in the result metadata.
    """
    path = Path(path)
    threads: list[Thread] = []
    resorted = 0
    seen: set[tuple[str, str]] = set()
    try:
        with path.open("r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                thread, was_resorted = _parse_record(line, line_no)
                key = (thread.course_id, thread.thread_id)
                if key in seen:
                    raise CorpusFormatError(
                        f"line {line_no}: duplicate thread_id {thread.thread_id!r} "
                        f"in course {thread.course_id!r}"
                    )
                seen.add(key)
                if was_resorted:
                    resorted += 1
                threads.append(thread)
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"corpus is not UTF-8: {exc}") from None
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
    counts: dict[str, list[int]] = {}
    for thread in threads:
        row = counts.setdefault(thread.course_id, [0, 0])
        if thread.label is Label.INTERVENED:
            row[0] += 1
        else:
            row[1] += 1
    return [
        CourseStats(course_id=cid, n_intervened=i, n_not_intervened=n)
        for cid, (i, n) in sorted(counts.items())
    ]


def by_course(threads: list[Thread]) -> dict[str, list[Thread]]:
    """Group threads by course id, courses in sorted order."""
    grouped: dict[str, list[Thread]] = {}
    for thread in threads:
        grouped.setdefault(thread.course_id, []).append(thread)
    return {cid: grouped[cid] for cid in sorted(grouped)}
