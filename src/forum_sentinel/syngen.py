"""Deterministic synthetic forum corpora for desk-scale experiments.

Courses draw content words from partially disjoint pools (the disjointness
knob controls how much of a course's vocabulary is unique to it). Threads
that receive an intervention get, with the configured probability, student
sentences built around contingency/comparison connective clusters; a small
fixed fraction of non-intervened threads get the same pattern as noise, and
all posts can carry temporal/expansion connectives as background.

Two properties are deliberate: every fixed template word is a stopword, so
the planted discourse signal cannot reach the unigram features, and planted
sentences replace ordinary ones, so thread-structure features stay
label-independent. Shared sprinkles (URLs, clock times, affirmations) scale
with (1 - disjointness); at full disjointness courses share no vocabulary at
all.
"""

from __future__ import annotations

import json
import math
import random
import string
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import Thread, _parse_record

_BASE_EPOCH = 1577836800  # 2020-01-01T00:00:00Z
_SUBFORUMS = ("errata", "exam", "lecture", "homework")
_FILLER = (
    "i", "we", "you", "the", "a", "this", "that", "it", "is", "are",
    "was", "do", "have", "not", "to", "of", "in", "my", "our", "how",
    "what", "very",
)
_SHARED_POOL_SIZE = 120
_COURSE_POOL_SIZE = 90
_CONFUSION_WORDS = 30
_NOISE_PATTERN_RATE = 0.05
_BACKGROUND_RATE = 0.3


class GenError(ValueError):
    """Raised for invalid or infeasible generation specs."""


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class GenSpec:
    n_courses: int
    threads_per_course: int
    intervention_ratio: float | tuple[float, ...]
    vocabulary_disjointness: float
    discourse_signal_strength: float
    seed: int

    def __post_init__(self):
        if not all(type(n) is int for n in (self.n_courses, self.threads_per_course, self.seed)):
            raise GenError("n_courses, threads_per_course and seed must be integers")
        if self.n_courses < 1 or self.threads_per_course < 1:
            raise GenError("counts must be positive")
        for p in (self.vocabulary_disjointness, self.discourse_signal_strength):
            if not (_is_real(p) and 0.0 <= p <= 1.0):
                raise GenError("probabilities must lie in [0, 1]")
        for r in self.ratios():
            if not (math.isfinite(r) and r >= 0):
                raise GenError("intervention ratios must be finite and nonnegative")

    def ratios(self) -> tuple[float, ...]:
        if _is_real(self.intervention_ratio):
            return (float(self.intervention_ratio),) * self.n_courses
        if not (isinstance(self.intervention_ratio, (tuple, list)) and all(map(_is_real, self.intervention_ratio))):
            raise GenError("intervention_ratio must be a number or a list of numbers")
        ratios = tuple(float(r) for r in self.intervention_ratio)
        if len(ratios) != self.n_courses:
            raise GenError("need one intervention ratio per course")
        return ratios


def load_genspec(path: str | Path) -> GenSpec:
    """Read a JSON generation spec; one that is malformed raises GenError."""
    try:
        obj = json.loads(Path(path).read_text("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise GenError(f"generation spec is not UTF-8 JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise GenError("generation spec is not a JSON object")
    try:
        values = {f.name: obj[f.name] for f in fields(GenSpec)}
    except KeyError as exc:
        raise GenError(f"generation spec missing field {exc}") from None
    if isinstance(values["intervention_ratio"], list):
        values["intervention_ratio"] = tuple(values["intervention_ratio"])
    return GenSpec(**values)


def intervened_count(n_threads: int, ratio: float) -> int:
    """Threads to intervene so that intervened/non-intervened ~= ratio."""
    count = int(round(n_threads * ratio / (1.0 + ratio)))
    if count > n_threads:
        raise GenError(f"intervened count {count} exceeds thread count {n_threads}")
    return count


def _make_pool(rng: random.Random, size: int, used: set[str]) -> list[str]:
    pool = []
    while len(pool) < size:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(5, 8)))
        if word not in used:
            used.add(word)
            pool.append(word)
    return pool


def _timestamp(thread_idx: int, post_idx: int) -> str:
    from datetime import datetime, timezone

    t = _BASE_EPOCH + thread_idx * 3600 + post_idx * 60
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class _CourseContext:
    def __init__(self, rng, shared_pool, course_pool, disjointness):
        self.rng = rng
        self.shared = shared_pool
        self.confusion = course_pool[:_CONFUSION_WORDS]
        self.normal = course_pool[_CONFUSION_WORDS:]
        self.disjointness = disjointness

    def content_word(self, confused: bool) -> str:
        rng = self.rng
        if confused and rng.random() < 0.5:
            return rng.choice(self.confusion)
        if rng.random() < self.disjointness:
            return rng.choice(self.normal)
        return rng.choice(self.shared)

    def plain_sentence(self, confused: bool) -> str:
        rng = self.rng
        words = []
        for _ in range(rng.randint(5, 10)):
            if rng.random() < 0.5:
                words.append(rng.choice(_FILLER))
            else:
                words.append(self.content_word(confused))
        return " ".join(words).capitalize() + "."

    def pattern_sentence(self, confused: bool) -> str:
        # contingency/comparison clusters; every fixed word is a stopword
        c = lambda: self.content_word(confused)  # noqa: E731
        pick = self.rng.randrange(3)
        if pick == 0:
            return f"But if {c()} is {c()} then what should we do."
        if pick == 1:
            return f"I am so {c()} because this {c()} is not {c()}."
        return f"But this {c()} was not {c()}, so we should do it again."

    def background_sentence(self, confused: bool) -> str:
        # temporal/expansion connectives, label-independent
        c = lambda: self.content_word(confused)  # noqa: E731
        if self.rng.randrange(2) == 0:
            return f"When the {c()} was {c()} we did it again."
        return f"After that we are in {c()} or {c()}."

    def post_text(self, confused: bool, planted: bool, sprinkle_scale: float) -> str:
        rng = self.rng
        n_sentences = rng.randint(1, 3)
        sentences = [self.plain_sentence(confused) for _ in range(n_sentences)]
        if planted:
            for i in range(min(2, n_sentences)):
                sentences[i] = self.pattern_sentence(confused)
        elif rng.random() < _BACKGROUND_RATE:
            sentences[-1] = self.background_sentence(confused)
        if rng.random() < 0.1 * sprinkle_scale:
            sentences.append(f"See http://example.com/p{rng.randrange(1000)} for this.")
        if rng.random() < 0.1 * sprinkle_scale:
            sentences.append(f"It was at 10:{rng.randrange(10, 60)} in the video.")
        return " ".join(sentences)


def generate_records(spec: GenSpec) -> list[dict]:
    """Build the corpus as record dicts; deterministic given spec + seed."""
    rng = random.Random(spec.seed)
    used: set[str] = set()
    shared_pool = _make_pool(rng, _SHARED_POOL_SIZE, used)
    course_pools = [_make_pool(rng, _COURSE_POOL_SIZE, used) for _ in range(spec.n_courses)]
    sprinkle_scale = 1.0 - spec.vocabulary_disjointness

    records: list[dict] = []
    thread_counter = 0
    for course_idx, ratio in enumerate(spec.ratios()):
        course_id = f"SYN-{course_idx}"
        ctx = _CourseContext(
            rng, shared_pool, course_pools[course_idx], spec.vocabulary_disjointness
        )
        n_pos = intervened_count(spec.threads_per_course, ratio)
        intervened_idx = set(rng.sample(range(spec.threads_per_course), n_pos))
        for t in range(spec.threads_per_course):
            intervened = t in intervened_idx
            n_posts = rng.randint(2, 6)
            plant = rng.random() < (
                spec.discourse_signal_strength if intervened else _NOISE_PATTERN_RATE
            )
            student_slots = n_posts - 1 if intervened else n_posts
            pattern_slot = rng.randrange(student_slots) if plant else -1
            posts = []
            for p in range(n_posts):
                staff = intervened and p == n_posts - 1
                confused = intervened and not staff
                text = ctx.post_text(confused, planted=(p == pattern_slot and not staff), sprinkle_scale=sprinkle_scale)
                if p > 0 and not staff and rng.random() < 0.1 * sprinkle_scale:
                    text = "Thanks for that. " + text
                # the final post stays top-level in both classes so comment
                # counts carry no label information
                is_comment = 0 < p < n_posts - 1 and rng.random() < 0.3
                posts.append(
                    {
                        "post_id": f"p{p}",
                        "author_id": "staff" if staff else f"u{rng.randrange(500)}",
                        "role": "instructor" if staff else "student",
                        "timestamp": _timestamp(thread_counter, p),
                        "text": text,
                        **({"parent_post_id": "p0"} if is_comment else {}),
                    }
                )
            records.append(
                {
                    "course_id": course_id,
                    "thread_id": f"t{t:04d}",
                    "subforum": rng.choice(_SUBFORUMS),
                    "posts": posts,
                }
            )
            thread_counter += 1
    return records


def records_to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def generate(spec: GenSpec, path: str | Path) -> None:
    """Write the generated corpus in the line-delimited corpus format."""
    Path(path).write_bytes(records_to_jsonl(generate_records(spec)).encode("utf-8"))


def generate_threads(spec: GenSpec) -> list[Thread]:
    """Generate and parse through the corpus reader (raw, unfiltered threads)."""
    return [
        _parse_record(json.dumps(record, sort_keys=True), i + 1)[0]
        for i, record in enumerate(generate_records(spec))
    ]
