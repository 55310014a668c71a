"""Lexicon-driven shallow tagger for explicit discourse connectives.

Each post is scanned for surfaces from a connective lexicon (longest match
wins); a match counts as a discourse connective when its lexicon prior clears
a threshold or a positional cue fires, and receives the top-level sense with
the highest lexicon weight. Only the four top-level senses exist here, and
connectives never cross post boundaries. Externally produced tags can be
swapped in through the tag-import file format: ``tag_thread`` takes either
source as its one ``tags`` argument, so the feature pipeline above it is
tagger-agnostic.

A lexicon surface is tokenized by ``textprep.prepare_text`` like a post ("E.g." is ``e . g .``); the
4-token limit and the duplicate check count those tokens (format: docs/model-format.md).

``tag_thread`` reads a thread's tokens from ``textprep.prepare_thread``. A
lexicon remembers each thread it tagged, so evaluation folds that score a
thread again reuse its tags. A thread hashes by its ids but compares every
field, so a truncated copy of a thread is tagged on its own.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

from .corpus import WRITTEN, InputError, Thread, parse_lines
from .textprep import Shared, TokenizedPost, prepare_text, prepare_thread

DEFAULT_TAU = 0.5
MAX_SURFACE_TOKENS = 4


class LexiconError(InputError):
    """Raised for malformed or inconsistent lexicon / tag-import files."""


class SenseTag(Enum):
    """The four top-level relation senses, in fixed ordinal order."""

    TEMPORAL = 0
    CONTINGENCY = 1
    COMPARISON = 2
    EXPANSION = 3

    @property
    def label(self) -> str:
        return self.name.capitalize()

    @classmethod
    def from_label(cls, label: str) -> "SenseTag":
        try:
            return cls[label.upper()]
        except KeyError:
            raise LexiconError(f"unknown sense {label!r}") from None


SENSES: tuple[SenseTag, ...] = tuple(SenseTag)


@dataclass(frozen=True)
class LexiconEntry:
    surface: str
    tokens: tuple[str, ...]
    discourse_prior: float
    sense_weights: tuple[float, float, float, float]

    @functools.cached_property
    def sense(self) -> SenseTag:
        # ties resolve to the earliest sense in ordinal order
        best = max(self.sense_weights)
        return SENSES[self.sense_weights.index(best)]


@dataclass(frozen=True, slots=True)
class TaggedConnective:
    start: int
    end: int  # half-open token span within one post
    surface: str
    sense: SenseTag


@dataclass(frozen=True, slots=True)
class PostDiscourse:
    tags: tuple[TaggedConnective, ...]
    # each tag's sense ordinal, in tag order: what the discourse features count (read once per tagging)
    senses: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # a tuple of a list, not of a generator, is never resized (see features._sense_runs)
        object.__setattr__(self, "senses", _RUNS[tuple([tag.sense._value_ for tag in self.tags])])


_RUNS = Shared(lambda run: run)  # one tuple per distinct run of sense ordinals


_UNTAGGED = PostDiscourse(tags=())  # shared by every post without a connective


class ConnectiveLexicon:
    def __init__(self, entries: list[LexiconEntry]):
        self.entries = {e.tokens: e for e in entries}
        # first token -> (length, tokens, entry) of each surface it starts, longest first
        self._by_first: dict[str, list[tuple[int, tuple[str, ...], LexiconEntry]]] = {}
        for entry in sorted(entries, key=lambda e: -len(e.tokens)):
            self._by_first.setdefault(entry.tokens[0], []).append((len(entry.tokens), entry.tokens, entry))
        self._tagged: dict[Thread, tuple[PostDiscourse, ...]] = {}  # thread -> its posts' tags


def _parse_lexicon_line(line: str) -> LexiconEntry:
    parts = line.split("\t")
    if len(parts) != 6:
        raise ValueError(f"expected 6 tab-separated fields, got {len(parts)}")
    tokens = prepare_text(parts[0]).tokens
    if not tokens:
        raise ValueError("empty surface")
    if len(tokens) > MAX_SURFACE_TOKENS:
        raise ValueError(f"surface longer than {MAX_SURFACE_TOKENS} tokens")
    prior = float(parts[1])
    weights = tuple(float(p) for p in parts[2:6])
    if not 0.0 <= prior <= 1.0:
        raise ValueError(f"discourse_prior {prior} outside [0, 1]")
    if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
        raise ValueError("sense weights need >=1 positive, none negative")
    return LexiconEntry(surface=" ".join(tokens), tokens=tokens, discourse_prior=prior, sense_weights=weights)


def load_lexicon(path: str | Path | None = None) -> ConnectiveLexicon:
    """Load a connective lexicon; None loads the shipped default."""
    source = resources.files("forum_sentinel.data") / "connectives.tsv" if path is None else path
    entries = parse_lines(source, "lexicon", _parse_lexicon_line, lambda entry: f"surface {entry.surface!r}",
                          LexiconError, comments=True)
    return ConnectiveLexicon(list(entries))


def tag_post(tok: TokenizedPost, lexicon: ConnectiveLexicon) -> PostDiscourse:
    """Tag explicit connectives in one post's unfiltered token stream.

    Candidate surfaces are matched over the tokens; overlaps resolve in favor
    of the longer then the leftmost match. A surviving match is accepted when
    its discourse prior is >= ``DEFAULT_TAU``, or it opens a sentence, or it
    touches a comma. The sense is the argmax of the entry's sense weights.
    """
    tokens = tok.tokens
    by_first = lexicon._by_first
    if by_first.keys().isdisjoint(tokens):  # no surface starts here, as in most posts
        return _UNTAGGED
    # a slice past the end is shorter than the surface, so it never matches
    matches = [(i, i + n, entry)
               for i in itertools.compress(itertools.count(), map(by_first.__contains__, tokens))
               for n, surface, entry in by_first[tokens[i]] if tokens[i:i + n] == surface]
    if len(matches) > 1:  # matches are by start, so one match has nothing to resolve
        matches.sort(key=lambda m: (m[0] - m[1], m[0]))  # longer first, then leftmost
        used = [False] * len(tokens)
        resolved: list[tuple[int, int, LexiconEntry]] = []
        for start, end, entry in matches:
            if not any(used[start:end]):
                used[start:end] = [True] * (end - start)
                resolved.append((start, end, entry))
        matches = sorted(resolved, key=operator.itemgetter(0))
    tagged = [
        TaggedConnective(start, end, entry.surface, entry.sense)
        for start, end, entry in matches
        if entry.discourse_prior >= DEFAULT_TAU
        or (start > 0 and tokens[start - 1] == ",")
        or (end < len(tokens) and tokens[end] == ",")
        or any(s == start for s, _e in tok.sentences)
    ]
    return PostDiscourse(tags=tuple(tagged)) if tagged else _UNTAGGED


# Imported tags, keyed by (course_id, thread_id, post_id).
TagImport = dict[tuple[str, str, str], tuple[tuple[int, int, SenseTag], ...]]


def tag_thread(thread: Thread, tags: ConnectiveLexicon | TagImport | None) -> list[PostDiscourse]:
    """Tag every post of a thread independently (never across posts).

    ``tags`` is the tag source: a lexicon runs the matcher once per thread it
    has not tagged before, and an import table's (span, sense) triples are
    returned verbatim for each post.
    """
    if isinstance(tags, ConnectiveLexicon):
        if (found := tags._tagged.get(thread)) is None:
            found = tags._tagged[thread] = tuple(tag_post(tok, tags) for tok in prepare_thread(thread))
        return list(found)
    if tags is None:
        raise ValueError("tagging needs a connective lexicon or imported tags")
    out: list[PostDiscourse] = []
    for post, tok in zip(thread.posts, prepare_thread(thread)):
        triples = tags.get((thread.course_id, thread.thread_id, post.post_id), ())
        found = []
        prev_end = -1
        for start, end, sense in sorted(triples, key=lambda t: t[:2]):  # a repeated span is an overlap
            if not (0 <= start < end <= len(tok.tokens)):
                raise LexiconError(
                    f"imported span ({start}, {end}) out of range for post {post.post_id!r}"
                )
            if start < prev_end:
                raise LexiconError(f"imported spans overlap in post {post.post_id!r}")
            prev_end = end
            found.append(TaggedConnective(start, end, " ".join(tok.tokens[start:end]), sense))
        out.append(PostDiscourse(tags=tuple(found)))
    return out


def _parse_triple(cell: str) -> tuple[int, int, SenseTag]:
    bits = cell.split(":")
    if len(bits) != 3 or not all(map(WRITTEN["count"].fullmatch, bits[:2])):
        raise ValueError(f"bad triple {cell!r}")
    return int(bits[0]), int(bits[1]), SenseTag.from_label(bits[2])


def load_tag_import(path: str | Path) -> TagImport:
    """Read a tag-import file: course, thread, post ids then start:end:Sense triples."""
    def parse(line: str):
        course_id, thread_id, post_id, *cells = line.split("\t")
        return (course_id, thread_id, post_id), tuple(_parse_triple(cell) for cell in cells if cell)

    return dict(parse_lines(path, "tag import", parse, lambda record: f"post record {record[0]}", LexiconError))


def format_tag_records(thread: Thread, taggings: list[PostDiscourse]) -> list[str]:
    """Render one thread's tags in the tag-import file format."""
    lines = []
    for post, disc in zip(thread.posts, taggings):
        cells = [thread.course_id, thread.thread_id, post.post_id]
        cells += [f"{t.start}:{t.end}:{t.sense.label}" for t in disc.tags]
        lines.append("\t".join(cells))
    return lines


def sense_distribution(taggings: Iterable[PostDiscourse]) -> dict[SenseTag, float] | None:
    """Percentage of tagged connectives per sense over posts' taggings (one
    thread's or a whole corpus's); None when nothing is tagged."""
    counts = dict.fromkeys(SENSES, 0)
    for disc in taggings:
        for tag in disc.tags:
            counts[tag.sense] += 1
    total = sum(counts.values())
    if total == 0:
        return None
    return {sense: 100.0 * counts[sense] / total for sense in SENSES}
