"""Lexicon-driven shallow tagger for explicit discourse connectives.

Each post is scanned for surfaces from a connective lexicon (longest match
wins); a match counts as a discourse connective when its lexicon prior clears
a threshold or a positional cue fires, and receives the top-level sense with
the highest lexicon weight. Only the four top-level senses exist here, and
connectives never cross post boundaries. Externally produced tags can be
swapped in through the tag-import file format: ``tag_thread`` takes either
source as its one ``tags`` argument, so the feature pipeline above it is
tagger-agnostic.

A lexicon remembers each post it tagged, by tokens and sentence bounds (the
cues read both), so evaluation folds that score a post again reuse its tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .corpus import InputError, Thread, parse_lines
from .textprep import TokenizedPost

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

    @property
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

    def __len__(self) -> int:
        return len(self.tags)


_UNTAGGED = PostDiscourse(tags=())  # shared by every post without a connective


class ConnectiveLexicon:
    def __init__(self, entries: list[LexiconEntry]):
        self.entries = {e.tokens: e for e in entries}
        self._by_first: dict[str, list[LexiconEntry]] = {}
        for entry in entries:
            self._by_first.setdefault(entry.tokens[0], []).append(entry)
        for group in self._by_first.values():
            group.sort(key=lambda e: -len(e.tokens))
        self._tagged: dict[tuple, PostDiscourse] = {}  # (tokens, sentences) -> tag_post's result

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, surface: str) -> bool:
        return tuple(surface.split()) in self.entries

    def without(self, surface: str) -> "ConnectiveLexicon":
        key = tuple(surface.split())
        return ConnectiveLexicon([e for e in self.entries.values() if e.tokens != key])


def _parse_lexicon_line(line: str) -> LexiconEntry:
    parts = line.split("\t")
    if len(parts) != 6:
        raise ValueError(f"expected 6 tab-separated fields, got {len(parts)}")
    surface = parts[0].strip().lower()
    tokens = tuple(surface.split())
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
    return LexiconEntry(surface=surface, tokens=tokens, discourse_prior=prior, sense_weights=weights)


def load_lexicon(path: str | Path | None = None) -> ConnectiveLexicon:
    """Load a connective lexicon; None loads the shipped default."""
    seen: set[tuple[str, ...]] = set()

    def parse(line: str) -> LexiconEntry:
        entry = _parse_lexicon_line(line)
        if entry.tokens in seen:
            raise ValueError(f"duplicate surface {entry.surface!r}")
        seen.add(entry.tokens)
        return entry

    source = resources.files("forum_sentinel.data") / "connectives.tsv" if path is None else path
    return ConnectiveLexicon(list(parse_lines(source, "lexicon", parse, LexiconError, comments=True)))


def tag_post(tok: TokenizedPost, lexicon: ConnectiveLexicon) -> PostDiscourse:
    """Tag explicit connectives in one post's unfiltered token stream.

    Candidate surfaces are matched over the tokens; overlaps resolve in favor
    of the longer then the leftmost match. A surviving match is accepted when
    its discourse prior is >= ``DEFAULT_TAU``, or it opens a sentence, or it
    touches a comma. The sense is the argmax of the entry's sense weights.
    """
    key = (tok.tokens, tok.sentences)
    if (found := lexicon._tagged.get(key)) is None:
        found = lexicon._tagged[key] = _match_connectives(*key, lexicon)
    return found


def _match_connectives(tokens, sentences, lexicon: ConnectiveLexicon) -> PostDiscourse:
    n = len(tokens)
    by_first = lexicon._by_first
    matches: list[tuple[int, int, LexiconEntry]] = []
    for i in [i for i, token in enumerate(tokens) if token in by_first]:
        for entry in by_first[tokens[i]]:
            end = i + len(entry.tokens)
            if end <= n and tokens[i:end] == entry.tokens:
                matches.append((i, end, entry))
    if not matches:
        return _UNTAGGED
    matches.sort(key=lambda m: (m[0] - m[1], m[0]))  # longer first, then leftmost
    used = [False] * n
    resolved: list[tuple[int, int, LexiconEntry]] = []
    for start, end, entry in matches:
        if any(used[start:end]):
            continue
        for k in range(start, end):
            used[k] = True
        resolved.append((start, end, entry))

    sentence_starts = {s for s, _e in sentences}
    tagged: list[TaggedConnective] = []
    for start, end, entry in resolved:
        cue = (
            start in sentence_starts
            or (start > 0 and tokens[start - 1] == ",")
            or (end < n and tokens[end] == ",")
        )
        if entry.discourse_prior >= DEFAULT_TAU or cue:
            tagged.append(TaggedConnective(start, end, entry.surface, entry.sense))
    tagged.sort(key=lambda t: t.start)
    return PostDiscourse(tags=tuple(tagged)) if tagged else _UNTAGGED


# Imported tags, keyed by (course_id, thread_id, post_id).
TagImport = dict[tuple[str, str, str], tuple[tuple[int, int, SenseTag], ...]]


def tag_thread(
    thread: Thread,
    tokenized_posts: list[TokenizedPost],
    tags: ConnectiveLexicon | TagImport | None,
) -> list[PostDiscourse]:
    """Tag every post of a thread independently (never across posts).

    ``tags`` is the tag source: a lexicon runs the matcher, and an import
    table's (span, sense) triples are returned verbatim for each post.
    """
    if isinstance(tags, ConnectiveLexicon):
        return [tag_post(tok, tags) for tok in tokenized_posts]
    if tags is None:
        raise ValueError("tagging needs a connective lexicon or imported tags")
    out: list[PostDiscourse] = []
    for post, tok in zip(thread.posts, tokenized_posts):
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
    if len(bits) != 3:
        raise ValueError(f"bad triple {cell!r}")
    return int(bits[0]), int(bits[1]), SenseTag.from_label(bits[2])


def load_tag_import(path: str | Path) -> TagImport:
    """Read a tag-import file: course, thread, post ids then start:end:Sense triples."""
    seen: set[tuple[str, str, str]] = set()

    def parse(line: str):
        course_id, thread_id, post_id, *cells = line.split("\t")
        key = (course_id, thread_id, post_id)
        if key in seen:
            raise ValueError(f"duplicate post record {key}")
        seen.add(key)
        return key, tuple(_parse_triple(cell) for cell in cells if cell)

    return dict(parse_lines(path, "tag import", parse, LexiconError))


def format_tag_records(thread: Thread, taggings: list[PostDiscourse]) -> list[str]:
    """Render one thread's tags in the tag-import file format."""
    lines = []
    for post, disc in zip(thread.posts, taggings):
        cells = [thread.course_id, thread.thread_id, post.post_id]
        cells += [f"{t.start}:{t.end}:{t.sense.label}" for t in disc.tags]
        lines.append("\t".join(cells))
    return lines


def sense_distribution(taggings) -> dict[SenseTag, float] | None:
    """Percentage of tagged connectives per sense; None when nothing is tagged.

    Accepts any nesting of PostDiscourse (per post, per thread, per corpus).
    """
    counts = dict.fromkeys(SENSES, 0)
    stack = list(taggings)
    while stack:
        item = stack.pop()
        if isinstance(item, PostDiscourse):
            for tag in item.tags:
                counts[tag.sense] += 1
        else:
            stack.extend(item)
    total = sum(counts.values())
    if total == 0:
        return None
    return {sense: 100.0 * counts[sense] / total for sense in SENSES}
