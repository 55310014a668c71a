"""Tokenization, sentence splitting and non-lexical token replacement.

A post is prepared in a few regex passes. ``replace_nonlexical`` rewrites
URLs, $-delimited equations, clock times and heuristic equation runs to the
opaque placeholders URL / EQU / TIMEREF, skipping a pass when the text lacks a
literal its matches need ("://" or "www.", "$", ":", two operators), and all
of them after one search in a text that holds none (nine posts in ten). A
placeholder that would touch a letter, digit or apostrophe gets a space on
that side, so "10:30am" becomes "TIMEREF am", not "timerefam". One pass then
splits the text after each run of . ! ? that whitespace and a non-terminator
follow; a sentence can end there if the next piece opens with a capital. Each
piece is read chunk by whitespace-delimited chunk, and each distinct chunk's
tokens once by ``_TOKEN_RE``: runs of ASCII letters and digits joined by inner
apostrophes, or single other non-space characters, lowercased except the
placeholders. The fixtures data/nonlexical_patterns.tsv and
sentence_splits.tsv pin this. Prepared posts share their values: all tokens
that spell one word are one ``str`` object, and equal ``(start, end)``
sentence bounds, equal bound sequences and equal replacement counts are each
one object for the run. ``replaced_counts`` is a read-only mapping, so a write
to it raises ``TypeError`` instead of reaching every post that shares it.
``prepare_text`` is the only path from text to tokens, for posts, lexicon
surfaces and affirmation phrases alike. ``prepare_thread`` prepares each
post of a thread and caches the result per thread.
"""

from __future__ import annotations

import itertools
import operator
import re
import string
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

from .corpus import Thread

PLACEHOLDERS = ("EQU", "URL", "TIMEREF")

_URL_RE = re.compile(r"(?:(?:https?|ftp)://|www\.)\S+", re.IGNORECASE)
_DOLLAR_EQU_RE = re.compile(r"\$[^$\n]+\$")
_TIME_RE = re.compile(r"(?<![\d:])\d{1,2}:\d{2}(?::\d{2})?(?![\d:])")
# heuristic equation: a whitespace-delimited run with >=2 operator chars (=+^/\) and a digit; the pattern
# picks out runs with the operators, trying run starts only so each run is scanned once; _is_equation_run does the rest
_EQU_RUN_RE = re.compile(r"(?<!\S)(?=[^\s=+^/\\]*[=+^/\\][^\s=+^/\\]*[=+^/\\])\S+")
_EQU_MIN_OPS = 2  # a text with fewer operator chars in all holds no such run, so the pass is skipped
# a lowercased text holding none of a pass's literals has no match (the URL pattern ignores case)
_PASS_LITERALS = {_URL_RE: ("://", "www."), _DOLLAR_EQU_RE: ("$",), _TIME_RE: (":",)}
# the passes in their frozen order, with the placeholder each writes
_PASS_PLACEHOLDERS = {_URL_RE: "URL", _DOLLAR_EQU_RE: "EQU", _TIME_RE: "TIMEREF"}
# characters a placeholder would merge with into one token (the tokenizer joins "'s" on)
_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "'")
_TRIGGER_RE = re.compile(r"[:$=+^/\\]")  # the pass literals other than "www.", and an equation run's operators

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*|[^\sA-Za-z0-9]")
# the last terminator of a run of . ! ? and the whitespace after it, where a token other than a terminator
# follows: the places a sentence can end. The terminator is a token of its own.
_BREAK_RE = re.compile(r"([.!?])\s+(?=[^\s.!?])")


class Shared(dict):
    """``shared[key]`` is ``make(key)``, made once; a lookup costs less than an ``lru_cache`` call."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# each whitespace-delimited chunk's prepared tokens (no token spans whitespace), one string per word for the
# run: the prepared posts are held for the run, and a fresh string for each of their tokens raised peak RSS
_CHUNK_TOKENS = Shared(lambda chunk: tuple(
    token if token in PLACEHOLDERS else sys.intern(token.lower()) for token in _TOKEN_RE.findall(chunk)))
# likewise one sentence bound pair and one bound sequence per distinct value (a pair never equals a sequence)
_BOUNDS = Shared(lambda bounds: bounds)
# one read-only counts mapping per distinct (EQU, URL, TIMEREF) triple
_COUNTS = Shared(lambda counts: MappingProxyType(dict(zip(PLACEHOLDERS, counts))))


@dataclass(slots=True)
class TokenizedPost:
    tokens: tuple[str, ...]
    # half-open [start, end) token-index ranges partitioning the token stream
    sentences: tuple[tuple[int, int], ...]
    replaced_counts: Mapping[str, int] = field(default_factory=lambda: _COUNTS[0, 0, 0])

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)


def _is_equation_run(run: str) -> bool:
    # str.isdigit, not \d, which does not match "²"
    return run not in PLACEHOLDERS and any(ch.isdigit() for ch in run)


def _placeholder(m: re.Match) -> str:
    """The match's placeholder, spaced off a neighbouring letter, digit or apostrophe."""
    s, start, end = m.string, m.start(), m.end()
    before = " " if s[start - 1 : start] in _WORD_CHARS else ""
    after = " " if s[end : end + 1] in _WORD_CHARS else ""
    return before + _PASS_PLACEHOLDERS[m.re] + after


def _equation(m: re.Match) -> str:
    return "EQU" if _is_equation_run(m.group()) else m.group()


def replace_nonlexical(text: str) -> tuple[str, dict[str, int]]:
    """Replace URLs, equations and timestamps with placeholder tokens.

    Substitution order is frozen (URL, $-delimited EQU, TIMEREF, heuristic
    EQU runs) so counts are reproducible. Returns the rewritten text and the
    number of replacements per placeholder.
    """
    counts = dict.fromkeys(PLACEHOLDERS, 0)  # in PLACEHOLDERS order, the order of the _COUNTS key
    # a placeholder adds no literal, so the literals of the text as given guard every pass
    lowered = text.lower()
    if "www." not in lowered and _TRIGGER_RE.search(text) is None:
        return text, counts
    for pattern, token in _PASS_PLACEHOLDERS.items():
        if any(literal in lowered for literal in _PASS_LITERALS[pattern]):
            text, n = pattern.subn(_placeholder, text)
            counts[token] += n
    if sum(map(text.count, "=+^/\\")) >= _EQU_MIN_OPS:
        n = sum(map(_is_equation_run, _EQU_RUN_RE.findall(text)))
        if n:
            text = _EQU_RUN_RE.sub(_equation, text)
            counts["EQU"] += n
    return text, counts


def _split(text: str) -> tuple[tuple[str, ...], tuple[tuple[int, int], ...]]:
    """The tokens of text and its sentence bounds (see prepare_text), read piece by piece between the candidate
    bounds, and each piece chunk by chunk."""
    pieces = _BREAK_RE.split(text)  # text, then (terminator, text) pairs
    tokens: list[str] = []
    sentences: list[tuple[int, int]] = []
    start = words = 0
    for i in range(0, len(pieces), 2):
        if i:
            tokens.append(pieces[i - 1])
            if words == 2 and pieces[i][0].isupper():
                sentences.append(_BOUNDS[start, len(tokens)])
                start, words = len(tokens), 0
        piece = list(itertools.chain.from_iterable(map(_CHUNK_TOKENS.__getitem__, pieces[i].split())))
        tokens += piece
        for token in piece:  # words since the sentence start, counted up to two
            if words == 2:
                break
            words += token[0].isalnum()
    if start < len(tokens):
        sentences.append(_BOUNDS[start, len(tokens)])
    return tuple(tokens), _BOUNDS[tuple(sentences)]


def prepare_text(text: str) -> TokenizedPost:
    """Replace non-lexical spans, then split text into lowercase word/punctuation tokens and sentences.

    Placeholders stay uppercase; the counts are the replacements made, never typed words like "URL".
    A sentence ends at a run of . ! ? followed by whitespace and a capital, or at end of text; a
    terminator run only closes a sentence that already holds at least two word tokens, so short
    interjections ("Hi!!") fold into the sentence that follows them.
    """
    replaced, counts = replace_nonlexical(text)
    return TokenizedPost(*_split(replaced), _COUNTS[tuple(counts.values())])


@lru_cache(maxsize=None)
def prepare_thread(thread: Thread) -> tuple[TokenizedPost, ...]:
    """Replace non-lexical spans and tokenize every post (cached per thread)."""
    return tuple(map(prepare_text, map(operator.attrgetter("text"), thread.posts)))


@lru_cache(maxsize=1)
def load_stopwords() -> frozenset[str]:
    data = resources.files("forum_sentinel.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w for w in data.split() if w)


def content_filter(tokens: tuple[str, ...] | list[str]) -> list[str]:
    """Drop stopwords and tokens shorter than 3 chars; placeholders survive.

    Only the lexical baseline feature path uses this; discourse tagging runs
    on the unfiltered stream.
    """
    stop = load_stopwords()
    return [t for t in tokens if t in PLACEHOLDERS or (len(t) >= 3 and t not in stop)]
