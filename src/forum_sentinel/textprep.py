"""Tokenization, sentence splitting and non-lexical token replacement.

A post is prepared in a few regex passes. ``replace_nonlexical`` rewrites
URLs, $-delimited equations, clock times and heuristic equation runs to the
opaque placeholders URL / EQU / TIMEREF, skipping a pass when the text lacks
a literal its matches need ("://" or "www.", "$", ":", two operators). A
placeholder that would touch a letter, digit or apostrophe gets a space on
that side, so "10:30am" becomes "TIMEREF am", not "timerefam". One pass then
finds the runs of . ! ? that whitespace and a capital follow, the only
places a sentence can end, and ``_TOKEN_RE.findall`` reads the tokens
between them: runs of ASCII letters and digits joined by inner apostrophes,
or single other non-space characters, lowercased except the placeholders.
The fixtures data/nonlexical_patterns.tsv and sentence_splits.tsv pin this.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

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
# characters a placeholder would merge with into one token (the tokenizer joins "'s" on)
_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "'")

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*|[^\sA-Za-z0-9]")
# a maximal run of terminator tokens and, when whitespace follows it, the first character of the next token
_TERMINATOR_RUN_RE = re.compile(r"[.!?](?:\s*[.!?])*(?:\s+(\S))?")


@dataclass
class TokenizedPost:
    tokens: tuple[str, ...]
    # half-open [start, end) token-index ranges partitioning the token stream
    sentences: tuple[tuple[int, int], ...]
    replaced_counts: dict[str, int] = field(default_factory=dict)

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)


def _is_equation_run(run: str) -> bool:
    # str.isdigit, not \d, which does not match "²"
    return run not in PLACEHOLDERS and any(ch.isdigit() for ch in run)


def replace_nonlexical(text: str) -> tuple[str, dict[str, int]]:
    """Replace URLs, equations and timestamps with placeholder tokens.

    Substitution order is frozen (URL, $-delimited EQU, TIMEREF, heuristic
    EQU runs) so counts are reproducible. Returns the rewritten text and the
    number of replacements per placeholder.
    """
    counts = {"EQU": 0, "URL": 0, "TIMEREF": 0}

    def sub(pattern: re.Pattern, token: str, s: str) -> str:
        def repl(m: re.Match) -> str:
            counts[token] += 1
            before = " " if s[m.start() - 1 : m.start()] in _WORD_CHARS else ""
            after = " " if s[m.end() : m.end() + 1] in _WORD_CHARS else ""
            return before + token + after

        lowered = s.lower()
        return pattern.sub(repl, s) if any(literal in lowered for literal in _PASS_LITERALS[pattern]) else s

    text = sub(_URL_RE, "URL", text)
    text = sub(_DOLLAR_EQU_RE, "EQU", text)
    text = sub(_TIME_RE, "TIMEREF", text)

    def equ_run(m: re.Match) -> str:
        if _is_equation_run(m.group()):
            counts["EQU"] += 1
            return "EQU"
        return m.group()

    if sum(map(text.count, "=+^/\\")) >= _EQU_MIN_OPS:
        text = _EQU_RUN_RE.sub(equ_run, text)
    return text, counts


def _split(text: str) -> tuple[tuple[str, ...], tuple[tuple[int, int], ...]]:
    """The tokens of text and its sentence bounds (see tokenize), read up to each candidate bound and the end;
    every non-space character is in one token, so the tokens read so far give the bound's token index."""
    tokens: list[str] = []
    sentences: list[tuple[int, int]] = []
    start = pos = words = 0
    for end in [m.start(1) for m in _TERMINATOR_RUN_RE.finditer(text) if (m.group(1) or "").isupper()] + [len(text)]:
        segment = [t if t in PLACEHOLDERS else t.lower() for t in _TOKEN_RE.findall(text, pos, end)]
        pos = end
        for tok in segment:  # words since the sentence start, counted up to two
            words += tok[0].isalnum()
            if words == 2:
                break
        tokens += segment
        if words == 2 or (end == len(text) and start < len(tokens)):
            sentences.append((start, len(tokens)))
            start, words = len(tokens), 0
    return tuple(tokens), tuple(sentences)


def tokenize(text: str) -> TokenizedPost:
    """Split text into lowercase word/punctuation tokens and sentences.

    Placeholder tokens stay uppercase. A sentence ends at a run of . ! ?
    followed by whitespace and a capital, or at end of text; a terminator run
    only closes a sentence that already holds at least two word tokens, so
    short interjections ("Hi!!") fold into the sentence that follows them.
    """
    tokens, sentences = _split(text)
    return TokenizedPost(tokens, sentences, {ph: tokens.count(ph) for ph in PLACEHOLDERS})


def prepare_text(text: str) -> TokenizedPost:
    """replace_nonlexical then tokenize; counts are replacements, not words like "URL"."""
    replaced, counts = replace_nonlexical(text)
    return TokenizedPost(*_split(replaced), counts)


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
