"""Tokenization, sentence splitting and non-lexical token replacement.

Equations, URLs and clock-style timestamps are rewritten to the opaque
placeholder tokens EQU / URL / TIMEREF before tokenization, so later stages
never see unparsable math or links. A placeholder that would touch a letter,
digit or apostrophe gets a space on that side, so "10:30am" becomes
"TIMEREF am", not the word "timerefam", and "10:30's" becomes "TIMEREF 's".
The patterns below are frozen; the fixture file data/nonlexical_patterns.tsv
pins their behavior.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field, replace
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
# characters a placeholder would merge with into one token (the tokenizer joins "'s" on)
_WORD_CHARS = frozenset(string.ascii_letters + string.digits + "'")

_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*|[^\sA-Za-z0-9]")
_TERMINATORS = {".", "!", "?"}


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

        return pattern.sub(repl, s)

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


def tokenize(text: str) -> TokenizedPost:
    """Split text into lowercase word/punctuation tokens and sentences.

    Placeholder tokens stay uppercase. A sentence ends at a run of . ! ?
    followed by whitespace and a capital, or at end of text; a terminator run
    only closes a sentence that already holds at least two word tokens, so
    short interjections ("Hi!!") fold into the sentence that follows them.
    """
    matches = list(_TOKEN_RE.finditer(text))
    tokens: list[str] = []
    for m in matches:
        raw = m.group()
        tokens.append(raw if raw in PLACEHOLDERS else raw.lower())
    if not tokens:
        return TokenizedPost(tokens=(), sentences=(), replaced_counts=dict.fromkeys(PLACEHOLDERS, 0))

    sentences: list[tuple[int, int]] = []
    sent_start = 0
    word_count = 0
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i][0].isalnum():
            word_count += 1
            i += 1
            continue
        if tokens[i] in _TERMINATORS:
            j = i
            while j + 1 < n and tokens[j + 1] in _TERMINATORS:
                j += 1
            boundary = False
            if j + 1 < n and word_count >= 2:
                gap = matches[j].end() < matches[j + 1].start()
                nxt = text[matches[j + 1].start()]
                boundary = gap and nxt.isupper()
            if boundary:
                sentences.append((sent_start, j + 1))
                sent_start = j + 1
                word_count = 0
            i = j + 1
            continue
        i += 1
    if sent_start < n:
        sentences.append((sent_start, n))

    replaced = {ph: tokens.count(ph) for ph in PLACEHOLDERS}
    return TokenizedPost(tokens=tuple(tokens), sentences=tuple(sentences), replaced_counts=replaced)


def prepare_text(text: str) -> TokenizedPost:
    """replace_nonlexical then tokenize; counts are replacements, not words like "URL"."""
    replaced, counts = replace_nonlexical(text)
    return replace(tokenize(replaced), replaced_counts=counts)


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
