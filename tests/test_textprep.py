from __future__ import annotations

import re
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forum_sentinel import textprep
from forum_sentinel.textprep import (
    PLACEHOLDERS,
    TokenizedPost,
    content_filter,
    load_stopwords,
    prepare_text,
    replace_nonlexical,
    tokenize,
)


def _fixture_rows(name: str):
    data = resources.files("forum_sentinel.data").joinpath(name).read_text("utf-8")
    for line in data.splitlines():
        if line.strip() and not line.startswith("#"):
            yield line.split("\t")


class TestReplaceNonlexical:
    def test_url(self):
        text, counts = replace_nonlexical("see https://x.y/z for hints")
        assert text == "see URL for hints"
        assert counts == {"EQU": 0, "URL": 1, "TIMEREF": 0}

    def test_timeref(self):
        text, counts = replace_nonlexical("at 12:45 in lecture 3")
        assert text == "at TIMEREF in lecture 3"
        assert counts["TIMEREF"] == 1

    def test_equ_dollar_span(self):
        text, counts = replace_nonlexical("solve $x^2+1=0$ first")
        assert text == "solve EQU first"
        assert counts["EQU"] == 1

    def test_frozen_pattern_fixtures(self):
        for _name, text, expected in _fixture_rows("nonlexical_patterns.tsv"):
            got, _counts = replace_nonlexical(text)
            assert got == expected, f"pattern fixture failed for {text!r}"


class TestTokenize:
    def test_empty(self):
        tok = tokenize("")
        assert tok.tokens == ()
        assert tok.sentences == ()

    def test_two_sentences(self):
        tok = tokenize("Is that normal or just a mistake? Thank you.")
        assert tok.n_sentences == 2

    def test_interjection_folds_forward(self):
        assert tokenize("Hi!! I have a question").n_sentences == 1

    def test_frozen_sentence_fixtures(self):
        for text, expected in _fixture_rows("sentence_splits.tsv"):
            assert tokenize(text).n_sentences == int(expected), f"split fixture failed for {text!r}"

    def test_lowercasing_and_punct_separation(self):
        tok = tokenize("Wait, really?")
        assert tok.tokens == ("wait", ",", "really", "?")

    def test_placeholders_preserved_uppercase(self):
        tok = tokenize("see URL and EQU at TIMEREF")
        assert "URL" in tok.tokens and "EQU" in tok.tokens and "TIMEREF" in tok.tokens
        assert tok.replaced_counts == {"EQU": 1, "URL": 1, "TIMEREF": 1}

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("meet at 10:30am", ("meet", "at", "TIMEREF", "am")),
            ("$x+1$s", ("EQU", "s")),
            ("meet at 10:30's end", ("meet", "at", "TIMEREF", "'", "s", "end")),
            ("x$a+b$'s", ("x", "EQU", "'", "s")),
        ],
        ids=["timeref-before-word", "equ-before-word", "timeref-before-apostrophe", "equ-before-apostrophe"],
    )
    def test_placeholder_never_merges_with_a_word(self, text, tokens):
        assert prepare_text(text).tokens == tokens

    def test_contractions_stay_whole(self):
        assert tokenize("you're right, I don't think so").tokens[0] == "you're"

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_sentences_partition_tokens(self, text):
        tok = tokenize(text)
        covered = []
        for start, end in tok.sentences:
            assert start < end
            covered.extend(range(start, end))
        assert covered == list(range(len(tok.tokens)))
        for ph in PLACEHOLDERS:
            assert tok.replaced_counts[ph] == tok.tokens.count(ph)

    @pytest.mark.parametrize(
        "text, counts",
        [
            ("Paste the URL here", {"EQU": 0, "URL": 0, "TIMEREF": 0}),
            ("EQU and TIMEREF are words too", {"EQU": 0, "URL": 0, "TIMEREF": 0}),
            ("URL: see https://x.y/z at 10:30", {"EQU": 0, "URL": 1, "TIMEREF": 1}),
        ],
        ids=["url-word", "equ-timeref-words", "word-and-link"],
    )
    def test_prepared_counts_are_replacements_made(self, text, counts):
        assert prepare_text(text).replaced_counts == counts

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=200))
    def test_pipeline_deterministic_and_filter_shrinks(self, text):
        a = prepare_text(text)
        b = prepare_text(text)
        assert a == b
        assert len(content_filter(a.tokens)) <= len(a.tokens)


def _is_equation_run_per_run(run: str) -> bool:
    """The equation test as it ran on every whitespace run, before the candidate pattern."""
    if run in PLACEHOLDERS:
        return False
    ops = sum(1 for ch in run if ch in "=+^/\\")
    return ops >= 2 and any(ch.isdigit() for ch in run)


_EQUATION_PIECES = [
    "a", "Z", "x", "0", "7", "\u00b2", "\u0663", "$", ":", "=", "+", "^", "/", "\\", ".", "!", "?",
    " ", "\t", "\n", "\u00a0", "www.", "http://", *PLACEHOLDERS,
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_EQUATION_PIECES), max_size=30).map("".join))
@example("x\u00b2+y\u00b2=1 and 1/2+1/3 but not a+b=c or EQU")
@example("no operator in 42 here")  # 0 operators: the run pass is skipped
@example("1=2")  # 1 operator: skipped, and no run can qualify
@example("x=2+1")  # 2 operators in one run: an equation
@example("x=2 and y+1")  # 2 operators in two runs: the pass runs, neither run qualifies
def test_equation_pattern_matches_the_per_run_callback(text):
    with pytest.MonkeyPatch.context() as patch:  # the oracle visits every run, skipping no text
        patch.setattr(textprep, "_EQU_RUN_RE", re.compile(r"\S+"))
        patch.setattr(textprep, "_is_equation_run", _is_equation_run_per_run)
        patch.setattr(textprep, "_EQU_MIN_OPS", 0)
        oracle = replace_nonlexical(text)
    assert replace_nonlexical(text) == oracle


def _tokenize_per_token(text: str) -> TokenizedPost:
    """The tokenizer as it walked every token to find sentence ends, before the terminator-run pass."""
    matches = list(textprep._TOKEN_RE.finditer(text))
    tokens: list[str] = []
    for m in matches:
        raw = m.group()
        tokens.append(raw if raw in PLACEHOLDERS else raw.lower())
    if not tokens:
        return TokenizedPost(tokens=(), sentences=(), replaced_counts=dict.fromkeys(PLACEHOLDERS, 0))

    terminators = {".", "!", "?"}
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
        if tokens[i] in terminators:
            j = i
            while j + 1 < n and tokens[j + 1] in terminators:
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


def _replace_nonlexical_unguarded(text: str) -> tuple[str, dict[str, int]]:
    """replace_nonlexical with every pass run on every text: no literal guard, no operator count."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(textprep, "_PASS_LITERALS", dict.fromkeys(textprep._PASS_LITERALS, ("",)))
        patch.setattr(textprep, "_EQU_MIN_OPS", 0)
        return replace_nonlexical(text)


# terminators and runs of them, cased and uncased letters ("\u0130".lower() is two code points, "\u24b6" is
# upper but lowers to a non-alphanumeric), "\x1c" (whitespace to str.isspace and \s), and the literals the
# replacement passes look for ("\u017f" matches "s" in the case-blind URL pattern)
_TEXT_PIECES = [
    ".", "!", "?", ". .", ".?", "a", "q", "B", "Z", "\u0130", "\u00e9", "\u00c9", "\u00b2", "\u24b6", "1", "2",
    " ", "\n", "\x1c", "'", ":", "$", "=", "+", "http://", "WWW.", "\u017f", "://", *PLACEHOLDERS,
]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=40).map("".join))
@example("Hi!! I have a question. \u0130s it ok? \u24b6. Yes . . And you")
@example("see http\u017f://x.y at 22:22 or $x$. Then wWw.a.b!")
@example("One two.\x1cThree four")
def test_text_layer_matches_the_oracles(text):
    assert _replace_nonlexical_unguarded(text) == replace_nonlexical(text)
    assert tokenize(text) == _tokenize_per_token(text)
    replaced, counts = _replace_nonlexical_unguarded(text)
    assert prepare_text(text) == replace(_tokenize_per_token(replaced), replaced_counts=counts)


class TestContentFilter:
    def test_stopwords_and_short_tokens_removed(self):
        assert content_filter(["i", "am", "so", "confused"]) == ["confused"]

    def test_length_rule_keeps_placeholder(self):
        assert content_filter(["URL", "ok"]) == ["URL"]

    def test_connective_stopwords(self):
        stop = load_stopwords()
        # the shipped list contains "because" but not "therefore"
        assert "because" in stop and "therefore" not in stop
        assert content_filter(["because", "therefore"]) == ["therefore"]

    def test_placeholders_always_survive(self):
        assert content_filter(list(PLACEHOLDERS)) == list(PLACEHOLDERS)

    def test_stopword_list_is_frozen_at_174(self):
        assert len(load_stopwords()) == 174
