"""Thread feature extraction under three configurations.

``edm15`` is the feature-rich lexical baseline (unigrams over a frozen
training vocabulary plus thread-structure features), ``pdtb`` is the 25-dim
discourse block derived from tagged connective senses, and ``eplusp`` is the
union of the two blocks. All vectors are sparse maps from stable feature
names to finite values.

``vectorize`` builds rows over the ``FeatureSpace`` its caller made with
``build_space``: an evaluation fold builds one, and its training and test rows
share it. A thread's lexical block depends on the fold only through the
vocabulary, so beside the cached ``textprep.prepare_thread`` tokens,
``_lexical_profile`` caches each thread's structural values and its
content-filtered unigram counts once, the counts already as a row block keyed
by ``uni.<token>`` name. ``build_vocabulary`` reads the block's names; a row
whose names all lie in the fold's space, as every training row's do, copies
the block, and any other row keeps the names in the space. The cached values
are shared and never mutated. A lexicon remembers each thread it tagged (see
``discourse``), so each thread is matched only once.

The 25 discourse feature names, in frozen order: ``pdtb.total``; then for
each sense (temporal, contingency, comparison, expansion) the pair
``pdtb.abs.<sense>`` (count / thread length) and ``pdtb.rel.<sense>``
(count / total); then the 16 ``pdtb.pair.<s1>.<s2>`` adjacent-pair
proportions in sense-ordinal-major order.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .corpus import CONTENT_SUBFORUMS, AuthorRole, Label, Thread
from .discourse import SENSES, ConnectiveLexicon, PostDiscourse, TagImport, tag_thread
from .textprep import Shared, content_filter, prepare_text, prepare_thread

FEATURE_CONFIGS = ("edm15", "pdtb", "eplusp")
# the configs with the lexical block and those with the discourse block
LEXICAL_CONFIGS = ("edm15", "eplusp")
DISCOURSE_CONFIGS = ("pdtb", "eplusp")

STRUCTURAL_NAMES = tuple(
    [f"forum.{f.value}" for f in CONTENT_SUBFORUMS]
    + [
        "affirmation",
        "n_posts",
        "n_comments",
        "n_posts_plus_comments",
        "avg_comments_per_post",
        "n_sentences",
        "n_url",
        "n_timeref",
    ]
)

PDTB_FEATURE_NAMES = tuple(
    ["pdtb.total"]
    + [
        name
        for sense in SENSES
        for name in (f"pdtb.abs.{sense.label.lower()}", f"pdtb.rel.{sense.label.lower()}")
    ]
    + [
        f"pdtb.pair.{s1.label.lower()}.{s2.label.lower()}"
        for s1 in SENSES
        for s2 in SENSES
    ]
)
# (abs, rel) names by sense ordinal; pair names by 4 * first ordinal + second
_SENSE_NAMES = tuple(zip(PDTB_FEATURE_NAMES[1:9:2], PDTB_FEATURE_NAMES[2:9:2]))
_PAIR_NAMES = PDTB_FEATURE_NAMES[9:]


class FeatureSpace:
    """Fixed, ordered registry of feature names for one configuration."""

    def __init__(self, names: tuple[str, ...], config: str):
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        self.names = names
        self.config = config
        self.index = {name: i for i, name in enumerate(names)}  # name -> column
        digest = hashlib.sha256(("\n".join((config,) + names)).encode("utf-8")).hexdigest()
        self.provenance = f"{config}:{digest[:16]}"

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, FeatureSpace) and self.provenance == other.provenance

    def __hash__(self) -> int:
        return hash(self.provenance)


@dataclass
class FeatureVector:
    """Sparse feature values; only nonzero entries are stored."""

    values: dict[str, float]
    space: FeatureSpace

    def __post_init__(self):
        if self.values.keys() <= self.space.index.keys() and all(map(math.isfinite, self.values.values())):
            return
        for name, value in self.values.items():  # name the first offending feature
            if name not in self.space:
                raise ValueError(f"feature {name!r} not in space {self.space.provenance}")
            if not math.isfinite(value):
                raise ValueError(f"non-finite value for feature {name!r}")

    def get(self, name: str) -> float:
        return self.values.get(name, 0.0)


@dataclass(frozen=True)
class Vocabulary:
    """Unigram registry frozen at training time; unseen test tokens drop out."""

    index: dict[str, int]

    @property
    def size(self) -> int:
        return len(self.index)


@lru_cache(maxsize=1)
def load_affirmations() -> re.Pattern:
    """A pattern matching any affirmation phrase as space-joined tokens padded with one space each side."""
    data = resources.files("forum_sentinel.data").joinpath("affirmations.txt").read_text("utf-8")
    phrases = []
    for line in data.splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            phrases.append(re.escape(f" {' '.join(prepare_text(line).tokens)} "))
    return re.compile("|".join(phrases))


_UNIGRAM_PREFIX = "uni."
# one name string per token and one float per count for every profile and space (the profiles are held for
# the run, and a fresh float for each count raised peak RSS); a token's content name is None if content_filter drops it
_UNIGRAM_NAMES = Shared(_UNIGRAM_PREFIX.__add__)
_COUNT_FLOATS = Shared(float)
_CONTENT_NAMES = Shared(lambda token: _UNIGRAM_NAMES[token] if content_filter((token,)) else None)


@lru_cache(maxsize=None)
def _lexical_profile(thread: Thread) -> tuple[dict[str, float], dict[str, float]]:
    """A thread's content-filtered unigram counts keyed by feature name, in
    first-occurrence order, and its nonzero structural values in row order;
    shared, so never mutate them."""
    tokenized = prepare_thread(thread)
    counts = Counter(map(_CONTENT_NAMES.__getitem__, itertools.chain.from_iterable(tok.tokens for tok in tokenized)))
    del counts[None]  # the dropped tokens; the names left are one per token, in first-occurrence order
    unigrams = dict(zip(counts, map(_COUNT_FLOATS.__getitem__, counts.values())))

    values = {f"forum.{thread.subforum.value}": 1.0}
    affirmation = load_affirmations()
    # a student's reply holds a phrase; tokens hold no spaces, so a padded substring is a whole-token run
    if any(post.role is AuthorRole.STUDENT and affirmation.search(f" {' '.join(tok.tokens)} ")
           for post, tok in zip(thread.posts[1:], tokenized[1:])):
        values["affirmation"] = 1.0
    n_posts = list(map(operator.attrgetter("parent_post_id"), thread.posts)).count(None)  # top-level posts
    n_comments = len(thread.posts) - n_posts
    if n_posts:
        values["n_posts"] = float(n_posts)
        values["avg_comments_per_post"] = n_comments / n_posts
    if n_comments:
        values["n_comments"] = float(n_comments)
    if thread.posts:
        values["n_posts_plus_comments"] = float(len(thread.posts))
    n_sentences = sum(map(operator.attrgetter("n_sentences"), tokenized))
    if n_sentences:
        values["n_sentences"] = float(n_sentences)
    for name, placeholder in (("n_url", "URL"), ("n_timeref", "TIMEREF")):
        count = sum(tok.replaced_counts.get(placeholder, 0) for tok in tokenized)
        if count:
            values[name] = float(count)
    return unigrams, values


def build_vocabulary(training_threads: list[Thread]) -> Vocabulary:
    """Collect all distinct content-filtered tokens of the training threads."""
    seen: set[str] = set()
    for thread in training_threads:
        seen.update(_lexical_profile(thread)[0])
    prefix = len(_UNIGRAM_PREFIX)  # names sort as their tokens do
    return Vocabulary(index={name[prefix:]: i for i, name in enumerate(sorted(seen))})


def build_space(config: str, vocabulary: Vocabulary | None = None) -> FeatureSpace:
    """The ordered feature names of a config: structure and unigrams, then discourse."""
    if config not in FEATURE_CONFIGS:
        raise ValueError(f"unknown feature config {config!r}")
    names: tuple[str, ...] = ()
    if config in LEXICAL_CONFIGS:
        if vocabulary is None:
            raise ValueError(f"config {config!r} requires a vocabulary")
        names = STRUCTURAL_NAMES + tuple(map(_UNIGRAM_NAMES.__getitem__, sorted(vocabulary.index)))
    if config in DISCOURSE_CONFIGS:
        names += PDTB_FEATURE_NAMES
    return FeatureSpace(names, config)


def _pdtb_values(taggings: list[PostDiscourse], thread_token_length: int) -> dict[str, float]:
    if not any(disc.tags for disc in taggings):
        return {}
    sense_counts = [0] * len(SENSES)
    pair_counts = [0] * len(_PAIR_NAMES)
    for disc in taggings:
        prev = None  # pairs never cross posts
        for tag in disc.tags:
            ordinal = tag.sense.value
            sense_counts[ordinal] += 1
            if prev is not None:
                pair_counts[len(SENSES) * prev + ordinal] += 1
            prev = ordinal
    total = sum(sense_counts)
    if total > 0 and thread_token_length <= 0:
        raise ValueError("thread_token_length must be positive when connectives are tagged")
    total_pairs = sum(pair_counts)
    values: dict[str, float] = {}
    if total:
        values["pdtb.total"] = float(total)
    for (abs_name, rel_name), count in zip(_SENSE_NAMES, sense_counts):
        if count:
            values[abs_name] = count / thread_token_length
            values[rel_name] = count / total
    for name, count in zip(_PAIR_NAMES, pair_counts):
        if count:
            values[name] = count / total_pairs
    return values


def pdtb_features(taggings: list[PostDiscourse], thread_token_length: int) -> FeatureVector:
    """The 25-dim discourse block for one thread's tagging."""
    return FeatureVector(values=_pdtb_values(taggings, thread_token_length), space=build_space("pdtb"))


def vectorize(threads: list[Thread], space: FeatureSpace,
              tags: ConnectiveLexicon | TagImport | None = None) -> list[tuple[FeatureVector, int]]:
    """Turn labeled threads into (FeatureVector, label) pairs over ``space``; label 1 = intervened. A space
    with the discourse block tags each thread from ``tags``, a lexicon or an import table."""
    needs_lexical = space.config in LEXICAL_CONFIGS
    needs_discourse = space.config in DISCOURSE_CONFIGS
    in_space = space.index.keys()

    out: list[tuple[FeatureVector, int]] = []
    for thread in threads:
        if thread.label is None:
            raise ValueError(f"thread {thread.thread_id!r} is unlabeled; filter the corpus first")
        values: dict[str, float] = {}
        if needs_lexical:
            unigrams, structure = _lexical_profile(thread)
            # a training row's unigrams all lie in its vocabulary: its row block is copied whole
            if unigrams.keys() <= in_space:
                values = unigrams.copy()
            else:
                values = {name: count for name, count in unigrams.items() if name in in_space}
            values.update(structure)
        if needs_discourse:  # prepared before tagging, so a cold preparation counts as text prep
            n_tokens = sum(map(operator.attrgetter("n_tokens"), prepare_thread(thread)))
            values.update(_pdtb_values(tag_thread(thread, tags), n_tokens))
        label = 1 if thread.label is Label.INTERVENED else 0
        out.append((FeatureVector(values=values, space=space), label))
    return out
