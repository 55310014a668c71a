"""forum-sentinel: predicting instructor intervention in forum threads.

The pipeline: ingest threaded forum data (corpus), normalize and tokenize
text (textprep), tag explicit discourse connectives with top-level senses
(discourse), turn threads into lexical-baseline and/or discourse feature
vectors (features), train a class-weighted maxent classifier (model), and
evaluate in-domain and across courses (evaluation). syngen builds
deterministic synthetic corpora for the bundled robustness experiments.
"""

from .corpus import (
    AuthorRole,
    CorpusFormatError,
    CourseStats,
    InputError,
    Label,
    Post,
    SubForumType,
    Thread,
    by_course,
    corpus_stats,
    filter_and_label,
    load_corpus,
)
from .discourse import (
    ConnectiveLexicon,
    LexiconError,
    PostDiscourse,
    SenseTag,
    TaggedConnective,
    load_lexicon,
    load_tag_import,
    sense_distribution,
    tag_post,
    tag_thread,
)
from .evaluation import (
    ConfusionCounts,
    EvalReport,
    Metrics,
    macro_average,
    prf1,
    run_in_domain,
    run_loo_ccv,
    stratified_kfold,
    weighted_macro_average,
)
from .features import (
    FeatureSpace,
    FeatureVector,
    Vocabulary,
    build_vocabulary,
    pdtb_features,
    vectorize,
)
from .model import (
    MaxentModel,
    ModelFormatError,
    TrainConfig,
    class_weight,
    load_model,
    loss_and_gradient,
    predict,
    predict_proba,
    save_model,
    train,
)
from .syngen import GenSpec, generate, generate_threads
from .textprep import TokenizedPost, content_filter, replace_nonlexical

__version__ = "0.1.0"
