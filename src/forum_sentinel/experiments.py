"""Scripted robustness experiments over synthetic corpora.

The domain-shift experiment generates a multi-course corpus with fully
disjoint course vocabularies and a strong planted discourse signal, then
contrasts the lexical baseline with the discourse-feature model under both
evaluation regimes. The designed outcome: the baseline collapses once its
unigrams stop transferring, while the discourse model keeps working.

Run as a script, which takes no flags and uses run_domain_shift's defaults:
python -m forum_sentinel.experiments
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import filter_and_label
from .discourse import load_lexicon
from .evaluation import EvalReport, run_in_domain, run_loo_ccv
from .model import TrainConfig
from .syngen import GenSpec, generate_threads


@dataclass
class DomainShiftResult:
    edm15_in: EvalReport
    edm15_out: EvalReport
    pdtb_out: EvalReport

    @property
    def edm15_in_f1(self) -> float:
        return self.edm15_in.macro.f1

    @property
    def edm15_out_f1(self) -> float:
        return self.edm15_out.macro.f1

    @property
    def pdtb_out_f1(self) -> float:
        return self.pdtb_out.macro.f1

    def summary(self) -> str:
        return "\n".join(
            [
                f"edm15 in-domain macro F1:  {self.edm15_in_f1:6.1f}",
                f"edm15 ccv macro F1:        {self.edm15_out_f1:6.1f}",
                f"pdtb  ccv macro F1:        {self.pdtb_out_f1:6.1f}",
                f"edm15 out-of-domain drop:  {self.edm15_in_f1 - self.edm15_out_f1:6.1f}",
            ]
        )


def run_domain_shift(
    n_courses: int = 4,
    threads_per_course: int = 160,
    intervention_ratio: float = 0.25,
    vocabulary_disjointness: float = 1.0,
    discourse_signal_strength: float = 0.9,
    seed: int = 7,
) -> DomainShiftResult:
    spec = GenSpec(
        n_courses=n_courses,
        threads_per_course=threads_per_course,
        intervention_ratio=intervention_ratio,
        vocabulary_disjointness=vocabulary_disjointness,
        discourse_signal_strength=discourse_signal_strength,
        seed=seed,
    )
    threads = filter_and_label(generate_threads(spec))
    lexicon = load_lexicon()
    train_config = TrainConfig(seed=seed)
    return DomainShiftResult(
        edm15_in=run_in_domain(threads, "edm15", None, train_config, seed=seed),
        edm15_out=run_loo_ccv(threads, "edm15", None, train_config),
        pdtb_out=run_loo_ccv(threads, "pdtb", lexicon, train_config),
    )


if __name__ == "__main__":
    print(run_domain_shift().summary())
