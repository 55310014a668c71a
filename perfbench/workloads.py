"""The benchmark's workloads: corpus size and the CLI commands each one runs.

Why each workload was chosen is stated in ``BENCHMARK.json`` and the README.

Every corpus comes from ``syngen`` with the same generation knobs; only the
size and the seed differ. Each workload is one or more ``forum-sentinel``
subcommands, always with ``--jobs 1``; ``--corpus``, ``--out`` and, for
``train``, ``--features-file`` are filled in per run.
"""

from __future__ import annotations

from dataclasses import dataclass

GEN_KNOBS = dict(
    intervention_ratio=0.25,
    vocabulary_disjointness=0.5,
    discourse_signal_strength=0.6,
)


@dataclass(frozen=True)
class Workload:
    name: str
    n_courses: int
    threads_per_course: int
    commands: tuple[tuple[str, ...], ...]
    # files in the output directory whose bytes are the run's result
    outputs: tuple[str, ...]

    @property
    def is_eval(self) -> bool:
        return self.commands[0][0] == "eval"

    def rows_per_thread(self, n_courses: int) -> int:
        """How often each thread is vectorized: once per fold it sits in."""
        if not self.is_eval:
            return 1
        if "--k" in self.commands[0]:
            return int(self.commands[0][self.commands[0].index("--k") + 1])
        return n_courses


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ccv-eplusp",
            n_courses=14,
            threads_per_course=60,
            commands=(
                ("eval", "--features", "eplusp", "--regime", "ccv", "--emit", "records", "--jobs", "1"),
            ),
            outputs=("report.jsonl",),
        ),
        Workload(
            name="indomain-pdtb",
            n_courses=5,
            threads_per_course=120,
            commands=(
                ("eval", "--features", "pdtb", "--regime", "in-domain", "--k", "5",
                 "--emit", "records", "--jobs", "1"),
            ),
            outputs=("report.jsonl",),
        ),
        Workload(
            name="featurize-train",
            n_courses=14,
            threads_per_course=200,
            commands=(
                ("featurize", "--features", "eplusp", "--jobs", "1"),
                ("train",),
            ),
            outputs=("features.tsv", "model.txt"),
        ),
    )
}
