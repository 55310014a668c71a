"""Reports and feature dumps are pinned byte for byte.

A refactor that should not change any number must leave these digests as
they are; a change that moves them on purpose updates them and says why in
CHANGES.md. Model files are left out: their 17-digit weights can differ in
the last bits across BLAS builds.
"""

from __future__ import annotations

import hashlib

import pytest

from forum_sentinel.cli import main
from forum_sentinel.syngen import GenSpec, generate

# sha256 of each output on a 3 x 20 seed-7 syngen corpus with the benchmark's knobs
DIGESTS = {
    "eval-edm15-in-domain": "574bf50c55afaff52a4e5794c9f2a43d1efbb62acbe153c595f19621284adf4b",
    "eval-edm15-ccv": "97141e34ee47826dd682cb3a202c48cd84c1cdcbea80f1d3c4076b1d20cedb0d",
    "eval-pdtb-in-domain": "3ddf27b009eaa41492a7fd69864afe71a9d72199ef529eca8a8b93014907b8b0",
    "eval-pdtb-ccv": "5ca76491a9d8de09fb62f16c8676b6e325954e4038c43d22d425087cf6d56ca9",
    "eval-eplusp-in-domain": "6588caa80332acfd2fb962d76854f5c5d28b381983dba1b79d936336ef6d3e24",
    "eval-eplusp-ccv": "c9bbfead2e567a100c55973919c6a0d0da9148100f8e433ca6591d0b7d12aefa",
    "featurize-edm15": "931ced8ead316715e2c2c0516e880134ef332c8f9888bab754d5d34d35a4be90",
    "featurize-pdtb": "44e43c8e99bdb640a668b629a47b5b91c354d1a9039cf574fae17c3665cfbcd5",
    "featurize-eplusp": "28e316fa400c37474f8f72a5c0bb3d152ac3d785dd587f4c205ee47fae02d396",
    "eval-edm15-ccv+binary": "7c88bd07fc28e96e48e0aa5b474699b9154f670a40127cefae3b5f3bc1a8c5b1",
    "eval-eplusp-in-domain+tags": "6588caa80332acfd2fb962d76854f5c5d28b381983dba1b79d936336ef6d3e24",
    "featurize-pdtb+tags": "44e43c8e99bdb640a668b629a47b5b91c354d1a9039cf574fae17c3665cfbcd5",
    "eval-pdtb-ccv+tags": "5ca76491a9d8de09fb62f16c8676b6e325954e4038c43d22d425087cf6d56ca9",
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("digests") / "corpus.jsonl"
    spec = GenSpec(
        n_courses=3, threads_per_course=20, intervention_ratio=0.25,
        vocabulary_disjointness=0.5, discourse_signal_strength=0.6, seed=7,
    )
    generate(spec, path)
    return path


def output_digest(name: str, corpus, out) -> str:
    """Name: command-config[-regime][+binary|+tags]; +tags evaluates on the
    `tag` output of the same corpus."""
    name, _, extra = name.partition("+")
    command, config, *regime = name.split("-", 2)
    argv = [command, "--corpus", str(corpus), "--features", config, "--out", str(out)]
    if command == "eval":
        argv += ["--regime", regime[0], "--emit", "records"]
    if extra == "binary":
        argv += ["--unigrams", "binary"]
    if extra == "tags":
        assert main(["tag", "--corpus", str(corpus), "--out", str(out / "tag")]) == 0
        argv += ["--tags", str(out / "tag" / "tags.tsv")]
    assert main(argv) == 0
    filename = "report.jsonl" if command == "eval" else "features.tsv"
    return hashlib.sha256((out / filename).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_is_byte_identical(name, corpus, tmp_path, capsys):
    assert output_digest(name, corpus, tmp_path) == DIGESTS[name]
