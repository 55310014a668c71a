from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from forum_sentinel import cli
from forum_sentinel.cli import build_parser, load_feature_dump, main
from forum_sentinel.evaluation import Metrics, macro_average, weighted_macro_average
from forum_sentinel.model import load_model
from forum_sentinel.syngen import GenSpec, generate

from conftest import post_obj, record


@pytest.fixture
def small_corpus(tmp_path):
    """Two courses, known counts: C1 has 2 intervened / 3 not, C2 has 1 / 1."""
    records = []

    def add(course, tid, roles, texts=None, subforum="lecture"):
        texts = texts or ["But if alpha is beta then we wait"] * len(roles)
        posts = [post_obj(i, role=r, text=t) for i, (r, t) in enumerate(zip(roles, texts))]
        records.append(record(course=course, tid=tid, subforum=subforum, posts=posts))

    for i in range(2):
        add("C1", f"pos{i}", ["student", "student", "instructor"])
    for i in range(3):
        add("C1", f"neg{i}", ["student", "student"], texts=["gamma delta epsilon"] * 2)
    add("C2", "pos0", ["student", "instructor"])
    add("C2", "neg0", ["student"], texts=["omega words here"])
    # dropped on ingestion: noisy subforum and staff-first threads
    add("C1", "noise", ["student"], subforum="study_group")
    add("C1", "staff-first", ["instructor", "student"])
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    return path


@pytest.fixture
def syn_corpus(tmp_path):
    path = tmp_path / "syn.jsonl"
    generate(
        GenSpec(
            n_courses=2, threads_per_course=50, intervention_ratio=0.3,
            vocabulary_disjointness=0.5, discourse_signal_strength=0.8, seed=2,
        ),
        path,
    )
    return path


class TestIngest:
    def test_counts_after_filtering(self, small_corpus, capsys):
        assert main(["ingest", "--corpus", str(small_corpus)]) == 0
        out = capsys.readouterr().out
        lines = [l.split() for l in out.strip().splitlines()[1:]]
        assert lines[0] == ["C1", "2", "3", "0.67"]
        assert lines[1] == ["C2", "1", "1", "1.00"]

    def test_empty_corpus(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["ingest", "--corpus", str(path)]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1  # header only


class TestTag:
    def test_writes_tagfile_and_distribution(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["tag", "--corpus", str(small_corpus), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "%" in printed
        tagfile = out / "tags.tsv"
        assert tagfile.exists()
        line = tagfile.read_text().splitlines()[0]
        assert line.startswith("C1\tpos0\tp0\t")

    def test_import_echoes_verbatim(self, small_corpus, tmp_path):
        out1 = tmp_path / "o1"
        main(["tag", "--corpus", str(small_corpus), "--out", str(out1)])
        out2 = tmp_path / "o2"
        code = main(
            ["tag", "--corpus", str(small_corpus), "--tags", str(out1 / "tags.tsv"), "--out", str(out2)]
        )
        assert code == 0
        assert (out1 / "tags.tsv").read_bytes() == (out2 / "tags.tsv").read_bytes()


class TestFeaturizeTrain:
    def test_featurize_then_train(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["featurize", "--corpus", str(small_corpus), "--features", "eplusp", "--out", str(out)]) == 0
        space, rows = load_feature_dump(out / "features.tsv")
        assert space.config == "eplusp"
        assert len(rows) == 7
        assert main(["train", "--features-file", str(out / "features.tsv"), "--out", str(out)]) == 0
        model = load_model(out / "model.txt")
        assert model.feature_space == space
        assert model.class_weight_value == pytest.approx(4 / 3)

    def test_ids_keep_line_separators_other_than_lf(self, small_corpus, tmp_path):
        odd = "\x85\u2028\x0c"  # str.splitlines breaks at each of these; the dump reader must not
        records = [json.loads(line) for line in small_corpus.read_text("utf-8").splitlines()]
        corpus = tmp_path / "odd.jsonl"
        corpus.write_text("".join(json.dumps({**r, "course_id": r["course_id"] + odd}) + "\n" for r in records), "utf-8")
        out = tmp_path / "o"
        assert main(["featurize", "--corpus", str(corpus), "--features", "edm15", "--out", str(out)]) == 0
        _space, rows = load_feature_dump(out / "features.tsv")
        assert {course for course, *_ in rows} == {"C1" + odd, "C2" + odd}
        assert main(["train", "--features-file", str(out / "features.tsv"), "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "command, filename",
    [
        (["featurize", "--features", "pdtb"], "features.tsv"),
        (["eval", "--features", "pdtb", "--regime", "in-domain", "--k", "3", "--emit", "records"], "report.jsonl"),
    ],
    ids=["featurize", "eval-records"],
)
def test_jobs_equivalence(command, filename, syn_corpus, tmp_path):
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"j{jobs}"
        assert main(command + ["--corpus", str(syn_corpus), "--jobs", jobs, "--out", str(out)]) == 0
        outputs.append((out / filename).read_bytes())
    assert outputs[0] == outputs[1]


class TestEval:
    def test_in_domain_records_and_rerun_identical(self, syn_corpus, tmp_path, capsys):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        args = ["eval", "--corpus", str(syn_corpus), "--features", "pdtb",
                "--regime", "in-domain", "--k", "3", "--seed", "5", "--emit", "records"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()
        rows = [json.loads(l) for l in (out1 / "report.jsonl").read_text().splitlines()]
        assert rows[0]["row"] == "config"
        assert {r["row"] for r in rows} == {"config", "course", "macro", "weighted_macro"}

    def test_ccv_table_output(self, syn_corpus, tmp_path, capsys):
        out = tmp_path / "e"
        code = main(["eval", "--corpus", str(syn_corpus), "--features", "eplusp",
                     "--regime", "ccv", "--emit", "table", "--out", str(out)])
        assert code == 0
        text = (out / "report.txt").read_text()
        assert "Weighted macro avg." in text

    def test_csv_output(self, syn_corpus, tmp_path):
        out = tmp_path / "e"
        main(["eval", "--corpus", str(syn_corpus), "--features", "pdtb",
              "--regime", "ccv", "--emit", "csv", "--out", str(out)])
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == "course,n_threads,precision,recall,f1"

    @pytest.mark.parametrize("regime", ["in-domain", "ccv"])
    def test_no_thread_left_after_filtering_exits_2(self, regime, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        dropped = [record(tid="t1", subforum="study_group"), record(tid="t2", posts=[post_obj(0, role="instructor")])]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in dropped), "utf-8")
        assert main(["eval", "--corpus", str(corpus), "--regime", regime, "--out", str(tmp_path / "o")]) == 2
        assert "no thread of" in capsys.readouterr().err

    def test_ccv_on_one_course_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        generate(GenSpec(n_courses=1, threads_per_course=10, intervention_ratio=0.3,
                         vocabulary_disjointness=0.5, discourse_signal_strength=0.8, seed=2), corpus)
        assert main(["eval", "--corpus", str(corpus), "--regime", "ccv", "--out", str(tmp_path / "o")]) == 2
        assert "needs at least 2 courses" in capsys.readouterr().err


class TestTagSource:
    """A command reads the lexicon or the tag-import file only when its features use tags."""

    def test_lexicon_is_unread_when_tags_are_imported(self, syn_corpus, tmp_path, capsys):
        assert main(["tag", "--corpus", str(syn_corpus), "--out", str(tmp_path / "t")]) == 0
        args = ["eval", "--corpus", str(syn_corpus), "--features", "pdtb", "--tags", str(tmp_path / "t" / "tags.tsv")]
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--lexicon", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "report.txt").read_bytes() == (tmp_path / "b" / "report.txt").read_bytes()

    def test_tags_are_unread_for_lexical_features(self, small_corpus, tmp_path, capsys):
        argv = ["featurize", "--corpus", str(small_corpus), "--features", "edm15",
                "--tags", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "o")]
        assert main(argv) == 0


class TestSyngenCommand:
    def test_generates_corpus(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n_courses": 1, "threads_per_course": 5, "intervention_ratio": 0.5,
                    "vocabulary_disjointness": 0.5, "discourse_signal_strength": 0.5, "seed": 3,
                }
            )
        )
        out = tmp_path / "o"
        assert main(["syngen", "--spec", str(spec), "--out", str(out)]) == 0
        assert len((out / "corpus.jsonl").read_text().splitlines()) == 5


class TestConfigAndErrors:
    def test_config_file_supplies_corpus(self, small_corpus, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"corpus": str(small_corpus)}))
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert "C1" in capsys.readouterr().out

    def test_flag_overrides_config(self, small_corpus, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        other.write_text("")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"corpus": str(other)}))
        assert main(["ingest", "--config", str(cfg), "--corpus", str(small_corpus)]) == 0
        assert "C1" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        for key in ("corpse", "spec", "features_file", "config", "help"):  # required flags and --config/--help too
            cfg.write_text(json.dumps({key: "x"}))
            assert main(["ingest", "--config", str(cfg), "--corpus", "anything"]) == 1
            assert capsys.readouterr().err.startswith(f"error: unknown config key {key!r}")

    @pytest.mark.parametrize("kind, code", [("corpus", 2), ("spec", 2), ("config", 1)])
    def test_json_nested_past_the_recursion_limit(self, kind, code, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "\n")
        argv = {
            "corpus": ["ingest", "--corpus", str(deep)],
            "spec": ["syngen", "--spec", str(deep), "--out", str(tmp_path / "o")],
            "config": ["eval", "--config", str(deep), "--corpus", str(deep)],
        }[kind]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("nested too deeply" in err or "recursion depth" in err)

    @pytest.mark.parametrize(
        "setting", [{"k": "3"}, {"l2": "x"}, {"features": "bogus"}], ids=["k-string", "l2-not-float", "features-unknown"]
    )
    def test_mistyped_config_value(self, setting, small_corpus, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(setting))
        argv = ["eval", "--config", str(cfg), "--corpus", str(small_corpus), "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: config key {next(iter(setting))!r}")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["eval", "--bogus"], 1),
            (["eval", "--k", "x"], 1),
            (["eval", "--features", "nope"], 1),
            (["train"], 1),
            (["--help"], 0),
        ],
        ids=["unknown-flag", "k-not-int", "features-unknown", "train-no-features-file", "help"],
    )
    def test_usage_exit_code(self, argv, code, capsys):
        assert main(argv) == code

    def test_missing_corpus_flag(self, capsys):
        assert main(["ingest"]) == 1

    def test_stray_key_error_is_an_internal_error(self, small_corpus, monkeypatch, capsys):
        def lookup_fails(args):
            raise KeyError("missing")

        monkeypatch.setattr(cli, "cmd_ingest", lookup_fails)
        assert main(["ingest", "--corpus", str(small_corpus)]) == 3
        assert "internal error" in capsys.readouterr().err

    def test_malformed_corpus_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["ingest", "--corpus", str(bad)]) == 2

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["ingest", "--corpus", str(tmp_path / "nope.jsonl")]) == 2

    @pytest.mark.parametrize(
        "dump",
        [
            "C1\tt1\tintervened\tn_posts:1.0\n",
            "#space\tedm15\tn_posts\nC1\tt1\tintervened\tn_posts:many\n",
            "#space\tedm15\tn_posts\nC1\tt1\tintervened\tn_url:1.0\n",
            "#space\tedm15\tn_posts\nC1\tt1\n",
            "#space\tedm15\tn_posts\nC1\tt1\tmaybe\tn_posts:1.0\n",
        ],
        ids=["no-space-header", "value-not-float", "name-not-in-header", "short-row", "unknown-label"],
    )
    def test_malformed_feature_dump_exit_code(self, dump, tmp_path, capsys):
        path = tmp_path / "features.tsv"
        path.write_text(dump, "utf-8")
        assert main(["train", "--features-file", str(path), "--out", str(tmp_path)]) == 2
        assert "feature dump" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, error",
        [
            ("C1\tt1\tintervened\tn_posts:1.0\tn_posts:2.0\nC1\tt2\tnot_intervened\n",
             "feature dump line 2: duplicate feature 'n_posts' in the row"),
            ("C1\tt1\tintervened\tn_posts:1.0\nC1\tt2\tnot_intervened\nC1\tt1\tnot_intervened\n",
             "feature dump line 4: duplicate row for thread_id 't1' in course 'C1'"),
        ],
        ids=["feature-twice-in-a-row", "thread-twice"],
    )
    def test_feature_dump_with_a_repeat_exits_2(self, rows, error, tmp_path, capsys):
        path = tmp_path / "features.tsv"
        path.write_text("#space\tedm15\tn_posts\n" + rows, "utf-8")
        assert main(["train", "--features-file", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "model.txt").exists()

    def test_overflowing_feature_dump_exits_2_without_a_numpy_warning(self, tmp_path):
        path = tmp_path / "features.tsv"
        path.write_text("#space\tedm15\tn_posts\nC1\tt1\tintervened\tn_posts:1e100\n"
                        "C1\tt2\tnot_intervened\nC1\tt3\tintervened\n", "utf-8")
        src = str(resources.files("forum_sentinel").parent)
        proc = subprocess.run(  # a child process, so warnings print to stderr as they do for a user
            [sys.executable, "-W", "default", "-m", "forum_sentinel.cli", "train", "--features-file", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "overflowed" in proc.stderr and "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize(
        "flag, content, code",
        [
            ("--config", b"[1, 2]\n", 1),
            ("--corpus", b'{"course_id": "C\xff"}\n', 2),
            ("--lexicon", b"but\t0.9\t0\t0\t1\xff\t0\n", 2),
            ("--tags", b"C1\tpos0\tp0\t0:1:Compar\xe9son\n", 2),
            ("--tags", None, 2),
            ("--corpus", (json.dumps(record(posts=[post_obj(0, ts=5)])) + "\n").encode(), 2),
        ],
        ids=[
            "config-not-object", "corpus-not-utf8", "lexicon-not-utf8", "tags-not-utf8", "tags-is-directory",
            "timestamp-not-string",
        ],
    )
    def test_bad_input_file_exit_code(self, flag, content, code, small_corpus, tmp_path, capsys):
        path = tmp_path / "input"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv = ["tag", "--corpus", str(small_corpus), "--out", str(tmp_path / "o"), flag, str(path)]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith("error: ")


_CONFIG_KEYS = (
    "corpus", "lexicon", "tags", "features", "regime", "k", "seed", "l2",
    "jobs", "emit", "out", "fold_metrics", "unigrams", "class_weights", "max_iter", "tol",
)
# no "/" in generated text, so a config path stays inside the test's working directory
_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(blacklist_characters="/"), max_size=8)
    | st.sampled_from(["pdtb", "edm15", "ccv", "mean", "binary", "records", "none", "corpus.jsonl"])
    | st.integers(-3, 8).map(str)
)
_json_values = _json_scalars | st.lists(_json_scalars, max_size=3)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    config=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _json_values, max_size=2)
    | st.dictionaries(st.sampled_from(_CONFIG_KEYS) | st.text(max_size=6), _json_values, max_size=4)
    | _json_values
)
def test_config_file_fuzz_never_internal_error(config, small_corpus, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the corpus is here too, so a config path may name it
    (tmp_path / "run.json").write_text(json.dumps(config), "utf-8")
    argv = ["eval", "--config", str(tmp_path / "run.json"), "--corpus", str(small_corpus), "--out", str(tmp_path / "o")]
    assert main(argv) in (0, 1, 2)


@pytest.mark.parametrize(
    "flags, setting",
    [
        (["--tol", "nan"], "convergence_tol"), (["--tol", "inf"], "convergence_tol"),
        (["--l2", "nan"], "l2_lambda"), (["--l2", "inf"], "l2_lambda"),
        ({"tol": float("inf")}, "convergence_tol"), ({"l2": float("inf")}, "l2_lambda"),
    ],
    ids=["tol-nan", "tol-inf", "l2-nan", "l2-inf", "tol-inf-config", "l2-inf-config"],
)
def test_non_finite_training_setting_is_usage_error(flags, setting, small_corpus, tmp_path, capsys):
    if isinstance(flags, dict):
        (tmp_path / "run.json").write_text(json.dumps(flags), "utf-8")
        flags = ["--config", str(tmp_path / "run.json")]
    argv = ["eval", "--corpus", str(small_corpus), "--features", "edm15", "--out", str(tmp_path / "o"), *flags]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {setting} must be finite")


def _usually(valid, other=_json_values):
    """A value from ``valid`` seven times in eight, from ``other`` (any JSON value) otherwise."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 7 else valid)


_posts = _usually(st.fixed_dictionaries(
    {
        "post_id": _usually(st.sampled_from(["p0", "p1", "p2"])),
        "author_id": _usually(st.just("u0")),
        "role": _usually(st.sampled_from(["student", "instructor", "teaching_assistant"])),
        "timestamp": _usually(st.sampled_from([
            "2020-01-06T10:00:00Z", "2020-01-06T10:00:00+23:59", "9999-12-31T23:59:59-23:59",
            "0001-01-01T00:00:00+00:01", "2020-01-06",
        ])),
        "text": _usually(st.text(max_size=30) | st.sampled_from(["But if it fails, why?", "see http://x.org at 10:30"])),
    },
    optional={"parent_post_id": _usually(st.sampled_from(["p0", "p1"]))},
))
_records = _usually(st.fixed_dictionaries(
    {
        "course_id": _usually(st.sampled_from(["C1", "C2"])),
        "thread_id": _usually(st.sampled_from(["t1", "t2", "t3"])),
        "subforum": _usually(st.sampled_from(["lecture", "exam", "study_group"])),
        "posts": _usually(st.lists(_posts, min_size=1, max_size=3)),
    }
))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(_records, min_size=1, max_size=4))
@example(records=[record(posts=5)])
@example(records=[record(posts=[post_obj(0, ts="9999-12-31T23:59:59-23:59")])])
def test_corpus_record_fuzz_never_internal_error(records, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    assert main(["featurize", "--corpus", str(corpus), "--out", str(tmp_path / "o")]) in (0, 2)


def _cells(*cells):
    """One tab-separated line: a cell from each strategy, then the cells of the list the last one draws."""
    return st.tuples(*cells).map(lambda parts: "\t".join(parts[:-1] + tuple(parts[-1])))


def _input_file(lines):
    """A list of lines as text, or, one time in eight, bytes that are not UTF-8."""
    return _usually(lines.map(lambda ls: "".join(l + "\n" for l in ls).encode()),
                    st.binary(max_size=12).map(lambda b: b + b"\xff"))


_junk = st.text(max_size=4)
_number = _usually(st.sampled_from(["0", "0.5", "1"]), st.sampled_from(["-1", "2", "nan", "inf", "1e400", "x", ""]))
_lexicon_line = _cells(
    _usually(st.sampled_from(["but", "if", "as soon as", "because"]),
             st.sampled_from(["", "a b c d e", "#but"]) | _junk),
    _usually(st.just(5), st.integers(0, 7)).flatmap(lambda n: st.lists(_number, min_size=n, max_size=n)),
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=_input_file(st.lists(_lexicon_line, max_size=4)))
def test_lexicon_file_fuzz_never_internal_error(content, small_corpus, tmp_path):
    (tmp_path / "lexicon.tsv").write_bytes(content)
    argv = ["tag", "--corpus", str(small_corpus), "--lexicon", str(tmp_path / "lexicon.tsv"),
            "--out", str(tmp_path / "o")]
    assert main(argv) in (0, 2)


_triple = st.builds("{}:{}:{}".format, st.integers(-1, 10), st.integers(-1, 10),
                    st.sampled_from(["Temporal", "Contingency", "Comparison", "Expansion"]))
_tag_line = _cells(
    _usually(st.sampled_from(["C1", "C2"]), _junk), _usually(st.sampled_from(["pos0", "neg0"]), _junk),
    _usually(st.sampled_from(["p0", "p1", "p2"]), _junk),
    st.lists(_usually(_triple, _junk), max_size=3),
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=_input_file(st.lists(_tag_line, max_size=4)))
@example(content=b"C1\tpos0\tp0\t0:1:Expansion\t0:1:Temporal\n")  # one span tagged twice
@example(content=b"C\t1\tpos0\tp0\t0:1:Comparison\n")  # what tag wrote for a course id holding a tab
def test_tag_import_fuzz_never_internal_error(content, small_corpus, tmp_path):
    (tmp_path / "tags.tsv").write_bytes(content)
    argv = ["featurize", "--corpus", str(small_corpus), "--features", "pdtb", "--tags", str(tmp_path / "tags.tsv"),
            "--out", str(tmp_path / "o")]
    assert main(argv) in (0, 2)


_dump_names = ("n_posts", "n_url", "uni.alpha")
_dump_header = _usually(st.just("#space\tedm15\t" + "\t".join(_dump_names)),
                        st.sampled_from(["#space", "#space\t", "#space\tedm15\tn_posts\tn_posts"]) | _junk)
_dump_label = st.sampled_from(["intervened", "not_intervened"])
_dump_cell = st.builds("{}:{!r}".format, st.sampled_from(_dump_names), st.floats(-5, 5))
_dump_row = _usually(
    _cells(st.sampled_from(["C1", "C2"]), st.sampled_from(["t1", "t2"]), _dump_label, st.lists(_dump_cell, max_size=3)),
    _cells(_junk, _junk, _usually(_dump_label, _junk), st.lists(_usually(
        _dump_cell, st.sampled_from(["n_posts:nan", "n_posts:1e300", "n_url:", "x:1.0", ":"]) | _junk), max_size=3)),
)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=_input_file(st.tuples(_dump_header, st.lists(_dump_row, max_size=5)).map(lambda t: [t[0], *t[1]])))
@example(content=b"#space\tedm15\tn_posts\nC\t1\tt0\tintervened\tn_posts:1.0\n")  # a course id holding a tab
# a fit that overflows
@example(content=b"#space\tedm15\tn_posts\nC1\tt1\tintervened\tn_posts:1e300\nC1\tt2\tnot_intervened\n")
def test_feature_dump_fuzz_never_internal_error(content, tmp_path):
    (tmp_path / "features.tsv").write_bytes(content)
    assert main(["train", "--features-file", str(tmp_path / "features.tsv"), "--out", str(tmp_path / "o")]) in (0, 2)


def test_tag_import_of_hash_prefixed_ids_matches_the_tagger(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    spec = GenSpec(n_courses=2, threads_per_course=30, intervention_ratio=0.25,
                   vocabulary_disjointness=0.5, discourse_signal_strength=0.6, seed=3)
    generate(spec, corpus)
    records = [json.loads(line) for line in corpus.read_text("utf-8").splitlines()]
    corpus.write_text("".join(json.dumps({**r, "course_id": "#" + r["course_id"]}) + "\n" for r in records), "utf-8")
    assert main(["tag", "--corpus", str(corpus), "--out", str(tmp_path / "t")]) == 0
    args = ["eval", "--corpus", str(corpus), "--features", "pdtb", "--regime", "ccv", "--emit", "records"]
    assert main([*args, "--out", str(tmp_path / "plain")]) == 0
    assert main([*args, "--tags", str(tmp_path / "t" / "tags.tsv"), "--out", str(tmp_path / "imported")]) == 0
    assert (tmp_path / "plain" / "report.jsonl").read_bytes() == (tmp_path / "imported" / "report.jsonl").read_bytes()


# no integer above 3, so that a valid spec generates a corpus of a few threads
_count = _usually(
    st.integers(1, 3),
    st.integers(-1, 0) | st.none() | st.booleans() | st.floats() | st.text(max_size=3) | st.lists(_json_scalars),
)
_fraction = _usually(st.floats(0, 1))
_spec_values = {
    "n_courses": _count, "threads_per_course": _count, "seed": _usually(st.integers()),
    "intervention_ratio": _usually(st.floats(0, 4) | st.lists(_usually(st.floats(0, 4)), max_size=3)),
    "vocabulary_disjointness": _fraction, "discourse_signal_strength": _fraction,
}


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=_usually(st.fixed_dictionaries(_spec_values) | st.fixed_dictionaries({}, optional=_spec_values)))
@example(spec=[1, 2])
@example(spec={"n_courses": 2, "threads_per_course": 3, "intervention_ratio": None,
               "vocabulary_disjointness": 0.5, "discourse_signal_strength": 0.5, "seed": 3})
def test_genspec_fuzz_never_internal_error(spec, tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(spec), "utf-8")
    assert main(["syngen", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]) in (0, 2)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_courses=st.integers(1, 3), threads=st.integers(1, 8), ratio=st.floats(0, 1), seed=st.integers(0, 2**16),
    disjointness=st.floats(0, 1), signal=st.floats(0, 1),
    regime=st.sampled_from(["in-domain", "ccv"]), features=st.sampled_from(["pdtb", "edm15"]),
)
def test_eval_fuzz_never_usage_or_internal_error(
    n_courses, threads, ratio, seed, disjointness, signal, regime, features, tmp_path, capsys,
):
    corpus = tmp_path / "corpus.jsonl"
    generate(GenSpec(n_courses=n_courses, threads_per_course=threads, intervention_ratio=ratio,
                     vocabulary_disjointness=disjointness, discourse_signal_strength=signal, seed=seed), corpus)
    argv = ["eval", "--corpus", str(corpus), "--features", features, "--regime", regime, "--emit", "records"]
    code = main([*argv, "--out", str(tmp_path / "o")])
    assert code in (0, 2)
    if code == 0:
        rows = [json.loads(line) for line in (tmp_path / "o" / "report.jsonl").read_text("utf-8").splitlines()]
        courses = [row for row in rows if row["row"] == "course"]
        metrics = [Metrics(row["precision"], row["recall"], row["f1"]) for row in courses]
        want = {
            "macro": macro_average(metrics),
            "weighted_macro": weighted_macro_average(metrics, [float(row["n_threads"]) for row in courses]),
        }
        got = {row["row"]: Metrics(row["precision"], row["recall"], row["f1"]) for row in rows if row["row"] in want}
        assert got == want


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    table = readme[readme.index("| flag | default | subcommands |"):].split("\n\n")[0].splitlines()[2:]
    subparsers = next(a for a in build_parser()._actions if a.choices)
    documented = {}
    for row in table:
        flag, _default, commands = (cell.strip() for cell in row.strip("|").split("|"))
        option = re.match(r"`(--[a-z0-9-]+)", flag).group(1)
        assert option not in documented, f"{option} has two rows"
        documented[option] = set(subparsers.choices) if commands == "all" else set(commands.split(", "))
    taken = {}
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            for option in set(action.option_strings) - {"-h", "--help"}:
                taken.setdefault(option, set()).add(name)
    assert documented == taken


@pytest.mark.parametrize("features", ["pdtb", "edm15"])
def test_config_file_and_flags_give_the_same_report(features, syn_corpus, tmp_path):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_bytes(resources.files("forum_sentinel.data").joinpath("connectives.tsv").read_bytes())
    assert main(["tag", "--corpus", str(syn_corpus), "--out", str(tmp_path / "t")]) == 0
    nondefault = {  # every eval setting away from its default
        "corpus": str(syn_corpus), "lexicon": str(lexicon), "tags": str(tmp_path / "t" / "tags.tsv"),
        "features": features, "jobs": 2, "regime": "in-domain", "k": 3,
        "seed": 5, "l2": 0.01, "max_iter": 40, "tol": 1e-05,
        "class_weights": "none", "emit": "csv",
    }
    conflicting = dict(
        corpus="missing.jsonl", lexicon="missing.tsv", tags="missing.tsv", features="eplusp",
        jobs=1, regime="ccv", k=4, seed=9, l2=0.5, max_iter=7, tol=0.1,
        class_weights="neg_over_pos", emit="records", out=str(tmp_path / "elsewhere"),
    )

    def flags(out):
        return [f"--{key.replace('_', '-')}={value}" for key, value in {**nondefault, "out": out}.items()]

    def config(name, values):
        (tmp_path / name).write_text(json.dumps(values), "utf-8")
        return ["--config", str(tmp_path / name)]

    assert main(["eval", *flags(tmp_path / "flags")]) == 0
    assert main(["eval", *config("all.json", {**nondefault, "out": str(tmp_path / "config")})]) == 0
    assert main(["eval", *config("conflicting.json", conflicting), *flags(tmp_path / "both")]) == 0  # flags win
    reports = [(tmp_path / name / "report.csv").read_bytes() for name in ("flags", "config", "both")]
    assert reports[0] == reports[1] == reports[2]


# one value away from its default for every eval flag that sets how the run is done
_EVAL_SETTINGS = {
    "--features": "pdtb", "--jobs": "2", "--l2": "0.01", "--max-iter": "40", "--tol": "1e-05",
    "--class-weights": "none", "--seed": "5", "--regime": "ccv", "--k": "3",
}
# the files a run reads and writes, and the form of its report, are not settings of the run
_EVAL_IO_FLAGS = {"--config", "--out", "--corpus", "--lexicon", "--tags", "--emit"}


def test_every_eval_setting_is_recorded_in_the_report(syn_corpus, tmp_path):
    eval_parser = next(a for a in build_parser()._actions if a.choices).choices["eval"]
    flags = {option for a in eval_parser._actions if not a.required for option in a.option_strings}
    assert set(_EVAL_SETTINGS) == flags - {"-h", "--help"} - _EVAL_IO_FLAGS

    def report(name, *setting):
        out = tmp_path / name
        assert main(["eval", "--corpus", str(syn_corpus), "--emit", "records", "--out", str(out), *setting]) == 0
        return (out / "report.jsonl").read_bytes()

    base = report("default")
    for flag, value in _EVAL_SETTINGS.items():
        changed = report(flag.strip("-"), flag, value)
        if flag == "--jobs":  # no effect: the report stays byte-identical
            assert changed == base
        else:
            assert changed.splitlines()[0] != base.splitlines()[0], f"the config row does not record {flag} {value}"
