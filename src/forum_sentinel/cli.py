"""Command-line entry point: one binary, subcommand per pipeline stage.

Subcommands: ingest, tag, featurize, train, eval, syngen. A JSON config file
(--config) can pre-set any optional flag, keyed by its long name with "_"
for "-"; explicit flags win. The env var FORUM_SENTINEL_LOG sets the log
level: DEBUG, INFO, WARNING, ERROR or CRITICAL in any case, WARNING when
unset or empty; any other value exits 1. Every subcommand writes
byte-identical outputs for identical inputs and seed.

Exit codes: 0 success, 1 usage or configuration error, 2 malformed input
data (corpus, lexicon, tags, features or model file), 3 unexpected failure.

A command runs with the cyclic garbage collector paused, then ``main`` restores
the caller's setting. The data forms no reference cycles, so the collector's
scans freed nothing, yet took 6% of a paper-scale ccv eplusp ``eval``.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import evaluation, features, syngen
from .corpus import WRITTEN, InputError, corpus_stats, filter_and_label, load_corpus, parse_lines
from .discourse import (
    format_tag_records,
    load_lexicon,
    load_tag_import,
    sense_distribution,
    tag_thread,
)
from .features import FeatureSpace, FeatureVector, build_vocabulary, vectorize
from .model import TrainConfig, save_model, train
from .textprep import Shared

logger = logging.getLogger(__name__)

def _setup_logging() -> None:
    """Log at FORUM_SENTINEL_LOG's level: a level name in any case; unset or empty is WARNING."""
    value = os.environ.get("FORUM_SENTINEL_LOG", "")
    if (level := value.upper() or "WARNING") not in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"):
        raise ValueError(f"FORUM_SENTINEL_LOG={value!r} is not a log level (DEBUG, INFO, WARNING, ERROR, CRITICAL)")
    logging.basicConfig(level=getattr(logging, level))


def _config_defaults(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Checked settings from the JSON config file, to become the subcommand's defaults."""
    try:
        obj = json.loads(Path(args.config).read_text("utf-8"))
    except RecursionError:
        raise ValueError("config file is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("config file must hold a JSON object")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    keys = {
        a.dest for p in subparsers.choices.values() for a in p._actions if a.option_strings and not a.required
    } - {"help", "config"}
    defaults = {}
    for key, value in obj.items():
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
        action = next((a for a in args.parser._actions if a.dest == key), None)
        try:  # a value must be what the flag itself would parse from its text, and becomes that parse
            parsed = value if action is None else (action.type or str)(str(value))
            valid = action is None or parsed == value and value in (action.choices or [value])
        except ValueError:
            valid = False
        if not valid:
            raise ValueError(f"config key {key!r} has an invalid value {value!r}")
        defaults[key] = parsed
    return defaults


def _load_filtered(corpus_path: str):
    return filter_and_label(load_corpus(corpus_path).threads)


def _tags(args: argparse.Namespace):
    """The command's tag source: the --tags table if given, else the lexicon;
    None, and nothing read, when its features use no tags."""
    if args.command != "tag" and args.features not in features.DISCOURSE_CONFIGS:
        return None
    return load_tag_import(args.tags) if args.tags else load_lexicon(args.lexicon)


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        l2_lambda=args.l2, max_iterations=args.max_iter, convergence_tol=args.tol,
        class_weight_mode=args.class_weights, seed=args.seed,
    )


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise InputError(f"--out {out} cannot be the output directory: it or a parent is a file") from None
    return out


def cmd_ingest(args) -> int:
    threads = _load_filtered(args.corpus)
    rows = corpus_stats(threads)
    width = max([len("course")] + [len(r.course_id) for r in rows])
    print(f"{'course':<{width}}  {'intervened':>10}  {'non-intervened':>14}  {'ratio':>6}")
    for row in rows:
        print(
            f"{row.course_id:<{width}}  {row.n_intervened:>10}  "
            f"{row.n_not_intervened:>14}  {row.ratio_display():>6}"
        )
    return 0


def cmd_tag(args) -> int:
    threads = _load_filtered(args.corpus)
    tags = _tags(args)
    lines = []
    taggings = []  # every post's, in corpus order
    for thread in threads:
        thread_taggings = tag_thread(thread, tags)
        taggings += thread_taggings
        lines += format_tag_records(thread, thread_taggings)
    out = _out_dir(args) / "tags.tsv"
    out.write_bytes(("\n".join(lines) + "\n" if lines else "").encode("utf-8"))
    dist = sense_distribution(taggings)
    if dist is None:
        print("no connectives tagged")
    else:
        abbrev = {"Temporal": "Temp.", "Contingency": "Cont.", "Comparison": "Comp.", "Expansion": "Exp."}
        print("  ".join(f"{abbrev[sense.label]} {pct:.0f}%" for sense, pct in dist.items()))
    print(f"wrote {out}")
    return 0


# threads vectorized and written at a time
_FEATURIZE_BLOCK = 256


def dump_row(course_id: str, thread_id: str, label: int, values: dict[str, float]) -> str:
    """A feature dump row, without its LF."""
    cells = [f"{name}:{values[name]!r}" for name in sorted(values)]
    return "\t".join([course_id, thread_id, "intervened" if label else "not_intervened", *cells])


def cmd_featurize(args) -> int:
    threads = _load_filtered(args.corpus)
    tags = _tags(args)
    # the dump is an in-sample artifact: vocabulary comes from this corpus;
    # the eval subcommand rebuilds fold-local vocabularies itself
    vocabulary = build_vocabulary(threads) if args.features in features.LEXICAL_CONFIGS else None
    space = features.build_space(args.features, vocabulary)
    out = _out_dir(args) / "features.tsv"
    partial = out.with_name(out.name + ".partial")  # renamed to out once whole, so a failed run leaves out as it was
    try:
        with partial.open("w", encoding="utf-8", newline="\n") as dump:  # one row at a time, each ended by LF
            dump.write("\t".join(("#space", args.features) + space.names) + "\n")
            for start in range(0, len(threads), _FEATURIZE_BLOCK):
                block = threads[start : start + _FEATURIZE_BLOCK]
                # the block's vectors are freed when its loop ends, before the next block is vectorized
                for thread, (vec, label) in zip(block, vectorize(block, space, tags)):
                    dump.write(dump_row(thread.course_id, thread.thread_id, label, vec.values) + "\n")
        partial.replace(out)
    finally:
        partial.unlink(missing_ok=True)
    print(f"wrote {out} ({len(threads)} threads, {len(space)} dims)")
    return 0


class FeatureDumpError(InputError):
    """Raised when a feature dump cannot be parsed; names the line."""


def load_feature_dump(path: str | Path):
    """Read a featurize dump back into (space, [(course, thread, vector, label)])."""
    space = None
    floats = Shared(float)  # one float per value text across all rows
    faulty: set[str] = set()  # cell texts whose name is not in the space or whose value is not finite

    def cell(text: str) -> tuple[str, float]:  # the name is one string per name for the run
        name, _, value = text.rpartition(":")
        number = floats[value]
        if math.isfinite(number) and not WRITTEN["float"].fullmatch(value):
            raise ValueError(f"the value of {name!r} is {value!r}, not a number in the form featurize writes")
        if name not in space.index or not math.isfinite(number):  # FeatureVector's check names the fault
            faulty.add(text)
        return sys.intern(name), number

    cells = Shared(cell)  # each distinct cell text read and checked once

    def parse(line: str):
        nonlocal space
        if space is None:
            if not line.startswith("#space\t"):
                raise ValueError("missing #space header")
            _tag, config, *names = line.split("\t")
            space = FeatureSpace(tuple(map(sys.intern, names)), config)
            return None
        course_id, thread_id, label, *texts = line.split("\t")
        if label not in ("intervened", "not_intervened"):
            raise ValueError(f"bad label {label!r}")
        values = dict(map(cells.__getitem__, texts))
        if len(values) < len(texts):
            names = [text.rpartition(":")[0] for text in texts]
            raise ValueError(f"duplicate feature {next(n for n in names if names.count(n) > 1)!r} in the row")
        make = FeatureVector if faulty and not faulty.isdisjoint(texts) else FeatureVector.trusted
        return course_id, thread_id, make(values, space), int(label == "intervened")

    def key(row) -> str | None:
        return None if row is None else f"row for thread_id {row[1]!r} in course {row[0]!r}"

    rows = [row for row in parse_lines(path, "feature dump", parse, key, FeatureDumpError) if row is not None]
    if space is None:
        raise FeatureDumpError("feature dump missing #space header")
    return space, rows


def cmd_train(args) -> int:
    config = _train_config(args)
    try:  # the settings are valid, so a fit that fails is failed by the dump, which only the fit holds
        model = train([(vec, label) for _c, _t, vec, label in load_feature_dump(args.features_file)[1]], config)
    except FeatureDumpError:  # the reader names the line
        raise
    except ValueError as exc:
        raise FeatureDumpError(f"cannot fit the feature dump: {exc}") from None
    out = _out_dir(args) / "model.txt"
    save_model(model, out)
    status = "converged" if model.converged else "not converged"
    print(f"wrote {out} ({len(model.feature_space)} dims, {status}, class weight {model.class_weight_value:.4g})")
    return 0


def cmd_eval(args) -> int:
    threads = _load_filtered(args.corpus)
    if not threads:
        raise InputError(f"no thread of {args.corpus} is left after filtering, so there is nothing to evaluate")
    tags = _tags(args)
    train_config = _train_config(args)
    if args.regime == "in-domain":
        report = evaluation.run_in_domain(threads, args.features, tags, train_config, k=args.k, seed=train_config.seed)
    else:
        report = evaluation.run_loo_ccv(threads, args.features, tags, train_config)
    renderers = {
        "table": (evaluation.render_table, "report.txt"),
        "csv": (evaluation.render_csv, "report.csv"),
        "records": (evaluation.render_records, "report.jsonl"),
    }
    render, filename = renderers[args.emit]
    text = render(report)
    out = _out_dir(args) / filename
    out.write_bytes(text.encode("utf-8"))
    print(text, end="")
    print(f"wrote {out}")
    return 0


def cmd_syngen(args) -> int:
    spec = syngen.load_genspec(args.spec)
    out = _out_dir(args) / "corpus.jsonl"
    syngen.generate(spec, out)
    print(f"wrote {out} ({spec.n_courses} courses x {spec.threads_per_course} threads)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Each shared flag group is one parent parser. Its actions are shared by
    # every child, so set_defaults on one subcommand reaches all: build anew per run.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="JSON config file; keys are optional flag names, and flags override it")
    run.add_argument("--out", default=".", help="output directory (default: cwd)")
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--corpus", help="line-delimited corpus file (required, as a flag or config key)")
    discourse = argparse.ArgumentParser(add_help=False)
    discourse.add_argument("--lexicon", help="connective lexicon (default: shipped); unread with --tags or edm15 features")
    discourse.add_argument("--tags", help="tag-import file, used verbatim instead of the lexicon; unread for edm15 features")
    vectors = argparse.ArgumentParser(add_help=False)
    vectors.add_argument("--features", choices=features.FEATURE_CONFIGS, default="eplusp")
    vectors.add_argument("--jobs", type=int, default=1, help="accepted so featurize and eval share a config; no effect")
    defaults = TrainConfig()
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--l2", type=float, default=defaults.l2_lambda)
    fit.add_argument("--max-iter", type=int, default=defaults.max_iterations, help="cap on Newton iterations per fit")
    fit.add_argument("--tol", type=float, default=defaults.convergence_tol, help="converged at gradient inf-norm <= it")
    fit.add_argument("--class-weights", choices=("none", "neg_over_pos"), default=defaults.class_weight_mode)
    fit.add_argument("--seed", type=int, default=defaults.seed)

    parser = argparse.ArgumentParser(prog="forum-sentinel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[run, *parents])
        p.set_defaults(func=func, parser=p)
        return p

    add("ingest", cmd_ingest, "print per-course intervention counts", corpus)
    add("tag", cmd_tag, "tag connectives; write tag file + sense distribution", corpus, discourse)
    add("featurize", cmd_featurize, "dump feature vectors for a corpus", corpus, discourse, vectors)
    p = add("train", cmd_train, "train a model from a feature dump", fit)
    p.add_argument("--features-file", required=True, help="dump from `featurize`")
    p = add("eval", cmd_eval, "run an evaluation regime and write a report", corpus, discourse, vectors, fit)
    p.add_argument("--regime", choices=("in-domain", "ccv"), default="in-domain")
    p.add_argument("--k", type=int, default=5, help="in-domain folds per course")
    p.add_argument("--emit", choices=("table", "csv", "records"), default="table")
    p = add("syngen", cmd_syngen, "generate a synthetic corpus from a spec file")
    p.add_argument("--spec", required=True, help="JSON generation spec")
    return parser


def main(argv: list[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        _setup_logging()
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            args.parser.set_defaults(**_config_defaults(parser, args))
            args = parser.parse_args(argv)
        if getattr(args, "corpus", "_") is None:
            raise ValueError(f"{args.command} requires --corpus (flag or config file)")
        return args.func(args)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return 0 if exc.code == 0 else 1
    except (InputError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        logger.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        (gc.enable if collecting else gc.disable)()


if __name__ == "__main__":
    raise SystemExit(main())
