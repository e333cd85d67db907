"""Command line front end.

Every subcommand writes its artifacts atomically to --out DIR (cs-predict
prints to stdout without one).  Each handler returns the settings it
resolved, and `main` writes DIR/run.json once: every parsed flag, with
those settings written over the raw values.  Reruns with the same inputs
and seed produce byte-identical outputs.  Exit codes: 0 on success, 1 on
usage errors, 2 on data errors.
"""

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, commonsense, evaluation, mlcore, pdfmodel, synthgen
from ._util import atomic_write_text, csv_text, fmt_float, save_json, utf8_fault
from .binning import DEFAULT_BINNING, BinningScheme
from .corpus import (
    CORPUS_FORMAT_VERSION,
    SHIPPED_POLICIES,
    AdjectiveLexicon,
    bundled_lexicon,
    ingest_jsonl,
    load_store,
    persist_store,
)
from .errors import TraitlexError

FORMAT_VERSIONS = {
    "corpus": CORPUS_FORMAT_VERSION,
    "pdf-model": pdfmodel.MODEL_FORMAT_VERSION,
    "ml-model": mlcore.base.ML_MODEL_FORMAT_VERSION,
    "catalog": commonsense.CATALOG_FORMAT_VERSION,
    "bank": commonsense.BANK_FORMAT_VERSION,
    "generator-spec": synthgen.SPEC_FORMAT_VERSION,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _write_run_manifest(args, resolved: dict) -> None:
    arguments = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
    save_json(Path(args.out) / "run.json", {
        "tool": "traitlex",
        "tool_version": __version__,
        "format_versions": FORMAT_VERSIONS,
        "command": args.command,
        "arguments": {**arguments, **resolved},
    })


def _csv(out_dir: Path, name: str, header: list, rows) -> None:
    atomic_write_text(out_dir / name, csv_text([header, *rows]))


# ingest's override flags and the FilterPolicy fields they set
_POLICY_FLAGS = {"min_words": "min_words", "max_words": "max_words",
                 "lang": "required_lang", "min_adj_total": "min_adjective_total_freq"}


def _policy_from_args(args):
    return replace(SHIPPED_POLICIES[args.policy], **{
        field: getattr(args, flag) for flag, field in _POLICY_FLAGS.items()
        if getattr(args, flag) is not None})


def _binning_from_args(args) -> BinningScheme:
    return BinningScheme(lo=args.lo, hi=args.hi, n_bins=args.bins)


def _write_report(out: Path, report) -> None:
    _csv(out, "report.csv", ["n", "mae", "rmse", "marginal_accuracy", "margin"],
         [[str(report.n), fmt_float(report.mae), fmt_float(report.rmse),
           fmt_float(report.marginal_accuracy), fmt_float(report.margin)]])


# --- subcommand handlers ------------------------------------------------------

def _cmd_ingest(args):
    out = Path(args.out)
    lexicon = (
        AdjectiveLexicon.from_file(args.lexicon) if args.lexicon else bundled_lexicon()
    )
    policy = _policy_from_args(args)
    result = ingest_jsonl(args.input, lexicon=lexicon, policy=policy)
    persist_store(result.store, out)
    _csv(out, "rejections.csv", ["sample_id", "reason"], result.rejections)
    print(
        f"ingested {len(result.store)} of {result.n_read} records "
        f"({len(result.rejections)} rejected) into {out}"
    )
    return {"lexicon": args.lexicon or "builtin", "policy": policy.to_dict()}


def _cmd_distribution(args):
    out = Path(args.out)
    store = load_store(args.corpus)
    rows = evaluation.score_distribution(store, args.trait, n_bins=args.bins)
    _csv(out, "distribution.csv", ["lo", "hi", "count", "percent"],
         [[fmt_float(r.lo), fmt_float(r.hi), str(r.count), fmt_float(r.percent)]
          for r in rows])
    print(f"wrote score distribution for trait {args.trait} to {out}")
    return {}


def _cmd_pdf_build(args):
    out = Path(args.out)
    store = load_store(args.corpus)
    binning = _binning_from_args(args)
    model = pdfmodel.build_model(
        store, args.trait, binning=binning,
        min_word_freq=args.min_word_freq, smoothing_alpha=args.alpha,
    )
    pdfmodel.save_model(model, out / "model.json")
    print(
        f"built density model for trait {args.trait}: "
        f"{len(model.vocab)} words over {binning.n_bins} bins"
    )
    return {}


def _prediction_csvs(out: Path, records, skipped) -> None:
    _csv(out, "predictions.csv", ["sample_id", "label", "confidence", "words_used", "truth"],
         [[r.sample_id, fmt_float(r.label), fmt_float(r.confidence), str(r.words_used),
           "" if r.truth is None else fmt_float(r.truth)] for r in records])
    _csv(out, "skipped.csv", ["sample_id", "reason"], skipped)


def _cmd_pdf_predict(args):
    out = Path(args.out)
    model = pdfmodel.load_model(args.model)
    store = load_store(args.corpus)
    records, skipped = evaluation.predict_samples(
        model, store, SHIPPED_POLICIES[args.policy]
    )
    _prediction_csvs(out, records, skipped)
    print(f"predicted {len(records)} samples ({len(skipped)} skipped)")
    return {}


def _cmd_pdf_eval(args):
    out = Path(args.out)
    model = pdfmodel.load_model(args.model)
    store = load_store(args.corpus)
    result = evaluation.evaluate_pdf_model(
        model, store, policy=SHIPPED_POLICIES[args.policy], margin=args.margin
    )
    _write_report(out, result.report)
    _csv(out, "curve.csv", ["threshold", "mae", "n_retained"],
         [[fmt_float(p.threshold), "" if p.mae is None else fmt_float(p.mae),
           str(p.n_retained)] for p in result.curve])
    _prediction_csvs(out, result.records, result.skipped)
    r = result.report
    print(
        f"n={r.n} mae={r.mae:.4f} rmse={r.rmse:.4f} "
        f"marginal_accuracy={r.marginal_accuracy:.4f} (margin {r.margin})"
    )
    return {}


def _dataset_from_args(args, need_labels: str | None, words=None):
    """The --data CSV, or the --corpus store's matrix over `words` (by
    default the store's own adjectives)."""
    if args.data:
        return mlcore.load_dataset_csv(args.data)
    if not args.corpus or not args.trait:
        raise _UsageError("provide either --data or both --corpus and --trait")
    store = load_store(args.corpus)
    binning = _binning_from_args(args) if need_labels == "class" else None
    return mlcore.corpus_to_dataset(store, args.trait, binning=binning, words=words)


def _cmd_ml_train(args):
    out = Path(args.out)
    config_hp = {}
    if args.k is not None:
        config_hp["k"] = args.k
    if args.trees is not None:
        config_hp["n_trees"] = args.trees
    config = mlcore.TrainConfig(
        algorithm=args.algorithm, seed=args.seed, hyperparams=config_hp
    )
    need = "class" if config.kind == "classifier" else "score"
    ds = _dataset_from_args(args, need_labels=need)
    if args.min_feature_share is not None:
        ds = mlcore.select_features_by_frequency(ds, args.min_feature_share)
    if args.min_coverage is not None:
        ds = mlcore.filter_datapoints_by_coverage(ds, args.min_coverage)
    model = mlcore.train(config, ds)
    mlcore.save_trained_model(model, out / "model.json")
    print(f"trained {args.algorithm} on {ds.n} rows x {ds.n_features} features")
    return {"hyperparams": model.hyperparams}


def _cmd_ml_eval(args):
    out = Path(args.out)
    model = mlcore.load_trained_model(args.model)
    ds = _dataset_from_args(
        args, need_labels="class" if model.kind == "classifier" else "score",
        words=model.feature_names,
    )
    pred = mlcore.predict_dataset(model, ds)
    if model.kind == "classifier":
        if ds.y_class is None:
            raise TraitlexError("dataset has no class labels to evaluate against")
        accuracy = evaluation.exact_accuracy(pred, ds.y_class)
        _csv(out, "report.csv", ["n", "accuracy"],
             [[str(ds.n), fmt_float(accuracy)]])
        truth_col = [str(int(v)) for v in ds.y_class]
        pred_col = [str(int(v)) for v in pred]
        summary = f"n={ds.n} accuracy={accuracy:.4f}"
    else:
        if ds.y_score is None:
            raise TraitlexError("dataset has no score labels to evaluate against")
        report = evaluation.evaluate_scores(pred, ds.y_score, margin=args.margin)
        _write_report(out, report)
        truth_col = [fmt_float(v) for v in ds.y_score]
        pred_col = [fmt_float(v) for v in pred]
        summary = f"n={report.n} mae={report.mae:.4f} rmse={report.rmse:.4f}"
    _csv(out, "predictions.csv", ["row", "predicted", "truth"],
         [[str(i), p, t] for i, (p, t) in enumerate(zip(pred_col, truth_col))])
    print(summary)
    return {}


def _cmd_cs_train(args):
    out = Path(args.out)
    catalog = commonsense.load_catalog(args.catalog)
    ingest = commonsense.load_survey_csv(args.survey, catalog)
    survey = ingest.survey
    if survey.n == 0:
        raise TraitlexError("every respondent failed the consistency check" if ingest.rejected
                            else f"{args.survey}: survey has no respondents")
    questions = [catalog.question(qid) for qid in survey.answers]
    configs = []
    for name in args.algorithms.split(","):
        name = name.strip()
        hp = {}
        if args.trees is not None and name.startswith("random_forest"):
            hp["n_trees"] = args.trees
        configs.append(
            mlcore.TrainConfig(algorithm=name, seed=args.seed, hyperparams=hp)
        )
    result = commonsense.train_all(
        survey, questions, configs, k=args.k, seed=args.seed,
        min_abs_r=args.min_abs_r,
    )
    commonsense.save_bank(result, out / "bank.json")
    atomic_write_text(out / "report.csv", commonsense.report_to_csv(result))
    _csv(out, "rejected.csv", ["respondent_id", "item_a", "item_b"],
         [[rid, str(a), str(b)] for rid, a, b in ingest.rejected])
    _csv(out, "failures.csv", ["qid", "algorithm", "message"], result.failures)
    print(
        f"trained {len(result.rows)} (question, algorithm) pairs on "
        f"{survey.n} respondents ({len(ingest.rejected)} rejected, "
        f"{len(result.failures)} failures)"
    )
    return {"catalog": args.catalog or "builtin"}


def _read_answers(args):
    if args.answers_file:
        try:
            text = Path(args.answers_file).read_text("utf-8")
        except UnicodeDecodeError:
            raise TraitlexError(utf8_fault(args.answers_file)) from None
    else:
        if sys.stdin.isatty():
            print(
                f"enter {commonsense.N_ITEMS} Likert answers (1-5), "
                "whitespace separated:", file=sys.stderr
            )
        text = sys.stdin.read()
    parts = text.replace(",", " ").split()
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise TraitlexError(f"answers must be integers, got {parts[:3]}...") from None
    if len(values) != commonsense.N_ITEMS:
        raise TraitlexError(
            f"expected {commonsense.N_ITEMS} answers, got {len(values)}"
        )
    return values


def _cmd_cs_predict(args):
    bank = commonsense.load_bank(args.bank)
    answers = _read_answers(args)
    predictions = commonsense.predict_with_bank(bank, answers)
    rows = list(predictions.items())
    if args.out:
        out = Path(args.out)
        _csv(out, "answers.csv", ["qid", "predicted_label"], rows)
        print(f"wrote {len(rows)} predicted answers to {out}")
    else:
        print(csv_text(rows), end="")
    return {}


def _cmd_synth(args):
    out = Path(args.out)
    spec = synthgen.load_generator_spec(args.spec)
    wrote = []
    if spec.n_samples > 0:
        store = synthgen.generate_corpus(spec)
        persist_store(store, out / "corpus")
        wrote.append(f"{len(store)} corpus samples")
    if spec.survey is not None:
        survey, questions = synthgen.generate_survey(spec)
        commonsense.save_survey_csv(survey, out / "survey.csv")
        items = tuple(f"questionnaire item {i}" for i in range(1, commonsense.N_ITEMS + 1))
        commonsense.save_catalog(commonsense.Catalog(items, (), tuple(questions)),
                                 out / "catalog.json")
        wrote.append(f"{survey.n} survey respondents")
    print("generated " + (", ".join(wrote) if wrote else "nothing (empty spec)"))
    return {"seed": spec.seed, "generator": synthgen.GENERATOR_NAME}


# --- parser ----------------------------------------------------------------------

def _add_binning_flags(p):
    p.add_argument("--lo", type=float, default=DEFAULT_BINNING.lo,
                   help="lower edge of the score range")
    p.add_argument("--hi", type=float, default=DEFAULT_BINNING.hi,
                   help="upper edge of the score range")
    p.add_argument("--bins", type=int, default=DEFAULT_BINNING.n_bins,
                   help="number of score bins")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="traitlex",
        description="Lexical trait estimation and questionnaire answer prediction.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"traitlex {__version__} "
                + " ".join(f"{k}-format={v}" for k, v in sorted(FORMAT_VERSIONS.items())),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="read raw JSONL records into a corpus store")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--policy", choices=sorted(SHIPPED_POLICIES), default="ingest-default")
    p.add_argument("--lexicon", help="adjective list file, one word per line")
    p.add_argument("--min-words", type=int, dest="min_words")
    p.add_argument("--max-words", type=int, dest="max_words")
    p.add_argument("--lang", dest="lang")
    p.add_argument("--min-adj-total", type=int, dest="min_adj_total",
                   help="drop adjectives rarer than this across the corpus")
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("distribution", help="histogram of a trait's scores")
    p.add_argument("--corpus", required=True)
    p.add_argument("--trait", required=True)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_distribution)

    p = sub.add_parser("pdf-build", help="estimate per-word densities from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--trait", required=True)
    p.add_argument("--out", required=True)
    _add_binning_flags(p)
    p.add_argument("--min-word-freq", type=int, default=300, dest="min_word_freq")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="additive smoothing for per-word bin counts")
    p.set_defaults(handler=_cmd_pdf_build)

    p = sub.add_parser("pdf-predict", help="predict trait labels for a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--policy", choices=sorted(SHIPPED_POLICIES), default="pdf-stage")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_pdf_predict)

    p = sub.add_parser("pdf-eval", help="score density-model predictions against truth")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--policy", choices=sorted(SHIPPED_POLICIES), default="pdf-stage")
    p.add_argument("--margin", type=float, default=evaluation.DEFAULT_MARGIN)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_pdf_eval)

    p = sub.add_parser("ml-train", help="train one learner on a dataset")
    p.add_argument("--data", help="dataset CSV (features plus class/score column)")
    p.add_argument("--corpus", help="corpus store to build the dataset from")
    p.add_argument("--trait")
    p.add_argument("--algorithm", required=True, choices=sorted(mlcore.ALGORITHMS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, help="neighbour count for knn")
    p.add_argument("--trees", type=int, help="tree count for the forests")
    p.add_argument("--min-feature-share", type=float, dest="min_feature_share",
                   help="drop features below this share of the total frequency")
    p.add_argument("--min-coverage", type=float, dest="min_coverage",
                   help="drop rows with non-zero entries in fewer than this "
                        "fraction of columns")
    p.add_argument("--out", required=True)
    _add_binning_flags(p)
    p.set_defaults(handler=_cmd_ml_train)

    p = sub.add_parser("ml-eval", help="evaluate a trained learner on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data")
    p.add_argument("--corpus")
    p.add_argument("--trait")
    p.add_argument("--margin", type=float, default=evaluation.DEFAULT_MARGIN)
    p.add_argument("--out", required=True)
    _add_binning_flags(p)
    p.set_defaults(handler=_cmd_ml_eval)

    p = sub.add_parser("cs-train", help="train answer models from a survey")
    p.add_argument("--survey", required=True)
    p.add_argument("--catalog", help="question catalog JSON (default: bundled)")
    p.add_argument("--algorithms", default="random_forest_clf",
                   help="comma separated algorithm names")
    p.add_argument("--k", type=int, default=10, help="cross-validation folds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-abs-r", type=float, default=commonsense.DEFAULT_MIN_ABS_R,
                   dest="min_abs_r")
    p.add_argument("--trees", type=int, default=100,
                   help="tree count for forest algorithms")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_cs_train)

    p = sub.add_parser("cs-predict", help="answer questions for one questionnaire")
    p.add_argument("--bank", required=True)
    p.add_argument("--answers-file", dest="answers_file",
                   help="file of 50 Likert values; stdin when omitted")
    p.add_argument("--out", help="output directory; stdout when omitted")
    p.set_defaults(handler=_cmd_cs_predict)

    p = sub.add_parser("synth", help="generate synthetic corpora and surveys")
    p.add_argument("--spec", required=True, help="generator spec JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_synth)

    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser `main` uses, built on first use.  Parsing leaves no state
    on it: each call gets a new Namespace, no flag has a mutable default,
    and help text is formatted (reading COLUMNS) when it is printed."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        resolved = args.handler(args)
        if args.out:
            _write_run_manifest(args, resolved)
        return 0
    except _UsageError as e:
        print(f"traitlex: {e}", file=sys.stderr)
        return 1
    except (TraitlexError, OSError) as e:
        print(f"traitlex: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
