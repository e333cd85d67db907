import argparse
import csv
import io
import json
import multiprocessing
import os
import pickle
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nested_trees import v1_payload, v2_payload, v4_payload, v5_checked_json
from traitlex import _util, cli, commonsense, corpus, mlcore, pdfmodel, synthgen
from traitlex._util import checksum, fmt_float, save_checked_json
from traitlex.binning import MAX_BINS, BinningScheme
from traitlex.cli import FORMAT_VERSIONS, build_parser, main
from traitlex.corpus import CorpusStore, TextSample, bundled_lexicon, load_store, persist_store
from traitlex.mlcore import Dataset, save_dataset_csv


def run(args):
    return main([str(a) for a in args])


def write_spec(path):
    vocab = synthgen.make_bin_vocab(4, 6, overlap_fraction=0.25, seed=11)
    spec = synthgen.GeneratorSpec(
        seed=11,
        n_samples=120,
        words_per_sample=(1200, 2400),
        vocab=vocab,
        binning=BinningScheme(lo=0.1, hi=0.9, n_bins=4),
        survey=synthgen.SurveySpec(
            n_respondents=80,
            questions=(
                synthgen.SurveyQuestionSpec(
                    id="ruled", n_labels=2,
                    rule=synthgen.SurveyRule(conditions=((7, 3),)),
                ),
            ),
        ),
    )
    synthgen.save_generator_spec(spec, path)
    return path


@pytest.fixture
def spec_file(tmp_path):
    return write_spec(tmp_path / "spec.json")


DROP = object()


class At:
    """An edit of one entry of a list field."""

    def __init__(self, index, value):
        self.index, self.value = index, value

    def __repr__(self):
        return f"[{self.index}]={self.value}"


def entry(record, name):
    """A field of an object, or the entry of a list given by its number or,
    in a bank's questions, by its question's id."""
    if not isinstance(record, list):
        return record[name]
    if name.isdigit():
        return record[int(name)]
    return next(e for e in record if e["question"]["id"] == name)


def resave_corrupted(path, field, value, out):
    """Copy a JSON file to `out` with one field (a dotted path, list entries
    by number or, in a bank, by question id) dropped or replaced, and signed
    as traitlex signs a file if the file has a checksum.  "ragged" shortens a
    nested list's first row and "short" drops a list's last entry."""
    payload = json.loads(path.read_text("utf-8"))
    signed = payload.pop("checksum", None) is not None
    *parents, key = field.split(".")
    record = payload
    for name in parents:
        record = entry(record, name)
    key = int(key) if isinstance(record, list) else key
    if value is DROP:
        del record[key]
    elif isinstance(value, At):
        record[key][value.index] = value.value
    elif value == "ragged":
        record[key][0] = record[key][0][:-1]
    elif value == "short":
        record[key] = record[key][:-1]
    else:
        record[key] = value
    if signed:
        save_checked_json(out, payload)
    else:
        out.write_text(json.dumps(payload), "utf-8")
    return out


def assert_refused(code, err, path, field):
    """Exit 2, with the file and the field's last name in the message."""
    assert code == 2
    name = [part for part in field.split(".") if not part.isdigit()][-1]
    assert str(path) in err and repr(name) in err


def case_ids(cases):
    return [f"{field}-{'missing' if value is DROP else value}" for field, value in cases]


def learner_case_ids(cases):
    return [f"{algorithm}-{i}" for (algorithm, _, _), i in
            zip(cases, case_ids([(field, value) for _, field, value in cases]))]


def read_csv(path):
    return path.read_text("utf-8").strip().splitlines()


# --- synth -------------------------------------------------------------------------

def test_synth_writes_corpus_survey_and_catalog(tmp_path, spec_file, capsys):
    out = tmp_path / "out"
    assert run(["synth", "--spec", spec_file, "--out", out]) == 0
    assert (out / "corpus" / "counts.npy").exists()
    assert not (out / "corpus" / "counts.json").exists()
    assert not (out / "corpus" / "texts.jsonl").exists()
    assert not (out / "corpus" / "samples.jsonl").exists()
    assert not (out / "corpus" / "adjectives.jsonl").exists()
    assert (out / "corpus" / "manifest.json").exists()
    assert (out / "survey.csv").exists()
    assert (out / "catalog.json").exists()
    manifest = json.loads((out / "run.json").read_text("utf-8"))
    assert manifest["command"] == "synth"
    assert manifest["arguments"]["seed"] == 11
    assert "generated" in capsys.readouterr().out


def test_synth_refuses_a_fractional_bin_count(tmp_path, spec_file, capsys):
    payload = json.loads(spec_file.read_text("utf-8"))
    payload["binning"]["n_bins"] = 4.7
    spec_file.write_text(json.dumps(payload), "utf-8")
    assert run(["synth", "--spec", spec_file, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert str(spec_file) in err and "'n_bins'" in err


SPEC_BAD_FIELDS = [
    ("seed", DROP), ("seed", "11"), ("n_samples", DROP), ("n_samples", 1.5),
    ("words_per_sample", [1200]), ("score_weights", DROP), ("score_weights", ["1"]),
    ("trait", 5), ("vocab", DROP), ("vocab", []), ("vocab.tables", 3),
    ("vocab.tables", [{"w": "x"}]), ("survey", 3), ("survey.n_respondents", DROP),
    ("survey.questions", DROP), ("survey.questions", [1]), ("survey.questions.0.id", DROP),
    ("survey.questions.0.n_labels", "2"), ("survey.questions.0.rule", 7),
    ("survey.questions.0.rule.conditions", DROP),
    ("survey.questions.0.rule.conditions", [[7]]),
    ("survey.questions.0.rule.label_if_true", 1.0),
    ("binning.lo", float("-inf")), ("binning.hi", float("inf")),
]


@pytest.mark.parametrize("field,value", SPEC_BAD_FIELDS, ids=case_ids(SPEC_BAD_FIELDS))
def test_malformed_spec_is_a_data_error(tmp_path, spec_file, capsys, field, value):
    path = resave_corrupted(spec_file, field, value, tmp_path / "bad.json")
    code = run(["synth", "--spec", path, "--out", tmp_path / "out"])
    assert_refused(code, capsys.readouterr().err, path, field)


# Each table load_generator_spec checks a level of a spec by, with the path
# of that level's object in the spec_file payload and how a message names it
# after the file; "vocab-auto" replaces the vocab tables with the auto
# parameters first.
SPEC_TABLES = {
    "top": (synthgen._SPEC_FIELDS, (), ""),
    "vocab-tables": (synthgen._TABLE_FIELDS, ("vocab",), ":vocab"),
    "vocab-auto": (synthgen._AUTO_VOCAB_FIELDS, ("vocab",), ":vocab"),
    "survey": (synthgen._SURVEY_FIELDS, ("survey",), ":survey"),
    "question": (synthgen._QUESTION_FIELDS, ("survey", "questions", 0),
                 ":survey.questions[0]"),
    "rule": (synthgen._RULE_FIELDS, ("survey", "questions", 0, "rule"),
             ":survey.questions[0].rule"),
}
AUTO_VOCAB = {"words_per_bin": 3, "overlap_fraction": 0.0}


def misspelt(payload, path, field, table):
    """`payload` with `field`, at the object `path` names, also under its
    name plus "s", as "surveys" or "rules"; a field that may be left out
    loses its right name."""
    record = payload
    for key in path:
        record = record[key]
    record[field + "s"] = record.pop(field) if len(table[field]) == 3 else record[field]
    return payload


@pytest.mark.parametrize("level", SPEC_TABLES)
def test_a_spec_field_outside_its_table_is_a_data_error(tmp_path, spec_file, capsys, level):
    """Every field of every spec table, misspelt, ends in exit 2 naming the
    file and the key; a misspelt field that has a default is not read as
    left out."""
    table, path, where = SPEC_TABLES[level]
    source = json.loads(spec_file.read_text("utf-8"))
    if level == "vocab-auto":
        source["vocab"] = AUTO_VOCAB
    assert run(["synth", "--spec", write_json(tmp_path / "ok.json", source),
                "--out", tmp_path / "ok"]) == 0
    for field in table:
        spec = write_json(tmp_path / f"{field}.json",
                          misspelt(json.loads(json.dumps(source)), path, field, table))
        capsys.readouterr()
        assert run(["synth", "--spec", spec, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err == \
            f"traitlex: {spec}{where}: unknown field {field + 's'!r}\n"


def test_a_spec_vocab_with_tables_and_auto_keys_is_a_data_error(tmp_path, spec_file, capsys):
    payload = json.loads(spec_file.read_text("utf-8"))
    payload["vocab"].update(AUTO_VOCAB)
    spec = write_json(tmp_path / "both.json", payload)
    assert run(["synth", "--spec", spec, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err == f"traitlex: {spec}:vocab: unknown field 'words_per_bin'\n"


def write_json(path, payload):
    path.write_text(json.dumps(payload), "utf-8")
    return path


def test_synth_rerun_is_byte_identical(tmp_path, spec_file):
    out = tmp_path / "out"
    run(["synth", "--spec", spec_file, "--out", out])
    first = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    run(["synth", "--spec", spec_file, "--out", out])
    second = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert first == second


# --- pdf pipeline ------------------------------------------------------------------

@pytest.fixture
def built(tmp_path, spec_file):
    synth_out = tmp_path / "synth"
    run(["synth", "--spec", spec_file, "--out", synth_out])
    model_out = tmp_path / "model"
    code = run([
        "pdf-build", "--corpus", synth_out / "corpus", "--trait", "N",
        "--bins", 4, "--min-word-freq", 0, "--out", model_out,
    ])
    assert code == 0
    return synth_out, model_out


def test_pdf_build_and_eval(tmp_path, built, capsys):
    synth_out, model_out = built
    eval_out = tmp_path / "eval"
    code = run([
        "pdf-eval", "--model", model_out / "model.json",
        "--corpus", synth_out / "corpus", "--policy", "none",
        "--out", eval_out,
    ])
    assert code == 0
    header, row = read_csv(eval_out / "report.csv")
    assert header == "n,mae,rmse,marginal_accuracy,margin"
    n, mae, rmse, acc, margin = row.split(",")
    assert int(n) == 120
    assert float(mae) <= 0.06
    assert float(acc) >= 0.9
    curve = read_csv(eval_out / "curve.csv")
    assert curve[0] == "threshold,mae,n_retained"
    assert len(curve) == 22  # header + thresholds 0.0 .. 10.0 by 0.5


@pytest.mark.parametrize("margin", ["nan", "inf"])
def test_pdf_eval_refuses_a_margin_that_is_not_finite(tmp_path, built, capsys, margin):
    """NaN would count no prediction as correct and inf every one."""
    synth_out, model_out = built
    capsys.readouterr()
    code = run(["pdf-eval", "--model", model_out / "model.json", "--corpus",
                synth_out / "corpus", "--margin", margin, "--out", tmp_path / "eval"])
    assert code == 2
    assert f"margin must be finite and non-negative, got {float(margin)!r}" in \
        capsys.readouterr().err
    assert not (tmp_path / "eval" / "report.csv").exists()


def test_pdf_build_refuses_a_negative_word_floor(tmp_path, built, capsys):
    synth_out, _ = built
    capsys.readouterr()
    code = run(["pdf-build", "--corpus", synth_out / "corpus", "--trait", "N", "--bins", 4,
                "--min-word-freq", -5, "--out", tmp_path / "m"])
    assert code == 2
    assert "min_word_freq must be non-negative, got -5" in capsys.readouterr().err
    assert not (tmp_path / "m" / "model.json").exists()


def test_pdf_build_names_a_trait_no_sample_is_scored_for(tmp_path, built, capsys):
    synth_out, _ = built
    capsys.readouterr()
    code = run(["pdf-build", "--corpus", synth_out / "corpus", "--trait", "O",
                "--out", tmp_path / "m"])
    assert code == 2
    assert capsys.readouterr().err == "traitlex: no samples scored for trait 'O'\n"


@pytest.mark.parametrize("command", ["pdf-build", "ml-train"])
@pytest.mark.parametrize("edges,field", [
    (["--lo=-inf"], "field 'lo'"), (["--hi=inf"], "field 'hi'"),
    (["--lo=-1e308", "--hi=1e308"], "width"),
])
def test_binning_edges_must_be_finite(tmp_path, built, capsys, command, edges, field):
    synth_out, _ = built
    argv = [command, "--corpus", synth_out / "corpus", "--trait", "N", *edges,
            "--out", tmp_path / "m"]
    if command == "ml-train":
        argv += ["--algorithm", "knn"]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"binning {field}" in err and "must be finite" in err
    assert not (tmp_path / "m").exists()


# Bin counts past binning.MAX_BINS: one too large to turn into a float and
# the first one past the cap.  Neither may reach the labels tuple.
BIN_COUNTS_PAST_THE_CAP = {"10**400": 10**400, "MAX_BINS+1": MAX_BINS + 1}


@pytest.mark.parametrize("count", BIN_COUNTS_PAST_THE_CAP)
@pytest.mark.parametrize("source", ["pdf-build", "ml-train", "ml-eval", "distribution",
                                    "model", "spec"])
def test_a_bin_count_past_the_cap_is_a_data_error(tmp_path, built, spec_file, capsys,
                                                  source, count):
    synth_out, model_out = built
    n_bins = BIN_COUNTS_PAST_THE_CAP[count]
    corpus = ["--corpus", synth_out / "corpus", "--trait", "N"]
    if source == "model":
        path = resave_corrupted(model_out / "model.json", "binning.n_bins", n_bins,
                                tmp_path / "model.json")
        argv = ["pdf-eval", "--model", path, "--corpus", synth_out / "corpus"]
    elif source == "spec":
        path = resave_corrupted(spec_file, "binning.n_bins", n_bins, tmp_path / "bad.json")
        argv = ["synth", "--spec", path]
    else:
        argv = [source, *corpus, "--bins", n_bins]
        if source == "ml-eval":
            assert run(["ml-train", *corpus, "--algorithm", "knn", "--bins", 4,
                        "--out", tmp_path / "knn"]) == 0
            argv += ["--model", tmp_path / "knn" / "model.json"]
        if source == "ml-train":
            argv += ["--algorithm", "knn"]
    capsys.readouterr()
    assert run(argv + ["--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert f"binning field 'n_bins' must be at most {MAX_BINS}" in err
    if source in ("model", "spec"):
        assert f"{path}: field 'binning' is invalid" in err
    assert not (tmp_path / "out").exists()


def test_pdf_predict_writes_rows(tmp_path, built):
    synth_out, model_out = built
    pred_out = tmp_path / "pred"
    code = run([
        "pdf-predict", "--model", model_out / "model.json",
        "--corpus", synth_out / "corpus", "--policy", "none",
        "--out", pred_out,
    ])
    assert code == 0
    rows = read_csv(pred_out / "predictions.csv")
    assert rows[0] == "sample_id,label,confidence,words_used,truth"
    assert len(rows) == 121


MOODS = ("happy", "calm", "angry", "brave", "shy", "quiet", "loud", "kind", "cruel",
         "warm", "anxious", "gentle", "proud", "lazy", "eager", "bold", "timid")


def test_pdf_predict_scores_a_text_like_library_predict(tmp_path):
    """A raw text gives the same label and confidence bytes through ingest
    and pdf-predict as through TextSample.from_text and predict."""
    rng = np.random.default_rng(7)
    records = [{"id": f"t{i:02d}", "text": " ".join(rng.choice(MOODS + ("the",) * 5, size=30)),
                "lang": "en", "scores": {"N": round(rng.uniform(0.1, 0.9), 3)}}
               for i in range(40)]
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    assert run(["ingest", "--input", raw, "--out", tmp_path / "store", "--policy", "none"]) == 0
    assert run(["pdf-build", "--corpus", tmp_path / "store", "--trait", "N", "--bins", 4,
                "--min-word-freq", 0, "--alpha", 0.5, "--out", tmp_path / "m"]) == 0
    assert run(["pdf-predict", "--model", tmp_path / "m" / "model.json", "--corpus",
                tmp_path / "store", "--policy", "none", "--out", tmp_path / "p"]) == 0
    model = pdfmodel.load_model(tmp_path / "m" / "model.json")
    expected = ["sample_id,label,confidence,words_used,truth"]
    for r in records:
        p = pdfmodel.predict(model, TextSample.from_text(r["id"], r["text"], bundled_lexicon()))
        expected.append(",".join([r["id"], fmt_float(p.label), fmt_float(p.confidence),
                                  str(p.words_used), fmt_float(r["scores"]["N"])]))
    assert read_csv(tmp_path / "p" / "predictions.csv") == expected


def test_pdf_predict_policy_skips(tmp_path, built):
    synth_out, model_out = built
    pred_out = tmp_path / "pred"
    # pdf-stage needs >1000 words; the fixture draws 1200..2400, so none skip
    code = run([
        "pdf-predict", "--model", model_out / "model.json",
        "--corpus", synth_out / "corpus", "--out", pred_out,
    ])
    assert code == 0
    assert len(read_csv(pred_out / "skipped.csv")) == 1  # header only


def test_distribution_percentages(tmp_path, built):
    synth_out, _ = built
    out = tmp_path / "dist"
    code = run([
        "distribution", "--corpus", synth_out / "corpus", "--trait", "N",
        "--out", out,
    ])
    assert code == 0
    rows = read_csv(out / "distribution.csv")
    assert rows[0] == "lo,hi,count,percent"
    counts = [int(r.split(",")[2]) for r in rows[1:]]
    assert sum(counts) == 120


# --- ingest ------------------------------------------------------------------------

def test_ingest_and_rejections(tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    body = " ".join(["a happy big day for the dog and the cat went on"] * 60)
    records = [
        {"id": "long1", "text": body, "lang": "en"},
        {"id": "long2", "text": body, "lang": "en", "scores": {"N": 0.4}},
        {"id": "short", "text": "tiny", "lang": "en"},
    ]
    raw.write_text("\n".join(json.dumps(r) for r in records) + "\n", "utf-8")
    out = tmp_path / "store"
    assert run(["ingest", "--input", raw, "--out", out]) == 0
    rows = read_csv(out / "rejections.csv")
    assert rows[1] == "short,min_words"
    assert "2 of 3" in capsys.readouterr().out


@pytest.mark.parametrize("score", [True, False])
def test_ingest_refuses_a_boolean_score(tmp_path, capsys, score):
    raw = tmp_path / "raw.jsonl"
    body = " ".join(["a happy big day for the dog and the cat went on"] * 60)
    records = [{"id": "a", "text": body, "scores": {"N": 0.4}},
               {"id": "b", "text": body, "scores": {"N": score}}]
    raw.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    assert run(["ingest", "--input", raw, "--out", tmp_path / "store"]) == 2
    assert f"{raw} line 2: score for 'N' is not a number" in capsys.readouterr().err


def test_a_lexicon_file_name_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    """The lexicon takes its name from its file's, and a byte that is not
    UTF-8 there has no form in the UTF-8 store manifest."""
    lexicon = tmp_path / os.fsdecode(b"lex\xff.txt")
    lexicon.write_text("happy\nbig\n", "utf-8")
    raw = tmp_path / "raw.jsonl"
    raw.write_text(json.dumps({"id": "a", "text": "a happy big day"}) + "\n", "utf-8")
    out = tmp_path / "store"
    assert run(["ingest", "--input", raw, "--lexicon", lexicon, "--out", out]) == 2
    assert capsys.readouterr().err == (f"traitlex: {out / 'manifest.json'}: a string holds "
                                       "an unpaired surrogate\n")
    assert list(out.glob("*")) == []  # the manifest's bytes are refused before any write


def test_ingest_policy_overrides(tmp_path):
    raw = tmp_path / "raw.jsonl"
    body = " ".join(["the happy dog sat on a big mat all day"] * 10)  # 100 words
    raw.write_text(json.dumps({"id": "a", "text": body, "lang": "en"}) + "\n", "utf-8")
    out = tmp_path / "store"
    assert run(["ingest", "--input", raw, "--out", out, "--min-words", 50]) == 0
    manifest = json.loads((out / "run.json").read_text("utf-8"))
    assert manifest["arguments"]["policy"]["min_words"] == 50


# --- ml pipeline --------------------------------------------------------------------

def write_dataset(path):
    gen = np.random.Generator(np.random.PCG64(8))
    X = gen.normal(0, 0.3, (80, 4))
    y = gen.integers(0, 2, 80)
    X[:, 0] += 3.0 * y
    ds = Dataset(feature_names=("a", "b", "c", "d"), X=X,
                 y_class=y, y_score=(y + 0.5) / 2)
    save_dataset_csv(ds, path)
    return path


@pytest.fixture
def dataset_csv(tmp_path):
    return write_dataset(tmp_path / "data.csv")


def test_ml_train_and_eval_classifier(tmp_path, dataset_csv, capsys):
    model_out = tmp_path / "m"
    code = run([
        "ml-train", "--data", dataset_csv, "--algorithm", "knn",
        "--k", 3, "--out", model_out,
    ])
    assert code == 0
    manifest = json.loads((model_out / "run.json").read_text("utf-8"))
    assert manifest["arguments"]["hyperparams"]["k"] == 3
    eval_out = tmp_path / "e"
    code = run([
        "ml-eval", "--model", model_out / "model.json",
        "--data", dataset_csv, "--out", eval_out,
    ])
    assert code == 0
    header, row = read_csv(eval_out / "report.csv")
    assert header == "n,accuracy"
    assert float(row.split(",")[1]) >= 0.9


NAN, INF = float("nan"), float("inf")

# Edits of a knn model on two classes whose params are valid JSON but do not
# fit the model: labels outside the classes, arrays of the wrong shape, a k
# that is no integer in [1, rows], a NaN or infinite feature value, and a
# stale k in params, where ml-model format 4 kept it.
KNN_BAD_PARAMS = [
    ("params.y", At(0, 2)), ("params.y", At(0, -1)), ("params.y", "short"),
    ("params.X", [[1.0]]), ("params.X", [1.0, 2.0]), ("hyperparams.k", 0),
    ("hyperparams.k", 10**6), ("hyperparams.k", True),
    ("params.X.0", At(0, NAN)), ("params.X.1", At(1, INF)), ("params.k", 1),
]

ML_BAD_FIELDS = [
    ("algorithm", DROP), ("algorithm", "boosting"),
    ("feature_names", DROP), ("feature_names", "a,b,c,d"),
    ("classes", DROP), ("classes", None), ("classes", [0, "1"]),
    ("seed", DROP), ("seed", 1.5), ("seed", True),
    ("hyperparams", DROP), ("hyperparams", [3]), ("params", DROP), ("params", [1, 2]),
    ("params.X", DROP), ("params.X", "ragged"), ("params.X", [["a"]]), ("params.y", [0.5]),
    ("hyperparams.k", DROP), ("hyperparams.k", "3"), ("hyperparams.k", 81),  # 80 rows
] + KNN_BAD_PARAMS


@pytest.mark.parametrize("field,value", ML_BAD_FIELDS, ids=case_ids(ML_BAD_FIELDS))
def test_malformed_ml_model_is_a_data_error(tmp_path, dataset_csv, capsys, field, value):
    assert run(["ml-train", "--data", dataset_csv, "--algorithm", "knn",
                "--out", tmp_path / "m"]) == 0
    path = resave_corrupted(tmp_path / "m" / "model.json", field, value, tmp_path / "bad.json")
    capsys.readouterr()
    code = run(["ml-eval", "--model", path, "--data", dataset_csv, "--out", tmp_path / "e"])
    assert_refused(code, capsys.readouterr().err, path, field)


def stale_fields(algorithm):
    """A params field and a hyperparameter that other learners define and
    `algorithm` does not, each added with the value 1."""
    own = mlcore.ALGORITHMS[algorithm]
    others = [learner for name, learner in mlcore.ALGORITHMS.items() if name != algorithm]
    param = min({name for learner in others for name in learner.params} - set(own.params))
    hyper = min({name for learner in others for name in learner.defaults} - set(own.defaults))
    return [("params." + param, 1), ("hyperparams." + hyper, 1)]


STALE_FIELDS = [(algorithm, field, value) for algorithm in sorted(mlcore.ALGORITHMS)
                for field, value in stale_fields(algorithm)]


# The same kind of edits for the other non-tree learners, on two classes,
# and weights that are NaN or infinite.
SHAPE_BAD_PARAMS = [
    ("linear_svm", "params.W", [[1.0]]), ("linear_svm", "params.W", "short"),
    ("linear_svm", "params.b", "short"), ("linear_svm", "params.b", [[0.0, 0.0]]),
    ("linear_svm", "classes", []),
    ("perceptron", "params.W", [1.0, 2.0]), ("perceptron", "params.b", [0.0, 0.0, 0.0]),
    ("mlp", "params.W1", "short"), ("mlp", "params.b1", "short"),
    ("mlp", "params.W2", "short"), ("mlp", "params.b2", [0.0]),
    ("linear_svm", "params.W.0", At(0, NAN)), ("linear_svm", "params.b", At(1, -INF)),
    ("perceptron", "params.W.1", At(0, INF)), ("mlp", "params.W1.0", At(0, NAN)),
    ("mlp", "params.b2", At(0, INF)),
]
ML_SHAPE_BAD_PARAMS = SHAPE_BAD_PARAMS + [
    ("linear_regression", "params.coef", "short"),
    ("linear_regression", "params.coef", [[1.0, 2.0, 3.0, 4.0]]),
    ("linear_regression", "params.coef", At(0, NAN)),
    ("linear_regression", "params.intercept", NAN),
    ("linear_regression", "params.intercept", INF),
] + STALE_FIELDS


@pytest.mark.parametrize("algorithm,field,value", ML_SHAPE_BAD_PARAMS,
                         ids=learner_case_ids(ML_SHAPE_BAD_PARAMS))
def test_misshapen_params_are_a_data_error(tmp_path, dataset_csv, capsys, algorithm, field,
                                           value):
    trees = ["--trees", 3] if algorithm.startswith("random_forest") else []
    assert run(["ml-train", "--data", dataset_csv, "--algorithm", algorithm, *trees,
                "--out", tmp_path / "m"]) == 0
    path = resave_corrupted(tmp_path / "m" / "model.json", field, value, tmp_path / "bad.json")
    capsys.readouterr()
    code = run(["ml-eval", "--model", path, "--data", dataset_csv, "--out", tmp_path / "e"])
    assert_refused(code, capsys.readouterr().err, path, field)


# Edits of a decision tree whose root, node 0, splits into two leaves, nodes 1
# and 2, as it does on dataset_csv and in tree_bank.  A left child at node 2
# would put the right one outside the table.
TREE_BAD_FIELDS = [
    ("params.feature", DROP), ("params.feature", [0.5]), ("params.threshold", DROP),
    ("params.threshold", "t"), ("params.left", DROP), ("params.left", [True]),
    ("params.value", DROP), ("params.value", 1), ("params.feature", []),
    ("params.threshold", "short"), ("params.left", "short"),
    ("params.value", "short"), ("params.value", [[0], [1], [2]]),
    ("params.left", At(0, 0)), ("params.left", At(0, 2)), ("params.left", At(0, 3)),
    ("params.feature", At(1, -2)), ("params.value", At(2, 2)),
    ("params.value", At(2, -1)), ("params.value", At(2, 0.5)), ("params.value", At(2, "1")),
    ("params.threshold", At(0, NAN)), ("params.threshold", At(0, -INF)),
]


ML_TREE_BAD_FIELDS = TREE_BAD_FIELDS + [("params.feature", At(0, 4))]  # 4 features


@pytest.mark.parametrize("field,value", ML_TREE_BAD_FIELDS, ids=case_ids(ML_TREE_BAD_FIELDS))
def test_malformed_tree_is_a_data_error(tmp_path, dataset_csv, capsys, field, value):
    assert run(["ml-train", "--data", dataset_csv, "--algorithm", "decision_tree",
                "--out", tmp_path / "m"]) == 0
    model = tmp_path / "m" / "model.json"
    assert json.loads(model.read_text("utf-8"))["params"]["feature"] == [0, -1, -1]
    path = resave_corrupted(model, field, value, tmp_path / "bad.json")
    capsys.readouterr()
    code = run(["ml-eval", "--model", path, "--data", dataset_csv, "--out", tmp_path / "e"])
    assert_refused(code, capsys.readouterr().err, path, field)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "1"])
def test_regression_forest_leaf_must_be_finite(tmp_path, dataset_csv, capsys, value):
    assert run(["ml-train", "--data", dataset_csv, "--algorithm", "random_forest_reg",
                "--trees", 2, "--out", tmp_path / "m"]) == 0
    # the last node of a table is always a leaf
    path = resave_corrupted(tmp_path / "m" / "model.json", "params.value", At(-1, value),
                            tmp_path / "bad.json")
    capsys.readouterr()
    code = run(["ml-eval", "--model", path, "--data", dataset_csv, "--out", tmp_path / "e"])
    assert_refused(code, capsys.readouterr().err, path, "value")


def test_format_1_model_is_refused(tmp_path, dataset_csv, capsys):
    assert run(["ml-train", "--data", dataset_csv, "--algorithm", "random_forest_clf",
                "--trees", 3, "--out", tmp_path / "m"]) == 0
    payload = json.loads((tmp_path / "m" / "model.json").read_text("utf-8"))
    del payload["checksum"]
    save_checked_json(tmp_path / "v1.json", v1_payload(payload))
    capsys.readouterr()
    code = run(["ml-eval", "--model", tmp_path / "v1.json", "--data", dataset_csv,
                "--out", tmp_path / "e"])
    assert code == 2
    assert "rerun ml-train to write a version 6 file" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm,flags", [("knn", []), ("random_forest_reg", ["--trees", 3])],
                         ids=["knn", "random_forest_reg"])
def test_format_2_model_is_refused(tmp_path, dataset_csv, capsys, algorithm, flags):
    assert run(["ml-train", "--data", dataset_csv, "--algorithm", algorithm, *flags,
                "--out", tmp_path / "m"]) == 0
    payload = json.loads((tmp_path / "m" / "model.json").read_text("utf-8"))
    del payload["checksum"]
    save_checked_json(tmp_path / "v2.json", v2_payload(payload))
    capsys.readouterr()
    code = run(["ml-eval", "--model", tmp_path / "v2.json", "--data", dataset_csv,
                "--out", tmp_path / "e"])
    assert code == 2
    assert "rerun ml-train to write a version 6 file" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm,flags", [("knn", []), ("random_forest_clf", ["--trees", 3])],
                         ids=["knn", "random_forest_clf"])
def test_format_4_model_is_refused(tmp_path, dataset_csv, capsys, algorithm, flags):
    # the version 4 layout: a tree table's roots and knn's k in params
    assert run(["ml-train", "--data", dataset_csv, "--algorithm", algorithm, *flags,
                "--out", tmp_path / "m"]) == 0
    payload = json.loads((tmp_path / "m" / "model.json").read_text("utf-8"))
    del payload["checksum"]
    save_checked_json(tmp_path / "v4.json", v4_payload(payload))
    capsys.readouterr()
    code = run(["ml-eval", "--model", tmp_path / "v4.json", "--data", dataset_csv,
                "--out", tmp_path / "e"])
    assert code == 2
    assert "rerun ml-train to write a version 6 file" in capsys.readouterr().err


def test_ml_train_regressor(tmp_path, dataset_csv):
    model_out = tmp_path / "m"
    code = run([
        "ml-train", "--data", dataset_csv, "--algorithm", "linear_regression",
        "--out", model_out,
    ])
    assert code == 0
    eval_out = tmp_path / "e"
    code = run([
        "ml-eval", "--model", model_out / "model.json",
        "--data", dataset_csv, "--out", eval_out,
    ])
    assert code == 0
    header, _ = read_csv(eval_out / "report.csv")
    assert header == "n,mae,rmse,marginal_accuracy,margin"


def test_ml_train_from_corpus(tmp_path, built):
    synth_out, _ = built
    model_out = tmp_path / "m"
    code = run([
        "ml-train", "--corpus", synth_out / "corpus", "--trait", "N",
        "--algorithm", "decision_tree", "--bins", 4, "--out", model_out,
    ])
    assert code == 0


def test_ml_eval_scores_another_store_on_the_models_features(tmp_path, built, capsys):
    synth_out, _ = built
    store = load_store(synth_out / "corpus")
    train, held_out = store.samples[:80], store.samples[80:]
    # the held-out store lacks one of the model's words and holds one it lacks
    dropped = store.vocab[0]
    held_out = [replace(s, adj_freqs={w: c for w, c in s.adj_freqs.items() if w != dropped})
                for s in held_out]
    held_out[0] = replace(held_out[0], adj_freqs={**held_out[0].adj_freqs, "zany": 3})
    for name, samples in (("train", train), ("held", held_out)):
        persist_store(CorpusStore.from_samples(samples, store.lexicon_name,
                                               store.lexicon_version), tmp_path / name)
    model_out = tmp_path / "m"
    assert run(["ml-train", "--corpus", tmp_path / "train", "--trait", "N",
                "--algorithm", "knn", "--bins", 4, "--out", model_out]) == 0
    capsys.readouterr()
    code = run(["ml-eval", "--model", model_out / "model.json", "--corpus",
                tmp_path / "held", "--trait", "N", "--bins", 4, "--out", tmp_path / "e"])
    assert code == 0, capsys.readouterr().err
    n, accuracy = read_csv(tmp_path / "e" / "report.csv")[1].split(",")
    assert int(n) == 40
    assert float(accuracy) >= 0.5


def test_ml_train_needs_a_source(tmp_path, capsys):
    code = run(["ml-train", "--algorithm", "knn", "--out", tmp_path / "m"])
    assert code == 1
    assert "either --data or both" in capsys.readouterr().err


@pytest.mark.parametrize("flags,share,coverage", [
    (["--min-feature-share", 0.04], 0.04, None),
    (["--min-feature-share", 0.04, "--min-coverage", 0.5], 0.04, 0.5),
], ids=["min-feature-share", "min-coverage"])
def test_ml_train_selects_like_the_library(tmp_path, built, capsys, flags, share, coverage):
    """ml-train keeps the features and rows that select_features_by_frequency
    and then filter_datapoints_by_coverage keep, and records both values."""
    synth_out, _ = built
    ds = mlcore.corpus_to_dataset(load_store(synth_out / "corpus"), "N",
                                  binning=BinningScheme(0.1, 0.9, 4))
    ds = mlcore.select_features_by_frequency(ds, share)
    if coverage is not None:
        ds = mlcore.filter_datapoints_by_coverage(ds, coverage)
    assert ds.n_features == 10 and ds.n == (120 if coverage is None else 64)
    capsys.readouterr()
    assert run(["ml-train", "--corpus", synth_out / "corpus", "--trait", "N", "--bins", 4,
                "--algorithm", "knn", "--k", 3, *flags, "--out", tmp_path / "m"]) == 0
    out = capsys.readouterr().out
    assert out == f"trained knn on {ds.n} rows x {ds.n_features} features\n"
    model = mlcore.load_trained_model(tmp_path / "m" / "model.json")
    assert model.feature_names == ds.feature_names
    arguments = json.loads((tmp_path / "m" / "run.json").read_text("utf-8"))["arguments"]
    assert (arguments["min_feature_share"], arguments["min_coverage"]) == (share, coverage)


# --- input that is not UTF-8 ----------------------------------------------------------

@pytest.mark.parametrize("command", ["ingest", "cs-train", "ml-train", "lexicon", "answers"])
def test_input_that_is_not_utf8_is_a_data_error(tmp_path, spec_file, capsys, request, command):
    if command == "ingest":
        # the texts hold "é", which is UTF-8 and no fault
        body = " ".join(["a happy big day at the café and the cat went on"] * 60)
        path = tmp_path / "raw.jsonl"
        path.write_text("".join(json.dumps({"id": f"t{i}", "text": body}, ensure_ascii=False)
                                + "\n" for i in range(4)), "utf-8")
        argv = ["ingest", "--input", path]
    elif command == "cs-train":
        run(["synth", "--spec", spec_file, "--out", tmp_path / "synth"])
        path = tmp_path / "synth" / "survey.csv"
        argv = ["cs-train", "--survey", path, "--catalog", tmp_path / "synth" / "catalog.json"]
    elif command == "ml-train":
        path = write_dataset(tmp_path / "data.csv")
        argv = ["ml-train", "--data", path, "--algorithm", "knn"]
    elif command == "lexicon":
        path = tmp_path / "lexicon.txt"
        path.write_text("happy\nbig\nsad\nsmall\n", "utf-8")
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps({"id": "t0", "text": "a happy big day"}) + "\n", "utf-8")
        argv = ["ingest", "--input", raw, "--lexicon", path]
    else:
        path = tmp_path / "answers.txt"
        path.write_text("5\n" * 50, "utf-8")
        argv = ["cs-predict", "--bank", request.getfixturevalue("knn_bank"),
                "--answers-file", path]
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(lines[:2] + [b"\xff" + lines[2]] + lines[3:]))
    capsys.readouterr()
    assert run(argv + ["--out", tmp_path / "o"]) == 2
    assert f"{path} line 3: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cs-train", "ml-train"])
def test_a_csv_field_past_the_reader_limit_is_a_data_error(tmp_path, spec_file, capsys,
                                                           command):
    """csv.reader refuses a field over 131072 characters by default."""
    if command == "cs-train":
        run(["synth", "--spec", spec_file, "--out", tmp_path / "synth"])
        path = tmp_path / "synth" / "survey.csv"
        argv = ["cs-train", "--survey", path, "--catalog", tmp_path / "synth" / "catalog.json"]
    else:
        path = write_dataset(tmp_path / "data.csv")
        argv = ["ml-train", "--data", path, "--algorithm", "knn"]
    lines = path.read_text("utf-8").split("\n")
    lines[2] = "x" * 131073 + lines[2]
    path.write_text("\n".join(lines), "utf-8")
    capsys.readouterr()
    assert run(argv + ["--out", tmp_path / "o"]) == 2
    assert f"{path} line 3: field larger than field limit (131072)" in capsys.readouterr().err


# --- counts beyond int64 ----------------------------------------------------------------

def edit_manifest(store, edit):
    """Re-sign a store's manifest with `edit` applied to its payload; the
    manifest's path."""
    path = store / "manifest.json"
    payload = json.loads(path.read_text("utf-8"))
    del payload["checksum"]
    edit(payload)
    save_checked_json(path, payload)
    return path


def sign_manifest(path, text: str):
    """Write `text`, a manifest payload's JSON that save_checked_json could
    not write, behind the checksum that function would give it; the path."""
    body = text[1:].encode("utf-8") + b"\n"
    path.write_bytes(b'{"checksum":"%s",' % checksum(body).encode() + body)
    return path


NPY_COLUMNS = ("word_counts", "lengths", "indices", "counts")


def npy_columns(store):
    """A store's counts.npy vector cut into its columns, writable copies."""
    vector = np.load(store / "counts.npy", allow_pickle=False)
    n = len(json.loads((store / "manifest.json").read_text("utf-8"))["ids"])
    total = int(vector[n:2 * n].sum())
    return dict(zip(NPY_COLUMNS, np.split(vector.copy(), [n, 2 * n, 2 * n + total])))


def npy_bytes(array, **kwargs):
    """The bytes np.save writes for `array`."""
    buffer = io.BytesIO()
    np.save(buffer, array, **kwargs)
    return buffer.getvalue()


def joined(columns):
    return np.concatenate([columns[name] for name in NPY_COLUMNS])


def edit_npy(store, edit):
    """Rewrite a store's counts.npy as the bytes `edit` returns given its
    columns or, if it returns none, as the columns it edited in place, with
    the manifest's SHA-256 of it recomputed to match; the file's path."""
    columns = npy_columns(store)
    data = edit(columns)
    data = data if isinstance(data, bytes) else npy_bytes(joined(columns))
    (store / "counts.npy").write_bytes(data)
    edit_manifest(store, lambda m: m.update(counts_npy_sha256=checksum(data)))
    return store / "counts.npy"


def npy_holding(columns, name, at, value, dtype):
    """counts.npy's bytes with entry `at` of column `name` set to `value`, in
    an array of `dtype` (pickled if that is object)."""
    start = sum(len(columns[c]) for c in NPY_COLUMNS[:NPY_COLUMNS.index(name)])
    vector = joined(columns).astype(dtype)
    vector[start:start + len(columns[name])][at] = value
    return npy_bytes(vector, allow_pickle=True)


def set_store_counts(store, count, dtype):
    """Set every adjective count of a store to `count`, in a counts.npy of
    `dtype`, with the manifest's counts_npy_sha256 recomputed to match."""
    edit_npy(store, lambda c: npy_holding(c, "counts", slice(None), count, dtype))


@pytest.mark.parametrize("command,count,dtype", [
    ("pdf-build", 10**400, object), ("pdf-eval", 2**63, "<u8"),
    ("pdf-build", 2**62, "<i8"),  # fits int64, but the per-bin sums of 120 samples do not
], ids=["build-10**400", "eval-2**63", "build-2**62"])
def test_counts_beyond_int64_are_a_data_error(tmp_path, built, capsys, command, count, dtype):
    """A count past int64 needs another dtype than counts.npy's int64."""
    synth_out, model_out = built
    store = tmp_path / "big"
    shutil.copytree(synth_out / "corpus", store)
    set_store_counts(store, count, dtype)
    if command == "pdf-build":
        argv = ["pdf-build", "--corpus", store, "--trait", "N", "--bins", 4,
                "--min-word-freq", 0]
    else:
        argv = ["pdf-eval", "--model", model_out / "model.json", "--corpus", store]
    capsys.readouterr()
    assert run(argv + ["--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    if count < 2**63:
        assert "traitlex: word '" in err and "its count in one bin" in err
        assert err.endswith("reaches 2**63\n")
    else:
        assert f"{store / 'counts.npy'}: {NOT_I8}1-D, C-order {np.dtype(dtype).str!r} " \
               "array\n" in err


# --- lone surrogates -----------------------------------------------------------------

@pytest.mark.parametrize("field", ["text", "id", "scores", "label", "stored-id",
                                   "stored-adj_freqs"])
def test_lone_surrogate_is_a_data_error(tmp_path, spec_file, capsys, envelope_files, field):
    """Half a surrogate pair, written as a JSON escape in either case, decodes
    to no character and no UTF-8 writer can encode it: the reader refuses it
    and names the file and the line or field, object keys included."""
    if field.startswith("stored"):  # sample 2's id, or the first vocab word, of the manifest
        store = tmp_path / "store"
        shutil.copytree(envelope_files / "synth" / "corpus", store)
        path = store / "manifest.json"
        payload = json.loads(path.read_text("utf-8"))
        del payload["checksum"]
        if field == "stored-id":
            payload["ids"][1] += "\udc00"
            key = "ids[1]"
            argv = ["pdf-eval", "--model", envelope_files / "pdf" / "model.json",
                    "--corpus", store, "--policy", "none"]
        else:
            payload["vocab"][0] += "\udc00"
            key = "vocab[0]"
            argv = ["pdf-build", "--corpus", store, "--trait", "N", "--bins", 4,
                    "--min-word-freq", 0]
        # save_checked_json cannot encode the surrogate
        sign_manifest(path, json.dumps(payload).replace("\\udc00", "\\uDC00"))
        where = f"{path}: field {key!r}"
    elif field == "label":
        run(["synth", "--spec", spec_file, "--out", tmp_path / "synth"])
        path = tmp_path / "synth" / "catalog.json"
        catalog = json.loads(path.read_text("utf-8"))
        catalog["questions"][0]["labels"][1] += "\ud800"
        path.write_text(json.dumps(catalog), "utf-8")
        argv = ["cs-train", "--survey", tmp_path / "synth" / "survey.csv", "--catalog", path]
        where = f"{path}: field 'questions[0].labels[1]'"
    else:
        body = " ".join(["a happy big day at the cafe and the cat went on"] * 60)
        records = [{"id": f"t{i}", "text": body} for i in range(3)]
        if field == "scores":
            records[1]["scores"] = {"N\udc00": 0.5}
        else:
            records[1][field] += "\udc00"
        path = tmp_path / "raw.jsonl"
        lines = "".join(json.dumps(r) + "\n" for r in records)
        path.write_text(lines.replace("\\udc00", "\\uDC00"), "utf-8")
        argv = ["ingest", "--input", path]
        key = "scores.N\udc00" if field == "scores" else field
        where = f"{path} line 2: field {key!r}"
    assert "\\ud" in path.read_text("utf-8").lower()  # written as an escape
    capsys.readouterr()
    assert run(argv + ["--out", tmp_path / "o"]) == 2
    assert f"{where} holds an unpaired surrogate escape" in capsys.readouterr().err


# --- commonsense pipeline ------------------------------------------------------------

@pytest.fixture
def survey_out(tmp_path, spec_file):
    out = tmp_path / "synths"
    run(["synth", "--spec", spec_file, "--out", out])
    return out


def test_cs_train_and_predict(tmp_path, survey_out, capsys):
    train_out = tmp_path / "cs"
    code = run([
        "cs-train", "--survey", survey_out / "survey.csv",
        "--catalog", survey_out / "catalog.json",
        "--algorithms", "decision_tree,knn", "--k", 5,
        "--out", train_out,
    ])
    assert code == 0
    report = read_csv(train_out / "report.csv")
    assert report[0] == "qid,algorithm,cv_accuracy_prefusion,cv_accuracy_postfusion"
    assert len(report) == 3  # one question, two algorithms
    capsys.readouterr()

    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    code = run([
        "cs-predict", "--bank", train_out / "bank.json",
        "--answers-file", answers,
    ])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out == "ruled,option_1"  # every item is 5, so the rule fires


def edited_survey(survey_out, path, edit):
    """survey_out's survey.csv with its lines passed through `edit`."""
    lines = (survey_out / "survey.csv").read_text("utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", "utf-8")
    return path


def set_answer(line, value):
    return ",".join(line.split(",")[:-1] + [str(value)])


# Survey files that cs-train refuses, and what the message must hold after the
# file's name: an answer index too large for any integer type or below 0 on
# line 3, every respondent twice, a header and no respondents, or an answer
# column for a question the catalog lacks.
SURVEY_FAULTS = {
    "huge-answer": (lambda lines: lines[:2] + [set_answer(lines[2], 10**20)] + lines[3:],
                    " line 3: question 'ruled': answer index 100000000000000000000 is not "
                    "from 0 to 1"),
    "negative-answer": (lambda lines: lines[:2] + [set_answer(lines[2], -1)] + lines[3:],
                        " line 3: question 'ruled': answer index -1 is not from 0 to 1"),
    "repeated-ids": (lambda lines: lines + lines[1:], ": duplicate respondent ids"),
    "no-respondents": (lambda lines: lines[:1], ": survey has no respondents"),
    "unknown-question": (lambda lines: [lines[0].replace("a_ruled", "a_nope")] + lines[1:],
                         ": column 'a_nope': no question with id 'nope'"),
}


@pytest.mark.parametrize("fault", SURVEY_FAULTS)
def test_cs_train_refuses_a_faulty_survey(tmp_path, survey_out, capsys, fault):
    edit, message = SURVEY_FAULTS[fault]
    path = edited_survey(survey_out, tmp_path / "survey.csv", edit)
    capsys.readouterr()
    code = run(["cs-train", "--survey", path, "--catalog", survey_out / "catalog.json",
                "--algorithms", "knn", "--k", 4, "--out", tmp_path / "cs"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}{message}" in err


# cs-train flags that no question can train with, and what the message must
# hold: a regressor, a forest of no trees, a --min-abs-r that is not finite
# or lies outside [0, 1].
UNTRAINABLE = {
    "linear_regression": (["--algorithms", "knn,linear_regression"],
                          "linear_regression is a regressor"),
    "random_forest_reg": (["--algorithms", "random_forest_reg"],
                          "random_forest_reg is a regressor"),
    "trees-0": (["--algorithms", "knn,random_forest_clf", "--trees", 0],
                "random_forest_clf: n_trees must be at least 1"),
    "min-abs-r-nan": (["--algorithms", "knn", "--min-abs-r", "nan"],
                      "min_abs_r must be a finite number, got nan"),
    "min-abs-r-2": (["--algorithms", "knn", "--min-abs-r", 2],
                    "min_abs_r must lie in [0, 1], got 2.0"),
    "min-abs-r-negative": (["--algorithms", "knn", "--min-abs-r", -0.5],
                           "min_abs_r must lie in [0, 1], got -0.5"),
}


@pytest.mark.parametrize("case", UNTRAINABLE)
def test_cs_train_refuses_what_no_question_can_train(tmp_path, survey_out, capsys,
                                                     monkeypatch, case):
    """Refused before the first fit, with exit 2 and no bank written."""
    def no_fit(*args, **kwargs):
        raise AssertionError("a config was cross-validated")

    monkeypatch.setattr(commonsense, "cross_validate_all", no_fit)
    flags, message = UNTRAINABLE[case]
    capsys.readouterr()
    code = run(["cs-train", "--survey", survey_out / "survey.csv", "--catalog",
                survey_out / "catalog.json", "--k", 4, "--out", tmp_path / "cs"] + flags)
    assert code == 2 and message in capsys.readouterr().err
    assert not (tmp_path / "cs").exists()


@pytest.mark.parametrize("k,message", [(1, "k must be at least 2"),
                                       (81, "k=81 exceeds the 80 rows")])
def test_cs_train_refuses_a_bad_k_before_any_fork(tmp_path, survey_out, capsys,
                                                  monkeypatch, k, message):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    capsys.readouterr()
    code = run(["cs-train", "--survey", survey_out / "survey.csv", "--catalog",
                survey_out / "catalog.json", "--algorithms", "knn,decision_tree",
                "--k", k, "--out", tmp_path / "cs"])
    assert code == 2 and f"traitlex: {message}" in capsys.readouterr().err
    assert not (tmp_path / "cs").exists() and multiprocessing.active_children() == []


CATALOG_BAD_FIELDS = [
    ("questionnaire_items", DROP), ("questionnaire_items", [1] * 50),
    ("duplicate_pairs", DROP), ("duplicate_pairs", [[1, 2, 3]]), ("questions", DROP),
    ("questions", {}), ("questions.0.id", DROP), ("questions.0.id", 7),
    ("questions.0.text", DROP), ("questions.0.labels", DROP), ("questions.0.labels", "ab"),
    ("questions.0.fusion_map", DROP), ("questions.0.fusion_map", {"0": "1"}),
]


@pytest.mark.parametrize("field,value", CATALOG_BAD_FIELDS, ids=case_ids(CATALOG_BAD_FIELDS))
def test_malformed_catalog_is_a_data_error(tmp_path, survey_out, capsys, field, value):
    path = resave_corrupted(survey_out / "catalog.json", field, value, tmp_path / "bad.json")
    capsys.readouterr()
    code = run(["cs-train", "--survey", survey_out / "survey.csv", "--catalog", path,
                "--algorithms", "knn", "--k", 4, "--out", tmp_path / "cs"])
    assert_refused(code, capsys.readouterr().err, path, field)


def cs_train(survey, catalog, out):
    return run(["cs-train", "--survey", survey, "--catalog", catalog,
                "--algorithms", "knn", "--k", 4, "--out", out])


# Each table load_catalog checks a level of a catalog by, with the path of
# that level's object and how a message names it after the file.
CATALOG_TABLES = {
    "top": (commonsense._CATALOG_FIELDS, (), ""),
    "question": (commonsense._QUESTION_FIELDS, ("questions", 0), ":questions[0]"),
}


@pytest.mark.parametrize("level", CATALOG_TABLES)
def test_a_catalog_field_outside_its_table_is_a_data_error(tmp_path, survey_out, capsys,
                                                           level):
    """Every field of every catalog table, misspelt beside the right one, as
    a stray "fusion" beside "fusion_map", ends in exit 2 naming the file and
    the key."""
    table, path, where = CATALOG_TABLES[level]
    source = json.loads((survey_out / "catalog.json").read_text("utf-8"))
    for field in table:
        catalog = write_json(tmp_path / f"{field}.json",
                             misspelt(json.loads(json.dumps(source)), path, field, table))
        capsys.readouterr()
        assert cs_train(survey_out / "survey.csv", catalog, tmp_path / "cs") == 2
        assert capsys.readouterr().err == \
            f"traitlex: {catalog}{where}: unknown field {field + 's'!r}\n"


def test_a_repeated_survey_answer_column_is_a_data_error(tmp_path, survey_out, capsys):
    lines = (survey_out / "survey.csv").read_text("utf-8").splitlines()
    path = tmp_path / "survey.csv"
    path.write_text("".join(f"{line},{line.rsplit(',', 1)[1]}\n" for line in lines), "utf-8")
    capsys.readouterr()
    assert cs_train(path, survey_out / "catalog.json", tmp_path / "cs") == 2
    assert capsys.readouterr().err == f"traitlex: {path}: repeated column 'a_ruled'\n"


def train_bank(work, algorithm):
    run(["synth", "--spec", write_spec(work / "spec.json"), "--out", work / "synth"])
    assert run(["cs-train", "--survey", work / "synth" / "survey.csv",
                "--catalog", work / "synth" / "catalog.json",
                "--algorithms", algorithm, "--k", 4, "--out", work / "cs"]) == 0
    return work / "cs" / "bank.json"


@pytest.fixture(scope="module")
def knn_bank(tmp_path_factory):
    return train_bank(tmp_path_factory.mktemp("bank"), "knn")


@pytest.fixture(scope="module")
def tree_bank(tmp_path_factory):
    return train_bank(tmp_path_factory.mktemp("tree_bank"), "decision_tree")


BANK_BAD_FIELDS = [
    ("questions", DROP), ("questions", {}),
    ("questions.ruled.question", DROP),
    ("questions.ruled.question.labels", DROP),
    ("questions.ruled.question.fusion_map", {"x": 1}),
    ("questions.ruled.used_fallback", "no"),
    ("questions.ruled.model", DROP),
    ("questions.ruled.model.params", DROP),
    ("questions.ruled.model.params.X", "ragged"),
    ("questions.ruled.model.feature_names", ["q51"]),
] + [(f"questions.ruled.model.{field}", value) for field, value in KNN_BAD_PARAMS]


@pytest.mark.parametrize("field,value", BANK_BAD_FIELDS, ids=case_ids(BANK_BAD_FIELDS))
def test_malformed_bank_is_a_data_error(tmp_path, knn_bank, capsys, field, value):
    path = resave_corrupted(knn_bank, field, value, tmp_path / "bank.json")
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    capsys.readouterr()
    code = run(["cs-predict", "--bank", path, "--answers-file", answers])
    assert_refused(code, capsys.readouterr().err, path, field)


TREE_BANK_BAD_FIELDS = [(f"questions.ruled.model.{field}", value)
                        for field, value in TREE_BAD_FIELDS + [("params.feature", At(0, 50))]]


@pytest.mark.parametrize("field,value", TREE_BANK_BAD_FIELDS,
                         ids=case_ids(TREE_BANK_BAD_FIELDS))
def test_malformed_bank_tree_is_a_data_error(tmp_path, tree_bank, capsys, field, value):
    questions = json.loads(tree_bank.read_text("utf-8"))["questions"]
    params = entry(questions, "ruled")["model"]["params"]
    assert params["feature"][0] >= 0 and params["feature"][1:] == [-1, -1]
    path = resave_corrupted(tree_bank, field, value, tmp_path / "bank.json")
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    capsys.readouterr()
    code = run(["cs-predict", "--bank", path, "--answers-file", answers])
    assert_refused(code, capsys.readouterr().err, path, field)


@pytest.fixture(scope="module")
def bank_of(tmp_path_factory):
    """The bank of one cs-train run per algorithm, trained on first use."""
    banks = {}

    def get(algorithm):
        if algorithm not in banks:
            banks[algorithm] = train_bank(tmp_path_factory.mktemp(algorithm), algorithm)
        return banks[algorithm]
    return get


BANK_SHAPE_BAD_PARAMS = SHAPE_BAD_PARAMS + [
    case for case in STALE_FIELDS if mlcore.ALGORITHMS[case[0]].kind == "classifier"]


@pytest.mark.parametrize("algorithm,field,value", BANK_SHAPE_BAD_PARAMS,
                         ids=learner_case_ids(BANK_SHAPE_BAD_PARAMS))
def test_misshapen_bank_params_are_a_data_error(tmp_path, bank_of, capsys, algorithm, field,
                                                value):
    field = f"questions.ruled.model.{field}"
    path = resave_corrupted(bank_of(algorithm), field, value, tmp_path / "bank.json")
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    capsys.readouterr()
    code = run(["cs-predict", "--bank", path, "--answers-file", answers])
    assert_refused(code, capsys.readouterr().err, path, field)


def test_format_1_bank_is_refused(tmp_path, knn_bank, capsys):
    path = resave_corrupted(knn_bank, "format_version", 1, tmp_path / "bank.json")
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    capsys.readouterr()
    assert run(["cs-predict", "--bank", path, "--answers-file", answers]) == 2
    assert "rerun cs-train to write a version 7 file" in capsys.readouterr().err


def test_format_2_bank_is_refused(tmp_path, knn_bank, capsys):
    # the version 2 layout: a per-question winner name and a map of models
    payload = json.loads(knn_bank.read_text("utf-8"))
    del payload["checksum"]
    payload["questions"] = {e["question"]["id"]: {"question": e.pop("question"), "best": "knn",
                                                  "models": {"knn": e}}
                            for e in payload["questions"]}
    save_checked_json(tmp_path / "bank.json", dict(payload, format_version=2))
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    capsys.readouterr()
    assert run(["cs-predict", "--bank", tmp_path / "bank.json", "--answers-file", answers]) == 2
    assert "rerun cs-train to write a version 7 file" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["knn", "decision_tree"])
def test_format_3_bank_is_refused(tmp_path, bank_of, capsys, algorithm):
    # the version 3 layout: entries keyed by question id, models in ml-model format 2
    payload = json.loads(bank_of(algorithm).read_text("utf-8"))
    del payload["checksum"]
    payload["questions"] = {e["question"]["id"]: dict(e, model=v2_payload(e["model"]))
                            for e in payload["questions"]}
    save_checked_json(tmp_path / "bank.json", dict(payload, format_version=3))
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    capsys.readouterr()
    assert run(["cs-predict", "--bank", tmp_path / "bank.json", "--answers-file", answers]) == 2
    assert "rerun cs-train to write a version 7 file" in capsys.readouterr().err


def test_format_5_bank_is_refused(tmp_path, knn_bank, capsys):
    # the version 5 layout: entries keyed by question id, models in ml-model format 4
    payload = json.loads(knn_bank.read_text("utf-8"))
    del payload["checksum"]
    payload["questions"] = {e["question"]["id"]: dict(e, model=dict(
        e["model"], params=v4_payload(e["model"])["params"])) for e in payload["questions"]}
    save_checked_json(tmp_path / "bank.json", dict(payload, format_version=5))
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    capsys.readouterr()
    assert run(["cs-predict", "--bank", tmp_path / "bank.json", "--answers-file", answers]) == 2
    assert "rerun cs-train to write a version 7 file" in capsys.readouterr().err


def test_repeated_question_id_in_bank_is_refused(tmp_path, knn_bank, capsys):
    payload = json.loads(knn_bank.read_text("utf-8"))
    del payload["checksum"]
    ruled = next(e for e in payload["questions"] if e["question"]["id"] == "ruled")
    payload["questions"].append(ruled)
    save_checked_json(tmp_path / "bank.json", payload)
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    capsys.readouterr()
    assert run(["cs-predict", "--bank", tmp_path / "bank.json", "--answers-file", answers]) == 2
    i = len(payload["questions"]) - 1
    assert (f"{tmp_path / 'bank.json'}:questions[{i}]/question: repeated question id 'ruled'"
            in capsys.readouterr().err)


def test_cs_predict_rejects_bad_answer_count(tmp_path, survey_out, capsys):
    train_out = tmp_path / "cs"
    run([
        "cs-train", "--survey", survey_out / "survey.csv",
        "--catalog", survey_out / "catalog.json",
        "--algorithms", "knn", "--k", 4, "--out", train_out,
    ])
    capsys.readouterr()
    answers = tmp_path / "answers.txt"
    answers.write_text("5 5 5\n", "utf-8")
    code = run([
        "cs-predict", "--bank", train_out / "bank.json",
        "--answers-file", answers,
    ])
    assert code == 2
    assert "expected 50" in capsys.readouterr().err


# --- the JSON file envelope -----------------------------------------------------------

@pytest.fixture(scope="module")
def envelope_files(tmp_path_factory):
    """A directory holding one file of each traitlex JSON kind."""
    work = tmp_path_factory.mktemp("envelope")
    train_bank(work, "knn")  # spec.json, synth/ and cs/bank.json
    assert run(["pdf-build", "--corpus", work / "synth" / "corpus", "--trait", "N",
                "--bins", 4, "--min-word-freq", 0, "--out", work / "pdf"]) == 0
    write_dataset(work / "data.csv")
    assert run(["ml-train", "--data", work / "data.csv", "--algorithm", "knn",
                "--out", work / "ml"]) == 0
    (work / "answers.txt").write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    return work


# Each kind, keyed as in FORMAT_VERSIONS: its file in envelope_files, the
# command that writes it (None for a generator spec, which no command writes)
# and the arguments of a command that reads it, given the work directory, the
# file and an output directory.
ENVELOPE_KINDS = {
    "pdf-model": ("pdf/model.json", "pdf-build", lambda work, path, out: [
        "pdf-predict", "--model", path, "--corpus", work / "synth" / "corpus", "--out", out]),
    "ml-model": ("ml/model.json", "ml-train", lambda work, path, out: [
        "ml-eval", "--model", path, "--data", work / "data.csv", "--out", out]),
    "bank": ("cs/bank.json", "cs-train", lambda work, path, out: [
        "cs-predict", "--bank", path, "--answers-file", work / "answers.txt"]),
    "catalog": ("synth/catalog.json", "synth", lambda work, path, out: [
        "cs-train", "--survey", work / "synth" / "survey.csv", "--catalog", path,
        "--algorithms", "knn", "--k", 4, "--out", out]),
    "generator-spec": ("spec.json", None, lambda work, path, out: [
        "synth", "--spec", path, "--out", out]),
    "corpus": ("synth/corpus/manifest.json", "ingest", lambda work, path, out: [
        "pdf-build", "--corpus", path.parent, "--trait", "N", "--out", out]),
}
# The faults the JSON decoder refuses, in one JSON object's text: cut in half,
# a JSON list, an integer of 5000 digits (past int's 4300-digit limit) and a
# list nested 10**5 deep.
DECODER_FAULTS = ("not-json", "not-an-object", "too-many-digits", "too-deep")


def faulty_json(text, fault):
    if fault == "not-json":
        return text[: len(text) // 2]
    if fault == "not-an-object":
        return "[1, 2]"
    value = "7" * 5000 if fault == "too-many-digits" else "[" * 10**5 + "]" * 10**5
    return '{"n": ' + value + ", " + text.lstrip()[1:]


# The readers of JSON without an envelope: the ingest input, given a file that
# holds the fault on its line 2; and "store-counts", a store manifest holding
# the fault in a column that versions 4 and 5 kept in counts.json, re-signed
# so that the decoder and not the checksum refuses it.
JSONL_READERS = ("ingest-line", "store-counts")
# The columns versions 4 and 5 kept in counts.json, in the manifest since.
COUNTS_JSON_COLUMNS = ("ids", "langs", "scores", "vocab")

# Each kind's file with each decoder fault, with a byte that is not UTF-8,
# with another format tag and with the previous format version; a store
# manifest whose "extra" is a list; and each decoder fault on each JSON-lines
# reader.
ENVELOPE_CASES = [(kind, fault) for kind in ENVELOPE_KINDS
                  for fault in ("not-json", "not-utf8", "not-an-object", "format",
                                "format_version", "too-many-digits", "too-deep")]
ENVELOPE_CASES.append(("corpus", "extra"))
ENVELOPE_CASES += [(kind, fault) for kind in JSONL_READERS for fault in DECODER_FAULTS]


def faulty_jsonl(work, kind, fault, out):
    """A file in `out` holding `fault` (on line 2 of a JSON-lines file), and
    the arguments of the command that reads it."""
    if kind == "ingest-line":
        body = " ".join(["a happy big day at the cafe and the cat went on"] * 60)
        path = out / "raw.jsonl"
        lines = [json.dumps({"id": f"t{i}", "text": body}) for i in range(3)]
        lines[1] = faulty_json(lines[1], fault)
        path.write_text("".join(line + "\n" for line in lines), "utf-8")
        return path, ["ingest", "--input", path]
    store = out / "store"
    shutil.copytree(work / "synth" / "corpus", store)
    return faulty_columns(store / "manifest.json", fault), [
        "pdf-build", "--corpus", store, "--trait", "N"]


def faulty_columns(path, fault):
    """Re-sign a store manifest with `fault` in its counts.json columns: cut
    off inside 'ids', 'scores' a list, a score of 5000 digits, or 'ids' a
    list nested 10**5 deep; the manifest's path."""
    payload = json.loads(path.read_text("utf-8"))
    del payload["checksum"]
    if fault == "not-json":
        text = json.dumps(payload)
        return sign_manifest(path, text[:text.index('"ids": [') + 12])
    if fault == "not-an-object":
        payload["scores"] = [1, 2]
        return sign_manifest(path, json.dumps(payload))
    if fault == "too-many-digits":
        next(iter(payload["scores"].values()))[0] = "FAULT"
        value = "7" * 5000
    else:
        payload["ids"], value = "FAULT", "[" * 10**5 + "]" * 10**5
    return sign_manifest(path, json.dumps(payload).replace('"FAULT"', value))


@pytest.mark.parametrize("kind,fault", ENVELOPE_CASES,
                         ids=[f"{kind}-{fault}" for kind, fault in ENVELOPE_CASES])
def test_every_json_file_checks_its_envelope(tmp_path, envelope_files, capsys, kind, fault):
    named = {"not-json": "not valid JSON", "not-utf8": "not valid JSON",
             "not-an-object": "'format'",
             "too-many-digits": "not valid JSON (Exceeds the limit (4300 digits)",
             "too-deep": "not valid JSON (nested too deep)"}
    if kind in JSONL_READERS:
        path, argv = faulty_jsonl(envelope_files, kind, fault, tmp_path)
        capsys.readouterr()
        assert run(argv + ["--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        if kind == "store-counts":
            named["not-an-object"], where = "field 'scores' must be an object", f"{path}:"
        else:
            named["not-an-object"], where = "must be a JSON object", f"{path} line 2:"
        assert f"{where} {named[fault]}" in err
        return
    name, writer, reader = ENVELOPE_KINDS[kind]
    source, version = envelope_files / name, FORMAT_VERSIONS[kind]
    path = tmp_path / "edited" / source.name
    path.parent.mkdir()
    if kind == "corpus":
        shutil.copy(source.parent / "counts.npy", path.parent)
    text = source.read_text("utf-8")
    if fault in DECODER_FAULTS:
        path.write_text(faulty_json(text, fault), "utf-8")
    elif fault == "not-utf8":
        path.write_bytes(b'{"format": "\xff"}')
    else:
        value = {"format": "traitlex-other", "format_version": version - 1,
                 "extra": [1, 2]}[fault]
        resave_corrupted(source, fault, value, path)
    capsys.readouterr()
    code = run(reader(envelope_files, path, tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 2 and str(path) in err
    assert named.get(fault, repr(fault)) in err
    if fault == "format_version" and writer is not None:
        assert f"rerun {writer} to write a version {version} file" in err


# --- checked files: a checksum of the file's own bytes ---------------------------------

# Each checked kind, keyed as in FORMAT_VERSIONS: its file in envelope_files,
# the command that writes it and the arguments of a command that reads it.
CHECKED_KINDS = {
    "pdf-model": ("pdf/model.json", "pdf-build", lambda work, path, out: [
        "pdf-eval", "--model", path, "--corpus", work / "synth" / "corpus", "--out", out]),
    "ml-model": ENVELOPE_KINDS["ml-model"],
    "bank": ENVELOPE_KINDS["bank"],
}
PREFIX = len('{"checksum":"",') + 64


def flip_in_string(raw):
    """The file with the last character of its last string, an ASCII letter, XOR 1."""
    i = raw.rindex(b'"') - 1
    assert raw[i:i + 1].isalpha()
    return raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]


def respaced(raw):
    """The file's payload with ", " and ": " between fields, behind the saved checksum."""
    payload = json.loads(raw)
    del payload["checksum"]
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(", ", ": "))
    return raw[:PREFIX] + text[1:].encode("utf-8") + b"\n"


def old_file(raw, **envelope):
    """The file's payload, with `envelope` fields set, as the writer of
    ml-model format 5, bank format 6 and pdf-model format 2 saved it."""
    payload = dict(json.loads(raw), **envelope)
    del payload["checksum"]
    return v5_checked_json(payload).encode("utf-8")


# Each edit of a saved file's bytes that keeps its payload and changes only
# its layout; every one keeps the file valid JSON.
LAYOUT_EDITS = {
    "respaced": respaced,
    # a space after the checksum's colon, and the checksum of every byte
    # after the first 79, which now begin with the prefix's last ","
    "respaced-prefix": lambda raw: (b'{"checksum": "' + checksum(raw[PREFIX - 1:]).encode()
                                    + b'"' + raw[PREFIX - 1:]),
    "checksum-last": lambda raw: b"{" + raw[PREFIX:-2] + b"," + raw[1:PREFIX - 2] + b'"}\n',
    "checksum-missing": lambda raw: b"{" + raw[PREFIX:],
    "uppercase-hex": lambda raw: raw[:13] + raw[13:PREFIX - 2].upper() + raw[PREFIX - 2:],
    "truncated": lambda raw: raw[:-1],
    "appended": lambda raw: raw + b" ",
    "old-layout": old_file,
}
# The layout edits, one byte flipped in a string, and files in the old
# layout with the previous version or another format tag.
CHECKED_EDITS = {
    "flipped": flip_in_string,
    **LAYOUT_EDITS,
    "previous-version": lambda raw: old_file(
        raw, format_version=json.loads(raw)["format_version"] - 1),
    "other-format": lambda raw: old_file(raw, format="traitlex-other"),
}
CHECKED_CASES = [(kind, edit) for kind in CHECKED_KINDS for edit in (None, *CHECKED_EDITS)]


def unsigned(raw):
    return {**json.loads(raw), "checksum": None}


@pytest.mark.parametrize("kind,edit", CHECKED_CASES,
                         ids=[f"{kind}-{edit or 'as-saved'}" for kind, edit in CHECKED_CASES])
def test_checked_files_refuse_any_other_bytes(tmp_path, envelope_files, capsys, kind, edit):
    name, writer, reader = CHECKED_KINDS[kind]
    raw = (envelope_files / name).read_bytes()
    assert raw[:PREFIX] == f'{{"checksum":"{checksum(raw[PREFIX:])}",'.encode()
    edited = raw if edit is None else CHECKED_EDITS[edit](raw)
    if edit in LAYOUT_EDITS:
        assert edited != raw and unsigned(edited) == unsigned(raw)
    path = tmp_path / "edited.json"
    path.write_bytes(edited)
    capsys.readouterr()
    code = run(reader(envelope_files, path, tmp_path / "out"))
    err = capsys.readouterr().err
    if edit is None:
        assert (code, err) == (0, "")
        return
    version = FORMAT_VERSIONS[kind]
    assert code == 2
    assert {"previous-version": f"{path}: unsupported format version {version - 1} in field "
                                f"'format_version'; rerun {writer} to write a version "
                                f"{version} file",
            "other-format": f"{path}: not a "}.get(edit, f"{path}: checksum mismatch") in err


@pytest.mark.parametrize("kind,loader", [("pdf-model", pdfmodel.load_model),
                                         ("ml-model", mlcore.load_trained_model),
                                         ("bank", commonsense.load_bank)])
def test_checked_files_are_read_once_and_never_encoded(envelope_files, monkeypatch, kind,
                                                       loader):
    path = envelope_files / CHECKED_KINDS[kind][0]
    opened = []
    path_open, builtin_open = Path.open, open

    def counted_path_open(self, mode="r", *args, **kwargs):
        opened.append((self, mode))
        return path_open(self, mode, *args, **kwargs)

    def counted_open(file, mode="r", *args, **kwargs):
        opened.append((Path(file), mode))
        return builtin_open(file, mode, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a JSON encoder ran")

    monkeypatch.setattr(Path, "open", counted_path_open)
    monkeypatch.setattr("builtins.open", counted_open)
    monkeypatch.setattr(_util, "canonical_json", refuse)
    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)
    loader(path)
    monkeypatch.undo()
    assert opened == [(path, "rb")]


# Sample 2's stored fields of the wrong type, or missing: its integers in a
# counts.npy whose dtype holds the value (an object array for a list), with
# the file's SHA-256 recomputed in the manifest, and the others in the
# manifest column that holds them, re-signed.
STORE_BAD_FIELDS = [("lang", 5), ("word_count", 1200.5),
                    ("word_count", "1200"), ("adj_freqs", [1, 2]), ("scores", [1]),
                    ("lang", DROP)]
MANIFEST_FIELDS = {"lang": "langs", "scores": "scores.N"}
NPY_FIELDS = {"word_count": "word_counts", "adj_freqs": "counts"}


@pytest.mark.parametrize("field,value", STORE_BAD_FIELDS, ids=case_ids(STORE_BAD_FIELDS))
def test_malformed_store_record_is_a_data_error(tmp_path, envelope_files, capsys, field,
                                                value):
    store = tmp_path / "store"
    shutil.copytree(envelope_files / "synth" / "corpus", store)
    if field in NPY_FIELDS:
        dtype = object if isinstance(value, list) else np.array([0, value]).dtype
        path = edit_npy(store, lambda c: npy_holding(
            c, NPY_FIELDS[field], 1 if field == "word_count" else sample_entries(c, 1)[0],
            value, dtype))
        capsys.readouterr()
        assert run(["pdf-build", "--corpus", store, "--trait", "N",
                    "--out", tmp_path / "o"]) == 2
        assert f"{path}: {NOT_I8}1-D, C-order {np.dtype(dtype).str!r}" in capsys.readouterr().err
        return
    name = MANIFEST_FIELDS[field]

    def edit(payload):
        *parents, key = name.split(".")
        entries = payload[parents[0]][key] if parents else payload[key]
        if value is DROP:
            del entries[1]
        else:
            entries[1] = value

    path = edit_manifest(store, edit)
    capsys.readouterr()
    assert run(["pdf-build", "--corpus", store, "--trait", "N", "--out", tmp_path / "o"]) == 2
    assert f"{path}: field {name!r} must " in capsys.readouterr().err


def sample_entries(columns, i):
    """The positions of sample i's entries in counts.npy's indices and counts."""
    start = int(columns["lengths"][:i].sum())
    return range(start, start + int(columns["lengths"][i]))


def swap_first_two(values, at):
    values[at[0]], values[at[1]] = values[at[1]], values[at[0]]


def without_last_word(columns):
    """Drop every entry of the last vocab word."""
    lengths, last = columns["lengths"], columns["indices"] == columns["indices"].max()
    owner = np.repeat(np.arange(len(lengths)), lengths)
    lengths -= np.bincount(owner[last], minlength=len(lengths))
    columns["indices"], columns["counts"] = columns["indices"][~last], columns["counts"][~last]


def npy_header_edit(old, new):
    """counts.npy's bytes with its header's `old` text replaced by `new`."""
    def edit(columns):
        data = npy_bytes(joined(columns))
        assert data.count(old) == 1 and len(old) == len(new)
        return data.replace(old, new)
    return edit


# Manifest column values that break a rule, and what the message names after the file.
MANIFEST_COLUMN_FAULTS = {
    "uppercase-word": (lambda p: p["vocab"].__setitem__(0, p["vocab"][0].upper()),
                       "field 'vocab': adjective '"),
    "unsorted-vocab": (lambda p: swap_first_two(p["vocab"], (0, 1)),
                       "field 'vocab' must be sorted with no duplicates"),
    "repeated-word": (lambda p: p["vocab"].__setitem__(1, p["vocab"][0]),
                      "field 'vocab' must be sorted with no duplicates"),
    "duplicate-id": (lambda p: p["ids"].__setitem__(1, "s00000"),
                     "field 'ids': duplicate sample id 's00000'"),
    "empty-id": (lambda p: p["ids"].__setitem__(1, ""), "field 'ids': sample 1 has an empty id"),
    "score-above-1": (lambda p: p["scores"]["N"].__setitem__(1, 1.5),
                      "field 'scores.N': sample 's00001': score out of range"),
    "score-nan": (lambda p: p["scores"]["N"].__setitem__(1, float("nan")),
                  "field 'scores.N': sample 's00001': score out of range"),
    "unknown-trait": (lambda p: p["scores"].__setitem__("X", p["scores"]["N"]),
                      "field 'scores': unknown trait 'X'"),
}
NOT_I8 = "must hold one 1-D, C-order '<i8' array, not a "
# Edits of counts.npy's columns that break a rule, on sample 2 ('s00001') where
# the rule is about one sample, and what the message names after the file; an
# edit that returns bytes writes them instead.
COUNTS_NPY_FAULTS = {
    "dtype-<i4": (lambda c: npy_bytes(joined(c).astype("<i4")), NOT_I8 + "1-D, C-order '<i4'"),
    "dtype->i8": (lambda c: npy_bytes(joined(c).astype(">i8")), NOT_I8 + "1-D, C-order '>i8'"),
    "dtype-<f8": (lambda c: npy_bytes(joined(c).astype("<f8")), NOT_I8 + "1-D, C-order '<f8'"),
    "pickled": (lambda c: npy_bytes(joined(c).astype(object), allow_pickle=True),
                NOT_I8 + "1-D, C-order '|O'"),
    "count-2**63": (lambda c: npy_holding(c, "counts", sample_entries(c, 1)[0], 2**63, "<u8"),
                    NOT_I8 + "1-D, C-order '<u8'"),
    "2-d": (lambda c: npy_bytes(joined(c).reshape(2, -1)), NOT_I8 + "2-D, C-order '<i8'"),
    "fortran": (npy_header_edit(b"'fortran_order': False", b"'fortran_order': True "),
                NOT_I8 + "1-D, Fortran-order '<i8'"),
    "truncated": (lambda c: npy_bytes(joined(c))[:-3], "the header's shape (1680,) needs "
                                                       "13440 bytes of array data, not 13437"),
    "trailing": (lambda c: npy_bytes(joined(c)) + b"\0", "the header's shape (1680,) needs "
                                                         "13440 bytes of array data, not 13441"),
    "magic": (npy_header_edit(b"\x93NUMPY", b"\x93NUMPX"),
              "not a .npy file (the magic string is not correct"),
    "length": (lambda c: npy_bytes(np.append(joined(c), 1)),
               "holds 1681 entries, not 2 x 120 samples + 2 x 720 adjectives"),
    "lengths-sum": (lambda c: c["lengths"][1:2].__iadd__(1),
                    "holds 1680 entries, not 2 x 120 samples + 2 x 721 adjectives"),
    # an int64 sum of these lengths wraps round to the true total
    "lengths-wrap": (lambda c: c["lengths"][:4].__iadd__(2**62),
                     f"holds 1680 entries, not 2 x 120 samples + 2 x {2**64 + 720} "
                     "adjectives"),
    "negative-word-count": (lambda c: c["word_counts"].__setitem__(1, -1),
                            "field 'word_counts': sample 's00001': negative word_count"),
    "negative-length": (lambda c: c["lengths"].__setitem__(1, -1),
                        "field 'lengths': sample 's00001': negative length"),
    "index-outside": (lambda c: c["indices"].__setitem__(sample_entries(c, 1)[-1], 10**6),
                      "field 'indices': sample 's00001': index 1000000 is outside"),
    "index-negative": (lambda c: c["indices"].__setitem__(sample_entries(c, 1)[0], -1),
                       "field 'indices': sample 's00001': index -1 is outside"),
    "index-falls": (lambda c: swap_first_two(c["indices"], sample_entries(c, 1)),
                    "field 'indices': sample 's00001': indices must rise"),
    "index-repeats": (lambda c: c["indices"].__setitem__(sample_entries(c, 1)[1],
                                                         c["indices"][sample_entries(c, 1)[0]]),
                      "field 'indices': sample 's00001': indices must rise"),
    "unused-word": (without_last_word, "field 'indices': no sample holds adjective '"),
    "count-0": (lambda c: c["counts"].__setitem__(sample_entries(c, 1)[0], 0),
                "field 'counts': sample 's00001': adjective frequency must be a positive"),
}
STORE_BAD_VALUES = {**MANIFEST_COLUMN_FAULTS, **COUNTS_NPY_FAULTS}


@pytest.mark.parametrize("case", STORE_BAD_VALUES)
def test_store_counts_that_break_a_rule_are_a_data_error(tmp_path, envelope_files, capsys,
                                                         monkeypatch, case):
    """Each edit re-signed in the manifest; nothing is unpickled."""
    store = tmp_path / "store"
    shutil.copytree(envelope_files / "synth" / "corpus", store)
    edit, message = STORE_BAD_VALUES[case]
    if case in COUNTS_NPY_FAULTS:
        path = edit_npy(store, edit)
    else:
        path = edit_manifest(store, edit)

    def unpickle(*args, **kwargs):
        raise AssertionError("unpickled")

    monkeypatch.setattr(pickle, "load", unpickle)
    monkeypatch.setattr(pickle, "loads", unpickle)
    capsys.readouterr()
    assert pdf_eval(envelope_files, store, tmp_path / "o") == 2
    assert f"{path}: {message}" in capsys.readouterr().err


def test_store_manifest_holds_no_sample_count(tmp_path, spec_file):
    run(["synth", "--spec", spec_file, "--out", tmp_path / "out"])
    manifest = json.loads((tmp_path / "out" / "corpus" / "manifest.json").read_text("utf-8"))
    assert manifest["format_version"] == FORMAT_VERSIONS["corpus"] == 7
    assert "n_samples" not in manifest


def pdf_eval(work, store, out):
    return run(["pdf-eval", "--model", work / "pdf" / "model.json", "--corpus", store,
                "--out", out])


# The manifest's field table, each field under the store file that held it in
# version 5: load_store checks them all in the manifest once
# load_checked_json has taken off the envelope and the checksum.
STORE_JSON_FILES = {
    "manifest.json": {field: kind for field, kind in corpus._MANIFEST_FIELDS.items()
                      if field not in COUNTS_JSON_COLUMNS},
    "counts.json": {field: corpus._MANIFEST_FIELDS[field] for field in COUNTS_JSON_COLUMNS},
}


@pytest.mark.parametrize("name", STORE_JSON_FILES)
def test_a_store_field_outside_its_table_is_a_data_error(tmp_path, envelope_files, capsys,
                                                          name):
    """A store manifest holds exactly its table's fields, those of its own
    and the columns counts.json once held; each field's name misspelt, as a
    generator spec's `n_sample` once was, is refused naming the manifest and
    the key, the manifest re-signed so that the field rule and not the
    checksum refuses it.  The manifest's `extra` stays free-form."""
    fields = STORE_JSON_FILES[name]
    source = envelope_files / "synth" / "corpus"
    payload = json.loads((source / "manifest.json").read_text("utf-8"))
    assert set(payload) == set(corpus._MANIFEST_FIELDS) | {"format", "format_version",
                                                            "checksum"}
    for field in fields:
        store, key = tmp_path / field, field[:-1]
        shutil.copytree(source, store)
        edit_manifest(store, lambda m: m.update({key: m[field]}))
        capsys.readouterr()
        assert pdf_eval(envelope_files, store, tmp_path / "o") == 2
        assert f"{store / 'manifest.json'}: unknown field {key!r}\n" in \
            capsys.readouterr().err
    if name == "counts.json":
        return
    store = tmp_path / "free-form"
    shutil.copytree(source, store)
    edit_manifest(store, lambda m: m.update(extra={"n_samples": 120, "note": [1, {"any": None}]}))
    assert pdf_eval(envelope_files, store, tmp_path / "o") == 0


def old_store(store, version):
    """Turn a store into a version 4 or 5 one: counts.json holds the JSON
    columns (and in version 4 the integer ones, with no counts.npy) beside an
    indented, unchecked manifest holding the data files' SHA-256."""
    manifest = json.loads((store / "manifest.json").read_text("utf-8"))
    del manifest["checksum"]
    payload = {name: manifest.pop(name) for name in COUNTS_JSON_COLUMNS}
    if version == 4:
        payload.update({name: column.tolist() for name, column in npy_columns(store).items()})
        (store / "counts.npy").unlink()
        del manifest["counts_npy_sha256"]
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"
    (store / "counts.json").write_text(text, "utf-8")
    manifest.update(format_version=version, counts_sha256=checksum(text))
    (store / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                         "utf-8")


def assert_old_store_refused(tmp_path, envelope_files, capsys, version):
    store = tmp_path / "store"
    shutil.copytree(envelope_files / "synth" / "corpus", store)
    old_store(store, version)
    capsys.readouterr()
    assert pdf_eval(envelope_files, store, tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"traitlex: {store / 'manifest.json'}: unsupported format version {version} in field "
        "'format_version'; rerun ingest to write a version 7 file\n")


def test_a_version_4_store_is_refused_by_pdf_eval_with_the_rerun_hint(tmp_path,
                                                                      envelope_files, capsys):
    """A version 4 store held the integer columns as counts.json lists."""
    assert_old_store_refused(tmp_path, envelope_files, capsys, 4)


def test_a_version_5_store_is_refused_by_pdf_eval_with_the_rerun_hint(tmp_path,
                                                                      envelope_files, capsys):
    """A version 5 store held its JSON columns in counts.json."""
    assert_old_store_refused(tmp_path, envelope_files, capsys, 5)


@pytest.mark.parametrize("field,value", [
    ("lexicon_name", "other"), ("lexicon_version", "v2"),
    ("policy", corpus.INGEST_DEFAULT.to_dict()),
    ("extra", {"note": "edited"}), ("ids", At(1, "s99999")), ("scores", {}),
])
def test_a_hand_edited_manifest_is_a_checksum_mismatch(tmp_path, envelope_files, capsys,
                                                       field, value):
    """An edit that keeps the manifest valid and its old checksum is refused
    before any field is read."""
    store = tmp_path / "store"
    shutil.copytree(envelope_files / "synth" / "corpus", store)
    path = store / "manifest.json"
    raw = path.read_bytes()
    payload = json.loads(raw)
    if isinstance(value, At):
        payload[field][value.index] = value.value
    else:
        payload[field] = value
    del payload["checksum"]
    path.write_bytes(raw[:PREFIX] + _util.canonical_json(payload)[1:].encode() + b"\n")
    capsys.readouterr()
    assert pdf_eval(envelope_files, store, tmp_path / "o") == 2
    assert capsys.readouterr().err == f"traitlex: {path}: checksum mismatch\n"


# --- CSV fields that need quoting -----------------------------------------------------

def csv_rows(path):
    """The rows of a CSV file, each a dict keyed by the header."""
    with path.open("r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


QUOTED_IDS = ("a,b", 'q"x', "line\nbreak", "cr\rid")


def test_sample_ids_that_need_quoting_round_trip(tmp_path):
    """Ids holding a comma, a quote, \\n or \\r come back from rejections.csv,
    predictions.csv and skipped.csv as they went into ingest."""
    rng = np.random.default_rng(5)
    long, short = QUOTED_IDS[0::2], QUOTED_IDS[1::2]  # pdf-stage skips texts of 30 words
    records = [{"id": sid, "text": " ".join(rng.choice(MOODS, size=1200 if sid in long else 30)),
                "lang": "en", "scores": {"N": score}}
               for sid, score in zip(QUOTED_IDS, (0.2, 0.4, 0.6, 0.8))]
    records += [{"id": f"short {sid}", "text": "happy", "lang": "en"} for sid in QUOTED_IDS]
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")
    store = tmp_path / "store"
    assert run(["ingest", "--input", raw, "--out", store, "--policy", "none",
                "--min-words", 10]) == 0
    assert [(r["sample_id"], r["reason"]) for r in csv_rows(store / "rejections.csv")] == [
        (f"short {sid}", "min_words") for sid in QUOTED_IDS]
    assert run(["pdf-build", "--corpus", store, "--trait", "N", "--bins", 4,
                "--min-word-freq", 0, "--alpha", 0.5, "--out", tmp_path / "m"]) == 0
    model = ["--model", tmp_path / "m" / "model.json", "--corpus", store]
    for command in ("pdf-predict", "pdf-eval"):
        for policy, scored, skipped in (("none", QUOTED_IDS, ()), ("pdf-stage", long, short)):
            out = tmp_path / f"{command}-{policy}"
            assert run([command, *model, "--policy", policy, "--out", out]) == 0
            assert [r["sample_id"] for r in csv_rows(out / "predictions.csv")] == list(scored)
            assert [(r["sample_id"], r["reason"]) for r in csv_rows(out / "skipped.csv")] == [
                (sid, "min_words") for sid in skipped]


def bundled_survey(catalog):
    """Answers to the bundled catalog's travel_ban question, whose labels hold
    commas: 60 respondents "r,<i>" whose answer follows item 2, of whom "r,1"
    breaks the duplicate pair (1, 7)."""
    rng = np.random.default_rng(3)
    items = rng.integers(1, 6, size=(60, commonsense.N_ITEMS))
    ((a, b),) = catalog.duplicate_pairs
    items[:, b - 1] = items[:, a - 1]
    items[1, [a - 1, b - 1]] = 1, 5
    return commonsense.SurveyDataset(tuple(f"r,{i}" for i in range(60)), items,
                                     {"travel_ban": np.where(items[:, 1] >= 3, 0, 1)})


def test_answer_labels_and_respondent_ids_that_hold_commas_round_trip(tmp_path, capsys):
    """With the bundled catalog, answers.csv and cs-predict's stdout hold
    each predicted label as one field, and rejected.csv the rejected id."""
    commonsense.save_survey_csv(bundled_survey(commonsense.load_catalog()),
                                tmp_path / "survey.csv")
    assert run(["cs-train", "--survey", tmp_path / "survey.csv", "--algorithms",
                "decision_tree", "--k", 3, "--out", tmp_path / "cs"]) == 0
    assert csv_rows(tmp_path / "cs" / "rejected.csv") == [
        {"respondent_id": "r,1", "item_a": "1", "item_b": "7"}]
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    bank = tmp_path / "cs" / "bank.json"
    expected = commonsense.predict_with_bank(commonsense.load_bank(bank), [5] * 50)
    assert "," in expected["travel_ban"]
    capsys.readouterr()
    assert run(["cs-predict", "--bank", bank, "--answers-file", answers]) == 0
    stdout = capsys.readouterr().out
    assert [tuple(row) for row in csv.reader(stdout.splitlines())] == list(expected.items())
    assert run(["cs-predict", "--bank", bank, "--answers-file", answers,
                "--out", tmp_path / "p"]) == 0
    rows = csv_rows(tmp_path / "p" / "answers.csv")
    assert [(r["qid"], r["predicted_label"]) for r in rows] == list(expected.items())


def test_failure_messages_are_written_verbatim(tmp_path):
    """failures.csv holds a question id and a message with commas as they are."""
    bundled = commonsense.load_catalog()
    stuck = commonsense.CommonsenseQuestion("one,class", "Stuck?", ("yes", "no"))
    commonsense.save_catalog(replace(bundled, questions=bundled.questions + (stuck,)),
                             tmp_path / "catalog.json")
    survey = bundled_survey(bundled)
    survey = replace(survey, answers={**survey.answers, "one,class": np.zeros(survey.n, int)})
    commonsense.save_survey_csv(survey, tmp_path / "survey.csv")
    assert run(["cs-train", "--survey", tmp_path / "survey.csv", "--catalog",
                tmp_path / "catalog.json", "--algorithms", "knn", "--k", 3,
                "--out", tmp_path / "cs"]) == 0
    assert csv_rows(tmp_path / "cs" / "failures.csv") == [
        {"qid": "one,class", "algorithm": "knn",
         "message": "question 'one,class': answers contain a single class"}]


# --- run.json ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def every_run(tmp_path_factory):
    """One run of each subcommand, written to work/<command>; the work
    directory and each command's flags."""
    work = tmp_path_factory.mktemp("runs")
    corpus = work / "synth" / "corpus"
    raw = work / "raw.jsonl"
    body = " ".join(["a happy big day for the dog and the cat went on"] * 10)
    raw.write_text(json.dumps({"id": "t0", "text": body, "lang": "en"}) + "\n", "utf-8")
    survey = work / "survey.csv"  # synth's survey, answering a bundled catalog question
    answers = work / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    model = ["--corpus", corpus, "--model", work / "pdf-build" / "model.json"]
    argvs = {
        "synth": ["--spec", write_spec(work / "spec.json")],
        "ingest": ["--input", raw, "--min-words", 50],
        "distribution": ["--corpus", corpus, "--trait", "N"],
        "pdf-build": ["--corpus", corpus, "--trait", "N", "--bins", 4, "--min-word-freq", 0],
        "pdf-predict": model,
        "pdf-eval": model + ["--policy", "none"],
        "ml-train": ["--corpus", corpus, "--trait", "N", "--algorithm", "knn", "--k", 3],
        "ml-eval": ["--corpus", corpus, "--trait", "N",
                    "--model", work / "ml-train" / "model.json"],
        "cs-train": ["--survey", survey, "--algorithms", "knn", "--k", 4],
        "cs-predict": ["--bank", work / "cs-train" / "bank.json", "--answers-file", answers],
    }
    argvs = {c: [str(a) for a in argv + ["--out", work / c]] for c, argv in argvs.items()}
    for command, argv in argvs.items():
        assert main([command] + argv) == 0, command
        if command == "synth":
            text = (work / "synth" / "survey.csv").read_text("utf-8")
            survey.write_text(text.replace("a_ruled", "a_travel_ban"), "utf-8")
    return work, argvs


# The values a handler resolves, written over the parsed flags.
RESOLVED = {
    "ingest": {"lexicon": "builtin", "policy": {
        "min_words": 50, "max_words": None, "required_lang": "en",
        "min_adjective_total_freq": 0}},
    "ml-train": {"hyperparams": {"k": 3}},
    "cs-train": {"catalog": "builtin"},
    "synth": {"seed": 11, "generator": synthgen.GENERATOR_NAME},
}


def subparser_dests(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help"}


@pytest.mark.parametrize("command", [
    "synth", "ingest", "distribution", "pdf-build", "pdf-predict", "pdf-eval",
    "ml-train", "ml-eval", "cs-train", "cs-predict",
])
def test_run_json_records_every_flag(every_run, command):
    work, argvs = every_run
    manifest = json.loads((work / command / "run.json").read_text("utf-8"))
    assert manifest["command"] == command
    assert manifest["format_versions"] == FORMAT_VERSIONS
    arguments = manifest["arguments"]
    resolved = RESOLVED.get(command, {})
    assert set(arguments) == subparser_dests(command) | set(resolved)
    parsed = vars(build_parser().parse_args([command] + argvs[command]))
    for key, value in arguments.items():
        assert value == resolved.get(key, parsed.get(key)), key


# --- plumbing -----------------------------------------------------------------------

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert "traitlex 0.1.0" in out
    assert "pdf-model-format=3" in out
    assert "ml-model-format=6" in out and "bank-format=7" in out


def test_readme_states_the_current_format_versions():
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    stated = re.findall(r"`([\w-]+)` format version (\d+)", readme)
    assert {name for name, _ in stated} >= {"corpus", "pdf-model", "ml-model", "bank"}
    for name, version in stated:
        assert int(version) == FORMAT_VERSIONS[name], f"README: `{name}` format version {version}"


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "traitlex:" in capsys.readouterr().err


def test_missing_file_is_data_error(tmp_path, capsys):
    code = run(["pdf-build", "--corpus", tmp_path / "nope", "--trait", "N",
                "--out", tmp_path / "out"])
    assert code == 2
    assert "traitlex:" in capsys.readouterr().err


# --- one parser per process ---------------------------------------------------------

def test_main_builds_the_parser_once(tmp_path, knn_bank, monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._shared_parser.cache_clear()
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["5"] * 50) + "\n", "utf-8")
    try:
        for _ in range(3):
            assert run(["cs-predict", "--bank", knn_bank, "--answers-file", answers]) == 0
            assert run(["frobnicate"]) == 1
    finally:
        cli._shared_parser.cache_clear()
    assert len(builds) == 1


def in_process(argv):
    """The exit code of main(argv), `--help` and `--version` included."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def test_a_used_parser_runs_like_a_fresh_process(tmp_path, knn_bank, monkeypatch, capsys):
    """Each call's exit code, stdout, stderr and run.json equal those of the
    same call in a new process, after the shared parser has refused one
    command line and printed the version and a help text."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the terminal width
    answers = tmp_path / "answers.txt"
    answers.write_text(" ".join(["4"] * 50) + "\n", "utf-8")
    raw = tmp_path / "raw.jsonl"
    body = " ".join(["a happy big day for the dog and the cat went on"] * 10)
    raw.write_text(json.dumps({"id": "t0", "text": body, "lang": "en"}) + "\n", "utf-8")
    out = tmp_path / "out"
    calls = [
        ["ingest", "--input", raw],  # no --out: a usage error
        ["--version"],
        ["cs-predict", "--help"],
        ["cs-predict", "--bank", knn_bank, "--answers-file", answers, "--out", out],
        ["ingest", "--input", raw, "--min-words", 50, "--out", out],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))

    def manifest():
        path = out / "run.json"
        found = path.read_bytes() if path.exists() else None
        shutil.rmtree(out, ignore_errors=True)
        return found

    capsys.readouterr()
    for argv in calls:
        argv = [str(a) for a in argv]
        code = in_process(argv)
        stdout, stderr = capsys.readouterr()
        written = manifest()
        fresh = subprocess.run([sys.executable, "-m", "traitlex.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, stdout, stderr) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert written == manifest(), argv


def test_no_flag_has_a_mutable_default():
    """parse_args on the shared parser would hand every call the same list,
    dict or set."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, p in [("traitlex", parser), *sub.choices.items()]:
        defaults = [a.default for a in p._actions] + list(p._defaults.values())
        assert not any(isinstance(d, (list, dict, set)) for d in defaults), name
