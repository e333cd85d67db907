"""The survey commands end to end: synth, cs-train and cs-predict output bytes.

The digests below were recorded with the code that held one
`QuestionnaireResponse` object per respondent and screened each question's
labels again for every learner.  The item matrix that replaced them must
reproduce every output byte for byte.  The `bank.json` digests were recorded
again for bank format 4, whose models no longer store the fields the loader
derives (`kind`, the trees' `right` and `n_classes`, knn's `n_classes`), and
for bank format 5, whose entries no longer store `selected_items` (the
model's feature names give them) or a `format` and `format_version` per model,
and for bank format 6, whose entries are a list (each under its question's
own id) and whose models no longer store tree `roots` or knn's `k` in params.
"""

import hashlib
import json

import pytest

from traitlex import commonsense, synthgen
from traitlex.cli import main

ALGORITHMS = "knn,decision_tree,random_forest_clf,perceptron"
THRESHOLDS = {"r0": ("--min-abs-r", 0), "default": ()}
PROBES = {
    "mixed": [i * 7 % 5 + 1 for i in range(commonsense.N_ITEMS)],
    "low": [1] * commonsense.N_ITEMS,
}


def run(*args):
    return main([str(a) for a in args])


def write_spec(path):
    """Five questions: two driven by rules, one of four uniform labels, one
    whose rule always fires (a single class) and one whose two labels the
    catalog's fusion map merges into one."""
    rule = synthgen.SurveyRule
    spec = synthgen.GeneratorSpec(
        seed=41, n_samples=0, words_per_sample=(1, 1),
        vocab=synthgen.make_bin_vocab(8, 2, 0.0, seed=41),
        survey=synthgen.SurveySpec(n_respondents=160, questions=(
            synthgen.SurveyQuestionSpec(id="ruled", n_labels=2,
                                        rule=rule(conditions=((7, 3),))),
            synthgen.SurveyQuestionSpec(id="paired", n_labels=3, rule=rule(
                conditions=((12, 3), (30, 4)), label_if_true=2, label_if_false=0)),
            synthgen.SurveyQuestionSpec(id="fused", n_labels=4),
            synthgen.SurveyQuestionSpec(id="stuck", n_labels=2,
                                        rule=rule(conditions=((1, 1),))),
            synthgen.SurveyQuestionSpec(id="collapsed", n_labels=4, rule=rule(
                conditions=((20, 3),), label_if_true=2, label_if_false=3)),
        )),
    )
    synthgen.save_generator_spec(spec, path)


def question(qid, labels, fusion_map=None):
    return {"id": qid, "text": f"question {qid}", "labels": list(labels),
            "fusion_map": fusion_map}


def write_catalog(path):
    """The synthetic questions with fusion maps, and one duplicate pair that
    about half the uniform respondents fail."""
    pairs = {"0": 0, "1": 0, "2": 1, "3": 1}
    path.write_text(json.dumps({
        "format": commonsense.CATALOG_FORMAT,
        "format_version": commonsense.CATALOG_FORMAT_VERSION,
        "questionnaire_items": [f"item {i}" for i in range(1, commonsense.N_ITEMS + 1)],
        "duplicate_pairs": [[5, 40]],
        "questions": [
            question("collapsed", "abcd", pairs),
            question("fused", ("agree", "lean agree", "lean disagree", "disagree"), pairs),
            question("paired", ("low", "mid", "high")),
            question("ruled", ("no", "yes")),
            question("stuck", ("x", "y", "z"), {"0": 0, "1": 1, "2": 1}),
        ],
    }), "utf-8")


def run_pipeline(root):
    """synth, then cs-train at each threshold and cs-predict for each probe."""
    write_spec(root / "spec.json")
    write_catalog(root / "catalog.json")
    assert run("synth", "--spec", root / "spec.json", "--out", root / "synth") == 0
    for name, flags in THRESHOLDS.items():
        train = root / f"train-{name}"
        assert run("cs-train", "--survey", root / "synth" / "survey.csv",
                   "--catalog", root / "catalog.json", "--algorithms", ALGORITHMS,
                   "--k", 4, "--seed", 3, "--trees", 5, *flags, "--out", train) == 0
        for probe, values in PROBES.items():
            answers = root / f"{probe}.txt"
            answers.write_text(" ".join(map(str, values)) + "\n", "utf-8")
            assert run("cs-predict", "--bank", train / "bank.json", "--answers-file",
                       answers, "--out", root / f"predict-{name}-{probe}") == 0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("survey")
    run_pipeline(root)
    return root


OUTPUT_DIGESTS = {
    "synth/survey.csv": "de6a3e21c9433b82a5c453dc2ad0ea407f29684259e6a47723a0405c20f4646c",
    "synth/catalog.json": "63eb801e23a5fa4c3cd3781bf110bcd407d404335dc4cfac78a52faa66dcb511",
    "train-r0/report.csv": "67ea2419f7468b346702dd67c61fb99e367454afd5d6e8d14d040bdab24d407b",
    "train-r0/failures.csv": "632e46c9e9da6e549e96387055950d3b1ca468c1fe8abb3ab480cae21730f3c8",
    "train-r0/rejected.csv": "bfccece215a9510b428d79629f323c00f1857020f2928ce63e0aeff42c7d51b3",
    "train-r0/bank.json": "6d0f9dc6b2675d8411c53071aa4f064bf7c98f64bfc532cf7d444ebb3a4052ec",
    "predict-r0-mixed/answers.csv": "36377e3ca0c8fac76b3b924aed6673e43cf5007c4aa154c8c8e76b487c9d3bc0",
    "predict-r0-low/answers.csv": "85b0a579a43ecff1efbaf43963139c1e0b341088a5fcae3f78aa8a10f243e8a3",
    "train-default/report.csv": "73e1b4d49bc17c19acfc1b10da7628edcdb7f0ebc8b664a4d544e06b20cea19e",
    "train-default/failures.csv": "632e46c9e9da6e549e96387055950d3b1ca468c1fe8abb3ab480cae21730f3c8",
    "train-default/rejected.csv": "bfccece215a9510b428d79629f323c00f1857020f2928ce63e0aeff42c7d51b3",
    "train-default/bank.json": "2a4e5c64fd66e16268864170cab463e8fe9efb900df83677b126b6d697bc68e0",
    "predict-default-mixed/answers.csv": "5076e267c821737a39da642cc3f77d64da1443f95b1a4fabee3114c2bba343b5",
    "predict-default-low/answers.csv": "85b0a579a43ecff1efbaf43963139c1e0b341088a5fcae3f78aa8a10f243e8a3",
}


def test_survey_outputs_keep_their_bytes(pipeline):
    got = {
        name: hashlib.sha256((pipeline / name).read_bytes()).hexdigest()
        for name in OUTPUT_DIGESTS
    }
    assert got == OUTPUT_DIGESTS
    # the recorded outputs cover both data-level failures, rejected
    # respondents and a question whose fusion changes its score
    failures = (pipeline / "train-r0/failures.csv").read_text("utf-8").splitlines()[1:]
    messages = {row.split(",")[0]: row.split(",")[2] for row in failures}
    assert messages == {"collapsed": "question 'collapsed': fusion left a single class",
                        "stuck": "question 'stuck': answers contain a single class"}
    assert len(failures) == 2 * len(ALGORITHMS.split(","))
    assert len((pipeline / "train-r0/rejected.csv").read_text("utf-8").splitlines()) > 1
    report = (pipeline / "train-r0/report.csv").read_text("utf-8").splitlines()[1:]
    fused = [row.split(",")[2:] for row in report if row.startswith("fused,")]
    assert any(pre != post for pre, post in fused)
