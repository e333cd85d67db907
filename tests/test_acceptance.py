"""End-to-end acceptance checks.

Each test here covers one numbered release criterion; the conftest hook
prints a PASS/FAIL line per criterion at the end of the run.  Several
tests are quantitative gates over synthetic data with fixed seeds, so
failures here mean behavior drifted, not that a flaky bound misfired.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from traitlex import commonsense, evaluation, mlcore, pdfmodel, synthgen
from traitlex.binning import BinningScheme
from traitlex.cli import main as cli_main
from traitlex.evaluation import (
    confusion_matrix,
    kfold_indices,
    mae,
    marginal_accuracy,
    rmse,
    train_test_split,
)
from traitlex.pdfmodel import PdfPersonalityModel, aggregate

DATA_DIR = Path(__file__).parent / "data"


def model_from_masses(masses, n_bins):
    binning = BinningScheme(lo=0.0, hi=1.0, n_bins=n_bins)
    vocab = tuple(sorted(masses))
    return PdfPersonalityModel(
        trait="N", binning=binning, g=np.ones(n_bins, dtype=int), vocab=vocab,
        counts=np.array([masses[w] for w in vocab]).reshape(len(vocab), n_bins),
        min_word_freq=0, smoothing_alpha=0.0,
    )


def test_c01_log_space_aggregation_matches_direct_product():
    rng = np.random.Generator(np.random.PCG64(1001))
    start = time.monotonic()
    for _ in range(1000):
        n_words = int(rng.integers(1, 8))
        masses = {}
        for j in range(n_words):
            m = rng.uniform(1e-6, 1.0, 8)
            masses[f"w{j}"] = m / m.sum()
        # distribute at most 20 total word draws over the vocabulary
        budget = int(rng.integers(1, 21))
        freqs = {}
        for j in range(n_words):
            if budget == 0:
                break
            f = int(rng.integers(1, budget + 1)) if j < n_words - 1 else budget
            freqs[f"w{j}"] = f
            budget -= f
        model = model_from_masses(masses, 8)
        got = aggregate(model, freqs).phi
        direct = np.ones(8)
        for w, f in freqs.items():
            direct *= masses[w] ** f
        direct /= direct.sum()
        np.testing.assert_allclose(got, direct, atol=1e-9)
    assert time.monotonic() - start < 5.0


def _recovery_corpora():
    vocab = synthgen.make_bin_vocab(
        n_bins=8, words_per_bin=40, overlap_fraction=0.6, seed=77
    )
    base = dict(words_per_sample=(1200, 3000), vocab=vocab)
    train_spec = synthgen.GeneratorSpec(seed=101, n_samples=2000, **base)
    test_spec = synthgen.GeneratorSpec(seed=202, n_samples=500, **base)
    return synthgen.generate_corpus(train_spec), synthgen.generate_corpus(test_spec)


@pytest.fixture(scope="module")
def recovery_run():
    start = time.monotonic()
    train_store, test_store = _recovery_corpora()
    model = pdfmodel.build_model(train_store, "N", min_word_freq=300)
    result = evaluation.evaluate_pdf_model(model, test_store, margin=0.10)
    return result, time.monotonic() - start


def test_c02_synthetic_score_recovery(recovery_run):
    result, elapsed = recovery_run
    assert result.report.n == 500
    assert result.report.marginal_accuracy >= 0.90
    assert result.report.mae <= 0.05
    assert elapsed < 30.0


def test_c03_confidence_tracks_error(recovery_run):
    records = recovery_run[0].records
    overall = mae([r.label for r in records], [r.truth for r in records])
    confident = [r for r in records if r.confidence >= 3.0]
    assert confident, "no high-confidence predictions to compare"
    high = mae([r.label for r in confident], [r.truth for r in confident])
    assert high <= overall
    # the error curve must not rise while enough samples remain
    prev = None
    for point in recovery_run[0].curve:
        if point.n_retained >= 30:
            assert point.mae is not None
            if prev is not None:
                assert point.mae <= prev + 1e-12
            prev = point.mae


def test_c04_metric_exactness_and_reference_confusion():
    assert abs(mae([0.2, 0.4], [0.3, 0.5]) - 0.1) <= 1e-12
    assert abs(rmse([0.2, 0.4], [0.3, 0.5]) - 0.1) <= 1e-12
    assert abs(mae([0.1, 0.5], [0.3, 0.5]) - 0.1) <= 1e-12
    assert abs(rmse([0.1, 0.5], [0.3, 0.5]) - math.sqrt(0.02)) <= 1e-12
    assert marginal_accuracy([0.80], [0.90]) == 1.0
    assert marginal_accuracy([0.61], [0.50]) == 0.0
    assert marginal_accuracy([0.60], [0.50]) == 1.0

    lines = (DATA_DIR / "healthcare_pairs.csv").read_text("utf-8").splitlines()[1:]
    truth, pred = zip(*(line.split(",") for line in lines))
    cm = confusion_matrix(truth, pred, labels=["Agree", "Disagree"])
    np.testing.assert_array_equal(cm.counts, [[60, 20], [19, 41]])


def test_c05_learners_fit_separable_data(separable_dataset):
    ds = separable_dataset
    start = time.monotonic()
    for algorithm in ("perceptron", "mlp", "decision_tree", "random_forest_clf"):
        config = mlcore.TrainConfig(algorithm=algorithm, seed=0)
        model = mlcore.train(config, ds)
        accuracy = float(
            (mlcore.predict_dataset(model, ds) == ds.y_class).mean()
        )
        assert accuracy >= 0.95, f"{algorithm} reached only {accuracy:.3f}"
    cv = evaluation.cross_validate(
        mlcore.TrainConfig(algorithm="random_forest_clf", seed=0), ds, k=10, seed=0
    )
    assert cv.mean_accuracy >= 0.90
    assert time.monotonic() - start < 60.0


def test_c06_knn_equals_brute_force_scan():
    rng = np.random.Generator(np.random.PCG64(606))
    Xtr = rng.normal(0, 1, (150, 6))
    ytr = rng.integers(0, 5, 150)
    ds = mlcore.Dataset(
        feature_names=tuple(f"f{j}" for j in range(6)),
        X=Xtr, y_class=ytr, y_score=None,
    )
    model = mlcore.train(mlcore.TrainConfig(algorithm="knn"), ds)
    queries = rng.normal(0, 1, (200, 6))
    got = mlcore.predict_many(model, queries)
    classes = np.unique(ytr)
    y_idx = np.searchsorted(classes, ytr)
    for i in range(200):
        d2 = ((Xtr - queries[i]) ** 2).sum(axis=1)
        order = sorted(range(150), key=lambda r: (d2[r], r))[:5]
        votes = np.zeros(len(classes), dtype=int)
        for r in order:
            votes[y_idx[r]] += 1
        assert got[i] == classes[int(np.argmax(votes))]


def test_c07_split_and_fold_shapes():
    for n in (20, 23, 100):
        folds = kfold_indices(n, 10, seed=3)
        together = np.concatenate([test for _, test in folds])
        assert sorted(together) == list(range(n))
        sizes = [len(test) for _, test in folds]
        assert max(sizes) - min(sizes) <= 1
        again = kfold_indices(n, 10, seed=3)
        for (tr_a, te_a), (tr_b, te_b) in zip(folds, again):
            np.testing.assert_array_equal(tr_a, tr_b)
            np.testing.assert_array_equal(te_a, te_b)

    X = np.arange(100, dtype=float).reshape(100, 1)
    ds = mlcore.Dataset(feature_names=("f0",), X=X,
                        y_class=np.arange(100) % 2, y_score=None)
    train_ds, test_ds = train_test_split(ds, seed=0)
    assert (train_ds.n, test_ds.n) == (67, 33)
    train_again, _ = train_test_split(ds, seed=0)
    np.testing.assert_array_equal(train_ds.X, train_again.X)


RULES = {
    "single_low": synthgen.SurveyRule(conditions=((7, 3),)),
    "single_high": synthgen.SurveyRule(conditions=((12, 4),)),
    "pair_a": synthgen.SurveyRule(conditions=((3, 3), (30, 3))),
    "pair_b": synthgen.SurveyRule(conditions=((21, 3), (44, 4))),
    "single_mid": synthgen.SurveyRule(conditions=((48, 3),)),
}


@pytest.fixture(scope="module")
def rule_survey_300():
    spec = synthgen.GeneratorSpec(
        seed=808, n_samples=0, words_per_sample=(1, 1),
        vocab=synthgen.make_bin_vocab(8, 2, 0.0, seed=1),
        survey=synthgen.SurveySpec(
            n_respondents=300,
            questions=tuple(
                synthgen.SurveyQuestionSpec(id=qid, n_labels=2, rule=rule)
                for qid, rule in RULES.items()
            ),
        ),
    )
    return synthgen.generate_survey(spec)


def test_c08_commonsense_rules_recovered(rule_survey_300):
    survey, questions = rule_survey_300
    config = mlcore.TrainConfig(
        algorithm="random_forest_clf", seed=0, hyperparams={"n_trees": 100}
    )
    result = commonsense.train_all(survey, questions, [config], k=10, seed=0)
    assert not result.failures
    accuracy = {row.qid: row.cv_accuracy_postfusion for row in result.rows}
    for qid in RULES:
        assert accuracy[qid] >= 0.90, f"{qid} reached only {accuracy[qid]:.3f}"

    # every rule-driving item survives the correlation screen
    X = survey.item_matrix()
    for qid, rule in RULES.items():
        kept = set(
            int(j) for j in commonsense.correlation_filter(
                X, survey.answers[qid], min_abs_r=0.05
            )
        )
        driving = {item - 1 for item in rule.items}
        assert driving <= kept, f"{qid} lost items {driving - kept}"

    # label fusion on the documented four-way split
    answers = np.repeat([0, 1, 2, 3], [25, 17, 10, 48])
    fused = commonsense.fuse_labels(answers, {0: 0, 2: 0, 1: 1, 3: 1})
    counts = np.bincount(fused, minlength=2)
    assert list(counts) == [35, 65]


def _pipeline_bytes(base: Path, spec_path: Path) -> dict:
    synth_out = base / "synth"
    model_out = base / "model"
    eval_out = base / "eval"
    assert cli_main(["synth", "--spec", str(spec_path),
                     "--out", str(synth_out)]) == 0
    assert cli_main(["pdf-build", "--corpus", str(synth_out / "corpus"),
                     "--trait", "N", "--bins", "4", "--min-word-freq", "0",
                     "--out", str(model_out)]) == 0
    assert cli_main(["pdf-eval", "--model", str(model_out / "model.json"),
                     "--corpus", str(synth_out / "corpus"), "--policy", "none",
                     "--out", str(eval_out)]) == 0
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*")) if p.is_file()
    }


def test_c09_reruns_are_byte_identical(tmp_path):
    vocab = synthgen.make_bin_vocab(4, 6, 0.25, seed=909)
    spec = synthgen.GeneratorSpec(
        seed=909, n_samples=60, words_per_sample=(1200, 2000),
        vocab=vocab, binning=BinningScheme(lo=0.1, hi=0.9, n_bins=4),
    )
    spec_path = tmp_path / "spec.json"
    synthgen.save_generator_spec(spec, spec_path)

    first = _pipeline_bytes(tmp_path / "a", spec_path)
    second = _pipeline_bytes(tmp_path / "b", spec_path)
    assert first.keys() == second.keys()
    assert sum(name.endswith("run.json") for name in first) == 3
    # a run.json names its own rerun's directory, and nothing else may differ
    a_dir, b_dir = str(tmp_path / "a").encode(), str(tmp_path / "b").encode()
    for name in first:
        if name.endswith("run.json"):
            first[name] = first[name].replace(a_dir, b_dir)
        assert first[name] == second[name], f"{name} differs between reruns"

    # loading a saved model must predict exactly like the in-memory one
    store = synthgen.generate_corpus(spec)
    model = pdfmodel.build_model(store, "N", min_word_freq=0)
    pdfmodel.save_model(model, tmp_path / "m.json")
    loaded = pdfmodel.load_model(tmp_path / "m.json")
    for sample in store.samples[:20]:
        a = pdfmodel.predict(model, sample)
        b = pdfmodel.predict(loaded, sample)
        assert (a.label, a.confidence) == (b.label, b.confidence)
        np.testing.assert_array_equal(a.phi, b.phi)


def test_c10_reference_figures_documented_not_asserted():
    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    for figure in ("15.5", "19.5", "10.5", "82.2", "88.2", "97"):
        assert figure in readme, f"README is missing the {figure} figure"
    lowered = readme.lower()
    assert "not reproducible" in lowered or "cannot be reproduced" in lowered
