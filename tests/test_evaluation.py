import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitlex import evaluation, mlcore
from traitlex.errors import DatasetError, TrainingError
from traitlex.evaluation import (
    DEFAULT_CONFIDENCE_GRID,
    EvalReport,
    confidence_curve,
    confusion_matrix,
    cross_validate,
    cross_validate_all,
    evaluate_scores,
    exact_accuracy,
    kfold_indices,
    mae,
    marginal_accuracy,
    rmse,
    train_test_split,
)

DATA_DIR = Path(__file__).parent / "data"


# --- point metrics ----------------------------------------------------------------

def test_zero_error_when_equal():
    assert mae([0.5, 0.2], [0.5, 0.2]) == 0.0
    assert rmse([0.5, 0.2], [0.5, 0.2]) == 0.0


def test_hand_computed_mae_rmse_equal_offsets():
    assert mae([0.2, 0.4], [0.3, 0.5]) == pytest.approx(0.1, abs=1e-12)
    assert rmse([0.2, 0.4], [0.3, 0.5]) == pytest.approx(0.1, abs=1e-12)


def test_hand_computed_rmse_unequal_offsets():
    assert mae([0.1, 0.5], [0.3, 0.5]) == pytest.approx(0.1, abs=1e-12)
    assert rmse([0.1, 0.5], [0.3, 0.5]) == pytest.approx(math.sqrt(0.02), abs=1e-12)


def test_length_mismatch_and_empty_rejected():
    with pytest.raises(DatasetError):
        mae([0.1], [0.1, 0.2])
    with pytest.raises(DatasetError):
        rmse([], [])
    with pytest.raises(DatasetError):
        marginal_accuracy([], [])


def test_marginal_accuracy_boundaries():
    assert marginal_accuracy([0.80], [0.90]) == 1.0
    assert marginal_accuracy([0.61], [0.50]) == 0.0
    assert marginal_accuracy([0.60], [0.50]) == 1.0  # inclusive at the margin


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=30),
    st.lists(st.floats(min_value=0, max_value=1), min_size=30, max_size=30),
)
def test_rmse_dominates_mae(pred, truth):
    t = truth[: len(pred)]
    assert rmse(pred, t) >= mae(pred, t) - 1e-12


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20),
    st.lists(st.floats(min_value=0, max_value=1), min_size=20, max_size=20),
)
def test_marginal_accuracy_monotone_in_margin(pred, truth):
    t = truth[: len(pred)]
    margins = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0]
    values = [marginal_accuracy(pred, t, m) for m in margins]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_report_validates_rmse_floor():
    with pytest.raises(DatasetError):
        EvalReport(mae=0.5, rmse=0.1, marginal_accuracy=1.0, margin=0.1, n=3)


def test_evaluate_scores_bundle():
    report = evaluate_scores([0.2, 0.4], [0.3, 0.5])
    assert report.mae == pytest.approx(0.1, abs=1e-12)
    assert report.n == 2
    assert report.margin == 0.1


# --- splits ------------------------------------------------------------------------

def make_ds(n):
    X = np.arange(n, dtype=float).reshape(n, 1)
    return mlcore.Dataset(feature_names=("f0",), X=X,
                          y_class=np.arange(n) % 2, y_score=None)


def test_split_100_gives_67_33():
    train_ds, test_ds = train_test_split(make_ds(100), seed=4)
    assert train_ds.n == 67
    assert test_ds.n == 33


def test_split_3_gives_2_1():
    train_ds, test_ds = train_test_split(make_ds(3), 0.67, seed=1)
    assert (train_ds.n, test_ds.n) == (2, 1)


def test_split_is_disjoint_and_exhaustive():
    train_ds, test_ds = train_test_split(make_ds(50), seed=9)
    seen = np.concatenate([train_ds.X[:, 0], test_ds.X[:, 0]])
    assert sorted(seen) == list(range(50))


def test_split_deterministic_by_seed():
    a = train_test_split(make_ds(40), seed=5)
    b = train_test_split(make_ds(40), seed=5)
    np.testing.assert_array_equal(a[0].X, b[0].X)
    c = train_test_split(make_ds(40), seed=6)
    assert not np.array_equal(a[0].X, c[0].X)


def test_split_rejects_bad_fraction():
    with pytest.raises(DatasetError):
        train_test_split(make_ds(10), 0.0)
    with pytest.raises(DatasetError):
        train_test_split(make_ds(10), 1.0)


def test_kfold_20_by_10():
    folds = kfold_indices(20, 10, seed=0)
    assert all(len(test) == 2 for _, test in folds)


def test_kfold_23_by_10_fold_sizes():
    folds = kfold_indices(23, 10, seed=0)
    sizes = sorted((len(test) for _, test in folds), reverse=True)
    assert sizes == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]


@pytest.mark.parametrize("n,k", [(20, 10), (23, 10), (100, 10), (7, 3)])
def test_kfold_partitions_rows(n, k):
    folds = kfold_indices(n, k, seed=2)
    all_test = np.concatenate([test for _, test in folds])
    assert sorted(all_test) == list(range(n))
    for train_idx, test_idx in folds:
        assert set(train_idx) & set(test_idx) == set()
        assert len(train_idx) + len(test_idx) == n
        assert abs(len(test_idx) - n // k) <= 1


def test_kfold_deterministic():
    a = kfold_indices(30, 5, seed=3)
    b = kfold_indices(30, 5, seed=3)
    for (ta, sa), (tb, sb) in zip(a, b):
        np.testing.assert_array_equal(ta, tb)
        np.testing.assert_array_equal(sa, sb)


def test_kfold_k_must_fit():
    with pytest.raises(DatasetError):
        kfold_indices(5, 6)
    with pytest.raises(DatasetError):
        kfold_indices(5, 1)


def test_kfold_datasets_carry_labels():
    ds = make_ds(10)
    pairs = [(ds.take(train), ds.take(test)) for train, test in kfold_indices(ds.n, 5, seed=0)]
    assert len(pairs) == 5
    for train_ds, test_ds in pairs:
        assert train_ds.n == 8 and test_ds.n == 2


# --- cross_validate ----------------------------------------------------------------

def perfect_feature_ds(n=40):
    y = np.arange(n) % 4
    X = y.reshape(-1, 1).astype(float)
    return mlcore.Dataset(feature_names=("f0",), X=X, y_class=y, y_score=None)


def test_cv_perfect_feature_scores_one():
    cv = cross_validate(mlcore.TrainConfig(algorithm="decision_tree"),
                        perfect_feature_ds(), k=10, seed=0)
    assert cv.mean_accuracy == 1.0
    assert len(cv.fold_accuracies) == 10


def test_cv_majority_class_baseline(rng):
    # uninformative features: knn accuracy hovers near the majority share
    n = 200
    y = (np.arange(n) < 140).astype(int)  # 70% class 0
    X = rng.normal(0, 1, (n, 2))
    ds = mlcore.Dataset(feature_names=("a", "b"), X=X, y_class=y, y_score=None)
    cv = cross_validate(mlcore.TrainConfig(algorithm="knn"), ds, k=10, seed=1)
    assert 0.45 <= cv.mean_accuracy <= 0.85


def test_cv_deterministic():
    ds = perfect_feature_ds()
    cfg = mlcore.TrainConfig(algorithm="knn")
    a = cross_validate(cfg, ds, k=5, seed=4)
    b = cross_validate(cfg, ds, k=5, seed=4)
    assert a.fold_accuracies == b.fold_accuracies


def test_cv_mean_is_arithmetic_mean(rng):
    X = rng.normal(0, 1, (30, 3))
    y = rng.integers(0, 2, 30)
    ds = mlcore.Dataset(feature_names=("a", "b", "c"), X=X, y_class=y, y_score=None)
    cv = cross_validate(mlcore.TrainConfig(algorithm="knn"), ds, k=6, seed=0)
    assert cv.mean_accuracy == pytest.approx(np.mean(cv.fold_accuracies), abs=1e-15)


def test_cv_regressor_uses_margin(rng):
    X = rng.normal(0, 1, (30, 2))
    y = np.full(30, 0.5)
    ds = mlcore.Dataset(feature_names=("a", "b"), X=X, y_class=None, y_score=y)
    cv = cross_validate(mlcore.TrainConfig(algorithm="linear_regression"),
                        ds, k=5, seed=0)
    assert cv.mean_accuracy == 1.0


def test_cross_validate_all_reports_each_pairs_first_failing_fold(monkeypatch):
    """Per pair, the fold results or the TrainingError of the first failing
    fold in fold order, alike in this process and from forked workers."""
    def rows_ds(n):
        X = np.arange(n, dtype=float).reshape(n, 1)  # each row holds its own index
        return mlcore.Dataset(feature_names=("f0",), X=X, y_class=np.arange(n) % 2,
                              y_score=None)

    fit = evaluation.train_many

    def fails_on_21_rows(config, ds, row_sets):
        # of 23 rows in 10 folds, folds 3 to 9 hold out 2 rows
        return [TrainingError(f"held out {sorted(set(range(23)) - set(rows.tolist()))}")
                if rows.size == 21 else model
                for rows, model in zip(row_sets, fit(config, ds, row_sets))]

    config = mlcore.TrainConfig(algorithm="knn")
    good = cross_validate(config, rows_ds(20), k=10, seed=0)
    monkeypatch.setattr(evaluation, "train_many", fails_on_21_rows)
    first = sorted(kfold_indices(23, 10, seed=0)[3][1].tolist())
    for cpus in (1, 4):
        monkeypatch.setattr(evaluation.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        ok, failed = cross_validate_all([(config, rows_ds(20)), (config, rows_ds(23))], k=10)
        assert ok == good
        assert isinstance(failed, TrainingError) and str(failed) == f"held out {first}"
        with pytest.raises(TrainingError, match=re.escape(f"held out {first}")):
            cross_validate(config, rows_ds(23), k=10)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_lone_pair_is_split_into_jobs_only_when_there_are_workers(monkeypatch, tmp_path,
                                                                     cpus):
    """On one CPU a pair's folds are one batch.  On two, one batch would leave
    a worker idle, so the folds form at least two jobs, which together fit
    each fold once and give the same result."""
    log = tmp_path / "jobs.log"
    fit = evaluation.train_many

    def logged(config, ds, row_sets):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{len(row_sets)}\n")
        return fit(config, ds, row_sets)

    gen = np.random.Generator(np.random.PCG64(5))
    ds = mlcore.Dataset(feature_names=("a", "b"), X=gen.normal(size=(40, 2)),
                        y_class=gen.integers(0, 2, 40), y_score=None)
    config = mlcore.TrainConfig(algorithm="decision_tree")
    alone = cross_validate(config, ds, k=5, seed=0)
    monkeypatch.setattr(evaluation, "train_many", logged)
    monkeypatch.setattr(evaluation.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert cross_validate(config, ds, k=5, seed=0) == alone
    jobs = [int(line) for line in log.read_text("utf-8").split()]
    assert sum(jobs) == 5
    assert (jobs == [5]) if cpus == 1 else (len(jobs) >= 2)


# --- confusion matrix -----------------------------------------------------------

def test_confusion_diagonal_when_equal():
    cm = confusion_matrix(["a", "b", "a"], ["a", "b", "a"], labels=["a", "b"])
    np.testing.assert_array_equal(cm.counts, [[2, 0], [0, 1]])
    assert cm.accuracy == 1.0


def test_confusion_reference_fixture():
    lines = (DATA_DIR / "healthcare_pairs.csv").read_text("utf-8").splitlines()[1:]
    pairs = [line.split(",") for line in lines]
    truth = [p[0] for p in pairs]
    pred = [p[1] for p in pairs]
    cm = confusion_matrix(truth, pred, labels=["Agree", "Disagree"])
    np.testing.assert_array_equal(cm.counts, [[60, 20], [19, 41]])
    assert cm.counts.sum() == 140


def test_confusion_unknown_label_rejected():
    with pytest.raises(DatasetError):
        confusion_matrix(["a"], ["c"], labels=["a", "b"])
    with pytest.raises(DatasetError):
        confusion_matrix(["a"], ["a"], labels=[])


# --- confidence curve ------------------------------------------------------------

def test_curve_constant_confidence():
    records = [(0.3, 0.35, 5.0), (0.5, 0.4, 5.0)]
    points = confidence_curve(records)
    overall = mae([0.3, 0.5], [0.35, 0.4])
    for p in points:
        if p.threshold <= 5.0:
            assert p.mae == pytest.approx(overall, abs=1e-15)
            assert p.n_retained == 2
        else:
            assert p.mae is None
            assert p.n_retained == 0


def test_curve_exact_at_top():
    records = [(0.5, 0.5, 10.0), (0.2, 0.4, 1.0)]
    points = {p.threshold: p for p in confidence_curve(records)}
    assert points[10.0].mae == 0.0
    assert points[10.0].n_retained == 1


def test_curve_retention_non_increasing(rng):
    records = [(float(rng.random()), float(rng.random()), float(10 * rng.random()))
               for _ in range(100)]
    points = confidence_curve(records)
    retained = [p.n_retained for p in points]
    assert all(a >= b for a, b in zip(retained, retained[1:]))


def test_default_grid_covers_0_to_10_by_halves():
    assert DEFAULT_CONFIDENCE_GRID[0] == 0.0
    assert DEFAULT_CONFIDENCE_GRID[-1] == 10.0
    assert len(DEFAULT_CONFIDENCE_GRID) == 21


# --- exact accuracy ----------------------------------------------------------------

def test_exact_accuracy():
    assert exact_accuracy([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)


# --- score distribution ---------------------------------------------------------

def scored_store(scores):
    from traitlex.corpus import CorpusStore, TextSample

    samples = tuple(
        TextSample(id=f"s{i}", lang="en", word_count=700,
                   adj_freqs={}, scores={"N": s})
        for i, s in enumerate(scores)
    )
    return CorpusStore.from_samples(samples, "toy", "v")


def test_distribution_single_point_mass():
    from traitlex.evaluation import score_distribution

    rows = score_distribution(scored_store([0.95] * 7), "N")
    assert [r.percent for r in rows] == [0] * 9 + [100]
    assert [r.count for r in rows] == [0] * 9 + [7]
    assert rows[-1].lo == 0.9 and rows[-1].hi == 1.0


def test_distribution_puts_edge_scores_in_the_upper_bin():
    from traitlex.evaluation import score_distribution

    # decimal literals sit a hair below their edge; 1.0 belongs to the last bin
    rows = score_distribution(scored_store([k / 10 for k in range(11)] + [0.3, 0.7]), "N")
    assert [r.count for r in rows] == [1, 1, 1, 2, 1, 1, 1, 2, 1, 2]


def test_distribution_uniform_scores(rng):
    from traitlex.evaluation import score_distribution

    rows = score_distribution(scored_store(rng.random(10_000)), "N")
    assert sum(r.percent for r in rows) == pytest.approx(100.0, abs=0.1)
    for r in rows:
        assert abs(r.percent - 10.0) <= 2.0


def test_distribution_requires_scores():
    from traitlex.evaluation import score_distribution

    from traitlex.corpus import CorpusStore, TextSample
    store = CorpusStore.from_samples(
        (TextSample(id="a", lang="en", word_count=1, adj_freqs={}, scores=None),),
        "toy", "v",
    )
    with pytest.raises(DatasetError):
        score_distribution(store, "N")
