import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from traitlex.binning import DEFAULT_BINNING, BinningScheme
from traitlex.corpus import CorpusStore, TextSample
from traitlex.errors import DatasetError
from traitlex.mlcore import (
    Dataset,
    corpus_to_dataset,
    filter_datapoints_by_coverage,
    load_dataset_csv,
    save_dataset_csv,
    select_features_by_frequency,
)


def counts_dataset(X, y_class=None, y_score=None):
    X = np.asarray(X, dtype=float)
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    if y_class is None and y_score is None:
        y_class = np.zeros(X.shape[0], dtype=int)
        y_class[: X.shape[0] // 2] = 1
    return Dataset(feature_names=names, X=X, y_class=y_class, y_score=y_score)


# --- Dataset validation -----------------------------------------------------------

def test_rejects_mismatched_names():
    with pytest.raises(DatasetError):
        Dataset(feature_names=("a",), X=np.zeros((2, 2)),
                y_class=np.array([0, 1]), y_score=None)


def test_rejects_nan_features():
    with pytest.raises(DatasetError):
        Dataset(feature_names=("a",), X=np.array([[np.nan]]),
                y_class=np.array([0]), y_score=None)


def test_requires_some_labels():
    with pytest.raises(DatasetError):
        Dataset(feature_names=("a",), X=np.zeros((1, 1)),
                y_class=None, y_score=None)


def test_rejects_out_of_range_scores():
    with pytest.raises(DatasetError):
        Dataset(feature_names=("a",), X=np.zeros((1, 1)),
                y_class=None, y_score=np.array([1.5]))


# --- feature selection ---------------------------------------------------------

def test_column_sums_100_5_50_threshold_10():
    X = np.zeros((5, 3))
    X[:, 0] = 20   # sum 100
    X[0, 1] = 5    # sum 5
    X[:, 2] = 10   # sum 50
    ds = counts_dataset(X)
    out = select_features_by_frequency(ds, 10 / 155)
    assert out.feature_names == ("f0", "f2")
    np.testing.assert_array_equal(out.X, X[:, [0, 2]])


def test_fraction_zero_is_identity():
    ds = counts_dataset(np.arange(12.0).reshape(3, 4))
    out = select_features_by_frequency(ds, 0.0)
    assert out.feature_names == ds.feature_names
    np.testing.assert_array_equal(out.X, ds.X)


def test_all_dropped_is_an_error():
    ds = counts_dataset(np.ones((2, 2)))
    with pytest.raises(DatasetError, match="every feature"):
        select_features_by_frequency(ds, 1.0)


def test_negative_features_rejected():
    ds = counts_dataset(np.array([[1.0, -1.0]]))
    with pytest.raises(DatasetError):
        select_features_by_frequency(ds, 0.1)


@settings(max_examples=100, deadline=None)
@given(
    arrays(np.float64, (6, 5), elements=st.floats(min_value=0, max_value=50)),
    st.floats(min_value=0, max_value=0.3),
)
def test_selection_is_idempotent(X, fraction):
    ds = counts_dataset(X)
    try:
        once = select_features_by_frequency(ds, fraction)
    except DatasetError:
        return
    twice = select_features_by_frequency(once, fraction)
    assert twice.feature_names == once.feature_names
    np.testing.assert_array_equal(twice.X, once.X)


# --- row coverage filter -----------------------------------------------------------

def test_zero_coverage_row_dropped():
    X = np.zeros((2, 345))
    X[1, :30] = 1.0
    ds = counts_dataset(X)
    out = filter_datapoints_by_coverage(ds, 0.055)
    assert out.n == 1


def test_nineteen_of_345_kept():
    # 19/345 = 5.507% sits just above the 5.5% default cut
    X = np.zeros((2, 345))
    X[0, :19] = 1.0
    X[1, :100] = 1.0
    ds = counts_dataset(X)
    out = filter_datapoints_by_coverage(ds)
    assert out.n == 2
    X[0, 18] = 0.0  # 18 nonzero -> below the line
    out2 = filter_datapoints_by_coverage(counts_dataset(X))
    assert out2.n == 1


def test_coverage_fraction_zero_is_identity():
    X = np.zeros((3, 4))
    ds = counts_dataset(X)
    out = filter_datapoints_by_coverage(ds, 0.0)
    assert out.n == 3


def test_all_rows_dropped_is_an_error():
    ds = counts_dataset(np.zeros((2, 4)))
    with pytest.raises(DatasetError, match="every row"):
        filter_datapoints_by_coverage(ds, 0.5)


@settings(max_examples=100, deadline=None)
@given(
    arrays(np.float64, (6, 8),
           elements=st.sampled_from([0.0, 0.0, 1.0, 3.0])),
    st.floats(min_value=0, max_value=0.5),
)
def test_coverage_filter_is_idempotent(X, fraction):
    ds = counts_dataset(X)
    try:
        once = filter_datapoints_by_coverage(ds, fraction)
    except DatasetError:
        return
    twice = filter_datapoints_by_coverage(once, fraction)
    assert twice.n == once.n
    np.testing.assert_array_equal(twice.X, once.X)


# --- label binning ----------------------------------------------------------------

def test_bin_labels_examples():
    labels = DEFAULT_BINNING.bin_indices(np.array([0.44, 0.1, 0.9]))
    assert list(labels) == [3, 0, 7]


def test_bin_labels_rejects_out_of_range():
    with pytest.raises(DatasetError, match="row 1"):
        DEFAULT_BINNING.bin_indices(np.array([0.5, 0.95]))


def test_midpoint_lookup_inverts_bin_labels():
    scores = np.linspace(0.1, 0.9, 17)
    labels = DEFAULT_BINNING.bin_indices(scores)
    midpoints = np.array(DEFAULT_BINNING.labels)[labels]
    assert np.all(np.abs(midpoints - scores) <= 0.05 + 1e-9)


# --- corpus bridging -----------------------------------------------------------

def toy_store():
    samples = (
        TextSample(id="a", text="", lang="en", word_count=700,
                   adj_freqs={"kind": 2, "big": 1}, scores={"N": 0.3}),
        TextSample(id="b", text="", lang="en", word_count=800,
                   adj_freqs={"kind": 5}, scores={"N": 0.7}),
        TextSample(id="c", text="", lang="en", word_count=800,
                   adj_freqs={"big": 4}, scores=None),  # unscored: excluded
    )
    return CorpusStore.from_samples(samples, "toy", "v")


def test_corpus_to_dataset_shapes():
    ds = corpus_to_dataset(toy_store(), "N")
    assert ds.feature_names == ("big", "kind")
    np.testing.assert_array_equal(ds.X, [[1, 2], [0, 5]])
    np.testing.assert_allclose(ds.y_score, [0.3, 0.7])
    assert ds.y_class is None


def test_corpus_to_dataset_with_binning():
    ds = corpus_to_dataset(toy_store(), "N", binning=BinningScheme(0.0, 1.0, 2))
    assert list(ds.y_class) == [0, 1]


def test_corpus_to_dataset_over_given_words():
    # "odd" is in no sample, so its column is zero; "big" is not asked for
    ds = corpus_to_dataset(toy_store(), "N", words=("kind", "odd"))
    assert ds.feature_names == ("kind", "odd")
    np.testing.assert_array_equal(ds.X, [[2, 0], [5, 0]])


# --- CSV round trip ----------------------------------------------------------------

def test_csv_round_trip_class(tmp_path):
    ds = counts_dataset(np.array([[1.5, 2.0], [0.0, 3.25]]),
                        y_class=np.array([1, 0]))
    save_dataset_csv(ds, tmp_path / "d.csv")
    loaded = load_dataset_csv(tmp_path / "d.csv")
    assert loaded.feature_names == ds.feature_names
    np.testing.assert_array_equal(loaded.X, ds.X)
    np.testing.assert_array_equal(loaded.y_class, ds.y_class)
    assert loaded.y_score is None


def test_csv_round_trip_both_labels(tmp_path):
    ds = Dataset(feature_names=("a", "b"),
                 X=np.array([[0.1, 0.2], [0.3, 0.4]]),
                 y_class=np.array([0, 1]),
                 y_score=np.array([0.25, 0.75]))
    save_dataset_csv(ds, tmp_path / "d.csv")
    loaded = load_dataset_csv(tmp_path / "d.csv")
    np.testing.assert_array_equal(loaded.y_class, ds.y_class)
    np.testing.assert_array_equal(loaded.y_score, ds.y_score)
    np.testing.assert_array_equal(loaded.X, ds.X)


def test_csv_round_trip_keeps_a_feature_name_holding_a_comma(tmp_path):
    ds = Dataset(feature_names=("a,b", 'q"x'), X=np.array([[1.0, 2.0], [0.0, 3.0]]),
                 y_class=np.array([1, 0]))
    save_dataset_csv(ds, tmp_path / "d.csv")
    loaded = load_dataset_csv(tmp_path / "d.csv")
    assert loaded.feature_names == ("a,b", 'q"x')
    np.testing.assert_array_equal(loaded.X, ds.X)


def test_csv_empty_file_is_refused(tmp_path):
    (tmp_path / "d.csv").write_text("", "utf-8")
    with pytest.raises(DatasetError, match=r"d\.csv: empty dataset file"):
        load_dataset_csv(tmp_path / "d.csv")


def test_csv_header_only_file_is_refused(tmp_path):
    (tmp_path / "d.csv").write_text("f0,class\n\n", "utf-8")
    with pytest.raises(DatasetError) as refused:
        load_dataset_csv(tmp_path / "d.csv")
    assert str(refused.value) == f"{tmp_path / 'd.csv'}: no data rows"


@pytest.mark.parametrize("body, message", [
    ("nan,0\n", "X contains non-finite values"),
    ("-inf,0\n", "X contains non-finite values"),
    ("1.0,-1\n", "class labels must be non-negative"),
    ("1.0,1.5\n", "scores must be finite and within [0, 1]"),
])
def test_csv_dataset_faults_name_the_file(tmp_path, body, message):
    label = "score" if message.startswith("scores") else "class"
    (tmp_path / "d.csv").write_text(f"f0,{label}\n" + body, "utf-8")
    with pytest.raises(DatasetError) as refused:
        load_dataset_csv(tmp_path / "d.csv")
    assert str(refused.value) == f"{tmp_path / 'd.csv'}: {message}"


def test_csv_labels_must_come_last(tmp_path):
    (tmp_path / "bad.csv").write_text("class,f0\n1,2\n", "utf-8")
    with pytest.raises(DatasetError, match="last"):
        load_dataset_csv(tmp_path / "bad.csv")


def test_csv_error_names_the_physical_line(tmp_path):
    # the bad row is on line 5, after two blank lines
    (tmp_path / "d.csv").write_text("f0,class\n1.0,0\n\n\n2.0,x\n", "utf-8")
    with pytest.raises(DatasetError, match=r"d\.csv line 5: non-numeric cell"):
        load_dataset_csv(tmp_path / "d.csv")
