"""Feature matrices with class or score targets, plus shaping operations."""

from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

import numpy as np

from .._util import atomic_write_text, csv_text, fmt_float, read_csv
from ..binning import BinningScheme
from ..errors import DatasetError


@dataclass(frozen=True)
class Dataset:
    """Rows of features with an integer class target, a score target, or both.

    Scores live in [0, 1].  Class labels are non-negative integers.
    """

    feature_names: tuple
    X: np.ndarray
    y_class: np.ndarray | None = None
    y_score: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "X", X)
        if X.ndim != 2:
            raise DatasetError(f"X must be 2-dimensional, got shape {X.shape}")
        if len(self.feature_names) != X.shape[1]:
            raise DatasetError(
                f"{len(self.feature_names)} feature names for {X.shape[1]} columns"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DatasetError("feature names are not unique")
        if not np.all(np.isfinite(X)):
            raise DatasetError("X contains non-finite values")
        if self.y_class is None and self.y_score is None:
            raise DatasetError("dataset needs class labels, score labels, or both")
        if self.y_class is not None:
            y = np.asarray(self.y_class, dtype=int)
            object.__setattr__(self, "y_class", y)
            if y.shape != (X.shape[0],):
                raise DatasetError("y_class length does not match X")
            if np.any(y < 0):
                raise DatasetError("class labels must be non-negative")
        if self.y_score is not None:
            y = np.asarray(self.y_score, dtype=float)
            object.__setattr__(self, "y_score", y)
            if y.shape != (X.shape[0],):
                raise DatasetError("y_score length does not match X")
            if not np.all(np.isfinite(y)) or np.any(y < 0) or np.any(y > 1):
                raise DatasetError("scores must be finite and within [0, 1]")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def take(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=int)
        return replace(
            self,
            X=self.X[rows],
            y_class=None if self.y_class is None else self.y_class[rows],
            y_score=None if self.y_score is None else self.y_score[rows],
        )


def select_features_by_frequency(ds: Dataset, fraction: float) -> Dataset:
    """Drop features whose column sum is below fraction of the grand total.

    Features are frequency-like, so columns must be non-negative.  The rule
    is a fixed point: survivors hold at least fraction of the original
    total, and removing columns only lowers the total, so a second pass
    with the same fraction changes nothing.
    """
    if not 0.0 <= fraction <= 1.0:
        raise DatasetError("fraction must lie in [0, 1]")
    if np.any(ds.X < 0):
        raise DatasetError("frequency selection needs non-negative features")
    if fraction == 0.0:
        return ds
    col_sums = ds.X.sum(axis=0)
    threshold = fraction * float(col_sums.sum())
    keep = np.flatnonzero(col_sums >= threshold)
    if keep.size == 0:
        raise DatasetError("frequency threshold removed every feature")
    return replace(
        ds,
        feature_names=tuple(ds.feature_names[j] for j in keep),
        X=ds.X[:, keep],
    )


def filter_datapoints_by_coverage(ds: Dataset, fraction: float = 0.055) -> Dataset:
    """Drop rows with non-zero entries in fewer than fraction of the columns."""
    if not 0.0 <= fraction <= 1.0:
        raise DatasetError("fraction must lie in [0, 1]")
    nnz = (ds.X != 0).sum(axis=1)
    keep = np.flatnonzero(nnz >= fraction * ds.n_features)
    if keep.size == 0:
        raise DatasetError("coverage threshold removed every row")
    return ds.take(keep)


def corpus_to_dataset(store, trait: str, binning: BinningScheme | None = None,
                      words=None) -> Dataset:
    """Adjective-count matrix over a vocabulary, scored samples only.

    Columns are `words` when given, such as a trained model's feature names:
    a word no sample holds is a zero column, and an adjective outside `words`
    is dropped.  Otherwise they are the store's sorted vocabulary.
    When a binning is given the scores are additionally encoded as class
    labels.
    """
    words = tuple(store.vocab if words is None else words)
    if not words:
        raise DatasetError("store has no adjectives")
    scores = store.trait_scores(trait)
    rows = np.flatnonzero(~np.isnan(scores))
    if not rows.size:
        raise DatasetError(f"no samples scored for trait {trait!r}")
    col = {w: j for j, w in enumerate(words)}
    columns = np.fromiter(map(col.get, store.vocab, repeat(-1)), np.intp,
                          len(store.vocab))[store.indices]
    position = np.full(len(store), -1)
    position[rows] = np.arange(rows.size)
    row_of = np.repeat(position, store.lengths)
    keep = (row_of >= 0) & (columns >= 0)
    X = np.zeros((rows.size, len(words)))
    X[row_of[keep], columns[keep]] = store.counts[keep]
    y_score = scores[rows]
    y_class = None if binning is None else binning.bin_indices(y_score)
    return Dataset(feature_names=words, X=X, y_class=y_class, y_score=y_score)


def save_dataset_csv(ds: Dataset, path) -> None:
    """Write features plus trailing label column(s) named "class"/"score"."""
    header = list(ds.feature_names)
    if ds.y_class is not None:
        header.append("class")
    if ds.y_score is not None:
        header.append("score")
    rows = [header]
    for i in range(ds.n):
        cells = [fmt_float(v) for v in ds.X[i]]
        if ds.y_class is not None:
            cells.append(str(int(ds.y_class[i])))
        if ds.y_score is not None:
            cells.append(fmt_float(ds.y_score[i]))
        rows.append(cells)
    atomic_write_text(Path(path), csv_text(rows))


def load_dataset_csv(path) -> Dataset:
    """Read a dataset written by save_dataset_csv."""
    path = Path(path)
    header, rows = read_csv(path, "dataset", DatasetError)
    label_cols = [name for name in header if name in ("class", "score")]
    feature_names = tuple(name for name in header if name not in ("class", "score"))
    if not label_cols:
        raise DatasetError(f"{path}: no trailing 'class' or 'score' column")
    if header[-len(label_cols):] != label_cols or not feature_names:
        raise DatasetError(f"{path}: label columns must come last, after features")
    n_feat = len(feature_names)
    X, y_class, y_score = [], [], []
    for lineno, row in rows:
        if len(row) != len(header):
            raise DatasetError(f"{path} line {lineno}: expected {len(header)} cells")
        try:
            X.append([float(v) for v in row[:n_feat]])
            for name, cell in zip(label_cols, row[n_feat:]):
                if name == "class":
                    y_class.append(int(cell))
                else:
                    y_score.append(float(cell))
        except ValueError:
            raise DatasetError(f"{path} line {lineno}: non-numeric cell") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    try:
        return Dataset(
            feature_names=feature_names,
            X=np.array(X, dtype=float),
            y_class=np.array(y_class, dtype=int) if "class" in label_cols else None,
            y_score=np.array(y_score, dtype=float) if "score" in label_cols else None,
        )
    except DatasetError as e:
        raise DatasetError(f"{path}: {e}") from None
