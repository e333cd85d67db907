"""k-nearest-neighbour classification by exhaustive scan."""

import numpy as np

from ..errors import TrainingError


def train_knn(X, y, row_sets, hp, seed, n_classes):
    if hp["k"] < 1:
        raise TrainingError("k must be at least 1")
    for rows in row_sets:
        if hp["k"] > len(rows):
            raise TrainingError(f"k={hp['k']} exceeds the {len(rows)} training rows")
    return [{"X": X[rows], "y": y[rows]} for rows in row_sets]


def knn_predict_many(core, X, hp, n_classes):
    """Squared Euclidean distances; ties break toward the lower train row."""
    Xtr = core["X"]
    ytr = core["y"]
    k = hp["k"]
    out = np.empty(X.shape[0], dtype=int)
    row_order = np.arange(Xtr.shape[0])
    for i in range(X.shape[0]):
        d2 = ((Xtr - X[i]) ** 2).sum(axis=1)
        nearest = np.lexsort((row_order, d2))[:k]
        votes = np.bincount(ytr[nearest], minlength=n_classes)
        out[i] = int(np.argmax(votes))  # first maximum: smaller class wins ties
    return out
