"""Linear learners: perceptron, hinge-loss classifier, least squares."""

import numpy as np

from ..errors import TrainingError


def size_groups(row_sets):
    """Indices of the row sets, grouped by set size in order of first appearance."""
    groups = {}
    for i, rows in enumerate(row_sets):
        groups.setdefault(len(rows), []).append(i)
    return groups.values()


def train_perceptron(X, y, row_sets, hp, seed, n_classes):
    """One-vs-rest perceptron with sample-order updates.

    Each binary problem runs until an epoch makes no mistake or the epoch
    budget is exhausted.  No randomness is involved: rows are visited in
    the row set's order.
    """
    return [_perceptron(X[rows], y[rows], hp, n_classes) for rows in row_sets]


def _perceptron(X, y, hp, n_classes):
    n, d = X.shape
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    lr = hp["lr"]
    for c in range(n_classes):
        target = np.where(y == c, 1.0, -1.0)
        w = np.zeros(d)
        bias = 0.0
        for _ in range(hp["max_epochs"]):
            mistakes = 0
            for i in range(n):
                if target[i] * (X[i] @ w + bias) <= 0.0:
                    w += lr * target[i] * X[i]
                    bias += lr * target[i]
                    mistakes += 1
            if mistakes == 0:
                break
        W[c] = w
        b[c] = bias
    return {"W": W, "b": b}


def train_linear_svm(X, y, row_sets, hp, seed, n_classes):
    """One-vs-rest hinge loss, full-batch subgradient descent.

    Step t uses learning rate 1 / (lam * (t + 1)); the weight shrinkage
    from the L2 term and the averaged hinge subgradient are applied
    together.  The bias is not regularized.  The subgradient sums the
    violating rows of target * X in row order, never through a matrix
    product, whose summation order BLAS may change.

    Row sets of one size run their (set, class) problems in lockstep: each
    problem keeps its own `X @ w` (one stacked matmul makes the BLAS call of
    a lone fit for each) and its own subgradient sum, which fix the bytes;
    the elementwise steps run once on the stacked problems.
    """
    lam = hp["lam"]
    cores = [None] * len(row_sets)
    for group in size_groups(row_sets):
        n = len(row_sets[group[0]])
        data = np.stack([X[row_sets[i]] for i in group])  # (set, row, feature)
        labels = np.stack([y[row_sets[i]] for i in group])
        # (set, class, row): one (set, class) problem per row of the last axis
        positive = labels[:, None, :] == np.arange(n_classes)[:, None]
        target = np.where(positive, 1.0, -1.0)
        signed = [t[:, None] * x for x, ts in zip(data, target) for t in ts]
        W = np.zeros((len(group), n_classes, X.shape[1]))
        b = np.zeros((len(group), n_classes))
        for t in range(1, hp["epochs"] + 1):
            eta = 1.0 / (lam * (t + 1))
            xw = (data[:, None] @ W[..., None])[..., 0]
            viol = target * (xw + b[..., None]) < 1.0
            pull = np.array([np.add.reduce(s.compress(v, axis=0), axis=0)
                             for s, v in zip(signed, viol.reshape(len(signed), n))]) / n
            W = (1.0 - eta * lam) * W + eta * pull.reshape(W.shape)
            # the violators' sum of +-1 targets, counted exactly
            b += eta * (2 * np.add.reduce(viol & positive, axis=-1)
                        - np.add.reduce(viol, axis=-1)) / n
        for j, i in enumerate(group):
            cores[i] = {"W": W[j], "b": b[j]}
    return cores


def linear_predict_many(core, X, hp, n_classes):
    # argmax takes the first maximum, so score ties go to the smaller class
    return (X @ core["W"].T + core["b"]).argmax(axis=1)


def train_linear_regression(X, y, row_sets, hp, seed, n_classes):
    """Ordinary least squares via the normal equations, per row set.

    A singular Gram matrix (collinear or constant features) gets a tiny
    ridge term instead of failing outright.
    """
    return [_least_squares(X[rows], y[rows]) for rows in row_sets]


def _least_squares(X, y):
    A = np.hstack([X, np.ones((X.shape[0], 1))])
    G = A.T @ A
    rhs = A.T @ y
    try:
        beta = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        beta = np.linalg.solve(G + 1e-8 * np.eye(G.shape[0]), rhs)
    if not np.all(np.isfinite(beta)):
        raise TrainingError("least squares produced non-finite coefficients")
    return {"coef": beta[:-1], "intercept": float(beta[-1])}


def linear_regression_predict_many(core, X, hp, n_classes):
    raw = X @ core["coef"] + core["intercept"]
    return np.clip(raw, 0.0, 1.0)
