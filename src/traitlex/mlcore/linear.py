"""Linear learners: perceptron, hinge-loss classifier, least squares."""

import numpy as np

from ..errors import TrainingError


def train_perceptron(X, y, hp, seed, n_classes):
    """One-vs-rest perceptron with sample-order updates.

    Each binary problem runs until an epoch makes no mistake or the epoch
    budget is exhausted.  No randomness is involved: rows are visited in
    dataset order.
    """
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


def train_linear_svm(X, y, hp, seed, n_classes):
    """One-vs-rest hinge loss, full-batch subgradient descent.

    Step t uses learning rate 1 / (lam * (t + 1)); the weight shrinkage
    from the L2 term and the averaged hinge subgradient are applied
    together.  The bias is not regularized.  The subgradient sums the
    violating rows of target * X in row order, never through a matrix
    product, whose summation order BLAS may change.
    """
    n, d = X.shape
    lam = hp["lam"]
    W = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    for c in range(n_classes):
        positive = y == c
        target = np.where(positive, 1.0, -1.0)
        signed = target[:, None] * X
        w = np.zeros(d)
        bias = 0.0
        for t in range(1, hp["epochs"] + 1):
            eta = 1.0 / (lam * (t + 1))
            margin = target * (X @ w + bias)
            viol = margin < 1.0
            pull = signed.compress(viol, axis=0).sum(axis=0) / n
            w = (1.0 - eta * lam) * w + eta * pull
            # the violators' sum of +-1 targets, counted exactly
            bias += eta * (2 * np.count_nonzero(viol & positive) - np.count_nonzero(viol)) / n
        W[c] = w
        b[c] = bias
    return {"W": W, "b": b}


def linear_predict_many(core, X, hp, n_classes):
    # argmax takes the first maximum, so score ties go to the smaller class
    return (X @ core["W"].T + core["b"]).argmax(axis=1)


def train_linear_regression(X, y, hp, seed, n_classes):
    """Ordinary least squares via the normal equations.

    A singular Gram matrix (collinear or constant features) gets a tiny
    ridge term instead of failing outright.
    """
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
