"""Single-hidden-layer network trained by full-batch gradient descent.

The hidden layer uses the logistic sigmoid, the output layer softmax with
cross-entropy loss.  The objective is the summed cross-entropy over the
batch plus an L2 penalty of l2/2 times the squared weight norms (biases
are not penalized).  All parameters initialize uniformly on
[-init_scale, init_scale], drawn in the order W1, b1, W2, b2.
"""

import numpy as np

from .linear import size_groups


def _sigmoid(z):
    # exp of -|z| never overflows; each branch is the stable form for its sign
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def train_mlp(X, y, row_sets, hp, seed, n_classes):
    """One network per row set.  Sets of one size train as a stack: each
    matmul of the stack makes, per set, the BLAS call a lone fit makes."""
    d = X.shape[1]
    hidden = hp["hidden"]
    lr, l2 = hp["lr"], hp["l2"]
    scale = hp["init_scale"]
    rng = np.random.Generator(np.random.PCG64(seed))
    init = [rng.uniform(-scale, scale, size=shape)  # W1, b1, W2, b2, shared by every set
            for shape in ((d, hidden), hidden, (hidden, n_classes), n_classes)]
    cores = [None] * len(row_sets)
    for group in size_groups(row_sets):
        n = len(row_sets[group[0]])
        Xs = np.stack([X[row_sets[i]] for i in group])
        W1, b1, W2, b2 = (np.stack([a] * len(group)) for a in init)
        b1, b2 = b1[:, None, :], b2[:, None, :]
        targets = np.zeros((len(group), n, n_classes))
        for p, i in enumerate(group):
            targets[p, np.arange(n), y[row_sets[i]]] = 1.0
        for _ in range(hp["max_epochs"]):
            hidden_act = _sigmoid(Xs @ W1 + b1)
            log_probs = _log_softmax(hidden_act @ W2 + b2)
            delta_out = np.exp(log_probs) - targets
            grad_W2 = hidden_act.transpose(0, 2, 1) @ delta_out + l2 * W2
            grad_b2 = delta_out.sum(axis=1, keepdims=True)
            delta_hidden = (delta_out @ W2.transpose(0, 2, 1)) * hidden_act * (1.0 - hidden_act)
            grad_W1 = Xs.transpose(0, 2, 1) @ delta_hidden + l2 * W1
            grad_b1 = delta_hidden.sum(axis=1, keepdims=True)
            W1 -= lr * grad_W1
            b1 -= lr * grad_b1
            W2 -= lr * grad_W2
            b2 -= lr * grad_b2
        for p, i in enumerate(group):
            cores[i] = {"W1": W1[p], "b1": b1[p, 0], "W2": W2[p], "b2": b2[p, 0]}
    return cores


def mlp_predict_many(core, X, hp, n_classes):
    hidden_act = _sigmoid(X @ core["W1"] + core["b1"])
    scores = hidden_act @ core["W2"] + core["b2"]
    return scores.argmax(axis=1)
