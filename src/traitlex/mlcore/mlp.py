"""Single-hidden-layer network trained by full-batch gradient descent.

The hidden layer uses the logistic sigmoid, the output layer softmax with
cross-entropy loss.  The objective is the summed cross-entropy over the
batch plus an L2 penalty of l2/2 times the squared weight norms (biases
are not penalized).  All parameters initialize uniformly on
[-init_scale, init_scale], drawn in the order W1, b1, W2, b2.
"""

import numpy as np


def _sigmoid(z):
    # exp of -|z| never overflows; each branch is the stable form for its sign
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def train_mlp(X, y, hp, seed, n_classes):
    n, d = X.shape
    hidden = hp["hidden"]
    lr, l2 = hp["lr"], hp["l2"]
    scale = hp["init_scale"]
    rng = np.random.Generator(np.random.PCG64(seed))
    W1 = rng.uniform(-scale, scale, size=(d, hidden))
    b1 = rng.uniform(-scale, scale, size=hidden)
    W2 = rng.uniform(-scale, scale, size=(hidden, n_classes))
    b2 = rng.uniform(-scale, scale, size=n_classes)
    targets = np.zeros((n, n_classes))
    targets[np.arange(n), y] = 1.0
    for _ in range(hp["max_epochs"]):
        hidden_act = _sigmoid(X @ W1 + b1)
        log_probs = _log_softmax(hidden_act @ W2 + b2)
        delta_out = np.exp(log_probs) - targets
        grad_W2 = hidden_act.T @ delta_out + l2 * W2
        grad_b2 = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ W2.T) * hidden_act * (1.0 - hidden_act)
        grad_W1 = X.T @ delta_hidden + l2 * W1
        grad_b1 = delta_hidden.sum(axis=0)
        W1 -= lr * grad_W1
        b1 -= lr * grad_b1
        W2 -= lr * grad_W2
        b2 -= lr * grad_b2
    return {"W1": W1, "b1": b1, "W2": W2, "b2": b2}


def mlp_predict_many(core, X, hp, n_classes):
    hidden_act = _sigmoid(X @ core["W1"] + core["b1"])
    scores = hidden_act @ core["W2"] + core["b2"]
    return scores.argmax(axis=1)
