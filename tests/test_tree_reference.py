"""The lockstep tree grower against a plain recursive reference.

The reference grows one tree at a time, one node and one candidate feature
at a time, in the order the module docstring of `traitlex.mlcore.trees`
states, into nested dicts.  Every tree the grower builds, rebuilt as nested
dicts from its node table, must equal the reference's exactly.  Predictions
from the node table must equal, bit for bit, a walk of the nested trees one
row and one tree at a time.
"""

import json

import numpy as np
import pytest

from nested_trees import v1_params
from traitlex.mlcore import trees


def _best_split(X, y, idx, feats, n_classes, regression):
    n = idx.size
    best = None
    for j in feats:
        v = X[idx, j]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        if vs[0] == vs[-1]:
            continue
        ys = y[idx][order]
        pos = np.flatnonzero(vs[1:] > vs[:-1]) + 1
        nl = pos.astype(float)
        nr = n - nl
        if regression:
            s, s2 = np.cumsum(ys), np.cumsum(ys * ys)
            sl, sl2 = s[pos - 1], s2[pos - 1]
            cost = (sl2 - sl * sl / nl) + ((s2[-1] - sl2) - (s[-1] - sl) ** 2 / nr)
        else:
            onehot = np.zeros((n, n_classes))
            onehot[np.arange(n), ys] = 1.0
            left = np.cumsum(onehot, axis=0)
            lc = left[pos - 1]
            rc = left[-1] - lc
            gini_l = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
            gini_r = 1.0 - ((rc / nr[:, None]) ** 2).sum(axis=1)
            cost = (nl * gini_l + nr * gini_r) / n
        p = int(np.argmin(cost))
        lo, hi = vs[pos[p] - 1], vs[pos[p]]
        threshold = 0.5 * (lo + hi) if 0.5 * (lo + hi) < hi else lo
        if best is None or cost[p] < best[0]:
            best = (float(cost[p]), int(j), threshold)
    return best


def _grow(X, y, idx, rng, mtry, hp, n_classes, regression, depth=0):
    values = y[idx]
    counts = None if regression else np.bincount(values, minlength=n_classes)
    if ((hp["max_depth"] is not None and depth >= hp["max_depth"])
            or idx.size < hp["min_samples_split"]
            or (np.all(values == values[0]) if regression
                else counts.max() == idx.size)):
        return _leaf(values, counts)
    feats = trees._candidate_features(rng, X.shape[1], mtry)
    best = _best_split(X, y, idx, feats, n_classes, regression)
    if best is None:
        return _leaf(values, counts)
    _, j, threshold = best
    mask = X[idx, j] <= threshold
    return {
        "feature": j,
        "threshold": threshold,
        "left": _grow(X, y, idx[mask], rng, mtry, hp, n_classes, regression, depth + 1),
        "right": _grow(X, y, idx[~mask], rng, mtry, hp, n_classes, regression, depth + 1),
    }


def _leaf(values, counts):
    if counts is None:
        return {"leaf": float(values.mean())}
    return {"leaf": int(np.argmax(counts))}


def _reference_forest(X, y, hp, seed, n_classes, regression):
    n = X.shape[0]
    mtry = X.shape[1] if regression else max(1, int(np.floor(np.sqrt(X.shape[1]))))
    out = []
    for rng in trees._forest_rngs(seed, hp["n_trees"]):
        boot = rng.integers(0, n, size=n)
        out.append(_grow(X, y, boot, rng, mtry, hp, n_classes, regression))
    return out


def _case(seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    n = int(gen.integers(5, 150))
    d = int(gen.integers(1, 9))
    n_classes = int(gen.choice([2, 3, 8, 12]))
    X = gen.normal(size=(n, d))
    if seed % 3 == 1:
        X = np.round(X * 2) / 2  # many tied values
    if seed % 3 == 2:
        X[:, 0] = 1.0  # a constant column
    y = gen.integers(0, n_classes, n)
    score = np.round(gen.random(n), 1 + seed % 2)
    hp = {
        "n_trees": int(gen.integers(1, 90)),
        "max_depth": None if seed % 2 else int(gen.integers(1, 6)),
        "min_samples_split": int(gen.integers(2, 6)),
    }
    return X, y, score, n_classes, hp


def _fit(train, X, y, hp, seed, n_classes):
    """The core of one fit on every row of X."""
    (core,) = train(X, y, [np.arange(X.shape[0])], hp, seed, n_classes)
    return core


@pytest.mark.parametrize("seed", range(12))
def test_forests_equal_the_recursive_reference(seed):
    X, y, score, n_classes, hp = _case(seed)
    for target, regression in ((y, False), (score, True)):
        core = _fit(trees.train_forest, X, target, hp, seed, 0 if regression else n_classes)
        got = v1_params("random_forest_reg" if regression else "random_forest_clf",
                        core, 0 if regression else n_classes)["trees"]
        want = _reference_forest(X, target, hp, seed, n_classes, regression)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.mark.parametrize("seed", range(12))
def test_decision_tree_equals_the_recursive_reference(seed):
    X, y, _, n_classes, hp = _case(seed)
    core = _fit(trees.train_decision_tree, X, y, hp, seed, n_classes)
    got = v1_params("decision_tree", core, n_classes)["tree"]
    rng = np.random.Generator(np.random.PCG64(seed))
    want = _grow(X, y, np.arange(X.shape[0]), rng, X.shape[1], hp, n_classes, False)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _walk(tree, x):
    while "leaf" not in tree:
        tree = tree["left"] if x[tree["feature"]] <= tree["threshold"] else tree["right"]
    return tree["leaf"]


def _reference_predict(nested, X, n_classes, regression):
    out = []
    for x in X:
        leaves = [_walk(tree, x) for tree in nested]
        if regression:
            total = 0.0
            for value in leaves:
                total += value
            out.append(total / len(leaves))
        else:  # first maximum: vote ties pick the smaller class
            out.append(int(np.argmax(np.bincount(leaves, minlength=n_classes))))
    return np.array(out)


@pytest.mark.parametrize("seed", range(12))
def test_predictions_equal_a_walk_of_the_nested_trees(seed, monkeypatch):
    X, y, score, n_classes, hp = _case(seed)
    # forests predict 1 + seed rows per block, so most queries span several
    monkeypatch.setattr(trees, "_PAIRS", hp["n_trees"] * (1 + seed))
    queries = np.vstack([X, X + np.random.Generator(np.random.PCG64(seed)).normal(size=X.shape)])
    for algorithm, core, C in (
        ("decision_tree", _fit(trees.train_decision_tree, X, y, hp, seed, n_classes), n_classes),
        ("random_forest_clf", _fit(trees.train_forest, X, y, hp, seed, n_classes), n_classes),
        ("random_forest_reg", _fit(trees.train_forest, X, score, hp, seed, 0), 0),
    ):
        params = v1_params(algorithm, core, C)
        nested = params["trees"] if "trees" in params else [params["tree"]]
        want = _reference_predict(nested, queries, n_classes, C == 0)
        assert np.array_equal(trees.predict_many(core, queries, hp, C), want)
