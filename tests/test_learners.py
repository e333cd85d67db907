import hashlib
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nested_trees import (
    v1_payload,
    v2_payload,
    v3_payload,
    v4_payload,
    v5_checked_json,
    v5_payload,
)
from traitlex.errors import DatasetError, TrainingError
from traitlex.evaluation import kfold_indices
from traitlex.mlcore import linear, mlp, trees
from traitlex.mlcore import (
    ALGORITHMS,
    Dataset,
    TrainConfig,
    load_trained_model,
    model_to_payload,
    predict,
    predict_dataset,
    predict_many,
    save_trained_model,
    train,
    train_many,
)

CLASSIFIER_NAMES = (
    "perceptron", "mlp", "knn", "decision_tree", "random_forest_clf", "linear_svm"
)
REGRESSOR_NAMES = ("linear_regression", "random_forest_reg")


def class_dataset(X, y):
    X = np.asarray(X, dtype=float)
    return Dataset(
        feature_names=tuple(f"f{j}" for j in range(X.shape[1])),
        X=X, y_class=np.asarray(y, dtype=int), y_score=None,
    )


def score_dataset(X, y):
    X = np.asarray(X, dtype=float)
    return Dataset(
        feature_names=tuple(f"f{j}" for j in range(X.shape[1])),
        X=X, y_class=None, y_score=np.asarray(y, dtype=float),
    )


def two_class_toy():
    # 8 points in 2-D split cleanly by x0 + x1 = 0
    X = [[1, 1], [2, 0.5], [1.5, 2], [3, 1], [-1, -1], [-2, -0.5], [-1.5, -2], [-3, -1]]
    y = [1, 1, 1, 1, 0, 0, 0, 0]
    return class_dataset(X, y)


# --- config validation ------------------------------------------------------------

def test_unknown_algorithm_rejected():
    with pytest.raises(TrainingError, match="unknown algorithm"):
        TrainConfig(algorithm="gradient_boosting")


def test_unknown_hyperparam_rejected():
    with pytest.raises(TrainingError, match="unknown hyperparameter"):
        TrainConfig(algorithm="knn", hyperparams={"depth": 3})


def test_resolved_fills_defaults():
    cfg = TrainConfig(algorithm="knn")
    assert cfg.resolved() == {"k": 5}
    cfg2 = TrainConfig(algorithm="random_forest_clf", hyperparams={"n_trees": 7})
    resolved = cfg2.resolved()
    assert resolved["n_trees"] == 7
    assert resolved["min_samples_split"] == 2


def test_documented_defaults():
    assert TrainConfig(algorithm="knn").resolved()["k"] == 5
    assert TrainConfig(algorithm="mlp").resolved()["hidden"] == 15
    assert TrainConfig(algorithm="mlp").resolved()["l2"] == 1e-5
    assert TrainConfig(algorithm="random_forest_clf").resolved()["n_trees"] == 1000
    assert TrainConfig(algorithm="random_forest_reg").resolved()["max_depth"] == 2
    assert TrainConfig(algorithm="random_forest_reg").resolved()["n_trees"] == 100


def test_single_class_data_rejected():
    ds = class_dataset([[0.0], [1.0]], [1, 1])
    with pytest.raises(TrainingError, match="single class"):
        train(TrainConfig(algorithm="perceptron"), ds)


def test_classifier_requires_class_labels():
    ds = score_dataset([[0.0], [1.0]], [0.2, 0.8])
    with pytest.raises(TrainingError):
        train(TrainConfig(algorithm="knn"), ds)


# --- perceptron --------------------------------------------------------------------

def test_perceptron_separable_toy_is_perfect():
    ds = two_class_toy()
    model = train(TrainConfig(algorithm="perceptron"), ds)
    np.testing.assert_array_equal(predict_dataset(model, ds), ds.y_class)


def test_perceptron_predicts_each_point(rng):
    ds = two_class_toy()
    model = train(TrainConfig(algorithm="perceptron"), ds)
    for i in range(ds.n):
        assert predict(model, ds.X[i]) == ds.y_class[i]


# --- mlp ---------------------------------------------------------------------------

def fifty_point_fixture():
    gen = np.random.Generator(np.random.PCG64(3))
    X = gen.normal(0, 1, (50, 4))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return class_dataset(X, y)


def mlp_objective(model, ds):
    """The objective mlp.py descends: summed cross-entropy over the rows plus
    l2/2 times the squared norms of W1 and W2, from the model's weights."""
    core, l2 = model.core, model.hyperparams["l2"]
    hidden = 1.0 / (1.0 + np.exp(-(ds.X @ core["W1"] + core["b1"])))
    z = hidden @ core["W2"] + core["b2"]
    z = z - z.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    y = np.searchsorted(model.classes, ds.y_class)
    penalty = 0.5 * l2 * ((core["W1"] ** 2).sum() + (core["W2"] ** 2).sum())
    return -log_probs[np.arange(len(y)), y].sum() + penalty


def test_mlp_loss_non_increasing():
    # a fit of e epochs holds the weights after the first e steps of a longer one
    ds = fifty_point_fixture()
    losses = [mlp_objective(train(TrainConfig(algorithm="mlp",
                                              hyperparams={"max_epochs": epochs}), ds), ds)
              for epochs in [*range(41), 200]]
    assert np.all(np.diff(losses) <= 1e-6)
    assert losses[-1] < losses[0]


def test_mlp_fits_separable_data():
    ds = two_class_toy()
    model = train(TrainConfig(algorithm="mlp", hyperparams={"lr": 0.05}), ds)
    np.testing.assert_array_equal(predict_dataset(model, ds), ds.y_class)


def masked_sigmoid(z):
    """The sigmoid of two masked scatters that mlp._sigmoid replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 150), st.integers(1, 15)),
              elements=st.floats(allow_nan=False)
              | st.floats(-1e3, 1e3) | st.floats(-1e-3, 1e-3) | st.sampled_from([0.0, -0.0])))
def test_sigmoid_equals_the_masked_form(z):
    assert mlp._sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()


# --- knn ---------------------------------------------------------------------------

def brute_force_knn(Xtr, ytr, query, k, n_classes):
    d2 = ((Xtr - query) ** 2).sum(axis=1)
    order = sorted(range(len(ytr)), key=lambda i: (d2[i], i))[:k]
    votes = Counter(int(ytr[i]) for i in order)
    top = max(votes.values())
    return min(c for c, v in votes.items() if v == top)


def test_knn_stores_training_data_verbatim(rng):
    X = rng.normal(0, 1, (12, 3))
    y = rng.integers(0, 3, 12)
    ds = class_dataset(X, y)
    model = train(TrainConfig(algorithm="knn"), ds)
    np.testing.assert_array_equal(model.core["X"], X)


def test_knn_k1_returns_training_label(rng):
    X = rng.normal(0, 1, (20, 3))
    y = rng.integers(0, 4, 20)
    ds = class_dataset(X, y)
    model = train(TrainConfig(algorithm="knn", hyperparams={"k": 1}), ds)
    np.testing.assert_array_equal(predict_dataset(model, ds), y)


def test_knn_matches_brute_force_on_random_queries(rng):
    Xtr = rng.normal(0, 1, (60, 5))
    ytr = rng.integers(0, 4, 60)
    model = train(TrainConfig(algorithm="knn"), class_dataset(Xtr, ytr))
    queries = rng.normal(0, 1, (200, 5))
    got = predict_many(model, queries)
    classes = np.unique(ytr)
    for i in range(200):
        want_idx = brute_force_knn(Xtr, np.searchsorted(classes, ytr), queries[i],
                                   5, len(classes))
        assert got[i] == classes[want_idx]


def test_knn_distance_ties_prefer_lower_row_index():
    # six identical points; only the first five get into the neighbor set,
    # so class 1 wins 3-2 (picking the last five would flip the vote)
    X = np.zeros((6, 2))
    y = np.array([1, 1, 1, 0, 0, 0])
    model = train(TrainConfig(algorithm="knn"), class_dataset(X, y))
    assert predict(model, np.zeros(2)) == 1


def test_knn_vote_ties_prefer_smaller_class():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0, 1, 0, 1])
    model = train(TrainConfig(algorithm="knn", hyperparams={"k": 4}),
                  class_dataset(X, y))
    assert predict(model, np.array([0.5])) == 0


def test_knn_k_bounds():
    ds = class_dataset([[0.0], [1.0]], [0, 1])
    with pytest.raises(TrainingError):
        train(TrainConfig(algorithm="knn", hyperparams={"k": 3}), ds)
    with pytest.raises(TrainingError):
        train(TrainConfig(algorithm="knn", hyperparams={"k": 0}), ds)


# --- decision tree -------------------------------------------------------------------

def node_depths(core):
    """Depth of every node of a node table; parents come before their children."""
    depth = np.zeros(core["feature"].size, dtype=int)
    for node in np.flatnonzero(core["feature"] >= 0):
        depth[core["left"][node] + np.array([0, 1])] = depth[node] + 1
    return depth


def test_tree_pure_split_on_perfect_feature():
    X = np.array([[0.0, 7.0], [0.0, 3.0], [1.0, 5.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    ds = class_dataset(X, y)
    model = train(TrainConfig(algorithm="decision_tree"), ds)
    core = model.core
    (root,) = trees.tree_roots(core)
    assert core["feature"][root] == 0
    assert list(core["feature"][core["left"][root] + np.array([0, 1])]) == [-1, -1]
    np.testing.assert_array_equal(predict_dataset(model, ds), y)


def test_tree_threshold_is_midpoint():
    X = np.array([[1.0], [3.0]])
    y = np.array([0, 1])
    model = train(TrainConfig(algorithm="decision_tree"), class_dataset(X, y))
    assert model.core["threshold"][trees.tree_roots(model.core)[0]] == 2.0


def test_tree_tie_breaks_to_lowest_feature():
    # both features split perfectly; feature 0 must be chosen
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    model = train(TrainConfig(algorithm="decision_tree"), class_dataset(X, y))
    assert model.core["feature"][trees.tree_roots(model.core)[0]] == 0


def test_tree_fits_training_data_exactly(rng):
    X = rng.normal(0, 1, (40, 6))
    y = rng.integers(0, 3, 40)
    ds = class_dataset(X, y)
    model = train(TrainConfig(algorithm="decision_tree"), ds)
    np.testing.assert_array_equal(predict_dataset(model, ds), y)


@pytest.mark.parametrize("algorithm,hyperparams", [
    ("decision_tree", {}),
    ("random_forest_clf", {"n_trees": 25}),  # 1 candidate feature of 2 per node
])
def test_tree_splits_adjacent_floats(algorithm, hyperparams):
    # the midpoint of these adjacent floats rounds onto the upper one
    a, b = 1 + 2.0**-52, 1 + 2.0**-51
    ds = class_dataset([[a, a], [b, b], [a, a], [b, b]], [0, 1, 0, 1])
    model = train(TrainConfig(algorithm=algorithm, hyperparams=hyperparams), ds)
    np.testing.assert_array_equal(predict_dataset(model, ds), [0, 1, 0, 1])
    # a threshold of a sends a left and b right, so no child is left empty
    core = model.core
    assert set(core["threshold"][core["feature"] >= 0]) == {a}


def test_tree_max_depth_limits_growth():
    gen = np.random.Generator(np.random.PCG64(5))
    X = gen.normal(0, 1, (64, 3))
    y = gen.integers(0, 2, 64)
    model = train(
        TrainConfig(algorithm="decision_tree", hyperparams={"max_depth": 1}),
        class_dataset(X, y),
    )
    assert node_depths(model.core).max() <= 1


# --- forests -------------------------------------------------------------------------

def test_forest_clf_fits_perfect_feature():
    X = np.array([[0.0], [0.0], [0.0], [5.0], [5.0], [5.0]])
    y = np.array([0, 0, 0, 1, 1, 1])
    ds = class_dataset(X, y)
    model = train(
        TrainConfig(algorithm="random_forest_clf", hyperparams={"n_trees": 30}), ds
    )
    np.testing.assert_array_equal(predict_dataset(model, ds), y)


def test_forest_clf_seed_changes_trees():
    gen = np.random.Generator(np.random.PCG64(9))
    X = gen.normal(0, 1, (30, 4))
    y = gen.integers(0, 2, 30)
    ds = class_dataset(X, y)
    m1 = train(TrainConfig(algorithm="random_forest_clf", seed=0,
                           hyperparams={"n_trees": 10}), ds)
    m2 = train(TrainConfig(algorithm="random_forest_clf", seed=1,
                           hyperparams={"n_trees": 10}), ds)
    assert any(not np.array_equal(m1.core[name], m2.core[name])
               for name in ("feature", "threshold", "left", "value"))


@pytest.mark.parametrize("algorithm", ["random_forest_clf", "random_forest_reg"])
def test_forest_needs_a_tree(algorithm, rng):
    ds = Dataset(feature_names=("f0",), X=rng.normal(0, 1, (6, 1)),
                 y_class=np.array([0, 1] * 3), y_score=rng.random(6))
    with pytest.raises(TrainingError, match="n_trees"):
        train(TrainConfig(algorithm=algorithm, hyperparams={"n_trees": 0}), ds)


def test_forest_reg_depth_two_by_default(rng):
    X = rng.normal(0, 1, (50, 3))
    y = rng.random(50)
    ds = score_dataset(X, y)
    model = train(TrainConfig(algorithm="random_forest_reg",
                              hyperparams={"n_trees": 5}), ds)
    assert trees.tree_roots(model.core).size == 5
    assert node_depths(model.core).max() <= 2


def test_forest_reg_predicts_mean_of_constant_target(rng):
    X = rng.normal(0, 1, (30, 2))
    y = np.full(30, 0.4)
    model = train(TrainConfig(algorithm="random_forest_reg",
                              hyperparams={"n_trees": 3}), score_dataset(X, y))
    pred = predict_many(model, X)
    np.testing.assert_allclose(pred, 0.4, atol=1e-12)


def grown(config, ds):
    """The model of `config` on `ds` and the first node of each tree in its
    node table as the grower places it: where the sorted tree ids change."""
    firsts, tables = [], trees._Grower.tables

    def recording(grower, forests):
        tree = np.sort([node[0] for node in grower.nodes], kind="stable")
        firsts.append(np.flatnonzero(np.diff(tree, prepend=-1)))
        return tables(grower, forests)

    with mock.patch.object(trees._Grower, "tables", recording):
        model = train(config, ds)
    (first,) = firsts
    return model, first


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(1, 5), st.integers(2, 4), st.integers(1, 12),
       st.none() | st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_derived_roots_are_the_first_node_of_each_grown_tree(n, d, n_classes, n_trees,
                                                             max_depth, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    X = np.round(gen.normal(0, 1, (n, d)), 1)  # ties some values
    y = np.r_[0, 1, gen.integers(0, n_classes, n - 2)]
    ds = Dataset(feature_names=tuple(f"f{j}" for j in range(d)), X=X,
                 y_class=y, y_score=np.round(gen.random(n), 2))
    queries = np.vstack([X, gen.normal(0, 1, (5, d))])
    forest = {"n_trees": n_trees, "max_depth": max_depth}
    for algorithm, hp in (("decision_tree", {"max_depth": max_depth}),
                          ("random_forest_clf", forest), ("random_forest_reg", forest)):
        model, first = grown(TrainConfig(algorithm=algorithm, seed=seed, hyperparams=hp), ds)
        assert trees.tree_roots(model.core).tolist() == first.tolist()
        assert first.size == (1 if algorithm == "decision_tree" else n_trees)
        with tempfile.TemporaryDirectory() as tmp:
            save_trained_model(model, Path(tmp) / "model.json")
            loaded = load_trained_model(Path(tmp) / "model.json")
        assert predict_many(loaded, queries).tobytes() == predict_many(model, queries).tobytes()


def tree_guard_dataset(labels):
    """Seeded data that reaches every branch of tree growth.

    Rounding to one decimal ties many feature values, column 2 is constant,
    and every row with x0 > 1 has class 2, so some nodes end pure.  `labels`
    picks 4 classes, 11 classes or a score target with tied values.
    """
    gen = np.random.Generator(np.random.PCG64(2020))
    X = np.round(gen.normal(0, 1, (80, 6)), 1)
    X[:, 2] = 0.5
    y = gen.integers(0, 4, 80)
    y[X[:, 0] > 1.0] = 2
    many = gen.integers(0, 11, 80)
    score = np.round(gen.random(80), 2)
    if labels == "score":
        return score_dataset(X, score)
    return class_dataset(X, y if labels == "four" else many)


# SHA-256 of the saved model files, in format 1 (nested-dict trees), format 2
# (the node table with `right`, `n_classes` and `kind`), format 3, format 4
# (the node table with `roots`) and format 5, all rebuilt from the format 6
# payload and written by the format 5 writer, and in format 6 as saved.  The
# format 1 digests were recorded with the recursive grower that preceded the
# lockstep one, whose trees define correct here: a different digest means
# that some tree changed.  The format 2 to 5 digests were recorded when each
# was saved, so format 3 drops only what the loader derives, format 4 changes
# only the version of a tree learner's file, format 5 drops only the roots
# the loader derives and format 6 changes only the file's layout.  The test
# ids name the format 1 digest.
TREE_DIGESTS = [
    ("decision_tree", "four", {},
     "9eea0f2fb3e643f7ed52bb1d67e1f9a71f254c64cfef4e1b02b9e9c14ea7e16b",
     "1d8708e869dccb45ca4b33ebe0951c9f6ec3a0f326d9e821d222dcb2805737e0",
     "373a42abe75b5d0af175392ea4c9b02d6027f262f6989bf6488f41c2a9951e09",
     "6b791e147a1854edb39346509a89aa135b210ff2d4a996b42da61bcb89af4cfd",
     "ae32345440763c30b206f45311a416710adbe9f2773ea9753ae59bf4f0b202c1",
     "aee29785d1237acbc159c5a6e0ac9fab68e34b467f94e2527b5e8e60d88192c8"),
    ("decision_tree", "four", {"max_depth": 4, "min_samples_split": 6},
     "186fd39a6ef4a6a8d6a6141f8f10163bdadbbd3d507e5c4c23ffd8f40875483f",
     "99fc295ee811ca8eb3dfd2e97caf08ef34d6f669faa6c348ebedefa35fc8f8b7",
     "f6a46d42f25f320c7aae837877df0a89fabfe5daec260ceb786055af564b1560",
     "c27027032cdee0c7b5ebd0318133bb5eca1ad8642a898dee784e4e8fd31f15f7",
     "2b49b2bc7e8a2c12ded304f6c9a4d6d0d4da7222aa8731686e9d912563add142",
     "485724ab69f6fac570a07bae6dde3615733ab1851309ce64e13560d7c62ee93b"),
    ("random_forest_clf", "four", {"n_trees": 70},
     "b8114e0bd7bc2fdaca59252ceb97077cb89225756052d17c2f152a870a965172",
     "9e7bbaf6a81f1f0c42736ee27109d5e640005d489265d04984969118d3140601",
     "eb10beeee4f886f43f322bb584b657f16291dba4479afc7f1e802bdb53a5f4ec",
     "b6e3420a206dd26115a85ea7e588b0afb9a90c396e7661abe750565f0c7941af",
     "201b3428b52a88ee8bf2bc80efb0bb0abb834c114f400a9aaac813eaf812bd54",
     "580c460b3b7211b78019c2afeaaf7592e03b1ad8bd33c3093805c3212a140f2e"),
    ("random_forest_clf", "four",
     {"n_trees": 40, "max_depth": 5, "min_samples_split": 4},
     "f1cb9f8511b919f0d824586054cb2ba1f0c57e7c7e1dcc291c26e4eee39ccac2",
     "f013b6e2cabaed604d0fd24dcc06a5eb4e80b9a67bec5af0ae4e7f4e45d30b01",
     "d4dfbd1eb467b4aed5753cf3a14bd1d1735437e412866cd0ad69429fc463a9db",
     "39acc0bd5c07b552b45556a1447e135d8131562da2504ba5bab0ac6195fe3882",
     "09ac9bc021efc2a5c525e1bdf2d9455f6bc090334dd5edf2f1f45117e6dfc8df",
     "1ba9067a7d151b9aa72f24b369558e69113dc98ee99e11a4e6d1b68d9fc26344"),
    ("random_forest_clf", "many", {"n_trees": 40},
     "c664bc70f7d128a0ebcf457d941cbeaa8c6b5b60b2a0ba4331413b7277f9650b",
     "7be843ee29e2bd100b3a6e9ed00a23a17db09ea6c20eba14a60bbdb84ee1f1be",
     "10f9137c21dba0d129d3afb4465c93688f9f6d81503f4d0d97edef5bb8754120",
     "dc85011a148faee3387393f7dab74b7624e02be77ecd3c91e73f77f8eba03609",
     "23237e06fcf15eb152a2a2f008edbdbbd96b5b3ef7eb240c7b678bf2b222cd5e",
     "19a207057e50ec1d41cacf128bb976cc0766e009859f5146ff0466fb33cc8a0b"),
    ("random_forest_reg", "score", {"n_trees": 30},
     "bae3d1a70ed9eae7271a2335283bcac0e2ea9b0b05f39b05ce6e7666e3cebad4",
     "36a1ddb6ed31aab23b53a130ce07893df1f7ff0d40240d71bc8bb4c7214df899",
     "b9c7e548b8c9ea88a6d2e44e283ec582a0165246d4201ac93c54a13ed0a814e4",
     "368481e44de93c016ca83eb0ba0a25c9c488f23e192acc317300baa500375b51",
     "9efbb6f26e30615b53c28d37a60f0b84516373f273f042f241d8d3370788b3ea",
     "fff68af94e657dc1cc2e13aba440e14e23387ddc0778d1a590d639fd85844c56"),
    ("random_forest_reg", "score",
     {"n_trees": 30, "max_depth": None, "min_samples_split": 5},
     "0cc0a29081b7ff37ee4de0529333dbd78e8cee8920900aeec9aef2c9970fad73",
     "8ae393871b932bafb7d214d32d54d8ace4c80324287dc83187e0435238406a65",
     "ce247b7787d5a04f0cb17ef4393d36072c59993322cb2bb161c47e61aa628b25",
     "21071825ad641c8f6379abf9059b19bf89752c26708c9e4bb88bd5652021a9e6",
     "86aa7c9aaa1a54dff4d8688771dd7ac70fb38f2595acf6a9a0e473630c32c190",
     "e3e23460cde7a300ab1565ea006baa5924cc315e84210afe011b82408bd4f7eb"),
]


@pytest.mark.parametrize(
    "algorithm,labels,hyperparams,v1_digest,v2_digest,v3_digest,v4_digest,v5_digest,v6_digest",
    TREE_DIGESTS,
    ids=[f"{a}-{l}-hyperparams{i}-{v1}" for i, (a, l, _, v1, *_) in enumerate(TREE_DIGESTS)],
)
def test_tree_model_files_keep_their_bytes(algorithm, labels, hyperparams, v1_digest,
                                           v2_digest, v3_digest, v4_digest, v5_digest,
                                           v6_digest, tmp_path):
    config = TrainConfig(algorithm=algorithm, seed=3, hyperparams=hyperparams)
    model = train(config, tree_guard_dataset(labels))
    for name, rebuild in (("v1", v1_payload), ("v2", v2_payload), ("v3", v3_payload),
                          ("v4", v4_payload), ("v5", v5_payload)):
        (tmp_path / f"{name}.json").write_text(v5_checked_json(rebuild(model_to_payload(model))),
                                               "utf-8")
    save_trained_model(model, tmp_path / "v6.json")
    digest = {name: hashlib.sha256((tmp_path / f"{name}.json").read_bytes()).hexdigest()
              for name in ("v1", "v2", "v3", "v4", "v5", "v6")}
    assert digest == {"v1": v1_digest, "v2": v2_digest, "v3": v3_digest, "v4": v4_digest,
                      "v5": v5_digest, "v6": v6_digest}


# --- linear regression ---------------------------------------------------------------

def test_linreg_constant_target():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([0.5, 0.5, 0.5])
    model = train(TrainConfig(algorithm="linear_regression"), score_dataset(X, y))
    pred = predict_many(model, np.array([[10.0], [-4.0]]))
    np.testing.assert_allclose(pred, 0.5, atol=1e-9)


def test_linreg_satisfies_normal_equations(rng):
    X = rng.normal(0, 1, (40, 5))
    beta_true = rng.normal(0, 0.1, 5)
    y = np.clip(X @ beta_true + 0.5, 0, 1)
    model = train(TrainConfig(algorithm="linear_regression"), score_dataset(X, y))
    coef = np.asarray(model.core["coef"])
    intercept = model.core["intercept"]
    Xa = np.hstack([X, np.ones((40, 1))])
    beta = np.append(coef, intercept)
    residual = Xa.T @ (Xa @ beta - y)
    assert np.max(np.abs(residual)) <= 1e-6


def test_linreg_output_clamped(rng):
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = train(TrainConfig(algorithm="linear_regression"), score_dataset(X, y))
    pred = predict_many(model, np.array([[5.0], [-5.0]]))
    assert pred[0] == 1.0 and pred[1] == 0.0


# --- linear svm ----------------------------------------------------------------------

def test_svm_separable_toy():
    ds = two_class_toy()
    model = train(TrainConfig(algorithm="linear_svm"), ds)
    np.testing.assert_array_equal(predict_dataset(model, ds), ds.y_class)


def test_svm_multiclass(rng):
    X = rng.normal(0, 0.2, (60, 3))
    y = rng.integers(0, 3, 60)
    for i in range(60):
        X[i, y[i]] += 3.0
    ds = class_dataset(X, y)
    model = train(TrainConfig(algorithm="linear_svm"), ds)
    acc = (predict_dataset(model, ds) == y).mean()
    assert acc >= 0.95


def masked_svm(X, y, hp, n_classes):
    """The hinge-loss loop linear.train_linear_svm replaced: each epoch masks
    the violating rows of X and of the targets afresh."""
    n, d = X.shape
    W, b = np.zeros((n_classes, d)), np.zeros(n_classes)
    for c in range(n_classes):
        target = np.where(y == c, 1.0, -1.0)
        w, bias = np.zeros(d), 0.0
        for t in range(1, hp["epochs"] + 1):
            eta = 1.0 / (hp["lam"] * (t + 1))
            viol = target * (X @ w + bias) < 1.0
            pull = (target[viol, None] * X[viol]).sum(axis=0) / n
            w = (1.0 - eta * hp["lam"]) * w + eta * pull
            bias += eta * float(target[viol].sum()) / n
        W[c], b[c] = w, bias
    return W, b


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 120), st.integers(1, 40), st.integers(2, 4), st.booleans(),
       st.sampled_from([1e-3, 0.1]), st.integers(0, 2**32 - 1))
def test_svm_equals_the_masked_loop(n, d, n_classes, counts, lam, seed):
    gen = np.random.Generator(np.random.PCG64(seed))
    X = gen.integers(0, 4, (n, d)).astype(float) if counts else gen.normal(0, 1, (n, d))
    y = np.r_[0, 1, gen.integers(0, n_classes, n - 2)]
    hp = {"lam": lam, "epochs": 200}
    (core,) = linear.train_linear_svm(X, y, [np.arange(n)], hp, 0, n_classes)
    W, b = masked_svm(X, y, hp, n_classes)
    assert core["W"].tobytes() == W.tobytes() and core["b"].tobytes() == b.tobytes()


# --- batched fits ------------------------------------------------------------------

# knn refuses a set smaller than k, which makes its batch fit each set alone.
BATCHED = {"linear_svm": {"epochs": 40}, "mlp": {"max_epochs": 25, "hidden": 3},
           "decision_tree": {"max_depth": 4}, "random_forest_clf": {"max_depth": 3},
           "random_forest_reg": {}, "knn": {}}


def fit_alone(config, ds):
    try:
        return train(config, ds)
    except TrainingError as e:
        return e


def same_fit(batched, alone):
    """The same TrainingError message, or models with the same classes and
    core arrays of the same dtype, shape and bytes."""
    if type(batched) is not type(alone):
        return False
    if isinstance(batched, TrainingError):
        return str(batched) == str(alone)
    core, want = batched.core, alone.core
    return batched.classes == alone.classes and core.keys() == want.keys() and all(
        (core[name].dtype, core[name].shape, core[name].tobytes())
        == (want[name].dtype, want[name].shape, want[name].tobytes()) for name in want)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(BATCHED)), st.integers(3, 40), st.integers(1, 6),
       st.integers(2, 11), st.integers(2, 6), st.integers(1, 12), st.integers(1, 70),
       st.integers(0, 2**32 - 1))
def test_a_batched_fit_equals_each_row_set_fitted_alone(algorithm, n, d, n_classes, k,
                                                         n_trees, chunk, seed):
    """Row sets of unequal sizes, some lacking a class or holding only one,
    fitted as one batch give each set the model (or the TrainingError) of a
    fit on that set's rows alone; forests grow in chunks of `chunk` trees."""
    gen = np.random.Generator(np.random.PCG64(seed))
    X = np.round(gen.normal(0, 1, (n, d)), 1)  # ties some values
    y = gen.integers(0, n_classes, n)
    y[gen.integers(0, n)] = n_classes  # one row of its own class: a set without it lacks it
    ds = Dataset(feature_names=tuple(f"f{j}" for j in range(d)), X=X, y_class=y,
                 y_score=np.round(gen.random(n), 2))
    row_sets = [train_rows for train_rows, _ in kfold_indices(n, min(k, n), seed)]
    row_sets += [gen.permutation(n)[:gen.integers(1, n + 1)] for _ in range(2)]
    hp = dict(BATCHED[algorithm], **({"n_trees": n_trees} if "forest" in algorithm else {}))
    config = TrainConfig(algorithm=algorithm, seed=seed, hyperparams=hp)
    with mock.patch.object(trees, "_CHUNK", chunk):
        batched = train_many(config, ds, row_sets)
        alone = [fit_alone(config, ds.take(rows)) for rows in row_sets]
    assert all(map(same_fit, batched, alone))


# --- cross-cutting -------------------------------------------------------------------

@pytest.mark.parametrize("algorithm", CLASSIFIER_NAMES)
def test_classifier_determinism(algorithm, rng):
    X = rng.normal(0, 1, (40, 5))
    y = rng.integers(0, 3, 40)
    ds = class_dataset(X, y)
    hp = {"n_trees": 10} if algorithm == "random_forest_clf" else {}
    cfg = TrainConfig(algorithm=algorithm, seed=7, hyperparams=hp)
    p1 = predict_dataset(train(cfg, ds), ds)
    p2 = predict_dataset(train(cfg, ds), ds)
    np.testing.assert_array_equal(p1, p2)


@pytest.mark.parametrize("algorithm", REGRESSOR_NAMES)
def test_regressor_determinism(algorithm, rng):
    X = rng.normal(0, 1, (40, 5))
    y = rng.random(40)
    ds = score_dataset(X, y)
    hp = {"n_trees": 10} if algorithm == "random_forest_reg" else {}
    cfg = TrainConfig(algorithm=algorithm, seed=7, hyperparams=hp)
    p1 = predict_dataset(train(cfg, ds), ds)
    p2 = predict_dataset(train(cfg, ds), ds)
    np.testing.assert_array_equal(p1, p2)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_save_load_preserves_predictions(algorithm, rng, tmp_path):
    X = rng.normal(0, 1, (30, 4))
    if algorithm in CLASSIFIER_NAMES:
        ds = class_dataset(X, rng.integers(0, 3, 30))
    else:
        ds = score_dataset(X, rng.random(30))
    hp = {"n_trees": 5} if algorithm.startswith("random_forest") else {}
    model = train(TrainConfig(algorithm=algorithm, seed=3, hyperparams=hp), ds)
    save_trained_model(model, tmp_path / "m.json")
    loaded = load_trained_model(tmp_path / "m.json")
    np.testing.assert_array_equal(
        predict_dataset(model, ds), predict_dataset(loaded, ds)
    )


def test_predict_rejects_arity_mismatch(rng):
    ds = two_class_toy()
    model = train(TrainConfig(algorithm="knn"), ds)
    with pytest.raises(DatasetError):
        predict(model, np.zeros(3))
    with pytest.raises(DatasetError):
        predict_many(model, np.zeros((2, 5)))


def test_predict_rejects_nan_query():
    ds = two_class_toy()
    model = train(TrainConfig(algorithm="knn"), ds)
    with pytest.raises(DatasetError):
        predict(model, np.array([np.nan, 0.0]))
