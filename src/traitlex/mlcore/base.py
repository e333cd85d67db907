"""Training configuration, dispatch, prediction, and model files."""

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .._util import (
    check_fields,
    is_int,
    is_int_list,
    is_number,
    is_str_list,
    load_checked_json,
    save_checked_json,
)
from ..errors import DatasetError, ModelFormatError, TrainingError
from . import linear, mlp, neighbors, trees
from .dataset import Dataset

ML_MODEL_FORMAT = "traitlex-ml-model"
ML_MODEL_FORMAT_VERSION = 6


def _is_list(v) -> bool:
    return isinstance(v, list)


def _finite(v) -> np.ndarray:
    """v as floats, refusing the NaN and infinities that JSON readers accept."""
    a = np.array(v, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("not finite")
    return a


# Codecs of saved params fields: (JSON kind, check, decoder).  Arrays are
# saved as nested lists and decoded back to numpy.
_FLOATS = ("a list of finite numbers", _is_list, _finite)
_LABELS = ("a list of integers", is_int_list, lambda v: np.array(v, dtype=int))
_NUMBER = ("a finite number", is_number, lambda v: float(_finite(v)))
# The flat node table of trees.py; _check_table checks it as a whole.  Leaf
# values keep their JSON type: integers for classes, numbers for regression.
_TREES = {"feature": _LABELS, "threshold": _FLOATS, "left": _LABELS,
          "value": ("a list of numbers", _is_list, np.array)}
# The linear classifiers' params and, in named sizes, their shapes.
_LINEAR = {"W": _FLOATS, "b": _FLOATS}, {"W": "Cd", "b": "C"}


@dataclass(frozen=True)
class Learner:
    """One learner: its kind ("classifier" or "regressor"), its default
    hyperparameters, `train(X, y, row_sets, hp, seed, n_classes)` giving one
    core per row set of X, each the core of a fit on those rows alone,
    `predict(core, X, hp, n_classes)` giving raw predictions (n_classes is 0
    for a regressor), its saved params codecs and, for all but the tree learners,
    the shape of each params array in named sizes: d features and C classes
    come from the payload, h hidden units and m training rows from the first
    array that holds them.  A tree learner has no shapes; _check_table checks
    its node table instead."""

    kind: str
    defaults: dict
    train: Callable
    predict: Callable
    params: dict
    shapes: dict | None = None


ALGORITHMS = {
    "perceptron": Learner("classifier", {"lr": 1.0, "max_epochs": 1000},
                          linear.train_perceptron, linear.linear_predict_many, *_LINEAR),
    "mlp": Learner(
        "classifier",
        {"hidden": 15, "lr": 0.001, "l2": 1e-5, "max_epochs": 200, "init_scale": 0.5},
        mlp.train_mlp, mlp.mlp_predict_many,
        {"W1": _FLOATS, "b1": _FLOATS, "W2": _FLOATS, "b2": _FLOATS},
        {"W1": "dh", "b1": "h", "W2": "hC", "b2": "C"},
    ),
    "knn": Learner("classifier", {"k": 5}, neighbors.train_knn, neighbors.knn_predict_many,
                   {"X": _FLOATS, "y": _LABELS}, {"X": "md", "y": "m"}),
    "decision_tree": Learner("classifier", {"max_depth": None, "min_samples_split": 2},
                             trees.train_decision_tree, trees.predict_many, _TREES),
    "random_forest_clf": Learner(
        "classifier", {"n_trees": 1000, "max_depth": None, "min_samples_split": 2},
        trees.train_forest, trees.predict_many, _TREES,
    ),
    "linear_svm": Learner("classifier", {"lam": 1e-3, "epochs": 1000},
                          linear.train_linear_svm, linear.linear_predict_many, *_LINEAR),
    "linear_regression": Learner(
        "regressor", {}, linear.train_linear_regression, linear.linear_regression_predict_many,
        {"coef": _FLOATS, "intercept": _NUMBER}, {"coef": "d"},
    ),
    "random_forest_reg": Learner(
        "regressor", {"n_trees": 100, "max_depth": 2, "min_samples_split": 2},
        trees.train_forest, trees.predict_many, _TREES,
    ),
}


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str
    seed: int = 0
    hyperparams: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise TrainingError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {', '.join(sorted(ALGORITHMS))}"
            )
        unknown = set(self.hyperparams) - set(ALGORITHMS[self.algorithm].defaults)
        if unknown:
            raise TrainingError(
                f"unknown hyperparameter(s) for {self.algorithm}: "
                f"{', '.join(sorted(unknown))}"
            )
        if self.resolved().get("n_trees", 1) < 1:
            raise TrainingError(f"{self.algorithm}: n_trees must be at least 1")

    @property
    def kind(self) -> str:
        return ALGORITHMS[self.algorithm].kind

    def resolved(self) -> dict:
        return {**ALGORITHMS[self.algorithm].defaults, **self.hyperparams}


@dataclass
class TrainedModel:
    algorithm: str
    feature_names: tuple
    classes: tuple | None
    seed: int
    hyperparams: dict
    core: dict

    @property
    def kind(self) -> str:
        return ALGORITHMS[self.algorithm].kind


def train_many(config: TrainConfig, ds: Dataset, row_sets) -> list:
    """One fit per row set of `ds`: the TrainedModel of `train(config,
    ds.take(rows))`, byte for byte, or the TrainingError that fit raises.

    Classes are numbered per fit, so row sets that hold the same classes are
    fitted as one batch.  A batch whose trainer raises a TrainingError is
    fitted again one row set at a time, so each error names its own fit.
    """
    hp = config.resolved()
    learner = ALGORITHMS[config.algorithm]
    labels = ds.y_class if config.kind == "classifier" else ds.y_score
    if labels is None:
        kind = "class" if config.kind == "classifier" else "score"
        return [TrainingError(f"{config.algorithm} needs {kind} labels")] * len(row_sets)
    groups = {}
    for i, rows in enumerate(row_sets):
        classes = None if config.kind == "regressor" else tuple(
            int(c) for c in np.unique(labels[rows]))
        groups.setdefault(classes, []).append(i)
    fits = [None] * len(row_sets)

    def fit(members, classes):
        y = labels if classes is None else np.searchsorted(np.array(classes), labels)
        try:
            cores = learner.train(ds.X, y, [row_sets[i] for i in members], hp, config.seed,
                                  0 if classes is None else len(classes))
        except TrainingError as e:
            if len(members) == 1:
                fits[members[0]] = e
            else:
                for i in members:
                    fit([i], classes)
            return
        for i, core in zip(members, cores):
            fits[i] = TrainedModel(algorithm=config.algorithm,
                                   feature_names=tuple(ds.feature_names), classes=classes,
                                   seed=config.seed, hyperparams=hp, core=core)

    for classes, members in groups.items():
        if classes is not None and len(classes) < 2:
            for i in members:
                fits[i] = TrainingError("training data contains a single class")
        else:
            fit(members, classes)
    return fits


def train(config: TrainConfig, ds: Dataset) -> TrainedModel:
    """Fit the configured algorithm; same config and data give the same model."""
    (model,) = train_many(config, ds, [np.arange(ds.n)])
    if isinstance(model, TrainingError):
        raise model
    return model


def predict_many(model: TrainedModel, X) -> np.ndarray:
    """Predict a batch; classifiers return original class labels."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise DatasetError(
            f"model expects {len(model.feature_names)} features, "
            f"got shape {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise DatasetError("feature matrix contains non-finite values")
    n_classes = 0 if model.classes is None else len(model.classes)
    raw = ALGORITHMS[model.algorithm].predict(model.core, X, model.hyperparams, n_classes)
    if n_classes:
        return np.asarray(model.classes)[np.asarray(raw, dtype=int)]
    return np.asarray(raw, dtype=float)


def predict(model: TrainedModel, x):
    """Predict one feature vector, checking its arity."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DatasetError("predict takes a single 1-dimensional feature vector")
    value = predict_many(model, x[None, :])[0]
    return int(value) if model.kind == "classifier" else float(value)


def predict_dataset(model: TrainedModel, ds: Dataset) -> np.ndarray:
    if tuple(ds.feature_names) != model.feature_names:
        raise DatasetError("dataset feature names do not match the model")
    return predict_many(model, ds.X)


# The other payload fields model_from_payload reads, with their JSON types;
# whether "classes" is null follows from the algorithm.
_FIELDS = {
    "algorithm": ("one of " + ", ".join(sorted(ALGORITHMS)),
                  lambda v: isinstance(v, str) and v in ALGORITHMS),
    "feature_names": ("a list of strings", is_str_list),
    "classes": ("null or a non-empty list of integers",
                lambda v: v is None or (is_int_list(v) and len(v) > 0)),
    "seed": ("an integer", is_int),
    "hyperparams": ("an object", lambda v: isinstance(v, dict)),
    "params": ("an object", lambda v: isinstance(v, dict)),
}


def _decode_core(learner: Learner, params: dict, where: str) -> dict:
    core = {}
    for name, (kind, ok, decode) in learner.params.items():
        try:
            if name not in params or not ok(params[name]):
                raise ValueError(name)
            core[name] = decode(params[name])
        except (TypeError, ValueError):  # also ragged or non-numeric arrays
            raise ModelFormatError(f"{where}: params field {name!r} must be {kind}") from None
    return core


def _check_table(core, n_features, n_classes, where):
    """Refuse an empty node table, or one whose walk could leave the table or
    never end, or whose leaves hold no valid prediction.  A split node's right
    child follows its left one, so the left one must come before the last node."""
    def refuse(name, rule):
        raise ModelFormatError(f"{where}: params field {name!r} must {rule}")

    feature, n = core["feature"], core["feature"].size
    if n == 0 or np.any((feature < -1) | (feature >= n_features)):
        refuse("feature", f"hold nodes, each -1 (a leaf) or a feature index below {n_features}")
    for name in ("threshold", "left", "value"):
        if core[name].shape != (n,):
            refuse(name, f"hold one entry per node ({n})")
    split = np.flatnonzero(feature >= 0)
    if np.any((core["left"][split] <= split) | (core["left"][split] >= n - 1)):
        refuse("left", f"give each split node a left child after it and below {n - 1}")
    value = core["value"]
    leaf = value[feature < 0]
    if n_classes == 0 and not (value.dtype.kind in "if" and np.all(np.isfinite(leaf))):
        refuse("value", "hold a finite number for each leaf")
    if n_classes and not (value.dtype.kind == "i" and np.all((0 <= leaf) & (leaf < n_classes))):
        refuse("value", f"hold a class index below {n_classes} for each leaf")


def _check_shapes(algorithm, core, hp, n_features, n_classes, where):
    """Refuse params arrays whose shapes do not fit the features and classes,
    and knn labels or a hyperparams k that a prediction could not use."""
    def refuse(name, rule, group="params"):
        raise ModelFormatError(f"{where}: {group} field {name!r} must {rule}")

    sizes = {"d": n_features, "C": n_classes}
    for name, dims in ALGORITHMS[algorithm].shapes.items():
        shape = core[name].shape
        for dim, size in zip(dims, shape):
            sizes.setdefault(dim, size)
        if shape != tuple(sizes.get(dim) for dim in dims):
            named = ", ".join(f"{dim}={sizes.get(dim, '?')}" for dim in dims)
            refuse(name, f"have shape ({named}), not {shape}")
    if algorithm == "knn":
        if np.any((core["y"] < 0) | (core["y"] >= n_classes)):
            refuse("y", f"hold class indices below {n_classes}")
        if not (is_int(hp.get("k")) and 1 <= hp["k"] <= sizes["m"]):
            refuse("k", f"be an integer from 1 to {sizes['m']}, the rows of 'X'", "hyperparams")


def model_to_payload(model: TrainedModel) -> dict:
    """JSON-safe representation of a trained model, without envelope."""
    core = model.core
    return {
        "algorithm": model.algorithm,
        "feature_names": list(model.feature_names),
        "classes": None if model.classes is None else list(model.classes),
        "seed": model.seed,
        "hyperparams": model.hyperparams,
        "params": {
            name: core[name].tolist() if isinstance(core[name], np.ndarray) else core[name]
            for name in ALGORITHMS[model.algorithm].params
        },
    }


def model_from_payload(payload: dict, where: str = "model payload") -> TrainedModel:
    """The model of a model_to_payload record; a bad field, or a params or
    hyperparams field the learner does not define, is refused naming `where`."""
    check_fields(payload, _FIELDS, where)
    algorithm, classes = payload["algorithm"], payload["classes"]
    learner = ALGORITHMS[algorithm]
    if (classes is None) != (learner.kind == "regressor"):
        raise ModelFormatError(f"{where}: field 'classes' must be "
                               f"{'null' if learner.kind == 'regressor' else 'a list'} "
                               f"for a {learner.kind}")
    for group, known in (("params", learner.params), ("hyperparams", learner.defaults)):
        unknown = sorted(set(payload[group]) - set(known))
        if unknown:
            raise ModelFormatError(f"{where}: {group} field {unknown[0]!r} is not defined "
                                   f"for {algorithm}")
    core = _decode_core(learner, payload["params"], where)
    n_features = len(payload["feature_names"])
    n_classes = 0 if classes is None else len(classes)
    if learner.shapes is None:
        _check_table(core, n_features, n_classes, where)
    else:
        _check_shapes(algorithm, core, payload["hyperparams"], n_features, n_classes, where)
    return TrainedModel(
        algorithm=algorithm,
        feature_names=tuple(payload["feature_names"]),
        classes=None if classes is None else tuple(classes),
        seed=payload["seed"],
        hyperparams=payload["hyperparams"],
        core=core,
    )


def save_trained_model(model: TrainedModel, path) -> None:
    save_checked_json(path, dict(model_to_payload(model), format=ML_MODEL_FORMAT,
                                 format_version=ML_MODEL_FORMAT_VERSION))


def load_trained_model(path) -> TrainedModel:
    payload = load_checked_json(
        path, ML_MODEL_FORMAT, ML_MODEL_FORMAT_VERSION, "trained model", "ml-train"
    )
    return model_from_payload(payload, str(path))
