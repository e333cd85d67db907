"""Training configuration, dispatch, prediction, and model files."""

from dataclasses import dataclass, field

import numpy as np

from .._util import load_checked_json, save_checked_json
from ..errors import DatasetError, ModelFormatError, TrainingError
from . import linear, mlp, neighbors, trees
from .dataset import Dataset

ML_MODEL_FORMAT = "traitlex-ml-model"
ML_MODEL_FORMAT_VERSION = 1

CLASSIFIERS = {
    "perceptron": {"lr": 1.0, "max_epochs": 1000},
    "mlp": {"hidden": 15, "lr": 0.001, "l2": 1e-5, "max_epochs": 200, "init_scale": 0.5},
    "knn": {"k": 5},
    "decision_tree": {"max_depth": None, "min_samples_split": 2},
    "random_forest_clf": {"n_trees": 1000, "max_depth": None, "min_samples_split": 2},
    "linear_svm": {"lam": 1e-3, "epochs": 1000},
}
REGRESSORS = {
    "linear_regression": {},
    "random_forest_reg": {"n_trees": 100, "max_depth": 2, "min_samples_split": 2},
}
ALGORITHMS = {**CLASSIFIERS, **REGRESSORS}


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
        unknown = set(self.hyperparams) - set(ALGORITHMS[self.algorithm])
        if unknown:
            raise TrainingError(
                f"unknown hyperparameter(s) for {self.algorithm}: "
                f"{', '.join(sorted(unknown))}"
            )

    @property
    def kind(self) -> str:
        return "classifier" if self.algorithm in CLASSIFIERS else "regressor"

    def resolved(self) -> dict:
        return {**ALGORITHMS[self.algorithm], **self.hyperparams}


@dataclass
class TrainedModel:
    algorithm: str
    kind: str
    feature_names: tuple
    classes: tuple | None
    seed: int
    hyperparams: dict
    core: dict

    @property
    def loss_history(self):
        return self.core.get("loss_history")


_TRAINERS = {
    "perceptron": linear.train_perceptron,
    "linear_svm": linear.train_linear_svm,
    "mlp": mlp.train_mlp,
    "knn": neighbors.train_knn,
    "decision_tree": trees.train_decision_tree,
    "random_forest_clf": lambda X, y, hp, seed, nc: trees.train_forest(
        X, y, hp, seed, nc, regression=False
    ),
    "random_forest_reg": lambda X, y, hp, seed, nc: trees.train_forest(
        X, y, hp, seed, nc, regression=True
    ),
    "linear_regression": lambda X, y, hp, seed, nc: linear.train_linear_regression(
        X, y, hp, seed
    ),
}

_PREDICTORS = {
    "perceptron": linear.linear_predict_many,
    "linear_svm": linear.linear_predict_many,
    "mlp": mlp.mlp_predict_many,
    "knn": neighbors.knn_predict_many,
    "decision_tree": trees.decision_tree_predict_many,
    "random_forest_clf": trees.forest_predict_many,
    "random_forest_reg": trees.forest_predict_many,
    "linear_regression": linear.linear_regression_predict_many,
}


def train(config: TrainConfig, ds: Dataset) -> TrainedModel:
    """Fit the configured algorithm; same config and data give the same model."""
    hp = config.resolved()
    if config.kind == "classifier":
        if ds.y_class is None:
            raise TrainingError(f"{config.algorithm} needs class labels")
        classes = tuple(int(c) for c in np.unique(ds.y_class))
        if len(classes) < 2:
            raise TrainingError("training data contains a single class")
        y = np.searchsorted(np.array(classes), ds.y_class)
        n_classes = len(classes)
    else:
        if ds.y_score is None:
            raise TrainingError(f"{config.algorithm} needs score labels")
        classes = None
        y = ds.y_score
        n_classes = 0
    core = _TRAINERS[config.algorithm](ds.X, y, hp, config.seed, n_classes)
    return TrainedModel(
        algorithm=config.algorithm,
        kind=config.kind,
        feature_names=tuple(ds.feature_names),
        classes=classes,
        seed=config.seed,
        hyperparams=hp,
        core=core,
    )


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
    raw = _PREDICTORS[model.algorithm](model.core, X)
    if model.kind == "classifier":
        return np.asarray(model.classes)[np.asarray(raw, dtype=int)]
    return np.asarray(raw, dtype=float)


def predict(model: TrainedModel, x, feature_names=None):
    """Predict one feature vector, checking arity and optionally names."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DatasetError("predict takes a single 1-dimensional feature vector")
    if feature_names is not None and tuple(feature_names) != model.feature_names:
        raise DatasetError("feature names do not match the model")
    value = predict_many(model, x[None, :])[0]
    return int(value) if model.kind == "classifier" else float(value)


def predict_dataset(model: TrainedModel, ds: Dataset) -> np.ndarray:
    if tuple(ds.feature_names) != model.feature_names:
        raise DatasetError("dataset feature names do not match the model")
    return predict_many(model, ds.X)


def _encode_core(algorithm: str, core: dict) -> dict:
    if algorithm in ("perceptron", "linear_svm"):
        return {"W": core["W"].tolist(), "b": core["b"].tolist()}
    if algorithm == "linear_regression":
        return {"coef": core["coef"].tolist(), "intercept": core["intercept"]}
    if algorithm == "mlp":
        return {
            "W1": core["W1"].tolist(), "b1": core["b1"].tolist(),
            "W2": core["W2"].tolist(), "b2": core["b2"].tolist(),
            "loss_history": list(core["loss_history"]),
        }
    if algorithm == "knn":
        return {
            "X": core["X"].tolist(), "y": core["y"].tolist(),
            "k": core["k"], "n_classes": core["n_classes"],
        }
    if algorithm == "decision_tree":
        return {"tree": core["tree"], "n_classes": core["n_classes"]}
    return {
        "trees": core["trees"],
        "n_classes": core["n_classes"],
        "regression": core["regression"],
    }


def _decode_core(algorithm: str, params: dict) -> dict:
    if algorithm in ("perceptron", "linear_svm"):
        return {"W": np.array(params["W"], dtype=float),
                "b": np.array(params["b"], dtype=float)}
    if algorithm == "linear_regression":
        return {"coef": np.array(params["coef"], dtype=float),
                "intercept": float(params["intercept"])}
    if algorithm == "mlp":
        return {
            "W1": np.array(params["W1"], dtype=float),
            "b1": np.array(params["b1"], dtype=float),
            "W2": np.array(params["W2"], dtype=float),
            "b2": np.array(params["b2"], dtype=float),
            "loss_history": list(params["loss_history"]),
        }
    if algorithm == "knn":
        return {
            "X": np.array(params["X"], dtype=float),
            "y": np.array(params["y"], dtype=int),
            "k": int(params["k"]), "n_classes": int(params["n_classes"]),
        }
    if algorithm == "decision_tree":
        return {"tree": params["tree"], "n_classes": int(params["n_classes"])}
    return {
        "trees": params["trees"],
        "n_classes": int(params["n_classes"]),
        "regression": bool(params["regression"]),
    }


def model_to_payload(model: TrainedModel) -> dict:
    """JSON-safe representation of a trained model, without envelope."""
    return {
        "format": ML_MODEL_FORMAT,
        "format_version": ML_MODEL_FORMAT_VERSION,
        "algorithm": model.algorithm,
        "kind": model.kind,
        "feature_names": list(model.feature_names),
        "classes": None if model.classes is None else list(model.classes),
        "seed": model.seed,
        "hyperparams": model.hyperparams,
        "params": _encode_core(model.algorithm, model.core),
    }


def model_from_payload(payload: dict, where: str = "model payload") -> TrainedModel:
    if not isinstance(payload, dict) or payload.get("format") != ML_MODEL_FORMAT:
        raise ModelFormatError(f"{where}: not a trained model record")
    if payload.get("format_version") != ML_MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{where}: unsupported format version {payload.get('format_version')!r}"
        )
    algorithm = payload["algorithm"]
    if algorithm not in ALGORITHMS:
        raise ModelFormatError(f"{where}: unknown algorithm {algorithm!r}")
    classes = payload["classes"]
    return TrainedModel(
        algorithm=algorithm,
        kind=payload["kind"],
        feature_names=tuple(payload["feature_names"]),
        classes=None if classes is None else tuple(int(c) for c in classes),
        seed=int(payload["seed"]),
        hyperparams=payload["hyperparams"],
        core=_decode_core(algorithm, payload["params"]),
    )


def save_trained_model(model: TrainedModel, path) -> None:
    save_checked_json(path, model_to_payload(model))


def load_trained_model(path) -> TrainedModel:
    payload = load_checked_json(
        path, ML_MODEL_FORMAT, ML_MODEL_FORMAT_VERSION, "trained model", "ml-train"
    )
    return model_from_payload(payload, where=str(path))
