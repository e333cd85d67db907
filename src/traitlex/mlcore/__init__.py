"""Supervised learners over adjective-count and questionnaire features."""

from .base import (
    ALGORITHMS,
    TrainConfig,
    TrainedModel,
    load_trained_model,
    model_from_payload,
    model_to_payload,
    predict,
    predict_dataset,
    predict_many,
    save_trained_model,
    train,
    train_many,
)
from .dataset import (
    Dataset,
    corpus_to_dataset,
    filter_datapoints_by_coverage,
    load_dataset_csv,
    save_dataset_csv,
    select_features_by_frequency,
)

__all__ = [
    "ALGORITHMS",
    "Dataset",
    "TrainConfig",
    "TrainedModel",
    "corpus_to_dataset",
    "filter_datapoints_by_coverage",
    "load_dataset_csv",
    "load_trained_model",
    "model_from_payload",
    "model_to_payload",
    "predict",
    "predict_dataset",
    "predict_many",
    "save_dataset_csv",
    "save_trained_model",
    "select_features_by_frequency",
    "train",
    "train_many",
]
