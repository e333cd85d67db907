"""Lexical trait estimation, from-scratch learners, and survey answer models."""

__version__ = "0.1.0"

from . import binning, commonsense, corpus, evaluation, mlcore, pdfmodel, synthgen
from .binning import DEFAULT_BINNING, BinningScheme
from .corpus import (
    AdjectiveLexicon,
    CorpusStore,
    FilterPolicy,
    TextSample,
    bundled_lexicon,
    filter_sample,
    ingest_jsonl,
    load_store,
    persist_store,
    tokenize,
)
from .errors import TraitlexError
from .pdfmodel import (
    PdfPersonalityModel,
    PdfPrediction,
    aggregate,
    build_model,
    confidence,
    load_model,
    predict,
    predict_many,
    save_model,
)

__all__ = [
    "AdjectiveLexicon",
    "BinningScheme",
    "CorpusStore",
    "DEFAULT_BINNING",
    "FilterPolicy",
    "PdfPersonalityModel",
    "PdfPrediction",
    "TextSample",
    "TraitlexError",
    "aggregate",
    "binning",
    "build_model",
    "bundled_lexicon",
    "commonsense",
    "confidence",
    "corpus",
    "evaluation",
    "filter_sample",
    "ingest_jsonl",
    "load_model",
    "load_store",
    "mlcore",
    "pdfmodel",
    "persist_store",
    "predict",
    "predict_many",
    "save_model",
    "synthgen",
    "tokenize",
]
