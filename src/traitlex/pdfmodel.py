"""Per-word score densities and their aggregation into trait predictions.

The model counts, for every adjective that survived the frequency cut, its
occurrences in each score bin of one trait: a word's count in bin k is the
sum of its per-sample frequencies over training samples whose score fell in
that bin.  Counts are corrected for the uneven number of samples per bin
(the g vector) and normalized per word.  Only the counts are stored:

    mass[w, k] ∝ (counts[w, k] + alpha) / g[k]

Prediction multiplies the mass vectors of every word occurrence in a text,
treating occurrences as independent, then renormalizes.  The product runs
in log space so hundreds of occurrences cannot underflow.  A peaked result
is summarized by a confidence factor: the base-10 log of the ratio between
the two largest bin masses, clamped to [0, 10].
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._util import (
    check_fields,
    is_int,
    is_int_list,
    is_number,
    is_str_list,
    load_checked_json,
    save_checked_json,
)
from .binning import DEFAULT_BINNING, BinningScheme
from .corpus import CorpusStore, FilterPolicy, TextSample, filter_sample
from .errors import (
    DatasetError,
    DegenerateDistributionError,
    EmptyBinError,
    FilterRejection,
    ModelFormatError,
)

MODEL_FORMAT = "traitlex-pdf-model"
MODEL_FORMAT_VERSION = 2

CONFIDENCE_MAX = 10.0


def _derive_mass(model):
    """Per-word mass rows and their logarithms (log 0 is -inf)."""
    weighted = (model.counts + model.smoothing_alpha) / model.g
    totals = weighted.sum(axis=1, keepdims=True)
    empty = np.flatnonzero(totals[:, 0] <= 0)
    if empty.size:
        word = model.vocab[empty[0]]
        raise DatasetError(f"'counts': word {word!r} has no mass in any bin")
    mass = weighted / totals
    with np.errstate(divide="ignore"):
        return mass, np.log(mass)


@dataclass(frozen=True)
class PdfPersonalityModel:
    """Row i of the (V, K) counts, mass and log_mass is word vocab[i]."""

    trait: str
    binning: BinningScheme
    g: np.ndarray
    vocab: tuple
    counts: np.ndarray
    min_word_freq: int
    smoothing_alpha: float
    index: dict = field(init=False, repr=False, compare=False)
    mass: np.ndarray = field(init=False, repr=False, compare=False)
    log_mass: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.binning.n_bins
        if self.g.shape != (n,):
            raise DatasetError("'g' must have one entry per bin")
        if np.any(self.g <= 0):
            raise DatasetError("'g' must be positive in every bin")
        if list(self.vocab) != sorted(set(self.vocab)):
            raise DatasetError("'vocab' must be sorted with no duplicates")
        if self.counts.shape != (len(self.vocab), n):
            raise DatasetError(f"'counts' must be {len(self.vocab)} x {n} (vocab x bins)")
        if not np.all(self.counts >= 0):
            raise DatasetError("'counts' must be non-negative")
        if not 0 <= self.smoothing_alpha < np.inf:
            raise DatasetError("'smoothing_alpha' must be finite and non-negative")
        mass, log_mass = _derive_mass(self)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "log_mass", log_mass)
        object.__setattr__(self, "index", {w: i for i, w in enumerate(self.vocab)})
        for array in (self.g, self.counts, mass, log_mass):
            array.setflags(write=False)

    @property
    def vocabulary(self) -> tuple:
        return self.vocab


@dataclass(frozen=True)
class AggregateResult:
    phi: np.ndarray | None
    words_used: int
    degenerate: bool


@dataclass(frozen=True)
class PdfPrediction:
    phi: np.ndarray
    label: float
    confidence: float
    words_used: int


def build_model(
    store: CorpusStore,
    trait: str,
    binning: BinningScheme = DEFAULT_BINNING,
    min_word_freq: int = 300,
    smoothing_alpha: float = 0.0,
) -> PdfPersonalityModel:
    """Count each word's occurrences per score bin over a scored corpus.

    Samples without a score for the trait, or with a score outside the
    binning range, are skipped.  Words whose total count over the used
    samples falls below min_word_freq are dropped.  Every bin must receive
    at least one sample, since an empty bin leaves the correction vector
    undefined.
    """
    n = binning.n_bins
    g = np.zeros(n, dtype=np.int64)
    rows: dict[str, list] = {}
    for sample in store.samples:
        score = (sample.scores or {}).get(trait)
        if score is None or not binning.contains(score):
            continue
        k = binning.bin_index(score)
        g[k] += 1
        for word, freq in sample.adj_freqs.items():
            row = rows.get(word)
            if row is None:
                row = rows[word] = [0] * n
            row[k] += freq
    if np.any(g == 0):
        empty = ", ".join(str(int(k)) for k in np.flatnonzero(g == 0))
        raise EmptyBinError(f"empty bin {empty}: no training sample landed there")
    vocab = tuple(sorted(w for w, row in rows.items() if sum(row) >= min_word_freq))
    return PdfPersonalityModel(
        trait=trait,
        binning=binning,
        g=g,
        vocab=vocab,
        counts=np.array([rows[w] for w in vocab], dtype=np.int64).reshape(len(vocab), n),
        min_word_freq=min_word_freq,
        smoothing_alpha=smoothing_alpha,
    )


def aggregate(model: PdfPersonalityModel, adj_freqs: dict) -> AggregateResult:
    """Combine the mass vectors of every known word occurrence.

    Words absent from the model are ignored.  With no usable word at all
    the result is the uniform distribution.  If every bin ends with zero
    mass the result is flagged degenerate and phi is None.

    Each bin adds its freq * log_mass terms one after another in the order
    of adj_freqs (a running sum, not a matmul or a pairwise sum), so phi is
    the same to the last bit whatever the number of words.
    """
    n = model.binning.n_bins
    index = model.index
    hits = [(index[w], f) for w, f in adj_freqs.items() if w in index]
    words_used = sum(f for _, f in hits)
    if words_used == 0:
        return AggregateResult(phi=np.full(n, 1.0 / n), words_used=0, degenerate=False)
    rows, freqs = zip(*hits)
    terms = np.array(freqs, dtype=float)[:, None] * model.log_mass[list(rows)]
    log_phi = np.add.accumulate(terms, axis=0)[-1]
    peak = log_phi.max()
    if not np.isfinite(peak):
        return AggregateResult(phi=None, words_used=words_used, degenerate=True)
    phi = np.exp(log_phi - peak)
    phi /= phi.sum()
    return AggregateResult(phi=phi, words_used=words_used, degenerate=False)


def confidence(phi) -> float:
    """log10 ratio of the two largest entries, clamped to [0, 10]."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.shape[0] < 2:
        raise DatasetError("confidence needs a distribution over at least 2 bins")
    if np.any(phi < 0):
        raise DatasetError("distribution has negative entries")
    if abs(float(phi.sum()) - 1.0) > 1e-6:
        raise DatasetError("distribution does not sum to 1")
    top2 = np.partition(phi, -2)[-2:]
    p2, p1 = float(top2[0]), float(top2[1])
    if p2 == 0.0:
        return CONFIDENCE_MAX
    return float(min(max(np.log10(p1 / p2), 0.0), CONFIDENCE_MAX))


def predict(
    model: PdfPersonalityModel,
    sample: TextSample,
    policy: FilterPolicy | None = None,
) -> PdfPrediction:
    """Aggregate a sample's adjectives and name the winning bin midpoint."""
    if policy is not None:
        reason = filter_sample(sample, policy)
        if reason is not None:
            raise FilterRejection(sample.id, reason)
    result = aggregate(model, sample.adj_freqs)
    if result.degenerate:
        raise DegenerateDistributionError(
            f"sample {sample.id!r}: degenerate distribution (no informative mass)"
        )
    phi = result.phi
    label = model.binning.labels[int(np.argmax(phi))]
    return PdfPrediction(
        phi=phi,
        label=label,
        confidence=confidence(phi),
        words_used=result.words_used,
    )


def _model_payload(model: PdfPersonalityModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "trait": model.trait,
        "binning": model.binning.to_dict(),
        "g": model.g.tolist(),
        "min_word_freq": model.min_word_freq,
        "smoothing_alpha": model.smoothing_alpha,
        "vocab": list(model.vocab),
        "counts": model.counts.tolist(),
    }


def save_model(model: PdfPersonalityModel, path) -> None:
    save_checked_json(path, _model_payload(model), indent=2)


# Every payload field the loader reads, with the JSON type it must have.
# BinningScheme.from_dict checks the binning's fields; shapes and values
# are checked by PdfPersonalityModel itself.
_FIELDS = {
    "trait": ("a string", lambda v: isinstance(v, str)),
    "binning": ("an object", lambda v: isinstance(v, dict)),
    "g": ("a list of integers", is_int_list),
    "vocab": ("a list of strings", is_str_list),
    "counts": ("a list of integer lists", lambda v: isinstance(v, list)
               and all(map(is_int_list, v))),
    "min_word_freq": ("an integer", is_int),
    "smoothing_alpha": ("a number", is_number),
}


def load_model(path) -> PdfPersonalityModel:
    path = Path(path)
    payload = load_checked_json(
        path, MODEL_FORMAT, MODEL_FORMAT_VERSION, "trait density model", "pdf-build"
    )
    check_fields(payload, _FIELDS, str(path))
    try:
        binning = BinningScheme.from_dict(payload["binning"])
    except DatasetError as e:
        raise ModelFormatError(f"{path}: field 'binning' is invalid ({e})") from None
    try:
        return PdfPersonalityModel(
            trait=payload["trait"],
            binning=binning,
            g=np.array(payload["g"], dtype=np.int64),
            vocab=tuple(payload["vocab"]),
            counts=np.array(payload["counts"], dtype=np.int64).reshape(-1, binning.n_bins),
            min_word_freq=payload["min_word_freq"],
            smoothing_alpha=float(payload["smoothing_alpha"]),
        )
    except ValueError:  # counts rows of unequal length
        raise ModelFormatError(f"{path}: field 'counts' rows differ in length") from None
    except DatasetError as e:
        raise ModelFormatError(f"{path}: {e}") from None
