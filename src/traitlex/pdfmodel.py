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

`predict_many` scores a whole corpus store.  Each sample's freq * log_mass
terms, in vocabulary order, fill one row of a zero-padded (samples, words,
bins) block, a running sum along the padded word axis gives every sample's
log product, and the normalisation, label and confidence run on all rows at
once.  `predict`, `aggregate` and `confidence` run one sample's adjective
dict through the same arithmetic.  A TextSample holds its adjectives in
vocabulary order, so `predict` gives a text the bytes of its store row.
"""

from dataclasses import dataclass, field
from itertools import compress, repeat
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
from .corpus import CorpusStore, FilterPolicy, TextSample, filter_sample, filter_store
from .errors import (
    DatasetError,
    DegenerateDistributionError,
    EmptyBinError,
    FilterRejection,
    ModelFormatError,
)

MODEL_FORMAT = "traitlex-pdf-model"
MODEL_FORMAT_VERSION = 3

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


@dataclass(frozen=True)
class PdfBatch:
    """predict_many's result.  Row i of phi and entry i of labels,
    confidences and words_used belong to the store's sample scored[i] (an
    index); skipped holds (sample id, reason) for every other sample.  Both
    keep the store order."""

    scored: tuple
    phi: np.ndarray
    labels: tuple
    confidences: tuple
    words_used: tuple
    skipped: tuple


def _sum_dtype(counts):
    """np.int64, or object (exact Python ints) where a sum of these positive
    counts could reach 2**63: int64 sums wrap without a word."""
    return object if int(counts.max(initial=0)) * counts.size >= 2**63 else np.int64


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
    undefined, and no word's count in one bin may reach 2**63, the int64 limit.
    """
    if min_word_freq < 0:
        raise DatasetError(f"min_word_freq must be non-negative, got {min_word_freq}")
    n = binning.n_bins
    scores = store.trait_scores(trait)
    if np.all(np.isnan(scores)):
        raise DatasetError(f"no samples scored for trait {trait!r}")
    inside = binning.contains(scores)  # NaN is never inside
    bins = np.full(len(store), -1)
    bins[inside] = binning.bin_indices(scores[inside])
    g = np.bincount(bins[inside], minlength=n).astype(np.int64)
    if np.any(g == 0):
        empty = ", ".join(str(int(k)) for k in np.flatnonzero(g == 0))
        raise EmptyBinError(f"empty bin {empty}: no training sample landed there")
    entry_bins = np.repeat(bins, store.lengths)
    used = entry_bins >= 0
    freqs = store.counts[used]
    dtype = _sum_dtype(freqs)
    counts = np.zeros((len(store.vocab), n), dtype=dtype)
    np.add.at(counts, (store.indices[used], entry_bins[used]), freqs.astype(dtype))
    totals = counts.sum(axis=1)
    # a word of no used sample totals 0 and is never kept
    keep = np.flatnonzero([t >= max(min_word_freq, 1) for t in totals.tolist()])
    counts = counts[keep]
    vocab = tuple(store.vocab[i] for i in keep.tolist())
    if dtype is object:
        wide = [w for w, row in zip(vocab, counts.tolist()) if max(row) >= 2**63]
        if wide:
            raise DatasetError(f"word {wide[0]!r}: its count in one bin reaches 2**63")
        counts = counts.astype(np.int64)
    return PdfPersonalityModel(
        trait=trait,
        binning=binning,
        g=g,
        vocab=vocab,
        counts=counts,
        min_word_freq=min_word_freq,
        smoothing_alpha=smoothing_alpha,
    )


# Cells (samples x padded words x bins) in one block of freq * log_mass
# terms: 1 MB of float64, so one text with hundreds of distinct adjectives
# widens only its own block.
BLOCK_CELLS = 1 << 17

DEGENERATE = "degenerate"  # skip reason of a sample with no mass in any bin

# confidence's floor under the runner-up: a runner-up below the smallest
# normal float, 0 included, makes the ratio exceed 10**300 with or without
# it, and both clamp to CONFIDENCE_MAX.
_TINY = np.finfo(float).tiny


def _blocks(n_hits, n_bins):
    """Consecutive (start, stop) row ranges whose blocks, padded to their
    widest row, hold at most BLOCK_CELLS cells; a wider row is a block alone."""
    start, total = 0, len(n_hits)
    while start < total:
        ahead = np.maximum(n_hits[start:start + BLOCK_CELLS // n_bins], 1)
        cells = np.arange(1, ahead.size + 1) * np.maximum.accumulate(ahead) * n_bins
        stop = start + max(1, int(np.searchsorted(cells, BLOCK_CELLS, side="right")))
        yield start, stop
        start = stop


def _log_products(model, rows, freqs, lengths):
    """(S, K) log of each sample's product of known-word masses (a row of
    zeros for a sample with no known word), and each sample's count of
    known-word occurrences as an exact int.  Entry j is a word's row of
    log_mass (-1 for a word the model lacks) and its count, and sample s owns
    the next lengths[s] entries.  Row s of a block holds sample s's freq *
    log_mass terms in entry order, zero-padded to the block's widest row."""
    n = model.binning.n_bins
    hit = rows >= 0
    owner = np.repeat(np.arange(len(lengths)), lengths)[hit]
    rows, freqs = rows[hit], freqs[hit]
    n_hits = np.bincount(owner, minlength=len(lengths))
    ends = np.cumsum(n_hits)
    slot = np.arange(rows.size) - (ends - n_hits)[owner]
    totals = np.cumsum(np.concatenate([[0], freqs]).astype(_sum_dtype(freqs)))
    words_used = (totals[ends] - totals[ends - n_hits]).tolist()
    freqs = freqs.astype(float)
    log_phi = np.zeros((len(lengths), n))
    for a, b in _blocks(n_hits, n):
        lo, hi = ends[a] - n_hits[a], ends[b - 1]
        if lo == hi:
            continue
        block = np.zeros((b - a, n_hits[a:b].max(), n))
        block[owner[lo:hi] - a, slot[lo:hi]] = freqs[lo:hi, None] * model.log_mass[rows[lo:hi]]
        log_phi[a:b] = np.add.accumulate(block, axis=1)[:, -1]
    return log_phi, words_used


def _log_product(model, adj_freqs):
    """_log_products of one adj_freqs dict: its terms are its block,
    unpadded."""
    rows = np.fromiter(map(model.index.get, adj_freqs, repeat(-1)), np.intp, len(adj_freqs))
    hit = rows >= 0
    used = list(compress(adj_freqs.values(), hit.tolist()))
    if not used:
        return np.zeros((1, model.binning.n_bins)), [0]
    terms = np.array(used, dtype=float)[:, None] * model.log_mass[rows[hit]]
    return np.add.accumulate(terms[None], axis=1)[:, -1], [sum(used)]


def _normalise(log_phi):
    """phi of every row of log_phi that keeps mass in some bin, and the mask
    of those rows."""
    peak = np.maximum.reduce(log_phi, axis=1)
    live = np.isfinite(peak)
    if np.count_nonzero(live) < live.size:
        log_phi, peak = log_phi[live], peak[live]
    phi = np.exp(log_phi - peak[:, None])
    phi /= np.add.reduce(phi, axis=1)[:, None]
    return phi, live


def _confidences(phi):
    """confidence of every row of phi."""
    if np.count_nonzero(phi >= 0) < phi.size:  # NaN fails every comparison
        raise DatasetError("distribution has negative or NaN entries")
    if np.count_nonzero(np.abs(np.add.reduce(phi, axis=1) - 1.0) <= 1e-6) < len(phi):
        raise DatasetError("distribution does not sum to 1")  # or holds an infinity
    top2 = np.partition(phi, -2, axis=1)
    ratio = top2[:, -1] / np.maximum(top2[:, -2], _TINY)
    return np.minimum(np.maximum(np.log10(ratio), 0.0), CONFIDENCE_MAX)


def aggregate(model: PdfPersonalityModel, adj_freqs: dict) -> AggregateResult:
    """Combine the mass vectors of every known word occurrence.

    Words absent from the model are ignored.  With no usable word at all
    the result is the uniform distribution.  If every bin ends with zero
    mass the result is flagged degenerate and phi is None.

    _log_product copies predict_many's running sum for one row: each bin adds
    the same freq * log_mass terms in the same order (the kernel's zero
    padding adds nothing), so phi has the same bytes.  The copy is faster on
    one text: on trait-score (seed 1009, 2 shared x86 vCPUs) 16-18 us against
    41-45 us for the kernel on one row, about 7% of the 340-380 us from_text +
    predict request.
    """
    log_phi, (words_used,) = _log_product(model, adj_freqs)
    phi, live = _normalise(log_phi)
    if not live[0]:
        return AggregateResult(phi=None, words_used=words_used, degenerate=True)
    return AggregateResult(phi=phi[0], words_used=words_used, degenerate=False)


def confidence(phi) -> float:
    """log10 ratio of the two largest entries, clamped to [0, 10]."""
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 1 or phi.shape[0] < 2:
        raise DatasetError("confidence needs a distribution over at least 2 bins")
    return float(_confidences(phi[None])[0])


def predict_many(
    model: PdfPersonalityModel,
    store: CorpusStore,
    policy: FilterPolicy | None = None,
) -> PdfBatch:
    """Score every sample of a store in one pass over padded blocks of at
    most BLOCK_CELLS cells, each sample's words in vocabulary order.

    A sample failing the policy, or whose product has no mass in any bin,
    is skipped with the rule that failed or DEGENERATE.  Every other sample
    gets phi, the winning bin midpoint as its label, the confidence factor
    and its count of known-word occurrences.
    """
    reasons = [None] * len(store) if policy is None else filter_store(store, policy)
    admitted = np.array([r is None for r in reasons], dtype=bool)
    entries = np.repeat(admitted, store.lengths)
    model_rows = np.fromiter(map(model.index.get, store.vocab, repeat(-1)), np.intp,
                             len(store.vocab))
    log_phi, words_used = _log_products(model, model_rows[store.indices[entries]],
                                        store.counts[entries], store.lengths[admitted])
    phi, live = _normalise(log_phi)
    alive = iter(live.tolist())
    scored, skipped = [], []
    for i, (sample_id, reason) in enumerate(zip(store.ids, reasons)):
        if reason is None and next(alive):
            scored.append(i)
        else:
            skipped.append((sample_id, reason or DEGENERATE))
    return PdfBatch(
        scored=tuple(scored),
        phi=phi,
        labels=tuple(model.binning.labels[k] for k in phi.argmax(axis=1).tolist()),
        confidences=tuple(_confidences(phi).tolist()),
        words_used=tuple(compress(words_used, live)),
        skipped=tuple(skipped),
    )


def predict(
    model: PdfPersonalityModel,
    sample: TextSample,
    policy: FilterPolicy | None = None,
) -> PdfPrediction:
    """aggregate a sample's adjectives, then name the winning bin midpoint and
    its confidence; raises where predict_many would skip the sample."""
    if policy is not None:
        reason = filter_sample(sample, policy)
        if reason is not None:
            raise FilterRejection(sample.id, reason)
    result = aggregate(model, sample.adj_freqs)
    if result.degenerate:
        raise DegenerateDistributionError(
            f"sample {sample.id!r}: degenerate distribution (no informative mass)"
        )
    return PdfPrediction(phi=result.phi, label=model.binning.labels[int(result.phi.argmax())],
                         confidence=confidence(result.phi), words_used=result.words_used)


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
    save_checked_json(path, _model_payload(model))


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
    "min_word_freq": ("a non-negative integer", lambda v: is_int(v) and v >= 0),
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
