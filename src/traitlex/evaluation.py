"""Metrics, data splits, cross-validation, and evaluation reports.

The headline score metric is marginal accuracy: a prediction counts as
correct when it lies within a fixed margin of the truth, boundary
included.  MAE and RMSE accompany it on every report.
"""

import os
from dataclasses import dataclass

import numpy as np

from .binning import BinningScheme
from .corpus import CorpusStore, FilterPolicy
from .errors import DatasetError, SurveyError, TrainingError, TraitlexError
from .mlcore import Dataset, TrainConfig, predict_dataset, train_many
# train_model is not called here: perfbench's tracer wraps it under this name
from .mlcore import train as train_model
from .pdfmodel import PdfPersonalityModel, predict_many as pdf_predict

DEFAULT_MARGIN = 0.10
DEFAULT_CONFIDENCE_GRID = tuple(t / 2 for t in range(21))  # 0.0, 0.5, ..., 10.0


def _paired(pred, truth):
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise DatasetError("predictions and truths must be 1-D and equally long")
    if pred.size == 0:
        raise DatasetError("cannot evaluate zero predictions")
    return pred, truth


def mae(pred, truth) -> float:
    pred, truth = _paired(pred, truth)
    return float(np.abs(pred - truth).mean())


def rmse(pred, truth) -> float:
    pred, truth = _paired(pred, truth)
    return float(np.sqrt(((pred - truth) ** 2).mean()))


def marginal_accuracy(pred, truth, margin: float = DEFAULT_MARGIN) -> float:
    """Fraction of predictions within margin of the truth (inclusive)."""
    if not 0 <= margin < np.inf:  # NaN fails every comparison
        raise DatasetError(f"margin must be finite and non-negative, got {margin!r}")
    pred, truth = _paired(pred, truth)
    return float((np.abs(pred - truth) <= margin).mean())


def exact_accuracy(pred, truth) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size == 0:
        raise DatasetError("predictions and truths must be 1-D, equal, non-empty")
    return float((pred == truth).mean())


@dataclass(frozen=True)
class EvalReport:
    mae: float
    rmse: float
    marginal_accuracy: float
    margin: float
    n: int

    def __post_init__(self):
        if self.mae < 0 or self.rmse < self.mae - 1e-12:
            raise DatasetError("report violates 0 <= mae <= rmse")
        if not 0 <= self.marginal_accuracy <= 1:
            raise DatasetError("marginal accuracy outside [0, 1]")


def evaluate_scores(pred, truth, margin: float = DEFAULT_MARGIN) -> EvalReport:
    pred, truth = _paired(pred, truth)
    return EvalReport(
        mae=mae(pred, truth),
        rmse=rmse(pred, truth),
        marginal_accuracy=marginal_accuracy(pred, truth, margin),
        margin=margin,
        n=int(pred.size),
    )


# --- splits -----------------------------------------------------------------

def train_test_split(ds: Dataset, train_fraction: float = 0.67, seed: int = 0):
    """Shuffle and split; the train side gets round(train_fraction * n) rows."""
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError("train_fraction must lie strictly between 0 and 1")
    if ds.n < 2:
        raise DatasetError("need at least 2 rows to split")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(ds.n)
    n_train = int(np.floor(train_fraction * ds.n + 0.5))
    n_train = min(max(n_train, 1), ds.n - 1)
    return ds.take(perm[:n_train]), ds.take(perm[n_train:])


def kfold_indices(n: int, k: int, seed: int = 0):
    """Disjoint shuffled folds; remainder rows go to the lowest-index folds."""
    if k < 2:
        raise DatasetError("k must be at least 2")
    if k > n:
        raise DatasetError(f"k={k} exceeds the {n} rows")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    base, extra = divmod(n, k)
    pairs = []
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        test = perm[start:start + size]
        train = np.concatenate([perm[:start], perm[start + size:]])
        pairs.append((train, test))
        start += size
    return pairs


@dataclass(frozen=True)
class CrossValidation:
    fold_accuracies: tuple
    mean_accuracy: float


def _fold_accuracies(job):
    """Fit a batch of one pair's folds and score each on its test rows:
    exact-match accuracy for a classifier, marginal for a regressor.  A fold's
    TrainingError or SurveyError is its result, not raised, so the other folds
    of the sweep still run."""
    config, ds, folds, margin = job
    results = []
    for model, (_, test) in zip(train_many(config, ds, [train for train, _ in folds]), folds):
        if isinstance(model, TrainingError):
            results.append(model)
            continue
        try:
            test_ds = ds.take(test)
            pred = predict_dataset(model, test_ds)
            results.append(exact_accuracy(pred, test_ds.y_class) if config.kind == "classifier"
                           else marginal_accuracy(pred, test_ds.y_score, margin))
        except (TrainingError, SurveyError) as e:
            results.append(e)
    return results


_inherited_jobs = ()  # set in each pool worker only, from the jobs its fork copied


def _inherit_jobs(jobs):
    global _inherited_jobs
    _inherited_jobs = jobs


def _run_inherited_job(index):
    return _fold_accuracies(_inherited_jobs[index])


def cross_validate_all(pairs, k: int = 10, seed: int = 0, margin: float = DEFAULT_MARGIN):
    """Cross-validate each (config, dataset) pair: one CrossValidation per
    pair, in order, or the TrainingError or SurveyError of the pair's first
    failing fold.  Any other exception propagates.

    A job fits a batch of one pair's folds at once (`mlcore.train_many`).
    The jobs run in forked workers, one per CPU of the process's affinity
    mask and no more than there are jobs; the workers inherit the job list,
    so no dataset is pickled.  Each pair's folds are split into the fewest
    batches that give every worker at least four jobs, so that a few equal
    pairs still spread evenly over the workers.  A fold's result depends only
    on its fold, so the bytes equal a run of one fold after another.  With
    fewer than two CPUs or no fork start method each pair is one job, run
    here.  Every pair's folds are drawn first, so a bad k is refused before
    any fork.
    """
    folds = [kfold_indices(ds.n, k, seed) for _, ds in pairs]
    # imported here, so that commands without a sweep do not pay for them at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    forks = cpus >= 2 and "fork" in multiprocessing.get_all_start_methods()
    batches = min(k, -(-4 * cpus // max(1, len(pairs)))) if forks else 1
    # The longer batches come first, so a worker that takes one is not the last to finish.
    base, extra = divmod(k, batches)
    cuts = [b * base + min(b, extra) for b in range(batches + 1)]
    jobs = [(config, ds, pair_folds[start:end], margin)
            for (config, ds), pair_folds in zip(pairs, folds)
            for start, end in zip(cuts, cuts[1:])]
    workers = min(len(jobs), cpus)
    if not forks or workers < 2:
        results = list(map(_fold_accuracies, jobs))
    else:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_inherit_jobs, initargs=(jobs,))
        try:
            results = list(pool.map(_run_inherited_job, range(len(jobs))))
        finally:
            pool.shutdown(cancel_futures=True)
    results = iter(accuracy for batch in results for accuracy in batch)
    outcomes = []
    for pair_folds in folds:
        accuracies = [next(results) for _ in pair_folds]
        error = next((a for a in accuracies if isinstance(a, TraitlexError)), None)
        outcomes.append(error if error is not None else CrossValidation(
            fold_accuracies=tuple(accuracies), mean_accuracy=float(np.mean(accuracies))))
    return outcomes


def cross_validate(
    config: TrainConfig,
    ds: Dataset,
    k: int = 10,
    seed: int = 0,
    margin: float = DEFAULT_MARGIN,
) -> CrossValidation:
    """Mean fold accuracy: exact-match for classifiers, marginal for regressors."""
    (outcome,) = cross_validate_all([(config, ds)], k, seed, margin)
    if isinstance(outcome, TraitlexError):
        raise outcome
    return outcome


# --- categorical agreement ---------------------------------------------------

@dataclass(frozen=True)
class ConfusionMatrix:
    """Rows are the correct label, columns the predicted one."""

    labels: tuple
    counts: np.ndarray

    def __post_init__(self):
        self.counts.setflags(write=False)

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.counts.sum())


def confusion_matrix(truth, pred, labels) -> ConfusionMatrix:
    labels = tuple(labels)
    if not labels or len(set(labels)) != len(labels):
        raise DatasetError("labels must be non-empty and unique")
    index = {name: i for i, name in enumerate(labels)}
    truth = list(truth)
    pred = list(pred)
    if len(truth) != len(pred) or not truth:
        raise DatasetError("truth and prediction lists must be equal and non-empty")
    counts = np.zeros((len(labels), len(labels)), dtype=int)
    for t, p in zip(truth, pred):
        if t not in index:
            raise DatasetError(f"unknown truth label {t!r}")
        if p not in index:
            raise DatasetError(f"unknown predicted label {p!r}")
        counts[index[t], index[p]] += 1
    return ConfusionMatrix(labels=labels, counts=counts)


# --- confidence handling ------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    mae: float | None  # None when nothing is retained
    n_retained: int


def confidence_curve(records, thresholds=None):
    """MAE over the records at or above each confidence threshold.

    Records are (predicted_label, truth, confidence) triples.
    """
    if thresholds is None:
        thresholds = DEFAULT_CONFIDENCE_GRID
    records = list(records)
    labels = np.array([r[0] for r in records], dtype=float)
    truths = np.array([r[1] for r in records], dtype=float)
    confs = np.array([r[2] for r in records], dtype=float)
    points = []
    for t in thresholds:
        keep = confs >= t
        n = int(keep.sum())
        value = float(np.abs(labels[keep] - truths[keep]).mean()) if n else None
        points.append(CurvePoint(threshold=float(t), mae=value, n_retained=n))
    return points


# --- corpus summaries ----------------------------------------------------------

@dataclass(frozen=True)
class DistributionRow:
    lo: float
    hi: float
    count: int
    percent: float


def score_distribution(store: CorpusStore, trait: str, n_bins: int = 10):
    """Histogram of a trait's scores over [0, 1] with percentages."""
    scores = store.trait_scores(trait)
    scores = scores[~np.isnan(scores)]
    if not scores.size:
        raise DatasetError(f"no samples scored for trait {trait!r}")
    scheme = BinningScheme(lo=0.0, hi=1.0, n_bins=n_bins)
    counts = np.bincount(scheme.bin_indices(scores), minlength=n_bins)
    width = 1.0 / n_bins
    return [
        DistributionRow(
            lo=round(k * width, 12),
            hi=round((k + 1) * width, 12),
            count=int(counts[k]),
            percent=float(100.0 * counts[k] / len(scores)),
        )
        for k in range(n_bins)
    ]


# --- density-model evaluation ---------------------------------------------------

@dataclass(frozen=True)
class PredictionRecord:
    sample_id: str
    label: float
    truth: float | None  # None when the sample has no score for the trait
    confidence: float
    words_used: int


@dataclass(frozen=True)
class PdfEvalResult:
    report: EvalReport
    curve: tuple
    records: tuple
    skipped: tuple  # of (sample_id, reason)


def predict_samples(
    model: PdfPersonalityModel, store: CorpusStore, policy: FilterPolicy | None = None
):
    """Predict every sample of a store in one batch; return (records, skipped).

    Samples failing the policy or yielding a degenerate distribution are
    skipped and listed as (sample_id, reason) rather than aborting the run.
    """
    batch = pdf_predict(model, store, policy)
    truths = store.trait_scores(model.trait)[list(batch.scored)].tolist()
    records = tuple(
        PredictionRecord(
            sample_id=store.ids[i],
            label=label,
            truth=None if truth != truth else truth,  # NaN: the sample has no score
            confidence=conf,
            words_used=used,
        )
        for i, truth, label, conf, used in zip(
            batch.scored, truths, batch.labels, batch.confidences, batch.words_used)
    )
    return records, batch.skipped


def evaluate_pdf_model(
    model: PdfPersonalityModel,
    store: CorpusStore,
    policy: FilterPolicy | None = None,
    margin: float = DEFAULT_MARGIN,
    thresholds=None,
) -> PdfEvalResult:
    """Predict every sample scored for the model's trait and summarize the
    errors; a sample without a score is neither a record nor skipped."""
    records, skipped = predict_samples(model, store, policy)
    unscored = {store.ids[i] for i in np.flatnonzero(np.isnan(store.trait_scores(model.trait)))}
    records = tuple(r for r in records if r.truth is not None)
    skipped = tuple(s for s in skipped if s[0] not in unscored)
    if not records:
        raise DatasetError("no sample survived filtering; nothing to evaluate")
    labels = [r.label for r in records]
    truths = [r.truth for r in records]
    report = evaluate_scores(labels, truths, margin)
    curve = confidence_curve(
        [(r.label, r.truth, r.confidence) for r in records], thresholds
    )
    return PdfEvalResult(
        report=report,
        curve=tuple(curve),
        records=records,
        skipped=skipped,
    )
