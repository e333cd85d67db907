"""Density scoring one sample at a time, as it ran before `predict_many`.

Each sample's known words gave a (words, bins) array of freq * log_mass
terms, summed with a running sum over the words; the peak, exp and
normalisation ran on that one vector, and the confidence factor read it with
Python floats.  The prediction loop called both once per sample and listed a
sample that failed the policy, or came out degenerate, as skipped.  The
batched kernel must give the same bytes.
"""

import numpy as np

from traitlex.corpus import filter_sample

CONFIDENCE_MAX = 10.0


def aggregate(model, adj_freqs):
    """(phi or None when degenerate, words_used)."""
    n = model.binning.n_bins
    index = model.index
    hits = [(index[w], f) for w, f in adj_freqs.items() if w in index]
    words_used = sum(f for _, f in hits)
    if words_used == 0:
        return np.full(n, 1.0 / n), 0
    rows, freqs = zip(*hits)
    terms = np.array(freqs, dtype=float)[:, None] * model.log_mass[list(rows)]
    log_phi = np.add.accumulate(terms, axis=0)[-1]
    peak = log_phi.max()
    if not np.isfinite(peak):
        return None, words_used
    phi = np.exp(log_phi - peak)
    phi /= phi.sum()
    return phi, words_used


def confidence(phi):
    top2 = np.partition(phi, -2)[-2:]
    p2, p1 = float(top2[0]), float(top2[1])
    if p2 == 0.0:
        return CONFIDENCE_MAX
    return float(min(max(np.log10(p1 / p2), 0.0), CONFIDENCE_MAX))


def predict_samples(model, samples, policy=None):
    """[(sample id, phi, label, confidence, words_used)] for the scored
    samples and [(sample id, reason)] for the skipped ones, in input order."""
    scored, skipped = [], []
    for sample in samples:
        reason = None if policy is None else filter_sample(sample, policy)
        if reason is not None:
            skipped.append((sample.id, reason))
            continue
        phi, words_used = aggregate(model, sample.adj_freqs)
        if phi is None:
            skipped.append((sample.id, "degenerate"))
            continue
        label = model.binning.labels[int(np.argmax(phi))]
        scored.append((sample.id, phi, label, confidence(phi), words_used))
    return scored, skipped
