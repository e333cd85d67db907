"""The batched density kernel against the per-sample reference, byte for byte.

`pdfmodel.predict_many` scores a corpus store through zero-padded
(samples, words, bins) blocks, each sample's words in vocabulary order;
`predict` and `aggregate` run one adjective dict through the same
arithmetic.  A TextSample holds its adjectives in that same word order, so
both paths give a sample the same bytes.  tests/pdf_reference.py keeps the
per-sample arithmetic they replaced.
"""

import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdf_reference
from traitlex import evaluation, pdfmodel
from traitlex.binning import BinningScheme
from traitlex.corpus import CorpusStore, FilterPolicy, TextSample, load_store, persist_store
from traitlex.errors import DegenerateDistributionError, FilterRejection
from traitlex.pdfmodel import PdfPersonalityModel, aggregate, predict, predict_many

# Samples of 5 to 45 words: the policy admits 11 to 39.
POLICY = FilterPolicy(min_words=10, max_words=40)
UNKNOWN = ("unknown", "zzz", "qqq")


@st.composite
def models(draw, max_words=12):
    n = draw(st.integers(min_value=2, max_value=10))
    # alpha 0 leaves log 0 = -inf wherever a count is 0, so products of
    # words with disjoint support are degenerate
    counts = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n).filter(any),
        min_size=1, max_size=max_words,
    ))
    g = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
    return PdfPersonalityModel(
        trait="N", binning=BinningScheme(lo=0.0, hi=1.0, n_bins=n),
        g=np.array(g), vocab=tuple(f"w{i:02d}" for i in range(len(counts))),
        counts=np.array(counts), min_word_freq=0,
        smoothing_alpha=draw(st.sampled_from([0.0, 0.0, 0.3, 1.0])),
    )


def make_sample(i, adj_freqs, word_count=20):
    return TextSample(id=f"s{i:03d}", text="", lang="en", word_count=word_count,
                      adj_freqs=adj_freqs, scores={"N": 0.5})


def store_of(samples):
    return CorpusStore.from_samples(samples, "toy", "v")


@st.composite
def corpora(draw, model, max_samples=12):
    """Samples over the model's words and a few it lacks, each dict in an
    arbitrary order; some hold no known word, some fail POLICY."""
    words = st.lists(st.sampled_from(model.vocab + UNKNOWN), unique=True, max_size=16)
    freqs = st.one_of(st.integers(min_value=1, max_value=9),
                      st.integers(min_value=1, max_value=10**15))
    samples = []
    for i in range(draw(st.integers(min_value=0, max_value=max_samples))):
        keys = draw(words)
        adj = {w: draw(freqs) for w in keys}
        samples.append(make_sample(i, adj, draw(st.integers(min_value=5, max_value=45))))
    return samples


def assert_matches_reference(model, samples, policy):
    store = store_of(samples)
    batch = predict_many(model, store, policy)
    scored, skipped = pdf_reference.predict_samples(model, samples, policy)
    assert batch.skipped == tuple(skipped)
    assert [store.ids[i] for i in batch.scored] == [sid for sid, *_ in scored]
    assert batch.phi.shape == (len(scored), model.binning.n_bins)
    for i, (_, phi, label, conf, used) in enumerate(scored):
        assert batch.phi[i].tobytes() == phi.tobytes()
        assert batch.labels[i] == label and type(batch.labels[i]) is float
        assert repr(batch.confidences[i]) == repr(conf) and type(batch.confidences[i]) is float
        assert batch.words_used[i] == used and type(batch.words_used[i]) is int
    return batch, scored, skipped


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_predict_many_matches_the_per_sample_reference(data):
    model = data.draw(models())
    samples = data.draw(corpora(model))
    policy = data.draw(st.sampled_from([None, POLICY, FilterPolicy()]))
    batch, _, _ = assert_matches_reference(model, samples, policy)
    if policy == FilterPolicy():  # the CLI's `--policy none` admits all, like None
        unfiltered = predict_many(model, store_of(samples), None)
        assert batch.phi.tobytes() == unfiltered.phi.tobytes()
        assert replace(batch, phi=None) == replace(unfiltered, phi=None)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 8, 50, 200]))
def test_blocks_split_anywhere_give_the_same_bytes(data, cap_rows):
    """A cell cap of cap_rows narrow rows splits the store into many blocks,
    and one sample holding every model word needs a block wider than the cap."""
    model = data.draw(models())
    samples = data.draw(corpora(model, max_samples=30))
    every = {w: data.draw(st.integers(min_value=1, max_value=5)) for w in model.vocab}
    samples.insert(data.draw(st.integers(min_value=0, max_value=len(samples))),
                   make_sample(999, every))
    with mock.patch.object(pdfmodel, "BLOCK_CELLS", cap_rows * model.binning.n_bins):
        assert_matches_reference(model, samples, data.draw(st.sampled_from([None, POLICY])))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_row_calls_match_the_reference(data):
    model = data.draw(models())
    (sample,) = data.draw(corpora(model, max_samples=1).filter(len))
    phi, used = pdf_reference.aggregate(model, sample.adj_freqs)
    result = aggregate(model, sample.adj_freqs)
    assert (result.words_used, result.degenerate) == (used, phi is None)
    assert type(result.words_used) is int and type(result.degenerate) is bool
    if phi is None:
        assert result.phi is None
        with pytest.raises(DegenerateDistributionError):
            predict(model, sample)
        return
    assert result.phi.tobytes() == phi.tobytes()
    prediction = predict(model, sample)
    assert prediction.phi.tobytes() == phi.tobytes()
    assert prediction.label == model.binning.labels[int(np.argmax(phi))]
    assert repr(prediction.confidence) == repr(pdf_reference.confidence(phi))
    assert prediction.words_used == used


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_predict_gives_a_sample_the_bytes_of_its_store_row(data):
    """Whatever order a sample's dict was built in, predict sums its terms
    in the order its one-row store does."""
    model = data.draw(models())
    (sample,) = data.draw(corpora(model, max_samples=1).filter(len))
    batch = predict_many(model, store_of([sample]))
    if not batch.scored:
        with pytest.raises(DegenerateDistributionError):
            predict(model, sample)
        return
    prediction = predict(model, sample)
    assert prediction.phi.tobytes() == batch.phi[0].tobytes()
    assert prediction.label == batch.labels[0]
    assert repr(prediction.confidence) == repr(batch.confidences[0])
    assert prediction.words_used == batch.words_used[0]


def test_a_store_of_many_blocks(rng):
    """200 samples of up to 40 known words over 16 bins, in blocks of at most
    5 rows of 40 words; the skips mix the policy and degenerate products."""
    n, vocab = 16, tuple(f"w{i:02d}" for i in range(40))
    counts = rng.integers(0, 4, (len(vocab), n)) * (rng.random((len(vocab), n)) < 0.7)
    counts[counts.sum(axis=1) == 0, 0] = 1
    model = PdfPersonalityModel(
        trait="N", binning=BinningScheme(lo=0.0, hi=1.0, n_bins=n), g=np.ones(n, dtype=int),
        vocab=vocab, counts=counts, min_word_freq=0, smoothing_alpha=0.0,
    )
    samples = []
    for i in range(200):
        words = rng.permutation(vocab + UNKNOWN)[: rng.integers(0, 44)]
        adj = {str(w): int(f) for w, f in zip(words, rng.integers(1, 6, len(words)))}
        samples.append(make_sample(i, adj, int(rng.integers(5, 46))))
    samples.append(make_sample(200, {w: 1 for w in vocab}))
    with mock.patch.object(pdfmodel, "BLOCK_CELLS", 5 * 40 * n):
        n_hits = np.array([sum(w in model.index for w in s.adj_freqs) for s in samples])
        assert len(list(pdfmodel._blocks(n_hits, n))) > 20
        batch, scored, skipped = assert_matches_reference(model, samples, POLICY)
    reasons = {reason for _, reason in skipped}
    assert {"min_words", "max_words", "degenerate"} <= reasons and len(scored) > 20


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=60), max_size=80),
       st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=2000))
def test_blocks_cover_the_rows_within_the_cap(n_hits, n_bins, cap):
    n_hits = np.array(n_hits, dtype=np.int64)
    with mock.patch.object(pdfmodel, "BLOCK_CELLS", cap):
        blocks = list(pdfmodel._blocks(n_hits, n_bins))
    if not len(n_hits):
        assert blocks == []
        return
    assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
    assert blocks[-1][1] == len(n_hits)
    for a, b in blocks:
        cells = (b - a) * max(n_hits[a:b].max(), 1) * n_bins
        assert cells <= cap or b - a == 1
        if b < len(n_hits):  # greedy: the next row would not have fitted
            assert (b + 1 - a) * max(n_hits[a:b + 1].max(), 1) * n_bins > cap


def test_predict_keeps_its_errors():
    model = PdfPersonalityModel(
        trait="N", binning=BinningScheme(lo=0.0, hi=1.0, n_bins=2), g=np.ones(2, dtype=int),
        vocab=("a", "b"), counts=np.array([[1, 0], [0, 1]]), min_word_freq=0,
        smoothing_alpha=0.0,
    )
    with pytest.raises(FilterRejection, match="min_words"):
        predict(model, make_sample(0, {"a": 1}, word_count=5), POLICY)
    with pytest.raises(DegenerateDistributionError, match="'s001'"):
        predict(model, make_sample(1, {"a": 1, "b": 1}))
    store = store_of([make_sample(0, {"a": 1}, word_count=5),
                      make_sample(1, {"a": 1, "b": 1}), make_sample(2, {"b": 2})])
    batch = predict_many(model, store, POLICY)
    assert batch.skipped == (("s000", "min_words"), ("s001", "degenerate"))
    assert [store.ids[i] for i in batch.scored] == ["s002"] and batch.labels == (0.75,)
    assert batch.confidences == (10.0,) and batch.words_used == (2,)


def test_nothing_to_score():
    model = PdfPersonalityModel(
        trait="N", binning=BinningScheme(lo=0.0, hi=1.0, n_bins=3), g=np.ones(3, dtype=int),
        vocab=("a",), counts=np.array([[1, 2, 3]]), min_word_freq=0, smoothing_alpha=0.0,
    )
    for samples in ([], [make_sample(0, {"a": 1}, word_count=5)]):
        batch = predict_many(model, store_of(iter(samples)), POLICY)
        assert batch.scored == () and batch.phi.shape == (0, 3)
        assert len(batch.skipped) == len(samples)


def test_evaluation_scores_through_one_batch(monkeypatch):
    """predict_samples makes one predict_many call for the whole list."""
    model = PdfPersonalityModel(
        trait="N", binning=BinningScheme(lo=0.0, hi=1.0, n_bins=2), g=np.ones(2, dtype=int),
        vocab=("a", "b"), counts=np.array([[3, 1], [1, 3]]), min_word_freq=0,
        smoothing_alpha=0.0,
    )
    calls = []
    monkeypatch.setattr(evaluation, "pdf_predict",
                        lambda *args: calls.append(args) or predict_many(*args))
    samples = [make_sample(i, {"a": i + 1, "b": 2}) for i in range(5)]
    records, skipped = evaluation.predict_samples(model, store_of(samples), POLICY)
    assert len(calls) == 1 and skipped == ()
    scored, _ = pdf_reference.predict_samples(model, samples, POLICY)
    assert [(r.sample_id, r.label, r.confidence, r.words_used, r.truth) for r in records] == \
        [(sid, label, conf, used, 0.5) for sid, _, label, conf, used in scored]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_store_scores_like_its_persisted_copy(data):
    """Each sample holds its adjectives in the order the persisted counts
    hold them, so a store and its reloaded copy give the same PdfBatch,
    array for array, whatever order the samples' dicts were built in."""
    model = data.draw(models())
    store = store_of(data.draw(corpora(model)))
    with tempfile.TemporaryDirectory() as tmp:
        persist_store(store, tmp)
        loaded = load_store(tmp)
    for name in ("ids", "langs", "vocab"):
        assert getattr(loaded, name) == getattr(store, name)
    for name in ("word_counts", "lengths", "indices", "counts"):
        assert np.array_equal(getattr(loaded, name), getattr(store, name))
    assert loaded.samples == store.samples
    policy = data.draw(st.sampled_from([None, POLICY]))
    a, b = predict_many(model, store, policy), predict_many(model, loaded, policy)
    assert a.phi.tobytes() == b.phi.tobytes()
    assert replace(a, phi=None) == replace(b, phi=None)


def test_words_used_past_int64_stays_exact():
    """int64 sums wrap without a word; a count total of 2**63 must not."""
    model = PdfPersonalityModel(
        trait="N", binning=BinningScheme(lo=0.0, hi=1.0, n_bins=2), g=np.ones(2, dtype=int),
        vocab=("a", "b"), counts=np.array([[1, 1], [1, 1]]), min_word_freq=0,
        smoothing_alpha=0.0,
    )
    sample = make_sample(0, {"a": 2**62, "b": 2**62})
    assert predict_many(model, store_of([sample, make_sample(1, {"a": 3})])).words_used == \
        (2**63, 3)
    assert predict(model, sample).words_used == 2**63
