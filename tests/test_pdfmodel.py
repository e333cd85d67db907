import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitlex.binning import BinningScheme
from traitlex.corpus import CorpusStore, TextSample
from traitlex.errors import (
    DatasetError,
    DegenerateDistributionError,
    EmptyBinError,
    FilterRejection,
    ModelFormatError,
    ModelIntegrityError,
)
from traitlex.pdfmodel import (
    PdfPersonalityModel,
    aggregate,
    build_model,
    confidence,
    load_model,
    predict,
    save_model,
)

TWO_BINS = BinningScheme(lo=0.0, hi=1.0, n_bins=2)
FOUR_BINS = BinningScheme(lo=0.0, hi=1.0, n_bins=4)


def make_sample(id, adj_freqs, score, word_count=2000):
    return TextSample(
        id=id, text="", lang="en", word_count=word_count,
        adj_freqs=adj_freqs, scores={"N": score},
    )


def store_of(samples):
    return CorpusStore.from_samples(samples, "toy", "v")


def test_words_of_unused_samples_stay_out_of_the_model():
    """A word seen only in samples without a usable score is not counted,
    even with no frequency floor and smoothing that would give it mass."""
    samples = [make_sample("a", {"big": 1}, 0.2), make_sample("b", {"big": 2}, 0.7),
               make_sample("c", {"kind": 3}, 0.95),  # outside the binning range
               TextSample(id="d", text="", lang="en", word_count=2000,
                          adj_freqs={"odd": 5}, scores=None)]
    model = build_model(store_of(samples), "N", binning=BinningScheme(0.1, 0.9, 2),
                        min_word_freq=0, smoothing_alpha=1.0)
    assert model.vocab == ("big",) and model.counts.tolist() == [[1, 2]]


def test_counts_near_int64_stay_exact():
    """Counts whose int64 sums might wrap are summed exactly; these fit."""
    samples = [make_sample("a", {"big": 2**62}, 0.2),
               make_sample("b", {"big": 2**62 - 1, "odd": 1}, 0.7)]
    model = build_model(store_of(samples), "N", binning=TWO_BINS, min_word_freq=2**63 - 1)
    assert model.vocab == ("big",) and model.counts.tolist() == [[2**62, 2**62 - 1]]
    assert model.counts.dtype == np.int64


def model_from_masses(masses, binning=None):
    """Hand-assembled model whose word masses are its counts over g = 1."""
    binning = binning or BinningScheme(lo=0.0, hi=1.0,
                                       n_bins=len(next(iter(masses.values()))))
    n = binning.n_bins
    vocab = tuple(sorted(masses))
    return PdfPersonalityModel(
        trait="N", binning=binning, g=np.ones(n, dtype=int), vocab=vocab,
        counts=np.array([masses[w] for w in vocab], dtype=float).reshape(len(vocab), n),
        min_word_freq=0, smoothing_alpha=0.0,
    )


def row(model, word, field):
    return getattr(model, field)[model.index[word]]


# --- build_model -----------------------------------------------------------------

def test_count_lands_in_score_bin():
    # one word occurring 3 times in a sample scored 0.44 feeds bin 3 of 8
    samples = [make_sample(f"pad{k}", {"w": 1}, 0.15 + 0.1 * k) for k in range(8)]
    samples.append(make_sample("x", {"w": 3}, 0.44))
    model = build_model(store_of(samples), "N", min_word_freq=0)
    assert row(model, "w", "counts")[3] == 1 + 3
    assert model.g[3] == 2


def test_min_word_freq_drops_below_300():
    samples = [
        make_sample(f"s{k}", {"common": 30, "rare": 29}, 0.05 + 0.1 * k)
        for k in range(10)
    ]
    store = store_of(samples)
    model = build_model(store, "N", binning=BinningScheme(0.0, 1.0, 10),
                        min_word_freq=300)
    assert "common" in model.vocab  # total 300 survives the inclusive bound
    assert "rare" not in model.vocab  # total 290 < 300


def test_two_bin_mass_normalization():
    samples = [
        make_sample("a", {"w": 2}, 0.25),
        make_sample("b", {"w": 2}, 0.25),
        make_sample("c", {}, 0.75),
        make_sample("d", {}, 0.75),
    ]
    model = build_model(store_of(samples), "N", binning=TWO_BINS, min_word_freq=0)
    assert np.array_equal(model.g, [2, 2])
    np.testing.assert_allclose(row(model, "w", "mass"), [1.0, 0.0])
    np.testing.assert_array_equal(row(model, "w", "counts"), [4, 0])


def test_empty_bin_is_an_error():
    samples = [make_sample("a", {"w": 1}, 0.25)]
    with pytest.raises(EmptyBinError, match="empty bin 1"):
        build_model(store_of(samples), "N", binning=TWO_BINS, min_word_freq=0)


def test_out_of_range_scores_are_skipped():
    samples = [
        make_sample("a", {"w": 1}, 0.25),
        make_sample("b", {"w": 1}, 0.75),
        make_sample("edge", {"w": 50}, 0.95),  # outside [0.1, 0.9]
    ]
    model = build_model(
        store_of(samples), "N",
        binning=BinningScheme(lo=0.1, hi=0.9, n_bins=2), min_word_freq=0,
    )
    assert model.g.sum() == 2
    assert row(model, "w", "counts").sum() == 2


def test_smoothing_fills_zero_bins():
    samples = [
        make_sample("a", {"w": 4}, 0.25),
        make_sample("b", {}, 0.75),
    ]
    model = build_model(store_of(samples), "N", binning=TWO_BINS,
                        min_word_freq=0, smoothing_alpha=1.0)
    assert row(model, "w", "mass")[1] > 0
    np.testing.assert_allclose(row(model, "w", "mass").sum(), 1.0)


# --- aggregate ------------------------------------------------------------------

def test_uniform_pdfs_give_uniform_phi():
    model = model_from_masses({"u": [0.25] * 4, "v": [0.25] * 4})
    result = aggregate(model, {"u": 3, "v": 1})
    np.testing.assert_allclose(result.phi, [0.25] * 4, atol=1e-12)
    assert result.words_used == 4


def test_two_word_product():
    model = model_from_masses({
        "a": [0.4, 0.3, 0.2, 0.1],
        "b": [0.1, 0.2, 0.3, 0.4],
    })
    result = aggregate(model, {"a": 1, "b": 1})
    np.testing.assert_allclose(result.phi, [0.2, 0.3, 0.3, 0.2], atol=1e-12)


def test_repeats_square_the_mass():
    model = model_from_masses({"w": [0.5, 0.5, 0.0, 0.0]})
    result = aggregate(model, {"w": 2})
    np.testing.assert_allclose(result.phi, [0.5, 0.5, 0.0, 0.0], atol=1e-12)


def test_unknown_words_ignored():
    model = model_from_masses({"a": [0.7, 0.1, 0.1, 0.1]})
    res = aggregate(model, {"a": 1, "zzz": 400})
    assert res.words_used == 1
    np.testing.assert_allclose(res.phi, [0.7, 0.1, 0.1, 0.1], atol=1e-12)


def test_no_known_words_gives_uniform():
    model = model_from_masses({"a": [0.7, 0.1, 0.1, 0.1]})
    res = aggregate(model, {"zzz": 4})
    assert res.words_used == 0
    np.testing.assert_allclose(res.phi, [0.25] * 4)


def test_disjoint_supports_are_degenerate():
    model = model_from_masses({
        "a": [1.0, 0.0, 0.0, 0.0],
        "b": [0.0, 1.0, 0.0, 0.0],
    })
    res = aggregate(model, {"a": 1, "b": 1})
    assert res.degenerate
    assert res.phi is None


def mass_vectors(n=8):
    return st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n
    ).map(lambda v: np.array(v) / np.sum(v))


@settings(max_examples=200, deadline=None)
@given(st.lists(mass_vectors(), min_size=1, max_size=5),
       st.lists(st.integers(min_value=1, max_value=4), min_size=5, max_size=5))
def test_log_space_matches_direct_product(masses, freqs):
    model = model_from_masses({f"w{i}": m for i, m in enumerate(masses)})
    adj = {f"w{i}": freqs[i] for i in range(len(masses))}
    res = aggregate(model, adj)
    direct = np.ones(8)
    for i, m in enumerate(masses):
        direct *= np.asarray(m) ** freqs[i]
    direct /= direct.sum()
    np.testing.assert_allclose(res.phi, direct, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(mass_vectors(4), st.integers(min_value=1, max_value=6))
def test_aggregate_multiplicative_in_repeats(mass, freq):
    model = model_from_masses({"w": mass})
    by_count = aggregate(model, {"w": freq})
    step = np.asarray(mass, dtype=float) ** freq
    if by_count.degenerate:
        assert not np.any(step > 0)
    else:
        np.testing.assert_allclose(by_count.phi, step / step.sum(), atol=1e-9)


def reference_aggregate(model, adj_freqs):
    """aggregate as a per-word loop: the summation order phi must keep."""
    n = model.binning.n_bins
    log_phi = np.zeros(n, dtype=float)
    words_used = 0
    for word, freq in adj_freqs.items():
        row = model.index.get(word)
        if row is None:
            continue
        log_phi += freq * model.log_mass[row]
        words_used += freq
    if words_used == 0:
        return np.full(n, 1.0 / n), 0, False
    peak = log_phi.max()
    if not np.isfinite(peak):
        return None, words_used, True
    phi = np.exp(log_phi - peak)
    return phi / phi.sum(), words_used, False


@st.composite
def counted_models(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    counts = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n).filter(any),
        min_size=1, max_size=12,
    ))
    g = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
    return PdfPersonalityModel(
        trait="N", binning=BinningScheme(lo=0.0, hi=1.0, n_bins=n),
        g=np.array(g), vocab=tuple(f"w{i:02d}" for i in range(len(counts))),
        counts=np.array(counts), min_word_freq=0,
        # alpha 0 leaves log 0 = -inf wherever a count is 0
        smoothing_alpha=draw(st.sampled_from([0.0, 0.3, 1.0])),
    )


@settings(max_examples=400, deadline=None)
@given(counted_models(), st.data())
def test_aggregate_matches_per_word_loop_bit_for_bit(model, data):
    words = st.sampled_from(list(model.vocab) + ["unknown", "zzz"])
    freqs = st.one_of(st.integers(min_value=1, max_value=9),
                      st.integers(min_value=1, max_value=10**15))
    adj_freqs = data.draw(st.dictionaries(words, freqs, max_size=16))
    phi, words_used, degenerate = reference_aggregate(model, adj_freqs)
    result = aggregate(model, adj_freqs)
    assert (result.words_used, result.degenerate) == (words_used, degenerate)
    assert type(result.words_used) is int
    if phi is None:
        assert result.phi is None
    else:
        assert result.phi.tobytes() == phi.tobytes()


def test_scaling_masses_before_normalization_changes_nothing():
    raw = {"a": [4.0, 3.0, 2.0, 1.0], "b": [1.0, 2.0, 3.0, 4.0]}
    unit = {w: np.array(m) / np.sum(m) for w, m in raw.items()}
    phi_unit = aggregate(model_from_masses(unit), {"a": 2, "b": 1}).phi
    # the same vectors scaled by arbitrary positive constants, then renormalized
    scaled = {w: np.array(m) * c / np.sum(np.array(m) * c)
              for (w, m), c in zip(raw.items(), (7.3, 0.002))}
    phi_scaled = aggregate(model_from_masses(scaled), {"a": 2, "b": 1}).phi
    np.testing.assert_allclose(phi_unit, phi_scaled, atol=1e-12)


# --- confidence ------------------------------------------------------------------

def test_confidence_examples():
    assert confidence([0.25, 0.25, 0.25, 0.25]) == 0.0
    assert confidence([1.0, 0.0, 0.0, 0.0]) == 10.0
    assert confidence([0.9, 0.09, 0.009, 0.001]) == pytest.approx(1.0, abs=1e-12)


def test_confidence_rejects_bad_input():
    with pytest.raises(DatasetError):
        confidence([0.9, 0.2])  # does not sum to 1
    with pytest.raises(DatasetError):
        confidence([1.2, -0.2])
    with pytest.raises(DatasetError):
        confidence([1.0])
    # every comparison with NaN is false, so NaN passes a sign or sum test
    for bad in ([np.nan, 1.0], [1.0, np.nan, 0.0], [np.inf, 1.0], [1.0, -np.inf, 0.0],
                [np.inf, -np.inf, 1.0]):
        with pytest.raises(DatasetError):
            confidence(bad)


def test_confidence_permutation_invariant(rng):
    phi = np.array([0.5, 0.3, 0.15, 0.05])
    base = confidence(phi)
    for _ in range(10):
        assert confidence(rng.permutation(phi)) == base


def test_confidence_increases_with_peak_ratio():
    values = []
    for p1 in (0.4, 0.6, 0.8, 0.9):
        rest = (1 - p1) / 3
        values.append(confidence([p1, rest, rest, rest]))
    assert values == sorted(values)
    assert all(v < 10 for v in values)


# --- predict ---------------------------------------------------------------------

def test_label_is_argmax_midpoint():
    model = model_from_masses(
        {"w": [0.1, 0.6, 0.2, 0.1]},
        binning=BinningScheme(lo=0.0, hi=0.4, n_bins=4),
    )
    pred = predict(model, make_sample("s", {"w": 1}, 0.25))
    assert pred.label == pytest.approx(0.15)


def test_zero_words_fall_back_to_first_midpoint():
    model = model_from_masses(
        {"w": [0.25] * 4}, binning=BinningScheme(lo=0.1, hi=0.9, n_bins=4)
    )
    pred = predict(model, make_sample("s", {}, 0.5))
    assert pred.words_used == 0
    assert pred.label == pytest.approx(0.2)  # lowest-index tie-break
    assert pred.confidence == 0.0


def test_degenerate_prediction_is_an_error():
    model = model_from_masses({
        "a": [1.0, 0.0, 0.0, 0.0],
        "b": [0.0, 1.0, 0.0, 0.0],
    })
    with pytest.raises(DegenerateDistributionError, match="no informative mass"):
        predict(model, make_sample("s", {"a": 1, "b": 1}, 0.5))


def test_policy_enforced_at_predict():
    from traitlex.corpus import PDF_STAGE
    model = model_from_masses({"w": [0.25] * 4})
    short = make_sample("s", {"w": 1}, 0.5, word_count=500)
    with pytest.raises(FilterRejection, match="min_words"):
        predict(model, short, policy=PDF_STAGE)


# --- persistence -----------------------------------------------------------------

def full_model():
    samples = [
        make_sample(f"s{k}", {"w": 3 + k, "v": 2}, 0.15 + 0.1 * k) for k in range(8)
    ]
    return build_model(store_of(samples), "N", min_word_freq=0)


def test_save_load_round_trip(tmp_path):
    model = full_model()
    save_model(model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    assert loaded.trait == model.trait
    assert loaded.binning == model.binning
    np.testing.assert_array_equal(loaded.g, model.g)
    assert loaded.vocab == model.vocab
    sample = make_sample("q", {"w": 2, "v": 1}, 0.5)
    a, b = predict(model, sample), predict(loaded, sample)
    assert (a.label, a.confidence, a.words_used) == (b.label, b.confidence, b.words_used)
    np.testing.assert_array_equal(a.phi, b.phi)


@pytest.mark.parametrize("layout", [
    {"indent": 2, "sort_keys": True},  # the indented form an earlier save_model wrote
    {"sort_keys": True},  # one line, with ", " and ": " between fields
    {"separators": (",", ":"), "sort_keys": True},  # canonical, checksum sorted among the fields
], ids=["indented", "spaced", "sorted"])
def test_indented_or_respaced_file_is_refused(tmp_path, layout):
    # the checksum is over the file's own bytes, so the same payload written
    # in any other layout no longer loads
    model = full_model()
    save_model(model, tmp_path / "m.json")
    raw = (tmp_path / "m.json").read_bytes()
    assert raw.startswith(b'{"checksum":"') and raw.count(b"\n") == 1
    payload = json.loads(raw)
    (tmp_path / "i.json").write_text(json.dumps(payload, **layout) + "\n", "utf-8")
    assert load_model(tmp_path / "m.json").vocab == model.vocab
    with pytest.raises(ModelIntegrityError, match="checksum mismatch"):
        load_model(tmp_path / "i.json")


def test_truncated_file_detected(tmp_path):
    model = full_model()
    save_model(model, tmp_path / "m.json")
    text = (tmp_path / "m.json").read_text("utf-8")
    (tmp_path / "m.json").write_text(text[: len(text) // 2], "utf-8")
    with pytest.raises(ModelIntegrityError):
        load_model(tmp_path / "m.json")


def test_edited_payload_fails_checksum(tmp_path):
    model = full_model()
    save_model(model, tmp_path / "m.json")
    payload = json.loads((tmp_path / "m.json").read_text("utf-8"))
    payload["min_word_freq"] = 999
    (tmp_path / "m.json").write_text(json.dumps(payload), "utf-8")
    with pytest.raises(ModelIntegrityError, match="checksum"):
        load_model(tmp_path / "m.json")


def test_wrong_format_rejected(tmp_path):
    (tmp_path / "m.json").write_text('{"format": "something-else"}', "utf-8")
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "m.json")


def test_saved_file_is_deterministic(tmp_path):
    model = full_model()
    save_model(model, tmp_path / "a.json")
    save_model(model, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
