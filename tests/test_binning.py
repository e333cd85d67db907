import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from traitlex.binning import DEFAULT_BINNING, EDGE_EPS, MAX_BINS, BinningScheme
from traitlex.errors import DatasetError


def test_default_labels_are_the_eight_midpoints():
    assert DEFAULT_BINNING.labels == (0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85)


def test_default_geometry():
    assert DEFAULT_BINNING.lo == 0.1
    assert DEFAULT_BINNING.hi == 0.9
    assert DEFAULT_BINNING.n_bins == 8
    assert DEFAULT_BINNING.width == pytest.approx(0.1)


def test_midpoint_formula_holds_for_arbitrary_schemes():
    scheme = BinningScheme(lo=0.0, hi=1.0, n_bins=10)
    w = (scheme.hi - scheme.lo) / scheme.n_bins
    for k, label in enumerate(scheme.labels):
        assert label == pytest.approx(scheme.lo + (k + 0.5) * w, abs=1e-12)


def test_bin_index_examples():
    assert DEFAULT_BINNING.bin_index(0.44) == 3
    assert DEFAULT_BINNING.bin_index(0.1) == 0
    assert DEFAULT_BINNING.bin_index(0.9) == 7


def test_lower_edges_belong_to_their_bin():
    for k in range(8):
        edge = 0.1 + k * 0.1
        assert DEFAULT_BINNING.bin_index(edge) == k


def test_out_of_range_rejected():
    assert not DEFAULT_BINNING.contains(0.05)
    assert not DEFAULT_BINNING.contains(0.95)
    with pytest.raises(DatasetError):
        DEFAULT_BINNING.bin_index(0.05)


def test_bin_indices_names_the_offending_row():
    with pytest.raises(DatasetError, match="row 1"):
        DEFAULT_BINNING.bin_indices([0.5, 0.95])


def test_bin_indices_matches_scalar():
    scores = np.linspace(0.1, 0.9, 33)
    vec = DEFAULT_BINNING.bin_indices(scores)
    assert list(vec) == [DEFAULT_BINNING.bin_index(s) for s in scores]


def test_degenerate_schemes_rejected():
    with pytest.raises(DatasetError):
        BinningScheme(lo=0.9, hi=0.1, n_bins=8)
    with pytest.raises(DatasetError):
        BinningScheme(lo=0.1, hi=0.9, n_bins=1)


@pytest.mark.parametrize("edges,message", [
    ({"lo": -math.inf}, "field 'lo' must be finite, got -inf"),
    ({"lo": math.nan}, "field 'lo' must be finite, got nan"),
    ({"hi": math.inf}, "field 'hi' must be finite, got inf"),
    ({"lo": -1e308, "hi": 1e308}, r"width \(hi - lo\) / n_bins must be finite, got inf"),
])
def test_edges_and_width_must_be_finite(edges, message):
    """An infinite width bins every score into bin 0 and names every bin NaN."""
    with pytest.raises(DatasetError, match=message):
        BinningScheme(**edges)
    with pytest.raises(DatasetError, match=message):
        BinningScheme.from_dict({**DEFAULT_BINNING.to_dict(), **edges})


@pytest.mark.parametrize("n_bins", [10**400, MAX_BINS + 1], ids=["10**400", "MAX_BINS+1"])
def test_bin_count_is_capped(n_bins):
    """Refused before the width or the labels are computed."""
    message = f"field 'n_bins' must be at most {MAX_BINS}, got {n_bins}"
    with pytest.raises(DatasetError, match=message):
        BinningScheme(n_bins=n_bins)
    with pytest.raises(DatasetError, match=message):
        BinningScheme.from_dict({**DEFAULT_BINNING.to_dict(), "n_bins": n_bins})
    assert len(BinningScheme(n_bins=MAX_BINS).labels) == MAX_BINS


def test_round_trip_dict():
    scheme = BinningScheme(lo=0.2, hi=0.8, n_bins=6)
    assert BinningScheme.from_dict(scheme.to_dict()) == scheme


@pytest.mark.parametrize("d", [
    {"lo": 0.1, "hi": 0.9, "n_bins": 4.7},
    {"lo": 0.1, "hi": 0.9, "n_bins": 8.0},
    {"lo": 0.1, "hi": 0.9, "n_bins": "8"},
    {"lo": 0.1, "hi": 0.9, "n_bins": True},
    {"lo": "0.1", "hi": 0.9, "n_bins": 8},
    {"lo": 0.1, "hi": None, "n_bins": 8},
    {"lo": 0.1, "hi": 0.9},
    [0.1, 0.9, 8],
])
def test_from_dict_refuses_wrong_types(d):
    with pytest.raises(DatasetError, match="binning"):
        BinningScheme.from_dict(d)


@given(st.floats(min_value=0.1, max_value=0.9, allow_nan=False))
def test_label_of_assigned_bin_is_within_half_width(score):
    k = DEFAULT_BINNING.bin_index(score)
    assert abs(DEFAULT_BINNING.labels[k] - score) <= 0.05 + 1e-9


@given(st.integers(min_value=2, max_value=40))
def test_labels_are_strictly_increasing(n_bins):
    scheme = BinningScheme(lo=0.0, hi=1.0, n_bins=n_bins)
    assert all(a < b for a, b in zip(scheme.labels, scheme.labels[1:]))


@st.composite
def schemes_and_scores(draw):
    """A scheme and scores at its bin edges, one ulp either side of them, at
    hi, as decimal literals, anywhere near the range, and NaN."""
    if draw(st.booleans()):
        scheme = DEFAULT_BINNING
    else:
        lo = draw(st.floats(-2.0, 2.0))
        scheme = BinningScheme(lo=lo, hi=lo + draw(st.floats(0.01, 3.0)),
                               n_bins=draw(st.integers(2, 40)))
    edges = [scheme.lo + k * scheme.width for k in range(scheme.n_bins)] + [scheme.hi]
    edge = st.sampled_from(edges)
    span = scheme.hi - scheme.lo
    score = st.one_of(
        edge,
        edge.map(lambda e: float(np.nextafter(e, -np.inf))),
        edge.map(lambda e: float(np.nextafter(e, np.inf))),
        st.integers(-10, 110).map(lambda i: round(scheme.lo + i * span / 100, 2)),
        st.floats(scheme.lo - span / 10, scheme.hi + span / 10),
        st.just(float("nan")),
    )
    return scheme, draw(st.lists(score, max_size=30))


def reference_bin(scheme, score):
    """The scalar rule bin_indices replaced: None outside [lo, hi]."""
    span = scheme.hi - scheme.lo
    if not (scheme.lo - EDGE_EPS * span) <= score <= (scheme.hi + EDGE_EPS * span):
        return None
    k = math.floor((score - scheme.lo) / scheme.width + EDGE_EPS)
    return max(min(k, scheme.n_bins - 1), 0)


@given(schemes_and_scores())
def test_bin_indices_equals_the_scalar_rule_per_score(case):
    scheme, scores = case
    expected = [reference_bin(scheme, s) for s in scores]
    for score, k in zip(scores, expected):
        if k is None:
            with pytest.raises(DatasetError, match="^score "):
                scheme.bin_index(score)
        else:
            assert scheme.bin_index(score) == k
    if None in expected:
        with pytest.raises(DatasetError, match=f"^row {expected.index(None)}: "):
            scheme.bin_indices(scores)
    else:
        assert scheme.bin_indices(scores).tolist() == expected
