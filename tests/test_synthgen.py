import json
from dataclasses import replace

import numpy as np
import pytest

from traitlex.binning import BinningScheme
from traitlex.corpus import tokenize
from traitlex.errors import DatasetError, ModelFormatError, SurveyError
from traitlex.synthgen import (
    GeneratorSpec,
    SurveyQuestionSpec,
    SurveyRule,
    SurveySpec,
    generate_corpus,
    generate_survey,
    load_generator_spec,
    make_bin_vocab,
    save_generator_spec,
    spec_lexicon,
)


def disjoint_vocab(n_bins=4, words_per_bin=3):
    return make_bin_vocab(n_bins, words_per_bin, overlap_fraction=0.0, seed=1)


def basic_spec(**kwargs):
    defaults = dict(
        seed=5,
        n_samples=50,
        words_per_sample=(20, 40),
        vocab=disjoint_vocab(),
        binning=BinningScheme(lo=0.1, hi=0.9, n_bins=4),
    )
    defaults.update(kwargs)
    return GeneratorSpec(**defaults)


# --- vocabulary construction --------------------------------------------------------

def test_vocab_tables_have_requested_size():
    tables = make_bin_vocab(8, 40, 0.6, seed=3)
    assert len(tables) == 8
    for t in tables:
        assert len(t) == 40
        assert all(p == pytest.approx(1 / 40) for p in t.values())


def test_vocab_overlap_share():
    tables = make_bin_vocab(8, 40, 0.6, seed=3)
    shared = set(tables[0])
    for t in tables[1:]:
        shared &= set(t)
    assert len(shared) == 24  # round(0.6 * 40)
    union = set()
    for t in tables:
        union |= set(t)
    assert len(union) == 24 + 8 * 16


def test_vocab_disjoint_when_no_overlap():
    tables = disjoint_vocab()
    seen = set()
    for t in tables:
        assert not (set(t) & seen)
        seen |= set(t)


def test_vocab_words_are_clean_tokens():
    for t in make_bin_vocab(3, 10, 0.5, seed=9):
        for w in t:
            assert tokenize(w) == [w]


def test_vocab_deterministic_by_seed():
    assert make_bin_vocab(4, 10, 0.3, seed=2) == make_bin_vocab(4, 10, 0.3, seed=2)
    assert make_bin_vocab(4, 10, 0.3, seed=2) != make_bin_vocab(4, 10, 0.3, seed=3)


# --- corpus generation ---------------------------------------------------------------

def test_corpus_is_deterministic():
    a = generate_corpus(basic_spec())
    b = generate_corpus(basic_spec())
    assert a.samples == b.samples


def test_corpus_scores_stay_inside_their_bin():
    spec = basic_spec(n_samples=300)
    store = generate_corpus(spec)
    for sample in store.samples:
        score = sample.scores["N"]
        k = spec.binning.bin_index(score)
        words = set(sample.adj_freqs)
        assert words <= set(spec.vocab[k])


def test_corpus_respects_word_count_range():
    spec = basic_spec(n_samples=100, words_per_sample=(30, 35))
    store = generate_corpus(spec)
    for sample in store.samples:
        assert 30 <= sample.word_count <= 35
        assert sum(sample.adj_freqs.values()) == sample.word_count


def test_single_bin_weights_pin_the_score_range():
    spec = basic_spec(n_samples=80, score_weights=(0, 0, 1, 0))
    store = generate_corpus(spec)
    for sample in store.samples:
        assert 0.5 <= sample.scores["N"] < 0.7
        assert spec.binning.bin_index(sample.scores["N"]) == 2


def test_recorded_generator_metadata():
    store = generate_corpus(basic_spec())
    assert store.extra["generator"] == "numpy-PCG64"
    assert store.extra["seed"] == 5


def test_spec_lexicon_covers_all_words():
    spec = basic_spec()
    lex = spec_lexicon(spec)
    assert spec.all_words() <= lex.words


def test_spec_validation():
    with pytest.raises(DatasetError):
        basic_spec(words_per_sample=(0, 5))
    with pytest.raises(DatasetError):
        basic_spec(score_weights=(1, 1))  # wrong arity
    with pytest.raises(DatasetError):
        basic_spec(vocab=({"not a token!": 1.0},) * 4)


# --- survey generation ---------------------------------------------------------------

def survey_spec(n=150):
    return SurveySpec(
        n_respondents=n,
        questions=(
            SurveyQuestionSpec(id="ruled", n_labels=2,
                               rule=SurveyRule(conditions=((7, 3),))),
            SurveyQuestionSpec(id="free", n_labels=4),
        ),
    )


def test_survey_rule_determines_labels():
    spec = basic_spec(survey=survey_spec())
    survey, questions = generate_survey(spec)
    assert survey.n == 150
    for i, row in enumerate(survey.items):
        want = 1 if row[6] >= 3 else 0
        assert survey.answers["ruled"][i] == want


def test_rule_labels_every_row_as_a_per_row_loop_does(rng):
    rule = SurveyRule(conditions=((4, 3), (30, 4)), label_if_true=2, label_if_false=1)
    grid = rng.integers(1, 6, (200, 50))
    want = [2 if row[3] >= 3 and row[29] >= 4 else 1 for row in grid.tolist()]
    assert rule.evaluate(grid).tolist() == want


def test_survey_free_labels_roughly_uniform():
    spec = basic_spec(survey=SurveySpec(
        n_respondents=10_000,
        questions=(SurveyQuestionSpec(id="free", n_labels=4),),
    ))
    survey, _ = generate_survey(spec)
    shares = np.bincount(survey.answers["free"], minlength=4) / 10_000
    assert np.all(np.abs(shares - 0.25) < 0.02)


def test_survey_deterministic():
    spec = basic_spec(survey=survey_spec(40))
    a, _ = generate_survey(spec)
    b, _ = generate_survey(spec)
    assert a.respondent_ids == b.respondent_ids
    np.testing.assert_array_equal(a.items, b.items)
    np.testing.assert_array_equal(a.answers["ruled"], b.answers["ruled"])


def test_adding_a_survey_leaves_the_corpus_unchanged():
    plain = generate_corpus(basic_spec())
    with_survey = generate_corpus(basic_spec(survey=survey_spec()))
    assert plain.samples == with_survey.samples


def test_survey_requires_survey_section():
    with pytest.raises(SurveyError):
        generate_survey(basic_spec())


def test_rule_validation():
    with pytest.raises(SurveyError):
        SurveyRule(conditions=())
    with pytest.raises(SurveyError):
        SurveyRule(conditions=((51, 3),))
    with pytest.raises(SurveyError):
        SurveyRule(conditions=((3, 9),))


# --- spec files ----------------------------------------------------------------------

def test_spec_round_trip(tmp_path):
    spec = basic_spec(survey=survey_spec(25))
    save_generator_spec(spec, tmp_path / "spec.json")
    loaded = load_generator_spec(tmp_path / "spec.json")
    assert loaded == spec
    assert generate_corpus(loaded).samples == generate_corpus(spec).samples


def test_spec_auto_vocab(tmp_path):
    spec = basic_spec()
    save_generator_spec(spec, tmp_path / "spec.json")
    payload = json.loads((tmp_path / "spec.json").read_text("utf-8"))
    payload["vocab"] = {"words_per_bin": 3, "overlap_fraction": 0.0}
    payload["seed"] = 1  # make_bin_vocab above used seed=1
    (tmp_path / "spec.json").write_text(json.dumps(payload), "utf-8")
    loaded = load_generator_spec(tmp_path / "spec.json")
    assert loaded.vocab == spec.vocab


def test_spec_fields_left_out_take_their_defaults(tmp_path):
    spec = basic_spec(survey=survey_spec(25))
    save_generator_spec(spec, tmp_path / "spec.json")
    payload = json.loads((tmp_path / "spec.json").read_text("utf-8"))
    del payload["trait"]
    ruled, free = payload["survey"]["questions"]
    del ruled["rule"]["label_if_true"], ruled["rule"]["label_if_false"], free["rule"]
    (tmp_path / "spec.json").write_text(json.dumps(payload), "utf-8")
    assert load_generator_spec(tmp_path / "spec.json") == spec
    del payload["survey"]
    (tmp_path / "spec.json").write_text(json.dumps(payload), "utf-8")
    assert load_generator_spec(tmp_path / "spec.json") == replace(spec, survey=None)


def test_spec_rejects_foreign_files(tmp_path):
    (tmp_path / "x.json").write_text('{"format": "other"}', "utf-8")
    with pytest.raises(ModelFormatError, match="not a generator spec file"):
        load_generator_spec(tmp_path / "x.json")
