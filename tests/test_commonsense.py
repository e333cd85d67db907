import json
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traitlex import commonsense, evaluation
from traitlex.commonsense import (
    Catalog,
    CommonsenseQuestion,
    SurveyDataset,
    check_consistency,
    correlation_filter,
    fuse_labels,
    load_bank,
    load_catalog,
    load_survey_csv,
    predict_with_bank,
    report_to_csv,
    save_bank,
    save_catalog,
    save_survey_csv,
    train_all,
)
from traitlex.errors import SurveyError, TrainingError
from traitlex.mlcore import TrainConfig, predict_many


def survey_of(rows, ids=None, answers=None):
    """A survey of answer rows, with ids r1, r2, ... unless given."""
    ids = tuple(f"r{i + 1}" for i in range(len(rows))) if ids is None else ids
    return SurveyDataset(respondent_ids=ids, items=rows, answers=answers or {})


def flat_answers(value=3):
    return [value] * 50


# --- response validation -----------------------------------------------------------

def test_response_requires_50_items():
    with pytest.raises(SurveyError, match="expected 50"):
        survey_of([[3] * 49])


def test_response_rejects_likert_6():
    bad = flat_answers()
    bad[7] = 6
    with pytest.raises(SurveyError, match="item 8"):
        survey_of([bad])


def test_response_rejects_non_integers():
    bad = flat_answers()
    bad[0] = 2.5
    with pytest.raises(SurveyError):
        survey_of([bad])


def test_survey_items_are_a_read_only_integer_matrix():
    survey = survey_of([flat_answers(1), flat_answers(5)])
    assert survey.items.dtype == np.int64 and survey.items.shape == (2, 50)
    assert not survey.items.flags.writeable
    assert survey.item_matrix().tolist() == [[1.0] * 50, [5.0] * 50]


def test_survey_leaves_the_callers_answers_alone():
    answers = {"toy": [0, 1]}
    survey = survey_of([flat_answers(), flat_answers()], answers=answers)
    assert answers == {"toy": [0, 1]}
    assert survey.answers is not answers


def test_survey_answers_are_read_only_integer_vectors():
    vector = np.array([0, 1], dtype=np.int32)
    survey = survey_of([flat_answers(), flat_answers()], answers={"toy": vector})
    assert survey.answers["toy"].dtype == np.int64
    assert not survey.answers["toy"].flags.writeable
    assert vector.flags.writeable


@pytest.mark.parametrize("values", [[0.9, 1.7], [0.0, 1.0], [True, False], ["0", "1"]])
def test_survey_refuses_answers_that_are_not_integers(values):
    with pytest.raises(SurveyError, match=r"^question 'toy': answer indices must be integers$"):
        survey_of([flat_answers(), flat_answers()], answers={"toy": values})


def test_survey_of_no_respondents_takes_empty_answers():
    survey = survey_of(np.empty((0, 50), dtype=int), answers={"toy": []})
    assert survey.answers["toy"].dtype == np.int64 and survey.answers["toy"].size == 0


def loop_check(ids, rows):
    """The message of the per-respondent loop the vectorised check replaced,
    kept as its reference: each row's id, length and items in turn, then
    repeated ids; None when it accepts the rows."""
    for rid, row in zip(ids, rows):
        if not rid:
            return "respondent id must be non-empty"
        if len(row) != 50:
            return f"respondent {rid!r}: expected 50 answers, got {len(row)}"
        for i, a in enumerate(row, start=1):
            if not isinstance(a, int) or not 1 <= a <= 5:
                return f"respondent {rid!r}, item {i}: invalid Likert value {a!r}"
    return "duplicate respondent ids" if len(set(ids)) != len(ids) else None


@st.composite
def answer_rows(draw):
    """A few rows of 49 to 51 answers with some bad cells and ids."""
    n, width = draw(st.integers(1, 5)), draw(st.sampled_from([50, 50, 50, 49, 51]))
    rows = [[3] * width for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.sampled_from([0, 1, 5, 6, -3, 10**30, 2.5, 3.0, "4", True]))
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, width - 1))] = value
    ids = [f"r{i}" for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        ids[draw(st.integers(0, n - 1))] = draw(st.sampled_from(["", "r0"]))
    return ids, rows


@settings(max_examples=300, deadline=None)
@given(answer_rows())
def test_survey_check_refuses_what_the_per_respondent_loop_refused(case):
    ids, rows = case
    expected = loop_check(ids, rows)
    try:
        survey_of(rows, ids=tuple(ids))
    except SurveyError as e:
        assert str(e) == expected
    else:
        assert expected is None


def test_survey_check_names_the_first_bad_respondent_in_row_order():
    rows = [flat_answers() for _ in range(3)]
    rows[1][20], rows[1][4], rows[2][0] = 9, 0, 7
    with pytest.raises(SurveyError, match=r"^respondent 'r2', item 5: invalid Likert value 0$"):
        survey_of(rows)


# --- question validation ----------------------------------------------------------

def test_question_label_arity_bounds():
    with pytest.raises(SurveyError):
        CommonsenseQuestion(id="q", text="t", answer_labels=("only",))
    with pytest.raises(SurveyError):
        CommonsenseQuestion(id="q", text="t",
                            answer_labels=tuple(f"l{i}" for i in range(8)))


def test_fusion_map_must_cover_all_labels():
    with pytest.raises(SurveyError, match="cover every"):
        CommonsenseQuestion(id="q", text="t",
                            answer_labels=("a", "b", "c"),
                            fusion_map={0: 0, 1: 1})


def test_fusion_targets_must_be_dense():
    with pytest.raises(SurveyError, match="0..m-1"):
        CommonsenseQuestion(id="q", text="t",
                            answer_labels=("a", "b", "c"),
                            fusion_map={0: 0, 1: 2, 2: 2})


def test_fused_label_names_join_merged_options():
    q = CommonsenseQuestion(
        id="q", text="t",
        answer_labels=("Strongly agree", "Agree", "Disagree", "Strongly disagree"),
        fusion_map={0: 0, 1: 0, 2: 1, 3: 1},
    )
    assert q.fused_labels == ("Strongly agree / Agree", "Disagree / Strongly disagree")


# --- fusion ------------------------------------------------------------------------

def counts_to_answers(counts):
    out = []
    for idx, c in enumerate(counts):
        out.extend([idx] * c)
    return np.array(out, dtype=int)


def fused_counts(counts, fusion_map):
    fused = fuse_labels(counts_to_answers(counts), fusion_map)
    m = max(fusion_map.values()) + 1
    return [int((fused == j).sum()) for j in range(m)]


def test_fusion_conserves_counts():
    counts = (5, 33, 46, 16)
    fused = fused_counts(counts, {0: 0, 1: 0, 2: 1, 3: 0})
    assert sum(fused) == sum(counts)
    assert fused == [54, 46]


def test_fusion_two_sided_merge():
    assert fused_counts((25, 17, 10, 48), {0: 0, 2: 0, 1: 1, 3: 1}) == [35, 65]


def test_fusion_partial_merge_keeps_three_labels():
    assert fused_counts((26, 39, 19, 16), {0: 0, 1: 1, 2: 2, 3: 2}) == [26, 39, 35]


def test_fusion_collapse_three_into_one():
    assert fused_counts((54, 20, 14, 12), {0: 0, 1: 1, 2: 1, 3: 1}) == [54, 46]


def test_fusion_rejects_uncovered_answers():
    with pytest.raises(SurveyError, match="not covered"):
        fuse_labels([0, 5], {0: 0, 1: 1})


# --- correlation filter -------------------------------------------------------------

def test_filter_keeps_driving_item(rng):
    X = rng.integers(1, 6, (200, 50)).astype(float)
    y = (X[:, 6] >= 3).astype(float)
    kept = correlation_filter(X, y)
    assert 6 in kept


def test_filter_drops_constant_columns(rng):
    X = rng.integers(1, 6, (100, 5)).astype(float)
    X[:, 2] = 4.0
    y = (X[:, 0] >= 3).astype(float)
    kept = correlation_filter(X, y, min_abs_r=0.0)
    assert 2 not in kept
    assert 0 in kept


def test_filter_may_return_empty():
    X = np.array([[1.0], [1.0], [2.0], [2.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])  # exactly uncorrelated with the column
    kept = correlation_filter(X, y, min_abs_r=0.5)
    assert kept.size == 0


def test_filter_threshold_is_inclusive():
    X = np.array([[1.0], [2.0], [2.0], [5.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    xc = X[:, 0] - X[:, 0].mean()
    yc = y - y.mean()
    sx, sy = np.sqrt((xc ** 2).sum()), np.sqrt((yc ** 2).sum())
    r = float((xc * yc).sum() / (sx * sy))
    kept = correlation_filter(X, y, min_abs_r=abs(r))
    assert list(kept) == [0]
    assert correlation_filter(X, y, min_abs_r=abs(r) + 1e-12).size == 0


@pytest.mark.parametrize("min_abs_r", [float("nan"), float("inf"), float("-inf")])
def test_filter_refuses_a_threshold_that_is_not_finite(min_abs_r):
    """NaN and infinity would keep no item, or every one, without a word."""
    X = np.array([[1.0], [2.0], [2.0], [5.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(SurveyError, match="min_abs_r must be a finite number"):
        correlation_filter(X, y, min_abs_r=min_abs_r)
    with pytest.raises(SurveyError, match="min_abs_r must be a finite number"):
        train_all(rule_survey(n=40), [TOY_QUESTION], [TrainConfig(algorithm="knn")], k=5,
                  min_abs_r=min_abs_r)


@pytest.mark.parametrize("min_abs_r", [2.0, 1.0000001, -0.5])
def test_filter_refuses_a_threshold_outside_0_1(min_abs_r):
    """Above 1 no |r| meets the threshold, so every question would fall back
    to all items; below 0 every column meets it."""
    X = np.array([[1.0], [2.0], [2.0], [5.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(SurveyError, match=r"min_abs_r must lie in \[0, 1\]"):
        correlation_filter(X, y, min_abs_r=min_abs_r)
    with pytest.raises(SurveyError, match=r"min_abs_r must lie in \[0, 1\]"):
        train_all(rule_survey(n=40), [TOY_QUESTION], [TrainConfig(algorithm="knn")], k=5,
                  min_abs_r=min_abs_r)
    for edge in (0.0, 1.0):
        correlation_filter(X, y, min_abs_r=edge)


def loop_correlations(X, y):
    """|r| of each column by the per-column loop correlation_filter replaced,
    kept as its reference; None for a constant column."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    yc = y - y.mean()
    sy = np.sqrt((yc ** 2).sum())
    out = []
    for j in range(X.shape[1]):
        xc = X[:, j] - X[:, j].mean()
        sx = np.sqrt((xc ** 2).sum())
        out.append(None if sx == 0.0 else abs(float((xc * yc).sum() / (sx * sy))))
    return out


@st.composite
def screen_cases(draw):
    """Likert or noisy columns, some of them constant, over 2..300 rows
    (past numpy's 128-element pairwise-summation block)."""
    n, d = draw(st.integers(2, 300)), draw(st.integers(1, 8))
    gen = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    X = gen.integers(1, 6, (n, d)).astype(float)
    if draw(st.booleans()):
        X += gen.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), (n, d))
    for j in draw(st.lists(st.integers(0, d - 1), max_size=d)):
        X[:, j] = draw(st.sampled_from([0.0, 0.1, 4.0, 1e-300]))
    y = gen.integers(0, draw(st.integers(2, 4)), n)
    y[:2] = (0, 1)
    return X, y


@settings(max_examples=200, deadline=None)
@given(screen_cases(), st.data())
def test_filter_keeps_the_columns_of_the_per_column_loop(case, data):
    X, y = case
    rs = loop_correlations(X, y)
    # thresholds placed exactly at a column's |r| catch any change in rounding;
    # a perfect correlation's |r| can round above 1, past the allowed range
    min_abs_r = data.draw(st.sampled_from(
        [0.0, 0.05, 0.3] + [min(r, 1.0) for r in rs if r is not None]))
    expected = [j for j, r in enumerate(rs) if r is not None and r >= min_abs_r]
    assert correlation_filter(X, y, min_abs_r).tolist() == expected


def test_filter_keeps_a_perfect_correlation_that_rounds_above_1():
    X = np.array([[5, 4, 3], [2, 2, 1], [1, 1, 1]])
    y = np.array([0, 1, 1])
    assert loop_correlations(X, y)[2] > 1.0
    assert correlation_filter(X, y, 1.0).tolist() == [2]


def test_filter_rejects_constant_target():
    X = np.ones((5, 2))
    with pytest.raises(SurveyError, match="single distinct"):
        correlation_filter(X, np.ones(5))


# --- synthetic rule survey ---------------------------------------------------------

def rule_survey(n=200, seed=11):
    """Answers driven by item 7: label 1 iff q7 >= 3."""
    gen = np.random.Generator(np.random.PCG64(seed))
    grid = gen.integers(1, 6, (n, 50))
    labels = (grid[:, 6] >= 3).astype(int)
    return SurveyDataset(respondent_ids=tuple(f"r{i}" for i in range(n)), items=grid,
                         answers={"toy": labels})


TOY_QUESTION = CommonsenseQuestion(
    id="toy", text="synthetic", answer_labels=("no", "yes"), fusion_map=None,
)


def test_rule_model_recovers_the_rule():
    survey = rule_survey()
    result = train_all(survey, [TOY_QUESTION], [TrainConfig(algorithm="decision_tree")], k=2)
    qmodel = result.models["toy"]
    assert 6 in qmodel.selected_items
    assert not qmodel.used_fallback
    hits = 0
    for row in survey.items:
        want = "yes" if row[6] >= 3 else "no"
        hits += predict_with_bank(result.models, row)["toy"] == want
    assert hits / survey.n >= 0.99


def rule_bank():
    return train_all(rule_survey(), [TOY_QUESTION],
                     [TrainConfig(algorithm="decision_tree")], k=2).models


def test_predict_with_bank_accepts_raw_sequences():
    bank = rule_bank()
    assert predict_with_bank(bank, flat_answers(5)) == {"toy": "yes"}
    assert predict_with_bank(bank, flat_answers(1)) == {"toy": "no"}


def test_predict_with_bank_validates_likert_range():
    bad = flat_answers()
    bad[0] = 6
    with pytest.raises(SurveyError):
        predict_with_bank(rule_bank(), bad)


def test_single_class_answers_rejected():
    survey = rule_survey()
    constant = SurveyDataset(
        respondent_ids=survey.respondent_ids, items=survey.items,
        answers={"toy": np.zeros(survey.n, dtype=int)},
    )
    result = train_all(constant, [TOY_QUESTION], [TrainConfig(algorithm="knn")], k=2)
    assert [(qid, algorithm) for qid, algorithm, _ in result.failures] == [("toy", "knn")]
    assert "single class" in result.failures[0][2]
    assert result.rows == () and result.models == {}


def test_majority_label_on_uninformative_features():
    gen = np.random.Generator(np.random.PCG64(3)); n = 60
    grid = gen.integers(1, 6, (n, 50))
    labels = np.zeros(n, dtype=int)
    labels[:5] = 1  # dominant class 0
    survey = SurveyDataset(respondent_ids=tuple(f"r{i}" for i in range(n)), items=grid,
                           answers={"toy": labels})
    result = train_all(
        survey, [TOY_QUESTION],
        [TrainConfig(algorithm="random_forest_clf", hyperparams={"n_trees": 20})],
        k=5, min_abs_r=0.9,  # force the all-items fallback
    )
    assert result.models["toy"].used_fallback
    votes = [predict_with_bank(result.models, row)["toy"] for row in grid]
    assert votes.count("no") > votes.count("yes")


# --- train_all --------------------------------------------------------------------

def fused_survey(n=120, seed=5):
    gen = np.random.Generator(np.random.PCG64(seed))
    grid = gen.integers(1, 6, (n, 50))
    # 4 raw labels collapsing pairwise to 2, driven by item 3
    raw = np.where(grid[:, 2] >= 3,
                   np.where(grid[:, 9] >= 3, 0, 1),
                   np.where(grid[:, 9] >= 3, 2, 3))
    question = CommonsenseQuestion(
        id="fused", text="t",
        answer_labels=("a1", "a2", "b1", "b2"),
        fusion_map={0: 0, 1: 0, 2: 1, 3: 1},
    )
    survey = SurveyDataset(respondent_ids=tuple(f"r{i}" for i in range(n)), items=grid,
                           answers={"fused": raw})
    return survey, question


def test_train_all_reports_both_accuracies():
    survey, question = fused_survey()
    result = train_all(
        survey, [question],
        [TrainConfig(algorithm="decision_tree")],
        k=5,
    )
    assert len(result.rows) == 1
    row = result.rows[0]
    # fusing makes the target depend on a single item, so it gets easier
    assert row.cv_accuracy_postfusion >= row.cv_accuracy_prefusion
    assert result.models["fused"].model.algorithm == "decision_tree"


def test_train_all_prefusion_equals_postfusion_without_map():
    survey = rule_survey(n=100)
    result = train_all(
        survey, [TOY_QUESTION], [TrainConfig(algorithm="knn")], k=5
    )
    row = result.rows[0]
    assert row.cv_accuracy_prefusion == row.cv_accuracy_postfusion


def test_train_all_records_failures_and_continues():
    survey = rule_survey(n=80)
    constant = SurveyDataset(
        respondent_ids=survey.respondent_ids, items=survey.items,
        answers={
            "toy": survey.answers["toy"],
            "stuck": np.zeros(80, dtype=int),
        },
    )
    stuck_q = CommonsenseQuestion(id="stuck", text="t", answer_labels=("x", "y"))
    result = train_all(
        constant, [TOY_QUESTION, stuck_q],
        [TrainConfig(algorithm="decision_tree")], k=5,
    )
    assert [r.qid for r in result.rows] == ["toy"]
    assert len(result.failures) == 1
    assert result.failures[0][0] == "stuck"
    assert list(result.models) == ["toy"]


def test_train_all_best_prefers_earlier_config_on_ties():
    survey = rule_survey(n=100)
    result = train_all(
        survey, [TOY_QUESTION],
        [TrainConfig(algorithm="decision_tree"),
         TrainConfig(algorithm="random_forest_clf", hyperparams={"n_trees": 20})],
        k=5,
    )
    by_algo = {r.algorithm: r for r in result.rows}
    winner = result.models["toy"].model.algorithm
    best_acc = by_algo[winner].cv_accuracy_postfusion
    for r in result.rows:
        assert r.cv_accuracy_postfusion <= best_acc
    if len({r.cv_accuracy_postfusion for r in result.rows}) == 1:
        assert winner == "decision_tree"


@pytest.mark.parametrize("first,second", [("decision_tree", "knn"), ("knn", "decision_tree")])
def test_train_all_ties_go_to_the_earlier_config(first, second):
    # only item 7 passes the screen, and both learners read the rule off it
    result = train_all(rule_survey(n=100), [TOY_QUESTION],
                       [TrainConfig(algorithm=first), TrainConfig(algorithm=second)],
                       k=5, min_abs_r=0.5)
    assert [r.cv_accuracy_postfusion for r in result.rows] == [1.0, 1.0]
    assert result.models["toy"].model.algorithm == first


def plain_fused_and_stuck_survey():
    """rule_survey's 80 rows with a fused question (from another grid, so its
    answers are noise here) and a question whose answers hold one class; and
    the three questions."""
    plain = rule_survey(n=80)
    fused, fused_q = fused_survey(n=80)
    stuck_q = CommonsenseQuestion(id="stuck", text="t", answer_labels=("x", "y"))
    survey = SurveyDataset(respondent_ids=plain.respondent_ids, items=plain.items, answers={
        "fused": fused.answers["fused"], "toy": plain.answers["toy"],
        "stuck": np.zeros(80, dtype=int),
    })
    return survey, [fused_q, TOY_QUESTION, stuck_q]


def test_train_all_fits_only_each_winner(monkeypatch, tmp_path):
    """k fits per cross-validation run (two for a fused question), then one
    fit per question that has a winner, in this process; none for a question
    that failed.  Each fit appends a line to a file, since a fold fit may run
    in a forked worker whose memory the test cannot see."""
    survey, questions = plain_fused_and_stuck_survey()
    log = tmp_path / "fits.log"
    fit_folds, fit = evaluation.train_many, commonsense.ml_train

    def record(where, config, fits):
        with open(log, "a", encoding="utf-8") as f:
            f.write(f"{where} {config.algorithm} {os.getpid()}\n" * fits)

    def counted_folds(config, ds, row_sets):
        record("traitlex.evaluation", config, len(row_sets))
        return fit_folds(config, ds, row_sets)

    def counted(config, ds):
        record("traitlex.commonsense", config, 1)
        return fit(config, ds)

    monkeypatch.setattr(evaluation, "train_many", counted_folds)
    monkeypatch.setattr(commonsense, "ml_train", counted)
    configs = [TrainConfig(algorithm="decision_tree"), TrainConfig(algorithm="knn")]
    k = 4
    result = train_all(survey, questions, configs, k=k)
    assert len(result.rows) == 4 and len(result.failures) == 2
    fits = [line.split() for line in log.read_text("utf-8").splitlines()]
    cv_runs = 2 * 2 + 2 * 1  # fused: pre and post per config; toy: one per config
    assert [w for w, _, _ in fits].count("traitlex.evaluation") == k * cv_runs
    winner_fits = [(w, a, pid) for w, a, pid in fits if w == "traitlex.commonsense"]
    assert winner_fits == [("traitlex.commonsense", result.models[qid].model.algorithm,
                            str(os.getpid())) for qid in ("fused", "toy")]


def _train_all_with_cpus(monkeypatch, cpus, survey, questions, configs):
    """train_all as it runs on a process whose affinity mask holds cpus CPUs."""
    with monkeypatch.context() as m:
        m.setattr(evaluation.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return train_all(survey, questions, configs, k=3)


def test_train_all_gives_the_same_bytes_on_one_cpu_and_on_several(monkeypatch, tmp_path):
    """Rows, failures and bank bytes do not depend on the number of workers;
    a fold's TrainingError reads the same from a worker, an unexpected error
    in a worker surfaces as itself, and no worker outlives the call."""
    survey, questions = plain_fused_and_stuck_survey()
    configs = [TrainConfig(algorithm="decision_tree"), TrainConfig(algorithm="knn"),
               TrainConfig(algorithm="random_forest_clf", hyperparams={"n_trees": 5})]
    fit = evaluation.train_many

    def knn_fails_last_fold(config, ds, row_sets):
        # 80 rows in 3 folds: only the last fold trains on 54 rows
        return [TrainingError(f"injected into the fold of {rows.size} training rows")
                if config.algorithm == "knn" and rows.size == 54 else model
                for rows, model in zip(row_sets, fit(config, ds, row_sets))]

    monkeypatch.setattr(evaluation, "train_many", knn_fails_last_fold)
    runs = {}
    for cpus in (1, 4):
        result = _train_all_with_cpus(monkeypatch, cpus, survey, questions, configs)
        save_bank(result, tmp_path / f"bank{cpus}.json")
        runs[cpus] = (result.rows, result.failures, (tmp_path / f"bank{cpus}.json").read_bytes())
    assert runs[1] == runs[4]
    rows, failures, _ = runs[4]
    assert [(r.qid, r.algorithm) for r in rows] == [
        (qid, a) for qid in ("fused", "toy") for a in ("decision_tree", "random_forest_clf")]
    assert [f for f in failures if f[0] != "stuck"] == [
        (qid, "knn", "injected into the fold of 54 training rows") for qid in ("fused", "toy")]
    assert multiprocessing.active_children() == []

    def breaks(config, ds, row_sets):
        if config.algorithm == "knn" and any(rows.size == 54 for rows in row_sets):
            raise RuntimeError("not a training fault")
        return fit(config, ds, row_sets)

    monkeypatch.setattr(evaluation, "train_many", breaks)
    with pytest.raises(RuntimeError, match="not a training fault"):
        _train_all_with_cpus(monkeypatch, 4, survey, questions, configs)
    assert multiprocessing.active_children() == []


def test_train_all_prepares_each_label_set_once(monkeypatch):
    """One float matrix per call, and one screen per (question, label set),
    whatever the number of configs: two for the fused question, one for the
    plain one, none for the question whose answers hold a single class."""
    calls = []
    screen, matrix = commonsense.correlation_filter, SurveyDataset.item_matrix
    monkeypatch.setattr(commonsense, "correlation_filter",
                        lambda *args: calls.append("screen") or screen(*args))
    monkeypatch.setattr(SurveyDataset, "item_matrix",
                        lambda self: calls.append("matrix") or matrix(self))
    survey, questions = plain_fused_and_stuck_survey()
    configs = [TrainConfig(algorithm="decision_tree"), TrainConfig(algorithm="knn"),
               TrainConfig(algorithm="random_forest_clf", hyperparams={"n_trees": 5})]
    result = train_all(survey, questions, configs, k=4)
    assert len(result.rows) == 6 and len(result.failures) == 3
    assert calls == ["matrix", "screen", "screen", "screen"]


def test_train_all_reports_a_failed_raw_cv_before_a_failed_fusion():
    # one "b" answer: the fold that holds it trains on a single class, and the
    # fusion would leave a single class too
    labels = np.zeros(40, dtype=int)
    labels[0] = 1
    survey = survey_of(rule_survey(n=40).items, answers={"toy": labels})
    question = CommonsenseQuestion(id="toy", text="t", answer_labels=("a", "b", "c"),
                                   fusion_map={0: 0, 1: 0, 2: 1})
    result = train_all(survey, [question], [TrainConfig(algorithm="knn"),
                                            TrainConfig(algorithm="decision_tree")], k=4)
    assert result.failures == (("toy", "knn", "training data contains a single class"),
                               ("toy", "decision_tree", "training data contains a single class"))
    assert not result.rows and not result.models


def test_report_csv_shape():
    survey = rule_survey(n=80)
    result = train_all(survey, [TOY_QUESTION],
                       [TrainConfig(algorithm="knn")], k=4)
    text = report_to_csv(result)
    lines = text.strip().splitlines()
    assert lines[0] == "qid,algorithm,cv_accuracy_prefusion,cv_accuracy_postfusion"
    assert lines[1].startswith("toy,knn,")


# --- consistency screening --------------------------------------------------------

def test_consistency_flags_far_duplicates():
    answers = flat_answers()
    answers[0], answers[6] = 1, 4
    assert check_consistency([answers], [(1, 7)]).tolist() == [0]


def test_consistency_allows_one_step():
    answers = flat_answers()
    answers[0], answers[6] = 3, 4
    assert check_consistency([answers], [(1, 7)]).tolist() == [-1]


def test_consistency_gives_each_row_its_first_violated_pair():
    rows = [flat_answers() for _ in range(4)]
    rows[0][1] = 5  # breaks (2, 9) only
    rows[1][0], rows[1][1] = 1, 5  # breaks (1, 7) and (2, 9)
    rows[3][8] = 1  # breaks (2, 9) from the other side
    pairs = [(1, 7), (2, 9)]
    assert check_consistency(rows, pairs).tolist() == [1, 0, -1, 1]
    assert check_consistency(rows, []).tolist() == [-1] * 4


# --- catalog ----------------------------------------------------------------------

def test_bundled_catalog_loads():
    catalog = load_catalog()
    assert len(catalog.questionnaire_items) == 50
    assert catalog.duplicate_pairs
    assert len(catalog.questions) >= 10
    q = catalog.question("travel_ban")
    assert q.fusion_map == {0: 0, 2: 0, 1: 1, 3: 1}


def test_bundled_duplicate_pairs_reference_matching_items():
    catalog = load_catalog()
    for a, b in catalog.duplicate_pairs:
        assert catalog.questionnaire_items[a - 1] == catalog.questionnaire_items[b - 1]


def test_saved_catalog_loads_back(tmp_path):
    catalog = load_catalog()
    save_catalog(catalog, tmp_path / "catalog.json")
    assert load_catalog(tmp_path / "catalog.json") == catalog


def test_unknown_question_id_rejected():
    catalog = load_catalog()
    with pytest.raises(SurveyError, match="no question"):
        catalog.question("nope")


# --- survey CSV -------------------------------------------------------------------

def small_catalog(duplicate_pairs=((1, 7),)):
    return Catalog(
        questionnaire_items=tuple(f"item {i}" for i in range(1, 51)),
        duplicate_pairs=tuple(duplicate_pairs),
        questions=(TOY_QUESTION,),
    )


def test_survey_csv_round_trip(tmp_path):
    survey = rule_survey(n=30)
    save_survey_csv(survey, tmp_path / "s.csv")
    loaded = load_survey_csv(tmp_path / "s.csv", small_catalog(duplicate_pairs=()))
    assert loaded.survey.respondent_ids == survey.respondent_ids
    np.testing.assert_array_equal(loaded.survey.items, survey.items)
    np.testing.assert_array_equal(loaded.survey.answers["toy"],
                                  survey.answers["toy"])


def test_survey_csv_rejects_inconsistent_respondents(tmp_path):
    answers = flat_answers()
    answers[0], answers[6] = 1, 5
    survey = survey_of([flat_answers(), answers], ids=("ok", "bad"),
                       answers={"toy": np.array([0, 1])})
    save_survey_csv(survey, tmp_path / "s.csv")
    loaded = load_survey_csv(tmp_path / "s.csv", small_catalog())
    assert loaded.survey.respondent_ids == ("ok",)
    assert loaded.rejected == (("bad", 1, 7),)


def test_survey_csv_keeps_ids_holding_a_comma(tmp_path):
    answers = flat_answers()
    answers[0], answers[6] = 1, 5
    survey = survey_of([flat_answers(), answers], ids=("o,k", "r,1"),
                       answers={"toy": np.array([0, 1])})
    save_survey_csv(survey, tmp_path / "s.csv")
    loaded = load_survey_csv(tmp_path / "s.csv", small_catalog())
    assert loaded.survey.respondent_ids == ("o,k",)
    assert loaded.rejected == (("r,1", 1, 7),)


def test_survey_csv_error_names_the_physical_line(tmp_path):
    save_survey_csv(rule_survey(n=2), tmp_path / "s.csv")
    header, first, second = (tmp_path / "s.csv").read_text("utf-8").splitlines()
    rid, _, rest = second.split(",", 2)
    bad = ",".join([rid, "7", rest])  # the bad row is on line 5, after two blank lines
    (tmp_path / "s.csv").write_text("\n".join([header, first, "", "", bad]) + "\n", "utf-8")
    with pytest.raises(SurveyError, match=r"s\.csv line 5: respondent 'r1', item 1: "
                                          r"invalid Likert value 7$"):
        load_survey_csv(tmp_path / "s.csv", small_catalog(duplicate_pairs=()))


def test_survey_csv_rejects_unknown_answer_column(tmp_path):
    survey = rule_survey(n=5)
    save_survey_csv(survey, tmp_path / "s.csv")
    text = (tmp_path / "s.csv").read_text("utf-8").replace("a_toy", "a_nope")
    (tmp_path / "s.csv").write_text(text, "utf-8")
    with pytest.raises(SurveyError):
        load_survey_csv(tmp_path / "s.csv", small_catalog())


# --- bank persistence ---------------------------------------------------------------

def test_bank_round_trip_preserves_predictions(tmp_path):
    survey = rule_survey(n=100)
    result = train_all(
        survey, [TOY_QUESTION],
        [TrainConfig(algorithm="decision_tree"),
         TrainConfig(algorithm="knn")],
        k=5,
    )
    save_bank(result, tmp_path / "bank.json")
    (entry,) = json.loads((tmp_path / "bank.json").read_text("utf-8"))["questions"]
    assert set(entry) == {"question", "used_fallback", "model"}
    assert entry["question"]["id"] == "toy"
    assert not {"format", "format_version"} & set(entry["model"])
    loaded = load_bank(tmp_path / "bank.json")
    # one model per question: the winner, with its items
    assert list(loaded) == ["toy"]
    assert loaded["toy"].model.algorithm == result.models["toy"].model.algorithm
    assert loaded["toy"].selected_items == result.models["toy"].selected_items
    probe = flat_answers(5)
    assert predict_with_bank(loaded, probe) == predict_with_bank(result.models, probe)


@pytest.mark.parametrize("algorithm", ["knn", "linear_svm", "mlp", "decision_tree"])
def test_loaded_bank_predicts_as_the_trained_models(tmp_path, algorithm):
    # the items come from the model's own feature names, so no stored item
    # list can feed a model its features in another order
    gen = np.random.Generator(np.random.PCG64(5))
    grid = gen.integers(1, 6, (120, 50))
    labels = (grid[:, 2] + grid[:, 19] - grid[:, 40] >= 3).astype(int)
    survey = SurveyDataset(tuple(f"r{i}" for i in range(120)), grid, {"toy": labels})
    result = train_all(survey, [TOY_QUESTION], [TrainConfig(algorithm=algorithm)], k=3,
                       min_abs_r=0.1)
    save_bank(result, tmp_path / "bank.json")
    loaded = load_bank(tmp_path / "bank.json")
    columns = correlation_filter(grid, labels, 0.1)  # the screen, in the fit's order
    assert loaded["toy"].selected_items == tuple(columns)
    assert {2, 19, 40} <= set(columns)
    rows = np.vstack([grid, gen.integers(1, 6, (80, 50))])
    fitted = predict_many(result.models["toy"].model, rows[:, columns])
    for row, want in zip(rows, fitted):
        assert predict_with_bank(loaded, row) == predict_with_bank(result.models, row)
        assert predict_with_bank(loaded, row) == {"toy": TOY_QUESTION.label_for(want)}


def test_bank_file_checksum_guard(tmp_path):
    survey = rule_survey(n=60)
    result = train_all(survey, [TOY_QUESTION],
                       [TrainConfig(algorithm="knn")], k=4)
    save_bank(result, tmp_path / "bank.json")
    text = (tmp_path / "bank.json").read_text("utf-8")
    (tmp_path / "bank.json").write_text(text.replace('"used_fallback"', '"Used_fallback"', 1), "utf-8")
    from traitlex.errors import ModelIntegrityError
    with pytest.raises(ModelIntegrityError):
        load_bank(tmp_path / "bank.json")
