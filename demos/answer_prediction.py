"""
Predicting questionnaire answers from questionnaire answers
===========================================================

The survey stage learns, per opinion question, which of the 50 Likert
items predict the chosen answer. Here the ground truth is planted: two
synthetic questions are driven by known items, a third is pure noise,
and the models should recover exactly that structure.
"""

from pathlib import Path

from traitlex.commonsense import (
    fuse_labels, load_catalog, predict_with_bank, report_to_csv, train_all,
)
from traitlex.mlcore import TrainConfig
from traitlex.synthgen import (
    GeneratorSpec, SurveyQuestionSpec, SurveyRule, SurveySpec, generate_survey,
    make_bin_vocab,
)

out = Path(__file__).parent / "out" / "answers"
out.mkdir(parents=True, exist_ok=True)

# "walks" answers option 1 iff item 12 >= 3; "togetherness" needs items 4
# and 30 both high; "coin_flip" ignores the questionnaire entirely.
survey_spec = SurveySpec(
    n_respondents=250,
    questions=(
        SurveyQuestionSpec(id="walks", n_labels=2,
                           rule=SurveyRule(conditions=((12, 3),))),
        SurveyQuestionSpec(id="togetherness", n_labels=2,
                           rule=SurveyRule(conditions=((4, 3), (30, 4)))),
        SurveyQuestionSpec(id="coin_flip", n_labels=2),
    ),
)
spec = GeneratorSpec(
    seed=5, n_samples=0, words_per_sample=(100, 200),
    vocab=make_bin_vocab(n_bins=8, words_per_bin=5, overlap_fraction=0.0, seed=5),
    survey=survey_spec,
)
survey, questions = generate_survey(spec)
print(f"survey: {len(survey.respondent_ids)} respondents, {len(questions)} questions")

# At 250 respondents, noise correlations sit around 1/sqrt(n) = 0.06, so
# the shipped 0.05 threshold would pass plenty of accidental items. 0.3
# only lets the planted signal through.
result = train_all(
    survey, questions,
    configs=[
        TrainConfig(algorithm="random_forest_clf", seed=0,
                    hyperparams={"n_trees": 30}),
        TrainConfig(algorithm="decision_tree", seed=0),
    ],
    k=5,
    min_abs_r=0.3,
)
(out / "report.csv").write_text(report_to_csv(result), "utf-8")
print(report_to_csv(result))

# The correlation filter should hand each model exactly the planted items.
# Nothing correlates with the noise question, so it falls back to the full
# questionnaire and scores near 0.5.
for qid, qmodel in sorted(result.models.items()):
    if qmodel.used_fallback:
        items = f"all {len(qmodel.selected_items)} (none correlated)"
    else:
        items = str(tuple(i + 1 for i in qmodel.selected_items))
    print(f"{qid}: best={qmodel.model.algorithm}, items used {items}")

print(f"respondent {survey.respondent_ids[0]}: "
      f"{predict_with_bank(result.models, survey.items[0])}")

# Sparse answer options fragment the training signal. The shipped catalog
# carries fusion maps that merge kindred options; counts are conserved,
# classes get denser.
catalog = load_catalog()
question = next(q for q in catalog.questions if q.fusion_map is not None)
raw = [i for i, n in enumerate((25, 17, 10, 48)) for _ in range(n)]
fused = fuse_labels(raw, question.fusion_map)
print(f"{question.id}: 4 options at (25, 17, 10, 48) fuse to "
      f"{tuple(int((fused == j).sum()) for j in range(max(fused) + 1))} "
      f"as {question.fused_labels}")
