"""Predicting multiple-choice answers from personality questionnaires.

Respondents fill a 50-item Likert questionnaire (1 to 5) and answer a set
of multiple-choice opinion questions.  Each opinion question gets its own
classifier over the questionnaire items, after two preprocessing steps:

* label fusion: sparse answer options can be merged via a question's
  fusion map, which conserves answer counts while thickening classes;
* correlation filtering: questionnaire items whose Pearson correlation
  with the (possibly fused) answer falls below a threshold are dropped.

The questionnaire contains deliberately repeated items; respondents whose
answers to a repeated pair differ by more than one Likert step fail the
consistency check and are rejected at survey ingest.
"""

import csv
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from ._util import (
    atomic_write_text,
    check_fields,
    fmt_float,
    is_int,
    is_int_list,
    is_int_pairs,
    is_str_list,
    load_checked_json,
    save_checked_json,
)
from .errors import ModelFormatError, SurveyError, TrainingError
from .evaluation import cross_validate
from .mlcore import (
    Dataset,
    TrainConfig,
    model_from_payload,
    model_to_payload,
    predict as ml_predict,
    train as ml_train,
)

N_ITEMS = 50
LIKERT_MIN, LIKERT_MAX = 1, 5
DEFAULT_MIN_ABS_R = 0.05

CATALOG_FORMAT = "traitlex-question-catalog"
CATALOG_FORMAT_VERSION = 1
BANK_FORMAT = "traitlex-question-bank"
BANK_FORMAT_VERSION = 3


@dataclass(frozen=True)
class QuestionnaireResponse:
    respondent_id: str
    answers: tuple  # 50 integers, 1..5

    def __post_init__(self):
        if not self.respondent_id:
            raise SurveyError("respondent id must be non-empty")
        if len(self.answers) != N_ITEMS:
            raise SurveyError(
                f"respondent {self.respondent_id!r}: expected {N_ITEMS} answers, "
                f"got {len(self.answers)}"
            )
        for i, a in enumerate(self.answers, start=1):
            if not isinstance(a, int) or not LIKERT_MIN <= a <= LIKERT_MAX:
                raise SurveyError(
                    f"respondent {self.respondent_id!r}, item {i}: "
                    f"invalid Likert value {a!r}"
                )


@dataclass(frozen=True)
class CommonsenseQuestion:
    id: str
    text: str
    answer_labels: tuple
    fusion_map: dict | None = None  # original index -> fused index

    def __post_init__(self):
        if not self.id:
            raise SurveyError("question id must be non-empty")
        n = len(self.answer_labels)
        if not 2 <= n <= 7:
            raise SurveyError(f"question {self.id!r}: needs 2..7 answer labels, got {n}")
        if len(set(self.answer_labels)) != n:
            raise SurveyError(f"question {self.id!r}: answer labels are not unique")
        if self.fusion_map is not None:
            if set(self.fusion_map) != set(range(n)):
                raise SurveyError(
                    f"question {self.id!r}: fusion map must cover every original label"
                )
            targets = set(self.fusion_map.values())
            if targets != set(range(len(targets))) or len(targets) < 2:
                raise SurveyError(
                    f"question {self.id!r}: fusion targets must be 0..m-1 with m >= 2"
                )

    @property
    def fused_labels(self) -> tuple:
        """Output label names; merged options are joined with ' / '."""
        if self.fusion_map is None:
            return self.answer_labels
        m = max(self.fusion_map.values()) + 1
        groups = [[] for _ in range(m)]
        for orig in range(len(self.answer_labels)):
            groups[self.fusion_map[orig]].append(self.answer_labels[orig])
        return tuple(" / ".join(g) for g in groups)

    def label_for(self, output_index: int) -> str:
        return self.fused_labels[output_index]


@dataclass(frozen=True)
class SurveyDataset:
    """Questionnaire responses plus per-question answer index vectors."""

    responses: tuple
    answers: dict  # question id -> np.ndarray of label indices

    def __post_init__(self):
        ids = [r.respondent_id for r in self.responses]
        if len(set(ids)) != len(ids):
            raise SurveyError("duplicate respondent ids")
        for qid, values in self.answers.items():
            values = np.asarray(values, dtype=int)
            if values.shape != (len(self.responses),):
                raise SurveyError(
                    f"question {qid!r}: answer vector length does not match respondents"
                )
            if np.any(values < 0):
                raise SurveyError(f"question {qid!r}: negative answer index")
            self.answers[qid] = values

    @property
    def n(self) -> int:
        return len(self.responses)

    def item_matrix(self) -> np.ndarray:
        return np.array([r.answers for r in self.responses], dtype=float)


@dataclass(frozen=True)
class Catalog:
    questionnaire_items: tuple
    duplicate_pairs: tuple  # of (item_a, item_b), 1-based
    questions: tuple

    def __post_init__(self):
        if len(self.questionnaire_items) != N_ITEMS:
            raise SurveyError(
                f"catalog must list {N_ITEMS} questionnaire items, "
                f"got {len(self.questionnaire_items)}"
            )
        for a, b in self.duplicate_pairs:
            if not (1 <= a <= N_ITEMS and 1 <= b <= N_ITEMS and a != b):
                raise SurveyError(f"invalid duplicate pair ({a}, {b})")
        ids = [q.id for q in self.questions]
        if len(set(ids)) != len(ids):
            raise SurveyError("duplicate question ids in catalog")

    def question(self, qid: str) -> CommonsenseQuestion:
        for q in self.questions:
            if q.id == qid:
                return q
        raise SurveyError(f"no question with id {qid!r}")


def load_catalog(path=None) -> Catalog:
    """Read a question catalog; default is the bundled one."""
    if path is None:
        text = resources.files(__package__).joinpath(
            "data/question_catalog.json"
        ).read_text("utf-8")
        where = "bundled catalog"
    else:
        text = Path(path).read_text("utf-8")
        where = str(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise SurveyError(f"{where}: invalid JSON ({e.msg})") from None
    if not isinstance(payload, dict) or payload.get("format") != CATALOG_FORMAT:
        raise SurveyError(f"{where}: not a question catalog")
    if payload.get("format_version") != CATALOG_FORMAT_VERSION:
        raise SurveyError(
            f"{where}: unsupported catalog version {payload.get('format_version')!r}"
        )
    check_fields(payload, _CATALOG_FIELDS, where)
    questions = tuple(
        _question_from_payload(q, f"{where}:questions[{i}]")
        for i, q in enumerate(payload["questions"])
    )
    try:
        return Catalog(
            questionnaire_items=tuple(payload["questionnaire_items"]),
            duplicate_pairs=tuple(map(tuple, payload["duplicate_pairs"])),
            questions=questions,
        )
    except SurveyError as e:
        raise SurveyError(f"{where}: {e}") from None


# --- label fusion ------------------------------------------------------------

def fuse_labels(answers, fusion_map: dict) -> np.ndarray:
    """Remap answer indices; every answer must be covered by the map."""
    answers = np.asarray(answers, dtype=int)
    table = np.full(max(fusion_map) + 1, -1, dtype=int)
    for orig, fused in fusion_map.items():
        table[orig] = fused
    if np.any(answers < 0) or np.any(answers > max(fusion_map)):
        bad = int(answers[(answers < 0) | (answers > max(fusion_map))][0])
        raise SurveyError(f"answer index {bad} not covered by the fusion map")
    fused = table[answers]
    if np.any(fused < 0):
        bad = int(answers[fused < 0][0])
        raise SurveyError(f"answer index {bad} not covered by the fusion map")
    return fused


# --- feature selection ---------------------------------------------------------

def correlation_filter(X, y, min_abs_r: float = DEFAULT_MIN_ABS_R) -> np.ndarray:
    """Indices of columns whose |Pearson r| with y meets the threshold.

    Constant columns have no defined correlation and are dropped.  The
    result may be empty; callers decide what to fall back to.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise SurveyError("feature matrix and target must have matching rows")
    if X.shape[0] < 2:
        raise SurveyError("correlation needs at least 2 rows")
    if np.all(y == y[0]):
        raise SurveyError("target has a single distinct value")
    yc = y - y.mean()
    sy = np.sqrt((yc ** 2).sum())
    # Last-axis sums over contiguous rows add in the same order as a sum over
    # one column, so r is bit for bit what a per-column loop gives.
    xt = np.ascontiguousarray(X.T)
    xc = xt - xt.mean(axis=1, keepdims=True)
    sx = np.sqrt((xc ** 2).sum(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (xc * yc).sum(axis=1) / (sx * sy)
    return np.flatnonzero((sx != 0.0) & (np.abs(r) >= min_abs_r))


# --- per-question models ---------------------------------------------------------

@dataclass
class QuestionModel:
    question: CommonsenseQuestion
    selected_items: tuple  # 0-based questionnaire item indices
    used_fallback: bool  # correlation filter matched nothing, kept all items
    model: object  # TrainedModel


def _question_dataset(survey, min_abs_r, labels):
    X = survey.item_matrix()
    selected = correlation_filter(X, labels, min_abs_r)
    used_fallback = selected.size == 0
    if used_fallback:
        selected = np.arange(N_ITEMS)
    names = tuple(f"q{j + 1}" for j in selected)
    ds = Dataset(feature_names=names, X=X[:, selected], y_class=labels)
    return ds, tuple(int(j) for j in selected), used_fallback


def _raw_answers(survey, question) -> np.ndarray:
    if question.id not in survey.answers:
        raise SurveyError(f"survey has no answers for question {question.id!r}")
    answers = survey.answers[question.id]
    if np.any(answers >= len(question.answer_labels)):
        bad = int(answers[answers >= len(question.answer_labels)][0])
        raise SurveyError(
            f"question {question.id!r}: answer index {bad} out of range"
        )
    return answers


def _fused(question, raw) -> np.ndarray:
    return raw if question.fusion_map is None else fuse_labels(raw, question.fusion_map)


def _fit(config, survey, question, labels, min_abs_r) -> QuestionModel:
    ds, selected, used_fallback = _question_dataset(survey, min_abs_r, labels)
    return QuestionModel(
        question=question,
        selected_items=selected,
        used_fallback=used_fallback,
        model=ml_train(config, ds),
    )


def train_question_model(
    config: TrainConfig,
    survey: SurveyDataset,
    question: CommonsenseQuestion,
    min_abs_r: float = DEFAULT_MIN_ABS_R,
) -> QuestionModel:
    """Fuse labels, filter items by correlation, and fit one classifier."""
    fused = _fused(question, _raw_answers(survey, question))
    if np.unique(fused).size < 2:
        raise TrainingError(
            f"question {question.id!r}: answers contain a single class"
        )
    return _fit(config, survey, question, fused, min_abs_r)


def predict_answer(qmodel: QuestionModel, response) -> str:
    """Answer label for one respondent's questionnaire."""
    if not isinstance(response, QuestionnaireResponse):
        response = QuestionnaireResponse(
            respondent_id="anonymous", answers=tuple(response)
        )
    x = np.array(response.answers, dtype=float)[list(qmodel.selected_items)]
    output = ml_predict(qmodel.model, x)
    return qmodel.question.label_for(int(output))


# --- the full pipeline ------------------------------------------------------------

@dataclass(frozen=True)
class TrainAllRow:
    qid: str
    algorithm: str
    cv_accuracy_prefusion: float
    cv_accuracy_postfusion: float


@dataclass(frozen=True)
class TrainAllResult:
    rows: tuple
    failures: tuple  # of (qid, algorithm, message)
    models: dict  # qid -> QuestionModel of the best algorithm


def _cv_accuracy(config, survey, labels, min_abs_r, k, seed):
    ds, _, _ = _question_dataset(survey, min_abs_r, labels)
    return cross_validate(config, ds, k=k, seed=seed).mean_accuracy


def train_all(
    survey: SurveyDataset,
    questions,
    configs,
    k: int = 10,
    seed: int = 0,
    min_abs_r: float = DEFAULT_MIN_ABS_R,
) -> TrainAllResult:
    """Cross-validate every (question, algorithm) pair and fit each question's
    best algorithm on all rows.

    Pre-fusion accuracy uses the raw answer indices, post-fusion the fused
    ones; questions without a fusion map score identically on both.  The best
    algorithm has the highest post-fusion accuracy, the earliest config
    winning ties.  A failure on one pair (single answer class, for instance)
    is recorded and the sweep continues.  The winner's fit on all rows is not
    caught: it raises only if all rows cross the tree learners' 64-bit
    sort-key limit (trees grown at once * mtry < 2 ** (63 - 2 * bits), bits
    being the bit length of the row count) that the CV folds stayed under,
    which takes tens of millions of respondents.
    """
    rows = []
    failures = []
    models = {}
    for question in questions:
        best = None  # (post-fusion accuracy, config, fused labels)
        for config in configs:
            try:
                raw = _raw_answers(survey, question)
                if np.unique(raw).size < 2:
                    raise TrainingError(
                        f"question {question.id!r}: answers contain a single class"
                    )
                pre = post = _cv_accuracy(config, survey, raw, min_abs_r, k, seed)
                fused = _fused(question, raw)
                if question.fusion_map is not None:
                    if np.unique(fused).size < 2:
                        raise TrainingError(
                            f"question {question.id!r}: fusion left a single class"
                        )
                    post = _cv_accuracy(config, survey, fused, min_abs_r, k, seed)
            except (TrainingError, SurveyError) as e:
                failures.append((question.id, config.algorithm, str(e)))
                continue
            rows.append(
                TrainAllRow(
                    qid=question.id,
                    algorithm=config.algorithm,
                    cv_accuracy_prefusion=pre,
                    cv_accuracy_postfusion=post,
                )
            )
            if best is None or post > best[0]:
                best = (post, config, fused)
        if best is not None:
            _, config, fused = best
            models[question.id] = _fit(config, survey, question, fused, min_abs_r)
    return TrainAllResult(rows=tuple(rows), failures=tuple(failures), models=models)


def report_to_csv(result: TrainAllResult) -> str:
    lines = ["qid,algorithm,cv_accuracy_prefusion,cv_accuracy_postfusion"]
    for row in result.rows:
        lines.append(
            f"{row.qid},{row.algorithm},"
            f"{fmt_float(row.cv_accuracy_prefusion)},"
            f"{fmt_float(row.cv_accuracy_postfusion)}"
        )
    return "\n".join(lines) + "\n"


# --- survey files -------------------------------------------------------------------

@dataclass(frozen=True)
class SurveyIngestResult:
    survey: SurveyDataset
    rejected: tuple  # of (respondent_id, item_a, item_b)


def check_consistency(response: QuestionnaireResponse, duplicate_pairs):
    """First violated duplicate pair, or None when answers are consistent."""
    for a, b in duplicate_pairs:
        if abs(response.answers[a - 1] - response.answers[b - 1]) > 1:
            return (a, b)
    return None


def load_survey_csv(path, catalog: Catalog) -> SurveyIngestResult:
    """Read respondent rows, dropping those that fail the consistency check.

    Expected header: respondent_id, q1..q50, then one a_<qid> column per
    catalog question that the survey covers.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SurveyError(f"{path}: empty survey file") from None
        data_rows = [row for row in reader if row]
    expected = ["respondent_id"] + [f"q{i}" for i in range(1, N_ITEMS + 1)]
    if header[: N_ITEMS + 1] != expected:
        raise SurveyError(
            f"{path}: header must start with respondent_id,q1..q{N_ITEMS}"
        )
    qids = []
    for name in header[N_ITEMS + 1:]:
        if not name.startswith("a_"):
            raise SurveyError(f"{path}: unexpected column {name!r}")
        qid = name[2:]
        catalog.question(qid)  # raises on unknown ids
        qids.append(qid)
    responses = []
    kept_answers: dict[str, list] = {qid: [] for qid in qids}
    rejected = []
    for lineno, row in enumerate(data_rows, start=2):
        if len(row) != len(header):
            raise SurveyError(f"{path} line {lineno}: expected {len(header)} cells")
        try:
            answers = tuple(int(v) for v in row[1:N_ITEMS + 1])
            indices = [int(v) for v in row[N_ITEMS + 1:]]
        except ValueError:
            raise SurveyError(f"{path} line {lineno}: non-integer cell") from None
        try:
            response = QuestionnaireResponse(respondent_id=row[0], answers=answers)
        except SurveyError as e:
            raise SurveyError(f"{path} line {lineno}: {e}") from None
        violation = check_consistency(response, catalog.duplicate_pairs)
        if violation is not None:
            rejected.append((response.respondent_id, violation[0], violation[1]))
            continue
        responses.append(response)
        for qid, idx in zip(qids, indices):
            kept_answers[qid].append(idx)
    survey = SurveyDataset(
        responses=tuple(responses),
        answers={qid: np.array(v, dtype=int) for qid, v in kept_answers.items()},
    )
    for qid in qids:
        question = catalog.question(qid)
        values = survey.answers[qid]
        if values.size and np.any(values >= len(question.answer_labels)):
            raise SurveyError(
                f"{path}: question {qid!r} has an answer index out of range"
            )
    return SurveyIngestResult(survey=survey, rejected=tuple(rejected))


def save_survey_csv(survey: SurveyDataset, path) -> None:
    qids = sorted(survey.answers)
    header = (
        ["respondent_id"]
        + [f"q{i}" for i in range(1, N_ITEMS + 1)]
        + [f"a_{qid}" for qid in qids]
    )
    lines = [",".join(header)]
    for i, response in enumerate(survey.responses):
        cells = [response.respondent_id]
        cells += [str(a) for a in response.answers]
        cells += [str(int(survey.answers[qid][i])) for qid in qids]
        lines.append(",".join(cells))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


# --- model bank persistence -----------------------------------------------------------

def _question_to_payload(question: CommonsenseQuestion) -> dict:
    return {
        "id": question.id,
        "text": question.text,
        "labels": list(question.answer_labels),
        "fusion_map": (
            None if question.fusion_map is None
            else {str(k): v for k, v in question.fusion_map.items()}
        ),
    }


def _is_fusion_map(v) -> bool:
    return v is None or (isinstance(v, dict) and all(
        k.isdecimal() and is_int(t) for k, t in v.items()))


# Every field load_catalog and load_bank read, per level of the file, with its
# JSON type; both parse questions with _question_from_payload.
_CATALOG_FIELDS = {
    "questionnaire_items": ("a list of strings", is_str_list),
    "duplicate_pairs": ("a list of [item, item] pairs", is_int_pairs),
    "questions": ("a list", lambda v: isinstance(v, list)),
}
_BANK_FIELDS = {"questions": ("an object", lambda v: isinstance(v, dict))}
_ENTRY_FIELDS = {
    "question": ("an object", lambda v: isinstance(v, dict)),
    "selected_items": (f"a list of item indices 0..{N_ITEMS - 1}",
                       lambda v: is_int_list(v) and (not v or 0 <= min(v) <= max(v) < N_ITEMS)),
    "used_fallback": ("true or false", lambda v: type(v) is bool),
    "model": ("an object", lambda v: isinstance(v, dict)),
}
_QUESTION_FIELDS = {
    "id": ("a string", lambda v: isinstance(v, str)),
    "text": ("a string", lambda v: isinstance(v, str)),
    "labels": ("a list of strings", is_str_list),
    "fusion_map": ("null or an object of integers keyed by digits", _is_fusion_map),
}


def _question_from_payload(payload: dict, where: str) -> CommonsenseQuestion:
    check_fields(payload, _QUESTION_FIELDS, where)
    fusion_map = payload["fusion_map"]
    try:
        return CommonsenseQuestion(
            id=payload["id"],
            text=payload["text"],
            answer_labels=tuple(payload["labels"]),
            fusion_map=(
                None if fusion_map is None else {int(k): v for k, v in fusion_map.items()}
            ),
        )
    except SurveyError as e:
        raise ModelFormatError(f"{where}: {e}") from None


def save_bank(result: TrainAllResult, path) -> None:
    """Persist each question's best model."""
    save_checked_json(path, {
        "format": BANK_FORMAT,
        "format_version": BANK_FORMAT_VERSION,
        "questions": {
            qid: {
                "question": _question_to_payload(qmodel.question),
                "selected_items": list(qmodel.selected_items),
                "used_fallback": qmodel.used_fallback,
                "model": model_to_payload(qmodel.model),
            }
            for qid, qmodel in result.models.items()
        },
    })


def load_bank(path) -> dict:
    """Each question's model, keyed by question id."""
    payload = load_checked_json(
        path, BANK_FORMAT, BANK_FORMAT_VERSION, "question bank", "cs-train"
    )
    check_fields(payload, _BANK_FIELDS, str(path))
    models = {}
    for qid, entry in payload["questions"].items():
        where = f"{path}:{qid}"
        check_fields(entry, _ENTRY_FIELDS, where)
        models[qid] = QuestionModel(
            question=_question_from_payload(entry["question"], f"{where}/question"),
            selected_items=tuple(entry["selected_items"]),
            used_fallback=entry["used_fallback"],
            model=model_from_payload(entry["model"], where=f"{where}/model"),
        )
    return models


def predict_with_bank(models: dict, response) -> dict:
    """Best-model answer for every question in the bank, given as load_bank
    returns it (or as TrainAllResult.models)."""
    return {qid: predict_answer(models[qid], response) for qid in sorted(models)}
