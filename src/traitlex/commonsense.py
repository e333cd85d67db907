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

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from ._util import (
    atomic_write_text,
    check_fields,
    csv_text,
    fmt_float,
    is_int,
    is_int_pairs,
    is_str_list,
    load_checked_json,
    load_json,
    read_csv,
    save_checked_json,
    save_json,
)
from .errors import ModelFormatError, SurveyError, TrainingError
# cross_validate is not called here: perfbench's tracer wraps it under this name
from .evaluation import CrossValidation, cross_validate, cross_validate_all
from .mlcore import (
    Dataset,
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
BANK_FORMAT_VERSION = 7


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


def _answer_matrix(ids: tuple, items):
    """`items`, one row per id, as an int64 matrix, and (row, message) for the
    first respondent, in row order, with an empty id, other than N_ITEMS
    answers or an answer that is not an integer from LIKERT_MIN to
    LIKERT_MAX (None when every row is valid)."""
    cells = np.asarray(items)
    if cells.ndim != 2 or len(cells) != len(ids):
        raise SurveyError("answers must be one row per respondent id")
    if cells.dtype.kind in "iu":
        bad = (cells < LIKERT_MIN) | (cells > LIKERT_MAX)
    else:  # a cell is no integer: test each value as given
        bad = np.array([[not (isinstance(v, (int, np.integer)) and LIKERT_MIN <= v <= LIKERT_MAX)
                         for v in row] for row in items], dtype=bool).reshape(cells.shape)
    empty, width = ~np.array(ids, dtype=bool), cells.shape[1]
    rows = np.flatnonzero(empty | (width != N_ITEMS) | bad.any(axis=1))
    if rows.size == 0:
        return cells.astype(np.int64), None
    r = int(rows[0])
    if empty[r]:
        return cells, (r, "respondent id must be non-empty")
    if width != N_ITEMS:
        return cells, (r, f"respondent {ids[r]!r}: expected {N_ITEMS} answers, got {width}")
    i = int(np.argmax(bad[r]))
    value = int(cells[r, i]) if cells.dtype.kind in "iu" else items[r][i]
    return cells, (r, f"respondent {ids[r]!r}, item {i + 1}: invalid Likert value {value!r}")


@dataclass(frozen=True)
class SurveyDataset:
    """Questionnaire answers, one row per respondent, plus per-question answer
    index vectors."""

    respondent_ids: tuple
    items: np.ndarray  # read-only (n, N_ITEMS) integers, LIKERT_MIN..LIKERT_MAX
    answers: dict  # question id -> read-only int64 vector of label indices

    def __post_init__(self):
        ids = tuple(self.respondent_ids)
        items, bad = _answer_matrix(ids, self.items)
        if bad is not None:
            raise SurveyError(bad[1])
        if len(set(ids)) != len(ids):
            raise SurveyError("duplicate respondent ids")
        answers = {}
        for qid, values in self.answers.items():
            values = np.asarray(values)
            if values.shape != (len(ids),):
                raise SurveyError(
                    f"question {qid!r}: answer vector length does not match respondents"
                )
            if values.size and values.dtype.kind not in "iu":
                raise SurveyError(f"question {qid!r}: answer indices must be integers")
            answers[qid] = values = values.astype(np.int64)
            if np.any(values < 0):
                raise SurveyError(f"question {qid!r}: negative answer index")
            values.flags.writeable = False
        items.flags.writeable = False
        object.__setattr__(self, "respondent_ids", ids)
        object.__setattr__(self, "items", items)
        object.__setattr__(self, "answers", answers)

    @property
    def n(self) -> int:
        return len(self.respondent_ids)

    def item_matrix(self) -> np.ndarray:
        return self.items.astype(float)


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
        path = resources.files(__package__).joinpath("data/question_catalog.json")
    payload = load_json(path, CATALOG_FORMAT, CATALOG_FORMAT_VERSION, "question catalog",
                        "synth")
    where = str(path)
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


def save_catalog(catalog: Catalog, path) -> None:
    """Write a question catalog in the form load_catalog reads."""
    save_json(path, {
        "format": CATALOG_FORMAT,
        "format_version": CATALOG_FORMAT_VERSION,
        "questionnaire_items": list(catalog.questionnaire_items),
        "duplicate_pairs": [list(pair) for pair in catalog.duplicate_pairs],
        "questions": [_question_to_payload(q) for q in catalog.questions],
    })


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

def _check_min_abs_r(min_abs_r) -> None:
    """Refuse a threshold no |r| can meet or every column meets: NaN and inf
    keep no column, -inf and negatives every one, above 1 none."""
    if not np.isfinite(min_abs_r):
        raise SurveyError(f"min_abs_r must be a finite number, got {min_abs_r!r}")
    if not 0 <= min_abs_r <= 1:
        raise SurveyError(f"min_abs_r must lie in [0, 1], got {min_abs_r!r}")


def correlation_filter(X, y, min_abs_r: float = DEFAULT_MIN_ABS_R) -> np.ndarray:
    """Indices of columns whose |Pearson r| with y meets the threshold.

    Constant columns have no defined correlation and are dropped.  The
    result may be empty; callers decide what to fall back to.
    """
    _check_min_abs_r(min_abs_r)
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
    used_fallback: bool  # correlation filter matched nothing, kept all items
    model: object  # TrainedModel whose features are items named q1..q50

    @property
    def selected_items(self) -> tuple:
        """0-based questionnaire item indices, in the model's feature order."""
        return tuple(int(name[1:]) - 1 for name in self.model.feature_names)


def _question_dataset(X, labels, min_abs_r):
    selected = correlation_filter(X, labels, min_abs_r)
    used_fallback = selected.size == 0
    if used_fallback:
        selected = np.arange(N_ITEMS)
    names = tuple(f"q{j + 1}" for j in selected)
    return Dataset(feature_names=names, X=X[:, selected], y_class=labels), used_fallback


def _prepare(X, survey, question, min_abs_r):
    """The question's screened datasets, as _question_dataset pairs: for the
    raw labels, then for the fused ones if it has a fusion map.  They stop at
    the first label set that fails, whose TrainingError or SurveyError comes
    second (else None)."""
    datasets = []
    try:
        if question.id not in survey.answers:
            raise SurveyError(f"survey has no answers for question {question.id!r}")
        raw = survey.answers[question.id]
        if np.any(raw >= len(question.answer_labels)):
            bad = int(raw[raw >= len(question.answer_labels)][0])
            raise SurveyError(f"question {question.id!r}: answer index {bad} out of range")
        if np.unique(raw).size < 2:
            raise TrainingError(f"question {question.id!r}: answers contain a single class")
        datasets.append(_question_dataset(X, raw, min_abs_r))
        if question.fusion_map is not None:
            fused = fuse_labels(raw, question.fusion_map)
            if np.unique(fused).size < 2:
                raise TrainingError(f"question {question.id!r}: fusion left a single class")
            datasets.append(_question_dataset(X, fused, min_abs_r))
    except (TrainingError, SurveyError) as e:
        return datasets, e
    return datasets, None


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
    ones; questions without a fusion map score identically on both.  Each
    label set is screened once and its dataset serves every config.  The
    best algorithm has the highest post-fusion accuracy, the earliest config
    winning ties.  A failure on one pair (single answer class, for instance)
    is recorded and the sweep continues.  The winner's fit on all rows is not
    caught: the tree learners' 64-bit sort-key limit (trees grown at once *
    mtry < 2 ** (63 - 2 * bits)) counts the bits of the whole dataset's rows
    in a fold fit as in that one, and a fold fitted alone grows as many trees
    at once, so a fit that passed in every fold passes here.  A regressor,
    which no question can train, and a threshold that is not finite are
    refused first.

    All the sweep's fold fits go to one `evaluation.cross_validate_all` call,
    which fits each pair's folds in batches on the CPUs of the process's
    affinity mask; the results are byte-identical to fitting the folds one
    after another, and no flag or setting changes how many CPUs are used.
    The winners are fit here, in this process, one question after another.
    """
    for config in configs:
        if config.kind != "classifier":
            raise TrainingError(f"{config.algorithm} is a regressor; answers need a classifier")
    _check_min_abs_r(min_abs_r)  # _prepare would record it as every question's failure
    X = survey.item_matrix()
    prepared = [(question, *_prepare(X, survey, question, min_abs_r)) for question in questions]
    outcomes = iter(cross_validate_all(
        [(config, ds) for _, datasets, _ in prepared for config in configs
         for ds, _ in datasets], k=k, seed=seed))
    rows = []
    failures = []
    models = {}
    for question, datasets, error in prepared:
        best = None  # (post-fusion accuracy, config)
        for config in configs:
            cvs = [next(outcomes) for _ in datasets]
            # a failed raw-label CV is reported before a failed fusion
            failure = next((cv for cv in cvs if not isinstance(cv, CrossValidation)), error)
            if failure is not None:
                failures.append((question.id, config.algorithm, str(failure)))
                continue
            scores = [cv.mean_accuracy for cv in cvs]
            rows.append(TrainAllRow(question.id, config.algorithm, scores[0], scores[-1]))
            if best is None or scores[-1] > best[0]:
                best = (scores[-1], config)
        if best is not None:
            ds, used_fallback = datasets[-1]
            models[question.id] = QuestionModel(question, used_fallback, ml_train(best[1], ds))
    return TrainAllResult(rows=tuple(rows), failures=tuple(failures), models=models)


def report_to_csv(result: TrainAllResult) -> str:
    return csv_text([["qid", "algorithm", "cv_accuracy_prefusion", "cv_accuracy_postfusion"]]
                    + [[row.qid, row.algorithm, fmt_float(row.cv_accuracy_prefusion),
                        fmt_float(row.cv_accuracy_postfusion)] for row in result.rows])


# --- survey files -------------------------------------------------------------------

@dataclass(frozen=True)
class SurveyIngestResult:
    survey: SurveyDataset
    rejected: tuple  # of (respondent_id, item_a, item_b)


def check_consistency(items, duplicate_pairs) -> np.ndarray:
    """Each row's first violated duplicate pair, as an index into
    duplicate_pairs, or -1 where the row's answers are consistent."""
    items = np.asarray(items, dtype=np.int64)
    first = np.full(len(items), -1)
    # the last pair first, so an earlier violated pair overwrites a later one
    for p, (a, b) in reversed(list(enumerate(duplicate_pairs))):
        first[np.abs(items[:, a - 1] - items[:, b - 1]) > 1] = p
    return first


def load_survey_csv(path, catalog: Catalog) -> SurveyIngestResult:
    """Read respondent rows, dropping those that fail the consistency check.

    Expected header: respondent_id, q1..q50, then one a_<qid> column per
    catalog question that the survey covers.
    """
    path = Path(path)
    header, rows = read_csv(path, "survey", SurveyError)
    expected = ["respondent_id"] + [f"q{i}" for i in range(1, N_ITEMS + 1)]
    if header[: N_ITEMS + 1] != expected:
        raise SurveyError(
            f"{path}: header must start with respondent_id,q1..q{N_ITEMS}"
        )
    qids, n_labels = [], []
    for name in header[N_ITEMS + 1:]:
        if not name.startswith("a_"):
            raise SurveyError(f"{path}: unexpected column {name!r}")
        try:
            n_labels.append(len(catalog.question(name[2:]).answer_labels))
        except SurveyError as e:  # a question the catalog lacks
            raise SurveyError(f"{path}: column {name!r}: {e}") from None
        qids.append(name[2:])
    ids, items, labels = [], [], []
    fault = None  # (row, message) of the first row that cannot be parsed
    for r, (_, row) in enumerate(rows):
        if len(row) != len(header):
            fault = (r, f"expected {len(header)} cells")
            break
        try:
            answers = [int(v) for v in row[1:N_ITEMS + 1]]
            indices = [int(v) for v in row[N_ITEMS + 1:]]
        except ValueError:
            fault = (r, "non-integer cell")
            break
        ids.append(row[0])
        items.append(answers)
        # checked after the row's Likert answers, which _answer_matrix reports first
        j = next((j for j, v in enumerate(indices) if not 0 <= v < n_labels[j]), None)
        if j is not None:
            fault = (r, f"question {qids[j]!r}: answer index {indices[j]} is not "
                        f"from 0 to {n_labels[j] - 1}")
            break
        labels.append(indices)
    # the rows before a parse fault are checked first, keeping row order
    items, bad = _answer_matrix(ids, items or np.empty((0, N_ITEMS), dtype=int))
    bad = bad or fault
    if bad is not None:
        raise SurveyError(f"{path} line {rows[bad[0]][0]}: {bad[1]}")
    violated = check_consistency(items, catalog.duplicate_pairs)
    rejected = tuple((ids[r], *catalog.duplicate_pairs[violated[r]])
                     for r in np.flatnonzero(violated >= 0))
    keep = violated < 0
    labels = np.array(labels, dtype=int).reshape(len(ids), len(qids))[keep]
    try:
        survey = SurveyDataset(
            respondent_ids=tuple(rid for rid, kept in zip(ids, keep) if kept),
            items=items[keep],
            answers={qid: labels[:, j] for j, qid in enumerate(qids)},
        )
    except SurveyError as e:  # a repeated respondent id
        raise SurveyError(f"{path}: {e}") from None
    return SurveyIngestResult(survey=survey, rejected=rejected)


def save_survey_csv(survey: SurveyDataset, path) -> None:
    qids = sorted(survey.answers)
    header = (
        ["respondent_id"]
        + [f"q{i}" for i in range(1, N_ITEMS + 1)]
        + [f"a_{qid}" for qid in qids]
    )
    cells = np.column_stack([survey.items] + [survey.answers[qid] for qid in qids])
    atomic_write_text(Path(path), csv_text([header] + [
        [rid, *map(str, row)] for rid, row in zip(survey.respondent_ids, cells.tolist())]))


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
_BANK_FIELDS = {"questions": _CATALOG_FIELDS["questions"]}
_ENTRY_FIELDS = {
    "question": ("an object", lambda v: isinstance(v, dict)),
    "used_fallback": ("true or false", lambda v: type(v) is bool),
    "model": ("an object", lambda v: isinstance(v, dict)),
}
_QUESTION_FIELDS = {
    "id": ("a string", lambda v: isinstance(v, str)),
    "text": ("a string", lambda v: isinstance(v, str)),
    "labels": ("a list of strings", is_str_list),
    "fusion_map": ("null or an object of integers keyed by digits", _is_fusion_map),
}
# A bank model's features are questionnaire items, whose names give their columns.
_ITEM_NAMES = frozenset(f"q{i}" for i in range(1, N_ITEMS + 1))
_BANK_MODEL_FIELDS = {"feature_names": (f"a list of item names q1..q{N_ITEMS}",
                                        lambda v: is_str_list(v) and _ITEM_NAMES.issuperset(v))}


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
        "questions": [
            {
                "question": _question_to_payload(qmodel.question),
                "used_fallback": qmodel.used_fallback,
                "model": model_to_payload(qmodel.model),
            }
            for qmodel in result.models.values()
        ],
    })


def load_bank(path) -> dict:
    """Each question's model, keyed by its question's id."""
    payload = load_checked_json(
        path, BANK_FORMAT, BANK_FORMAT_VERSION, "question bank", "cs-train"
    )
    check_fields(payload, _BANK_FIELDS, str(path))
    models = {}
    for i, entry in enumerate(payload["questions"]):
        where = f"{path}:questions[{i}]"
        check_fields(entry, _ENTRY_FIELDS, where)
        check_fields(entry["model"], _BANK_MODEL_FIELDS, f"{where}/model")
        question = _question_from_payload(entry["question"], f"{where}/question")
        if question.id in models:
            raise ModelFormatError(f"{where}/question: repeated question id {question.id!r}")
        models[question.id] = QuestionModel(
            question=question,
            used_fallback=entry["used_fallback"],
            model=model_from_payload(entry["model"], where=f"{where}/model"),
        )
    return models


def predict_with_bank(models: dict, answers) -> dict:
    """Best-model answer for every question in the bank, given as load_bank
    returns it (or as TrainAllResult.models), for one sequence of N_ITEMS
    Likert answers."""
    x = SurveyDataset(("anonymous",), [answers], {}).item_matrix()[0]
    labels = {}
    for qid in sorted(models):
        qmodel = models[qid]
        output = ml_predict(qmodel.model, x[list(qmodel.selected_items)])
        labels[qid] = qmodel.question.label_for(int(output))
    return labels
