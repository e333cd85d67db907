"""Seeded synthetic corpora and surveys with known ground truth.

The corpus generator draws, for each sample, a score bin (by weight), a
score uniform within that bin, a length uniform within the configured
range, and that many words i.i.d. from the bin's vocabulary table.  The
survey generator draws Likert answers uniformly and derives multiple
choice answers either uniformly or from threshold rules, which makes the
right answer a pure function of the questionnaire.

All randomness comes from numpy's PCG64 generator.  Corpus, survey, and
vocabulary synthesis use separate streams keyed off the spec seed, so
adding a survey does not disturb the corpus bytes.  The generator name
and seed are recorded in the output manifest.
"""

import string
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._util import check_fields, is_int, is_int_list, is_int_pairs, is_number, load_json, save_json
from .binning import DEFAULT_BINNING, BinningScheme
from .commonsense import (
    LIKERT_MAX,
    LIKERT_MIN,
    N_ITEMS,
    CommonsenseQuestion,
    SurveyDataset,
)
from .corpus import CorpusStore, TextSample, tokenize
from .errors import DatasetError, ModelFormatError, SurveyError

GENERATOR_NAME = "numpy-PCG64"
SPEC_FORMAT = "traitlex-generator-spec"
SPEC_FORMAT_VERSION = 1

# Stream keys appended to the seed; one independent stream per concern.
_STREAM_CORPUS, _STREAM_SURVEY, _STREAM_VOCAB = 0, 1, 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


@dataclass(frozen=True)
class SurveyRule:
    """Answer is label_if_true when every (item, minimum) condition holds."""

    conditions: tuple  # of (item 1-based, minimum Likert value)
    label_if_true: int = 1
    label_if_false: int = 0

    def __post_init__(self):
        if not self.conditions:
            raise SurveyError("rule needs at least one condition")
        for item, minimum in self.conditions:
            if not 1 <= item <= N_ITEMS:
                raise SurveyError(f"rule condition on invalid item {item}")
            if not LIKERT_MIN <= minimum <= LIKERT_MAX:
                raise SurveyError(f"rule condition with invalid minimum {minimum}")

    def evaluate(self, items) -> np.ndarray:
        """Each row's label, for an (n, N_ITEMS) matrix of Likert answers."""
        ok = np.all([items[:, item - 1] >= minimum for item, minimum in self.conditions], axis=0)
        return np.where(ok, self.label_if_true, self.label_if_false)

    @property
    def items(self) -> tuple:
        return tuple(item for item, _ in self.conditions)


@dataclass(frozen=True)
class SurveyQuestionSpec:
    id: str
    n_labels: int
    rule: SurveyRule | None = None

    def __post_init__(self):
        if self.n_labels < 2:
            raise SurveyError(f"question {self.id!r}: needs at least 2 labels")
        if self.rule is not None:
            for label in (self.rule.label_if_true, self.rule.label_if_false):
                if not 0 <= label < self.n_labels:
                    raise SurveyError(f"question {self.id!r}: rule label out of range")


@dataclass(frozen=True)
class SurveySpec:
    n_respondents: int
    questions: tuple

    def __post_init__(self):
        if self.n_respondents < 1:
            raise SurveyError("survey needs at least one respondent")
        ids = [q.id for q in self.questions]
        if len(set(ids)) != len(ids):
            raise SurveyError("duplicate question ids in survey spec")


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int
    n_samples: int
    words_per_sample: tuple  # inclusive (low, high)
    vocab: tuple  # one {word: probability} table per bin
    trait: str = "N"
    binning: BinningScheme = DEFAULT_BINNING
    score_weights: tuple = ()
    survey: SurveySpec | None = None

    def __post_init__(self):
        if self.n_samples < 0:
            raise DatasetError("n_samples must be non-negative")
        low, high = self.words_per_sample
        if not (1 <= low <= high):
            raise DatasetError(f"invalid words_per_sample range ({low}, {high})")
        if not self.score_weights:
            object.__setattr__(
                self, "score_weights", tuple(1.0 for _ in range(self.binning.n_bins))
            )
        if len(self.score_weights) != self.binning.n_bins:
            raise DatasetError("score_weights length must equal the bin count")
        if any(w < 0 for w in self.score_weights) or sum(self.score_weights) <= 0:
            raise DatasetError("score_weights must be non-negative with positive sum")
        if len(self.vocab) != self.binning.n_bins:
            raise DatasetError("vocab needs one table per bin")
        normalized = []
        for k, table in enumerate(self.vocab):
            if not table:
                raise DatasetError(f"bin {k}: empty vocabulary table")
            total = float(sum(table.values()))
            if total <= 0 or any(p <= 0 for p in table.values()):
                raise DatasetError(f"bin {k}: word probabilities must be positive")
            for word in table:
                if tokenize(word) != [word]:
                    raise DatasetError(f"bin {k}: word {word!r} is not a clean token")
            normalized.append({w: p / total for w, p in table.items()})
        object.__setattr__(self, "vocab", tuple(normalized))


def make_bin_vocab(
    n_bins: int,
    words_per_bin: int,
    overlap_fraction: float,
    seed: int,
    word_length: int = 7,
) -> tuple:
    """Uniform per-bin tables sharing round(overlap * size) common words.

    The shared pool appears in every bin; the remainder of each table is
    unique to its bin.  All words are random lowercase letter strings.
    """
    if words_per_bin < 1:
        raise DatasetError("words_per_bin must be positive")
    if not 0.0 <= overlap_fraction <= 1.0:
        raise DatasetError("overlap_fraction must lie in [0, 1]")
    n_shared = round(overlap_fraction * words_per_bin)
    n_unique = words_per_bin - n_shared
    needed = n_shared + n_bins * n_unique
    rng = _rng(seed, _STREAM_VOCAB)
    letters = np.array(list(string.ascii_lowercase))
    words: list[str] = []
    seen = set()
    while len(words) < needed:
        candidate = "".join(rng.choice(letters, size=word_length))
        if candidate not in seen:
            seen.add(candidate)
            words.append(candidate)
    shared = words[:n_shared]
    tables = []
    p = 1.0 / words_per_bin
    for k in range(n_bins):
        unique = words[n_shared + k * n_unique: n_shared + (k + 1) * n_unique]
        tables.append({w: p for w in shared + unique})
    return tuple(tables)


def generate_corpus(spec: GeneratorSpec) -> CorpusStore:
    """Deterministic corpus whose per-sample bin and score are known."""
    rng = _rng(spec.seed, _STREAM_CORPUS)
    weights = np.array(spec.score_weights, dtype=float)
    weights /= weights.sum()
    width = spec.binning.width
    # sort so draws depend on table content, not dict insertion order
    tables = [
        (sorted(table), np.array([table[w] for w in sorted(table)], dtype=float))
        for table in spec.vocab
    ]
    low, high = spec.words_per_sample
    samples = []
    for i in range(spec.n_samples):
        k = int(rng.choice(spec.binning.n_bins, p=weights))
        # cap the uniform draw so the score cannot round up into the next bin
        u = min(float(rng.random()), 1.0 - 1e-6)
        score = spec.binning.lo + (k + u) * width
        length = int(rng.integers(low, high + 1))
        words, probs = tables[k]
        drawn = rng.choice(len(words), size=length, p=probs)
        samples.append(
            TextSample(
                id=f"s{i:05d}",
                lang="en",
                word_count=length,
                adj_freqs=dict(Counter(words[j] for j in drawn)),
                scores={spec.trait: score},
            )
        )
    return CorpusStore.from_samples(
        samples, "synthetic", f"pcg64-{spec.seed}",
        extra={"generator": GENERATOR_NAME, "seed": spec.seed},
    )


def generate_survey(spec: GeneratorSpec):
    """Survey dataset plus matching question definitions.

    Returns (SurveyDataset, list of CommonsenseQuestion).  Questionnaire
    answers are uniform on 1..5; each ruleless question's answers are
    uniform over its labels, while rule-bound answers follow the rule
    exactly.
    """
    if spec.survey is None:
        raise SurveyError("generator spec has no survey section")
    survey_spec = spec.survey
    rng = _rng(spec.seed, _STREAM_SURVEY)
    grid = rng.integers(
        LIKERT_MIN, LIKERT_MAX + 1, size=(survey_spec.n_respondents, N_ITEMS)
    )
    answers = {}
    for question in survey_spec.questions:
        if question.rule is None:
            answers[question.id] = rng.integers(
                0, question.n_labels, size=survey_spec.n_respondents
            ).astype(int)
        else:
            answers[question.id] = question.rule.evaluate(grid)
    questions = [
        CommonsenseQuestion(
            id=q.id,
            text=f"synthetic question {q.id}",
            answer_labels=tuple(f"option_{j}" for j in range(q.n_labels)),
            fusion_map=None,
        )
        for q in survey_spec.questions
    ]
    ids = tuple(f"r{i:04d}" for i in range(survey_spec.n_respondents))
    return SurveyDataset(respondent_ids=ids, items=grid, answers=answers), questions


# --- spec files -----------------------------------------------------------------

def _spec_to_payload(spec: GeneratorSpec) -> dict:
    payload = {
        "format": SPEC_FORMAT,
        "format_version": SPEC_FORMAT_VERSION,
        "seed": spec.seed,
        "n_samples": spec.n_samples,
        "trait": spec.trait,
        "words_per_sample": list(spec.words_per_sample),
        "binning": spec.binning.to_dict(),
        "score_weights": list(spec.score_weights),
        "vocab": {"tables": [dict(t) for t in spec.vocab]},
        "survey": None,
    }
    if spec.survey is not None:
        payload["survey"] = {
            "n_respondents": spec.survey.n_respondents,
            "questions": [
                {
                    "id": q.id,
                    "n_labels": q.n_labels,
                    "rule": None if q.rule is None else {
                        "conditions": [list(c) for c in q.rule.conditions],
                        "label_if_true": q.rule.label_if_true,
                        "label_if_false": q.rule.label_if_false,
                    },
                }
                for q in spec.survey.questions
            ],
        }
    return payload


def save_generator_spec(spec: GeneratorSpec, path) -> None:
    save_json(path, _spec_to_payload(spec))


def _is_dict(v) -> bool:
    return isinstance(v, dict)


def _is_numbers(v) -> bool:
    return isinstance(v, list) and all(map(is_number, v))


# Every field load_generator_spec reads, per level of the file, with its JSON
# type and, for "trait", "survey", "rule" and the rule labels, which may be
# left out, the default.
_SPEC_FIELDS = {
    "seed": ("an integer", is_int),
    "n_samples": ("an integer", is_int),
    "words_per_sample": ("a [low, high] pair of integers",
                         lambda v: is_int_list(v) and len(v) == 2),
    "score_weights": ("a list of numbers", _is_numbers),
    "trait": ("a string", lambda v: isinstance(v, str), "N"),
    "vocab": ("an object", _is_dict),
    "survey": ("null or an object", lambda v: v is None or _is_dict(v), None),
}
_TABLE_FIELDS = {
    "tables": ("a list of objects of numbers", lambda v: isinstance(v, list) and all(
        _is_dict(t) and _is_numbers(list(t.values())) for t in v)),
}
_AUTO_VOCAB_FIELDS = {
    "words_per_bin": ("an integer", is_int),
    "overlap_fraction": ("a number", is_number),
}
_SURVEY_FIELDS = {
    "n_respondents": ("an integer", is_int),
    "questions": ("a list of objects", lambda v: isinstance(v, list) and all(map(_is_dict, v))),
}
_QUESTION_FIELDS = {
    "id": ("a string", lambda v: isinstance(v, str)),
    "n_labels": ("an integer", is_int),
    "rule": ("null or an object", lambda v: v is None or _is_dict(v), None),
}
_RULE_FIELDS = {
    "conditions": ("a list of [item, minimum] pairs", is_int_pairs),
    "label_if_true": ("an integer", is_int, 1),
    "label_if_false": ("an integer", is_int, 0),
}


def _survey_spec(s, where) -> SurveySpec:
    check_fields(s, _SURVEY_FIELDS, where, also=())
    questions = []
    for i, q in enumerate(s["questions"]):
        check_fields(q, _QUESTION_FIELDS, f"{where}.questions[{i}]", also=())
        rule = q["rule"]
        if rule is not None:
            check_fields(rule, _RULE_FIELDS, f"{where}.questions[{i}].rule", also=())
            rule = SurveyRule(conditions=tuple(map(tuple, rule["conditions"])),
                              label_if_true=rule["label_if_true"],
                              label_if_false=rule["label_if_false"])
        questions.append(SurveyQuestionSpec(id=q["id"], n_labels=q["n_labels"], rule=rule))
    return SurveySpec(n_respondents=s["n_respondents"], questions=tuple(questions))


def load_generator_spec(path) -> GeneratorSpec:
    """Read a spec file; "vocab" may give explicit tables or auto parameters.

    The auto form {"words_per_bin": W, "overlap_fraction": F} synthesizes
    tables from the spec seed via make_bin_vocab.
    """
    payload = load_json(path, SPEC_FORMAT, SPEC_FORMAT_VERSION, "generator spec")
    try:
        binning = BinningScheme.from_dict(payload.get("binning"))
    except DatasetError as e:
        raise ModelFormatError(f"{path}: field 'binning' is invalid ({e})") from None
    check_fields(payload, _SPEC_FIELDS, str(path), also=("binning",))
    vocab = payload["vocab"]
    try:  # the dataclasses check the values; their errors gain the file name
        if "tables" in vocab:  # then an auto key is refused as unknown
            check_fields(vocab, _TABLE_FIELDS, f"{path}:vocab", also=())
            tables = tuple({w: float(p) for w, p in t.items()} for t in vocab["tables"])
        else:
            check_fields(vocab, _AUTO_VOCAB_FIELDS, f"{path}:vocab", also=())
            tables = make_bin_vocab(
                n_bins=binning.n_bins,
                words_per_bin=vocab["words_per_bin"],
                overlap_fraction=float(vocab["overlap_fraction"]),
                seed=payload["seed"],
            )
        return GeneratorSpec(
            seed=payload["seed"],
            n_samples=payload["n_samples"],
            words_per_sample=tuple(payload["words_per_sample"]),
            vocab=tables,
            trait=payload["trait"],
            binning=binning,
            score_weights=tuple(float(w) for w in payload["score_weights"]),
            survey=(None if payload["survey"] is None
                    else _survey_spec(payload["survey"], f"{path}:survey")),
        )
    except (DatasetError, SurveyError) as e:
        raise type(e)(f"{path}: {e}") from None
