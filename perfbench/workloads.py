"""The three workloads: their inputs, their timed rounds and output checks.

Every workload is a closed loop with a single client.  A round runs the
user's batch command through `traitlex.cli.main`, then a series of single
requests, each sent only after the previous one returned.  Every operation
is checked against facts the benchmark knows by construction (which texts
the policy rejects, which words clear the frequency cut, which answers the
survey rules imply), so a fast wrong answer counts as a failure.

The thresholds below restate the program's documented defaults (the
ingest-default and pdf-stage policies, the 0.1..0.9 range in 8 bins, the
0.10 margin); the checks do not read them from the program.
"""

import csv
import json
import shutil
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import textgen
from session import Session
from tracing import LEARNERS, path_bytes
from traitlex import pdfmodel
from traitlex.corpus import TextSample, bundled_lexicon

INGEST_MIN_WORDS = 600  # ingest-default admits texts of more than 600 words
EVAL_MIN_WORDS = 1000  # pdf-stage scores texts of more than 1000 words
MARGIN = 0.10
CONFIDENCE_MAX = 10.0
# Quality floors: held-out marginal accuracy is about 0.75 and MAE about
# 0.065; with shuffled truths they fall to about 0.25 and 0.26.
ACCURACY_FLOOR = 0.5
MAE_CEILING = 0.12
RULE_FLOOR = 0.9  # CV accuracy and answer agreement on rule questions


class SetupError(RuntimeError):
    """A set-up command failed, so no round can run."""


@dataclass
class Round:
    items: int  # work items of the batch command: texts or learner fits
    batch: list | None  # Timings of the batch commands; None if one failed
    requests: list  # per request that passed its check, the Timings it took


def _setup_cli(*argv):
    code, out = Session().cli(*argv)
    if code != 0:
        raise SetupError(f"traitlex {argv[0]} exited {code}: {out.strip()}")


def _exit_problem(result):
    code, out = result
    if code != 0:
        return f"exit code {code}: {out.strip()[-300:]}"
    return None


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _rng(seed, stream):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _lengths(n, short, short_range):
    """n token counts, the same for every seed (make_texts shuffles them):
    n - short ordinary texts spread evenly over 1050..2000 tokens, and
    `short` texts spread evenly over short_range.  Only the words change
    with the seed, so a run's work does not depend on the lengths it drew."""
    return np.concatenate([
        np.linspace(1050, 2000, n - short), np.linspace(*short_range, short),
    ]).round().astype(np.int64)


class TraitBuild:
    """Write path: raw JSONL through `ingest`, then `pdf-build` on the store."""

    name = "trait-build"
    # What the shared end-to-end names mean on this workload.
    metric_names = {"throughput_per_s": "build_samples_per_s",
                    "latency_ms.p50": "build_round_ms.p50", "latency_ms.p90": "build_round_ms.p90"}

    def __init__(self, n_texts=400, min_word_freq=20):
        self.n_texts = n_texts
        self.min_word_freq = min_word_freq

    def setup(self, seed, work):
        gen = textgen.TextGenerator(seed, bundled_lexicon().words)
        # One text in 25 is too short for the ingest policy.
        lengths = _lengths(self.n_texts, max(1, self.n_texts // 25), (200, 550))
        texts = textgen.make_texts(gen, seed, 2, lengths)
        raw = work / "raw.jsonl"
        raw_bytes = textgen.write_jsonl(texts, raw)
        accepted = [t for t in texts if t.n_tokens > INGEST_MIN_WORDS]
        totals, g = Counter(), [0] * textgen.N_BINS
        for t in accepted:
            totals.update(t.adjectives)
            g[t.bin] += 1
        return SimpleNamespace(
            work=work, raw=raw, n_read=len(texts), n_accepted=len(accepted),
            rejected={t.id: "min_words" for t in texts if t.n_tokens <= INGEST_MIN_WORDS},
            words=tuple(sorted(w for w, c in totals.items() if c >= self.min_word_freq)),
            g=g,
            inputs={"texts": len(texts), "words": int(lengths.sum()), "raw_bytes": raw_bytes},
        )

    def round(self, state, session, index):
        store, model_dir = state.work / f"store{index}", state.work / f"model{index}"
        t_ingest, _ = session.run(
            "ingest",
            lambda: session.cli("ingest", "--input", state.raw, "--out", store),
            lambda r: self._check_ingest(r, state, store),
        )
        t_build, _ = session.run(
            "pdf-build",
            lambda: session.cli(
                "pdf-build", "--corpus", store, "--trait", "N", "--out", model_dir,
                "--min-word-freq", self.min_word_freq,
            ),
            lambda r: self._check_build(r, state, model_dir),
        )
        if "store_bytes" not in state.inputs and store.is_dir():
            state.inputs["store_bytes"] = path_bytes(store)
        shutil.rmtree(store, ignore_errors=True)
        shutil.rmtree(model_dir, ignore_errors=True)
        if t_ingest is None or t_build is None:
            return Round(state.n_accepted, None, [])
        return Round(state.n_accepted, [t_ingest, t_build], [[t_ingest, t_build]])

    @staticmethod
    def _check_ingest(result, state, store):
        problem = _exit_problem(result)
        if problem:
            return problem
        expected = (f"ingested {state.n_accepted} of {state.n_read} records "
                    f"({len(state.rejected)} rejected)")
        if not result[1].startswith(expected):
            return f"expected {expected!r}, got {result[1].strip()!r}"
        rejected = {r["sample_id"]: r["reason"] for r in _rows(store / "rejections.csv")}
        if rejected != state.rejected:
            return f"rejections differ: {sorted(set(rejected) ^ set(state.rejected))[:5]}"
        return None

    @staticmethod
    def _check_build(result, state, model_dir):
        problem = _exit_problem(result)
        if problem:
            return problem
        model = pdfmodel.load_model(model_dir / "model.json")
        if tuple(model.vocabulary) != state.words:
            return f"model keeps {len(model.vocabulary)} words, expected {len(state.words)}"
        if [int(v) for v in model.g] != state.g:
            return f"bin sample counts {list(model.g)} != expected {state.g}"
        return None


class TraitScore:
    """Read path: `pdf-eval` over a held-out store, then single raw texts."""

    name = "trait-score"
    metric_names = {"throughput_per_s": "score_texts_per_s",
                    "latency_ms.p50": "text_predict_ms.p50", "latency_ms.p90": "text_predict_ms.p90"}

    def __init__(self, n_train=800, n_eval=600, singles=200, min_word_freq=30):
        self.n_train = n_train
        self.n_eval = n_eval
        self.singles = singles
        self.min_word_freq = min_word_freq

    def setup(self, seed, work):
        lexicon = bundled_lexicon()
        gen = textgen.TextGenerator(seed, lexicon.words)
        train = textgen.make_texts(gen, seed, 2, _lengths(self.n_train, 0, (0, 0)))
        # One held-out text in 15 passes ingest but is too short to score.
        held = textgen.make_texts(
            gen, seed, 3, _lengths(self.n_eval, self.n_eval // 15, (650, 999))
        )
        raw_bytes = textgen.write_jsonl(train, work / "train.jsonl")
        raw_bytes += textgen.write_jsonl(held, work / "held.jsonl")
        _setup_cli("ingest", "--input", work / "train.jsonl", "--out", work / "train")
        _setup_cli("pdf-build", "--corpus", work / "train", "--trait", "N",
                   "--out", work / "model", "--min-word-freq", self.min_word_freq)
        _setup_cli("ingest", "--input", work / "held.jsonl", "--out", work / "held")
        model_path = work / "model" / "model.json"

        counts = {}
        for t in train:
            for word, c in t.adjectives.items():
                counts.setdefault(word, [0] * textgen.N_BINS)[t.bin] += c
        kept = {w: row for w, row in counts.items() if sum(row) >= self.min_word_freq}
        scored, skipped = {}, {}
        for t in held:
            used = [w for w in t.adjectives if w in kept]
            # alpha = 0: a bin gets zero mass when any word used has no count there
            if t.n_tokens <= EVAL_MIN_WORDS:
                skipped[t.id] = "min_words"
            elif used and all(any(kept[w][k] == 0 for w in used) for k in range(textgen.N_BINS)):
                skipped[t.id] = "degenerate"
            else:
                scored[t.id] = (t.score, sum(t.adjectives[w] for w in used))
        model = pdfmodel.load_model(model_path)
        if tuple(model.vocabulary) != tuple(sorted(kept)):
            raise SetupError(f"model keeps {len(model.vocabulary)} words, expected {len(kept)}")
        singles = [(t.id, t.text, scored[t.id][1]) for t in held if t.id in scored]
        return SimpleNamespace(
            work=work, model_path=model_path, held=work / "held", model=model, lexicon=lexicon,
            scored=scored, skipped=skipped, singles=singles[: self.singles], labels=None,
            inputs={
                "train_texts": len(train), "held_texts": len(held),
                "words": sum(t.n_tokens for t in train + held), "raw_bytes": raw_bytes,
                "store_bytes": path_bytes(work / "held"),
                "model_bytes": model_path.stat().st_size, "model_words": len(kept),
            },
        )

    def round(self, state, session, index):
        out = state.work / f"eval{index}"
        t_eval, _ = session.run(
            "pdf-eval",
            lambda: session.cli("pdf-eval", "--model", state.model_path,
                                "--corpus", state.held, "--out", out),
            lambda r: self._check_eval(r, state, out),
        )
        shutil.rmtree(out, ignore_errors=True)
        requests = []
        for sid, text, used in state.singles:
            timing, _ = session.run(
                "text-predict",
                lambda: pdfmodel.predict(state.model, TextSample.from_text(sid, text, state.lexicon)),
                lambda p: self._check_single(p, state, sid, used),
            )
            if timing is not None:
                requests.append([timing])
        return Round(len(state.scored), None if t_eval is None else [t_eval], requests)

    def _check_eval(self, result, state, out):
        problem = _exit_problem(result)
        if problem:
            return problem
        rows = _rows(out / "predictions.csv")
        if [r["sample_id"] for r in rows] != list(state.scored):
            return f"scored {len(rows)} texts, expected {len(state.scored)}"
        skipped = {r["sample_id"]: r["reason"] for r in _rows(out / "skipped.csv")}
        if skipped != state.skipped:
            return f"skipped {len(skipped)} texts, expected {len(state.skipped)}"
        labels = np.array([float(r["label"]) for r in rows])
        truth = np.array([state.scored[r["sample_id"]][0] for r in rows])
        if any(float(r["truth"]) != state.scored[r["sample_id"]][0] for r in rows):
            return "truth column does not match the held-out scores"
        if any(int(r["words_used"]) != state.scored[r["sample_id"]][1] for r in rows):
            return "words_used does not match the adjectives known to the model"
        accuracy = float((np.abs(labels - truth) <= MARGIN).mean())
        mae = float(np.abs(labels - truth).mean())
        if accuracy < ACCURACY_FLOOR or mae > MAE_CEILING:
            return f"quality below floor: marginal accuracy {accuracy:.3f}, mae {mae:.3f}"
        (report,) = _rows(out / "report.csv")
        if (int(report["n"]) != len(rows) or abs(float(report["mae"]) - mae) > 1e-9
                or abs(float(report["marginal_accuracy"]) - accuracy) > 1e-9):
            return f"report.csv {report} disagrees with predictions.csv"
        by_id = {r["sample_id"]: float(r["label"]) for r in rows}
        if state.labels is None:
            state.labels = by_id  # the first checked run is the reference
        elif by_id != state.labels:
            return "labels differ from the first run on the same inputs"
        return None

    @staticmethod
    def _check_single(prediction, state, sid, used):
        if state.labels is None or prediction.label != state.labels.get(sid):
            return f"label {prediction.label} differs from pdf-eval's for {sid}"
        if prediction.words_used != used:
            return f"used {prediction.words_used} adjective occurrences, expected {used}"
        if not 0.0 <= prediction.confidence <= CONFIDENCE_MAX:
            return f"confidence {prediction.confidence} outside [0, {CONFIDENCE_MAX}]"
        return None


# Survey questions: two follow rules over questionnaire items, one is noise.
# A rule is (conditions as (item, minimum Likert value), label if all hold,
# label otherwise).
QUESTIONS = (
    ("q_rule_a", 2, (((3, 3),), 1, 0)),
    ("q_rule_b", 3, (((7, 3), (12, 2)), 2, 0)),
    ("q_noise", 3, None),
)


def _rule_label(rule, answers):
    conditions, if_true, if_false = rule
    return if_true if all(answers[item - 1] >= low for item, low in conditions) else if_false


class SurveySweep:
    """`cs-train` over five classifiers, then one `cs-predict` per respondent."""

    name = "survey-sweep"
    metric_names = {"throughput_per_s": "sweep_fits_per_s", "latency_ms.p50": "answer_predict_ms.p50",
                    "latency_ms.p90": "answer_predict_ms.p90"}

    def __init__(self, n_respondents=150, k=5, trees=10, requests=40):
        self.n_respondents = n_respondents
        self.k = k
        self.trees = trees
        self.requests = requests

    @property
    def fits(self):
        """Learner fits in one cs-train: k folds plus the final fit, per pair."""
        return len(QUESTIONS) * len(LEARNERS) * (self.k + 1)

    def setup(self, seed, work):
        spec = {
            "format": "traitlex-generator-spec", "format_version": 1,
            "seed": seed, "n_samples": 0, "trait": "N", "words_per_sample": [1, 1],
            "binning": {"lo": 0.1, "hi": 0.9, "n_bins": 8}, "score_weights": [1] * 8,
            "vocab": {"words_per_bin": 2, "overlap_fraction": 0.5},
            "survey": {
                "n_respondents": self.n_respondents,
                "questions": [
                    {"id": qid, "n_labels": n, "rule": None if rule is None else {
                        "conditions": [list(c) for c in rule[0]],
                        "label_if_true": rule[1], "label_if_false": rule[2]}}
                    for qid, n, rule in QUESTIONS
                ],
            },
        }
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        _setup_cli("synth", "--spec", work / "spec.json", "--out", work / "survey")
        grid = _rng(seed, 7).integers(1, 6, size=(self.requests, 50))
        requests = []
        for j, answers in enumerate(grid.tolist()):
            path = work / f"answers{j:03d}.txt"
            path.write_text(" ".join(map(str, answers)) + "\n", encoding="utf-8")
            requests.append((path, {
                qid: f"option_{_rule_label(rule, answers)}"
                for qid, _, rule in QUESTIONS if rule is not None
            }))
        return SimpleNamespace(
            work=work, survey=work / "survey" / "survey.csv",
            catalog=work / "survey" / "catalog.json", requests=requests,
            labels={qid: {f"option_{j}" for j in range(n)} for qid, n, _ in QUESTIONS},
            inputs={
                "respondents": self.n_respondents, "questions": len(QUESTIONS),
                "survey_bytes": (work / "survey" / "survey.csv").stat().st_size,
            },
        )

    def round(self, state, session, index):
        bank_dir = state.work / f"bank{index}"
        t_train, _ = session.run(
            "cs-train",
            lambda: session.cli(
                "cs-train", "--survey", state.survey, "--catalog", state.catalog,
                "--algorithms", ",".join(LEARNERS), "--k", self.k, "--trees", self.trees,
                # Keep every item: which items pass a nonzero screen by chance
                # varies by seed, and the bank's size (cs-predict's load time)
                # with it.
                "--min-abs-r", 0, "--out", bank_dir,
            ),
            lambda r: self._check_train(r, state, bank_dir),
        )
        if "bank_bytes" not in state.inputs and (bank_dir / "bank.json").is_file():
            state.inputs["bank_bytes"] = (bank_dir / "bank.json").stat().st_size
        requests, agree, asked = [], 0, 0
        for path, expected in state.requests:
            timing, result = session.run(
                "cs-predict",
                lambda: session.cli("cs-predict", "--bank", bank_dir / "bank.json",
                                    "--answers-file", path),
                lambda r: self._check_predict(r, state),
            )
            if timing is None:
                continue
            requests.append([timing])
            answers = dict(line.split(",", 1) for line in result[1].splitlines())
            agree += sum(answers[qid] == label for qid, label in expected.items())
            asked += len(expected)
        if asked and agree / asked < RULE_FLOOR:
            session.fail("cs-predict", f"rule answers matched {agree} of {asked}",
                         count=len(requests))
        shutil.rmtree(bank_dir, ignore_errors=True)
        return Round(self.fits, None if t_train is None else [t_train], requests)

    def _check_train(self, result, state, bank_dir):
        problem = _exit_problem(result)
        if problem:
            return problem
        if f"on {self.n_respondents} respondents (0 rejected, 0 failures)" not in result[1]:
            return f"unexpected summary {result[1].strip()!r}"
        rows = _rows(bank_dir / "report.csv")
        pairs = sorted((r["qid"], r["algorithm"]) for r in rows)
        if pairs != sorted((qid, a) for qid, _, _ in QUESTIONS for a in LEARNERS):
            return f"report has {len(rows)} (question, algorithm) rows, expected all pairs"
        if _rows(bank_dir / "failures.csv") or _rows(bank_dir / "rejected.csv"):
            return "failures.csv or rejected.csv is not empty"
        for qid, _, rule in QUESTIONS:
            best = max(float(r["cv_accuracy_postfusion"]) for r in rows if r["qid"] == qid)
            if rule is not None and best < RULE_FLOOR:
                return f"{qid}: best CV accuracy {best:.3f} below {RULE_FLOOR}"
            if rule is None and best >= RULE_FLOOR:
                return f"{qid}: noise question reached CV accuracy {best:.3f}"
        return None

    @staticmethod
    def _check_predict(result, state):
        problem = _exit_problem(result)
        if problem:
            return problem
        lines = result[1].splitlines()
        answers = dict(line.split(",", 1) for line in lines if "," in line)
        if len(lines) != len(state.labels) or set(answers) != set(state.labels):
            return f"answered {sorted(answers)}, expected {sorted(state.labels)}"
        for qid, label in answers.items():
            if label not in state.labels[qid]:
                return f"{qid}: unknown answer {label!r}"
        return None


WORKLOADS = {w.name: w for w in (TraitBuild, TraitScore, SurveySweep)}
