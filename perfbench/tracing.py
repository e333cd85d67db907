"""Spans and counters at the layer boundaries of traitlex.

The tracer wraps public functions under the module attribute that their
caller looks up, so that the program's own files stay untouched: the CLI
finds `cli.load_store`, the evaluation loop finds `evaluation.pdf_predict`,
and so on.  Each wrapped call records one span (name, start, end, parent,
workload op id) in memory; a few boundaries also add counters, such as
tokens produced or bytes written.  A layer's self time is the length of
its spans minus the part covered by their child spans.

`install` refuses to run when a boundary has disappeared from the program,
so a renamed function cannot silently drop out of the per-layer figures.
"""

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LEARNERS = ("random_forest_clf", "decision_tree", "knn", "mlp", "linear_svm")
CLI_COMMANDS = ("ingest", "pdf-build", "pdf-eval", "cs-train", "cs-predict")


class BoundaryMissing(RuntimeError):
    """A function the tracer wraps no longer exists where callers find it."""


def path_bytes(path):
    """Size of a file, or of the files directly inside a directory."""
    path = Path(path)
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir() if f.is_file())
    return path.stat().st_size


def _ingest(counts, result, args, kwargs):
    counts["corpus.ingest_jsonl.records"] += result.n_read
    counts["corpus.ingest_jsonl.rejected"] += len(result.rejections)


def _tokens(counts, result, args, kwargs):
    counts["corpus.tokenize.tokens"] += len(result)


def _persist(counts, result, args, kwargs):
    counts["corpus.persist_store.bytes"] += path_bytes(args[1])


def _load_store(counts, result, args, kwargs):
    counts["corpus.load_store.bytes"] += path_bytes(args[0])


def _build(counts, result, args, kwargs):
    counts["pdfmodel.build_model.words"] += len(result.vocabulary)


def _save_model(counts, result, args, kwargs):
    counts["pdfmodel.save_model.bytes"] += path_bytes(args[1])


def _aggregate(counts, result, args, kwargs):
    counts["pdfmodel.aggregate.offered"] += sum(args[1].values())
    counts["pdfmodel.aggregate.hits"] += result.words_used


def _eval(counts, result, args, kwargs):
    counts["evaluation.evaluate_pdf_model.skipped"] += len(result.skipped)


def _folds(counts, result, args, kwargs):
    counts["evaluation.cross_validate.folds"] += len(result.fold_accuracies)


def _screen(counts, result, args, kwargs):
    counts["commonsense.correlation_filter.kept"] += len(result)
    counts["commonsense.correlation_filter.screened"] += args[0].shape[1]


def _train_all(counts, result, args, kwargs):
    counts["commonsense.train_all.failures"] += len(result.failures)


def _save_bank(counts, result, args, kwargs):
    counts["commonsense.save_bank.bytes"] += path_bytes(args[1])


def _train_name(args, kwargs):
    return f"mlcore.train.{args[0].algorithm}"


# (owner, attribute, span name, counter hook).  The owner is the module or
# class that the caller looks the attribute up on.  A span name of None
# makes a count-only boundary.
BOUNDARIES = (
    ("traitlex.cli", "ingest_jsonl", "corpus.ingest_jsonl", _ingest),
    ("traitlex.cli", "persist_store", "corpus.persist_store", _persist),
    ("traitlex.cli", "load_store", "corpus.load_store", _load_store),
    ("traitlex.corpus.TextSample", "from_text", "corpus.from_text", None),
    ("traitlex.corpus", "tokenize", "corpus.tokenize", _tokens),
    ("traitlex.corpus", "derive_adjective_table", "corpus.derive_adjective_table", None),
    ("traitlex.binning.BinningScheme", "bin_index", None, None),
    ("traitlex.pdfmodel", "build_model", "pdfmodel.build_model", _build),
    ("traitlex.pdfmodel", "save_model", "pdfmodel.save_model", _save_model),
    ("traitlex.pdfmodel", "load_model", "pdfmodel.load_model", None),
    ("traitlex.pdfmodel", "predict", "pdfmodel.predict", None),
    ("traitlex.pdfmodel", "aggregate", "pdfmodel.aggregate", _aggregate),
    ("traitlex.pdfmodel", "confidence", "pdfmodel.confidence", None),
    ("traitlex.evaluation", "evaluate_pdf_model", "evaluation.evaluate_pdf_model", _eval),
    ("traitlex.evaluation", "pdf_predict", "pdfmodel.predict", None),
    ("traitlex.evaluation", "train_model", _train_name, None),
    ("traitlex.evaluation", "predict_dataset", "mlcore.predict_dataset", None),
    ("traitlex.commonsense", "cross_validate", "evaluation.cross_validate", _folds),
    ("traitlex.commonsense", "correlation_filter", "commonsense.correlation_filter", _screen),
    ("traitlex.commonsense", "ml_train", _train_name, None),
    ("traitlex.commonsense", "ml_predict", "mlcore.predict", None),
    ("traitlex.commonsense", "model_to_payload", "mlcore.model_to_payload", None),
    ("traitlex.commonsense", "model_from_payload", "mlcore.model_from_payload", None),
    ("traitlex.commonsense", "load_survey_csv", "commonsense.load_survey_csv", None),
    ("traitlex.commonsense", "train_all", "commonsense.train_all", _train_all),
    ("traitlex.commonsense", "save_bank", "commonsense.save_bank", _save_bank),
    ("traitlex.commonsense", "load_bank", "commonsense.load_bank", None),
    ("traitlex.commonsense", "predict_with_bank", "commonsense.predict_with_bank", None),
)

_SELF_TIMES = (
    "corpus.ingest_jsonl", "corpus.from_text", "corpus.tokenize", "corpus.persist_store",
    "corpus.load_store", "corpus.derive_adjective_table",
    "pdfmodel.build_model", "pdfmodel.save_model", "pdfmodel.load_model",
    "pdfmodel.predict", "pdfmodel.aggregate", "pdfmodel.confidence",
    "evaluation.evaluate_pdf_model", "evaluation.cross_validate",
    *(f"mlcore.train.{a}" for a in LEARNERS),
    "mlcore.predict_dataset", "mlcore.model_to_payload", "mlcore.predict",
    "mlcore.model_from_payload",
    "commonsense.load_survey_csv", "commonsense.train_all", "commonsense.save_bank",
    "commonsense.correlation_filter", "commonsense.load_bank",
    "commonsense.predict_with_bank",
    *(f"cli.{c}" for c in CLI_COMMANDS),
)
_CALLS = (
    "pdfmodel.aggregate", "commonsense.correlation_filter",
    *(f"mlcore.train.{a}" for a in LEARNERS),
)
_COUNTS = (
    ("corpus.ingest_jsonl.records", "count"),
    ("corpus.ingest_jsonl.rejected", "count"),
    ("corpus.tokenize.tokens", "count"),
    ("corpus.persist_store.bytes", "bytes"),
    ("corpus.load_store.bytes", "bytes"),
    ("binning.bin_index.calls", "count"),
    ("pdfmodel.build_model.words", "count"),
    ("pdfmodel.save_model.bytes", "bytes"),
    ("evaluation.evaluate_pdf_model.skipped", "count"),
    ("evaluation.cross_validate.folds", "count"),
    ("commonsense.train_all.failures", "count"),
    ("commonsense.save_bank.bytes", "bytes"),
)
_RATIOS = (
    ("pdfmodel.aggregate.hit_ratio", "pdfmodel.aggregate.hits", "pdfmodel.aggregate.offered"),
    ("commonsense.correlation_filter.kept_ratio", "commonsense.correlation_filter.kept",
     "commonsense.correlation_filter.screened"),
)

# Every per-layer metric the traced run reports, with its unit.  Values are
# per workload round; BENCHMARK.json lists the same names.
LAYER_METRICS = tuple(sorted(
    [(f"{name}.s", "s") for name in _SELF_TIMES]
    + [(f"{name}.calls", "count") for name in _CALLS]
    + list(_COUNTS)
    + [(name, "ratio") for name, _, _ in _RATIOS]
    + [("trace.overhead_s", "s")]
))


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = Counter()
        self.op = 0
        self.enabled = True  # False while the benchmark checks outputs
        self._stack = []
        self._patches = []

    def open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def install(self, boundaries=BOUNDARIES):
        """Wrap every boundary; raise BoundaryMissing before wrapping any."""
        resolved, missing = [], []
        for owner_path, attr, name, hook in boundaries:
            owner = _resolve(owner_path)
            if owner is None or not hasattr(owner, attr):
                missing.append(f"{owner_path}.{attr}")
                continue
            resolved.append((owner, attr, name, hook))
        if missing:
            raise BoundaryMissing("traced boundaries not found: " + ", ".join(missing))
        for owner, attr, name, hook in resolved:
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, hook, attr))
            else:
                wrapped = self._wrap(original, name, hook, attr)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, func, name, hook, attr):
        if name is None:
            counter = f"{func.__module__.rsplit('.', 1)[-1]}.{attr}.calls"

            @functools.wraps(func)
            def counted(*args, **kwargs):
                if self.enabled:
                    self.counts[counter] += 1
                return func(*args, **kwargs)
            return counted

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            index = self.open(name(args, kwargs) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                hook(self.counts, result, args, kwargs)
            return result
        return traced

    def self_times(self, op_scale):
        """Self time per span name, each span scaled by its op's factor."""
        covered = Counter()
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = Counter()
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            totals[name] += ((end - start) - covered[index]) * op_scale.get(op, 1.0)
        return totals

    def layer_metrics(self, rounds, overhead_s, op_scale):
        """Per-round values of every LAYER_METRICS entry."""
        self_s = self.self_times(op_scale)
        calls = Counter(span[0] for span in self.spans)
        values = {f"{name}.s": self_s[name] / rounds for name in _SELF_TIMES}
        values.update({f"{name}.calls": calls[name] / rounds for name in _CALLS})
        values.update({name: self.counts[name] / rounds for name, _ in _COUNTS})
        for name, num, den in _RATIOS:
            values[name] = self.counts[num] / self.counts[den] if self.counts[den] else 0.0
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

    def write_spans(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": op,
                }) + "\n")


def _resolve(path):
    """Module or class named by a dotted path, or None when it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None
