"""Text corpus ingestion, adjective extraction, and storage.

A corpus is a set of scored text samples; the adjective table implied by
them is derived when first asked for and never stored.  Adjective
detection is lexicon membership: a token counts as an adjective exactly
when it appears in the lexicon supplied at ingest time.
That keeps extraction deterministic and dependency free, at the cost of
missing words outside the shipped list.

Samples carry optional per-trait scores in [0, 1] for the five traits
O, C, E, A, N (openness, conscientiousness, extraversion, agreeableness,
neuroticism).
"""

import io
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from ._util import (
    atomic_write_text,
    check_fields,
    checked_json_bytes,
    checksum,
    decode_json,
    is_str_list,
    load_checked_json,
    utf8_fault,
)
from .errors import CorpusFormatError, DatasetError, ModelFormatError

TRAITS = ("O", "C", "E", "A", "N")

CORPUS_FORMAT = "traitlex-corpus"
CORPUS_FORMAT_VERSION = 7

# Maximal runs of ASCII letters, allowing internal apostrophes and hyphens,
# so "don't" and "state-of-the-art" stay single tokens.
_TOKEN_RE = re.compile(r"[a-z]+(?:['\-][a-z]+)*")

# A text whose tokens contain at least this fraction of common English
# function words is assumed to be English when no language tag is present.
_STOPWORD_RATIO = 0.02


# Every byte except a-z, apostrophe and hyphen becomes a space, so the
# chunks between spaces are the tokens, bar the few that hold a stray
# apostrophe or hyphen.
_NON_TOKEN_TO_SPACE = bytes(
    b if b in b"abcdefghijklmnopqrstuvwxyz'-" else 0x20 for b in range(256)
)


def tokenize(text: str) -> list[str]:
    """Lowercase and split into word tokens."""
    return _TOKEN_RE.findall(text.replace("’", "'").lower())


def count_tokens(text: str) -> dict:
    """Counter(tokenize(text)), with the same keys in the same first-occurrence
    order, without building the token list.

    After lowercasing, every non-ASCII character becomes "?" and then a
    space, as it separates tokens in tokenize.  A chunk that is not already a
    token ("--", "'quoted'", "a-'b") adds its count to each token _TOKEN_RE
    finds in it; chunks are taken in first-occurrence order, so tokens are too.
    """
    chunks = Counter(
        text.replace("’", "'").lower().encode("ascii", "replace")
        .translate(_NON_TOKEN_TO_SPACE).decode("ascii").split()
    )
    if all(c.isalpha() or _TOKEN_RE.fullmatch(c) for c in chunks):
        return chunks
    counts: dict = {}
    for chunk, n in chunks.items():
        for token in _TOKEN_RE.findall(chunk):
            counts[token] = counts.get(token, 0) + n
    return counts


def _load_wordlist(name: str) -> frozenset:
    text = resources.files(__package__).joinpath(f"data/{name}").read_text("utf-8")
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


_STOPWORDS = _load_wordlist("stopwords.txt")
_STOPWORD_TUPLE = tuple(sorted(_STOPWORDS))


def _is_english(stopword_hits: int, n_tokens: int) -> bool:
    return n_tokens > 0 and stopword_hits / n_tokens >= _STOPWORD_RATIO


@dataclass(frozen=True)
class AdjectiveLexicon:
    """A named, versioned set of lowercase adjective forms."""

    words: frozenset
    name: str
    version: str

    def __post_init__(self):
        if not self.words:
            raise DatasetError("lexicon is empty")
        bad = [w for w in self.words if not w or w != w.lower()]
        if bad:
            raise DatasetError(f"lexicon entries must be lowercase: {sorted(bad)[:5]}")

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)

    @classmethod
    def from_words(cls, words, name: str, version: str | None = None):
        words = frozenset(words)
        if version is None:
            version = "sha256:" + checksum("\n".join(sorted(words)))[:12]
        return cls(words=words, name=name, version=version)

    @classmethod
    def from_file(cls, path, name: str | None = None):
        path = Path(path)
        try:
            text = path.read_text("utf-8")
        except UnicodeDecodeError:
            raise DatasetError(utf8_fault(path)) from None
        words = [line.strip().lower() for line in text.splitlines() if line.strip()]
        return cls.from_words(words, name=name or path.stem)


_BUNDLED: AdjectiveLexicon | None = None


def bundled_lexicon() -> AdjectiveLexicon:
    """The adjective list shipped with the package."""
    global _BUNDLED
    if _BUNDLED is None:
        _BUNDLED = AdjectiveLexicon.from_words(
            _load_wordlist("adjectives.txt"), name="builtin"
        )
    return _BUNDLED


@dataclass(frozen=True)
class TextSample:
    """One text's counts; the text itself is not kept.  adj_freqs is in
    ascending word order, the order of a store's vocab, however the sample
    is built, so a text's density terms are summed in one order on every
    path."""

    id: str
    lang: str
    word_count: int
    adj_freqs: dict
    scores: dict | None = None

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise CorpusFormatError(f"sample id must be a non-empty string: {self.id!r}")
        if self.word_count < 0:
            raise CorpusFormatError(f"sample {self.id!r}: negative word_count")
        for word, freq in self.adj_freqs.items():
            if word != word.lower():
                raise CorpusFormatError(
                    f"sample {self.id!r}: adjective key {word!r} is not lowercase"
                )
            if type(freq) is not int or freq < 1:
                raise CorpusFormatError(
                    f"sample {self.id!r}: adjective frequency must be a positive "
                    f"integer, got {word!r}: {freq!r}"
                )
            if freq >= 2**63:  # the int64 limit of the arrays that count it
                raise CorpusFormatError(
                    f"sample {self.id!r}: adjective frequency of {word!r} reaches 2**63"
                )
        if self.scores is not None:
            _validate_scores(self.scores, where=f"sample {self.id!r}")
        words = sorted(self.adj_freqs)
        if list(self.adj_freqs) != words:
            object.__setattr__(self, "adj_freqs", {w: self.adj_freqs[w] for w in words})

    @classmethod
    def from_text(cls, id, text, lexicon, lang=None, scores=None):
        """Count the tokens once and take the word count, the language guess
        and the adjective counts from those counts; the text is dropped."""
        counts = count_tokens(text)
        word_count = sum(counts.values())
        if lang is None:
            hits = sum(map(counts.get, _STOPWORD_TUPLE, repeat(0)))
            lang = "en" if _is_english(hits, word_count) else "und"
        return cls(
            id=id,
            lang=lang,
            word_count=word_count,
            adj_freqs={w: counts[w] for w in sorted(lexicon.words.intersection(counts))},
            scores=scores,
        )


def _validate_scores(scores: dict, where: str) -> None:
    if not isinstance(scores, dict):
        raise CorpusFormatError(f"{where}: scores must be a mapping")
    for trait, value in scores.items():
        if trait not in TRAITS:
            raise CorpusFormatError(f"{where}: unknown trait {trait!r}")
        # true and false are ints to isinstance, yet no score
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
            raise CorpusFormatError(f"{where}: score for {trait!r} is not a number")
        if not 0.0 <= value <= 1.0:
            raise CorpusFormatError(
                f"{where}: score out of range for trait {trait!r}: {value!r}"
            )


@dataclass(frozen=True)
class FilterPolicy:
    """Sample admission rules.

    Word-count bounds are exclusive on both sides: min_words=600 admits
    only samples with more than 600 words.  min_adjective_total_freq acts
    corpus-wide at ingest, dropping adjectives whose total count across all
    accepted samples is below the threshold.
    """

    min_words: int | None = None
    max_words: int | None = None
    required_lang: str | None = None
    min_adjective_total_freq: int = 0

    def __post_init__(self):
        if self.min_words is not None and self.min_words < 0:
            raise DatasetError("min_words must be non-negative")
        if (
            self.min_words is not None
            and self.max_words is not None
            and self.max_words <= self.min_words
        ):
            raise DatasetError("max_words must exceed min_words")
        if self.min_adjective_total_freq < 0:
            raise DatasetError("min_adjective_total_freq must be non-negative")

    def to_dict(self) -> dict:
        return {
            "min_words": self.min_words,
            "max_words": self.max_words,
            "required_lang": self.required_lang,
            "min_adjective_total_freq": self.min_adjective_total_freq,
        }

    @classmethod
    def from_dict(cls, d) -> "FilterPolicy":
        return cls(**d)


# Policy used when loading raw text into a store.
INGEST_DEFAULT = FilterPolicy(min_words=600, required_lang="en")
# Stricter length band applied before density-model prediction.
PDF_STAGE = FilterPolicy(min_words=1000, max_words=6000)

SHIPPED_POLICIES = {
    "none": FilterPolicy(),
    "ingest-default": INGEST_DEFAULT,
    "pdf-stage": PDF_STAGE,
}


def _rejection(policy: FilterPolicy, lang: str, word_count: int) -> str | None:
    if policy.required_lang is not None and lang != policy.required_lang:
        return "lang"
    if policy.min_words is not None and word_count <= policy.min_words:
        return "min_words"
    if policy.max_words is not None and word_count >= policy.max_words:
        return "max_words"
    return None


def filter_sample(sample: TextSample, policy: FilterPolicy) -> str | None:
    """Return None when the sample is admitted, else the first failing rule."""
    return _rejection(policy, sample.lang, sample.word_count)


def filter_store(store, policy: FilterPolicy) -> list:
    """filter_sample of every sample of a store, in store order."""
    return [_rejection(policy, lang, word_count)
            for lang, word_count in zip(store.langs, store.word_counts.tolist())]


@dataclass(frozen=True)
class AdjectiveEntry:
    """One adjective's total count and its per-sample occurrences."""

    word: str
    total_frequency: int
    occurrences: tuple  # of (sample_id, count, scores-or-None)


def derive_adjective_table(samples) -> dict:
    """Build the word table implied by a sequence of samples."""
    rows: dict[str, list] = {}
    for sample in samples:
        for word, count in sample.adj_freqs.items():
            rows.setdefault(word, []).append((sample.id, count, sample.scores))
    return {
        word: AdjectiveEntry(
            word=word,
            total_frequency=sum(c for _, c, _ in occ),
            occurrences=tuple(occ),
        )
        for word, occ in sorted(rows.items())
    }


@dataclass(frozen=True, eq=False)
class CorpusStore:
    """Immutable sample collection held as arrays.

    Sample i is ids[i], langs[i] and word_counts[i], with scores[trait][i]
    for each trait in `scores` (NaN where the sample has none).  Its
    adjective counts are one CSR row over the sorted `vocab`: the next
    lengths[i] entries of `indices`, in ascending vocabulary order, and of
    `counts`.  A store holds no texts: the density method reads only the
    counts, and the ingest input stays the record of the texts.
    """

    ids: tuple
    langs: tuple
    word_counts: np.ndarray
    scores: dict
    vocab: tuple
    lengths: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    lexicon_name: str
    lexicon_version: str
    policy: FilterPolicy | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for array in (self.word_counts, self.lengths, self.indices, self.counts,
                      *self.scores.values()):
            array.setflags(write=False)

    @classmethod
    def from_samples(cls, samples, lexicon_name, lexicon_version, policy=None, extra=None):
        """The store of a sequence of TextSample objects, whose adjectives
        are already in vocabulary order."""
        samples = tuple(samples)
        for field in ("id", "lang"):
            _refuse_surrogates(samples, field)
        duplicate = _first_duplicate([s.id for s in samples])
        if duplicate is not None:
            raise CorpusFormatError(f"duplicate sample id {duplicate!r}")
        vocab = sorted(set().union(*(s.adj_freqs for s in samples)))
        index = {w: i for i, w in enumerate(vocab)}
        lengths = np.array([len(s.adj_freqs) for s in samples], dtype=np.int64)
        total = int(lengths.sum())
        indices = np.fromiter(map(index.__getitem__, chain.from_iterable(
            s.adj_freqs for s in samples)), np.int64, total)
        counts = np.fromiter(chain.from_iterable(
            s.adj_freqs.values() for s in samples), np.int64, total)
        scores = [s.scores or {} for s in samples]
        return cls(
            ids=tuple(s.id for s in samples),
            langs=tuple(s.lang for s in samples),
            word_counts=np.array([s.word_count for s in samples], dtype=np.int64),
            scores={t: np.array([sc.get(t, np.nan) for sc in scores], dtype=float)
                    for t in TRAITS if any(t in sc for sc in scores)},
            vocab=tuple(vocab),
            lengths=lengths,
            indices=indices,
            counts=counts,
            lexicon_name=lexicon_name,
            lexicon_version=lexicon_version,
            policy=policy,
            extra={} if extra is None else extra,
        )

    def trait_scores(self, trait: str) -> np.ndarray:
        """Each sample's score for `trait`, NaN where it has none."""
        column = self.scores.get(trait)
        return np.full(len(self), np.nan) if column is None else column

    @cached_property
    def samples(self) -> tuple:
        """One TextSample per sample."""
        words = [self.vocab[i] for i in self.indices.tolist()]
        counts = self.counts.tolist()
        ends = np.cumsum(self.lengths).tolist()
        columns = [(t, column.tolist()) for t, column in self.scores.items()]
        samples = []
        for i, (end, length) in enumerate(zip(ends, self.lengths.tolist())):
            scores = {t: column[i] for t, column in columns if column[i] == column[i]}
            samples.append(TextSample(
                id=self.ids[i], lang=self.langs[i],
                word_count=int(self.word_counts[i]),
                adj_freqs=dict(zip(words[end - length:end], counts[end - length:end])),
                scores=scores or None,
            ))
        return tuple(samples)

    def __len__(self) -> int:
        return len(self.ids)


_SURROGATE = "sample {!r}: field {!r} holds an unpaired surrogate (\\ud800-\\udfff)"


def _refuse_surrogates(samples, field):
    """Refuse the first sample whose `field` holds a lone surrogate, which no
    UTF-8 file can hold; one encode clears all the samples that have none."""
    try:
        "".join(str(getattr(s, field)) for s in samples).encode("utf-8")
    except UnicodeEncodeError:
        for s in samples:
            try:
                str(getattr(s, field)).encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusFormatError(_SURROGATE.format(s.id, field)) from None


def _first_duplicate(ids):
    """The first id that occurs twice in `ids`, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen = set()
    for sample_id in ids:
        if sample_id in seen:
            return sample_id
        seen.add(sample_id)
    return None


@dataclass(frozen=True)
class IngestResult:
    store: CorpusStore
    rejections: tuple  # of (sample_id, rule-name)
    n_read: int


def _apply_min_total_freq(samples: list, threshold: int) -> list:
    if threshold <= 0:
        return samples
    totals: Counter = Counter()
    for s in samples:
        totals.update(s.adj_freqs)
    keep = {w for w, t in totals.items() if t >= threshold}
    return [
        replace(s, adj_freqs={w: c for w, c in s.adj_freqs.items() if w in keep})
        for s in samples
    ]


_STRING = ("a string", lambda v: isinstance(v, str))
_OBJECT = ("an object", lambda v: isinstance(v, dict))
_NULL_OR_OBJECT = ("null or an object", lambda v: v is None or isinstance(v, dict))
_TEXT = ("a non-empty string", lambda v: isinstance(v, str) and v != "")
# An ingest record's fields; a missing "lang" or "scores" reads as null.
_RAW_FIELDS = {"id": _TEXT, "text": _TEXT, "scores": (*_NULL_OR_OBJECT, None),
               "lang": ("null or a string", lambda v: v is None or isinstance(v, str), None)}


def _sample_from_line(line: str, where: str, lexicon, seen: set) -> TextSample:
    """The sample of one JSONL record, refusing malformed records and ids
    already in `seen` with `where` (the file and line)."""
    record = decode_json(line, where, CorpusFormatError)
    check_fields(record, _RAW_FIELDS, where, CorpusFormatError)
    sample_id = record["id"]
    if sample_id in seen:
        raise CorpusFormatError(f"{where}: duplicate sample id {sample_id!r}")
    seen.add(sample_id)
    scores = record["scores"]
    if scores is not None:
        _validate_scores(scores, where=where)
        scores = {t: float(v) for t, v in scores.items()}
    return TextSample.from_text(sample_id, record["text"], lexicon,
                                lang=record["lang"], scores=scores)


def ingest_jsonl(path, lexicon=None, policy=INGEST_DEFAULT) -> IngestResult:
    """Read one JSON record per line and build a store.

    Each record needs "id" and "text"; "lang" and "scores" are optional.
    Records with a missing language tag are classified by the stopword
    heuristic.  Malformed records and bytes that are not UTF-8 abort the
    ingest with the line number; records that merely fail the policy are
    collected in the rejection report instead.
    """
    lexicon = lexicon or bundled_lexicon()
    path = Path(path)
    accepted: list[TextSample] = []
    rejections: list = []
    seen: set = set()
    n_read = 0
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                n_read += 1
                sample = _sample_from_line(line, f"{path} line {lineno}", lexicon, seen)
                reason = filter_sample(sample, policy)
                if reason is None:
                    accepted.append(sample)
                else:
                    rejections.append((sample.id, reason))
    except UnicodeDecodeError:
        raise CorpusFormatError(utf8_fault(path)) from None
    accepted = _apply_min_total_freq(accepted, policy.min_adjective_total_freq)
    store = CorpusStore.from_samples(accepted, lexicon.name, lexicon.version, policy)
    return IngestResult(store=store, rejections=tuple(rejections), n_read=n_read)


def _npy_bytes(store: CorpusStore) -> bytes:
    """counts.npy: the integer columns as one little-endian int64 vector."""
    buffer = io.BytesIO()
    np.save(buffer, np.concatenate(
        [store.word_counts, store.lengths, store.indices, store.counts], dtype="<i8"))
    return buffer.getvalue()


def persist_store(store: CorpusStore, directory) -> None:
    """Write counts.npy and a checked manifest holding the store's JSON
    columns and the SHA-256 of counts.npy to a directory.  Both files' bytes
    exist before either is written, so a refused manifest leaves no file."""
    directory = Path(directory)
    npy = _npy_bytes(store)
    manifest = checked_json_bytes(directory / "manifest.json", {
        "format": CORPUS_FORMAT,
        "format_version": CORPUS_FORMAT_VERSION,
        "ids": list(store.ids),
        "langs": list(store.langs),
        "scores": {t: [None if v != v else v for v in column.tolist()]
                   for t, column in store.scores.items()},
        "vocab": list(store.vocab),
        "lexicon_name": store.lexicon_name,
        "lexicon_version": store.lexicon_version,
        "policy": store.policy.to_dict() if store.policy else None,
        "counts_npy_sha256": checksum(npy),
        "extra": store.extra,
    })
    atomic_write_text(directory / "counts.npy", npy)
    atomic_write_text(directory / "manifest.json", manifest)


_STRINGS = ("a list of strings", is_str_list)
# Every manifest field load_store reads, with its JSON type; _store_arrays
# checks the columns' values, FilterPolicy the policy's fields, and `extra`
# is the caller's.
_MANIFEST_FIELDS = {
    "ids": _STRINGS, "langs": _STRINGS, "vocab": _STRINGS, "scores": _OBJECT,
    "lexicon_name": _STRING,
    "lexicon_version": _STRING,
    "counts_npy_sha256": _STRING,
    "policy": _NULL_OR_OBJECT,
    "extra": _OBJECT,
}


def _npy_vector(data: bytes, where: str) -> np.ndarray:
    """The one-dimensional C-order little-endian int64 array of a .npy
    version 1.0 file's bytes, as a read-only view of them.  The header is
    parsed as numpy parses it, without unpickling anything; np.load would
    hide a one-dimensional array's fortran_order flag, ignore bytes after
    the array and copy it."""
    buffer = io.BytesIO(data)
    try:
        version = np.lib.format.read_magic(buffer)
        if version != (1, 0):
            raise ValueError(f"format version {version[0]}.{version[1]}, not 1.0")
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(buffer)
    except (ValueError, TypeError) as e:
        raise CorpusFormatError(f"{where}: not a .npy file ({e})") from None
    if len(shape) != 1 or fortran or dtype.str != "<i8":
        order = "Fortran" if fortran else "C"
        raise CorpusFormatError(f"{where}: must hold one 1-D, C-order '<i8' array, not a "
                                f"{len(shape)}-D, {order}-order {dtype.str!r} array")
    size = len(data) - buffer.tell()
    if size != 8 * shape[0]:
        raise CorpusFormatError(f"{where}: the header's shape {shape} needs {8 * shape[0]} "
                                f"bytes of array data, not {size}")
    return np.frombuffer(data, np.int64, shape[0], buffer.tell())


def _store_arrays(record: dict, vector: np.ndarray, where: str, npy_where: str) -> dict:
    """CorpusStore's fields from a checked manifest and the counts.npy
    vector, refusing a value that breaks a rule with the file
    (`where` or `npy_where`), the field and, where there is one, the
    sample.  The integer columns are slices of `vector`."""
    def refuse(name, message, at=where):  # message: " must ..." or ": <what breaks the rule>"
        raise CorpusFormatError(f"{at}: field {name!r}{message}")

    ids, vocab = tuple(record["ids"]), tuple(record["vocab"])
    n = len(ids)
    if len(record["langs"]) != n:
        refuse("langs", f" must hold one entry per sample ({n}), not {len(record['langs'])}")
    if "" in ids:
        refuse("ids", f": sample {ids.index('')} has an empty id")
    duplicate = _first_duplicate(ids)
    if duplicate is not None:
        refuse("ids", f": duplicate sample id {duplicate!r}")
    upper = [w for w in vocab if w != w.lower()]
    if upper:
        refuse("vocab", f": adjective {upper[0]!r} is not lowercase")
    if any(a >= b for a, b in zip(vocab, vocab[1:])):
        refuse("vocab", " must be sorted with no duplicates")
    word_counts, lengths = vector[:n], vector[n:2 * n]  # short in a short vector
    if np.any(word_counts < 0):
        refuse("word_counts", f": sample {ids[int(np.argmax(word_counts < 0))]!r}: "
                              "negative word_count", npy_where)
    if np.any(lengths < 0):
        refuse("lengths", f": sample {ids[int(np.argmax(lengths < 0))]!r}: negative length",
               npy_where)
    total = sum(lengths.tolist())  # exact: an int64 sum could wrap round to the right size
    if len(vector) != 2 * n + 2 * total:
        raise CorpusFormatError(f"{npy_where}: holds {len(vector)} entries, not 2 x {n} "
                                f"samples + 2 x {total} adjectives, the sum of 'lengths'")
    indices, counts = vector[2 * n:2 * n + total], vector[2 * n + total:]
    owner = np.repeat(np.arange(n), lengths)
    outside = (indices < 0) | (indices >= len(vocab))
    if np.any(outside):
        j = int(np.argmax(outside))
        refuse("indices", f": sample {ids[owner[j]]!r}: index {indices[j]} is outside "
                          f"the {len(vocab)}-word vocab", npy_where)
    starts = np.zeros(total, dtype=bool)
    starts[(np.cumsum(lengths) - lengths)[lengths > 0]] = True
    falling = (np.diff(indices) <= 0) & ~starts[1:]
    if np.any(falling):
        j = int(np.argmax(falling)) + 1
        refuse("indices", f": sample {ids[owner[j]]!r}: indices must rise within a sample, "
                          f"got {indices[j - 1]} then {indices[j]}", npy_where)
    uses = np.bincount(indices, minlength=len(vocab))
    if np.any(uses == 0):
        refuse("indices", f": no sample holds adjective {vocab[int(np.argmin(uses))]!r} "
                          "of 'vocab'", npy_where)
    if np.any(counts < 1):
        j = int(np.argmax(counts < 1))
        refuse("counts", f": sample {ids[owner[j]]!r}: adjective frequency must be a positive "
                         f"integer, got {vocab[indices[j]]!r}: {counts[j]}", npy_where)
    scores = {}
    for trait, column in record["scores"].items():
        if trait not in TRAITS:
            refuse("scores", f": unknown trait {trait!r}")
        if not (isinstance(column, list) and len(column) == n
                and set(map(type, column)) <= {int, float, type(None)}):
            refuse(f"scores.{trait}", f" must be a list of {n} numbers or nulls")
        bad = next((i for i, v in enumerate(column) if v is not None and not 0 <= v <= 1), None)
        if bad is not None:
            refuse(f"scores.{trait}", f": sample {ids[bad]!r}: score out of range for trait "
                                      f"{trait!r}: {column[bad]!r}")
        scores[trait] = np.array(column, dtype=float)  # null becomes NaN
    return {"ids": ids, "langs": tuple(record["langs"]), "word_counts": word_counts,
            "scores": scores, "vocab": vocab, "lengths": lengths, "indices": indices,
            "counts": counts}


def load_store(directory) -> CorpusStore:
    """Read a persisted store back from its checked manifest and counts.npy,
    refusing a counts.npy whose SHA-256 differs from the manifest's before
    any of its content is checked."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise CorpusFormatError(f"{directory} is not a corpus store (no manifest.json)")
    manifest = load_checked_json(manifest_path, CORPUS_FORMAT, CORPUS_FORMAT_VERSION,
                                 "corpus store manifest", "ingest")
    check_fields(manifest, _MANIFEST_FIELDS, str(manifest_path), also=())
    policy = manifest["policy"]
    try:
        policy = FilterPolicy.from_dict(policy) if policy else None
    except (TypeError, DatasetError) as e:
        raise ModelFormatError(f"{manifest_path}: field 'policy' is invalid ({e})") from None
    npy_path = str(directory / "counts.npy")
    npy = Path(npy_path).read_bytes()
    if checksum(npy) != manifest["counts_npy_sha256"]:
        raise CorpusFormatError(
            f"{npy_path}: SHA-256 differs from the manifest's 'counts_npy_sha256'")
    return CorpusStore(
        **_store_arrays(manifest, _npy_vector(npy, npy_path), str(manifest_path), npy_path),
        lexicon_name=manifest["lexicon_name"],
        lexicon_version=manifest["lexicon_version"],
        policy=policy,
        extra=manifest["extra"],
    )
