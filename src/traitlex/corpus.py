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

import json
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

from ._util import (
    atomic_write_text,
    check_fields,
    checksum,
    decode_json,
    is_int,
    load_json,
    save_json,
    utf8_fault,
)
from .errors import CorpusFormatError, DatasetError, ModelFormatError

TRAITS = ("O", "C", "E", "A", "N")

CORPUS_FORMAT = "traitlex-corpus"
CORPUS_FORMAT_VERSION = 3

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
    id: str
    text: str
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

    @classmethod
    def from_text(cls, id, text, lexicon, lang=None, scores=None):
        """Count the tokens once and take the word count, the language guess
        and the adjective counts from those counts.  Their keys keep the
        tokens' first-occurrence order, the order aggregate sums in."""
        counts = count_tokens(text)
        word_count = sum(counts.values())
        if lang is None:
            hits = sum(counts[w] for w in _STOPWORDS.intersection(counts))
            lang = "en" if _is_english(hits, word_count) else "und"
        words = lexicon.words
        return cls(
            id=id,
            text=text,
            lang=lang,
            word_count=word_count,
            adj_freqs={w: c for w, c in counts.items() if w in words},
            scores=scores,
        )


def _validate_scores(scores: dict, where: str) -> None:
    if not isinstance(scores, dict):
        raise CorpusFormatError(f"{where}: scores must be a mapping")
    for trait, value in scores.items():
        if trait not in TRAITS:
            raise CorpusFormatError(f"{where}: unknown trait {trait!r}")
        if not isinstance(value, (int, float)) or value != value:
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


def filter_sample(sample: TextSample, policy: FilterPolicy) -> str | None:
    """Return None when the sample is admitted, else the first failing rule."""
    if policy.required_lang is not None and sample.lang != policy.required_lang:
        return "lang"
    if policy.min_words is not None and sample.word_count <= policy.min_words:
        return "min_words"
    if policy.max_words is not None and sample.word_count >= policy.max_words:
        return "max_words"
    return None


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


@dataclass(frozen=True)
class CorpusStore:
    """Immutable sample collection; its adjective table is derived on first use."""

    samples: tuple
    lexicon_name: str
    lexicon_version: str
    policy: FilterPolicy | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for s in self.samples:
            if s.id in seen:
                raise CorpusFormatError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)

    @cached_property
    def adjectives(self) -> dict:
        return derive_adjective_table(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


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
# A stored sample's fields, as _sample_to_record writes them: TextSample's.
_RECORD_FIELDS = {"id": _STRING, "text": _STRING, "lang": _STRING,
                  "word_count": ("an integer", is_int), "adj_freqs": _OBJECT,
                  "scores": _NULL_OR_OBJECT}


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
    store = CorpusStore(
        samples=tuple(accepted),
        lexicon_name=lexicon.name,
        lexicon_version=lexicon.version,
        policy=policy,
    )
    return IngestResult(store=store, rejections=tuple(rejections), n_read=n_read)


def _sample_to_record(sample: TextSample) -> dict:
    return {
        "id": sample.id,
        "text": sample.text,
        "lang": sample.lang,
        "word_count": sample.word_count,
        "adj_freqs": dict(sorted(sample.adj_freqs.items())),
        "scores": sample.scores,
    }


def _sample_from_record(line: str, where: str) -> TextSample:
    record = decode_json(line, where, CorpusFormatError)
    check_fields(record, _RECORD_FIELDS, where, CorpusFormatError)
    try:
        return TextSample(**{name: record[name] for name in _RECORD_FIELDS})
    except CorpusFormatError as e:
        raise CorpusFormatError(f"{where}: {e}") from None


def persist_store(store: CorpusStore, directory) -> None:
    """Write samples.jsonl and a manifest holding its SHA-256 to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    samples_text = "".join(
        json.dumps(_sample_to_record(s), ensure_ascii=False) + "\n" for s in store.samples
    )
    atomic_write_text(directory / "samples.jsonl", samples_text)
    save_json(directory / "manifest.json", {
        "format": CORPUS_FORMAT,
        "format_version": CORPUS_FORMAT_VERSION,
        "lexicon_name": store.lexicon_name,
        "lexicon_version": store.lexicon_version,
        "policy": store.policy.to_dict() if store.policy else None,
        "samples_sha256": checksum(samples_text),
        "extra": store.extra,
    })


# Every manifest field load_store reads, with its JSON type; FilterPolicy
# checks the policy's fields.
_MANIFEST_FIELDS = {
    "lexicon_name": _STRING,
    "lexicon_version": _STRING,
    "samples_sha256": _STRING,
    "policy": _NULL_OR_OBJECT,
    "extra": _OBJECT,
}


def load_store(directory) -> CorpusStore:
    """Read a persisted store back, refusing a samples file whose SHA-256
    differs from the manifest's."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise CorpusFormatError(f"{directory} is not a corpus store (no manifest.json)")
    manifest = load_json(manifest_path, CORPUS_FORMAT, CORPUS_FORMAT_VERSION,
                         "corpus store manifest", "ingest")
    check_fields(manifest, _MANIFEST_FIELDS, str(manifest_path))
    policy = manifest["policy"]
    try:
        policy = FilterPolicy.from_dict(policy) if policy else None
    except (TypeError, DatasetError) as e:
        raise ModelFormatError(f"{manifest_path}: field 'policy' is invalid ({e})") from None
    samples_path = directory / "samples.jsonl"
    data = samples_path.read_bytes()
    if checksum(data) != manifest["samples_sha256"]:
        raise CorpusFormatError(
            f"{samples_path}: SHA-256 differs from the manifest's 'samples_sha256'"
        )
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise CorpusFormatError(f"{samples_path}: not UTF-8 text") from None
    samples = [_sample_from_record(line, f"{samples_path} line {lineno}")
               for lineno, line in enumerate(text.split("\n"), start=1) if line.strip()]
    return CorpusStore(
        samples=tuple(samples),
        lexicon_name=manifest["lexicon_name"],
        lexicon_version=manifest["lexicon_version"],
        policy=policy,
        extra=manifest["extra"],
    )
