import ast
import csv
import hashlib
import io
import json
import tempfile
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from traitlex import _util, corpus
from traitlex._util import checksum, decode_json
from traitlex.cli import main
from traitlex.corpus import (
    INGEST_DEFAULT,
    PDF_STAGE,
    TRAITS,
    AdjectiveLexicon,
    CorpusStore,
    FilterPolicy,
    TextSample,
    bundled_lexicon,
    count_tokens,
    derive_adjective_table,
    filter_sample,
    ingest_jsonl,
    load_store,
    persist_store,
    tokenize,
)
from traitlex.errors import CorpusFormatError, ModelFormatError


# --- tokenize ----------------------------------------------------------------

def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("The happy, HAPPY dog.") == ["the", "happy", "happy", "dog"]


def test_tokenize_keeps_internal_hyphens_and_apostrophes():
    assert tokenize("state-of-the-art don't") == ["state-of-the-art", "don't"]


def test_tokenize_curly_apostrophe():
    assert tokenize("don’t") == ["don't"]


def test_tokenize_drops_digits_and_leading_punctuation():
    assert tokenize("3,079 words -- 'quoted'") == ["words", "quoted"]


@given(st.text(alphabet=st.characters(max_codepoint=127)))
def test_tokenize_case_invariant(text):
    assert tokenize(text.upper()) == tokenize(text.lower())


# Characters where a one-pass counter could part from tokenize: case
# mappings that change length or land in ASCII (İ, Kelvin K), letters
# outside ASCII, ligatures, lone surrogates, and apostrophes and hyphens
# that do not sit between letters.
COUNT_ALPHABET = st.sampled_from(list("aBz '-\u2019\n.3\u0130\u212a\u00e9\u00df\ufb01\ud800"))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=COUNT_ALPHABET)))
def test_count_tokens_matches_counting_the_token_list(text):
    expected = Counter(tokenize(text))
    assert list(count_tokens(text).items()) == list(expected.items())


# --- adjective extraction ------------------------------------------------------
# The one-token-at-a-time references from_text is checked against.

def looks_english(tokens):
    """Stopword-ratio heuristic used when a record carries no language tag."""
    hits = sum(1 for t in tokens if t in corpus._STOPWORDS)
    return bool(tokens) and hits / len(tokens) >= corpus._STOPWORD_RATIO


def extract_adjectives(tokens, lexicon):
    """Count the tokens that are lexicon members, keyed by word."""
    return dict(Counter(t for t in tokens if t in lexicon))


LEX = AdjectiveLexicon.from_words({"happy", "big"}, name="toy")


def test_extract_counts():
    assert extract_adjectives(["the", "happy", "big", "dog", "happy"], LEX) == {
        "happy": 2,
        "big": 1,
    }


def test_extract_no_hits():
    assert extract_adjectives(["the", "dog"], LEX) == {}


def test_bundled_lexicon_nonempty_and_versioned():
    lex = bundled_lexicon()
    assert "happy" in lex.words
    assert len(lex.words) > 300
    assert lex.version.startswith("sha256:")


def test_lexicon_version_tracks_content():
    a = AdjectiveLexicon.from_words({"happy"}, name="a")
    b = AdjectiveLexicon.from_words({"happy", "big"}, name="a")
    assert a.version != b.version


# --- samples and policies -------------------------------------------------------

def sample_with(word_count, lang="en"):
    return TextSample(
        id="s1", text="x", lang=lang, word_count=word_count,
        adj_freqs={}, scores=None,
    )


def test_min_words_is_exclusive():
    policy = FilterPolicy(min_words=600)
    assert filter_sample(sample_with(599), policy) == "min_words"
    assert filter_sample(sample_with(600), policy) == "min_words"
    assert filter_sample(sample_with(601), policy) is None


def test_pdf_stage_band():
    assert filter_sample(sample_with(3079), PDF_STAGE) is None
    assert filter_sample(sample_with(1000), PDF_STAGE) == "min_words"
    assert filter_sample(sample_with(6000), PDF_STAGE) == "max_words"


def test_rule_order_lang_first():
    policy = FilterPolicy(min_words=600, required_lang="en")
    assert filter_sample(sample_with(10, lang="de"), policy) == "lang"


def test_relaxing_min_words_never_rejects_an_accepted_sample():
    for wc in (5, 100, 601, 10_000):
        s = sample_with(wc)
        for tight in (0, 10, 600, 900):
            for looser in range(0, tight + 1, 5):
                if filter_sample(s, FilterPolicy(min_words=tight)) is None:
                    assert filter_sample(s, FilterPolicy(min_words=looser)) is None


def test_score_validation():
    with pytest.raises(CorpusFormatError, match="score out of range"):
        TextSample(
            id="s1", text="x", lang="en", word_count=1,
            adj_freqs={}, scores={"N": 1.3},
        )
    with pytest.raises(CorpusFormatError, match="score for 'N' is not a number"):
        TextSample(id="s1", text="x", lang="en", word_count=1, adj_freqs={}, scores={"N": True})


def test_every_sample_holds_its_adjectives_in_word_order():
    s = TextSample(id="s1", text="x", lang="en", word_count=9,
                   adj_freqs={"zany": 1, "big": 2, "happy": 3})
    assert list(s.adj_freqs) == ["big", "happy", "zany"]
    assert list(replace(s, adj_freqs={"odd": 1, "calm": 1}).adj_freqs) == ["calm", "odd"]
    store = CorpusStore.from_samples([s], "toy", "v")
    assert store.vocab == ("big", "happy", "zany") and store.indices.tolist() == [0, 1, 2]
    assert list(store.samples[0].adj_freqs.items()) == list(s.adj_freqs.items())


def test_from_text_counts_and_extracts():
    s = TextSample.from_text("s1", "a happy happy big dog", LEX)
    assert s.word_count == 5
    assert s.adj_freqs == {"happy": 2, "big": 1}


def reference_sample(text, lexicon):
    """What from_text computed before it counted tokens in one pass."""
    tokens = tokenize(text)
    lang = "en" if looks_english(tokens) else "und"
    return lang, len(tokens), extract_adjectives(tokens, lexicon)


TEXT_WORDS = ["the", "and", "happy", "big", "Happy", "dog", "zzz", "don't", "3",
              ",", "-", "’", "state-of-the-art", "İ", "\u212a", "é", "ß", "''", "--",
              "'quoted'", "a-'b", "\ud800"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TEXT_WORDS), max_size=120), st.sampled_from([" ", "", "\n"]))
def test_from_text_matches_separate_passes(words, sep):
    text = sep.join(words)
    s = TextSample.from_text("s1", text, LEX)
    lang, word_count, adj_freqs = reference_sample(text, LEX)
    assert (s.lang, s.word_count) == (lang, word_count)
    # the reference keeps first-occurrence order; a sample holds word order
    assert list(s.adj_freqs.items()) == sorted(adj_freqs.items())


@pytest.mark.parametrize("n_tokens,lang", [(99, "en"), (100, "en"), (101, "und")])
def test_from_text_language_at_the_stopword_ratio(n_tokens, lang):
    # Two stopwords in 100 tokens is exactly the 2% threshold.
    text = " ".join(["big", "the", "happy", "and"] + ["zzz"] * (n_tokens - 4))
    assert reference_sample(text, LEX)[0] == lang
    assert TextSample.from_text("s1", text, LEX).lang == lang


def test_from_text_empty_text_is_undetermined():
    s = TextSample.from_text("s1", "", LEX)
    assert (s.lang, s.word_count, s.adj_freqs) == ("und", 0, {})


def test_language_heuristic_flags_non_english():
    gibberish = " ".join(["zzz"] * 50)
    s = TextSample.from_text("s1", gibberish, LEX)
    assert s.lang == "und"
    english = "the cat sat on the mat and it was a big day for the happy dog"
    s2 = TextSample.from_text("s2", english, LEX)
    assert s2.lang == "en"


# --- ingest -------------------------------------------------------------------

def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", "utf-8")


def make_record(id, n_words, score=0.5):
    text = " ".join(["happy big day the and or it went over there"] * (n_words // 10))
    return {"id": id, "text": text, "lang": "en", "scores": {"N": score}}


def test_ingest_accepts_and_rejects(tmp_path):
    path = tmp_path / "raw.jsonl"
    write_jsonl(path, [
        make_record("a", 700),
        make_record("b", 700, score=0.3),
        make_record("c", 100),   # too short for the default policy
    ])
    result = ingest_jsonl(path)
    assert len(result.store) == 2
    assert result.n_read == 3
    assert result.rejections == (("c", "min_words"),)


def test_ingest_rejects_bad_json(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text('{"id": "a"\n', "utf-8")
    with pytest.raises(CorpusFormatError, match="line 1"):
        ingest_jsonl(path)


def test_surrogate_pairs_and_escaped_backslashes_are_text(tmp_path):
    """Only an unpaired surrogate escape is refused: an astral character
    written as a pair of escapes, and a backslash written as its escape
    followed by the letters ud800, are text that a store can hold."""
    path = tmp_path / "raw.jsonl"
    body = " ".join(["a happy big day at the cafe and the cat went on"] * 60)
    path.write_text(json.dumps({"id": "t\U0001F600", "text": body + " \\ud800"}) + "\n",
                    "utf-8")
    assert "\\ud83d\\ude00" in path.read_text("utf-8")
    result = ingest_jsonl(path)
    (sample,) = result.store.samples
    assert sample.id == "t\U0001F600" and sample.text.endswith(" \\ud800")
    persist_store(result.store, tmp_path / "store")
    assert load_store(tmp_path / "store").samples == result.store.samples


def test_ingest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "raw.jsonl"
    write_jsonl(path, [make_record("a", 700), make_record("a", 700)])
    with pytest.raises(CorpusFormatError, match="duplicate sample id"):
        ingest_jsonl(path)


def test_ingest_rejects_out_of_range_score(tmp_path):
    path = tmp_path / "raw.jsonl"
    rec = make_record("a", 700)
    rec["scores"] = {"N": 1.3}
    write_jsonl(path, [rec])
    with pytest.raises(CorpusFormatError, match="score out of range"):
        ingest_jsonl(path)


def test_min_adjective_total_freq_prunes_rare_words(tmp_path):
    path = tmp_path / "raw.jsonl"
    # "happy" appears ~140 times total, "major" only twice
    base = " ".join(["happy the dog ran over it and was very glad"] * 70)
    write_jsonl(path, [
        {"id": "a", "text": base + " major", "lang": "en"},
        {"id": "b", "text": base + " major", "lang": "en"},
    ])
    policy = FilterPolicy(min_words=600, required_lang="en",
                          min_adjective_total_freq=3)
    store = ingest_jsonl(path, policy=policy).store
    assert "major" not in store.vocab
    assert "happy" in store.vocab
    # threshold is inclusive: total == threshold survives
    policy_eq = FilterPolicy(min_words=600, required_lang="en",
                             min_adjective_total_freq=2)
    store_eq = ingest_jsonl(path, policy=policy_eq).store
    assert "major" in store_eq.vocab


# --- adjective table consistency --------------------------------------------------

def toy_store():
    samples = (
        TextSample(id="a", text="", lang="en", word_count=700,
                   adj_freqs={"happy": 2, "big": 1}, scores={"N": 0.4}),
        TextSample(id="b", text="", lang="en", word_count=800,
                   adj_freqs={"happy": 3}, scores={"N": 0.7}),
    )
    return CorpusStore.from_samples(samples, "toy", "v")


def test_total_frequency_sums_per_sample_counts():
    table = derive_adjective_table(toy_store().samples)
    assert table["happy"].total_frequency == 5
    assert table["big"].total_frequency == 1
    for word, entry in table.items():
        assert entry.total_frequency == sum(c for _, c, _ in entry.occurrences)


def test_duplicate_sample_ids_rejected():
    s = TextSample(id="a", text="", lang="en", word_count=1,
                   adj_freqs={}, scores=None)
    with pytest.raises(CorpusFormatError, match="duplicate"):
        CorpusStore.from_samples((s, s), "x", "v")


# --- texts.jsonl lines ---------------------------------------------------------

# What json.dumps(..., ensure_ascii=False) escapes in a string, and characters
# near them that it leaves alone: DEL, the JSON-legal line and paragraph
# separators, and text outside ASCII, in and beyond the BMP.
JSON_ESCAPED = [chr(c) for c in range(0x20)] + ['"', "\\"]
LINE_ALPHABET = st.sampled_from(
    JSON_ESCAPED + ["a", " ", "\x7f", "\u2028", "\u2029", "’", "é", "\U0001F600"])


def text_sample(sample_id, text):
    return TextSample(id=sample_id, text=text, lang="en", word_count=0, adj_freqs={})


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
                 st.text(alphabet=LINE_ALPHABET)))
@example("happy ’ é \x7f \U0001F600")  # written as its own bytes
@example('a "quoted"\ttab\\ and a \x00')  # escaped
def test_texts_jsonl_line_is_json_dumps_of_the_text(text):
    event("escaped" if any(c in text for c in JSON_ESCAPED) else "own bytes")
    store = CorpusStore.from_samples([text_sample("s", text)], "toy", "v")
    assert store.texts_jsonl == (json.dumps(text, ensure_ascii=False) + "\n").encode("utf-8")
    assert store.texts == (text,)


def test_texts_with_nothing_to_escape_run_no_json_encoder(monkeypatch):
    texts = ["happy ’ é \x7f \u2028 \u2029 \U0001F600", "", "a plain text"]
    expected = "".join(json.dumps(t, ensure_ascii=False) + "\n" for t in texts).encode("utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("a JSON encoder ran")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    monkeypatch.setattr(json.encoder, "encode_basestring", refuse)
    store = CorpusStore.from_samples([text_sample(f"s{i}", t) for i, t in enumerate(texts)],
                                     "toy", "v")
    monkeypatch.undo()
    assert store.texts_jsonl == expected


def test_a_text_with_a_lone_surrogate_is_refused_naming_its_sample():
    """A lone surrogate is no character, so no UTF-8 store can hold it."""
    samples = [TextSample.from_text("ok", "a happy day", LEX),
               TextSample.from_text("bad", "happy \ud800 day", LEX)]
    with pytest.raises(CorpusFormatError) as refused:
        CorpusStore.from_samples(samples, "toy", "v")
    assert str(refused.value) == ("sample 'bad': field 'text' holds an unpaired "
                                  "surrogate (\\ud800-\\udfff)")


@pytest.mark.parametrize("field, value", [("id", "a\ud800"), ("lang", "e\udc00")])
def test_an_id_or_lang_with_a_lone_surrogate_is_refused_naming_its_sample(field, value):
    """persist_store could not encode it, so from_samples refuses it first."""
    good = TextSample(id="ok", text="fine", lang="en", word_count=1, adj_freqs={})
    bad = TextSample(**{"id": "b", "text": "ok", "lang": "en", "word_count": 0,
                        "adj_freqs": {}, field: value})
    with pytest.raises(CorpusFormatError) as refused:
        CorpusStore.from_samples([good, bad], "toy", "v")
    assert str(refused.value) == (f"sample {bad.id!r}: field {field!r} holds an unpaired "
                                  "surrogate (\\ud800-\\udfff)")


# --- persistence ---------------------------------------------------------------

def test_persist_load_round_trip(tmp_path):
    store = toy_store()
    persist_store(store, tmp_path / "store")
    loaded = load_store(tmp_path / "store")
    assert loaded.samples == store.samples
    assert loaded.vocab == store.vocab
    assert loaded.lexicon_name == store.lexicon_name
    assert loaded.lexicon_version == store.lexicon_version


def test_load_rejects_edited_adjective_count(tmp_path, capsys):
    persist_store(toy_store(), tmp_path / "store")
    path = tmp_path / "store" / "counts.npy"
    vector = np.load(path, allow_pickle=False)
    vector[-1] += 1
    np.save(path, vector)
    with pytest.raises(CorpusFormatError, match="counts_npy_sha256"):
        load_store(tmp_path / "store")
    code = main(["pdf-build", "--corpus", str(tmp_path / "store"), "--trait", "N",
                 "--out", str(tmp_path / "model")])
    assert code == 2
    assert str(path) in capsys.readouterr().err


DROP = object()


@pytest.mark.parametrize("name,key,value", [
    ("manifest.json", "counts_sha256", DROP),
    ("manifest.json", "counts_sha256", 12345),
    ("manifest.json", "format_version", 1),
    ("manifest.json", "lexicon_name", DROP),
    ("manifest.json", "lexicon_version", 3),
    ("manifest.json", "policy", {"min_words": "many"}),
    ("counts.json", "counts", [1]),  # a version 4 field, outside the version 5 table
    ("manifest.json", "texts_sha256", DROP),
    ("manifest.json", "format_version", 3),
    ("counts.json", "vocab", DROP),
    ("counts.json", "scores", [0.5, 0.5]),
    ("manifest.json", "counts_npy_sha256", DROP),
])
def test_malformed_store_is_a_data_error(tmp_path, capsys, name, key, value):
    store = tmp_path / "store"
    persist_store(toy_store(), store)
    path = store / name
    record = json.loads(path.read_text("utf-8"))
    if value is DROP:
        del record[key]
    else:
        record[key] = value
    path.write_text(json.dumps(record) + "\n", "utf-8")
    if name == "counts.json":  # an edit that keeps the manifest's checksum true
        manifest = json.loads((store / "manifest.json").read_text("utf-8"))
        manifest["counts_sha256"] = checksum(path.read_text("utf-8"))
        (store / "manifest.json").write_text(json.dumps(manifest), "utf-8")
    code = main(["pdf-build", "--corpus", str(store), "--trait", "N",
                 "--out", str(tmp_path / "model")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err and repr(key) in err
    if key == "format_version":
        assert "rerun ingest" in err


def test_a_version_3_store_is_refused_with_the_rerun_hint(tmp_path, capsys):
    """A version 3 store held samples.jsonl, one JSON record per sample."""
    store = tmp_path / "store"
    store.mkdir()
    line = json.dumps({"id": "a", "text": "", "lang": "en", "word_count": 700,
                       "adj_freqs": {"happy": 2}, "scores": {"N": 0.4}}) + "\n"
    (store / "samples.jsonl").write_text(line, "utf-8")
    (store / "manifest.json").write_text(json.dumps({
        "format": "traitlex-corpus", "format_version": 3, "lexicon_name": "toy",
        "lexicon_version": "v", "policy": None, "samples_sha256": checksum(line), "extra": {},
    }), "utf-8")
    with pytest.raises(ModelFormatError, match="rerun ingest to write a version 5 file"):
        load_store(store)
    assert main(["pdf-build", "--corpus", str(store), "--trait", "N",
                 "--out", str(tmp_path / "o")]) == 2
    assert "unsupported format version 3" in capsys.readouterr().err


def integer_lists(value, path=""):
    """The paths of the lists in a decoded JSON value that hold an integer."""
    if isinstance(value, dict):
        return [p for key, item in value.items() for p in integer_lists(item, f"{path}.{key}")]
    if isinstance(value, list):
        found = [path] if any(type(item) is int for item in value) else []
        return found + [p for i, item in enumerate(value)
                        for p in integer_lists(item, f"{path}[{i}]")]
    return []


def test_load_decodes_the_same_json_texts_for_any_sample_count(tmp_path, monkeypatch):
    """load_store decodes the manifest and counts.json, never a text per
    sample, so its decode_json calls do not grow with the store; no JSON it
    decodes holds a list of integers, which come from one parse of
    counts.npy."""
    calls, headers = [], []

    def counted(*args, **kwargs):
        value = decode_json(*args, **kwargs)
        calls.append((args[1], integer_lists(value)))
        return value

    def header(*args, **kwargs):
        headers.append(args)
        return read_header(*args, **kwargs)

    for module in (corpus, _util):
        monkeypatch.setattr(module, "decode_json", counted)
    read_header = np.lib.format.read_array_header_1_0
    monkeypatch.setattr(np.lib.format, "read_array_header_1_0", header)
    counts = []
    for n in (1, 600):
        samples = [TextSample.from_text(f"s{i}", f"a happy dog number {i} was big", LEX,
                                        scores={"N": 0.5}) for i in range(n)]
        persist_store(CorpusStore.from_samples(samples, "toy", "v"), tmp_path / str(n))
        calls.clear()
        headers.clear()
        assert len(load_store(tmp_path / str(n))) == n
        counts.append((len(calls), len(headers)))
        assert [lists for _, lists in calls] == [[], []]
    assert counts == [(2, 1), (2, 1)]


# texts.jsonl contents of the two-sample toy store, with their SHA-256 in the
# manifest, and what reading the texts refuses in them.
TEXTS_FAULTS = {
    "not-a-string": ('"one"\n5\n', " line 2: field 'text' must be a string"),
    "line-missing": ('"one"\n', ": must hold one line per sample (2)"),
    "line-extra": ('"one"\n"two"\n"three"\n', ": must hold one line per sample (2)"),
    "unterminated": ('"one"\n"two"', ": must hold one line per sample (2)"),
}


@pytest.mark.parametrize("fault", TEXTS_FAULTS)
def test_texts_are_decoded_on_first_use(tmp_path, fault):
    store = toy_store()
    persist_store(store, tmp_path / "store")
    loaded = load_store(tmp_path / "store")
    assert "texts" not in vars(loaded) and loaded.texts == ("", "")
    text, message = TEXTS_FAULTS[fault]
    path = tmp_path / "store" / "texts.jsonl"
    path.write_text(text, "utf-8")
    manifest = json.loads((tmp_path / "store" / "manifest.json").read_text("utf-8"))
    manifest["texts_sha256"] = checksum(text)
    (tmp_path / "store" / "manifest.json").write_text(json.dumps(manifest), "utf-8")
    loaded = load_store(tmp_path / "store")
    with pytest.raises(CorpusFormatError) as refused:
        loaded.texts
    assert str(refused.value).startswith(f"{path}{message}")


def resign(store, name, data: str | bytes):
    """Write `data` to a store file and the manifest's SHA-256 of it."""
    (store / name).write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
    manifest = json.loads((store / "manifest.json").read_text("utf-8"))
    manifest[corpus._DATA_FILES[name]] = checksum(data)
    (store / "manifest.json").write_text(json.dumps(manifest), "utf-8")


def test_manifest_holds_the_sha256_of_each_data_file(tmp_path):
    persist_store(toy_store(), tmp_path / "store")
    manifest = json.loads((tmp_path / "store" / "manifest.json").read_text("utf-8"))
    for name, field in corpus._DATA_FILES.items():
        data = (tmp_path / "store" / name).read_bytes()
        assert manifest[field] == hashlib.sha256(data).hexdigest()


def test_both_checksums_wrong_names_counts_json(tmp_path):
    """The checksums are checked in the order counts.json, counts.npy,
    texts.jsonl, so the first wrong one is named."""
    names = ["counts.json", "counts.npy", "texts.jsonl"]
    for first, name in enumerate(names):
        store = tmp_path / name
        persist_store(toy_store(), store)
        for edited in names[first:]:
            with (store / edited).open("ab") as fh:
                fh.write(b" ")
        with pytest.raises(CorpusFormatError) as refused:
            load_store(store)
        assert str(refused.value) == (f"{store / name}: SHA-256 differs from the "
                                      f"manifest's {corpus._DATA_FILES[name]!r}")


def test_a_texts_mismatch_wins_over_a_fault_in_counts_json(tmp_path):
    """Every data file's checksum is checked before any content."""
    store = tmp_path / "store"
    persist_store(toy_store(), store)
    record = json.loads((store / "counts.json").read_text("utf-8"))
    record["vocab"] = ["big", "Happy"]
    resign(store, "counts.json", json.dumps(record))
    (store / "texts.jsonl").write_text('"one"\n"two"\n', "utf-8")
    with pytest.raises(CorpusFormatError) as refused:
        load_store(store)
    assert str(refused.value) == (f"{store / 'texts.jsonl'}: SHA-256 differs from the "
                                  "manifest's 'texts_sha256'")
    assert refused.value.__context__ is None or refused.value.__suppress_context__


def _counts_edit(store):
    vector = np.load(store / "counts.npy", allow_pickle=False)
    vector[2] = -1  # sample 'a''s length
    buffer = io.BytesIO()
    np.save(buffer, vector)
    resign(store, "counts.npy", buffer.getvalue())


# Each way load_store can end on a store persist_store wrote: the edit, and
# the file a refusal names.
LOAD_ENDS = {
    "loaded": (lambda store: None, None),
    "counts-checksum": (lambda store: (store / "counts.json").write_text("{}", "utf-8"),
                        "counts.json"),
    "texts-checksum": (lambda store: (store / "texts.jsonl").write_text('""\n', "utf-8"),
                       "texts.jsonl"),
    "counts-not-utf8": (lambda store: resign(store, "counts.json", b"\xff"), "counts.json"),
    "counts-not-json": (lambda store: resign(store, "counts.json", "{"), "counts.json"),
    "counts-field": (lambda store: resign(store, "counts.json", "{}"), "counts.json"),
    "counts-array": (_counts_edit, "counts.npy"),
    "texts-missing": (lambda store: (store / "texts.jsonl").unlink(), "texts.jsonl"),
}


@pytest.fixture
def slow_hash(monkeypatch):
    """A hash slow enough that a helper thread left unjoined is still
    running when the call returns."""
    def slow(data):
        time.sleep(0.02)
        return checksum(data)

    monkeypatch.setattr(corpus, "checksum", slow)


@pytest.mark.parametrize("end", LOAD_ENDS)
def test_no_thread_outlives_load_store(tmp_path, slow_hash, end):
    store = tmp_path / "store"
    persist_store(toy_store(), store)
    edit, named = LOAD_ENDS[end]
    edit(store)
    before = threading.active_count()
    if named is None:
        assert len(load_store(store)) == 2
    else:
        with pytest.raises((CorpusFormatError, OSError)) as refused:
            load_store(store)
        assert str(store / named) in str(refused.value)
    assert threading.active_count() == before


@pytest.mark.parametrize("blocked", [None, "texts.jsonl", "counts.json"])
def test_no_thread_outlives_persist_store(tmp_path, slow_hash, blocked):
    """A directory where a data file should go makes its write fail."""
    store = tmp_path / "store"
    if blocked:
        (store / blocked).mkdir(parents=True)
    before = threading.active_count()
    if blocked:
        with pytest.raises(OSError):
            persist_store(toy_store(), store)
        assert not (store / "manifest.json").exists()
    else:
        persist_store(toy_store(), store)
    assert threading.active_count() == before


def test_persist_is_deterministic(tmp_path):
    store = toy_store()
    persist_store(store, tmp_path / "one")
    persist_store(store, tmp_path / "two")
    names = ["counts.json", "counts.npy", "manifest.json", "texts.jsonl"]
    assert sorted(p.name for p in (tmp_path / "one").iterdir()) == names
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


SCORE = st.floats(0, 1) | st.sampled_from([0.0, 1.0])
STORE_SAMPLES = st.lists(st.builds(
    lambda word_count, adj_freqs, scores, lang: (word_count, adj_freqs, scores or None, lang),
    st.integers(0, 2**63 - 1),
    st.dictionaries(st.sampled_from(["big", "happy", "kind", "major", "zany"]),
                    st.integers(1, 2**63 - 1), max_size=5),
    st.dictionaries(st.sampled_from(TRAITS), SCORE, max_size=5),
    st.sampled_from(["en", "und", "fr"]),
), max_size=8)


@settings(max_examples=60, deadline=None)
@given(STORE_SAMPLES)
@example([])
@example([(700, {}, None, "en"), (0, {}, {"N": 0.5}, "und")])
@example([(700, {"happy": 2}, {"O": 0.0, "N": 1.0}, "en"), (800, {}, {"E": 0.25}, "en")])
def test_persist_then_load_gives_the_store_back(rows):
    """Equal ids, langs, vocab and NaN-aware scores, int64 integer columns,
    and byte-identical files from two persists."""
    samples = [TextSample(id=f"s{i}", text=f"text {i}", lang=lang, word_count=word_count,
                          adj_freqs=adj_freqs, scores=scores)
               for i, (word_count, adj_freqs, scores, lang) in enumerate(rows)]
    store = CorpusStore.from_samples(samples, "toy", "v")
    with tempfile.TemporaryDirectory() as work:
        one, two = Path(work, "one"), Path(work, "two")
        persist_store(store, one)
        persist_store(store, two)
        assert (one / "counts.npy").read_bytes() == (two / "counts.npy").read_bytes()
        loaded = load_store(one)
    assert (loaded.ids, loaded.langs, loaded.vocab) == (store.ids, store.langs, store.vocab)
    assert loaded.scores.keys() == store.scores.keys()
    for trait, column in store.scores.items():
        assert np.array_equal(loaded.scores[trait], column, equal_nan=True)
    for name in ("word_counts", "lengths", "indices", "counts"):
        got, want = getattr(loaded, name), getattr(store, name)
        assert got.dtype == np.int64 and got.tolist() == want.tolist(), name
    assert loaded.samples == store.samples


@given(
    st.lists(
        st.tuples(
            st.dictionaries(
                st.sampled_from(["happy", "big", "major", "kind"]),
                st.integers(min_value=1, max_value=9),
                max_size=4,
            ),
        ),
        max_size=6,
    )
)
def test_derived_table_always_consistent(freqs):
    samples = tuple(
        TextSample(id=f"s{i}", text="", lang="en", word_count=700,
                   adj_freqs=d, scores=None)
        for i, (d,) in enumerate(freqs)
    )
    table = derive_adjective_table(samples)
    for word, entry in table.items():
        expected = sum(s.adj_freqs.get(word, 0) for s in samples)
        assert entry.total_frequency == expected


def test_default_policies_match_documented_bounds():
    assert INGEST_DEFAULT.min_words == 600
    assert INGEST_DEFAULT.required_lang == "en"
    assert PDF_STAGE.min_words == 1000
    assert PDF_STAGE.max_words == 6000
    assert corpus.SHIPPED_POLICIES["pdf-stage"] is PDF_STAGE


# --- one JSON decoder and one CSV writer ----------------------------------------

def loads_calls():
    """(module, innermost enclosing function) of every call in the package of
    a function named loads, such as json.loads."""
    root = Path(corpus.__file__).parent
    calls = []

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func).split(".")[-1] == "loads":
                calls.append((module, func))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if is_def else func)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text("utf-8")), path.relative_to(root).as_posix(), None)
    return calls


def test_one_json_decoder():
    """Every file traitlex reads is parsed by _util.decode_json, which gives
    each reader the same fault handling; a second json.loads would not."""
    assert loads_calls() == [("_util.py", "decode_json")]


@given(st.lists(st.lists(st.text(), min_size=2, max_size=4), max_size=5))
def test_csv_text_reads_back_through_csv_reader(rows):
    """Any rows of two or more fields come back from csv.reader as they were,
    and rows without a comma, a quote, \\r or \\n keep their joined bytes."""
    text = _util.csv_text(rows)
    assert list(csv.reader(io.StringIO(text, newline=""))) == rows
    if not any(c in field for row in rows for field in row for c in ',"\r\n'):
        assert text == "".join(",".join(row) + "\n" for row in rows)


def test_one_csv_writer():
    """Every CSV traitlex writes is formatted by _util.csv_text, which quotes
    the fields that need it; a hand-joined row would not."""
    root = Path(corpus.__file__).parent
    writers = [path.relative_to(root).as_posix() for path in sorted(root.rglob("*.py"))
               if any(s in path.read_text("utf-8") for s in ("csv.writer", '",".join('))]
    assert writers == ["_util.py"]
