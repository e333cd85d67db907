"""The density-model commands end to end: output bytes, model files, bad input.

The digests below were recorded with the code that kept one `WordPdf`
object per word and wrote format-version-1 models.  The count matrix that
replaced it must reproduce every output byte for byte.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from traitlex import synthgen
from traitlex._util import save_checked_json
from traitlex.binning import BinningScheme
from traitlex.cli import main
from traitlex.corpus import CorpusStore, load_store, persist_store
from traitlex.errors import ModelFormatError
from traitlex.pdfmodel import PdfPersonalityModel, build_model, load_model

DATA_DIR = Path(__file__).parent / "data"
ALPHAS = (0, 1)


def run(*args):
    return main([str(a) for a in args])


def write_corpora(root):
    """A training store and a held-out store that exercises every skip.

    Held-out lengths straddle the pdf-stage band (1000, 6000); bin 0 of the
    held-out corpus also draws bin 7's words, so with alpha 0 those samples
    have no bin left with mass; every fifth held-out sample has no score.
    """
    vocab = synthgen.make_bin_vocab(8, 10, overlap_fraction=0.3, seed=31)
    train = synthgen.generate_corpus(synthgen.GeneratorSpec(
        seed=31, n_samples=240, words_per_sample=(900, 2400), vocab=vocab,
    ))
    mixed = ({**vocab[0], **vocab[7]},) + vocab[1:]
    held = synthgen.generate_corpus(synthgen.GeneratorSpec(
        seed=32, n_samples=120, words_per_sample=(700, 6400), vocab=mixed,
    ))
    samples = tuple(
        replace(s, scores=None) if i % 5 == 4 else s for i, s in enumerate(held.samples)
    )
    persist_store(train, root / "train")
    persist_store(CorpusStore.from_samples(samples, held.lexicon_name, held.lexicon_version,
                                           extra=held.extra), root / "held")


def run_pipeline(root):
    """pdf-build, pdf-eval and pdf-predict for each alpha under root."""
    write_corpora(root)
    for alpha in ALPHAS:
        model = root / f"model-a{alpha}"
        assert run("pdf-build", "--corpus", root / "train", "--trait", "N",
                   "--min-word-freq", 50, "--alpha", alpha, "--out", model) == 0
        for command in ("pdf-eval", "pdf-predict"):
            assert run(command, "--model", model / "model.json", "--corpus",
                       root / "held", "--out", root / f"{command}-a{alpha}") == 0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    run_pipeline(root)
    return root


def csv_rows(path):
    return path.read_text("utf-8").splitlines()


OUTPUT_DIGESTS = {
    "pdf-eval-a0/predictions.csv": "563c49eed0b44cb16cc7e96df8e6721f63e7d44aedd42476c52db8aff3525848",
    "pdf-eval-a0/skipped.csv": "f20e771469c48a400f64557c14a181d3b938ce6cc4410af6c8244e78f6a8665c",
    "pdf-eval-a0/report.csv": "340ae2fcc7723b95fa6065f376c64a3a3028407debb501897bb4041504487ca1",
    "pdf-eval-a0/curve.csv": "feef2c5a0058dce0dd44759b94eabcb888617b2162e1b81a3478fadbb1db330f",
    "pdf-eval-a1/predictions.csv": "9d5286ae1ca30dc4c8378b0b78e417c7506318c00b82604fc113d146e6e3abb3",
    "pdf-eval-a1/skipped.csv": "f71697e0fd18dd5111b7b550fbdc45d7a48c918df781ff38f3d87c1b41489c25",
    "pdf-eval-a1/report.csv": "9b4a070925e90b8306de3e436c0e38cccf6b77fea09ce8e33ebff74d8eb8f128",
    "pdf-eval-a1/curve.csv": "17703fb4df5d5eca6174fa26d73f39c81d534b5a5d29d34ea65f3180032f8604",
    "pdf-predict-a0/predictions.csv": "c3ca5997de5f29dc9cf9e1380f57807d8be36cd941e6e1a2a4a6d8c996a95c00",
    "pdf-predict-a0/skipped.csv": "57744722d987df912dad14bd0c4f642b0f4579e6d007b23a26a23dbbccd49811",
    "pdf-predict-a1/predictions.csv": "3944f0ddd3a94fcb7371ca7e6d242ac362acd9537e3a52b3c62b294295d6a491",
    "pdf-predict-a1/skipped.csv": "127235389b7fe08e065c0486d947b3201345a3f8675cf39509f6109232092152",
}


def test_pdf_outputs_keep_their_bytes(pipeline):
    got = {
        name: hashlib.sha256((pipeline / name).read_bytes()).hexdigest()
        for name in OUTPUT_DIGESTS
    }
    assert got == OUTPUT_DIGESTS
    # the recorded outputs cover every skip reason and unscored samples
    skipped = csv_rows(pipeline / "pdf-eval-a0/skipped.csv")[1:]
    assert {row.split(",")[1] for row in skipped} == {"min_words", "max_words", "degenerate"}
    predicted = csv_rows(pipeline / "pdf-predict-a0/predictions.csv")
    assert any(row.endswith(",") for row in predicted)


# The store files write_corpora persists.  counts.npy was recorded with
# corpus format version 5, where it holds exactly the integer lists of the
# version 4 counts.json; the manifest with version 7, where its payload is
# the version 6 manifest without the texts.jsonl checksum.
STORE_DIGESTS = {
    "train/counts.npy": "8a194368ddf9199100e2d98ff8b3acfd83358f8656f934acaf4f8e9f48654e73",
    "train/manifest.json": "fdf1a801c1f0183457c30d67a3ae5bf479728d80a5ba5b7552bf7766a26ff4c3",
    "held/counts.npy": "b310c261d0dd9ae85a51e02b2ccc3fb30522cc7a766a07725592428022a8bbd2",
    "held/manifest.json": "c7fe97e70d11567002bcc1a6d1b9e9c8bd23c2fcbfbfba2b7299a3fb86ba1014",
}


def test_store_files_keep_their_bytes(pipeline):
    got = {name: hashlib.sha256((pipeline / name).read_bytes()).hexdigest()
           for name in STORE_DIGESTS}
    assert got == STORE_DIGESTS


def write_ingest_input(path):
    """Raw records whose texts hold every kind of character a JSON string
    escapes, and some it does not, plus one record too short to accept."""
    body = " ".join(["the happy dog and the big cat went over there"] * 70)
    texts = {
        "plain": body,
        "quoted": f'she said "hello" and {body}',
        "lines": f"{body}\nnew line\r\nand\ta tab",
        "slashes": f"C:\\path\\to\\file {body} \\ud800 \\n",
        "curly": f"don’t stop {body} ’ é \U0001F600 \u2028 \u2029 \x7f",
        "controls": f"{body} \x00\x01\x08\x0b\x0c\x1b\x1f",
        "a,comma": f'{body} "’"\n',
        'short,"one"': 'too "short" to keep',
    }
    records = [{"id": i, "text": t, "scores": {"N": n / 10}}
               for n, (i, t) in enumerate(texts.items())]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), "utf-8")


# What `ingest` writes for write_ingest_input's records.  The rejections were
# recorded with corpus format version 4, counts.npy with version 5 and the
# manifest with version 7.
INGEST_DIGESTS = {
    "counts.npy": "e705b790d89d2843e4a00db11bfb7e7b03af3c1d0c10730509c14546e5f8000d",
    "manifest.json": "a18a20b37c7981a1bb0cc266f04dcbfb51d0b3a6f84d88e1a0c0a1f34e33abfb",
    "rejections.csv": "2296fd4550635915cc0c0ac132f8ebb62acab7efa4c6bcd8d24dd4e532002c22",
}


def test_ingest_outputs_keep_their_bytes(tmp_path):
    write_ingest_input(tmp_path / "raw.jsonl")
    assert run("ingest", "--input", tmp_path / "raw.jsonl", "--out", tmp_path / "store") == 0
    got = {name: hashlib.sha256((tmp_path / "store" / name).read_bytes()).hexdigest()
           for name in INGEST_DIGESTS}
    assert got == INGEST_DIGESTS
    assert not (tmp_path / "store" / "counts.json").exists()
    assert len(load_store(tmp_path / "store")) == 7


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pdf_predict_rows_match_pdf_eval_rows_for_scored_samples(pipeline, alpha):
    evaluated = csv_rows(pipeline / f"pdf-eval-a{alpha}/predictions.csv")
    predicted = csv_rows(pipeline / f"pdf-predict-a{alpha}/predictions.csv")
    assert [row for row in predicted if not row.endswith(",")] == evaluated
    assert len(predicted) > len(evaluated)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_loaded_model_is_bitwise_the_built_one(pipeline, alpha):
    path = pipeline / f"model-a{alpha}/model.json"
    payload = json.loads(path.read_text("utf-8"))
    assert payload["format_version"] == 3
    assert "mass" not in payload and "pdfs" not in payload
    loaded = load_model(path)
    built = build_model(load_store(pipeline / "train"), "N", min_word_freq=50,
                        smoothing_alpha=float(alpha))
    assert loaded.vocab == built.vocab == tuple(payload["vocab"])
    assert loaded.counts.tolist() == built.counts.tolist() == payload["counts"]
    for name in ("g", "counts", "mass", "log_mass"):
        a, b = getattr(loaded, name), getattr(built, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


# --- format version 1 ------------------------------------------------------------

V1_FILES = ("pdf_model_v1_alpha0.json", "pdf_model_v1_alpha0.3.json")


@pytest.mark.parametrize("name", V1_FILES)
def test_derived_mass_equals_version_1_stored_mass_bit_for_bit(name):
    v1 = json.loads((DATA_DIR / name).read_text("utf-8"))
    vocab = tuple(v1["pdfs"])
    model = PdfPersonalityModel(
        trait=v1["trait"],
        binning=BinningScheme.from_dict(v1["binning"]),
        g=np.array(v1["g"]),
        vocab=vocab,
        counts=np.array([v1["pdfs"][w]["raw_counts"] for w in vocab], dtype=np.int64),
        min_word_freq=v1["min_word_freq"],
        smoothing_alpha=v1["smoothing_alpha"],
    )
    stored = np.array([v1["pdfs"][w]["mass"] for w in vocab])
    assert model.mass.tobytes() == stored.tobytes()


@pytest.mark.parametrize("name", V1_FILES)
def test_version_1_model_is_refused_with_a_rebuild_hint(pipeline, tmp_path, name, capsys):
    with pytest.raises(ModelFormatError, match="rerun pdf-build"):
        load_model(DATA_DIR / name)
    assert run("pdf-eval", "--model", DATA_DIR / name, "--corpus", pipeline / "held",
               "--out", tmp_path / "eval") == 2
    assert "rerun pdf-build" in capsys.readouterr().err


# --- malformed version 3 files ------------------------------------------------------

DROP = object()

BAD_FIELDS = [
    ("trait", DROP), ("trait", 7),
    ("binning", DROP), ("binning", "8 bins"), ("binning", {"lo": 0.1, "hi": 0.9}),
    ("binning", {"lo": 0.9, "hi": 0.1, "n_bins": 8}),
    ("binning", {"lo": 0.1, "hi": 0.9, "n_bins": 8.5}),
    ("binning", {"lo": float("-inf"), "hi": 0.9, "n_bins": 8}),
    ("g", DROP), ("g", "30,30"), ("g", [30] * 7), ("g", [0] + [30] * 7),
    ("vocab", DROP), ("vocab", "w"), ("vocab", "reversed"), ("vocab", "repeated"),
    ("counts", DROP), ("counts", 3), ("counts", "floats"), ("counts", "short row"),
    ("counts", "missing row"), ("counts", "negative"), ("counts", "empty row"),
    ("min_word_freq", DROP), ("min_word_freq", "50"), ("min_word_freq", True),
    ("smoothing_alpha", DROP), ("smoothing_alpha", "0"), ("smoothing_alpha", -1.0),
    ("smoothing_alpha", float("inf")), ("min_word_freq", -5),
]


def corrupt(payload, field, value):
    if value is DROP:
        del payload[field]
    elif value == "reversed":
        payload["vocab"] = payload["vocab"][::-1]
    elif value == "repeated":
        payload["vocab"][1] = payload["vocab"][0]
    elif value == "floats":
        payload["counts"][0] = [c + 0.5 for c in payload["counts"][0]]
    elif value == "short row":
        payload["counts"][0] = payload["counts"][0][:-1]
    elif value == "missing row":
        payload["counts"] = payload["counts"][:-1]
    elif value == "negative":
        payload["counts"][0][0] = -1
    elif value == "empty row":
        payload["counts"][0] = [0] * len(payload["counts"][0])
    else:
        payload[field] = value


@pytest.mark.parametrize("field,value", BAD_FIELDS, ids=[
    f"{field}-{'missing' if value is DROP else value}" for field, value in BAD_FIELDS
])
def test_malformed_model_field_is_a_data_error(pipeline, tmp_path, capsys, field, value):
    payload = json.loads((pipeline / "model-a0/model.json").read_text("utf-8"))
    del payload["checksum"]
    corrupt(payload, field, value)
    path = tmp_path / "model.json"
    save_checked_json(path, payload)
    code = run("pdf-eval", "--model", path, "--corpus", pipeline / "held",
               "--out", tmp_path / "eval")
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err and repr(field) in err
