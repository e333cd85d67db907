"""Raw JSONL texts for the trait workloads, drawn from a seed.

Every text carries one Neuroticism score.  Its tokens mix stopwords,
filler words and adjectives from the bundled list, with sentence case,
the odd shouted word, commas, sentence ends and typographic apostrophes,
so ingest exercises the same tokenizer paths as real prose.  How often an
adjective appears depends smoothly on the score bin: each adjective has a
preferred position on the score axis and a floor of mass everywhere else,
so no adjective is exclusive to one bin.

The generator keeps, for every text, the facts the output checks need:
its score bin, its exact token count and the count of each adjective in
it.  Those are known by construction, not read back from the program.
"""

import json
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

N_BINS = 8
LO, HI = 0.1, 0.9
ADJECTIVE_DENSITY = 0.03  # share of tokens that are adjectives
STOPWORD_SHARE = 0.42
UNTAGGED_SHARE = 1 / 3  # records without a "lang" field
# Width of each adjective's preference on the score axis, and the mass it
# keeps far from it; these set held-out marginal accuracy near 0.75.
SHARPNESS = 0.15
FLOOR = 0.25

# Common nouns, verbs and adverbs; anything that is also a bundled
# adjective or a stopword is dropped when the vocabulary is built.
_FILLER = """
time year people way day man thing woman life child world school state family
student group country problem hand part place case week company system program
question work government number night point home water room mother area money
story fact month lot right study book eye job word business issue side kind head
house service friend father power hour game line end member law car city name
team minute idea kid body information back parent face others level office door
health person art war history party result change morning reason research girl
guy moment air teacher force education foot boy age policy process music market
sense nation plan college interest death experience effect class control care
field development role effort rate heart drug show leader light voice wife police
mind price report decision son view relationship town road arm difference value
building action model season society tax director position player record paper
space ground form event official matter center couple site project activity star
table need court oil situation cost industry figure street image phone data picture
practice piece land product doctor wall patient worker news test movie north love
say get make go know take see come think look want give use find tell ask seem
feel try leave call keep let begin help talk turn start show hear play run move
live believe hold bring happen write provide sit stand lose pay meet include
continue set learn lead understand watch follow stop create speak read allow add
spend grow open walk win offer remember consider appear buy wait serve die send
expect build stay fall cut reach kill remain suggest raise pass sell require decide
really always often sometimes never usually maybe perhaps almost already still
yesterday today tomorrow soon later anyway somehow quite rather
don't can't won't isn't i'm it's that's we're they're i've you'll
"""

# Sentence-final and inner punctuation, chosen per token.
_ENDS = (".", ".", ".", "!", "?")
_INNER = (",", ",", ";", ":")


def _wordlist(name):
    text = resources.files("traitlex").joinpath(f"data/{name}").read_text("utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]


@dataclass(frozen=True)
class RawText:
    """One JSONL record plus the ground truth the checks compare against."""

    id: str
    line: str
    text: str
    score: float
    bin: int
    n_tokens: int
    tagged: bool
    adjectives: dict  # adjective -> occurrences


class TextGenerator:
    """Seeded vocabulary and per-bin adjective tables."""

    def __init__(self, seed, adjectives):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 91])))
        stop = [w for w in _wordlist("stopwords.txt") if w not in adjectives]
        adj = sorted(w for w in adjectives if w not in set(stop))
        filler = sorted(
            {w for w in _FILLER.split() if w not in adjectives and w not in set(stop)}
        )
        self.adjectives = adj
        self.vocab = adj + stop + filler
        self._stop_ids = np.arange(len(adj), len(adj) + len(stop))
        self._filler_ids = np.arange(len(adj) + len(stop), len(self.vocab))
        self._stop_cdf = _zipf_cdf(len(stop), 0.9)
        self._filler_cdf = _zipf_cdf(len(filler), 0.7)
        popularity = 1.0 / np.arange(1, len(adj) + 1) ** 0.8
        popularity = popularity[rng.permutation(len(adj))]
        centers = rng.random(len(adj))
        mids = (np.arange(N_BINS) + 0.5) / N_BINS
        pref = np.exp(-((mids[:, None] - centers[None, :]) ** 2) / (2 * SHARPNESS ** 2))
        tables = popularity[None, :] * (FLOOR + pref)
        self._adj_cdf = np.cumsum(tables / tables.sum(axis=1, keepdims=True), axis=1)
        forms = []
        for w in self.vocab:
            shown = w.replace("'", "’") if "'" in w and len(w) % 2 else w
            forms.append((shown, shown.capitalize(), shown.upper()))
        self._forms = np.array(forms, dtype=object)
        self._seps = np.array(("", *_ENDS, *_INNER), dtype=object)

    def text(self, rng, k, n_tokens):
        """Token ids and rendered text for one text of score bin k."""
        kind = rng.random(n_tokens)
        ids = np.empty(n_tokens, dtype=np.int64)
        is_adj = kind < ADJECTIVE_DENSITY
        is_stop = ~is_adj & (kind < ADJECTIVE_DENSITY + STOPWORD_SHARE)
        is_fill = ~is_adj & ~is_stop
        ids[is_adj] = _draw(rng, self._adj_cdf[k], int(is_adj.sum()))
        ids[is_stop] = self._stop_ids[_draw(rng, self._stop_cdf, int(is_stop.sum()))]
        ids[is_fill] = self._filler_ids[_draw(rng, self._filler_cdf, int(is_fill.sum()))]
        # Sentences of 6..24 tokens: capitalise the first, end the last.
        case = np.zeros(n_tokens, dtype=np.int64)
        sep = np.zeros(n_tokens, dtype=np.int64)
        starts = np.cumsum(rng.integers(6, 25, size=n_tokens // 6 + 1))
        starts = np.concatenate(([0], starts[starts < n_tokens]))
        case[starts] = 1
        ends = np.concatenate((starts[1:] - 1, [n_tokens - 1]))
        sep[ends] = rng.integers(1, 1 + len(_ENDS), size=ends.size)
        inner = (rng.random(n_tokens) < 0.06) & (sep == 0)
        sep[inner] = rng.integers(1 + len(_ENDS), len(self._seps), size=int(inner.sum()))
        case[rng.random(n_tokens) < 0.01] = 2
        words = self._forms[ids, case] + self._seps[sep]
        return ids, " ".join(words.tolist())

    def record(self, rng, index, n_tokens, tagged):
        """One raw record with a score drawn uniformly inside a random bin."""
        k = int(rng.integers(0, N_BINS))
        width = (HI - LO) / N_BINS
        score = round(LO + (k + 0.02 + 0.96 * float(rng.random())) * width, 4)
        ids, text = self.text(rng, k, n_tokens)
        adj_ids = ids[ids < len(self.adjectives)]
        adjectives = {self.adjectives[i]: int(c) for i, c in Counter(adj_ids.tolist()).items()}
        record = {"id": f"t{index:05d}", "text": text, "scores": {"N": score}}
        if tagged:
            record["lang"] = "en"
        return RawText(
            id=record["id"], line=json.dumps(record), text=text, score=score, bin=k,
            n_tokens=n_tokens, tagged=tagged, adjectives=adjectives,
        )


def _zipf_cdf(n, exponent):
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return np.cumsum(weights / weights.sum())


def _draw(rng, cdf, size):
    idx = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    return np.minimum(idx, cdf.size - 1)


def make_texts(gen, seed, stream, lengths):
    """Records with the given token counts; the record order is shuffled."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
    lengths = rng.permutation(np.asarray(lengths, dtype=np.int64))
    tagged = rng.random(lengths.size) >= UNTAGGED_SHARE
    return [
        gen.record(rng, i, int(n), bool(t)) for i, (n, t) in enumerate(zip(lengths, tagged))
    ]


def write_jsonl(texts, path):
    path.write_text("".join(t.line + "\n" for t in texts), encoding="utf-8")
    return path.stat().st_size
