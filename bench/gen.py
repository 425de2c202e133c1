"""Deterministic input generator for the verseforge benchmark.

Every file is drawn from ``random.Random(seed)``, so one seed always yields
the same bytes. verseforge only ever sees the files written here. The
generator also measures the input properties the workloads depend on (OOV
share, repeated words) and returns them so each result can record what its
numbers rest on. Properties that depend on how verseforge reads the inputs,
such as query/document term overlap in the loaded index, are measured by
the worker.
"""

from __future__ import annotations

import json
import random
from itertools import accumulate
from pathlib import Path

SIZES = {
    # "full" is what the benchmark measures; "smoke" exists for the quick
    # self-test and keeps every code path while shrinking every input.
    "full": {
        "lexicon_words": 125_000,
        "vocabulary": 30_000,
        "rerank_batches": 32,
        # 25 songs (about 500 verse blocks) rather than 100: see README.md,
        # "Workloads", on why the pipeline corpus is this size.
        "lyrics_songs": 25,
        "verses_per_song": 20,
        "news_docs": 400,
        "retrieval_docs": 10_000,
        "queries": 300,
        "server_songs": 25,
        "remote_verses": 32,
    },
    "smoke": {
        "lexicon_words": 3_000,
        "vocabulary": 1_500,
        "rerank_batches": 3,
        "lyrics_songs": 10,
        "verses_per_song": 10,
        "news_docs": 12,
        "retrieval_docs": 300,
        "queries": 12,
        "server_songs": 6,
        "remote_verses": 3,
    },
}

HYPOTHESES_PER_BATCH = 24
VERSE_LINES = 16
OOV_SHARE = 0.05
DENY_WORDS = 30

# Spellings for ARPABET phonemes; several vowels share letters on purpose,
# as English spelling does, so orthography is a poor guide to rhyme.
_VOWELS = {
    "AA": "a", "AE": "a", "AH": "u", "AO": "aw", "AW": "ow", "AY": "i",
    "EH": "e", "ER": "er", "EY": "ay", "IH": "i", "IY": "ee", "OW": "o",
    "OY": "oy", "UH": "oo", "UW": "oo",
}
_ONSETS = {
    "B": "b", "D": "d", "F": "f", "G": "g", "HH": "h", "JH": "j", "K": "k",
    "L": "l", "M": "m", "N": "n", "P": "p", "R": "r", "S": "s", "T": "t",
    "V": "v", "W": "w", "Z": "z", "CH": "ch", "SH": "sh", "TH": "th",
    "S T": "st", "B R": "br", "G R": "gr", "K L": "cl", "F L": "fl", "T R": "tr",
}
_CODAS = {
    "N": "n", "T": "t", "D": "d", "K": "ck", "L": "ll", "M": "m", "P": "p",
    "R": "r", "S": "ss", "NG": "ng", "N T": "nt", "S T": "st", "N D": "nd",
    "K S": "x", "L D": "ld",
}
_SYLLABLES = (1, 2, 3, 4)
_SYLLABLE_WEIGHTS = (30, 40, 20, 10)

# Common English function words. Like real CMUdict, the lexicon lists them;
# the bundled stopword list removes most of them from news text.
FUNCTION_WORDS = (
    "the of and to a in is that for it as was with be by on not he this are "
    "or his from at which but have an they you were her she there been one "
    "all we their has would when if so no will more out up who them some "
    "could its into than two only other new after over also our most"
).split()
_VOWELLESS = ("brr", "hmm", "shh", "pfft", "psst", "tsk", "grr", "mmm")
_NUMBERS = ("12", "1,000", "3.5", "2019", "40", "7", "250", "9.75")
_LEXICON_HEADER = """\
;;; # Synthetic pronunciation lexicon in CMUdict plain-text format.
;;; # Generated for the verseforge benchmark; one entry per line,
;;; # alternate pronunciations as WORD(2), stress digits on vowels.
"""


class _Words:
    """Synthetic lexicon, Zipf vocabulary with a fixed OOV share."""

    def __init__(self, rng: random.Random, size: dict):
        self.rng = rng
        taken = set(FUNCTION_WORDS) | set(_VOWELLESS)
        self.pron: dict[str, list[str]] = {
            w: self._function_word_pron() for w in FUNCTION_WORDS
        }
        generated: list[str] = []
        n_oov = max(50, size["vocabulary"] // 10)
        while len(generated) < size["lexicon_words"] + n_oov:
            spelling, phones = self._word()
            if spelling not in taken:
                taken.add(spelling)
                generated.append(spelling)
                self.pron[spelling] = phones
        oov = generated[size["lexicon_words"]:]
        for w in oov:
            del self.pron[w]
        self.in_lexicon = set(self.pron)
        vocab = generated[: size["lexicon_words"]]
        rng.shuffle(vocab)
        self.vocab = vocab[: size["vocabulary"]]
        self.oov = oov + list(_VOWELLESS)
        self._cum = list(accumulate(1.0 / (r + 8) for r in range(len(self.vocab))))
        self._cum_oov = list(accumulate(1.0 / (r + 8) for r in range(len(self.oov))))

    def _function_word_pron(self) -> list[str]:
        return [self.rng.choice(list(_ONSETS)).split()[0], self.rng.choice(list(_VOWELS)) + "1"]

    def _word(self) -> tuple[str, list[str]]:
        rng = self.rng
        n = rng.choices(_SYLLABLES, _SYLLABLE_WEIGHTS)[0]
        stressed = rng.randrange(n)
        spelling, phones = [], []
        for i in range(n):
            if rng.random() < 0.85:
                onset = rng.choice(list(_ONSETS))
                phones.extend(onset.split())
                spelling.append(_ONSETS[onset])
            vowel = rng.choice(list(_VOWELS))
            phones.append(vowel + ("1" if i == stressed else rng.choice("002")))
            spelling.append(_VOWELS[vowel])
            if rng.random() < 0.5:
                coda = rng.choice(list(_CODAS))
                phones.extend(coda.split())
                spelling.append(_CODAS[coda])
        word = "".join(spelling)
        if rng.random() < 0.01:
            word += "'s"
            phones.append("Z")
        return word, phones

    def draw(self, n: int) -> list[str]:
        """``n`` Zipf-distributed words, about ``OOV_SHARE`` of them unknown."""
        rng = self.rng
        out = []
        for _ in range(n):
            if rng.random() < OOV_SHARE:
                out.append(rng.choices(self.oov, cum_weights=self._cum_oov)[0])
            else:
                out.append(rng.choices(self.vocab, cum_weights=self._cum)[0])
        return out

    def write_lexicon(self, path: Path) -> int:
        """CMUdict-format file; returns its entry count including variants."""
        rng = self.rng
        lines = []
        for word in sorted(self.pron):
            phones = self.pron[word]
            lines.append(f"{word.upper()}  {' '.join(phones)}")
            if rng.random() < 0.07:
                variant = [p.replace("0", "2") if p[-1] == "0" else p for p in phones]
                if variant == phones:
                    variant = phones + ["Z"]
                lines.append(f"{word.upper()}(2)  {' '.join(variant)}")
        path.write_text(_LEXICON_HEADER + "\n".join(lines) + "\n", encoding="utf-8")
        return len(lines)


def _verse_lines(words: _Words, n_lines: int) -> list[list[str]]:
    rng = words.rng
    return [words.draw(rng.randint(7, 9)) for _ in range(n_lines)]


def _prose_sentence(words: _Words, n_tokens: int) -> str:
    rng = words.rng
    toks = []
    for _ in range(n_tokens):
        r = rng.random()
        if r < 0.35:
            toks.append(rng.choice(FUNCTION_WORDS))
        elif r < 0.39:
            toks.append(rng.choice(_NUMBERS))
        else:
            toks.append(words.draw(1)[0])
        if rng.random() < 0.06:
            toks[-1] += ","
    toks[0] = toks[0].capitalize()
    return " ".join(toks).rstrip(",") + "."


def _lyrics_song(words: _Words, n_verses: int) -> str:
    rng = words.rng
    blocks = []
    for v in range(n_verses):
        # Every fifth block is a two-line hook that split_verses drops.
        n_lines = 2 if v % 5 == 4 else rng.randint(4, 8)
        blocks.append(
            "\n".join(" ".join(line).capitalize() for line in _verse_lines(words, n_lines))
        )
    return "\n\n".join(blocks) + "\n"


def _write_lyrics_dir(words: _Words, path: Path, n_songs: int, n_verses: int) -> None:
    path.mkdir()
    for i in range(n_songs):
        (path / f"song_{i:03d}.txt").write_text(_lyrics_song(words, n_verses), encoding="utf-8")


def _write_deny(words: _Words, path: Path) -> None:
    # Frequent words, so the deny list really removes candidates.
    deny = sorted(set(words.vocab[: DENY_WORDS * 3 : 3]))
    path.write_text("\n".join(deny) + "\n", encoding="utf-8")


def _perturb(words: _Words, base: list[list[str]]) -> list[list[str]]:
    rng = words.rng
    lines = []
    for line in base:
        if rng.random() < 0.03:
            line = rng.choice(base)
        new = [words.draw(1)[0] if rng.random() < 0.12 else w for w in line]
        if rng.random() < 0.25:
            new[-1] = words.draw(1)[0]
        if rng.random() < 0.04:
            new[rng.randrange(len(new) - 1)] += ","
        if rng.random() < 0.03:
            new[-1] += "?"
        lines.append(new)
    return lines


def _word_tokens(text: str) -> list[str]:
    toks = (t.strip('.,!?;:"()[]').lower() for t in text.replace("<nl>", " ").split())
    return [t for t in toks if t and not t[0].isdigit()]


def _unit_properties(words: _Words, unit_texts: list[str]) -> dict:
    tokens = repeated = oov = 0
    for text in unit_texts:
        toks = _word_tokens(text)
        tokens += len(toks)
        repeated += len(toks) - len(set(toks))
        oov += sum(1 for t in toks if t not in words.in_lexicon)
    return {
        "units": len(unit_texts),
        "word_tokens": tokens,
        "oov_share": oov / tokens,
        "repeated_word_share": repeated / tokens,
    }


def generate(workload: str, seed: int, size_name: str, out: Path) -> dict:
    """Write the inputs of ``workload`` under ``out``; return their properties."""
    size = SIZES[size_name]
    rng = random.Random(f"verseforge-bench:{workload}:{seed}")
    out.mkdir(parents=True)
    props: dict = {"workload": workload, "seed": seed, "size": size_name}
    if workload == "retrieval":
        return _retrieval(rng, size, out, props)
    words = _Words(rng, size)
    props["lexicon_entries"] = words.write_lexicon(out / "lexicon.dict")
    if workload == "rerank":
        (out / "batches").mkdir()
        texts = []
        for b in range(size["rerank_batches"]):
            base = _verse_lines(words, VERSE_LINES)
            hyps = [_perturb(words, base) for _ in range(HYPOTHESES_PER_BATCH)]
            order = list(range(HYPOTHESES_PER_BATCH))
            rng.shuffle(order)
            records = [
                json.dumps({"rank": r, "text": " <nl> ".join(" ".join(l) for l in hyps[r])})
                for r in order
            ]
            text = "\n".join(records) + "\n"
            (out / "batches" / f"batch_{b:03d}.jsonl").write_text(text, encoding="utf-8")
            texts.append(" ".join(" ".join(line) for hyp in hyps for line in hyp))
        props.update(_unit_properties(words, texts))
        props["hypotheses_per_batch"] = HYPOTHESES_PER_BATCH
    elif workload == "pipeline":
        _write_lyrics_dir(words, out / "lyrics", size["lyrics_songs"], size["verses_per_song"])
        _write_deny(words, out / "deny.txt")
        (out / "news").mkdir()
        texts = []
        for i in range(size["news_docs"]):
            text = "\n".join(
                _prose_sentence(words, rng.randint(8, 25)) for _ in range(rng.randint(2, 6))
            )
            (out / "news" / f"doc_{i:04d}.txt").write_text(text + "\n", encoding="utf-8")
            texts.append(text)
        config = {
            "lexicon_path": str(out / "lexicon.dict"),
            "corpus_path": str(out / "lyrics"),
            "deny_path": str(out / "deny.txt"),
            "noise": "shuffle",
            "seed": seed,
            "enhance": {"k": 200, "mode": "first_improvement"},
            "predictor": "corpus",
        }
        (out / "config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")
        props.update(_unit_properties(words, texts))
        props["lyrics_songs"] = size["lyrics_songs"]
    elif workload == "remote_enhance":
        _write_lyrics_dir(words, out / "server_lyrics", size["server_songs"], size["verses_per_song"])
        _write_deny(words, out / "deny.txt")
        verses = [_verse_lines(words, VERSE_LINES) for _ in range(size["remote_verses"])]
        texts = ["\n".join(" ".join(l) for l in v) for v in verses]
        (out / "verses.txt").write_text("\n\n".join(texts) + "\n", encoding="utf-8")
        props.update(_unit_properties(words, texts))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return props


def _retrieval(rng: random.Random, size: dict, out: Path, props: dict) -> dict:
    words = _Words(rng, {**size, "lexicon_words": size["vocabulary"]})
    docs = [
        " ".join(_prose_sentence(words, rng.randint(8, 20)) for _ in range(rng.randint(1, 3)))
        for _ in range(size["retrieval_docs"])
    ]
    (out / "news.txt").write_text("\n".join(docs) + "\n", encoding="utf-8")
    queries = [" ".join(words.draw(rng.randint(5, 40))) for _ in range(size["queries"])]
    (out / "queries.json").write_text(json.dumps(queries), encoding="utf-8")
    props.update(_unit_properties(words, queries))
    props["documents"] = len(docs)
    return props
