import random
from pathlib import Path

import pytest

from verseforge.corpus import Verse
from verseforge.enhance import CandidateList, PredictorProtocolError
from verseforge.phonetics import (
    _VARIANT_RE,
    LexiconFormatError,
    Lexicon,
    Pronunciation,
    is_vowel,
    load_lexicon,
    strip_stress,
    transcribe,
)

DATA_DIR = Path(__file__).parent / "data"
PKG_DATA_DIR = Path(__file__).parent.parent / "src" / "verseforge" / "data"

# 20-word toy lexicon with heavy vowel collisions, so random verses rhyme
# often enough to exercise every matching path.
TOY_LEXICON = """\
BAT  B AE1 T
CAT  K AE1 T
HAT  HH AE1 T
DAY  D EY1
WAY  W EY1
PLAY  P L EY1
FREE  F R IY1
TREE  T R IY1
SEA  S IY1
GO  G OW1
SLOW  S L OW1
FLOW  F L OW1
NIGHT  N AY1 T
LIGHT  L AY1 T
FIGHT  F AY1 T
SOUL  S OW1 L
GOLD  G OW1 L D
RAIN  R EY1 N
PAIN  P EY1 N
HURRICANE  HH ER1 AH0 K EY2 N
"""

TOY_WORDS = [line.split()[0].lower() for line in TOY_LEXICON.splitlines()]

# Toy words plus mixed-case, out-of-lexicon, vowel-less and punctuation
# tokens, for the property tests of the memoised and early-exit fast paths.
MIXED_TOKENS = TOY_WORDS + [
    "Day", "NIGHT", "Bat", "zorbly", "splay", "yolk", "hmm", "brr", ",", "?", "...", "'s", "x9"
]


def reference_load_lexicon(path: str | Path) -> Lexicon:
    """Reference: the per-line parser that strips every phoneme separately.

    Its entries are a plain dict, built eagerly, so checks run over it do
    not go through :func:`load_lexicon`'s parse on first lookup.
    """
    path = Path(path)
    entries: dict[str, Pronunciation] = {}
    with path.open(encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(";;;"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise LexiconFormatError(
                    f"{path}:{lineno}: expected 'WORD PH1 PH2 ...', got {line!r}"
                )
            word = parts[0].lower()
            if _VARIANT_RE.match(word):
                continue
            if word in entries:
                continue
            entries[word] = tuple(strip_stress(p) for p in parts[1:])
    return Lexicon(entries=entries, source=str(path))


def reference_parse_response(resp, k: int) -> CandidateList:
    """Reference: the remote reply parse that checks one candidate at a time.

    It decodes as the client does (``resp.json()``) and raises the client's
    messages, so a test can compare both on any reply body.
    """
    excerpt = resp.text[:200]
    try:
        body = resp.json()
    except ValueError as exc:
        raise PredictorProtocolError(f"response is not JSON: {excerpt!r}") from exc
    if not isinstance(body, dict) or not isinstance(body.get("candidates"), list):
        raise PredictorProtocolError(f"missing 'candidates' list: {excerpt!r}")
    pairs = []
    for item in body["candidates"]:
        if (
            not isinstance(item, dict)
            or not isinstance(item.get("token"), str)
            or not isinstance(item.get("score"), (int, float))
            or isinstance(item["score"], bool)
        ):
            raise PredictorProtocolError(f"malformed candidate entry: {excerpt!r}")
        try:
            pairs.append((item["token"], float(item["score"])))
        except OverflowError as exc:
            raise PredictorProtocolError(f"score out of float range: {excerpt!r}") from exc
    if len(pairs) > k:
        raise PredictorProtocolError(
            f"{len(pairs)} candidates exceed requested k={k}: {excerpt!r}"
        )
    try:
        return CandidateList(tuple(pairs))
    except ValueError as exc:
        raise PredictorProtocolError(f"{exc}: {excerpt!r}") from exc


def uncached_vowels(word: str, lex: Lexicon) -> tuple[str, ...]:
    """Vowel symbols of ``transcribe(word, lex)``, bypassing the lexicon's vowel memo."""
    return tuple(filter(is_vowel, transcribe(word, lex)))


def brute_force_lengths(tokens, lex, window=15, exclude_identical=True):
    """Exhaustive (i, j, k) enumeration of matching vowel suffixes.

    Independent of the shipped scan and of the lexicon's vowel memo: the
    stream is built from uncached transcriptions, and every candidate k is
    tested by slice comparison over it. Run it over a lexicon from
    :func:`reference_load_lexicon` to keep the lexicon parse out of it too.
    """
    vowels, marks = [], []
    for tok in tokens:
        vowels.extend(uncached_vowels(tok, lex))
        marks.append(len(vowels))
    out = []
    for i, tok in enumerate(tokens):
        start = marks[i - 1] if i else 0
        if marks[i] == start:  # word without vowels
            out.append(0)
            continue
        best = 0
        for j in range(max(0, i - window), i):
            if exclude_identical and tokens[j] == tok:
                continue
            for k in range(1, min(marks[i], marks[j]) + 1):
                if vowels[marks[i] - k : marks[i]] == vowels[marks[j] - k : marks[j]]:
                    best = max(best, k)
        out.append(best)
    return out


@pytest.fixture(scope="session")
def toy_lex_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("lex") / "toy.dict"
    path.write_text(TOY_LEXICON, encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def toy_lex(toy_lex_path) -> Lexicon:
    return load_lexicon(toy_lex_path)


@pytest.fixture(scope="session")
def toy_reference_lex(toy_lex_path) -> Lexicon:
    """The toy lexicon parsed eagerly by :func:`reference_load_lexicon`."""
    return reference_load_lexicon(toy_lex_path)


@pytest.fixture(scope="session")
def sample_lex() -> Lexicon:
    return load_lexicon(PKG_DATA_DIR / "cmudict_sample.txt")


@pytest.fixture(scope="session")
def mini_corpus_dir() -> Path:
    return DATA_DIR / "mini_corpus"


def random_verse(rng: random.Random, words=None, min_lines=2, max_lines=6) -> Verse:
    words = words or TOY_WORDS
    n_lines = rng.randint(min_lines, max_lines)
    lines = [
        [rng.choice(words) for _ in range(rng.randint(3, 8))]
        for _ in range(n_lines)
    ]
    return Verse(lines)
