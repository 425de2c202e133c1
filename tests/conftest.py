import random
from pathlib import Path

import pytest

from verseforge.corpus import Verse
from verseforge.phonetics import Lexicon, is_vowel, load_lexicon, transcribe

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


def uncached_vowels(word: str, lex: Lexicon) -> tuple[str, ...]:
    """Vowel symbols of ``transcribe(word, lex)``, bypassing the lexicon's vowel memo."""
    return tuple(filter(is_vowel, transcribe(word, lex)))


@pytest.fixture(scope="session")
def toy_lex(tmp_path_factory) -> Lexicon:
    path = tmp_path_factory.mktemp("lex") / "toy.dict"
    path.write_text(TOY_LEXICON, encoding="utf-8")
    return load_lexicon(path)


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
