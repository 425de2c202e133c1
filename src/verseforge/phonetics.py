"""Pronunciations and vowel projections backing all rhyme math.

Words map to ARPABET-style phoneme sequences through a CMUdict-format
lexicon; out-of-vocabulary words fall back to a deterministic orthographic
rule that emits one synthetic symbol per written vowel run. Rhyme metrics
only look at the vowel projection of a pronunciation (assonance).
"""

from __future__ import annotations

import re
import weakref
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

# ARPABET vowel inventory (stress digits already stripped at load time).
ARPABET_VOWELS = frozenset(
    "AA AE AH AO AW AY EH ER EY IH IY OW OY UH UW".split()
)

# Synthetic fallback symbols only ever match each other, so unknown words
# can rhyme with identically spelled vowel runs but never with real
# dictionary vowels.
FALLBACK_PREFIX = "V:"

_STRESS_RE = re.compile(r"\d+$")
_VARIANT_RE = re.compile(r"^(.+)\(\d+\)$")
# Runs of vowel letters; a word-initial y is not a vowel.
_VOWEL_RUN_RE = re.compile(r"(?!^y)[aeiouy]+")


class LexiconFormatError(ValueError):
    """A lexicon line that cannot be parsed, reported with its line number."""


# Phoneme symbols for one word, stress digits stripped.
Pronunciation = tuple[str, ...]


@dataclass
class Lexicon:
    """Word to phoneme tuple map (first listed variant wins).

    :meth:`vowel_codes` memoises each word's vowels on its first lookup,
    so ``entries`` must not be mutated after that: a later edit would not
    reach words already looked up. A lexicon from :func:`load_lexicon`
    enforces this: its ``entries`` is a read-only mapping that parses a
    word's phonemes each time the word is looked up. The memo takes no
    part in equality or ``repr``, and every new ``Lexicon``
    (``dataclasses.replace`` included) starts with an empty one.
    """

    entries: Mapping[str, Pronunciation] = field(default_factory=dict)
    source: str | None = None
    _code_memo: _CodeMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._code_memo = _CodeMemo(self)

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, word: str) -> Pronunciation | None:
        return self.entries.get(word.lower())

    def vowels(self, word: str) -> tuple[str, ...]:
        """The vowel symbols of ``transcribe(word, self)``, transcribed on each call."""
        return tuple(filter(is_vowel, transcribe(word, self)))

    def vowel_codes(self, word: str) -> str:
        """The vowels of ``transcribe(word, self)`` coded as a string, computed once per word.

        Each character stands for one vowel symbol. Within one lexicon,
        two characters are equal exactly when their symbols are, so two
        words share a vowel suffix exactly when their codes share a suffix
        of the same length. Codes from two lexicons cannot be compared.
        """
        return self._code_memo[word]


class _CodeMemo(dict):
    """Memo of each word's vowel codes, transcribed on the word's first lookup.

    Each distinct symbol gets its own character the first time the lexicon
    sees it. Characters are drawn from one counter: threads that race on a
    new symbol keep the first stored character (``setdefault``), and the
    other one drawn is never used, so no two symbols share a character;
    ``chr`` bounds a lexicon to 1,114,112 symbols.

    It refers to its lexicon weakly: a strong reference would make a cycle,
    and a replaced lexicon would then stay in memory until the cyclic
    collector ran, rather than being freed when its last reference goes.
    """

    def __init__(self, lex: Lexicon) -> None:
        super().__init__()
        self._lex = weakref.ref(lex)
        self._codes: dict[str, str] = {}
        self._next = count()

    def _code(self, symbol: str) -> str:
        try:
            return self._codes[symbol]
        except KeyError:
            return self._codes.setdefault(symbol, chr(next(self._next)))

    def __missing__(self, word: str) -> str:
        vowels = filter(is_vowel, transcribe(word, self._lex()))
        found = self[word] = "".join(map(self._code, vowels))
        return found


def is_vowel(phoneme: str) -> bool:
    return phoneme in ARPABET_VOWELS or phoneme.startswith(FALLBACK_PREFIX)


def strip_stress(phoneme: str) -> str:
    return _STRESS_RE.sub("", phoneme)


class _StressFree(dict):
    """Memo of :func:`strip_stress`, one string object per stripped symbol."""

    def __missing__(self, phoneme: str) -> str:
        stripped = strip_stress(phoneme)
        # strip_stress is idempotent, so a stripped symbol is its own key.
        stripped = self[phoneme] = self.setdefault(stripped, stripped)
        return stripped


class _LazyEntries(Mapping):
    """Read-only word to phoneme tuple map over raw phoneme strings.

    A word's tuple is parsed each time it is looked up, and not kept.
    Length, iteration and membership read the raw strings and parse nothing.
    """

    def __init__(self, raw: dict[str, str]) -> None:
        self._raw = raw
        self._stress_free = _StressFree().__getitem__

    def __getitem__(self, word: str) -> Pronunciation:
        return tuple(map(self._stress_free, self._raw[word].split()))

    def get(self, word: str, default=None):
        return self[word] if word in self._raw else default

    def __contains__(self, word: object) -> bool:
        return word in self._raw

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self) -> Iterator[str]:
        return iter(self._raw)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a CMUdict-format pronunciation file.

    Lines look like ``FOOD  F UW1 D``. Comment lines starting with ``;;;``
    and alternate-pronunciation entries like ``FOOD(2)`` are skipped;
    stress digits are stripped. Each line is split once into its word and
    raw phoneme string; a word's phonemes are parsed on each lookup,
    with stress stripped once per distinct phoneme symbol, so all entries
    share one string object per stripped symbol.
    """
    path = Path(path)
    raw_entries: dict[str, str] = {}
    with path.open(encoding="utf-8-sig", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            # The remainder after the word starts at a phoneme, if any.
            parts = raw.split(None, 1)
            if not parts or parts[0].startswith(";;;"):
                continue
            if len(parts) < 2:
                raise LexiconFormatError(
                    f"{path}:{lineno}: expected 'WORD PH1 PH2 ...', got {parts[0]!r}"
                )
            word = parts[0].lower()
            # A word holds no whitespace, so _VARIANT_RE can only match a
            # word that ends in ")".
            if word in raw_entries or (word[-1] == ")" and _VARIANT_RE.match(word)):
                continue
            raw_entries[word] = parts[1]
    return Lexicon(entries=_LazyEntries(raw_entries), source=str(path))


def fallback_pronunciation(word: str) -> Pronunciation:
    """Orthographic fallback for out-of-lexicon words.

    Each maximal run of written vowel letters (a, e, i, o, u, always;
    y except word-initially) becomes one synthetic ``V:<run>`` symbol.
    Consonants and non-letters emit nothing; an all-consonant word yields
    an empty pronunciation.
    """
    return tuple(FALLBACK_PREFIX + run for run in _VOWEL_RUN_RE.findall(word.lower()))


def transcribe(word: str, lex: Lexicon) -> Pronunciation:
    """The phoneme tuple of ``word`` from the lexicon, falling back to orthography."""
    if not word:
        raise ValueError("cannot transcribe empty word")
    hit = lex.get(word)
    return hit if hit is not None else fallback_pronunciation(word)

