"""Pronunciations and vowel projections backing all rhyme math.

Words map to ARPABET-style phoneme sequences through a CMUdict-format
lexicon; out-of-vocabulary words fall back to a deterministic orthographic
rule that emits one synthetic symbol per written vowel run. Rhyme metrics
only look at the vowel projection of a pronunciation (assonance).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
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
_VOWEL_LETTERS = frozenset("aeiouy")


class LexiconFormatError(ValueError):
    """A lexicon line that cannot be parsed, reported with its line number."""


# Phoneme symbols for one word, stress digits stripped.
Pronunciation = tuple[str, ...]


@dataclass
class Lexicon:
    """Word to phoneme tuple map (first listed variant wins).

    :meth:`vowels` memoises each word's vowel projection on its first
    lookup, so ``entries`` must not be mutated after that: a later edit
    would not reach words already looked up. The memo takes no part in
    equality or ``repr``.
    """

    entries: dict[str, Pronunciation] = field(default_factory=dict)
    source: str | None = None
    _vowel_memo: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, word: str) -> Pronunciation | None:
        return self.entries.get(word.lower())

    def vowels(self, word: str) -> tuple[str, ...]:
        """The vowel symbols of ``transcribe(word, self)``, computed once per word."""
        found = self._vowel_memo.get(word)
        if found is None:
            found = self._vowel_memo[word] = tuple(filter(is_vowel, transcribe(word, self)))
        return found


@dataclass(frozen=True)
class VowelSeq:
    """Concatenated vowel stream of a word sequence.

    ``word_end_marks[i]`` is the number of vowels emitted up to and
    including word ``i``; words without vowels repeat the previous mark.
    """

    vowels: tuple[str, ...]
    word_end_marks: tuple[int, ...]


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


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a CMUdict-format pronunciation file.

    Lines look like ``FOOD  F UW1 D``. Comment lines starting with ``;;;``
    and alternate-pronunciation entries like ``FOOD(2)`` are skipped;
    stress digits are stripped. Each line is split once, and stress is
    stripped once per distinct phoneme symbol, so all entries share one
    string object per stripped symbol.
    """
    path = Path(path)
    entries: dict[str, Pronunciation] = {}
    stress_free = _StressFree().__getitem__
    with path.open(encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith(";;;"):
                continue
            if len(parts) < 2:
                raise LexiconFormatError(
                    f"{path}:{lineno}: expected 'WORD PH1 PH2 ...', got {parts[0]!r}"
                )
            word = parts[0].lower()
            # A word holds no whitespace, so _VARIANT_RE can only match a
            # word that ends in ")".
            if word in entries or (word[-1] == ")" and _VARIANT_RE.match(word)):
                continue
            entries[word] = tuple(map(stress_free, parts[1:]))
    return Lexicon(entries=entries, source=str(path))


def fallback_pronunciation(word: str) -> Pronunciation:
    """Orthographic fallback for out-of-lexicon words.

    Each maximal run of written vowel letters (a, e, i, o, u, always;
    y except word-initially) becomes one synthetic ``V:<run>`` symbol.
    Consonants and non-letters emit nothing; an all-consonant word yields
    an empty pronunciation.
    """
    symbols: list[str] = []
    run: list[str] = []
    for i, ch in enumerate(word.lower()):
        if ch in _VOWEL_LETTERS and not (ch == "y" and i == 0):
            run.append(ch)
        else:
            if run:
                symbols.append(FALLBACK_PREFIX + "".join(run))
                run = []
    if run:
        symbols.append(FALLBACK_PREFIX + "".join(run))
    return tuple(symbols)


def transcribe(word: str, lex: Lexicon) -> Pronunciation:
    """The phoneme tuple of ``word`` from the lexicon, falling back to orthography."""
    if not word:
        raise ValueError("cannot transcribe empty word")
    hit = lex.get(word)
    return hit if hit is not None else fallback_pronunciation(word)


def vowel_sequence(words: list[str], lex: Lexicon) -> VowelSeq:
    """Concatenate each word's vowel symbols, marking word ends."""
    vowels: list[str] = []
    marks: list[int] = []
    for word in words:
        vowels.extend(lex.vowels(word))
        marks.append(len(vowels))
    return VowelSeq(tuple(vowels), tuple(marks))
