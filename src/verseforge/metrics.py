"""Quantitative measures: rhyme length, rhyme density, overlap, repetition, BLEU.

Rhyme density follows the assonance view of rhyming: per-word pronunciations
are concatenated into one vowel stream so matches may span word boundaries
(multisyllabic rhymes), and each word is scored by the longest vowel suffix
ending at it that reappears at the end of a recent earlier word. Values
above 1 are high; skilled artists reach around 1.2.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add

from .corpus import Verse, punctuation_in
from .phonetics import Lexicon


def ordered_sum(values) -> float:
    """The sum of ``values`` added one at a time, left to right; int 0 if empty.

    From Python 3.12 the built-in ``sum`` compensates float rounding, which
    changes the last bits; this sum has the same bits on every version.
    """
    return reduce(add, values, 0)


@dataclass(frozen=True)
class RhymeConfig:
    """Rhyme-density knobs.

    ``lookback_window`` is how many preceding words each word is compared
    against; ``exclude_identical`` stops a token from rhyming with an
    earlier copy of itself.
    """

    lookback_window: int = 15
    exclude_identical: bool = True

    def __post_init__(self) -> None:
        if self.lookback_window < 1:
            raise ValueError("lookback_window must be >= 1")


@dataclass(frozen=True)
class ScoredVerse:
    """A verse with its rhyme density, repetition score, and combined score."""

    verse: Verse
    rd: float
    rep: float

    @property
    def score(self) -> float:
        return self.rd - self.rep


def rhyme_length(w1: str, w2: str, lex: Lexicon) -> int:
    """Length of the longest common vowel-sequence suffix of two words.

    Identical tokens never rhyme (length 0): copying a word is not a rhyme.
    """
    if not w1 or not w2:
        raise ValueError("rhyme_length requires non-empty tokens")
    return rhyme_length_vowels(w1, lex.vowel_codes(w1), w2, lex.vowel_codes(w2))


def rhyme_length_vowels(w1: str, v1: Sequence[str], w2: str, v2: Sequence[str]) -> int:
    """:func:`rhyme_length` of two tokens whose vowels ``v1``, ``v2`` are known.

    Vowels compare item by item: symbol tuples, or one lexicon's codes.
    """
    if w1 == w2:
        return 0
    n = min(len(v1), len(v2))
    k = 0
    while k < n and v1[-1 - k] == v2[-1 - k]:
        k += 1
    return k


def per_word_rhyme_lengths(verse: Verse, lex: Lexicon, cfg: RhymeConfig) -> list[int]:
    """Longest matching vowel suffix for each word of the verse.

    Word ``i`` (vowel-stream end position ``p_i``) scores the largest ``k``
    such that the ``k`` vowels ending at ``p_i`` also end at ``p_j`` for
    some word ``j`` among the previous ``lookback_window`` words. Matches
    run through the concatenated vowel stream, so they may cross word
    boundaries. Words without vowels score 0.

    The stream is one string of the lexicon's vowel codes, one character
    per vowel symbol. A word with vowels ends strictly after every earlier
    word (``p_j < p_i``), so a match is bounded by ``p_j`` alone, and only
    an earlier word whose stream position ends on the same vowel can match
    at all: each word links to the previous word ending on its last vowel,
    and only that chain is followed.
    """
    tokens = verse.all_tokens()
    codes = list(map(lex._code_memo.__getitem__, tokens))
    stream = "".join(codes)
    marks = list(accumulate(map(len, codes)))
    window = cfg.lookback_window
    exclude_identical = cfg.exclude_identical
    # Last vowel -> the latest word ending on it; word -> the word before
    # it that ends on the same vowel (-1 for none).
    latest: dict[str, int] = {}
    previous = [-1] * len(codes)
    lengths = [0] * len(codes)
    p_prev = 0
    for i, p_i in enumerate(marks):
        if p_i == p_prev:
            # A word without vowels scores 0, but it ends where the word
            # before it ended, so later words can still match at its end.
            if p_i:
                last = stream[p_i - 1]
                previous[i] = latest[last]
                latest[last] = i
            continue
        p_prev = p_i
        last = stream[p_i - 1]
        j = previous[i] = latest.get(last, -1)
        latest[last] = i
        lo = i - window
        if lo < 0:
            lo = 0
        if j < lo:
            continue
        tok = tokens[i]
        best = 0
        while j >= lo:
            if not (exclude_identical and tokens[j] == tok):
                p_j = marks[j]
                k = 1
                while k < p_j and stream[p_i - 1 - k] == stream[p_j - 1 - k]:
                    k += 1
                if k > best:
                    best = k
            j = previous[j]
        lengths[i] = best
    return lengths


def rhyme_density(verse: Verse, lex: Lexicon, cfg: RhymeConfig = RhymeConfig()) -> float:
    """Mean per-word rhyme length over the verse's word stream."""
    lengths = per_word_rhyme_lengths(verse, lex, cfg)
    if not lengths:
        return 0.0
    return sum(lengths) / len(lengths)


def unigram_overlap(x: Iterable[str], y: Iterable[str]) -> float:
    """Fraction of y's unique unigrams that appear in x.

    Punctuation tokens are ignored on both sides; an empty y yields 0.
    Only y's side is filtered, once per distinct token: the intersection
    with a punctuation-free set can hold no punctuation token of x.
    """
    uy = set(y)
    uy -= punctuation_in(uy)
    if not uy:
        return 0.0
    return len(uy.intersection(x)) / len(uy)


def repetition_score(verse: Verse) -> float:
    """Average overlap of each line with the rest of the verse.

    High values flag verses that repeat themselves line after line;
    single-line and empty verses score 0.
    """
    n = len(verse.lines)
    if n < 2:
        return 0.0
    # A word of line i occurs in another line exactly when at least two
    # lines contain it, so collecting the words each line shares with the
    # lines before it replaces rebuilding "the rest of the verse" for every
    # line. Punctuation is decided once per distinct token of the verse,
    # then removed from every line.
    sets = list(map(set, verse.lines))
    seen: set[str] = set()
    shared: set[str] = set()
    for words in sets:
        shared |= words & seen
        seen |= words
    punct = punctuation_in(seen)
    total = 0.0
    for words in sets:
        words -= punct
        if words:
            total += len(words & shared) / len(words)
    return total / n


def score_verse(verse: Verse, lex: Lexicon, cfg: RhymeConfig = RhymeConfig()) -> ScoredVerse:
    """Bundle rhyme density and repetition into the reranking score rd - rep."""
    return ScoredVerse(
        verse=verse,
        rd=rhyme_density(verse, lex, cfg),
        rep=repetition_score(verse),
    )


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def modified_precisions(
    candidates: list[list[str]],
    references: list[list[str]],
    max_n: int = 4,
) -> list[float]:
    """Corpus-pooled clipped n-gram precisions for n = 1..max_n.

    Candidate n-gram counts are clipped to the count observed in the
    paired reference, then pooled over the corpus. A zero denominator
    yields precision 0.
    """
    if len(candidates) != len(references):
        raise ValueError(
            f"candidate/reference count mismatch: {len(candidates)} vs {len(references)}"
        )
    precisions = []
    for n in range(1, max_n + 1):
        clipped = 0
        total = 0
        for cand, ref in zip(candidates, references):
            counts = _ngram_counts(cand, n)
            ref_counts = _ngram_counts(ref, n)
            clipped += sum(min(c, ref_counts[g]) for g, c in counts.items())
            total += sum(counts.values())
        precisions.append(clipped / total if total else 0.0)
    return precisions


def corpus_bleu(candidates: list[list[str]], references: list[list[str]]) -> float:
    """Corpus-level BLEU-4 on a 0-100 scale, one reference per candidate.

    Geometric mean of pooled clipped precisions times the brevity penalty;
    no smoothing, so any zero pooled precision zeroes the score.
    """
    precisions = modified_precisions(candidates, references)  # checks the counts
    if not candidates:
        raise ValueError("corpus_bleu requires at least one pair")
    if any(p == 0.0 for p in precisions):
        return 0.0
    c = sum(len(t) for t in candidates)
    r = sum(len(t) for t in references)
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    log_avg = ordered_sum(map(math.log, precisions)) / len(precisions)
    return 100.0 * bp * math.exp(log_avg)
