"""Brute-force reference implementations the benchmark checks outputs against.

They follow the documented definitions directly and share no code with
verseforge: the lexicon is parsed here, rhyme density compares vowel-stream
slices word by word, and stripping with shuffle noise is replayed from its
seed. They are slow on purpose and run only after the timed phase.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from pathlib import Path

ARPABET_VOWELS = frozenset("AA AE AH AO AW AY EH ER EY IH IY OW OY UH UW".split())
PUNCT = '.,!?;:"()[]'
_NUMBER = re.compile(r"^\d+(?:[.,]\d+)*$")


def load_vowels(path: Path) -> dict[str, tuple[str, ...]]:
    """Word -> vowel phonemes of its first listed pronunciation."""
    table: dict[str, tuple[str, ...]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith(";;;"):
            continue
        word, *phones = line.split()
        word = word.lower()
        if word.endswith(")") or word in table:
            continue
        table[word] = tuple(p.rstrip("012") for p in phones if p.rstrip("012") in ARPABET_VOWELS)
    return table


def vowels(word: str, table: dict) -> tuple[str, ...]:
    word = word.lower()
    if word in table:
        return table[word]
    # Orthographic fallback: one symbol per run of vowel letters, with y a
    # vowel except word-initially.
    runs = re.findall(r"[aeiouy]+", word[0].replace("y", "#") + word[1:])
    return tuple("V:" + r for r in runs)


def rhyme_length(a: str, b: str, table: dict) -> int:
    if a == b:
        return 0
    va, vb = vowels(a, table), vowels(b, table)
    k = 0
    while k < min(len(va), len(vb)) and va[len(va) - 1 - k] == vb[len(vb) - 1 - k]:
        k += 1
    return k


def rhyme_density(lines: list[list[str]], table: dict, window: int = 15) -> float:
    tokens = [t for line in lines for t in line]
    stream: list[str] = []
    ends = []
    for t in tokens:
        stream.extend(vowels(t, table))
        ends.append(len(stream))
    total = 0
    for i, tok in enumerate(tokens):
        if ends[i] == (ends[i - 1] if i else 0):
            continue
        best = 0
        for j in range(max(0, i - window), i):
            if tokens[j] == tok:
                continue
            k = 0
            while k < min(ends[i], ends[j]) and (
                stream[ends[i] - k - 1 : ends[i]] == stream[ends[j] - k - 1 : ends[j]]
            ):
                k += 1
            best = max(best, k)
        total += best
    return total / len(tokens) if tokens else 0.0


def _content(tokens) -> set[str]:
    return {t for t in tokens if any(c.isalnum() for c in t)}


def repetition(lines: list[list[str]]) -> float:
    if len(lines) < 2:
        return 0.0
    total = 0.0
    for i, line in enumerate(lines):
        own = _content(line)
        rest = _content(t for j, other in enumerate(lines) if j != i for t in other)
        total += len(own & rest) / len(own) if own else 0.0
    return total / len(lines)


def tokenize(text: str) -> list[list[str]]:
    lines = []
    for raw in text.lower().splitlines():
        line = []
        for chunk in raw.split():
            core = chunk.strip(PUNCT)
            lead = len(chunk) - len(chunk.lstrip(PUNCT))
            if core:
                trail = len(chunk) - lead - len(core)
                line += list(chunk[:lead]) + [core] + list(chunk[len(chunk) - trail :])
            else:
                line += list(chunk)
        if line:
            lines.append(line)
    return lines


def shuffled_content_lines(
    text: str, doc_id: str, stopwords: frozenset[str], seed: int
) -> list[list[str]]:
    """Non-empty lines of content words after seeded per-line shuffle noise."""
    rng = random.Random(f"{seed}:{doc_id}")
    out = []
    for line in tokenize(text):
        kept = [
            t for t in line
            if t not in stopwords and not _NUMBER.match(t) and any(c.isalnum() for c in t)
        ]
        rng.shuffle(kept)
        if kept:
            out.append(kept)
    return out


def enhancement_errors(
    before: list[list[str]], after: list[list[str]], deny: frozenset[str], table: dict
) -> list[str]:
    """Ways ``after`` breaks the enhancement contract relative to ``before``."""
    if [len(l) for l in before] != [len(l) for l in after]:
        return ["line shapes differ"]
    errors = []
    for i, (a, b) in enumerate(zip(before, after)):
        if a[:-1] != b[:-1]:
            errors.append(f"line {i}: a non-final token changed")
    for i in range(0, len(before) - 1, 2):
        changed = [j for j in (i, i + 1) if before[j][-1] != after[j][-1]]
        if len(changed) > 1:
            errors.append(f"pair {i}: both line ends substituted")
        for j in changed:
            if after[j][-1] in deny:
                errors.append(f"line {j}: deny-listed word {after[j][-1]!r} substituted")
        old = rhyme_length(before[i][-1], before[i + 1][-1], table)
        new = rhyme_length(after[i][-1], after[i + 1][-1], table)
        if new < old:
            errors.append(f"pair {i}: end-rhyme fell from {old} to {new}")
    if len(before) % 2 and before[-1] != after[-1]:
        errors.append("unpaired last line changed")
    return errors


def corpus_ranking(lines) -> list[tuple[str, float]]:
    """Corpus vocabulary scored by line-final count plus a tenth of the
    total count, in descending score order, ties broken by word."""
    final: Counter = Counter()
    total: Counter = Counter()
    for line in lines:
        total.update(line)
        if line:
            final[line[-1]] += 1
    scores = {w: final[w] + 0.1 * total[w] for w in total}
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))
