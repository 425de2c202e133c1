"""Content-word extraction and the three noising schemes.

Stripping keeps only content words (no stopwords, numbers, or punctuation)
per line, preserving line structure. One of three noise types is then
applied to promote novelty in a downstream generator: per-line shuffling,
dropping a fixed fraction of tokens, or swapping a fixed fraction for
synonyms. Everything is deterministic given (seed, document id).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from itertools import chain, count, filterfalse
from pathlib import Path
from typing import IO, Iterable

from .corpus import RESERVED_TOKENS, Document, Verse, is_number, is_punctuation, join_lines
from .corpus import load_word_list as load_stopwords, match_number, punctuation_in, read_lines

_DATA_DIR = Path(__file__).parent / "data"

NOISE_TYPES = ("none", "shuffle", "drop", "synonym")


@dataclass(frozen=True)
class NoiseConfig:
    drop_rate: float = 0.20
    synonym_rate: float = 0.20
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "synonym_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


@dataclass(frozen=True)
class ContentWords:
    """Per-line content tokens extracted from a document."""

    lines: tuple[tuple[str, ...], ...]
    provenance: str = ""
    noise: str = "none"
    seed: int = 0

    @classmethod
    def from_lines(
        cls, lines: Iterable[Iterable[str]], provenance: str = "",
        noise: str = "none", seed: int = 0,
    ) -> "ContentWords":
        return cls(tuple(tuple(line) for line in lines), provenance, noise, seed)

    def token_count(self) -> int:
        return sum(len(line) for line in self.lines)

    def flat(self) -> list[str]:
        return [tok for line in self.lines for tok in line]


@dataclass
class SynonymLexicon:
    """Word to single-token synonym lists, self-entries filtered out."""

    entries: dict[str, tuple[str, ...]]

    @classmethod
    def load(cls, path: str | Path) -> "SynonymLexicon":
        """Parse tab-separated ``word<TAB>syn1,syn2,...`` lines.

        Synonyms that contain whitespace of any kind (multi-word phrases) or
        a reserved token (``<nl>``, ``<mask>``; see
        :data:`~verseforge.corpus.RESERVED_TOKENS`), and self-synonyms, are
        dropped; words left with no usable synonym, and
        head words that contain whitespace (no token can match them), are
        omitted. A line whose synonym field holds a second tab is malformed
        and dropped whole.
        """
        entries: dict[str, tuple[str, ...]] = {}
        for raw in read_lines(path):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            word, _, tail = line.partition("\t")
            if "\t" in tail.strip():
                continue
            word = word.strip().lower()
            syns = tuple(
                s for s in (p.strip().lower() for p in tail.split(","))
                if s != word
                and len(s.split()) == 1
                and not any(tok in s for tok in RESERVED_TOKENS)
            )
            if len(word.split()) == 1 and syns:
                entries[word] = syns
        return cls(entries)

    def get(self, word: str) -> tuple[str, ...]:
        return self.entries.get(word, ())


def default_stopwords() -> frozenset[str]:
    """The bundled English stopword list."""
    return load_stopwords(_DATA_DIR / "stopwords_en.txt")


def is_content_word(token: str, stopwords: frozenset[str]) -> bool:
    return (
        token not in stopwords
        and not is_number(token)
        and not is_punctuation(token)
    )


def extract_content_words(doc: Document, stopwords: frozenset[str]) -> ContentWords:
    """Filter each line down to its content words.

    Lines that lose every token stay as empty lines so line-level noise
    and serialization keep the original line structure. The rule is
    :func:`is_content_word`'s, decided once per distinct token of the
    document in C-level passes: an all-alphabetic token is never a number
    or punctuation, so only the other tokens that are not stopwords are
    tested for those. Each line is then filtered by set membership.
    """
    kept = set(chain.from_iterable(doc.lines)).difference(stopwords)
    other = list(filterfalse(str.isalpha, kept))
    kept.difference_update(filter(match_number, other), punctuation_in(other))
    is_kept = kept.__contains__
    lines = tuple(tuple(filter(is_kept, line)) for line in doc.lines)
    return ContentWords(lines=lines, provenance=doc.id)


def _rng(seed: int, provenance: str) -> random.Random:
    # String seeding hashes via sha512 internally, so streams are stable
    # across processes and platforms.
    return random.Random(f"{seed}:{provenance}")


def _noise_count(rate: float, n: int) -> int:
    # floor(rate * n), nudged so exact decimal products (0.29 * 100) do not
    # land one below the intended integer.
    return int(rate * n + 1e-9)


def noise_shuffle(cw: ContentWords, seed: int) -> ContentWords:
    """Independently permute each line's tokens (line-level shuffle)."""
    rng = _rng(seed, cw.provenance)
    shuffled = []
    for line in cw.lines:
        toks = list(line)
        rng.shuffle(toks)
        shuffled.append(tuple(toks))
    return replace(cw, lines=tuple(shuffled), noise="shuffle", seed=seed)


def _noise_positions(cw: ContentWords, rate: float, seed: int) -> tuple[random.Random, set[int]]:
    """The document's RNG and floor(rate * n) token positions drawn from it.

    Positions count tokens across lines. A count of 0 draws nothing.
    """
    n = cw.token_count()
    rng = _rng(seed, cw.provenance)
    return rng, set(rng.sample(range(n), _noise_count(rate, n)))


def noise_drop(cw: ContentWords, cfg: NoiseConfig) -> ContentWords:
    """Remove exactly floor(drop_rate * n) tokens, chosen uniformly."""
    _, dropped = _noise_positions(cw, cfg.drop_rate, cfg.seed)
    pos = count()
    lines = tuple(
        tuple(tok for tok in line if next(pos) not in dropped) for line in cw.lines
    )
    return replace(cw, lines=lines, noise="drop", seed=cfg.seed)


def noise_synonym(
    cw: ContentWords, lex: SynonymLexicon, cfg: NoiseConfig
) -> ContentWords:
    """Swap floor(synonym_rate * n) tokens for random synonyms.

    Selected tokens without a known synonym stay unchanged; token count is
    always preserved.
    """
    rng, targets = _noise_positions(cw, cfg.synonym_rate, cfg.seed)

    def swap(tok: str) -> str:
        syns = tuple(s for s in lex.get(tok) if s != tok)
        return rng.choice(syns) if syns else tok

    # Targets are visited in position order, so rng.choice draws in that order.
    pos = count()
    lines = tuple(
        tuple(swap(tok) if next(pos) in targets else tok for tok in line)
        for line in cw.lines
    )
    return replace(cw, lines=lines, noise="synonym", seed=cfg.seed)


def apply_noise(
    cw: ContentWords,
    noise: str,
    cfg: NoiseConfig,
    synonyms: SynonymLexicon | None = None,
) -> ContentWords:
    """Apply exactly one noise type by name."""
    if noise == "none":
        return cw
    if noise == "shuffle":
        return noise_shuffle(cw, cfg.seed)
    if noise == "drop":
        return noise_drop(cw, cfg)
    if noise == "synonym":
        if synonyms is None:
            raise ValueError("synonym noise requires a synonym lexicon")
        return noise_synonym(cw, synonyms, cfg)
    raise ValueError(f"unknown noise type {noise!r}; expected one of {NOISE_TYPES}")


def emit_training_pair(cw: ContentWords, target: Verse, out: IO[str]) -> dict:
    """Append one JSON-lines (source, target) record for an external trainer."""
    record = {"source": join_lines(cw.lines), "target": join_lines(target.lines)}
    out.write(json.dumps(record) + "\n")
    return record


def strip_corpus(
    docs: list[Document],
    stopwords: frozenset[str],
    noise: str = "none",
    cfg: NoiseConfig = NoiseConfig(),
    synonyms: SynonymLexicon | None = None,
    workers: int = 1,
) -> list[ContentWords]:
    """Strip and noise a batch of documents, output in input order.

    Runs serially. ``workers`` is accepted and changes nothing: the work is
    GIL-bound, so a thread pool made it slower, and per-document RNG streams
    come from (seed, document id) alone.
    """
    return [
        apply_noise(extract_content_words(doc, stopwords), noise, cfg, synonyms)
        for doc in docs
    ]
