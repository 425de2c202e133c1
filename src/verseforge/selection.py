"""Hypothesis reranking and nearest-neighbor retrieval baselines.

Reranking picks, from a batch of externally generated candidate verses,
the one maximizing rhyme density minus repetition. Retrieval returns the
closest training text to a query; the bundled similarity is TF-IDF cosine,
with an optional external word-vector embedding (averaged, L2-normalized)
for users who have pretrained vectors on disk. A typical generator batch
is 24 hypotheses, but any size works.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import operator
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import NamedTuple
from urllib.parse import quote, unquote

from .corpus import Document, Verse, split_flat
from .metrics import RhymeConfig, ScoredVerse, score_verse
from .phonetics import Lexicon
from .stripping import default_stopwords

VOCAB_FILE = "vocabulary.tsv"
VECTORS_FILE = "vectors.txt"


@dataclass
class Hypothesis:
    """One generator output with its beam rank (0 = generator's top)."""

    verse: Verse
    generator_rank: int
    scored: ScoredVerse | None = None


def load_hypotheses(path: str | Path) -> list[Hypothesis]:
    """Read a JSON-lines batch of {"rank": int, "text": "... <nl> ..."}.

    Ranks must be unique within a batch; they are the deterministic
    tie-breaker during reranking. A malformed record raises ValueError
    naming the file and line. A record ends at a newline only: JSON allows
    U+2028, U+2029 and U+0085 raw inside a string.
    """
    hyps = []
    seen: set[int] = set()
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            hyp = hypothesis_from_record(json.loads(raw))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        if hyp.generator_rank in seen:
            raise ValueError(
                f"{path}:{lineno}: duplicate hypothesis rank {hyp.generator_rank}"
            )
        seen.add(hyp.generator_rank)
        hyps.append(hyp)
    return hyps


def hypothesis_from_record(record: dict) -> Hypothesis:
    """Build a hypothesis from one parsed record; ValueError if malformed."""
    if not isinstance(record, dict):
        raise ValueError(f"expected a JSON object, got {type(record).__name__}")
    for key in ("rank", "text"):
        if key not in record:
            raise ValueError(f"record lacks {key!r}")
    rank, text = record["rank"], record["text"]
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ValueError(f"rank must be an integer, got {rank!r}")
    if not isinstance(text, str):
        raise ValueError(f"text must be a string, got {type(text).__name__}")
    return Hypothesis(verse=Verse(split_flat(text)), generator_rank=rank)


def rerank(
    hyps: list[Hypothesis], lex: Lexicon, cfg: RhymeConfig = RhymeConfig()
) -> Hypothesis:
    """Return the hypothesis maximizing rd - rep; ties go to the lowest rank."""
    if not hyps:
        raise ValueError("rerank requires at least one hypothesis")
    best: Hypothesis | None = None
    best_key: tuple[float, int] | None = None
    for hyp in hyps:
        scored = score_verse(hyp.verse, lex, cfg)
        key = (-scored.score, hyp.generator_rank)
        if best_key is None or key < best_key:
            best = replace(hyp, scored=scored)
            best_key = key
    assert best is not None
    return best


class Postings(NamedTuple):
    """Inverted TF-IDF index: term dimension -> (document, weight) pairs.

    The postings of dimension ``d`` are ``docs[offsets[d]:offsets[d + 1]]``
    with the matching ``weights``, documents in ascending position.
    """

    offsets: array  # 'q', one entry per dimension plus one
    docs: array  # 'i', document positions
    weights: array  # 'd', the weight of the dimension in that document


@dataclass
class RetrievalIndex:
    """Sparse TF-IDF index over a fixed document list.

    ``vectors[i]`` maps term dimension to L2-normalized weight; documents
    loaded back from disk are represented by their ids only. Dimensions
    are ``0..len(vocabulary) - 1`` and weights are finite and
    non-negative. The first TF-IDF query builds :attr:`postings` from
    ``vectors`` and keeps it, so do not mutate ``vectors`` after that.
    """

    doc_ids: list[str]
    documents: list
    vectors: list[dict[int, float]]
    vocabulary: dict[str, int]
    df: dict[str, int]
    word_vectors: dict[str, list[float]] | None = None
    stopwords: frozenset[str] = field(default_factory=frozenset)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def postings(self) -> Postings:
        """Postings of every dimension, counted into preallocated arrays."""
        n_dims = len(self.vocabulary)
        offsets = array("q", [0]) * (n_dims + 1)
        for vec in self.vectors:
            for dim in vec:
                offsets[dim + 1] += 1
        for dim in range(n_dims):
            offsets[dim + 1] += offsets[dim]
        docs = array("i", [0]) * offsets[n_dims]
        weights = array("d", [0.0]) * offsets[n_dims]
        free = offsets[:-1]
        for doc, vec in enumerate(self.vectors):
            for dim, w in vec.items():
                slot = free[dim]
                docs[slot] = doc
                weights[slot] = w
                free[dim] = slot + 1
        return Postings(offsets, docs, weights)


def _tokens_of(obj) -> list[str]:
    if hasattr(obj, "all_tokens"):
        return obj.all_tokens()
    if obj and isinstance(obj[0], list):
        return [tok for line in obj for tok in line]
    return list(obj)


def _id_of(obj, i: int) -> str:
    if isinstance(obj, Document):
        return obj.id
    if isinstance(obj, Verse) and obj.source_doc:
        return f"{obj.source_doc}#{i}"
    return f"doc{i}"


def _normalize(vec: dict[int, float]) -> dict[int, float]:
    norm = math.sqrt(sum(w * w for w in vec.values()))
    if norm == 0.0:
        return {}
    return {d: w / norm for d, w in vec.items()}


def _new_index(docs: list, stopwords: frozenset[str] | None) -> RetrievalIndex:
    """An index over ``docs`` with no vectors yet; the builders fill them in."""
    if not docs:
        raise ValueError("cannot index an empty corpus")
    return RetrievalIndex(
        doc_ids=[_id_of(d, i) for i, d in enumerate(docs)],
        documents=list(docs),
        vectors=[],
        vocabulary={},
        df={},
        stopwords=default_stopwords() if stopwords is None else stopwords,
    )


def build_index(
    docs: list,
    min_df: int = 1,
    stopwords: frozenset[str] | None = None,
) -> RetrievalIndex:
    """TF-IDF index: weight = term count * ln(N / df), L2-normalized.

    Stopwords never enter the vocabulary. Each vector holds its dimensions
    in ascending order, as :func:`load_index` reads them back, so a built
    and a reloaded index sum every similarity in the same order. With a
    single document every idf is ln(1) = 0, leaving zero vectors; the index
    stays valid and all similarities are 0.
    """
    index = _new_index(docs, stopwords)
    is_stopword = index.stopwords.__contains__
    counts = [Counter(itertools.filterfalse(is_stopword, _tokens_of(d))) for d in docs]
    df = Counter(itertools.chain.from_iterable(counts))
    index.df = {t: df[t] for t in sorted(df) if df[t] >= min_df}
    index.vocabulary = {term: dim for dim, term in enumerate(index.df)}
    terms = _terms(index, index.df)
    counts.reverse()  # pop() frees each count once its vector is built
    index.vectors = [dict(sorted(_weigh(counts.pop(), terms).items())) for _ in docs]
    return index


def _terms(index: RetrievalIndex, words) -> dict[str, tuple[int, float]]:
    """Dimension and idf of each vocabulary term among ``words``."""
    vocabulary, df, n = index.vocabulary, index.df, index.n_docs
    return {t: (vocabulary[t], math.log(n / df[t])) for t in words if t in vocabulary}


def _weigh(counts: Counter, terms: dict[str, tuple[int, float]]) -> dict[int, float]:
    """The normalized TF-IDF vector of ``counts``, in the order of ``counts``.

    The norm sums in that order, which fixes the bits of every weight.
    """
    vec = {}
    for t, c in counts.items():
        if t in terms:
            dim, idf = terms[t]
            vec[dim] = c * idf
    return _normalize(vec)


def build_vector_index(
    docs: list,
    word_vectors: dict[str, list[float]],
    stopwords: frozenset[str] | None = None,
) -> RetrievalIndex:
    """Embedding index: mean of known word vectors per doc, L2-normalized."""
    index = _new_index(docs, stopwords)
    index.word_vectors = word_vectors
    index.vectors = [_embed(_tokens_of(d), word_vectors, index.stopwords) for d in docs]
    return index


def _embed(
    tokens: list[str],
    word_vectors: dict[str, list[float]],
    stopwords: frozenset[str],
) -> dict[int, float]:
    rows = [word_vectors[t] for t in tokens if t not in stopwords and t in word_vectors]
    if not rows:
        return {}
    # Scale the largest magnitude into [0.5, 1) so that neither the sums
    # nor the squares in _normalize overflow or underflow. A power of two
    # scales exactly, and normalizing cancels it.
    _, exp = math.frexp(max(abs(v) for r in rows for v in r))
    rows = [[math.ldexp(v, -exp) for v in r] for r in rows]
    dim = len(rows[0])
    mean = [sum(r[d] for r in rows) / len(rows) for d in range(dim)]
    return _normalize({d: v for d, v in enumerate(mean) if v != 0.0})


def load_word_vectors(path: str | Path) -> dict[str, list[float]]:
    """Plain-text vectors, one ``word v1 v2 ... vd`` line per word.

    Blank lines are skipped. Every other row holds at least one value, as
    many as the first row, and every value is a finite number; a row that
    breaks this raises ValueError naming the file and line.
    """
    vectors: dict[str, list[float]] = {}
    dim = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        try:
            row = [float(x) for x in parts[1:]]
            if not row:
                raise ValueError(f"expected 'word v1 v2 ... vd', got {parts[0]!r}")
            if dim is None:
                dim = len(row)
            if len(row) != dim:
                raise ValueError(f"{len(row)} values, expected {dim} as in the first row")
            if not all(map(math.isfinite, row)):
                raise ValueError("values must be finite")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        vectors[parts[0].lower()] = row
    return vectors


def _query_vector(index: RetrievalIndex, query) -> dict[int, float]:
    tokens = _tokens_of(query)
    if index.word_vectors is not None:
        return _embed(tokens, index.word_vectors, index.stopwords)
    # No stopword is in the vocabulary, and _weigh weighs vocabulary terms only.
    counts = Counter(tokens)
    return _weigh(counts, _terms(index, counts))


# In any order, a float sum of n non-negative terms is within a relative
# (n - 1) * 2**-53 of the exact sum (Higham, "Accuracy and Stability of
# Numerical Algorithms", 4.2), so a document and the k-th best can each be
# off by that much; this per-term margin is far wider.
_REORDER_MARGIN = 1e-14


def _cosine(qvec: dict[int, float], dvec: dict[int, float]):
    """Dot product summed in the shorter vector's order; int 0 if one is empty."""
    small, large = (qvec, dvec) if len(qvec) <= len(dvec) else (dvec, qvec)
    return sum(w * large.get(d, 0.0) for d, w in small.items())


def _top_k(sims, positions, k: int) -> list[int]:
    """The k positions of highest similarity, ties by position.

    ``positions`` must ascend: ``heapq.nlargest`` is stable, so among equal
    similarities the earlier position wins.
    """
    return heapq.nlargest(k, positions, key=sims.__getitem__)


def retrieve_indices(index: RetrievalIndex, query, k: int = 1) -> list[tuple[int, float]]:
    """Top-k (document position, cosine similarity), ties by insertion order.

    Similarities are bit-identical to scoring every document with
    :func:`_cosine`. Word-vector indexes are dense and are scored that way;
    TF-IDF indexes score term-at-a-time over :attr:`RetrievalIndex.postings`.
    """
    qvec = _query_vector(index, query)
    vectors = index.vectors
    k = len(range(len(vectors))[:k])  # as many as [:k] of a full ranking
    if index.word_vectors is not None:
        sims = [_cosine(qvec, dvec) for dvec in vectors]
        return [(i, sims[i]) for i in _top_k(sims, range(len(sims)), k)]
    offsets, docs, weights = index.postings
    acc: dict[int, float] = {}
    get = acc.get
    for d, qw in qvec.items():
        lo, hi = offsets[d], offsets[d + 1]
        for doc, w in zip(docs[lo:hi], weights[lo:hi]):
            acc[doc] = get(doc, 0.0) + qw * w
    # acc sums in query order; _cosine sums in the shorter vector's order,
    # which can round differently. Only documents within the reordering
    # margin of the k-th best can reach the top k, so only they are
    # rescored exactly.
    cut = 0.0
    if 0 < k < len(acc):
        kth = heapq.nlargest(k, acc.values())[-1]
        cut = kth * (1.0 - len(qvec) * _REORDER_MARGIN)
    exact = {
        doc: _cosine(qvec, vectors[doc])
        for doc, s in acc.items()
        if s > 0.0 and s >= cut
    }
    ranked = _top_k(exact, sorted(exact), k)
    # Fewer than k positive scores: every other document scores zero, and
    # zeros tie, so they follow in insertion order.
    unscored = (i for i in range(len(vectors)) if i not in exact)
    ranked += itertools.islice(unscored, k - len(ranked))
    return [
        (i, exact[i] if i in exact else 0.0 if qvec and vectors[i] else 0)
        for i in ranked
    ]


def retrieve(index: RetrievalIndex, query, k: int = 1) -> list[tuple[object, float]]:
    """Top-k documents by cosine similarity, ties by insertion order.

    A query with no indexed terms scores 0 against everything.
    """
    return [(index.documents[i], sim) for i, sim in retrieve_indices(index, query, k)]


# Whitespace separates the fields and lines of both index files, so ids
# and terms escape it, and "%" so that decoding is exact.
_ID_ESCAPES = re.compile(r"[\s%]")


def _escape(text: str) -> str:
    return _ID_ESCAPES.sub(lambda m: quote(m[0], safe=""), text)


def save_index(index: RetrievalIndex, dir_path: str | Path) -> None:
    """Persist a TF-IDF index: vocabulary.tsv + vectors.txt.

    Each vector is written in its stored order, ascending by dimension for
    a built index, and :func:`load_index` keeps that order. Whitespace and
    "%" in document ids and vocabulary terms are percent-encoded; other ids
    and terms are written as they are.
    """
    if index.word_vectors is not None:
        raise ValueError("only TF-IDF indexes support persistence")
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    with (dir_path / VOCAB_FILE).open("w", encoding="utf-8") as fh:
        for term, dim in sorted(index.vocabulary.items(), key=lambda kv: kv[1]):
            fh.write(f"{_escape(term)}\t{dim}\t{index.df[term]}\n")
    with (dir_path / VECTORS_FILE).open("w", encoding="utf-8") as fh:
        for doc_id, vec in zip(index.doc_ids, index.vectors):
            pairs = " ".join(f"{d}:{w:.17g}" for d, w in vec.items())
            fh.write(f"{_escape(doc_id)} {pairs}".rstrip() + "\n")


class _DimTexts(dict):
    """Dimension text -> the vocabulary's int; other text goes through int()."""

    __missing__ = staticmethod(int)


def load_index(dir_path: str | Path) -> RetrievalIndex:
    """Load a persisted TF-IDF index; documents come back as bare ids.

    Line n of vocabulary.tsv holds dimension n-1 of a new term, with a
    document frequency in ``1..N``; vectors.txt dimensions must be below
    ``V`` and appear at most once per line, weights in [0, 1] and squared
    norms at most 1 (plus rounding), as in any L2-normalized vector, so
    every similarity is a cosine. Percent-encoded ids and terms are
    decoded. A malformed file raises ValueError naming the file and line.

    A dimension written as :func:`save_index` writes it is keyed by the
    vocabulary's own ``int``. Each line of vectors.txt is dropped once
    parsed, so the file's lines and the parsed index are never held
    together.
    """
    dir_path = Path(dir_path)
    vocab_path, vectors_path = dir_path / VOCAB_FILE, dir_path / VECTORS_FILE
    vocab_lines = vocab_path.read_text(encoding="utf-8-sig").splitlines()
    vector_lines = vectors_path.read_text(encoding="utf-8-sig").splitlines()
    n_dims, n_docs = len(vocab_lines), len(vector_lines)
    vocabulary: dict[str, int] = {}
    df: dict[str, int] = {}
    for dim, raw in enumerate(vocab_lines):
        try:
            term, stored_dim, count = raw.split("\t")
            term, stored_dim, count = unquote(term), int(stored_dim), int(count)
            if stored_dim != dim:
                raise ValueError(f"dimension {stored_dim}, expected {dim}")
            if term in vocabulary:
                raise ValueError(f"duplicate term {term!r}")
            if not 1 <= count <= n_docs:
                raise ValueError(f"document frequency {count} outside 1..{n_docs}")
        except ValueError as exc:
            raise ValueError(f"{vocab_path}:{dim + 1}: {exc}") from None
        vocabulary[term] = dim
        df[term] = count
    del vocab_lines
    dims = _DimTexts((str(dim), dim) for dim in vocabulary.values())
    doc_ids: list[str] = []
    vectors: list[dict[int, float]] = []
    vector_lines.reverse()  # pop() hands the lines out in file order
    for lineno in range(1, n_docs + 1):
        parts = vector_lines.pop().split(" ")
        try:
            vec = {dims[d]: float(w) for d, w in (p.split(":") for p in parts[1:])}
            if len(vec) < len(parts) - 1:
                raise ValueError(f"repeated dimension {_first_repeat(parts[1:])}")
            if vec and (min(vec) < 0 or max(vec) >= n_dims):
                raise ValueError(f"dimension outside 0..{n_dims - 1}")
            weights = vec.values()
            if not all(map(math.isfinite, weights)) or (
                vec and (min(weights) < 0.0 or max(weights) > 1.0)
            ):
                raise ValueError("weights must be finite, non-negative and at most 1")
            if sum(map(operator.mul, weights, weights)) > 1.0 + 1e-9:
                raise ValueError("vector norm above 1")
        except ValueError as exc:
            raise ValueError(f"{vectors_path}:{lineno}: {exc}") from None
        doc_ids.append(unquote(parts[0]))
        vectors.append(vec)
    return RetrievalIndex(
        doc_ids=doc_ids,
        documents=list(doc_ids),
        vectors=vectors,
        vocabulary=vocabulary,
        df=df,
    )


def _first_repeat(pairs: list[str]) -> int:
    """The first dimension of ``dim:weight`` pairs that an earlier pair holds (one must)."""
    seen = set()
    for pair in pairs:
        dim = int(pair.split(":")[0])
        if dim in seen:
            return dim
        seen.add(dim)
