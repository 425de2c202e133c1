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
import os
import re
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from urllib.parse import quote, unquote

from .corpus import Document, UnterminatedFileError, Verse, read_lines, read_text, split_flat
from .metrics import RhymeConfig, ScoredVerse, ordered_sum, score_verse
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
    lines = read_text(path).split("\n")
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


@dataclass(frozen=True)
class SparseRows(Sequence):
    """Rows of (column, weight) entries, held as three flat arrays.

    The entries of row ``i`` are ``cols[offsets[i]:offsets[i + 1]]`` with
    the matching ``weights``. ``len`` costs O(1). Item ``i`` is a new
    ``{column: weight}`` dict of row ``i``, keys in stored order. Two
    instances are equal when their arrays are.
    """

    offsets: array = field(default_factory=lambda: array("q", [0]))  # one per row, plus one
    cols: array = field(default_factory=lambda: array("i"))
    weights: array = field(default_factory=lambda: array("d"))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> dict[int, float]:
        return dict(zip(*self.row(range(len(self))[i])))

    def row(self, i: int) -> tuple[array, array]:
        """The columns and weights of row ``i``, for ``0 <= i < len(self)``."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return self.cols[lo:hi], self.weights[lo:hi]

    def transposed(self, n_cols: int) -> SparseRows:
        """The same entries by column, counting-sorted: row ``c`` lists the rows
        holding column ``c``, ascending, with their weights. Every column is
        below ``n_cols``.
        """
        offsets = array("q", [0]) * (n_cols + 1)
        for col, n in Counter(self.cols).items():
            offsets[col + 1] = n
        for col in range(n_cols):
            offsets[col + 1] += offsets[col]
        rows = array("i", [0]) * len(self.cols)
        weights = array("d", [0.0]) * len(self.cols)
        free = offsets[:-1]
        for r in range(len(self)):
            for col, w in zip(*self.row(r)):
                slot = free[col]
                rows[slot] = r
                weights[slot] = w
                free[col] = slot + 1
        return SparseRows(offsets, rows, weights)


@dataclass
class RetrievalIndex:
    """Sparse index over a fixed document list.

    :attr:`vectors` holds one row per document: dimension and L2-normalized
    weight, ascending by dimension in a built index. A TF-IDF index's
    dimensions are ``0..len(vocabulary) - 1`` and its weights are finite
    and non-negative. Documents loaded back from disk are represented by
    their ids only. The first TF-IDF query builds :attr:`postings`, the
    vectors transposed, and keeps it, so do not mutate the vectors after
    that.
    """

    doc_ids: list[str]
    documents: list
    vectors: SparseRows
    vocabulary: dict[str, int]
    df: dict[str, int]
    word_vectors: dict[str, list[float]] | None = None
    stopwords: frozenset[str] = field(default_factory=frozenset)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def postings(self) -> SparseRows:
        """One row per dimension: the documents holding it, ascending, with weights."""
        return self.vectors.transposed(len(self.vocabulary))


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


def _norm(entries: list[tuple[int, float]]) -> float:
    """The L2 norm of (dimension, weight) entries.

    It sums in the order of ``entries``, which fixes the bits of every
    normalized weight.
    """
    return math.sqrt(ordered_sum(w * w for _, w in entries))


def _normalize(entries: list[tuple[int, float]]) -> dict[int, float]:
    """``entries`` L2-normalized, in their order; empty if every weight is 0."""
    norm = _norm(entries)
    return {d: w / norm for d, w in entries} if norm else {}


def _append_vector(vectors: SparseRows, entries: list[tuple[int, float]], norm: float) -> None:
    """Store the next document's entries, each weight divided by ``norm``.

    A zero ``norm`` stores none: every weight is 0.
    """
    if norm:
        vectors.cols.extend([d for d, _ in entries])
        vectors.weights.extend([w / norm for _, w in entries])
    vectors.offsets.append(len(vectors.cols))


def _new_index(docs: list, stopwords: frozenset[str] | None) -> RetrievalIndex:
    """An index over ``docs`` with no vectors yet; the builders append them."""
    if not docs:
        raise ValueError("cannot index an empty corpus")
    return RetrievalIndex(
        doc_ids=[_id_of(d, i) for i, d in enumerate(docs)],
        documents=list(docs),
        vectors=SparseRows(),
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
    for _ in docs:
        entries = _weigh(counts.pop(), terms)
        norm = _norm(entries)
        entries.sort()
        _append_vector(index.vectors, entries, norm)
    return index


def _terms(index: RetrievalIndex, words) -> dict[str, tuple[int, float]]:
    """Dimension and idf of each vocabulary term among ``words``."""
    vocabulary, df, n = index.vocabulary, index.df, index.n_docs
    return {t: (vocabulary[t], math.log(n / df[t])) for t in words if t in vocabulary}


def _weigh(counts: Counter, terms: dict[str, tuple[int, float]]) -> list[tuple[int, float]]:
    """The (dimension, count * idf) entries of ``counts``, in its order."""
    entries = []
    for t, c in counts.items():
        if t in terms:
            dim, idf = terms[t]
            entries.append((dim, c * idf))
    return entries


def build_vector_index(
    docs: list,
    word_vectors: dict[str, list[float]],
    stopwords: frozenset[str] | None = None,
) -> RetrievalIndex:
    """Embedding index: mean of known word vectors per doc, L2-normalized."""
    index = _new_index(docs, stopwords)
    index.word_vectors = word_vectors
    for d in docs:
        entries = _embed(_tokens_of(d), word_vectors, index.stopwords)
        _append_vector(index.vectors, entries, _norm(entries))
    return index


def _embed(
    tokens: list[str],
    word_vectors: dict[str, list[float]],
    stopwords: frozenset[str],
) -> list[tuple[int, float]]:
    """The non-zero entries of the mean of the known word vectors, scaled."""
    rows = [word_vectors[t] for t in tokens if t not in stopwords and t in word_vectors]
    if not rows:
        return []
    # Scale the largest magnitude into [0.5, 1) so that neither the sums
    # nor the squares in _norm overflow or underflow. A power of two
    # scales exactly, and normalizing cancels it.
    _, exp = math.frexp(max(abs(v) for r in rows for v in r))
    rows = [[math.ldexp(v, -exp) for v in r] for r in rows]
    dim = len(rows[0])
    mean = [ordered_sum(r[d] for r in rows) / len(rows) for d in range(dim)]
    return [(d, v) for d, v in enumerate(mean) if v != 0.0]


def load_word_vectors(path: str | Path) -> dict[str, list[float]]:
    """Plain-text vectors, one ``word v1 v2 ... vd`` line per word.

    Blank lines are skipped. Every other row holds at least one value, as
    many as the first row, and every value is a finite number; a row that
    breaks this raises ValueError naming the file and line.
    """
    vectors: dict[str, list[float]] = {}
    dim = None
    for lineno, raw in enumerate(read_lines(path), start=1):
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
        return _normalize(_embed(tokens, index.word_vectors, index.stopwords))
    # No stopword is in the vocabulary, and _weigh weighs vocabulary terms only.
    counts = Counter(tokens)
    return _normalize(_weigh(counts, _terms(index, counts)))


# In any order, a float sum of n non-negative terms is within a relative
# (n - 1) * 2**-53 of the exact sum (Higham, "Accuracy and Stability of
# Numerical Algorithms", 4.2), so a document and the k-th best can each be
# off by that much; this per-term margin is far wider.
_REORDER_MARGIN = 1e-14


def _cosine(qvec: dict[int, float], index: RetrievalIndex, doc: int):
    """Dot product of ``qvec`` and document ``doc``; int 0 if one is empty.

    It sums in the shorter vector's order, the query's on a tie, and a
    document's order is its stored order. Only a document summed in the
    query's order is put in a dict.
    """
    dims, weights = index.vectors.row(doc)
    if len(qvec) <= len(dims):
        dvec = dict(zip(dims, weights))
        return ordered_sum(w * dvec.get(d, 0.0) for d, w in qvec.items())
    return ordered_sum(w * qvec.get(d, 0.0) for d, w in zip(dims, weights))


def _postings_candidates(index: RetrievalIndex, qvec: dict[int, float], k: int) -> list[int]:
    """The documents that can rank in the top k, ascending, scored through postings.

    Postings sum each document in query order; _cosine sums in the shorter
    vector's order, which can round differently. Only documents within the
    reordering margin of the k-th best can reach the top k, so only they
    need the exact sum.
    """
    postings = index.postings
    acc: dict[int, float] = {}
    get = acc.get
    for d, qw in qvec.items():
        for doc, w in zip(*postings.row(d)):
            acc[doc] = get(doc, 0.0) + qw * w
    cut = 0.0
    if k < len(acc):
        kth = heapq.nlargest(k, acc.values())[-1]
        cut = kth * (1.0 - len(qvec) * _REORDER_MARGIN)
    return sorted(doc for doc, s in acc.items() if s > 0.0 and s >= cut)


def retrieve_indices(index: RetrievalIndex, query, k: int = 1) -> list[tuple[int, float]]:
    """Top-k (document position, cosine similarity), ties by insertion order.

    Similarities are bit-identical to scoring every document with
    :func:`_cosine`. A word-vector index is dense, so every document is a
    candidate; a TF-IDF index takes its candidates from
    :attr:`RetrievalIndex.postings`. Both score the candidates exactly and
    rank them the same way.
    """
    qvec = _query_vector(index, query)
    k = len(range(index.n_docs)[:k])  # as many as [:k] of a full ranking
    if k == 0:
        return []
    if index.word_vectors is None:
        candidates = _postings_candidates(index, qvec, k)
    else:
        candidates = range(index.n_docs)
    exact = {doc: _cosine(qvec, index, doc) for doc in candidates}
    # The candidates ascend and heapq.nlargest is stable, so among equal
    # similarities the earlier position wins.
    ranked = heapq.nlargest(k, exact, key=exact.__getitem__)
    # Fewer than k candidates: every other document scores zero, and zeros
    # tie, so they follow in insertion order.
    unscored = (i for i in range(index.n_docs) if i not in exact)
    ranked += itertools.islice(unscored, k - len(ranked))
    starts = index.vectors.offsets
    return [
        (i, exact[i] if i in exact else 0.0 if qvec and starts[i] < starts[i + 1] else 0)
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

    Both files are written under temporary names in ``dir_path`` and then
    renamed into place, so a save that fails partway leaves any files
    saved there before as they were.
    """
    if index.word_vectors is not None:
        raise ValueError("only TF-IDF indexes support persistence")
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    staged = {name: dir_path / f"{name}.tmp" for name in (VOCAB_FILE, VECTORS_FILE)}
    try:
        with staged[VOCAB_FILE].open("w", encoding="utf-8") as fh:
            for term, dim in sorted(index.vocabulary.items(), key=lambda kv: kv[1]):
                fh.write(f"{_escape(term)}\t{dim}\t{index.df[term]}\n")
        with staged[VECTORS_FILE].open("w", encoding="utf-8") as fh:
            for doc, doc_id in enumerate(index.doc_ids):
                pairs = " ".join(map("{}:{:.17g}".format, *index.vectors.row(doc)))
                fh.write(f"{_escape(doc_id)} {pairs}".rstrip() + "\n")
        for name, tmp in staged.items():
            os.replace(tmp, dir_path / name)
    finally:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)


def load_index(dir_path: str | Path) -> RetrievalIndex:
    """Load a persisted TF-IDF index; documents come back as bare ids.

    Line n of vocabulary.tsv holds dimension n-1 of a new term, with a
    document frequency in ``1..N``; vectors.txt dimensions must be below
    ``V`` and appear at most once per line, weights in [0, 1] and squared
    norms at most 1 (plus rounding), as in any L2-normalized vector, so
    every similarity is a cosine. The two files must agree as a built
    index's do: dimension d is held by ``df[d]`` lines of vectors.txt, or,
    when ``df[d]`` is N, by every line that holds any entry. Percent-encoded
    ids and terms are decoded. A malformed file raises ValueError naming the
    file and line; lines are numbered as ``str.splitlines`` splits the
    text. A file with text whose last byte is not ``\\n``, as in a truncated
    file, is bad at its last line. Invalid UTF-8 in either file is reported
    first, then the first bad line of vocabulary.tsv, then that of
    vectors.txt, then the first vocabulary.tsv line whose df disagrees with
    vectors.txt.

    vectors.txt is streamed: each line's entries are appended to the
    index's arrays once the line passes, and no line is held after that.
    """
    dir_path = Path(dir_path)
    vocab_path, vectors_path = dir_path / VOCAB_FILE, dir_path / VECTORS_FILE
    vocabulary: dict[str, int] = {}
    df: dict[str, int] = {}
    # The range of a document frequency depends on N, which is known only
    # once vectors.txt is read; every other error is kept until then.
    vocab_error = vectors_error = None
    n_dims = n_docs = 0
    try:
        for dim, raw in enumerate(read_lines(vocab_path, terminated=True)):
            n_dims = dim + 1
            if vocab_error:
                continue
            try:
                term, stored_dim, count = raw.split("\t")
                term, stored_dim, count = unquote(term), int(stored_dim), int(count)
                if stored_dim != dim:
                    raise ValueError(f"dimension {stored_dim}, expected {dim}")
                if term in vocabulary:
                    raise ValueError(f"duplicate term {term!r}")
            except ValueError as exc:
                vocab_error = f"{vocab_path}:{dim + 1}: {exc}"
                continue
            vocabulary[term] = dim
            df[term] = count
    except UnterminatedFileError as exc:
        vocab_error = vocab_error or str(exc)
    doc_ids: list[str] = []
    vectors = SparseRows()
    try:
        for lineno, raw in enumerate(read_lines(vectors_path, terminated=True), start=1):
            n_docs = lineno
            if vectors_error:
                continue
            parts = raw.split(" ")
            try:
                pairs = map(str.split, parts[1:], itertools.repeat(":"))
                entries = [(int(d), float(w)) for d, w in pairs]
                line_dims, line_weights = _checked_vector(entries, n_dims)
            except ValueError as exc:
                vectors_error = f"{vectors_path}:{lineno}: {exc}"
                continue
            doc_ids.append(unquote(parts[0]))
            vectors.cols.extend(line_dims)
            vectors.weights.extend(line_weights)
            vectors.offsets.append(len(vectors.cols))
    except UnterminatedFileError as exc:
        vectors_error = vectors_error or str(exc)
    for dim, count in enumerate(df.values()):
        if not 1 <= count <= n_docs:
            raise ValueError(f"{vocab_path}:{dim + 1}: document frequency {count} outside 1..{n_docs}")
    if vocab_error or vectors_error:
        raise ValueError(vocab_error or vectors_error)
    # Built, a dimension is held by the rows of its df documents; at df == N
    # its idf is 0, and a row whose every weight is 0 is stored empty.
    held = Counter(vectors.cols)
    offsets = vectors.offsets
    n_empty = sum(map(operator.eq, offsets, offsets[1:]))
    for dim, count in enumerate(df.values()):
        if held[dim] != (count if count < n_docs else n_docs - n_empty):
            raise ValueError(
                f"{vocab_path}:{dim + 1}: document frequency {count}, but dimension "
                f"{dim} is held by {held[dim]} of {n_docs} lines of {VECTORS_FILE}"
            )
    return RetrievalIndex(
        doc_ids=doc_ids,
        documents=list(doc_ids),
        vectors=vectors,
        vocabulary=vocabulary,
        df=df,
    )


def _checked_vector(entries: list[tuple[int, float]], n_dims: int) -> tuple[tuple, tuple]:
    """The dimensions and weights of ``entries``, if load_index accepts them.

    Anything else raises ValueError.
    """
    if not entries:
        return (), ()
    dims, weights = zip(*entries)
    if len(set(dims)) < len(dims):
        raise ValueError(f"repeated dimension {_first_repeat(dims)}")
    if min(dims) < 0 or max(dims) >= n_dims:
        raise ValueError(f"dimension outside 0..{n_dims - 1}")
    if not all(map(math.isfinite, weights)) or min(weights) < 0.0 or max(weights) > 1.0:
        raise ValueError("weights must be finite, non-negative and at most 1")
    if ordered_sum(map(operator.mul, weights, weights)) > 1.0 + 1e-9:
        raise ValueError("vector norm above 1")
    return dims, weights


def _first_repeat(dims: tuple[int, ...]) -> int:
    """The first of ``dims`` that an earlier one equals (one must)."""
    seen = set()
    for dim in dims:
        if dim in seen:
            return dim
        seen.add(dim)
