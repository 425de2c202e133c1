import math
import random
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import unquote

import pytest

from verseforge.corpus import Document, Verse
from verseforge.enhance import CandidateList, PredictorProtocolError
from verseforge.phonetics import (
    _VARIANT_RE,
    FALLBACK_PREFIX,
    LexiconFormatError,
    Lexicon,
    Pronunciation,
    is_vowel,
    load_lexicon,
    strip_stress,
    transcribe,
)
from verseforge.selection import VECTORS_FILE, VOCAB_FILE

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

# Toy words plus stopwords, numbers, tokens that only look like numbers, an
# Arabic-Indic digit, punctuation and "_", for the property tests of the
# content-word and overlap filters.
FILTER_TOKENS = TOY_WORDS + [
    "the", "where", "you", "it's", "1,000", "3.14", "4", "4th", "mid-30s", "\u0663",
    "...", "\u2014", "_", "?", "can't",
]


def reference_load_lexicon(path: str | Path) -> Lexicon:
    """Reference: the per-line parser that strips every phoneme separately.

    Its entries are a plain dict, built eagerly, so checks run over it do
    not go through :func:`load_lexicon`'s parse on first lookup.
    """
    path = Path(path)
    entries: dict[str, Pronunciation] = {}
    with path.open(encoding="utf-8-sig", errors="replace") as fh:
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


def reference_fallback_pronunciation(word: str) -> Pronunciation:
    """Reference: the orthographic fallback as a letter-by-letter scan.

    It keeps one buffer for the current vowel run and flushes it at each
    non-vowel and once more after the last letter.
    """
    symbols: list[str] = []
    run: list[str] = []
    for i, ch in enumerate(word.lower()):
        if ch in "aeiouy" and not (ch == "y" and i == 0):
            run.append(ch)
        else:
            if run:
                symbols.append(FALLBACK_PREFIX + "".join(run))
                run = []
    if run:
        symbols.append(FALLBACK_PREFIX + "".join(run))
    return tuple(symbols)


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


def reference_normalize(vec: dict[int, float]) -> dict[int, float]:
    """Reference: ``vec`` scaled to unit length; empty if every weight is 0.

    The squares are added one by one in ``vec``'s order.
    """
    squares = 0
    for w in vec.values():
        squares += w * w
    norm = math.sqrt(squares)
    return {d: w / norm for d, w in vec.items()} if norm else {}


def reference_weigh(
    tokens: list[str], vocabulary: dict[str, int], df: dict[str, int], n: int
) -> dict[int, float]:
    """Reference: the TF-IDF vector of ``tokens``, counted and weighed term by term."""
    counts: dict[str, int] = {}
    for t in tokens:
        if t in vocabulary:
            counts[t] = counts.get(t, 0) + 1
    return reference_normalize({vocabulary[t]: c * math.log(n / df[t]) for t, c in counts.items()})


def reference_tokens(doc) -> list[str]:
    """Reference: the tokens of a Document or Verse, a list of lines, or a token list."""
    if isinstance(doc, (Document, Verse)):
        lines = doc.lines
    elif doc and isinstance(doc[0], list):
        lines = doc
    else:
        lines = [doc]
    return [tok for line in lines for tok in line]


def reference_doc_id(doc, position: int) -> str:
    """Reference: the id an index gives the document at ``position``."""
    if isinstance(doc, Document):
        return doc.id
    if isinstance(doc, Verse) and doc.source_doc:
        return f"{doc.source_doc}#{position}"
    return f"doc{position}"


def reference_stopwords() -> frozenset[str]:
    """Reference: the bundled stopword file, read line by line."""
    path = PKG_DATA_DIR / "stopwords_en.txt"
    words = (line.strip().lower() for line in path.read_text(encoding="utf-8").splitlines())
    return frozenset(w for w in words if w)


@dataclass
class ReferenceIndex:
    """What a reference builder or loader returns: one dict per document."""

    doc_ids: list[str]
    documents: list
    vectors: list[dict[int, float]]
    vocabulary: dict[str, int]
    df: dict[str, int]
    stopwords: frozenset[str] = frozenset()

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)


def reference_build_index(
    docs: list, min_df: int = 1, stopwords: frozenset[str] | None = None
) -> ReferenceIndex:
    """Reference: the TF-IDF builder that keeps every filtered token list.

    It computes each idf once per document that holds the term. Ids,
    tokens, the stopword default and the normalization are its own.
    """
    if not docs:
        raise ValueError("cannot index an empty corpus")
    if stopwords is None:
        stopwords = reference_stopwords()
    token_lists = [[t for t in reference_tokens(d) if t not in stopwords] for d in docs]
    df: dict[str, int] = {}
    for tokens in token_lists:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    df = {t: c for t, c in df.items() if c >= min_df}
    vocabulary = {term: dim for dim, term in enumerate(sorted(df))}
    return ReferenceIndex(
        doc_ids=[reference_doc_id(d, i) for i, d in enumerate(docs)],
        documents=list(docs),
        vectors=[
            dict(sorted(reference_weigh(tokens, vocabulary, df, len(docs)).items()))
            for tokens in token_lists
        ],
        vocabulary=vocabulary,
        df=df,
        stopwords=stopwords,
    )


def reference_load_index(dir_path: str | Path) -> ReferenceIndex:
    """Reference: the index loader that holds every line of both files.

    It checks every vocabulary line before any vectors line, and rejects a
    line that repeats a dimension once the line has parsed, or the last
    line of a file whose text does not end in a newline, raising
    :func:`load_index`'s messages.
    """
    dir_path = Path(dir_path)
    vocab_path, vectors_path = dir_path / VOCAB_FILE, dir_path / VECTORS_FILE
    # Bytes, decoded without translating line breaks, to see the last one.
    vocab_text = vocab_path.read_bytes().decode("utf-8-sig")
    vectors_text = vectors_path.read_bytes().decode("utf-8-sig")
    vocab_lines, vector_lines = vocab_text.splitlines(), vectors_text.splitlines()
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
    if vocab_text and not vocab_text.endswith("\n"):
        raise ValueError(f"{vocab_path}:{n_dims}: no final newline (truncated file?)")
    doc_ids: list[str] = []
    vectors: list[dict[int, float]] = []
    for lineno, raw in enumerate(vector_lines, start=1):
        parts = raw.split(" ")
        try:
            vec = {int(d): float(w) for d, w in (p.split(":") for p in parts[1:])}
            dims = [int(p.split(":")[0]) for p in parts[1:]]
            repeated = [d for i, d in enumerate(dims) if d in dims[:i]]
            if repeated:
                raise ValueError(f"repeated dimension {repeated[0]}")
            if vec and (min(vec) < 0 or max(vec) >= n_dims):
                raise ValueError(f"dimension outside 0..{n_dims - 1}")
            weights = vec.values()
            if not all(map(math.isfinite, weights)) or (
                vec and (min(weights) < 0.0 or max(weights) > 1.0)
            ):
                raise ValueError("weights must be finite, non-negative and at most 1")
            squares = 0
            for w in weights:
                squares += w * w
            if squares > 1.0 + 1e-9:
                raise ValueError("vector norm above 1")
        except ValueError as exc:
            raise ValueError(f"{vectors_path}:{lineno}: {exc}") from None
        doc_ids.append(unquote(parts[0]))
        vectors.append(vec)
    if vectors_text and not vectors_text.endswith("\n"):
        raise ValueError(f"{vectors_path}:{n_docs}: no final newline (truncated file?)")
    return ReferenceIndex(
        doc_ids=doc_ids,
        documents=list(doc_ids),
        vectors=vectors,
        vocabulary=vocabulary,
        df=df,
    )


def uncached_vowels(word: str, lex: Lexicon) -> tuple[str, ...]:
    """Vowel symbols of ``transcribe(word, lex)``, bypassing the lexicon's code memo."""
    return tuple(filter(is_vowel, transcribe(word, lex)))


def brute_force_lengths(tokens, lex, window=15, exclude_identical=True):
    """Exhaustive (i, j, k) enumeration of matching vowel suffixes.

    Independent of the shipped scan and of the lexicon's code memo: the
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
