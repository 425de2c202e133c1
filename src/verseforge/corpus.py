"""Corpus ingestion: tokenization, verse segmentation, filtering, statistics.

Three input domains are supported: song lyrics (one song per file, verses
separated by blank lines), news summaries, and movie plot summaries (prose,
one document per line or per file). All downstream processing operates on
lowercase whitespace-free tokens produced by :func:`tokenize`.
"""

from __future__ import annotations

import codecs
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import filterfalse, groupby
from pathlib import Path
from statistics import mean
from typing import Iterable, Iterator

# Characters split off token edges as standalone tokens. Apostrophes and
# hyphens stay inside tokens ("can't", "mid-30s").
PUNCT_CHARS = '.,!?;:"()[]'

# One token: a single punctuation character, or a run of non-whitespace
# that neither starts nor ends with punctuation. Over a whitespace-delimited
# chunk this yields the leading punctuation one by one, the core, then the
# trailing punctuation one by one. On a line without punctuation it yields
# the maximal non-whitespace runs, which is what ``str.split()`` returns:
# ``\s`` and ``str.split`` agree on what whitespace is.
_TOKEN_RE = re.compile(
    r"[{p}]|[^\s{p}](?:\S*[^\s{p}])?".format(p=re.escape(PUNCT_CHARS))
)
_has_punct = re.compile("[{p}]".format(p=re.escape(PUNCT_CHARS))).search

# Finds an alphanumeric character of a token: ``\w`` is exactly
# ``str.isalnum`` plus "_". A token it finds nothing in is punctuation.
find_alnum = re.compile(r"[^\W_]").search

# Tokens made solely of digits, optionally with internal commas/periods
# ("4", "1,000", "3.14"). "mid-30s" is not a number.
_NUMBER_RE = re.compile(r"^\d+(?:[.,]\d+)*$")
match_number = _NUMBER_RE.match

# Line-separator symbol used in all flat, single-string serializations
# (training pairs, predictor queries, hypothesis batches).
NL_TOKEN = "<nl>"
# The masked position of a predictor query.
MASK_TOKEN = "<mask>"
# The flat format has no escape, so corpus input may not hold these, in
# any case, even inside a token.
RESERVED_TOKENS = (NL_TOKEN, MASK_TOKEN)

Line = list[str]

# Document kinds: a lyrics file is one song, a news or movies file holds
# one document per line.
KINDS = ("lyrics", "news", "movies")


class EmptyCorpusError(ValueError):
    """Raised when an operation requires at least one document."""


@dataclass(frozen=True)
class Document:
    """A tokenized input text with its raw form preserved.

    ``lines`` holds only non-empty token lists; the raw text keeps the
    blank-line structure needed to recover verse boundaries in lyrics.
    """

    id: str
    kind: str  # one of KINDS
    lines: list[Line]
    raw: str

    def token_count(self) -> int:
        return sum(len(line) for line in self.lines)

    def all_tokens(self) -> list[str]:
        return [tok for line in self.lines for tok in line]


@dataclass
class Verse:
    """A block of consecutive lyric lines, the unit of metrics and editing."""

    lines: list[Line]
    source_doc: str | None = None

    def all_tokens(self) -> list[str]:
        return [tok for line in self.lines for tok in line]

    def copy(self) -> "Verse":
        return Verse([list(line) for line in self.lines], self.source_doc)


@dataclass(frozen=True)
class CorpusStats:
    n_docs: int
    sentences_per_doc: tuple[float, float]
    tokens_per_doc: tuple[float, float]
    tokens_per_sentence: tuple[float, float]


def tokenize(text: str) -> list[Line]:
    """Lowercase and tokenize ``text`` into per-line token lists.

    Lines split on newline, tokens on whitespace; characters in
    ``PUNCT_CHARS`` are split off token edges as separate tokens.
    Lines with no tokens are dropped.
    """
    lines: list[Line] = []
    for raw_line in text.lower().splitlines():
        tokens: Line = (
            _TOKEN_RE.findall(raw_line) if _has_punct(raw_line) else raw_line.split()
        )
        if tokens:
            lines.append(tokens)
    return lines


def join_lines(lines: Iterable[Iterable[str]]) -> str:
    """Flatten token lines into one space-joined string with NL_TOKEN breaks."""
    flat: list[str] = []
    for i, line in enumerate(lines):
        if i > 0:
            flat.append(NL_TOKEN)
        flat.extend(line)
    return " ".join(flat)


def split_flat(text: str) -> list[Line]:
    """Parse a NL_TOKEN-separated flat string back into tokenized lines.

    NL_TOKEN breaks a line as a newline does; lines with no tokens are
    dropped, as in :func:`tokenize`.
    """
    return tokenize(text.replace(NL_TOKEN, "\n"))


def is_punctuation(token: str) -> bool:
    """True for tokens with no alphanumeric content ("?", "...", "_").

    A token that ``str.isalnum`` accepts (nearly every word) holds an
    alphanumeric character, so the regex runs only on the others.
    """
    return not token.isalnum() and find_alnum(token) is None


def punctuation_in(tokens: Iterable[str]) -> set[str]:
    """The tokens of ``tokens`` that :func:`is_punctuation` accepts, in C-level passes."""
    return set(filterfalse(find_alnum, filterfalse(str.isalnum, tokens)))


def is_number(token: str) -> bool:
    return match_number(token) is not None


def split_verses(lyric: Document, min_lines: int = 4) -> list[Verse]:
    """Segment a lyrics document at blank lines, dropping short blocks.

    Blocks with fewer than ``min_lines`` lines (choruses, intros, ad-libs)
    are discarded untokenized. A line is blank when ``str.strip`` empties
    it, which is exactly when :func:`tokenize` finds no token in it: both
    treat the ``str.isspace`` characters as whitespace, and lowercasing
    adds none.
    """
    if lyric.kind != "lyrics":
        raise ValueError(f"split_verses expects a lyrics document, got {lyric.kind!r}")
    verses: list[Verse] = []
    for has_text, group in groupby(lyric.raw.splitlines(), lambda line: line.strip() != ""):
        block = list(group)
        # A blank run is never a verse, even when min_lines <= 0.
        if has_text and len(block) >= min_lines:
            verses.append(Verse(tokenize("\n".join(block)), lyric.id))
    return verses


def filter_by_length(docs: list[Document], min_tok: int, max_tok: int) -> list[Document]:
    """Keep documents whose total token count lies in [min_tok, max_tok]."""
    if min_tok > max_tok:
        raise ValueError(f"min_tok {min_tok} exceeds max_tok {max_tok}")
    return [d for d in docs if min_tok <= d.token_count() <= max_tok]


def _pstdev(data: list[int]) -> float:
    """The population standard deviation of ``data``, correctly rounded.

    It takes the exact variance and a round-to-odd integer square root, as
    ``statistics.pstdev`` does from Python 3.11; Python 3.10's can be one
    unit in the last place off.
    """
    n = len(data)
    var = Fraction(n * sum(x * x for x in data) - sum(data) ** 2, n * n)
    num, den = var.numerator, var.denominator
    # Scale the variance to about 2 * 53 + 3 bits, so that its root keeps
    # two bits beyond a float's 53: rounded to odd and then to a float, it
    # rounds as the exact root does.
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        return float(_isqrt_rto(num, den << 2 * q) << q)
    return _isqrt_rto(num << -2 * q, den) / (1 << -q)


def _isqrt_rto(num: int, den: int) -> int:
    """The square root of ``num / den`` as an integer, rounded to odd."""
    root = math.isqrt(num // den)
    return root | (root * root * den != num)


def corpus_stats(docs: list[Document]) -> CorpusStats:
    """Population mean and standard deviation of corpus size quantities.

    ``tokens_per_sentence`` pools every sentence of every document. The
    deviations are correctly rounded on every Python version.
    """
    if not docs:
        raise EmptyCorpusError("empty corpus")
    sents = [len(d.lines) for d in docs]
    toks = [d.token_count() for d in docs]
    per_sent = [len(line) for d in docs for line in d.lines]
    if not per_sent:
        raise EmptyCorpusError("empty corpus: no sentences")
    return CorpusStats(
        n_docs=len(docs),
        sentences_per_doc=(mean(sents), _pstdev(sents)),
        tokens_per_doc=(mean(toks), _pstdev(toks)),
        tokens_per_sentence=(mean(per_sent), _pstdev(per_sent)),
    )


# The line breaks that open() reads as "\n".
_NEWLINE_RE = re.compile("\r\n?|\n")
_BLOCK_BYTES = 1 << 14


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file as ``open`` reads it.

    A leading byte-order mark is dropped, and ``\\r\\n`` and ``\\r`` read
    as ``\\n``. Invalid UTF-8 raises ValueError naming the file and the
    line of the first bad byte, lines ending at a newline.
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        # Read whole, the decoded object is the file after any byte-order mark.
        head = exc.object[: exc.start].decode("utf-8")
        raise _invalid_utf8(path, len(_NEWLINE_RE.split(head)), exc) from None


class UnterminatedFileError(ValueError):
    """A file whose last line has no final newline, as when the file was cut short."""


def read_lines(path: str | Path, *, terminated: bool = False) -> Iterator[str]:
    """The lines of a UTF-8 file as ``str.splitlines`` splits its text, streamed.

    A leading byte-order mark is dropped. The file is read in blocks of
    about 16 KiB that end at a newline, so no more than a block and a line
    are held at a time. Invalid UTF-8 raises ValueError naming the file
    and the line of the first bad byte. With ``terminated``, a file with
    text whose last byte is not ``\\n`` raises UnterminatedFileError naming
    its last line, once every line has been yielded.
    """
    lineno = 0
    end = b"\n"
    with open(path, "rb") as fh:
        # A block that ends at a newline (or the end of the file) decodes
        # and splits on its own: no UTF-8 sequence holds the byte "\n", and
        # no line break spans it ("\r\n" ends at it).
        block = (fh.read(_BLOCK_BYTES) + fh.readline()).removeprefix(codecs.BOM_UTF8)
        while block:
            try:
                lines = block.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                head = block[: exc.start].decode("utf-8") + "x"
                raise _invalid_utf8(path, lineno + len(head.splitlines()), exc) from None
            lineno += len(lines)
            yield from lines
            end = block[-1:]
            block = fh.read(_BLOCK_BYTES) + fh.readline()
    if terminated and end != b"\n":
        raise UnterminatedFileError(f"{path}:{lineno}: no final newline (truncated file?)")


def _invalid_utf8(path: str | Path, lineno: int, exc: UnicodeDecodeError) -> ValueError:
    bad = exc.object[exc.start]
    return ValueError(f"{path}:{lineno}: invalid UTF-8 byte 0x{bad:02x} ({exc.reason})")


def load_word_list(path: str | Path) -> frozenset[str]:
    """One lowercase word per line, UTF-8; blank lines are skipped."""
    words = (line.strip().lower() for line in read_lines(path))
    return frozenset(w for w in words if w)


def _reject_reserved(path: Path, text: str) -> None:
    """Raise ValueError naming the first line of ``text`` that holds a reserved token."""
    # Every reserved token starts with "<", and lowering makes no "<".
    if "<" not in text:
        return
    lowered = text.lower()
    found = [(lowered.find(tok), tok) for tok in RESERVED_TOKENS if tok in lowered]
    if found:
        pos, tok = min(found)
        lineno = lowered.count("\n", 0, pos) + 1
        raise ValueError(f"{path}:{lineno}: reserved token {tok!r} in corpus input")


def load_document(path: str | Path, kind: str) -> Document:
    """Load one document from a UTF-8 text file.

    A line holding a reserved token (:data:`RESERVED_TOKENS`) raises
    ValueError naming the file and line.
    """
    path = Path(path)
    raw = read_text(path)
    _reject_reserved(path, raw)
    return Document(id=path.stem, kind=kind, lines=tokenize(raw), raw=raw)


def load_corpus(path: str | Path, kind: str) -> list[Document]:
    """Load a corpus from a file or directory.

    Directories yield one document per ``*.txt`` file (sorted by name).
    A lyrics file is a single song; a prose file holds one document per
    line, and a line ends at a newline only: U+2028, U+0085 or a form
    feed inside it stays in its document. As in :func:`load_document`, a
    line holding a reserved token raises ValueError naming file and line.
    The documents of one prose file share one string object per distinct
    token.
    """
    path = Path(path)
    if path.is_dir():
        return [load_document(p, kind) for p in sorted(path.glob("*.txt"))]
    if kind == "lyrics":
        return [load_document(path, kind)]
    text = read_text(path)
    _reject_reserved(path, text)
    stem = path.stem
    shared: dict[str, str] = {}
    docs = []
    for i, raw_line in enumerate(text.split("\n")):
        if not raw_line.strip():
            continue
        docs.append(
            Document(
                id=f"{stem}:{i}",
                kind=kind,
                lines=[list(map(shared.setdefault, line, line)) for line in tokenize(raw_line)],
                raw=raw_line,
            )
        )
    return docs
