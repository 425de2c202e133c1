import codecs
import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from verseforge import corpus
from verseforge.corpus import (
    _TOKEN_RE,
    NL_TOKEN,
    PUNCT_CHARS,
    RESERVED_TOKENS,
    KINDS,
    Document,
    EmptyCorpusError,
    corpus_stats,
    filter_by_length,
    find_alnum,
    is_number,
    is_punctuation,
    join_lines,
    load_corpus,
    load_document,
    punctuation_in,
    read_lines,
    read_text,
    split_flat,
    split_verses,
    tokenize,
)
from verseforge.selection import hypothesis_from_record

from conftest import DATA_DIR

# Every code point, in order. The tokenizer's fast path and the punctuation
# rule rest on regex classes agreeing with str methods over all of them, per
# the interpreter's Unicode database.
ALL_CHARS = "".join(map(chr, range(0x110000)))

# Every character str.isspace accepts: str.split and the regex \s must agree.
WHITESPACE = list(filter(str.isspace, ALL_CHARS))


def reference_tokenize(text: str) -> list[list[str]]:
    """Reference: split each line on whitespace, then peel edge punctuation."""
    lines = []
    for raw_line in text.lower().splitlines():
        tokens = []
        for chunk in raw_line.split():
            head, tail = [], []
            while chunk and chunk[0] in PUNCT_CHARS:
                head.append(chunk[0])
                chunk = chunk[1:]
            while chunk and chunk[-1] in PUNCT_CHARS:
                tail.append(chunk[-1])
                chunk = chunk[:-1]
            tokens.extend(head + ([chunk] if chunk else []) + tail[::-1])
        if tokens:
            lines.append(tokens)
    return lines


def reference_split_flat(text: str) -> list[list[str]]:
    """Reference: tokenize each NL_TOKEN segment on its own; a segment with
    no tokens becomes one empty line."""
    if not text:
        return []
    lines = []
    for segment in text.split(NL_TOKEN):
        lines.extend(tokenize(segment) or [[]])
    return lines


def make_doc(raw: str, kind: str = "lyrics", doc_id: str = "d") -> Document:
    return Document(id=doc_id, kind=kind, lines=tokenize(raw), raw=raw)


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_question(self):
        assert tokenize("Where were you?") == [["where", "were", "you", "?"]]

    def test_apostrophe_stays_inside(self):
        assert tokenize("can't claim no fame") == [["can't", "claim", "no", "fame"]]

    def test_edge_punctuation_detached_in_order(self):
        assert tokenize('"(hello)!" world') == [
            ['"', "(", "hello", ")", "!", '"', "world"]
        ]

    def test_all_punct_chunk_decomposes(self):
        assert tokenize("...") == [[".", ".", "."]]

    def test_blank_lines_dropped(self):
        assert tokenize("a\n\n  \nb") == [["a"], ["b"]]

    def test_interior_punctuation_kept(self):
        assert tokenize("mid-30s don't") == [["mid-30s", "don't"]]

    @given(
        st.text(
            alphabet=st.one_of(
                st.sampled_from(WHITESPACE + list(PUNCT_CHARS) + list("aZİß'-9")),
                st.characters(),
            ),
            max_size=60,
        )
    )
    def test_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    list(PUNCT_CHARS)
                    + ["<nl>", "\x85", "\u2028", "\u3000", "\x1c", "_", "—", "٣", " ", "\n", "a"]
                ),
                st.text(max_size=3),
            ),
            max_size=20,
        ).map("".join)
    )
    def test_matches_regex_on_every_line(self, text):
        # Lines without punctuation skip the regex; the result must not show it.
        expected = [line for line in map(_TOKEN_RE.findall, text.lower().splitlines()) if line]
        assert tokenize(text) == expected

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=200))
    def test_retokenization_stable(self, text):
        once = tokenize(text)
        assert tokenize("\n".join(" ".join(line) for line in once)) == once


def test_is_number():
    assert is_number("4") and is_number("1,000") and is_number("3.14")
    assert not is_number("mid-30s") and not is_number("propane") and not is_number("4th")


def test_is_punctuation():
    assert is_punctuation("?") and is_punctuation("...") and is_punctuation("-")
    assert not is_punctuation("can't") and not is_punctuation("4")


@given(st.lists(st.text(max_size=4)))
def test_isalnum_prefilter_keeps_the_regex_rule(tokens):
    # str.isalnum decides the tokens it accepts without the regex; the rule
    # must still be "find_alnum finds nothing", the empty token included.
    expected = {t for t in tokens if find_alnum(t) is None}
    assert punctuation_in(tokens) == expected
    assert set(filter(is_punctuation, tokens)) == expected


class TestUnicodeRules:
    """Regex classes against str methods over every code point; whole joined
    strings are compared so the check stays fast."""

    def test_alnum_class_is_isalnum(self):
        # find_alnum is [^\W_]: is_punctuation(t) is not any(map(str.isalnum, t)).
        assert "".join(filter(find_alnum, ALL_CHARS)) == "".join(
            filter(str.isalnum, ALL_CHARS)
        )

    def test_whitespace_class_is_isspace(self):
        assert re.findall(r"\s", ALL_CHARS) == WHITESPACE

    def test_whitespace_class_is_what_str_split_splits_on(self):
        # Each code point stands alone between two "x"s, so a piece boundary
        # falls exactly where a code point is a separator.
        spaced = "x".join(ALL_CHARS)
        assert spaced.split() == re.split(r"\s", spaced)

    def test_strip_removes_exactly_isspace(self):
        # split_verses calls a line blank when str.strip empties it.
        assert [c for c in ALL_CHARS if not c.strip()] == WHITESPACE

    def test_lower_adds_no_whitespace_or_line_boundary(self):
        # So tokenize finds a token in a line exactly when str.strip leaves
        # something, and a joined block of lines keeps its line count.
        spaces = "".join(WHITESPACE)
        assert spaces.lower() == spaces
        lowered = "".join(c for c in ALL_CHARS if not c.isspace()).lower()
        assert re.search(r"\s", lowered) is None
        assert lowered.splitlines() == [lowered]


class TestSplitVerses:
    def test_single_block(self):
        raw = "\n".join(f"line {i} tokens here" for i in range(8))
        verses = split_verses(make_doc(raw))
        assert len(verses) == 1 and len(verses[0].lines) == 8

    def test_short_blocks_discarded(self):
        blocks = ["\n".join(f"a b {i}" for i in range(n)) for n in (8, 3, 5)]
        doc = make_doc("\n\n".join(blocks))
        verses = split_verses(doc)
        assert [len(v.lines) for v in verses] == [8, 5]
        assert all(v.source_doc == "d" for v in verses)

    def test_all_below_threshold(self):
        blocks = ["\n".join("x y" for _ in range(n)) for n in (3, 2)]
        assert split_verses(make_doc("\n\n".join(blocks))) == []

    def test_multiple_blank_separators(self):
        raw = "a b\nc d\ne f\ng h\n\n\n\ni j\nk l\nm n\no p"
        assert len(split_verses(make_doc(raw))) == 2

    def test_min_lines_override(self):
        verses = split_verses(make_doc("a b\nc d"), min_lines=2)
        assert len(verses) == 1

    def test_rejects_prose(self):
        with pytest.raises(ValueError):
            split_verses(make_doc("some text", kind="news"))

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["\n", "\n\n", " ", "\u3000", "\x1c", "\u2028", "\r\n", "a b", "?", "İ"]
                ),
                st.text(max_size=3),
            ),
            max_size=30,
        ).map("".join),
        st.integers(-1, 3),
    )
    def test_matches_per_line_reference(self, raw, min_lines):
        # Reference: tokenize line by line and flush a block at each blank
        # line and at the end.
        verses, block = [], []
        for raw_line in raw.splitlines():
            tokenized = tokenize(raw_line)
            if tokenized:
                block.append(tokenized[0])
            elif block:
                if len(block) >= min_lines:
                    verses.append(block)
                block = []
        if block and len(block) >= min_lines:
            verses.append(block)
        assert [v.lines for v in split_verses(make_doc(raw), min_lines)] == verses

    def test_lines_preserved_verbatim(self):
        raw = "one two three\nfour five six\nseven eight nine\nten eleven twelve"
        doc = make_doc(raw)
        verses = split_verses(doc)
        input_lines = [line for line in doc.lines]
        total = sum(len(v.lines) for v in verses)
        assert total <= len(input_lines)
        for verse in verses:
            for line in verse.lines:
                assert line in input_lines


class TestFilterByLength:
    def make(self, n: int) -> Document:
        return make_doc(" ".join("tok" for _ in range(n)), kind="movies", doc_id=f"m{n}")

    def test_boundaries_inclusive(self):
        docs = [self.make(n) for n in (39, 40, 90, 140, 141)]
        kept = filter_by_length(docs, 40, 140)
        assert [d.token_count() for d in kept] == [40, 90, 140]

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            filter_by_length([], 10, 5)


class TestCorpusStats:
    def test_two_docs(self):
        docs = [
            make_doc("a b\nc d", doc_id="x"),
            make_doc("a b\nc d\ne f\ng h", doc_id="y"),
        ]
        stats = corpus_stats(docs)
        assert stats.sentences_per_doc == (3.0, 1.0)

    def test_single_doc_zero_variance(self):
        doc = make_doc("a b c d e\nf g h i j")
        stats = corpus_stats([doc])
        assert stats.tokens_per_doc == (10.0, 0.0)
        assert stats.tokens_per_sentence == (5.0, 0.0)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError, match="empty corpus"):
            corpus_stats([])
        with pytest.raises(EmptyCorpusError) as info:
            corpus_stats([make_doc(""), make_doc("\n\n", doc_id="e")])
        assert str(info.value) == "empty corpus: no sentences"

    def test_permutation_invariant(self):
        docs = [make_doc(f"w{i} " * (i + 1), doc_id=str(i)) for i in range(4)]
        a = corpus_stats(docs)
        b = corpus_stats(list(reversed(docs)))
        assert a == b

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 60), min_size=1, max_size=6), min_size=1, max_size=8))
    def test_deviations_are_correctly_rounded(self, shape):
        # shape[i][j] is the token count of sentence j of document i.
        docs = [
            Document(id=str(i), kind="lyrics", lines=[["w"] * n for n in sents], raw="")
            for i, sents in enumerate(shape)
        ]
        stats = corpus_stats(docs)
        for (_, got), data in (
            (stats.sentences_per_doc, [len(sents) for sents in shape]),
            (stats.tokens_per_doc, [sum(sents) for sents in shape]),
            (stats.tokens_per_sentence, [n for sents in shape for n in sents]),
        ):
            mu = Fraction(sum(data), len(data))
            var = sum((x - mu) ** 2 for x in data) / len(data)
            # The float nearest sqrt(var): var lies between the squares of
            # the midpoints to its neighbours.
            below = (Fraction(math.nextafter(got, 0.0)) + Fraction(got)) / 2
            above = (Fraction(got) + Fraction(math.nextafter(got, math.inf))) / 2
            assert below**2 <= var <= above**2

    def test_golden_mini_corpus(self, mini_corpus_dir):
        docs = load_corpus(mini_corpus_dir, "lyrics")
        golden = json.loads((DATA_DIR / "golden_stats.json").read_text())
        stats = corpus_stats(docs)
        assert stats.n_docs == golden["n_docs"]
        for key in ("sentences_per_doc", "tokens_per_doc", "tokens_per_sentence"):
            got = getattr(stats, key)
            want = golden[key]
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)


class TestLoaders:
    def test_lyrics_file_is_one_doc(self, mini_corpus_dir):
        docs = load_corpus(mini_corpus_dir / "doc_a.txt", "lyrics")
        assert len(docs) == 1 and docs[0].id == "doc_a"

    def test_directory_sorted(self, mini_corpus_dir):
        docs = load_corpus(mini_corpus_dir, "lyrics")
        assert [d.id for d in docs] == ["doc_a", "doc_b", "doc_c", "doc_d", "doc_e"]

    def test_prose_file_one_doc_per_line(self, tmp_path):
        path = tmp_path / "news.txt"
        path.write_text("first summary here\n\nsecond summary there\n")
        docs = load_corpus(path, "news")
        assert [d.id for d in docs] == ["news:0", "news:2"]
        assert docs[0].lines == [["first", "summary", "here"]]

    def test_prose_line_ends_at_newline_only(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text(
            "first story here\u2028still the first story\nsecond story\n", encoding="utf-8"
        )
        docs = load_corpus(path, "news")
        assert [d.id for d in docs] == ["f:0", "f:1"]
        assert docs[0].raw == "first story here\u2028still the first story"
        assert docs[0].lines == [["first", "story", "here"], ["still", "the", "first", "story"]]

    def test_prose_documents_share_token_strings(self, tmp_path):
        path = tmp_path / "news.txt"
        path.write_text(
            "The storm hit (the coast)\nstorm warnings\u2028for the coast\n", encoding="utf-8"
        )
        docs = load_corpus(path, "news")
        assert [d.lines for d in docs] == [tokenize(d.raw) for d in docs]
        (first,), (second, third) = (d.lines for d in docs)
        assert first[1] == "storm" and first[1] is second[0]
        assert first[0] is first[4] is third[1]  # "the"
        assert first[5] is third[2]  # "coast"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_prose_crlf_and_cr_files_load(self, tmp_path, newline):
        path = tmp_path / "f.txt"
        path.write_bytes(newline.join(["a b", "", "c\x0cd", ""]).encode("utf-8"))
        docs = load_corpus(path, "news")
        assert [(d.id, d.lines) for d in docs] == [("f:0", [["a", "b"]]), ("f:2", [["c"], ["d"]])]


# Lines hold no line break; each ends with one of str.splitlines's breaks,
# and only "\n", "\r\n" and "\r" end a line for open().
LINE_TEXT = st.text(
    st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    ),
    min_size=1,
)
OPEN_BREAKS = ["\n", "\r\n", "\r"]
SPLITLINES_BREAKS = OPEN_BREAKS + ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def broken_file(draw, breaks):
    """Lines ended by ``breaks`` and the bytes of their file, one byte of
    which is not UTF-8 when asked; with the 1-based line of that byte."""
    lines = draw(st.lists(st.tuples(LINE_TEXT, st.sampled_from(breaks)), min_size=1, max_size=8))
    parts = [(text + brk).encode("utf-8") for text, brk in lines]
    bad_line = draw(st.integers(0, len(parts) - 1))
    cut = len(lines[bad_line][0][: draw(st.integers(0, len(lines[bad_line][0])))].encode("utf-8"))
    parts[bad_line] = parts[bad_line][:cut] + b"\xff" + parts[bad_line][cut:]
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + b"".join(parts), bad_line + 1


class TestReaders:
    @settings(max_examples=300, deadline=None)
    @given(
        text=st.text(st.sampled_from("ab\u00e9\u20ac\U0001f600" + "".join(SPLITLINES_BREAKS)), max_size=40),
        bom=st.booleans(),
        block=st.integers(1, 8),
    )
    def test_lines_and_text_match_open(self, text, bom, block):
        # Small blocks split lines, "\r\n" pairs and multi-byte characters.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            path.write_bytes((codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8"))
            with mock.patch.object(corpus, "_BLOCK_BYTES", block):
                lines = list(read_lines(path))
            assert lines == path.read_text(encoding="utf-8-sig").splitlines()
            assert read_text(path) == path.read_text(encoding="utf-8-sig")

    @settings(max_examples=200, deadline=None)
    @given(case=broken_file(SPLITLINES_BREAKS), block=st.integers(1, 8))
    def test_lines_name_the_line_of_a_bad_byte(self, case, block):
        data, lineno = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            path.write_bytes(data)
            with mock.patch.object(corpus, "_BLOCK_BYTES", block), pytest.raises(ValueError) as info:
                list(read_lines(path))
        assert str(info.value) == f"{path}:{lineno}: invalid UTF-8 byte 0xff (invalid start byte)"

    @settings(max_examples=200, deadline=None)
    @given(case=broken_file(OPEN_BREAKS))
    def test_text_names_the_line_of_a_bad_byte(self, case):
        data, lineno = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            path.write_bytes(data)
            with pytest.raises(ValueError) as info:
                read_text(path)
        assert str(info.value) == f"{path}:{lineno}: invalid UTF-8 byte 0xff (invalid start byte)"

    def test_truncated_sequence_is_named(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("a\nb\u20ac".encode("utf-8")[:-1])
        for read in (read_text, lambda p: list(read_lines(p))):
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: invalid UTF-8 byte 0xe2 \(unexpected end of data\)$"):
                read(path)


class TestReservedTokens:
    @pytest.mark.parametrize(
        "text, lineno, token",
        [
            ("we ride <nl> at night\nthe day\n", 1, "<nl>"),
            ("we ride\nthe <mask> day\n", 2, "<mask>"),
            ("one\n\ntwo\nx<nl>y\n", 4, "<nl>"),
            ("a\r\nb <NL>\r\n", 2, "<nl>"),
            ("a <Mask>\nb <nl>\n", 1, "<mask>"),
        ],
    )
    @pytest.mark.parametrize("kind", ["lyrics", "news"])
    def test_line_with_reserved_token_names_file_and_line(self, tmp_path, text, lineno, token, kind):
        path = tmp_path / "f.txt"
        path.write_bytes(text.encode("utf-8"))
        message = f"{path}:{lineno}: reserved token {token!r} in corpus input"
        with pytest.raises(ValueError) as exc:
            load_corpus(path, kind)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            load_document(path, kind)
        assert str(exc.value) == message

    def test_angle_brackets_alone_are_text(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("a < b > c <n l> <nl\nl>\n", encoding="utf-8")
        assert load_document(path, "lyrics").lines == [["a", "<", "b", ">", "c", "<n", "l>", "<nl"], ["l>"]]

    def test_directory_names_the_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("fine\n", encoding="utf-8")
        (tmp_path / "b.txt").write_text("fine\nnot <mask>\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'b.txt'}:2: ")):
            load_corpus(tmp_path, "lyrics")

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["<nl>", "<NL>", "<Nl>", "<mask>", "<MASK>", "<", ">", "nl", "mask", "\n",
                     "\r", "\u2028", "\x85", " ", "x", "\u0130", "\u212a", "(", "."]
                ),
                st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
            ),
            max_size=20,
        ).map("".join),
        st.sampled_from(KINDS),
    )
    def test_accepted_text_round_trips_through_the_flat_format(self, text, kind):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "f.txt"
            path.write_bytes(text.encode("utf-8"))
            raw = path.read_text(encoding="utf-8")
            try:
                docs = load_corpus(path, kind)
            except ValueError:
                assert any(tok in raw.lower() for tok in RESERVED_TOKENS)
                return
        assert not any(tok in raw.lower() for tok in RESERVED_TOKENS)
        for doc in docs:
            assert split_flat(join_lines(doc.lines)) == doc.lines == tokenize(doc.raw)


class TestFlatSerialization:
    def test_round_trip(self):
        lines = [["a", "b"], ["c"]]
        assert split_flat(join_lines(lines)) == lines

    def test_empty_lines_preserved(self):
        # The writer keeps empty lines; the reader drops them, as tokenize does.
        assert join_lines([[]] * 4) == "<nl> <nl> <nl>"
        assert split_flat("<nl> <nl> <nl>") == []

    def test_empty(self):
        assert join_lines([]) == ""
        assert split_flat("") == []

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    ["<nl>", "<NL>", "<n", "l>", "\r", "\r\n", "\x85", "\u2028",
                     "\u2029", "Σ", "ς", "İ", "'", " ", "a"]
                ),
                st.text(max_size=3),
            ),
            max_size=20,
        ).map("".join)
    )
    def test_matches_segment_reader(self, text):
        expected = [line for line in reference_split_flat(text) if line]
        assert split_flat(text) == expected
        assert hypothesis_from_record({"rank": 0, "text": text}).verse.lines == expected
