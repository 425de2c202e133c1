import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verseforge.phonetics import (
    _VARIANT_RE,
    ARPABET_VOWELS,
    LexiconFormatError,
    Lexicon,
    Pronunciation,
    fallback_pronunciation,
    is_vowel,
    load_lexicon,
    strip_stress,
    transcribe,
    vowel_sequence,
)

from conftest import MIXED_TOKENS, PKG_DATA_DIR, TOY_WORDS, uncached_vowels

EMPTY = Lexicon()


def reference_load_lexicon(path: str | Path) -> Lexicon:
    """Reference: the per-line parser that strips every phoneme separately."""
    path = Path(path)
    entries: dict[str, Pronunciation] = {}
    with path.open(encoding="utf-8", errors="replace") as fh:
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


def parse_both(data: bytes):
    """Each parser's entries, or its LexiconFormatError message."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lex.dict"
        path.write_bytes(data)
        for parse in (load_lexicon, reference_load_lexicon):
            try:
                outcomes.append(parse(path).entries)
            except LexiconFormatError as exc:
                outcomes.append(str(exc))
    return outcomes


# Separators include whitespace beyond ASCII, which split() and strip()
# both honour; "\x85" and "\u2028" are not line ends in text mode.
_SPACE = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x85\xa0\u2028\u3000"), min_size=1, max_size=3)
# Lone surrogates stand for bytes that are not UTF-8 ("\udcff" is 0xff):
# lines are encoded with "surrogateescape".
_WORD = st.sampled_from(
    ["go", "GO", "Go", "read", "READ(2)", "read(10)", "(2)", "x)", "a(b)", ")",
     "go(\u0662)", "go(2)x", ";;go", "caf\xe9", "stra\xdfe", "\u0130", "go\udcff", "\udcc3(2)"]
)
_PHONEME = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", "UW", "AH", "D", "er", "V:o", "\udce2\udc82"]),
        st.text(st.sampled_from("0123\u0661\u0967"), max_size=3),
    ),
).filter(bool)
_ENTRY = st.builds(
    lambda word, phonemes, seps: word + "".join(s + p for s, p in zip(seps, phonemes)),
    _WORD,
    st.lists(_PHONEME, min_size=1, max_size=4),
    st.lists(_SPACE, min_size=4, max_size=4),
)
_LINE = st.one_of(
    _ENTRY,
    _ENTRY.map(str.lower),
    st.builds(lambda pad, entry: pad + entry + pad, _SPACE, _ENTRY),
    st.builds(
        lambda s: ";;;" + s,
        st.text(
            st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)), max_size=8
        ),
    ),
    st.just(""),
    _SPACE,
)
_LINE_BYTES = _LINE.map(lambda line: line.encode("utf-8", "surrogateescape"))
# A one-token or free-text line usually ends the parse with an error, so
# at most one is inserted, at any line number.
_ODD_LINE = st.one_of(_WORD, st.builds(lambda pad, word: pad + word, _SPACE, _WORD), st.text(max_size=10))


@st.composite
def lexicon_bytes(draw) -> bytes:
    lines = draw(st.lists(_LINE_BYTES, max_size=12))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINE).encode("utf-8", "surrogateescape"))
    return b"".join(line + draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for line in lines)


class TestLoadLexicon:
    def test_basic_entries(self, tmp_path):
        path = tmp_path / "mini.dict"
        path.write_text("FOOD  F UW1 D\nYOU  Y UW1\n")
        lex = load_lexicon(path)
        assert lex.get("food") == ("F", "UW", "D")
        assert lex.get("you") == ("Y", "UW")
        assert type(lex.get("food")) is tuple
        assert len(lex) == 2

    def test_variants_ignored(self, tmp_path):
        path = tmp_path / "mini.dict"
        path.write_text("READ  R IY1 D\nREAD(2)  R EH1 D\n")
        lex = load_lexicon(path)
        assert lex.get("read") == ("R", "IY", "D")
        assert len(lex) == 1

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "mini.dict"
        path.write_text(";;; header\n\nGO  G OW1\n")
        assert len(load_lexicon(path)) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dict"
        path.write_text("")
        assert len(load_lexicon(path)) == 0

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.dict"
        path.write_text("GO  G OW1\nJUSTAWORD\n")
        with pytest.raises(LexiconFormatError, match=":2"):
            load_lexicon(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_lexicon(tmp_path / "nope.dict")

    def test_first_entry_wins(self, tmp_path):
        path = tmp_path / "dup.dict"
        path.write_text("GO  G OW1\nGO  G UW1\n")
        assert load_lexicon(path).get("go") == ("G", "OW")

    def test_equal_phonemes_are_one_object(self, tmp_path):
        path = tmp_path / "mini.dict"
        path.write_text("FOOD  F UW1 D\nYOU  Y UW0\nDUE  D UW\nFUDGE  F AH1 JH\n")
        lex = load_lexicon(path)
        food, you, due, fudge = (lex.get(w) for w in ("food", "you", "due", "fudge"))
        assert food[1] is you[1] is due[1]
        assert food[2] is due[0]
        assert food[0] is fudge[0]

    def test_matches_reference_on_bundled_sample(self):
        path = PKG_DATA_DIR / "cmudict_sample.txt"
        assert load_lexicon(path) == reference_load_lexicon(path)

    @settings(max_examples=300, deadline=None)
    @given(lexicon_bytes())
    def test_matches_reference_parser(self, data):
        new, reference = parse_both(data)
        assert new == reference

    @pytest.mark.parametrize(
        "data",
        [
            b"GO  G OW1\r\nJUSTAWORD \r\n",
            b"  \t\r\n;;; c\r\nX)  \xff\n\xc3\n",
            b"(2)  AH1\nREAD(2)  R EH1 D\nREAD  R IY1 D\ngo(\xd9\xa2)  G\n",
            b"A  B12 C\xd9\xa1 D\xe0\xa5\xa7 1\n",
        ],
    )
    def test_matches_reference_on_pinned_files(self, data):
        new, reference = parse_both(data)
        assert new == reference


def test_strip_stress_idempotent():
    for symbol in ("UW1", "IH0", "ER", "EY2"):
        once = strip_stress(symbol)
        assert strip_stress(once) == once
        assert not once[-1].isdigit()


class TestTranscribe:
    def test_lexicon_hit(self, sample_lex):
        assert transcribe("food", sample_lex) == ("F", "UW", "D")
        assert type(transcribe("food", sample_lex)) is tuple

    def test_case_insensitive_lookup(self, sample_lex):
        assert transcribe("FOOD", sample_lex) == transcribe("food", sample_lex)

    def test_fallback_y_not_word_initial(self):
        assert transcribe("zyzzx", EMPTY) == ("V:y",)
        assert type(transcribe("zyzzx", EMPTY)) is tuple

    def test_fallback_word_initial_y_is_consonant(self):
        assert fallback_pronunciation("yellow") == ("V:e", "V:o")
        assert fallback_pronunciation("you") == ("V:ou",)

    def test_all_consonant_word(self):
        assert transcribe("hmm", EMPTY) == ()
        assert type(transcribe("hmm", EMPTY)) is tuple

    def test_vowel_runs_grouped(self):
        assert fallback_pronunciation("beautiful") == ("V:eau", "V:i", "V:u")

    def test_nonletters_break_runs(self):
        assert fallback_pronunciation("can't") == ("V:a",)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            transcribe("", EMPTY)

    def test_pure_function(self, sample_lex):
        assert transcribe("shame", sample_lex) == transcribe("shame", sample_lex)

    def test_fallback_never_matches_real_vowels(self):
        for pron in (fallback_pronunciation(w) for w in ("drought", "shine", "you")):
            for symbol in pron:
                assert symbol.startswith("V:")
                assert symbol not in ARPABET_VOWELS
                assert is_vowel(symbol)


class TestVowelSequence:
    def test_single_word(self, sample_lex):
        seq = vowel_sequence(["you"], sample_lex)
        assert seq.vowels == ("UW",) and seq.word_end_marks == (1,)

    def test_empty(self, sample_lex):
        seq = vowel_sequence([], sample_lex)
        assert seq.vowels == () and seq.word_end_marks == ()

    def test_two_words(self, sample_lex):
        seq = vowel_sequence(["no", "shame"], sample_lex)
        assert seq.vowels == ("OW", "EY") and seq.word_end_marks == (1, 2)

    def test_vowelless_word_repeats_mark(self, sample_lex):
        seq = vowel_sequence(["no", "hmm", "shame"], sample_lex)
        assert seq.vowels == ("OW", "EY")
        assert seq.word_end_marks == (1, 1, 2)

    @given(st.lists(st.sampled_from(TOY_WORDS), max_size=30))
    def test_marks_monotone_one_per_word(self, words):
        seq = vowel_sequence(words, EMPTY)
        assert len(seq.word_end_marks) == len(words)
        assert all(a <= b for a, b in zip(seq.word_end_marks, seq.word_end_marks[1:]))
        assert (seq.word_end_marks[-1] if words else 0) == len(seq.vowels)
        total = sum(len(uncached_vowels(w, EMPTY)) for w in words)
        assert len(seq.vowels) == total


class TestVowelMemo:
    @given(st.lists(st.sampled_from(MIXED_TOKENS), max_size=20))
    def test_memo_equals_uncached_transcription(self, toy_lex, words):
        lex = Lexicon(dict(toy_lex.entries))
        for word in words + words:
            assert lex.vowels(word) == uncached_vowels(word, lex)

    @given(st.lists(st.sampled_from(MIXED_TOKENS), min_size=1, max_size=20))
    def test_memo_leaves_equality_and_repr_unchanged(self, toy_lex, words):
        used = Lexicon(dict(toy_lex.entries), toy_lex.source)
        fresh = Lexicon(dict(toy_lex.entries), toy_lex.source)
        before = repr(used)
        for word in words:
            used.vowels(word)
        assert used == fresh
        assert repr(used) == repr(fresh) == before

    def test_empty_word_rejected_and_not_memoised(self):
        lex = Lexicon()
        for _ in range(2):
            with pytest.raises(ValueError):
                lex.vowels("")
