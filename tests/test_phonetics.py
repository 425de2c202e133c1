import gc
import tempfile
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from verseforge.corpus import Verse
from verseforge.metrics import rhyme_density
from verseforge.phonetics import (
    ARPABET_VOWELS,
    LexiconFormatError,
    Lexicon,
    fallback_pronunciation,
    is_vowel,
    load_lexicon,
    strip_stress,
    transcribe,
)

from conftest import (
    MIXED_TOKENS,
    PKG_DATA_DIR,
    reference_fallback_pronunciation,
    reference_load_lexicon,
    uncached_vowels,
)

EMPTY = Lexicon()


def parse_both(data: bytes):
    """Each parser's lexicon, or its LexiconFormatError message."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lex.dict"
        path.write_bytes(data)
        for parse in (load_lexicon, reference_load_lexicon):
            try:
                outcomes.append(parse(path))
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


def _probes(words: list[str]):
    """Lookup keys: entry words in any case, and misses."""
    probes = [_WORD, st.text(max_size=6)]
    if words:
        entry = st.sampled_from(words)
        probes += [entry, entry.map(str.upper), entry.map(str.title)]
    return st.one_of(probes)


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
    @given(lexicon_bytes(), st.data())
    def test_matches_reference_parser(self, data, draw):
        # Entries are parsed on lookup; no reader may tell, in any order of
        # lookups, and an error file fails with the same message.
        lex, reference = parse_both(data)
        if not isinstance(reference, Lexicon):
            assert lex == reference
            return
        entries, expected = lex.entries, reference.entries
        assert len(entries) == len(lex) == len(expected)
        assert list(entries) == list(expected)
        assert all(word in entries for word in expected)
        for word in draw.draw(st.lists(_probes(list(expected)), max_size=12)):
            assert lex.get(word) == reference.get(word)
            assert (word in entries) == (word in expected)
            assert entries.get(word) == expected.get(word)
            if word in expected:
                assert type(entries[word]) is tuple
                assert entries[word] == entries.get(word) == lex.get(word)
            else:
                with pytest.raises(KeyError):
                    entries[word]
        assert dict(entries) == expected
        assert repr(lex) == repr(reference)
        assert lex == reference
        # Every entry shares one string object per stripped symbol.
        shared: dict[str, str] = {}
        for symbol in (s for phonemes in entries.values() for s in phonemes):
            assert shared.setdefault(symbol, symbol) is symbol

    def test_entries_are_read_only(self, toy_lex):
        with pytest.raises(TypeError):
            toy_lex.entries["bat"] = ("B", "IY", "T")
        with pytest.raises(TypeError):
            del toy_lex.entries["bat"]
        assert toy_lex.get("bat") == ("B", "AE", "T")

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

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(), st.text("aeiouyAEIOUYbcdxyz-'\u0130\xe9 \n_1Y")))
    # "\u0130" lowers to two characters; "^" must not match after a newline.
    @example("\u0130y")
    @example("Yay")
    @example("y\ny")
    def test_fallback_matches_reference_scan(self, word):
        assert fallback_pronunciation(word) == reference_fallback_pronunciation(word)

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


def decoded(lex: Lexicon, codes: str) -> tuple[str, ...]:
    """The vowel symbols that ``lex`` coded as ``codes``."""
    symbols = {code: symbol for symbol, code in lex._code_memo._codes.items()}
    return tuple(map(symbols.__getitem__, codes))


class TestVowelMemo:
    @given(st.lists(st.sampled_from(MIXED_TOKENS), max_size=20))
    def test_memo_equals_uncached_transcription(self, toy_lex, words):
        lex = Lexicon(dict(toy_lex.entries))
        for word in words + words:
            assert decoded(lex, lex.vowel_codes(word)) == uncached_vowels(word, lex)
            assert lex.vowels(word) == uncached_vowels(word, lex)

    @given(st.lists(st.sampled_from(MIXED_TOKENS), min_size=1, max_size=20))
    def test_memo_leaves_equality_and_repr_unchanged(self, toy_lex, words):
        used = Lexicon(dict(toy_lex.entries), toy_lex.source)
        fresh = Lexicon(dict(toy_lex.entries), toy_lex.source)
        before = repr(used)
        for word in words:
            used.vowel_codes(word)
        assert used == fresh
        assert repr(used) == repr(fresh) == before

    def test_empty_word_rejected_and_not_memoised(self):
        lex = Lexicon()
        for _ in range(2):
            with pytest.raises(ValueError):
                lex.vowel_codes("")
            with pytest.raises(ValueError):
                lex.vowels("")
        assert lex._code_memo == {}

    def test_repeated_lookup_returns_the_same_string(self, toy_lex):
        lex = Lexicon(dict(toy_lex.entries))
        for word in ("hurricane", "zorbly", "hmm"):
            assert lex.vowel_codes(word) is lex.vowel_codes(word)

    def test_new_lexicon_starts_with_a_fresh_memo(self, toy_lex):
        used = Lexicon(dict(toy_lex.entries), toy_lex.source)
        used.vowel_codes("bat")
        for fresh in (Lexicon(dict(used.entries)), replace(used)):
            assert fresh._code_memo == {}
            assert fresh._code_memo is not used._code_memo
        # The copy's memo transcribes through the copy's own entries.
        changed = replace(used, entries={"bat": ("B", "IY", "T")})
        assert decoded(changed, changed.vowel_codes("bat")) == ("IY",)
        assert decoded(used, used.vowel_codes("bat")) == ("AE",)

    def test_dropped_lexicon_is_freed_without_the_cyclic_collector(self, toy_lex):
        # A lexicon replaced by a reload must not stay in memory beside the
        # new one until a collection runs.
        for make in (lambda: Lexicon(dict(toy_lex.entries)), lambda: load_lexicon(toy_lex.source)):
            lex = make()
            lex.vowel_codes("bat")
            ref = weakref.ref(lex)
            gc.disable()
            try:
                del lex
                assert ref() is None
            finally:
                gc.enable()

    def test_lexicon_with_coded_vowels_is_freed_without_the_cyclic_collector(self, toy_lex):
        # Scoring a verse fills the memo through its own lookup, and adds
        # no reference back to the lexicon either.
        lex = load_lexicon(toy_lex.source)
        assert rhyme_density(Verse([["hurricane", "bat", "cat"]]), lex) > 0
        ref = weakref.ref(lex)
        gc.disable()
        try:
            del lex
            assert ref() is None
        finally:
            gc.enable()
