import pytest
from hypothesis import given, strategies as st

from verseforge.phonetics import (
    ARPABET_VOWELS,
    LexiconFormatError,
    Lexicon,
    fallback_pronunciation,
    is_vowel,
    load_lexicon,
    strip_stress,
    transcribe,
    vowel_sequence,
)

from conftest import MIXED_TOKENS, TOY_WORDS

EMPTY = Lexicon()


class TestLoadLexicon:
    def test_basic_entries(self, tmp_path):
        path = tmp_path / "mini.dict"
        path.write_text("FOOD  F UW1 D\nYOU  Y UW1\n")
        lex = load_lexicon(path)
        assert lex.get("food").phonemes == ("F", "UW", "D")
        assert lex.get("you").phonemes == ("Y", "UW")
        assert len(lex) == 2

    def test_variants_ignored(self, tmp_path):
        path = tmp_path / "mini.dict"
        path.write_text("READ  R IY1 D\nREAD(2)  R EH1 D\n")
        lex = load_lexicon(path)
        assert lex.get("read").phonemes == ("R", "IY", "D")
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
        assert load_lexicon(path).get("go").phonemes == ("G", "OW")


def test_strip_stress_idempotent():
    for symbol in ("UW1", "IH0", "ER", "EY2"):
        once = strip_stress(symbol)
        assert strip_stress(once) == once
        assert not once[-1].isdigit()


class TestTranscribe:
    def test_lexicon_hit(self, sample_lex):
        assert transcribe("food", sample_lex).phonemes == ("F", "UW", "D")

    def test_case_insensitive_lookup(self, sample_lex):
        assert transcribe("FOOD", sample_lex) == transcribe("food", sample_lex)

    def test_fallback_y_not_word_initial(self):
        assert transcribe("zyzzx", EMPTY).phonemes == ("V:y",)

    def test_fallback_word_initial_y_is_consonant(self):
        assert fallback_pronunciation("yellow").phonemes == ("V:e", "V:o")
        assert fallback_pronunciation("you").phonemes == ("V:ou",)

    def test_all_consonant_word(self):
        assert transcribe("hmm", EMPTY).phonemes == ()

    def test_vowel_runs_grouped(self):
        assert fallback_pronunciation("beautiful").phonemes == ("V:eau", "V:i", "V:u")

    def test_nonletters_break_runs(self):
        assert fallback_pronunciation("can't").phonemes == ("V:a",)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            transcribe("", EMPTY)

    def test_pure_function(self, sample_lex):
        assert transcribe("shame", sample_lex) == transcribe("shame", sample_lex)

    def test_fallback_never_matches_real_vowels(self):
        for pron in (fallback_pronunciation(w) for w in ("drought", "shine", "you")):
            for symbol in pron.phonemes:
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
        total = sum(len(transcribe(w, EMPTY).vowels()) for w in words)
        assert len(seq.vowels) == total


class TestVowelMemo:
    @given(st.lists(st.sampled_from(MIXED_TOKENS), max_size=20))
    def test_memo_equals_uncached_transcription(self, toy_lex, words):
        lex = Lexicon(dict(toy_lex.entries))
        for word in words + words:
            assert lex.vowels(word) == transcribe(word, lex).vowels()

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
