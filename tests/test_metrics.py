import math
import random
import sys
import threading
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from verseforge.corpus import Verse, find_alnum, tokenize
from verseforge.metrics import (
    RhymeConfig,
    ScoredVerse,
    corpus_bleu,
    modified_precisions,
    per_word_rhyme_lengths,
    repetition_score,
    rhyme_density,
    rhyme_length,
    rhyme_length_vowels,
    unigram_overlap,
)
from verseforge.phonetics import Lexicon

from conftest import (
    FILTER_TOKENS, MIXED_TOKENS, TOY_WORDS, brute_force_lengths, random_verse, uncached_vowels,
)


class TestRhymeLength:
    def test_no_shared_suffix(self, sample_lex):
        assert rhyme_length("you", "beginners", sample_lex) == 0

    def test_single_vowel_match(self, sample_lex):
        assert rhyme_length("you", "food", sample_lex) == 1

    def test_identical_tokens_excluded(self, sample_lex):
        assert rhyme_length("propane", "propane", sample_lex) == 0

    def test_multisyllabic_suffix(self, sample_lex):
        # propane OW EY vs domain OW EY
        assert rhyme_length("propane", "domain", sample_lex) == 2

    def test_empty_token_rejected(self, sample_lex):
        with pytest.raises(ValueError):
            rhyme_length("", "food", sample_lex)

    @given(
        st.sampled_from(TOY_WORDS),
        st.sampled_from(TOY_WORDS),
    )
    def test_symmetry(self, w1, w2):
        lex = Lexicon()
        assert rhyme_length(w1, w2, lex) == rhyme_length(w2, w1, lex)

    def test_bounded_by_vowel_counts(self, toy_lex):
        for w1 in TOY_WORDS:
            for w2 in TOY_WORDS:
                rl = rhyme_length(w1, w2, toy_lex)
                v1 = len(uncached_vowels(w1, toy_lex))
                v2 = len(uncached_vowels(w2, toy_lex))
                assert rl <= min(v1, v2)

    def test_known_vowels_score_by_the_same_rule(self, toy_lex):
        # Longest common vowel suffix by slicing, and 0 for identical tokens.
        for w1 in TOY_WORDS + ["Bat"]:
            for w2 in TOY_WORDS:
                v1 = uncached_vowels(w1, toy_lex)
                v2 = uncached_vowels(w2, toy_lex)
                n = min(len(v1), len(v2))
                expected = 0 if w1 == w2 else max(
                    k for k in range(n + 1) if k == 0 or v1[-k:] == v2[-k:]
                )
                assert rhyme_length_vowels(w1, v1, w2, v2) == expected
                assert rhyme_length(w1, w2, toy_lex) == expected


class TestRhymeDensity:
    def test_single_word(self, toy_lex):
        assert rhyme_density(Verse([["bat"]]), toy_lex) == 0.0

    def test_bat_cat(self, toy_lex):
        assert rhyme_density(Verse([["bat", "cat"]]), toy_lex) == 0.5

    def test_empty_verse(self, toy_lex):
        assert rhyme_density(Verse([]), toy_lex) == 0.0

    def test_identical_tokens_do_not_rhyme(self, toy_lex):
        assert rhyme_density(Verse([["bat", "bat", "bat"]]), toy_lex) == 0.0
        cfg = RhymeConfig(exclude_identical=False)
        assert rhyme_density(Verse([["bat", "bat", "bat"]]), toy_lex, cfg) > 0.0

    def test_cross_boundary_match(self, toy_lex):
        # "free day" then "sea way": IY EY suffix of length 2 at "way",
        # even though each word alone carries a single vowel.
        lengths = per_word_rhyme_lengths(
            Verse([["free", "day", "sea", "way"]]), toy_lex, RhymeConfig()
        )
        assert lengths == [0, 0, 1, 2]

    def test_vowelless_word_is_a_candidate_at_its_mark(self, toy_lex, toy_reference_lex):
        # "hmm" ends on "bat"'s mark with a different token, so the second
        # "bat" matches there although exclude_identical blocks the first.
        verse = Verse([["bat", "hmm", "bat"]])
        lengths = per_word_rhyme_lengths(verse, toy_lex, RhymeConfig())
        assert lengths == [0, 0, 1]
        assert brute_force_lengths(verse.all_tokens(), toy_reference_lex) == lengths

    def test_window_limits_lookback(self, toy_lex):
        tokens = ["bat"] + ["go"] * 15 + ["cat"]
        wide = per_word_rhyme_lengths(Verse([tokens]), toy_lex, RhymeConfig(lookback_window=16))
        narrow = per_word_rhyme_lengths(Verse([tokens]), toy_lex, RhymeConfig(lookback_window=15))
        assert wide[-1] == 1 and narrow[-1] == 0

    def test_line_segmentation_irrelevant(self, toy_lex):
        tokens = ["day", "rain", "play", "pain", "night", "light"]
        one_line = Verse([tokens])
        three_lines = Verse([tokens[:2], tokens[2:4], tokens[4:]])
        assert rhyme_density(one_line, toy_lex) == rhyme_density(three_lines, toy_lex)

    def test_matches_brute_force_on_random_verses(self, toy_lex, toy_reference_lex):
        rng = random.Random(2024)
        cfg = RhymeConfig()
        for _ in range(100):
            verse = random_verse(rng)
            tokens = verse.all_tokens()
            fast = per_word_rhyme_lengths(verse, toy_lex, cfg)
            slow = brute_force_lengths(
                tokens, toy_reference_lex, cfg.lookback_window, cfg.exclude_identical
            )
            assert fast == slow
            assert rhyme_density(verse, toy_lex, cfg) == sum(slow) / len(slow)

    def test_brute_force_with_fallback_words(self, toy_lex, toy_reference_lex):
        # out-of-lexicon words go through the orthographic fallback
        verse = Verse([["blorp", "zorp", "bat", "splat"], ["hmm", "cat", "blorp"]])
        cfg = RhymeConfig()
        fast = per_word_rhyme_lengths(verse, toy_lex, cfg)
        slow = brute_force_lengths(verse.all_tokens(), toy_reference_lex)
        assert fast == slow

    @given(
        st.lists(st.lists(st.sampled_from(MIXED_TOKENS), max_size=8), max_size=6),
        st.integers(min_value=1, max_value=20),
        st.booleans(),
    )
    def test_property_matches_uncached_brute_force(
        self, toy_lex, toy_reference_lex, lines, window, exclude
    ):
        verse = Verse(lines)
        cfg = RhymeConfig(lookback_window=window, exclude_identical=exclude)
        fast = per_word_rhyme_lengths(verse, toy_lex, cfg)
        assert fast == brute_force_lengths(verse.all_tokens(), toy_reference_lex, window, exclude)

    def test_codes_beyond_latin_1_match_brute_force(self):
        # 300 distinct vowel symbols, each first seen in that order, so the
        # later ones are coded above U+00FF; the verses rhyme among those.
        rng = random.Random(256)
        symbols = [f"V:s{n}" for n in range(300)]
        entries = {f"w{n}": (symbol,) for n, symbol in enumerate(symbols)}
        entries.update(
            (f"x{n}", tuple(rng.choice(symbols[250:]) for _ in range(rng.randint(1, 3))))
            for n in range(40)
        )
        lex = Lexicon(entries)
        cfg = RhymeConfig()
        per_word_rhyme_lengths(Verse([list(entries)[:300]]), lex, cfg)
        assert max(map(ord, "".join(lex._code_memo.values()))) > 0xFF
        words = list(entries)[250:]
        for _ in range(100):
            verse = random_verse(rng, words)
            fast = per_word_rhyme_lengths(verse, lex, cfg)
            assert fast == brute_force_lengths(verse.all_tokens(), lex)

    def test_lexicons_with_different_codes_score_alike(self, toy_lex, toy_reference_lex):
        # Each lexicon codes the symbols in the order it first sees them,
        # so these two code every toy vowel differently.
        first, second = Lexicon(dict(toy_lex.entries)), Lexicon(dict(toy_lex.entries))
        per_word_rhyme_lengths(Verse([TOY_WORDS]), first, RhymeConfig())
        per_word_rhyme_lengths(Verse([TOY_WORDS[::-1]]), second, RhymeConfig())
        assert first._code_memo["hurricane"] != second._code_memo["hurricane"]
        rng = random.Random(2)
        for n in range(200):
            verse = random_verse(rng, MIXED_TOKENS)
            cfg = RhymeConfig(lookback_window=rng.randint(1, 20), exclude_identical=n % 2 == 0)
            slow = brute_force_lengths(
                verse.all_tokens(), toy_reference_lex, cfg.lookback_window, cfg.exclude_identical
            )
            for lex in (first, second) if n % 2 else (second, first):
                assert per_word_rhyme_lengths(verse, lex, cfg) == slow

    def test_threads_coding_new_symbols_agree(self, toy_lex):
        # Out-of-lexicon words whose vowel runs are all new symbols, scored
        # by 8 threads at once on one fresh lexicon, switching as often as
        # the interpreter allows.
        runs = ["".join(p) for n in (1, 2, 3) for p in product("aeiou", repeat=n)]
        words = [f"zh{run}st" for run in runs] + TOY_WORDS
        rng = random.Random(8)
        verses = [random_verse(rng, rng.sample(words, 12)) for _ in range(120)]
        cfg = RhymeConfig()
        reference = Lexicon(dict(toy_lex.entries))
        expected = [per_word_rhyme_lengths(verse, reference, cfg) for verse in verses]
        lex = Lexicon(dict(toy_lex.entries))
        start = threading.Barrier(8, timeout=30)
        results: dict[int, list] = {}

        def rotate(items: list, n: int) -> list:
            return items[n * 15:] + items[:n * 15]

        def score(n: int) -> None:
            # Each thread starts at a different verse, so new words meet.
            start.wait()
            results[n] = [per_word_rhyme_lengths(verse, lex, cfg) for verse in rotate(verses, n)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=score, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {n: rotate(expected, n) for n in range(8)}
        codes, reference_codes = lex._code_memo._codes, reference._code_memo._codes
        assert codes.keys() == reference_codes.keys()
        assert len(set(codes.values())) == len(codes)


class TestUnigramOverlap:
    def test_identity(self):
        assert unigram_overlap(["a", "b"], ["a", "b"]) == 1.0

    def test_partial(self):
        assert unigram_overlap(["a", "b", "c"], ["b", "c", "d"]) == pytest.approx(2 / 3)

    def test_empty_output(self):
        assert unigram_overlap(["a"], []) == 0.0

    def test_punctuation_ignored(self):
        assert unigram_overlap(["a", "?"], ["a", "!"]) == 1.0
        assert unigram_overlap(["b"], ["?", "!"]) == 0.0

    @given(
        st.lists(st.sampled_from(TOY_WORDS), max_size=10),
        st.lists(st.sampled_from(TOY_WORDS), max_size=10),
    )
    def test_bounds_and_subset_rule(self, x, y):
        value = unigram_overlap(x, y)
        assert 0.0 <= value <= 1.0
        if set(y) and set(y) <= set(x):
            assert value == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(FILTER_TOKENS), max_size=12),
        st.lists(st.sampled_from(FILTER_TOKENS), max_size=12),
    )
    def test_matches_filtering_both_sides(self, x, y):
        assert unigram_overlap(x, y) == two_sided_overlap_reference(x, y)


def two_sided_overlap_reference(x, y):
    """The overlap with punctuation filtered from x as well as from y."""
    uy = set(filter(find_alnum, y))
    if not uy:
        return 0.0
    return len(uy & set(filter(find_alnum, x))) / len(uy)


def repetition_reference(verse):
    """The O(lines^2) definition: each line's overlap with all other lines."""
    n = len(verse.lines)
    if n < 2:
        return 0.0
    total = 0.0
    for i, line in enumerate(verse.lines):
        rest = [tok for j, other in enumerate(verse.lines) if j != i for tok in other]
        total += unigram_overlap(rest, line)
    return total / n


def counting_repetition_reference(verse):
    """The per-token counting version: punctuation is decided token by
    token with ``str.isalnum``, and shared words are counted line by line."""
    n = len(verse.lines)
    if n < 2:
        return 0.0
    sets = [{t for t in line if any(map(str.isalnum, t))} for line in verse.lines]
    lines_with = Counter()
    for words in sets:
        lines_with.update(words)
    total = 0.0
    for words in sets:
        if words:
            total += sum(lines_with[w] > 1 for w in words) / len(words)
    return total / n


# Repeated words, punctuation-only tokens ("_" and "—" included) and tokens
# that hold a non-ASCII digit or letter.
REPETITION_TOKENS = MIXED_TOKENS + [
    "_", "__", "—", "!?", "...", "٣", "a_b", "u.s", "u.s.", "can't", "ß"
]


class TestRepetitionScore:
    def test_identical_lines(self):
        assert repetition_score(Verse([["a", "b"], ["a", "b"]])) == 1.0

    def test_disjoint_lines(self):
        assert repetition_score(Verse(tokenize("a b\nc d"))) == 0.0

    def test_half_overlap(self):
        assert repetition_score(Verse(tokenize("a b\nb c"))) == pytest.approx(0.5)

    def test_single_line(self):
        assert repetition_score(Verse([["a", "b"]])) == 0.0

    def test_empty(self):
        assert repetition_score(Verse([])) == 0.0

    @given(st.lists(st.lists(st.sampled_from(TOY_WORDS), min_size=1, max_size=6), max_size=6))
    def test_bounds(self, lines):
        assert 0.0 <= repetition_score(Verse(lines)) <= 1.0

    @given(st.lists(st.lists(st.sampled_from(MIXED_TOKENS), max_size=8), max_size=8))
    def test_property_equals_quadratic_reference(self, lines):
        verse = Verse(lines)
        assert repetition_score(verse) == repetition_reference(verse)

    @given(
        st.lists(
            st.lists(
                st.one_of(st.sampled_from(REPETITION_TOKENS), st.text(min_size=1, max_size=3)),
                max_size=8,
            ),
            max_size=8,
        )
    )
    def test_property_equals_counting_reference(self, lines):
        verse = Verse(lines)
        assert repetition_score(verse) == counting_repetition_reference(verse)


def test_scored_verse_invariant():
    verse = Verse([["a"]])
    sv = ScoredVerse(verse, rd=1.0, rep=0.2)
    assert abs(sv.score - 0.8) < 1e-12
    assert ScoredVerse(verse, 0.9, 0.0).score > sv.score


class TestCorpusBleu:
    def test_identity(self):
        cands = [["a", "b", "c", "d", "e"], ["x", "y", "z", "w"]]
        assert corpus_bleu(cands, cands) == pytest.approx(100.0)

    def test_disjoint(self):
        assert corpus_bleu([["x"]], [["a", "b", "c", "d"]]) == 0.0

    def test_clipping_two_sevenths(self):
        cand = ["the"] * 7
        ref = ["the", "cat", "is", "on", "the", "mat"]
        p1 = modified_precisions([cand], [ref], max_n=1)[0]
        assert p1 == pytest.approx(2 / 7, abs=1e-9)

    def test_brevity_penalty(self):
        # all precisions 1, candidate one token short: 100 * exp(1 - 5/4)
        cand = [["a", "b", "c", "d"]]
        ref = [["a", "b", "c", "d", "e"]]
        assert corpus_bleu(cand, ref) == pytest.approx(100.0 * math.exp(1 - 5 / 4))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^candidate/reference count mismatch: 1 vs 0$"):
            corpus_bleu([["a"]], [])
        with pytest.raises(ValueError, match="^candidate/reference count mismatch: 0 vs 1$"):
            corpus_bleu([], [["a"]])

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="^corpus_bleu requires at least one pair$"):
            corpus_bleu([], [])

    def test_pooled_over_corpus(self):
        # one perfect pair, one disjoint pair: pooled p1 = 2/3, higher-order 0
        cands = [["a", "b"], ["q"]]
        refs = [["a", "b"], ["z"]]
        p = modified_precisions(cands, refs)
        assert p[0] == pytest.approx(2 / 3)
        assert corpus_bleu(cands, refs) == 0.0
