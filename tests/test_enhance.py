import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from verseforge.corpus import Verse, tokenize
from verseforge.enhance import (
    MODES,
    CandidateList,
    CorpusPredictor,
    EnhanceConfig,
    PredictorError,
    PredictorQuery,
    build_corpus_predictor,
    enhance_verse,
    get_rhyming_replacement,
    mask_text,
    replaced_positions,
)
from verseforge.metrics import rhyme_length
from verseforge.phonetics import Lexicon, Pronunciation

from conftest import FILTER_TOKENS, MIXED_TOKENS, TOY_WORDS, random_verse, uncached_vowels


class FixedPredictor:
    """Returns one scripted candidate list for every query."""

    def __init__(self, tokens):
        self._list = tuple(
            (tok, float(len(tokens) - i)) for i, tok in enumerate(tokens)
        )

    def predict(self, query: PredictorQuery) -> CandidateList:
        return CandidateList(self._list[: query.k])


class SharedPredictor:
    """Returns the same list object for every query, as CorpusPredictor does."""

    def __init__(self, tokens):
        self.list = FixedPredictor(tokens).predict(PredictorQuery(("<mask>",), 0, k=1000))

    def predict(self, query: PredictorQuery) -> CandidateList:
        return self.list


class FailingPredictor:
    def predict(self, query):
        raise ConnectionResetError("socket closed")


def eager_replacement(verse, src_idx, tgt_idx, raw, cfg, lex):
    """Reference: filter the whole top-k into a list, then scan it."""
    src = verse.lines[src_idx][-1]
    tgt = verse.lines[tgt_idx][-1]
    rl_orig = rhyme_length(src, tgt, lex)
    candidates = []
    for tok, _ in raw.candidates[: cfg.k]:
        tok = tok.lower()
        if not tok.isalpha():
            continue
        if tok in cfg.deny_list or tok == tgt:
            continue
        candidates.append(tok)
    if cfg.mode == "first_improvement":
        for cand in candidates:
            rl = rhyme_length(cand, src, lex)
            if rl > rl_orig:
                return cand, rl
        return tgt, rl_orig
    best_tok, best_rl = tgt, rl_orig
    for cand in candidates:
        rl = rhyme_length(cand, src, lex)
        if rl > best_rl:
            best_tok, best_rl = cand, rl
    return best_tok, best_rl


def symbol_replacement(verse, src_idx, tgt_idx, raw, cfg, lex):
    """Reference: score every top-k candidate on uncached vowel symbol tuples."""

    def rl(a, b):
        va, vb = uncached_vowels(a, lex), uncached_vowels(b, lex)
        n = min(len(va), len(vb))
        return 0 if a == b else max(k for k in range(n + 1) if k == 0 or va[-k:] == vb[-k:])

    src = verse.lines[src_idx][-1]
    best_tok, best_rl = verse.lines[tgt_idx][-1], rl(src, verse.lines[tgt_idx][-1])
    for tok, _ in raw.candidates[: cfg.k]:
        tok = tok.lower()
        if tok.isalpha() and tok not in cfg.deny_list and rl(tok, src) > best_rl:
            best_tok, best_rl = tok, rl(tok, src)
            if cfg.mode == "first_improvement":
                break
    return best_tok, best_rl


@pytest.fixture
def example_verse():
    return Verse(
        tokenize("where were you\nlast year i was paid in a drought with no beginners")
    )


@pytest.fixture
def example_predictor():
    return FixedPredictor(["food", "fruit", "you", "rules"])


class TestQueryTypes:
    def test_exactly_one_mask_required(self):
        with pytest.raises(ValueError):
            PredictorQuery(("a", "b"), 0)
        with pytest.raises(ValueError):
            PredictorQuery(("<mask>", "<mask>"), 0)
        PredictorQuery(("<mask>", "b"), 0)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            PredictorQuery(("<mask>",), 0, k=0)

    @pytest.mark.parametrize(
        "mask_index, k",
        [(5, 1), (1, 1), (-1, 1), (True, 1), (0.0, 1), (0, True), (0, 2.0), (0, "3")],
    )
    def test_mask_index_and_k_must_be_in_range_ints(self, mask_index, k):
        with pytest.raises(ValueError):
            PredictorQuery(("<mask>",), mask_index, k)

    def test_candidates_must_be_sorted(self):
        with pytest.raises(ValueError):
            CandidateList((("a", 1.0), ("b", 2.0)))
        CandidateList((("a", 2.0), ("b", 2.0), ("c", 1.0)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_scores_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CandidateList((("a", bad), ("b", 1.0)))
        with pytest.raises(ValueError, match="finite"):
            CandidateList((("a", 2.0), ("b", bad)))


class TestMaskText:
    def test_masks_last_token_of_line(self, example_verse):
        from verseforge.corpus import join_lines

        query = mask_text(example_verse, 1)
        assert query.tokens[query.mask_index] == "<mask>"
        assert query.tokens[query.mask_index - 1] == "no"
        assert "<nl>" in query.tokens
        # everything else verbatim: unmasking reproduces the flat verse
        rebuilt = list(query.tokens)
        rebuilt[query.mask_index] = "beginners"
        assert " ".join(rebuilt) == join_lines(example_verse.lines)

    def test_single_line_verse(self):
        query = mask_text(Verse([["one", "two"]]), 0)
        assert query.tokens == ("one", "<mask>")
        assert query.mask_index == 1

    def test_pure(self, example_verse):
        assert mask_text(example_verse, 1) == mask_text(example_verse, 1)

    def test_out_of_range(self, example_verse):
        with pytest.raises(IndexError):
            mask_text(example_verse, 2)

    def test_empty_line_rejected(self):
        with pytest.raises(ValueError, match="empty line"):
            mask_text(Verse([["a"], []]), 1)


class TestGetRhymingReplacement:
    def test_worked_example(self, example_verse, example_predictor, sample_lex):
        query = mask_text(example_verse, 1)
        cfg = EnhanceConfig()
        token, rl = get_rhyming_replacement(
            example_verse, 0, 1, query, example_predictor, cfg, sample_lex
        )
        assert (token, rl) == ("food", 1)

    def test_deny_list_exhausts_candidates(self, example_verse, example_predictor, sample_lex):
        query = mask_text(example_verse, 1)
        cfg = EnhanceConfig(deny_list=frozenset(["food", "fruit", "you", "rules"]))
        token, rl = get_rhyming_replacement(
            example_verse, 0, 1, query, example_predictor, cfg, sample_lex
        )
        assert (token, rl) == ("beginners", 0)

    def test_no_candidate_beats_existing_rhyme(self, sample_lex):
        # propane/domain already rhyme at length 2; candidates only reach 1
        verse = Verse(tokenize("blow like propane\ncontrol the domain"))
        query = mask_text(verse, 1)
        predictor = FixedPredictor(["rain", "shame", "gold"])
        token, rl = get_rhyming_replacement(
            verse, 0, 1, query, predictor, EnhanceConfig(), sample_lex
        )
        assert (token, rl) == ("domain", 2)
        # brute-force: no candidate exceeds the original length
        assert max(rhyme_length(c, "propane", sample_lex) for c in ("rain", "shame", "gold")) <= 2

    def test_best_of_k_takes_argmax(self, sample_lex):
        # first_improvement takes "day" (length 1); best_of_k finds "domain" (2)
        verse = Verse(tokenize("we ride the propane\nwe end with hat"))
        query = mask_text(verse, 1)
        predictor = FixedPredictor(["day", "domain", "cat"])
        first, rl_first = get_rhyming_replacement(
            verse, 0, 1, query, predictor, EnhanceConfig(mode="first_improvement"), sample_lex
        )
        best, rl_best = get_rhyming_replacement(
            verse, 0, 1, query, predictor, EnhanceConfig(mode="best_of_k"), sample_lex
        )
        assert (first, rl_first) == ("day", 1)
        assert (best, rl_best) == ("domain", 2)
        lengths = {c: rhyme_length(c, "propane", sample_lex) for c in ("day", "domain", "cat")}
        assert lengths["domain"] == max(lengths.values())

    def test_non_alphabetic_candidates_filtered(self, example_verse, sample_lex):
        predictor = FixedPredictor(["f00d", "##ood", "food"])
        query = mask_text(example_verse, 1)
        token, rl = get_rhyming_replacement(
            example_verse, 0, 1, query, predictor, EnhanceConfig(), sample_lex
        )
        assert token == "food"

    def test_candidate_equal_to_target_skipped(self, example_verse, sample_lex):
        predictor = FixedPredictor(["beginners", "food"])
        query = mask_text(example_verse, 1)
        token, _ = get_rhyming_replacement(
            example_verse, 0, 1, query, predictor, EnhanceConfig(), sample_lex
        )
        assert token == "food"

    def test_k_truncates_candidates(self, example_verse, sample_lex):
        predictor = FixedPredictor(["rules", "food"])
        query = mask_text(example_verse, 1, k=1)
        token, rl = get_rhyming_replacement(
            example_verse, 0, 1, query, predictor, EnhanceConfig(k=1), sample_lex
        )
        assert token == "rules"

    @given(
        tokens=st.lists(st.sampled_from(MIXED_TOKENS), max_size=12),
        src=st.sampled_from(TOY_WORDS),
        tgt=st.sampled_from(TOY_WORDS),
        deny=st.frozensets(st.sampled_from(TOY_WORDS), max_size=6),
        query_k=st.integers(min_value=1, max_value=15),
        cfg_k=st.integers(min_value=1, max_value=15),
        mode=st.sampled_from(MODES),
    )
    # "cat" would improve the rhyme but lies beyond the top cfg_k
    @example(tokens=["gold", "cat"], src="bat", tgt="day", deny=frozenset(),
             query_k=5, cfg_k=1, mode="first_improvement")
    @example(tokens=["gold", "cat"], src="bat", tgt="day", deny=frozenset(),
             query_k=5, cfg_k=1, mode="best_of_k")
    def test_matches_eager_reference(self, toy_lex, tokens, src, tgt, deny, query_k, cfg_k, mode):
        # MIXED_TOKENS holds mixed-case, non-alphabetic and toy words, so the
        # lists carry target-equal and deny-listed candidates too.
        verse = Verse([["we", "ride", src], ["they", "fall", tgt]])
        predictor = FixedPredictor(tokens)
        cfg = EnhanceConfig(k=cfg_k, mode=mode, deny_list=deny)
        query = mask_text(verse, 1, query_k)
        expected = eager_replacement(verse, 0, 1, predictor.predict(query), cfg, toy_lex)
        assert get_rhyming_replacement(verse, 0, 1, query, predictor, cfg, toy_lex) == expected

    @settings(max_examples=300)
    @given(
        tokens=st.lists(st.sampled_from(MIXED_TOKENS), max_size=12),
        src=st.sampled_from(MIXED_TOKENS),
        tgt=st.sampled_from(MIXED_TOKENS),
        deny=st.frozensets(st.sampled_from(TOY_WORDS), max_size=6),
        cfg_k=st.integers(min_value=1, max_value=15),
        mode=st.sampled_from(MODES),
    )
    # "bat" and "Bat" equal the anchor (after lowercasing) and score 0;
    # "cat" would improve but lies beyond cfg.k
    @example(tokens=["bat", "hmm", "Bat", "cat"], src="bat", tgt="day", deny=frozenset(),
             cfg_k=3, mode="first_improvement")
    # the only improving candidate ends on the anchor's vowel but starts on another
    @example(tokens=["gold", "hurricane"], src="rain", tgt="gold", deny=frozenset(),
             cfg_k=5, mode="first_improvement")
    # a vowel-less anchor: no candidate can rhyme
    @example(tokens=["day", "brr"], src="hmm", tgt="brr", deny=frozenset(),
             cfg_k=5, mode="best_of_k")
    def test_reused_list_matches_eager_reference(self, toy_lex, tokens, src, tgt, deny, cfg_k, mode):
        # The first call scans lazily, the second builds the vowel index
        # and the third reads it; all three must agree with the reference.
        verse = Verse([["we", "ride", src], ["they", "fall", tgt]])
        predictor = SharedPredictor(tokens)
        cfg = EnhanceConfig(k=cfg_k, mode=mode, deny_list=deny)
        query = mask_text(verse, 1)
        expected = eager_replacement(verse, 0, 1, predictor.list, cfg, toy_lex)
        for _ in range(3):
            assert get_rhyming_replacement(verse, 0, 1, query, predictor, cfg, toy_lex) == expected

    def test_predictor_failure_wrapped(self, example_verse, sample_lex):
        query = mask_text(example_verse, 1)
        with pytest.raises(PredictorError, match="mask_index"):
            get_rhyming_replacement(
                example_verse, 0, 1, query, FailingPredictor(), EnhanceConfig(), sample_lex
            )


class TestVowelIndex:
    @staticmethod
    def replace(predictor, lex, cfg=EnhanceConfig()):
        verse = Verse([["we", "ride", "day"], ["they", "fall", "gold"]])
        return get_rhyming_replacement(verse, 0, 1, mask_text(verse, 1), predictor, cfg, lex)

    @staticmethod
    def indexes(raw):
        return {key: entry for key, entry in raw._index_memo.items() if entry is not None}

    def test_memo_changes_no_equality_hash_or_repr(self, toy_lex):
        predictor = SharedPredictor(["free", "play", "gold"])
        fresh = CandidateList(predictor.list.candidates)
        for _ in range(2):
            self.replace(predictor, toy_lex)
        assert self.indexes(predictor.list)
        assert predictor.list == fresh
        assert hash(predictor.list) == hash(fresh)
        assert repr(predictor.list) == repr(fresh)
        assert "memo" not in repr(predictor.list)

    def test_list_used_once_holds_no_index(self, toy_lex):
        predictor = SharedPredictor(["free", "play", "gold"])
        assert self.replace(predictor, toy_lex) == ("play", 1)
        assert not self.indexes(predictor.list)
        assert self.replace(predictor, toy_lex) == ("play", 1)
        (lex, index), = self.indexes(predictor.list).values()
        assert lex is toy_lex
        assert [tok for tok, _ in index[toy_lex.vowel_codes("play")[-1]]] == ["play"]

    def test_second_lexicon_or_deny_list_gets_its_own_index(self, toy_lex):
        # In lex_b "day" ends on IY, so "free" rhymes with it, not "play".
        lex_b = Lexicon({
            "day": Pronunciation(("D", "IY")),
            "free": Pronunciation(("F", "R", "IY")),
            "play": Pronunciation(("P", "L", "EY")),
        })
        predictor = SharedPredictor(["free", "play", "gold"])
        for _ in range(2):
            assert self.replace(predictor, toy_lex) == ("play", 1)
        for _ in range(2):
            assert self.replace(predictor, lex_b) == ("free", 1)
        (entry,) = self.indexes(predictor.list).values()
        assert entry[0] is lex_b
        deny = EnhanceConfig(deny_list=frozenset({"free"}))
        for _ in range(2):
            assert self.replace(predictor, lex_b, deny) == ("gold", 0)
        assert set(self.indexes(predictor.list)) == {(200, frozenset()), (200, deny.deny_list)}
        assert self.replace(predictor, toy_lex) == ("play", 1)

    @pytest.mark.parametrize("mode", MODES)
    def test_lexicons_with_different_codes_share_a_list(self, toy_lex, mode):
        # Both lexicons hold the toy entries, but each codes the vowels in
        # the order it first sees them, so an index of one list's codes for
        # one lexicon is wrong for the other. The uses alternate, so from
        # the second on every use reads an index.
        first, second = Lexicon(dict(toy_lex.entries)), Lexicon(dict(toy_lex.entries))
        for lex, words in ((first, TOY_WORDS), (second, TOY_WORDS[::-1])):
            for word in words:
                lex.vowel_codes(word)
        assert first.vowel_codes("hurricane") != second.vowel_codes("hurricane")
        rng = random.Random(29)
        predictor = SharedPredictor(rng.sample(MIXED_TOKENS, len(MIXED_TOKENS)))
        cfg = EnhanceConfig(mode=mode)
        for n in range(60):
            lex = (first, second)[n % 2]
            verse = random_verse(rng, MIXED_TOKENS)
            src, tgt = rng.sample([0, 1], 2)
            query = mask_text(verse, tgt)
            assert get_rhyming_replacement(
                verse, src, tgt, query, predictor, cfg, lex
            ) == symbol_replacement(verse, src, tgt, predictor.list, cfg, lex)
        assert self.indexes(predictor.list)


class TestEnhanceVerse:
    def test_worked_example_substitution(self, example_verse, example_predictor, sample_lex):
        out = enhance_verse(example_verse, example_predictor, EnhanceConfig(), sample_lex)
        assert out.lines[1][-1] == "food"
        assert out.lines[0] == example_verse.lines[0]
        assert out.lines[1][:-1] == example_verse.lines[1][:-1]
        assert replaced_positions(example_verse, out) == [(1, len(example_verse.lines[1]) - 1)]

    def test_no_improvement_is_identity(self, sample_lex):
        verse = Verse(tokenize("blow like propane\ncontrol the domain"))
        predictor = FixedPredictor(["bat", "cat", "hat"])
        out = enhance_verse(verse, predictor, EnhanceConfig(), sample_lex)
        assert out.lines == verse.lines

    def test_trailing_line_untouched(self, sample_lex):
        verse = Verse(tokenize("where were you\nwith no beginners\nlonely tail line"))
        predictor = FixedPredictor(["food"])
        out = enhance_verse(verse, predictor, EnhanceConfig(), sample_lex)
        assert out.lines[2] == verse.lines[2]
        assert out.lines[1][-1] == "food"

    def test_single_line_verse_unchanged(self, sample_lex):
        verse = Verse([["one", "line"]])
        out = enhance_verse(verse, FixedPredictor(["food"]), EnhanceConfig(), sample_lex)
        assert out.lines == verse.lines

    def test_empty_verse_rejected(self, sample_lex):
        with pytest.raises(ValueError):
            enhance_verse(Verse([]), FixedPredictor(["x"]), EnhanceConfig(), sample_lex)

    def test_input_not_mutated_on_failure(self, example_verse, sample_lex):
        snapshot = [list(line) for line in example_verse.lines]
        with pytest.raises(PredictorError):
            enhance_verse(example_verse, FailingPredictor(), EnhanceConfig(), sample_lex)
        assert example_verse.lines == snapshot

    def test_pairwise_monotonic_on_random_verses(self, toy_lex):
        rng = random.Random(77)
        corpus = [random_verse(rng) for _ in range(30)]
        predictor = build_corpus_predictor(corpus)
        deny = frozenset(["gold", "pain"])
        cfg = EnhanceConfig(k=20, deny_list=deny)
        for _ in range(40):
            verse = random_verse(rng)
            out = enhance_verse(verse, predictor, cfg, toy_lex)
            assert len(out.lines) == len(verse.lines)
            for i in range(0, len(verse.lines) - 1, 2):
                before = rhyme_length(verse.lines[i][-1], verse.lines[i + 1][-1], toy_lex)
                after = rhyme_length(out.lines[i][-1], out.lines[i + 1][-1], toy_lex)
                assert after >= before
            for li, ti in replaced_positions(verse, out):
                assert ti == len(verse.lines[li]) - 1
                assert out.lines[li][ti] not in deny

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_replaced_positions_match_the_token_walk(self, data):
        line = st.lists(st.sampled_from(FILTER_TOKENS), max_size=6)
        before = data.draw(st.lists(line, max_size=5))
        if data.draw(st.booleans()):
            # Token-by-token edits, so lines often stay equal.
            after = [
                [tok if data.draw(st.booleans()) else data.draw(st.sampled_from(FILTER_TOKENS))
                 for tok in toks]
                for toks in before
            ]
        else:
            # Any shape, so lines and verses of unequal length meet.
            after = data.draw(st.lists(line, max_size=5))
        expected = [
            (li, ti)
            for li, (a, b) in enumerate(zip(before, after))
            for ti, (x, y) in enumerate(zip(a, b))
            if x != y
        ]
        assert replaced_positions(Verse(before), Verse(after)) == expected

    def test_deterministic(self, toy_lex):
        rng = random.Random(5)
        corpus = [random_verse(rng) for _ in range(10)]
        predictor = build_corpus_predictor(corpus)
        verse = random_verse(rng)
        cfg = EnhanceConfig(k=10)
        first = enhance_verse(verse, predictor, cfg, toy_lex)
        second = enhance_verse(verse, predictor, cfg, toy_lex)
        assert first.lines == second.lines


class TestCorpusPredictor:
    def test_line_final_words_rank_higher(self):
        verses = [
            Verse([["we", "eat", "food"], ["more", "food"], ["fresh", "food"],
                   ["ripe", "fruit"], ["sweet", "food"], ["dry", "food"]]),
            Verse([["fruit", "stand"], ["fruit", "basket"]]),
        ]
        predictor = build_corpus_predictor(verses)
        tokens = predictor.predict(PredictorQuery(("<mask>",), 0, k=50)).tokens()
        assert tokens.index("food") < tokens.index("fruit")

    def test_k_one(self):
        verses = [Verse([["a", "b"], ["c", "b"]])]
        predictor = build_corpus_predictor(verses)
        result = predictor.predict(PredictorQuery(("<mask>",), 0, k=1))
        assert len(result.candidates) == 1

    def test_rebuild_identical(self, toy_lex):
        rng = random.Random(3)
        corpus = [random_verse(rng) for _ in range(8)]
        a = build_corpus_predictor(corpus, toy_lex)
        b = build_corpus_predictor(corpus, toy_lex)
        query = PredictorQuery(("<mask>",), 0, k=30)
        assert a.predict(query) == b.predict(query)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_corpus_predictor([])

    def test_same_validated_list_per_k(self):
        ranking = [("a", 3.0), ("b", 2.0), ("c", 2.0), ("d", 1.0)]
        predictor = CorpusPredictor(ranking)
        for k in range(1, len(ranking) + 3):
            query = PredictorQuery(("<mask>",), 0, k=k)
            first = predictor.predict(query)
            assert predictor.predict(query) is first
            assert first == CandidateList(tuple(ranking[:k]))
        assert predictor.predict(PredictorQuery(("<mask>",), 0, k=2)).tokens() == ["a", "b"]
        assert len(predictor) == len(ranking)

    def test_unsorted_ranking_raises_on_every_call(self):
        predictor = CorpusPredictor([("a", 1.0), ("b", 2.0)])
        query = PredictorQuery(("<mask>",), 0, k=2)
        for _ in range(3):
            with pytest.raises(ValueError, match="not sorted"):
                predictor.predict(query)
        # the one-word prefix is in order
        assert predictor.predict(PredictorQuery(("<mask>",), 0, k=1)).tokens() == ["a"]

    def test_lexicographic_tie_break(self):
        verses = [Verse([["zeta", "beta"], ["x", "alpha"]])]
        predictor = build_corpus_predictor(verses)
        tokens = predictor.predict(PredictorQuery(("<mask>",), 0, k=10)).tokens()
        # alpha and beta both end one line and occur once: tie -> alphabetical
        assert tokens.index("alpha") < tokens.index("beta")
