"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints an ``ACCEPTANCE <n> PASS`` line as its final statement
(visible under ``pytest -s``); a failing criterion shows up as a normal
pytest failure. Everything runs offline; the remote-client criterion uses
a loopback stub server only.
"""

import json
import random
import time

import pytest

from verseforge.corpus import Document, Verse, load_corpus, split_verses, tokenize
from verseforge.corpus import corpus_stats, filter_by_length
from verseforge.enhance import (
    CandidateList,
    EnhanceConfig,
    PredictorProtocolError,
    PredictorQuery,
    PredictorRetryableError,
    build_corpus_predictor,
    enhance_verse,
    remote_predict,
    replaced_positions,
)
from verseforge.metrics import (
    RhymeConfig,
    corpus_bleu,
    modified_precisions,
    per_word_rhyme_lengths,
    repetition_score,
    rhyme_density,
    rhyme_length,
    unigram_overlap,
)
from verseforge.phonetics import load_lexicon
from verseforge.selection import Hypothesis, build_index, rerank, retrieve
from verseforge.stripping import (
    NoiseConfig,
    SynonymLexicon,
    default_stopwords,
    extract_content_words,
    is_content_word,
    noise_drop,
    noise_shuffle,
    noise_synonym,
    strip_corpus,
)

from conftest import DATA_DIR, TOY_WORDS, brute_force_lengths, random_verse
from test_remote import StubServer

TOL = 1e-9


def _ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {message}")


def test_criterion_01_rd_streaming_equals_brute_force(toy_lex, toy_reference_lex):
    rng = random.Random(101)
    cfg = RhymeConfig()
    started = time.monotonic()
    for _ in range(100):
        verse = random_verse(rng)
        tokens = verse.all_tokens()
        fast = per_word_rhyme_lengths(verse, toy_lex, cfg)
        # The brute force reads an eagerly parsed copy of the lexicon, so
        # neither the vowel memo nor the parse on first lookup reaches it.
        slow = brute_force_lengths(
            tokens, toy_reference_lex, cfg.lookback_window, cfg.exclude_identical
        )
        assert fast == slow
        assert rhyme_density(verse, toy_lex, cfg) == sum(slow) / len(slow)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _ok(1, f"streaming RD == brute force on 100 random verses in {elapsed:.2f}s")


def test_criterion_02_worked_example(tmp_path):
    lex_path = tmp_path / "minimal.dict"
    lex_path.write_text(
        "YOU  Y UW1\nFOOD  F UW1 D\nBEGINNERS  B IH0 G IH1 N ER0 Z\n"
    )
    lex = load_lexicon(lex_path)
    verse = Verse(
        tokenize("where were you\nlast year i was paid in a drought with no beginners")
    )

    class ScriptedPredictor:
        def predict(self, query):
            ranked = [("food", 4.0), ("fruit", 3.0), ("you", 2.0), ("rules", 1.0)]
            return CandidateList(tuple(ranked[: query.k]))

    out = enhance_verse(verse, ScriptedPredictor(), EnhanceConfig(), lex)
    assert out.lines[1][-1] == "food"
    assert out.lines[0] == verse.lines[0]
    assert out.lines[1][:-1] == verse.lines[1][:-1]
    assert len(out.lines) == 2
    _ok(2, 'second line now ends "food", everything else untouched')


def test_criterion_03_enhancement_monotonicity(toy_lex):
    rng = random.Random(303)
    corpus = [random_verse(rng) for _ in range(50)]
    predictor = build_corpus_predictor(corpus)
    deny = frozenset(["gold", "pain", "hurricane"])
    cfg = EnhanceConfig(k=30, deny_list=deny)
    rd_before_all = []
    rd_after_all = []
    for _ in range(200):
        verse = random_verse(rng)
        out = enhance_verse(verse, predictor, cfg, toy_lex)
        for i in range(0, len(verse.lines) - 1, 2):
            before = rhyme_length(verse.lines[i][-1], verse.lines[i + 1][-1], toy_lex)
            after = rhyme_length(out.lines[i][-1], out.lines[i + 1][-1], toy_lex)
            assert after >= before
        touched_pairs = set()
        for li, ti in replaced_positions(verse, out):
            assert ti == len(verse.lines[li]) - 1
            assert out.lines[li][ti] not in deny
            assert li // 2 not in touched_pairs  # at most one change per pair
            touched_pairs.add(li // 2)
        rd_before_all.append(rhyme_density(verse, toy_lex))
        rd_after_all.append(rhyme_density(out, toy_lex))
    mean_before = sum(rd_before_all) / len(rd_before_all)
    mean_after = sum(rd_after_all) / len(rd_after_all)
    assert mean_after >= mean_before
    change = 100.0 * (mean_after - mean_before) / mean_before
    _ok(3, f"pairwise rhyme never degrades; mean RD {mean_before:.3f} -> {mean_after:.3f} (+{change:.1f}%, reported not asserted)")


def test_criterion_04_repetition_and_overlap_fixtures():
    assert repetition_score(Verse([["a", "b"], ["a", "b"]])) == pytest.approx(1.0, abs=TOL)
    assert repetition_score(Verse(tokenize("a b\nc d"))) == pytest.approx(0.0, abs=TOL)
    assert repetition_score(Verse(tokenize("a b\nb c"))) == pytest.approx(0.5, abs=TOL)
    assert unigram_overlap(["a", "b"], ["a", "b"]) == pytest.approx(1.0, abs=TOL)
    assert unigram_overlap(["a", "b", "c"], ["b", "c", "d"]) == pytest.approx(2 / 3, abs=TOL)
    assert unigram_overlap(["a"], []) == pytest.approx(0.0, abs=TOL)
    _ok(4, "repetition fixtures (1.0, 0.0, 0.5) and overlap fixtures (1.0, 2/3, 0.0) exact")


def test_criterion_05_rerank_argmax(toy_lex):
    rng = random.Random(505)
    cfg = RhymeConfig()
    for _ in range(50):
        hyps = [Hypothesis(random_verse(rng), rank) for rank in range(rng.randint(1, 10))]
        best = rerank(hyps, toy_lex, cfg)
        brute = max(
            rhyme_density(h.verse, toy_lex, cfg) - repetition_score(h.verse)
            for h in hyps
        )
        assert best.scored.score == brute
    tied = Verse([["day", "way", "play"]])
    hyps = [Hypothesis(tied.copy(), 7), Hypothesis(tied.copy(), 1), Hypothesis(tied.copy(), 4)]
    assert rerank(hyps, toy_lex, cfg).generator_rank == 1
    _ok(5, "argmax of rd - rep on 50 random batches; ties resolve to lowest rank")


def test_criterion_06_stripping_contracts():
    stopwords = default_stopwords()
    rng = random.Random(606)
    docs = []
    filler = ["propane", "flame", "4", "1,000", "?", "the", "control", "domain",
              "money", "rain", "night", "gold"] + TOY_WORDS
    for d in range(12):
        raw = "\n".join(
            " ".join(rng.choice(filler) for _ in range(rng.randint(4, 9)))
            for _ in range(rng.randint(2, 6))
        )
        docs.append(Document(id=f"doc{d}", kind="lyrics", lines=tokenize(raw), raw=raw))

    synonyms = SynonymLexicon({"propane": ("butane",), "money": ("cash", "dough")})
    for doc in docs:
        cw = extract_content_words(doc, stopwords)
        n = cw.token_count()
        shuffled = noise_shuffle(cw, 9)
        for a, b in zip(cw.lines, shuffled.lines):
            assert sorted(a) == sorted(b)
        dropped = noise_drop(cw, NoiseConfig(seed=9))
        assert dropped.token_count() == n - int(0.2 * n + TOL)
        swapped = noise_synonym(cw, synonyms, NoiseConfig(seed=9))
        assert swapped.token_count() == n
        for out in (cw, shuffled, dropped, swapped):
            for tok in out.flat():
                assert is_content_word(tok, stopwords)

    def render(workers: int) -> bytes:
        rows = strip_corpus(docs, stopwords, "shuffle", NoiseConfig(seed=42), workers=workers)
        return json.dumps([cw.lines for cw in rows]).encode()

    assert render(1) == render(1), "two single-thread runs differ"
    assert render(1) == render(8), "thread count changed output"
    _ok(6, "clean outputs, multiset/count contracts, byte-identical across runs and 1 vs 8 threads")


def test_criterion_07_bleu():
    identity = [["a", "b", "c", "d", "e"], ["night", "light", "shine", "bright"]]
    assert corpus_bleu(identity, identity) == pytest.approx(100.0, abs=TOL)
    assert corpus_bleu([["x"]], [["a", "b", "c", "d"]]) == pytest.approx(0.0, abs=TOL)
    cand = ["the"] * 7
    ref = ["the", "cat", "is", "on", "the", "mat"]
    p1 = modified_precisions([cand], [ref], max_n=1)[0]
    assert p1 == pytest.approx(2 / 7, abs=TOL)
    _ok(7, "identity 100.0, disjoint 0.0, clipped unigram precision 2/7")


def test_criterion_08_retrieval():
    import math

    docs = [
        Document("d0", "news", tokenize("cat dog"), "cat dog"),
        Document("d1", "news", tokenize("cat fish"), "cat fish"),
        Document("d2", "news", tokenize("bird"), "bird"),
    ]
    index = build_index(docs, stopwords=frozenset())
    doc, sim = retrieve(index, docs[1])[0]
    assert doc is docs[1]
    assert sim == pytest.approx(1.0, abs=TOL)

    # spreadsheet oracle: idf = ln(N/df); shared "cat" dimension only
    idf_cat, idf_rare = math.log(3 / 2), math.log(3)
    cat_component = idf_cat / math.sqrt(idf_cat**2 + idf_rare**2)
    query = Document("q", "news", tokenize("cat"), "cat")
    results = retrieve(index, query, k=3)
    assert [docs.index(d) for d, _ in results] == [0, 1, 2]
    assert results[0][1] == pytest.approx(cat_component, abs=TOL)
    assert results[1][1] == pytest.approx(cat_component, abs=TOL)
    assert results[2][1] == pytest.approx(0.0, abs=TOL)
    _ok(8, "self-query similarity 1.0; hand-computed TF-IDF ranking reproduced")


def test_criterion_09_corpus_rules(mini_corpus_dir):
    blocks = ["\n".join(f"w{i} x y" for i in range(n)) for n in (8, 3, 5)]
    doc = Document("lyric", "lyrics", tokenize("\n\n".join(blocks)), "\n\n".join(blocks))
    verses = split_verses(doc)
    assert [len(v.lines) for v in verses] == [8, 5]

    sized = [
        Document(f"m{n}", "movies", [["tok"] * n], " ".join(["tok"] * n))
        for n in (39, 40, 90, 140, 141)
    ]
    kept = filter_by_length(sized, 40, 140)
    assert [d.token_count() for d in kept] == [40, 90, 140]

    stats = corpus_stats(load_corpus(mini_corpus_dir, "lyrics"))
    golden = json.loads((DATA_DIR / "golden_stats.json").read_text())
    assert stats.n_docs == golden["n_docs"]
    for key in ("sentences_per_doc", "tokens_per_doc", "tokens_per_sentence"):
        got, want = getattr(stats, key), golden[key]
        assert got[0] == pytest.approx(want[0], abs=TOL)
        assert got[1] == pytest.approx(want[1], abs=TOL)
    _ok(9, "verse-length filter, inclusive token bounds, golden stats match")


def test_criterion_10_remote_predictor_client():
    query = PredictorQuery(("go", "<mask>"), 1, k=5)

    with StubServer([(200, None)]) as stub:
        result = remote_predict(stub.endpoint, query)
    assert result.tokens() == ["food", "fruit", "rules"]

    unsorted_body = {
        "candidates": [{"token": "a", "score": 1.0}, {"token": "b", "score": 2.0}]
    }
    with StubServer([(200, unsorted_body)]) as stub:
        with pytest.raises(PredictorProtocolError):
            remote_predict(stub.endpoint, query)

    with StubServer([(500, {}), (500, {}), (500, {})]) as stub:
        started = time.monotonic()
        with pytest.raises(PredictorRetryableError):
            remote_predict(stub.endpoint, query)
        elapsed = time.monotonic() - started
    assert len(stub.requests) == 3
    assert elapsed >= 0.55  # 200 ms + 400 ms exponential backoff
    _ok(10, "pass-through, unsorted rejection, and retry exhaustion after backoff on loopback")
