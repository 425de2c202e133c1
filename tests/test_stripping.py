import io
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from verseforge.corpus import Document, Verse, tokenize
from verseforge.stripping import (
    ContentWords,
    NoiseConfig,
    SynonymLexicon,
    _noise_count,
    _rng,
    apply_noise,
    default_stopwords,
    emit_training_pair,
    extract_content_words,
    is_content_word,
    noise_drop,
    noise_shuffle,
    noise_synonym,
    strip_corpus,
)

from conftest import DATA_DIR, FILTER_TOKENS, TOY_WORDS


@pytest.fixture(scope="module")
def stopwords():
    return default_stopwords()


def doc_from(raw: str, doc_id: str = "d") -> Document:
    return Document(id=doc_id, kind="lyrics", lines=tokenize(raw), raw=raw)


def cw_from(lines, provenance="d") -> ContentWords:
    return ContentWords.from_lines(lines, provenance=provenance)


# Stopwords, numbers, digits outside ASCII, tokens that only look like
# numbers, and runs of punctuation.
MIXED_FILTER_TOKENS = FILTER_TOKENS + [
    "The", "and", "\u00b2", "\u0663\u0664", "x\u00b2", "0.5", "1,000,000", "12.", ".5",
    "?!", "...!", "--", "__", "'", "rain", "rain's",
]


class TestExtractContentWords:
    def test_all_stopwords_line_becomes_empty(self, stopwords):
        cw = extract_content_words(doc_from("where were you?"), stopwords)
        assert cw.lines == ((),)

    def test_stopword_removed(self, stopwords):
        cw = extract_content_words(doc_from("control the whole domain"), stopwords)
        assert cw.lines == (("control", "whole", "domain"),)

    def test_numbers_and_punctuation_removed(self, stopwords):
        cw = extract_content_words(doc_from("42 !"), stopwords)
        assert cw.lines == ((),)

    def test_line_structure_preserved(self, stopwords):
        cw = extract_content_words(doc_from("the rain\nwhere were you\nbig game"), stopwords)
        assert cw.lines == (("rain",), (), ("big", "game"))

    def test_mixed_alnum_tokens_survive(self, stopwords):
        cw = extract_content_words(doc_from("mid-30s temperatures dipped 4 times"), stopwords)
        assert cw.lines == (("mid-30s", "temperatures", "dipped", "times"),)

    def test_provenance_recorded(self, stopwords):
        cw = extract_content_words(doc_from("propane flows", doc_id="song9"), stopwords)
        assert cw.provenance == "song9"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(FILTER_TOKENS), max_size=8), max_size=5))
    def test_lines_follow_the_per_token_rule(self, stopwords, lines):
        doc = Document(id="d", kind="news", lines=lines, raw="")
        expected = tuple(
            tuple(tok for tok in line if is_content_word(tok, stopwords)) for line in lines
        )
        assert extract_content_words(doc, stopwords).lines == expected

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from(MIXED_FILTER_TOKENS),
                    st.text(alphabet="ab1.,?!\u0663\u00b2-_'", min_size=1, max_size=4),
                ),
                max_size=10,
            ),
            max_size=6,
        )
    )
    def test_mixed_lines_follow_the_per_token_rule(self, stopwords, lines):
        # Each distinct token is classified once per document, so tokens
        # repeat across lines here and every kind shares a line.
        doc = Document(id="d", kind="news", lines=lines, raw="")
        expected = tuple(
            tuple(tok for tok in line if is_content_word(tok, stopwords)) for line in lines
        )
        assert extract_content_words(doc, stopwords).lines == expected


def test_is_content_word(stopwords):
    assert is_content_word("propane", stopwords)
    assert not is_content_word("the", stopwords)
    assert not is_content_word("4", stopwords)
    assert not is_content_word("1,000", stopwords)
    assert not is_content_word("?", stopwords)


class TestShuffle:
    def test_singleton_unchanged(self):
        cw = cw_from([["propane"]])
        assert noise_shuffle(cw, 7).lines == (("propane",),)

    @given(st.lists(st.lists(st.sampled_from(TOY_WORDS), max_size=8), max_size=5),
           st.integers(0, 2**32))
    def test_per_line_multisets_preserved(self, lines, seed):
        cw = cw_from(lines)
        out = noise_shuffle(cw, seed)
        assert len(out.lines) == len(cw.lines)
        for before, after in zip(cw.lines, out.lines):
            assert Counter(before) == Counter(after)

    def test_same_seed_same_output(self):
        cw = cw_from([["a1", "b2", "c3", "d4", "e5"]] * 3)
        assert noise_shuffle(cw, 42) == noise_shuffle(cw, 42)

    def test_different_provenance_different_stream(self):
        lines = [[f"w{i}" for i in range(10)]]
        a = noise_shuffle(cw_from(lines, "doc_a"), 42)
        b = noise_shuffle(cw_from(lines, "doc_b"), 42)
        assert a.lines != b.lines  # astronomically unlikely to collide

    def test_noise_field_set(self):
        out = noise_shuffle(cw_from([["x", "y"]]), 3)
        assert out.noise == "shuffle" and out.seed == 3


class TestDrop:
    def test_exact_count_ten(self):
        cw = cw_from([[f"w{i}" for i in range(10)]])
        out = noise_drop(cw, NoiseConfig(seed=1))
        assert out.token_count() == 8

    def test_floor_below_one(self):
        cw = cw_from([["a1", "b2", "c3", "d4"]])
        out = noise_drop(cw, NoiseConfig(seed=1))
        assert out.token_count() == 4

    def test_rate_zero_identity(self):
        cw = cw_from([["a1", "b2", "c3"]])
        assert noise_drop(cw, NoiseConfig(drop_rate=0.0, seed=5)).lines == cw.lines

    def test_rate_one_removes_everything(self):
        cw = cw_from([["a1", "b2"], ["c3"]])
        out = noise_drop(cw, NoiseConfig(drop_rate=1.0, seed=5))
        assert out.token_count() == 0 and len(out.lines) == 2

    def test_kept_tokens_preserve_order(self):
        cw = cw_from([[f"w{i}" for i in range(20)]])
        out = noise_drop(cw, NoiseConfig(seed=9))
        kept = list(out.lines[0])
        positions = [int(t[1:]) for t in kept]
        assert positions == sorted(positions)

    @given(st.lists(st.lists(st.sampled_from(TOY_WORDS), max_size=6), max_size=5),
           st.integers(0, 999))
    def test_count_contract(self, lines, seed):
        cw = cw_from(lines)
        n = cw.token_count()
        out = noise_drop(cw, NoiseConfig(seed=seed))
        assert out.token_count() == n - int(0.2 * n + 1e-9)
        assert len(out.lines) == len(cw.lines)


class TestSynonym:
    def test_forced_single_synonym(self):
        lex = SynonymLexicon({"big": ("large",)})
        cw = cw_from([["big"]])
        out = noise_synonym(cw, lex, NoiseConfig(synonym_rate=1.0, seed=0))
        assert out.lines == (("large",),)

    def test_unknown_token_unchanged(self):
        lex = SynonymLexicon({})
        cw = cw_from([["propane"]])
        out = noise_synonym(cw, lex, NoiseConfig(synonym_rate=1.0, seed=0))
        assert out.lines == (("propane",),)

    def test_rate_zero_identity(self):
        lex = SynonymLexicon({"big": ("large",)})
        cw = cw_from([["big", "game"]])
        assert noise_synonym(cw, lex, NoiseConfig(synonym_rate=0.0, seed=0)).lines == cw.lines

    def test_token_count_preserved(self):
        lex = SynonymLexicon({w: ("swap",) for w in TOY_WORDS})
        cw = cw_from([TOY_WORDS[:7], TOY_WORDS[7:12]])
        out = noise_synonym(cw, lex, NoiseConfig(synonym_rate=0.5, seed=3))
        assert out.token_count() == cw.token_count()
        assert [len(l) for l in out.lines] == [len(l) for l in cw.lines]

    def test_never_replaces_with_itself(self):
        lex = SynonymLexicon({"gold": ("gold", "bold")})
        cw = cw_from([["gold"] * 5])
        out = noise_synonym(cw, lex, NoiseConfig(synonym_rate=1.0, seed=11))
        assert all(t == "bold" for t in out.lines[0])


class TestSynonymLexiconLoad:
    def test_load_filters(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text(
            "# comment\n"
            "big\tlarge,huge\n"
            "odd\todd\n"
            "phrase\ttwo words,single\n"
            "tabbed\ttwo\twords,lone\n"
            "nbsp\tlarge\u00a0size,vast\n"
            "emspace\thuge\u2003thing,giant\n"
            "spaced\tlarge\u00a0size,huge\u2003thing\n"
            "big\tdeal\tlarge,vast\n"
            "wide\t\tbroad\n",
            encoding="utf-8",
        )
        lex = SynonymLexicon.load(path)
        # The later "big<TAB>deal<TAB>..." line is dropped, so it adds nothing.
        assert lex.get("big") == ("large", "huge")
        assert lex.get("odd") == ()  # only self-synonym: dropped
        assert lex.get("phrase") == ("single",)  # multi-word skipped
        # A second tab in the synonym field makes the whole line malformed.
        assert lex.get("tabbed") == ()
        # A doubled separator is still one separator.
        assert lex.get("wide") == ("broad",)
        # Any other whitespace inside a synonym makes it multi-word.
        assert lex.get("nbsp") == ("vast",)
        assert lex.get("emspace") == ("giant",)
        assert lex.get("spaced") == ()

    def test_head_word_with_whitespace_dropped(self, tmp_path):
        # No token holds whitespace, so such a head word could never match.
        path = tmp_path / "syn.tsv"
        path.write_text(
            "big deal\tlarge\n"
            "tab\tbed\tlarge\n"
            "no\u00a0break\tlarge\n"
            "em\u2003space\tlarge\n"
            " padded \tlarge\n",
            encoding="utf-8",
        )
        assert SynonymLexicon.load(path).entries == {"padded": ("large",)}

    def test_reserved_token_synonyms_dropped(self, tmp_path):
        # <nl> and <mask> have no escape in the flat format: as a synonym,
        # either would put a line break or a mask into a training source.
        path = tmp_path / "syn.tsv"
        path.write_text(
            "ride\t<nl>\n"
            "night\t<MASK>\n"
            "day\tx<nl>y,sun\n"
            "go\t<Mask>,move\n"
            "hold\t<,>,keep\n",
            encoding="utf-8",
        )
        lex = SynonymLexicon.load(path)
        assert lex.entries == {"day": ("sun",), "go": ("move",), "hold": ("<", ">", "keep")}
        cw = extract_content_words(doc_from("we ride at night\nthe day is bright"), frozenset())
        noised = noise_synonym(cw, lex, NoiseConfig(synonym_rate=1.0, seed=0))
        source = emit_training_pair(noised, Verse([["x"]]), io.StringIO())["source"]
        assert source == "we ride at night <nl> the sun is bright"

    def test_bundled_sample_loads(self):
        lex = SynonymLexicon.load(DATA_DIR.parent.parent / "src/verseforge/data/synonyms_sample.tsv")
        assert lex.get("money") == ("cash", "dough")


class TestNoNoiseIntroducesJunk:
    @given(st.integers(0, 99))
    def test_outputs_stay_clean(self, seed):
        stop = default_stopwords()
        doc = doc_from("control the whole domain tonight\nwhere were you at 4\nbig game energy !")
        cw = extract_content_words(doc, stop)
        syn = SynonymLexicon({"control": ("steer",), "game": ("match",)})
        cfg = NoiseConfig(seed=seed)
        for noise in ("none", "shuffle", "drop", "synonym"):
            out = apply_noise(cw, noise, cfg, syn)
            for tok in out.flat():
                assert is_content_word(tok, stop), (noise, tok)

    def test_unknown_noise_type_rejected(self):
        cw = ContentWords.from_lines([["storm", "winds"]], "d")
        with pytest.raises(ValueError, match="unknown noise type 'loud'"):
            apply_noise(cw, "loud", NoiseConfig())


class TestTrainingPairs:
    def test_empty_content_with_four_line_target(self):
        verse = Verse(tokenize("a b\nc d\ne f\ng h"))
        buf = io.StringIO()
        record = emit_training_pair(cw_from([]), verse, buf)
        assert record["source"] == ""
        assert record["target"].count("<nl>") == 3
        assert json.loads(buf.getvalue()) == record

    def test_line_breaks_serialized(self):
        cw = cw_from([["alpha", "beta"], [], ["gamma"]])
        verse = Verse([["alpha", "beta"], ["x"], ["gamma"]])
        record = emit_training_pair(cw, verse, io.StringIO())
        assert record["source"] == "alpha beta <nl> <nl> gamma"
        assert record["target"] == "alpha beta <nl> x <nl> gamma"

    def test_two_runs_byte_identical(self, stopwords):
        raw = (DATA_DIR / "mini_corpus" / "doc_a.txt").read_text()
        verse = Verse(tokenize(raw.split("\n\n")[0]))

        def render() -> bytes:
            doc = Document(id="doc_a#v0", kind="lyrics", lines=verse.lines, raw="")
            cw = extract_content_words(doc, stopwords)
            cw = apply_noise(cw, "shuffle", NoiseConfig(seed=13), None)
            buf = io.StringIO()
            emit_training_pair(cw, verse, buf)
            return buf.getvalue().encode()

        assert render() == render()

    def test_golden_record(self, stopwords):
        golden = json.loads((DATA_DIR / "golden_pair.json").read_text())
        raw = (DATA_DIR / "mini_corpus" / "doc_a.txt").read_text()
        verse = Verse(tokenize(raw.split("\n\n")[0]))
        doc = Document(id="doc_a#v0", kind="lyrics", lines=verse.lines, raw="")
        cw = extract_content_words(doc, stopwords)
        cw = apply_noise(cw, "shuffle", NoiseConfig(seed=13), None)
        buf = io.StringIO()
        record = emit_training_pair(cw, verse, buf)
        assert record == golden
        # audited invariants: same multiset per line, nothing junk
        for noised, original in zip(cw.lines, verse.lines):
            kept = [t for t in original if is_content_word(t, stopwords)]
            assert Counter(noised) == Counter(kept)


class TestStripCorpus:
    def test_worker_count_irrelevant(self, stopwords, mini_corpus_dir):
        from verseforge.corpus import load_corpus

        docs = load_corpus(mini_corpus_dir, "lyrics")
        cfg = NoiseConfig(seed=99)

        def render(workers: int) -> bytes:
            results = strip_corpus(docs, stopwords, "shuffle", cfg, workers=workers)
            return json.dumps([cw.lines for cw in results]).encode()

        for workers in (-1, 0, 2, 8):
            assert render(1) == render(workers)
        assert render(1) == render(1)


# Reference walks, each drawing its own positions in a plain loop; the
# property tests below hold noise_drop and noise_synonym to them.
def reference_noise_drop(cw: ContentWords, cfg: NoiseConfig) -> ContentWords:
    n = cw.token_count()
    n_drop = _noise_count(cfg.drop_rate, n)
    rng = _rng(cfg.seed, cw.provenance)
    dropped = set(rng.sample(range(n), n_drop)) if n_drop else set()
    out: list[tuple[str, ...]] = []
    pos = 0
    for line in cw.lines:
        kept = []
        for tok in line:
            if pos not in dropped:
                kept.append(tok)
            pos += 1
        out.append(tuple(kept))
    return replace(cw, lines=tuple(out), noise="drop", seed=cfg.seed)


def reference_noise_synonym(
    cw: ContentWords, lex: SynonymLexicon, cfg: NoiseConfig
) -> ContentWords:
    n = cw.token_count()
    n_rep = _noise_count(cfg.synonym_rate, n)
    rng = _rng(cfg.seed, cw.provenance)
    chosen = sorted(rng.sample(range(n), n_rep)) if n_rep else []
    targets = set(chosen)
    out: list[tuple[str, ...]] = []
    pos = 0
    for line in cw.lines:
        toks = []
        for tok in line:
            if pos in targets:
                syns = tuple(s for s in lex.get(tok) if s != tok)
                if syns:
                    tok = rng.choice(syns)
            toks.append(tok)
            pos += 1
        out.append(tuple(toks))
    return replace(cw, lines=tuple(out), noise="synonym", seed=cfg.seed)


_WORDS = st.sampled_from(TOY_WORDS[:8])
_CONTENT_LINES = st.lists(st.lists(_WORDS, max_size=8), max_size=6)
_RATES = st.one_of(st.sampled_from([0.0, 1.0, 0.29]), st.floats(0.0, 1.0))
_PROVENANCES = st.one_of(st.sampled_from(["", "d", "doc_a#v0"]), st.text(max_size=10))
# Tables may map a word to itself, which noise_synonym must skip.
_TABLES = st.dictionaries(_WORDS, st.lists(_WORDS, min_size=1, max_size=3).map(tuple))


class TestNoiseMatchesReference:
    @given(_CONTENT_LINES, _RATES, st.integers(), _PROVENANCES)
    @example([], 1.0, 0, "d")
    @example([[], []], 0.29, -3, "d")
    def test_drop(self, lines, rate, seed, provenance):
        cw = cw_from(lines, provenance)
        cfg = NoiseConfig(drop_rate=rate, seed=seed)
        assert noise_drop(cw, cfg) == reference_noise_drop(cw, cfg)

    @given(_CONTENT_LINES, _RATES, st.integers(), _PROVENANCES, _TABLES)
    @example([], 1.0, 0, "d", {})
    @example([["gold"] * 4, []], 1.0, 7, "d", {"gold": ("gold", "bold", "cold")})
    def test_synonym(self, lines, rate, seed, provenance, table):
        cw = cw_from(lines, provenance)
        cfg = NoiseConfig(synonym_rate=rate, seed=seed)
        lex = SynonymLexicon(table)
        assert noise_synonym(cw, lex, cfg) == reference_noise_synonym(cw, lex, cfg)
