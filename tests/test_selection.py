import json
import math
import random
import tempfile
import tracemalloc
from array import array
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verseforge import selection
from verseforge.corpus import Document, Verse, tokenize
from verseforge.metrics import RhymeConfig, repetition_score, rhyme_density
from verseforge.selection import (
    VECTORS_FILE,
    VOCAB_FILE,
    Hypothesis,
    RetrievalIndex,
    SparseRows,
    _cosine,
    _embed,
    _norm,
    _normalize,
    _query_vector,
    build_index,
    build_vector_index,
    hypothesis_from_record,
    load_hypotheses,
    load_index,
    load_word_vectors,
    rerank,
    retrieve,
    retrieve_indices,
    save_index,
)

from conftest import (
    random_verse,
    reference_build_index,
    reference_load_index,
    reference_weigh,
)

NO_STOP = frozenset()


def make_doc(raw: str, doc_id: str) -> Document:
    return Document(id=doc_id, kind="news", lines=tokenize(raw), raw=raw)


def scan_retrieve_indices(index, query, k: int = 1) -> list[tuple[int, float]]:
    """Reference: score every document, sort all of them, keep the first k."""
    qvec = _query_vector(index, query)
    sims = []
    for dvec in index.vectors:
        small, large = (qvec, dvec) if len(qvec) <= len(dvec) else (dvec, qvec)
        sim = 0
        for d, w in small.items():
            sim += w * large.get(d, 0.0)
        sims.append(sim)
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:k]
    return [(i, sims[i]) for i in order]


def exact(results) -> list[tuple[int, str, type]]:
    return [(i, repr(sim), type(sim)) for i, sim in results]


class TestRerank:
    def test_single_hypothesis(self, toy_lex):
        hyp = Hypothesis(Verse([["bat", "cat"]]), 0)
        best = rerank([hyp], toy_lex)
        assert best.generator_rank == 0
        assert best.scored is not None
        assert best.scored.score == best.scored.rd - best.scored.rep

    def test_higher_score_wins_even_at_lower_rd(self):
        # rd 1.0 / rep 0.2 scores 0.8; rd 0.9 / rep 0.0 scores 0.9: B wins
        from verseforge.metrics import ScoredVerse

        verse = Verse([["x"]])
        a = ScoredVerse(verse, rd=1.0, rep=0.2)
        b = ScoredVerse(verse, rd=0.9, rep=0.0)
        assert b.score > a.score

    def test_argmax_against_brute_force(self, toy_lex):
        rng = random.Random(11)
        cfg = RhymeConfig()
        for _ in range(25):
            hyps = [
                Hypothesis(random_verse(rng), rank)
                for rank in range(rng.randint(1, 8))
            ]
            best = rerank(hyps, toy_lex, cfg)
            scores = [
                rhyme_density(h.verse, toy_lex, cfg) - repetition_score(h.verse)
                for h in hyps
            ]
            assert best.scored.score == max(scores)

    def test_tie_goes_to_lowest_rank(self, toy_lex):
        verse = Verse([["day", "way"]])
        hyps = [
            Hypothesis(verse.copy(), 5),
            Hypothesis(verse.copy(), 2),
            Hypothesis(verse.copy(), 9),
        ]
        assert rerank(hyps, toy_lex).generator_rank == 2

    def test_permutation_invariant_up_to_ties(self, toy_lex):
        rng = random.Random(21)
        hyps = [Hypothesis(random_verse(rng), rank) for rank in range(6)]
        shuffled = list(hyps)
        rng.shuffle(shuffled)
        assert rerank(hyps, toy_lex).generator_rank == rerank(shuffled, toy_lex).generator_rank

    def test_empty_batch_rejected(self, toy_lex):
        with pytest.raises(ValueError):
            rerank([], toy_lex)

    def test_inputs_not_mutated(self, toy_lex):
        hyp = Hypothesis(Verse([["bat"]]), 0)
        rerank([hyp], toy_lex)
        assert hyp.scored is None


class TestHypothesisIO:
    def test_record_parse(self):
        hyp = hypothesis_from_record({"rank": 3, "text": "Bat cat <nl> day way"})
        assert hyp.generator_rank == 3
        assert hyp.verse.lines == [["bat", "cat"], ["day", "way"]]

    @pytest.mark.parametrize(
        "record, message",
        [
            ([0, "a"], "expected a JSON object, got list"),
            ({"rank": 0}, "record lacks 'text'"),
            ({"rank": True, "text": "a"}, "rank must be an integer, got True"),
            ({"rank": 0, "text": ["a"]}, "text must be a string, got list"),
        ],
    )
    def test_malformed_record_rejected(self, record, message):
        with pytest.raises(ValueError) as info:
            hypothesis_from_record(record)
        assert str(info.value) == message

    def test_load_batch(self, tmp_path):
        path = tmp_path / "hyps.jsonl"
        path.write_text(
            '{"rank": 0, "text": "a b <nl> c d"}\n'
            '\n'
            '{"rank": 1, "text": "e f"}\n'
        )
        hyps = load_hypotheses(path)
        assert [h.generator_rank for h in hyps] == [0, 1]

    def test_record_ends_at_newline_only(self, tmp_path):
        # JSON allows U+2028, U+2029 and U+0085 raw inside a string.
        path = tmp_path / "hyps.jsonl"
        record = {"rank": 0, "text": "a\u2028b <nl> c\u2029d\x85e"}
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
        (hyp,) = load_hypotheses(path)
        assert hyp.verse.lines == [["a"], ["b"], ["c"], ["d"], ["e"]]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_files_load(self, tmp_path, newline):
        path = tmp_path / "hyps.jsonl"
        path.write_bytes(
            newline.join(['{"rank": 0, "text": "a b"}', "", '{"rank": 1, "text": "c"}', ""])
            .encode()
        )
        assert [h.generator_rank for h in load_hypotheses(path)] == [0, 1]

    def test_bad_record_names_its_line(self, tmp_path):
        path = tmp_path / "hyps.jsonl"
        path.write_bytes(b'{"rank": 0, "text": "a"}\r\n\r\n{"rank": 1\r\n')
        with pytest.raises(ValueError, match=r"hyps\.jsonl:3: "):
            load_hypotheses(path)

    def test_duplicate_ranks_rejected(self, tmp_path):
        path = tmp_path / "hyps.jsonl"
        path.write_text('{"rank": 0, "text": "a"}\n{"rank": 0, "text": "b"}\n')
        with pytest.raises(ValueError, match="duplicate"):
            load_hypotheses(path)


# A few terms, so that documents overlap and tie; "every" goes into each
# document when asked (idf 0, stored 0.0 weights); "the" is the stopword.
TERMS = ["rain", "pain", "gold", "soul", "night", "light", "sea"]
STOP = frozenset(["the"])
token_lists = st.lists(st.sampled_from(TERMS + ["the"]), max_size=9)
# Many terms per document, so sums of several products can round apart.
WIDE_TERMS = [f"t{i}" for i in range(12)]


def as_shape(tokens: list[str], shape: str, i: int):
    """``tokens`` as one of the document shapes an index accepts."""
    lines = [tokens[:3], tokens[3:]]
    if shape == "tokens":
        return tokens
    if shape == "lines":
        return lines
    if shape == "document":
        return Document(id=f"d{i}", kind="news", lines=lines, raw="")
    return Verse(lines, "song" if shape == "song verse" else None)


class TestTfIdfIndex:
    def test_single_doc_degenerate_idf(self):
        index = build_index([make_doc("cat dog", "d0")], stopwords=NO_STOP)
        assert list(index.vectors) == [{}]
        results = retrieve(index, make_doc("cat dog", "q"))
        assert results[0][1] == 0.0

    def test_disjoint_docs_orthogonal(self):
        docs = [make_doc("cat dog", "d0"), make_doc("bird fish", "d1")]
        index = build_index(docs, stopwords=NO_STOP)
        results = retrieve(index, make_doc("cat dog", "q"), k=2)
        assert results[0][0] is docs[0]
        assert results[0][1] == pytest.approx(1.0, abs=1e-9)
        assert results[1][1] == pytest.approx(0.0, abs=1e-9)

    def test_rebuild_identical(self):
        docs = [make_doc("alpha beta beta", "d0"), make_doc("beta gamma", "d1")]
        a = build_index(docs, stopwords=NO_STOP)
        b = build_index(docs, stopwords=NO_STOP)
        assert a.vectors == b.vectors and a.vocabulary == b.vocabulary

    def test_three_doc_spreadsheet_oracle(self):
        docs = [
            make_doc("cat dog", "d0"),
            make_doc("cat fish", "d1"),
            make_doc("bird", "d2"),
        ]
        index = build_index(docs, stopwords=NO_STOP)

        # Independent arithmetic: idf = ln(N/df), tf = raw count, L2 norm.
        idf_cat = math.log(3 / 2)
        idf_rare = math.log(3 / 1)
        norm = math.sqrt(idf_cat**2 + idf_rare**2)
        cat_component = idf_cat / norm

        results = retrieve(index, make_doc("cat", "q"), k=3)
        assert [docs.index(r[0]) for r in results] == [0, 1, 2]
        assert results[0][1] == pytest.approx(cat_component, abs=1e-9)
        assert results[1][1] == pytest.approx(cat_component, abs=1e-9)
        assert results[2][1] == pytest.approx(0.0, abs=1e-9)

        # cross-document similarity: only the cat dimension overlaps
        sims = [s for _, s in retrieve(index, docs[0], k=3)]
        assert sims[0] == pytest.approx(1.0, abs=1e-9)
        assert sims[1] == pytest.approx(cat_component**2, abs=1e-9)
        assert sims[2] == pytest.approx(0.0, abs=1e-9)

    def test_self_retrieval_unit_similarity(self):
        docs = [
            make_doc("cat dog", "d0"),
            make_doc("cat fish", "d1"),
            make_doc("bird", "d2"),
        ]
        index = build_index(docs, stopwords=NO_STOP)
        doc, sim = retrieve(index, docs[1])[0]
        assert doc is docs[1]
        assert sim == pytest.approx(1.0, abs=1e-9)

    def test_stopwords_excluded_from_vocabulary(self):
        docs = [make_doc("the cat", "d0"), make_doc("the dog", "d1")]
        index = build_index(docs, stopwords=frozenset(["the"]))
        assert "the" not in index.vocabulary

    def test_min_df_prunes_rare_terms(self):
        docs = [make_doc("cat dog", "d0"), make_doc("cat fish", "d1")]
        index = build_index(docs, min_df=2, stopwords=NO_STOP)
        assert set(index.vocabulary) == {"cat"}

    def test_ties_by_insertion_order(self):
        docs = [make_doc("cat", "d0"), make_doc("cat", "d1"), make_doc("dog", "d2")]
        index = build_index(docs, stopwords=NO_STOP)
        results = retrieve_indices(index, make_doc("cat", "q"), k=3)
        assert [i for i, _ in results] == [0, 1, 2]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_index([])

    def test_query_as_token_lines(self):
        # The query shape a caller holding tokenize() output passes.
        docs = [make_doc("cat dog", "d0"), make_doc("fish dog", "d1"), make_doc("bird", "d2")]
        index = build_index(docs, stopwords=NO_STOP)
        lines = [["fish", "dog"], ["cat"]]
        assert exact(retrieve_indices(index, lines, 3)) == exact(
            retrieve_indices(index, make_doc("fish dog\ncat", "q"), 3)
        )

    def test_zero_query_vector(self):
        docs = [make_doc("cat dog", "d0"), make_doc("fish", "d1")]
        index = build_index(docs, stopwords=NO_STOP)
        results = retrieve(index, make_doc("zebra", "q"), k=2)
        assert [s for _, s in results] == [0.0, 0.0]

    def test_verse_documents_supported(self, toy_lex):
        verses = [Verse([["bat", "cat"]], "song"), Verse([["day", "way"]], "song")]
        index = build_index(verses, stopwords=NO_STOP)
        assert index.doc_ids == ["song#0", "song#1"]
        doc, sim = retrieve(index, Verse([["bat", "cat"]]))[0]
        assert doc is verses[0]

    @settings(max_examples=200, deadline=None)
    @given(
        docs=st.lists(
            st.lists(st.sampled_from(WIDE_TERMS + ["the"]), max_size=15), min_size=1, max_size=8
        ),
        min_df=st.integers(1, 3),
        query=st.lists(st.sampled_from(WIDE_TERMS + ["the", "zebra"]), max_size=12),
        shape=st.sampled_from(["tokens", "lines", "document", "verse", "song verse"]),
        stopwords=st.sampled_from([STOP, None]),
    )
    def test_matches_reference_builder(self, docs, min_df, query, shape, stopwords):
        # Every weight keeps its bits and its place, in the index and in a query.
        docs = [as_shape(tokens, shape, i) for i, tokens in enumerate(docs)]
        index = build_index(docs, min_df=min_df, stopwords=stopwords)
        want = reference_build_index(docs, min_df=min_df, stopwords=stopwords)
        assert index.doc_ids == want.doc_ids and index.documents == want.documents
        assert index.stopwords == want.stopwords and index.n_docs == len(docs)
        assert list(index.vocabulary.items()) == list(want.vocabulary.items())
        assert index.df == want.df
        assert list(index.df) == list(index.vocabulary)
        assert [exact(v.items()) for v in index.vectors] == [exact(v.items()) for v in want.vectors]
        qvec = reference_weigh(query, want.vocabulary, want.df, want.n_docs)
        assert exact(_query_vector(index, query).items()) == exact(qvec.items())


class TestSparseRows:
    @pytest.fixture
    def index(self):
        rng = random.Random(1)
        return build_index([rng.sample(WIDE_TERMS, 6) for _ in range(500)], stopwords=NO_STOP)

    def test_len_builds_no_dicts(self, index):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                n = len(index.vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n == 500
        assert peak - before < 4096  # every document's dict would take over 200 KB

    def test_items_are_the_reference_dicts(self, index):
        docs = [list(doc) for doc in index.documents]
        want = reference_build_index(docs, stopwords=NO_STOP).vectors
        rows = index.vectors
        assert [exact(rows[i].items()) for i in range(len(rows))] == [exact(v.items()) for v in want]
        assert rows[-1] == want[-1] and list(reversed(rows)) == want[::-1]
        with pytest.raises(IndexError):
            rows[500]

    def test_equal_rows_hold_equal_arrays(self, index, tmp_path):
        save_index(index, tmp_path)
        assert load_index(tmp_path).vectors == index.vectors
        other = build_index([list(doc) for doc in index.documents[1:]], stopwords=NO_STOP)
        assert other.vectors != index.vectors
        assert index.vectors != list(index.vectors)

    def test_rows_are_read_only(self, index):
        rows = index.vectors
        assert not hasattr(rows, "__setitem__") and not hasattr(rows, "append")
        with pytest.raises(TypeError):
            rows[0] = {}

    @settings(max_examples=100, deadline=None)
    @given(
        docs=st.lists(st.lists(st.sampled_from(WIDE_TERMS + ["the"]), max_size=12), min_size=1, max_size=8),
        min_df=st.integers(1, 3),
    )
    def test_postings_transpose_back_to_the_vectors(self, docs, min_df):
        index = build_index(docs, min_df=min_df, stopwords=STOP)
        assert index.postings.transposed(index.n_docs) == index.vectors
        assert all(list(row) == sorted(row) for row in index.postings)


def loop_sum(terms):
    """Reference: ``terms`` added one at a time, left to right."""
    total = 0
    for t in terms:
        total += t
    return total


def one_row_index(weights: list[float]) -> RetrievalIndex:
    """An index of one document whose dimensions are 0..len(weights) - 1."""
    rows = SparseRows(array("q", [0, len(weights)]), array("i", range(len(weights))), array("d", weights))
    return RetrievalIndex(doc_ids=["d"], documents=["d"], vectors=rows, vocabulary={}, df={})


class TestLeftToRightSums:
    """Norms and similarities add their terms left to right, so their bits
    are the same on every Python version; from 3.12 the built-in ``sum``
    compensates rounding. Each case's left-to-right sum differs from the
    correctly rounded one.
    """

    CASES = [[0.1] * 10 + [1e-17] * 3, [1.0] + [2.0**-54] * 7]

    @pytest.mark.parametrize("terms", CASES)
    def test_norm(self, terms):
        weights = [math.sqrt(t) for t in terms]
        squares = [w * w for w in weights]
        want = math.sqrt(loop_sum(squares))
        assert want != math.sqrt(math.fsum(squares))
        assert _norm(list(enumerate(weights))) == want

    @pytest.mark.parametrize("terms", CASES)
    def test_cosine_in_either_vectors_order(self, terms):
        want = loop_sum(terms)
        assert want != math.fsum(terms)
        n = len(terms)
        # The query is no longer than the document, so it sets the order.
        assert _cosine(dict(enumerate(terms)), one_row_index([1.0] * n), 0) == want
        # The document is shorter, so it sets the order.
        assert _cosine(dict.fromkeys(range(n + 1), 1.0), one_row_index(terms), 0) == want

    def test_empty_cosine_is_int_zero(self):
        sim = _cosine({}, one_row_index([1.0]), 0)
        assert sim == 0 and type(sim) is int


class TestPostingsRetrieval:
    @settings(max_examples=300, deadline=None)
    @given(
        docs=st.lists(token_lists, min_size=1, max_size=8),
        every=st.booleans(),
        min_df=st.integers(1, 3),
        query=st.lists(st.sampled_from(TERMS + ["the", "every", "zebra"]), max_size=12),
        k_over=st.integers(0, 12),
    )
    def test_matches_linear_scan(self, docs, every, min_df, query, k_over):
        if every:
            docs = [tokens + ["every"] for tokens in docs]
        index = build_index(docs, min_df=min_df, stopwords=STOP)
        k = k_over % (len(docs) + 4) - 1  # -1 to N + 2
        want = exact(scan_retrieve_indices(index, query, k))
        assert exact(retrieve_indices(index, query, k)) == want
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, tmp)
            loaded = load_index(tmp)
        assert exact(retrieve_indices(loaded, query, k)) == exact(
            scan_retrieve_indices(loaded, query, k)
        )

    def test_tie_hidden_by_rounding_in_query_order(self):
        # Positions 1 and 3 tie exactly for second place, with plain and
        # with compensated float sum() (Python 3.12+) alike, but summed in
        # query order position 3 comes out higher; the tie still goes to
        # position 1. Found by a seeded search (random.Random(68017)) over
        # indexes whose vectors ascend by dimension.
        docs = ["t10 t7 t5 t6 t7 t5 t1 t9", "t10 t4 t9 t0", "t8 t11 t3", "t5 t0 t9 t8 t0"]
        index = build_index([d.split() for d in docs], stopwords=NO_STOP)
        query = "t4 t5 t8 t6 t3 t5 t11 t11 t0".split()
        got = retrieve_indices(index, query, 2)
        assert exact(got) == exact(scan_retrieve_indices(index, query, 2))
        assert [i for i, _ in got] == [2, 1]

    def test_postings_built_on_first_query(self):
        docs = [make_doc("cat dog", "d0"), make_doc("cat fish", "d1")]
        index = build_index(docs, stopwords=NO_STOP)
        assert "postings" not in vars(index)
        retrieve_indices(index, make_doc("cat", "q"))
        postings = index.postings
        assert list(postings.offsets) == [0, 2, 3, 4]  # cat, dog, fish
        assert list(postings.cols) == [0, 1, 0, 1]
        assert list(postings.weights) == [index.vectors[0][0], index.vectors[1][0],
                                          index.vectors[0][1], index.vectors[1][2]]

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.just([0.0, 0.0, 0.0]) | st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
            min_size=1, max_size=5,
        ),
        docs=st.lists(st.lists(st.integers(0, 6), max_size=6), min_size=1, max_size=8),
        query=st.lists(st.integers(0, 6), max_size=6),
        k=st.integers(-1, 10),
    )
    def test_word_vector_index_matches_linear_scan(self, rows, docs, query, k):
        # Words w5 and w6 may have no vector; rows may be zero or negative.
        vectors = {f"w{i}": row for i, row in enumerate(rows)}
        docs = [[f"w{i}" for i in doc] for doc in docs]
        query = [f"w{i}" for i in query]
        index = build_vector_index(docs, vectors, stopwords=NO_STOP)
        # Each stored vector keeps the bits of the same text embedded as a query.
        assert [exact(v.items()) for v in index.vectors] == [
            exact(_query_vector(index, doc).items()) for doc in docs
        ]
        assert exact(retrieve_indices(index, query, k)) == exact(scan_retrieve_indices(index, query, k))

    def test_word_vector_index_builds_no_postings(self):
        vectors = {"cat": [1.0, 0.0], "dog": [-1.0, 0.5]}
        docs = [make_doc("cat", "d0"), make_doc("dog", "d1"), make_doc("fish", "d2")]
        index = build_vector_index(docs, vectors, stopwords=NO_STOP)
        query = make_doc("dog", "q")
        for k in range(-1, 5):
            got = retrieve_indices(index, query, k)
            assert exact(got) == exact(scan_retrieve_indices(index, query, k))
        assert "postings" not in vars(index)


# Texts of one vectors.txt pair. Dimensions are canonical or not (int()
# reads "007", "+3", "3\t", "-0" and "\u0663" too); weights include
# -0.0 and a subnormal. Each bad pair breaks one rule of load_index.
DIM_TEXTS = ["0", "1", "2", "5", "8", "007", "+3", "3\t", "-0", "\u0663"]
WEIGHT_TEXTS = ["0", "1", "0.1", "0.25", "0.5", "0.30000000000000004", "0.6", "0.8", "-0.0", "1e-320"]
BAD_PAIRS = [
    "-1:0.5", "9:0.5", "99:0.5", "x:0.5", ":0.5", "0:nan", "0:inf", "0:1e400", "0:-0.5",
    "0:1.0000000000000002", "0:x", "0:", "0=0.5", "0:1:2",
]
# Ids as save_index writes them (plain and percent-encoded) and as it never
# does: a bad escape, a lone "%" and a raw line separator.
ID_TEXTS = ["d0", "d1", "my%20song", "50%25%09off", "%zz", "%", "a\u2028b", ""]
VOCAB_TERMS = ["cat", "dog", "a%09b", "eel", "t4", "t5", "t6", "t7", "t8"]


@st.composite
def index_files(draw) -> tuple[str, str]:
    """The text of a vocabulary.tsv and a vectors.txt: most are valid or
    break one rule; they hold id-only lines and unsorted dimensions, and
    one file may be cut short."""

    def pair() -> str:
        if draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(BAD_PAIRS))
        return f"{draw(st.sampled_from(DIM_TEXTS))}:{draw(st.sampled_from(WEIGHT_TEXTS))}"

    lines = [
        " ".join([draw(st.sampled_from(ID_TEXTS)), *(pair() for _ in range(draw(st.integers(0, 3))))])
        for _ in range(draw(st.integers(0, 6)))
    ]
    vectors = "".join(line + "\n" for line in lines)
    n_docs = len(vectors.splitlines())
    n_terms = draw(st.sampled_from([len(VOCAB_TERMS), len(VOCAB_TERMS), 0, 1, 4]))
    vocab = [
        [term, str(dim), str(draw(st.integers(1, max(n_docs, 1))))]
        for dim, term in enumerate(VOCAB_TERMS[:n_terms])
    ]
    if vocab and draw(st.integers(0, 4)) == 0:
        # A repeated term, a non-integer dimension, a df above N or of 0.
        field, text = draw(st.sampled_from([(0, "dog"), (1, "x"), (2, str(n_docs + 1)), (2, "0")]))
        draw(st.sampled_from(vocab))[field] = text
    texts = ["".join("\t".join(line) + "\n" for line in vocab), vectors]
    if draw(st.integers(0, 4)) == 0:
        cut = draw(st.integers(0, 1))
        texts[cut] = texts[cut][: -draw(st.integers(1, 7))]
    return texts[0], texts[1]


def load_outcome(loader, dir_path):
    """All a loaded index holds, weights by repr and in order; or the error message."""
    try:
        index = loader(dir_path)
    except ValueError as exc:
        return str(exc)
    return (
        index.doc_ids, index.documents, list(index.vocabulary.items()), list(index.df.items()),
        index.n_docs, [exact(vec.items()) for vec in index.vectors],
    )


class TestPersistence:
    def test_round_trip(self, tmp_path):
        docs = [
            make_doc("cat dog dog", "d0"),
            make_doc("cat fish", "d1"),
            make_doc("bird", "d2"),
        ]
        index = build_index(docs, stopwords=NO_STOP)
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        assert loaded.vocabulary == index.vocabulary
        assert loaded.df == index.df
        assert loaded.doc_ids == index.doc_ids
        for a, b in zip(loaded.vectors, index.vectors):
            assert set(a) == set(b)
            for dim in a:
                assert a[dim] == pytest.approx(b[dim], abs=1e-12)
        query = make_doc("cat fish", "q")
        got = retrieve_indices(loaded, query, k=3)
        want = retrieve_indices(index, query, k=3)
        assert [i for i, _ in got] == [i for i, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a == pytest.approx(b, abs=1e-12)

    def test_files_match_documented_format(self, tmp_path):
        index = build_index([make_doc("cat dog", "d0"), make_doc("cat", "d1")], stopwords=NO_STOP)
        save_index(index, tmp_path / "idx")
        vocab_lines = (tmp_path / "idx" / "vocabulary.tsv").read_text().splitlines()
        assert all(len(line.split("\t")) == 3 for line in vocab_lines)
        vec_lines = (tmp_path / "idx" / "vectors.txt").read_text().splitlines()
        assert vec_lines[0].startswith("d0 ")
        assert all(":" in part for part in vec_lines[0].split()[1:])

    def test_ids_keep_whitespace(self, tmp_path):
        index = build_index([make_doc("cat", "my song"), make_doc("dog", "50%\toff")], stopwords=NO_STOP)
        save_index(index, tmp_path / "idx")
        lines = (tmp_path / "idx" / "vectors.txt").read_text().splitlines()
        assert [line.split(" ")[0] for line in lines] == ["my%20song", "50%25%09off"]
        assert load_index(tmp_path / "idx").doc_ids == ["my song", "50%\toff"]

    @settings(max_examples=100, deadline=None)
    @given(ids=st.lists(st.text(), min_size=2, max_size=4))
    def test_arbitrary_ids_round_trip(self, ids):
        docs = [["cat"] if i % 2 else ["dog", "cat"] for i in range(len(ids))]
        index = replace(build_index(docs, stopwords=NO_STOP), doc_ids=ids)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, tmp)
            loaded = load_index(tmp)
            text = (Path(tmp) / "vectors.txt").read_text(encoding="utf-8")
        assert loaded.doc_ids == ids
        assert loaded.vectors == index.vectors
        for doc_id in ids:
            if not any(ch.isspace() or ch == "%" for ch in doc_id):
                assert doc_id in text

    def test_terms_keep_whitespace(self, tmp_path):
        index = build_index([["a\tb", "x\ny", "c"], ["c", "50%"]], stopwords=NO_STOP)
        save_index(index, tmp_path / "idx")
        lines = (tmp_path / "idx" / "vocabulary.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["50%25", "a%09b", "c", "x%0Ay"]
        loaded = load_index(tmp_path / "idx")
        assert loaded.vocabulary == index.vocabulary
        assert loaded.df == index.df
        assert loaded.vectors == index.vectors

    @settings(max_examples=100, deadline=None)
    @given(terms=st.lists(st.text(), min_size=1, max_size=5, unique=True))
    def test_arbitrary_terms_round_trip(self, terms):
        index = build_index([terms, terms[:1]], stopwords=NO_STOP)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, tmp)
            loaded = load_index(tmp)
            lines = (Path(tmp) / "vocabulary.tsv").read_text(encoding="utf-8").split("\n")
        assert loaded.vocabulary == index.vocabulary
        assert loaded.df == index.df
        assert loaded.vectors == index.vectors
        for term, dim in index.vocabulary.items():
            if not any(ch.isspace() or ch == "%" for ch in term):
                assert lines[dim] == f"{term}\t{dim}\t{index.df[term]}"

    @settings(max_examples=100, deadline=None)
    @given(
        terms=st.lists(st.text(), min_size=1, max_size=5, unique=True),
        picks=st.lists(st.lists(st.integers(0, 4), max_size=6), min_size=1, max_size=4),
        ids=st.lists(st.text(), min_size=4, max_size=4),
    )
    def test_loaded_index_saves_byte_identical_files(self, terms, picks, ids):
        docs = [[terms[i % len(terms)] for i in pick] for pick in picks]
        index = replace(build_index(docs, stopwords=NO_STOP), doc_ids=ids[:len(docs)])
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first"), Path(tmp, "second")
            save_index(index, first)
            save_index(load_index(first), second)
            for name in ("vocabulary.tsv", "vectors.txt"):
                assert (second / name).read_bytes() == (first / name).read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(
        docs=st.lists(
            st.lists(st.sampled_from(TERMS + ["the"]), max_size=40), min_size=1, max_size=12
        ),
        min_df=st.integers(1, 3),
    )
    def test_every_built_index_round_trips(self, docs, min_df):
        # Each saved vector passes load_index's checks, its norm one included.
        index = build_index(docs, min_df=min_df, stopwords=STOP)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, tmp)
            loaded = load_index(tmp)
        assert loaded.vocabulary == index.vocabulary
        assert loaded.df == index.df
        assert loaded.vectors == index.vectors

    @settings(max_examples=300, deadline=None)
    @given(
        docs=st.lists(st.lists(st.sampled_from(WIDE_TERMS), max_size=12), min_size=2, max_size=8),
        query=st.lists(st.sampled_from(WIDE_TERMS), min_size=1, max_size=12),
        k=st.integers(1, 8),
    )
    def test_reloaded_index_retrieves_identically(self, docs, query, k):
        # Similarities agree to the last bit: both indexes hold each vector
        # in ascending dimension order, so every sum runs in the same order.
        index = build_index(docs, stopwords=NO_STOP)
        with tempfile.TemporaryDirectory() as tmp:
            save_index(index, tmp)
            loaded = load_index(tmp)
        assert all(list(v) == sorted(v) for v in index.vectors)
        assert [list(v) for v in loaded.vectors] == [list(v) for v in index.vectors]
        assert exact(retrieve_indices(loaded, query, k)) == exact(
            retrieve_indices(index, query, k)
        )

    def test_index_retains_at_most_24_bytes_per_entry(self, tmp_path):
        # Flat arrays hold 12 bytes per entry and 8 per document; one dict
        # per document held 56 bytes per entry here.
        rng = random.Random(0)
        words = [f"w{i}" for i in range(300)]
        docs = [rng.sample(words, 20) for _ in range(3000)]
        save_index(build_index(docs, stopwords=NO_STOP), tmp_path)
        for make in (lambda: build_index(docs, stopwords=NO_STOP), lambda: load_index(tmp_path)):
            tracemalloc.start()
            try:
                index = make()
                # Free all but the vectors: the vocabulary, df and ids.
                index.vocabulary = index.df = index.doc_ids = index.documents = None
                retained = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert retained <= 24 * len(index.vectors.cols)

    def test_load_never_holds_the_lines_beside_the_index(self, tmp_path):
        # Holding every vectors.txt line until the index is complete peaks
        # above the loaded index by more than the file's size.
        rng = random.Random(0)
        words = [f"w{i}" for i in range(300)]
        docs = [rng.sample(words, 20) for _ in range(3000)]
        save_index(build_index(docs, stopwords=NO_STOP), tmp_path)
        size = (tmp_path / "vectors.txt").stat().st_size
        tracemalloc.start()
        try:
            loaded = load_index(tmp_path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.vectors) == 3000
        assert peak - retained < size / 4

    @pytest.mark.parametrize(
        "vocab, vectors, where",
        [
            (b"cat\t0\t9\n", b"d0 0:1\nd1\n\xff\n", "vectors.txt:3"),  # df above N
            (b"cat\t0\t1\n", b"d0 0:2\nd1\n\xff\n", "vectors.txt:3"),  # weight above 1
            (b"cat\t0\t1\n\xff\n", b"d0 0:\xff\n", "vocabulary.tsv:2"),
        ],
    )
    def test_invalid_utf8_is_reported_first(self, tmp_path, vocab, vectors, where):
        (tmp_path / "vocabulary.tsv").write_bytes(vocab)
        (tmp_path / "vectors.txt").write_bytes(vectors)
        with pytest.raises(ValueError) as info:
            load_index(tmp_path)
        assert str(info.value) == f"{tmp_path}/{where}: invalid UTF-8 byte 0xff (invalid start byte)"

    def test_truncated_files_are_rejected(self, tmp_path):
        docs = [make_doc("cat dog dog", "d0"), make_doc("cat fish", "d1"), make_doc("dog eel", "d2")]
        save_index(build_index(docs, stopwords=NO_STOP), tmp_path)
        # vectors.txt is cut mid-weight, vocabulary.tsv after its last count.
        for name, n_lines, cut in ((VECTORS_FILE, 3, 3), (VOCAB_FILE, 4, 1)):
            path = tmp_path / name
            saved = path.read_bytes()
            assert saved.count(b"\n") == n_lines
            path.write_bytes(saved[:-cut])
            with pytest.raises(ValueError) as info:
                load_index(tmp_path)
            assert str(info.value) == f"{path}:{n_lines}: no final newline (truncated file?)"
            path.write_bytes(saved)
        # A dropped whole line still ends in a newline, so this check passes it.
        vectors = (tmp_path / VECTORS_FILE).read_bytes()
        (tmp_path / VECTORS_FILE).write_bytes(vectors[: vectors.rindex(b"\n", 0, -1) + 1])
        assert load_index(tmp_path).n_docs == 2

    @pytest.mark.parametrize("victim", ["fish", "d1"])
    def test_failed_save_leaves_the_saved_files(self, tmp_path, monkeypatch, victim):
        old = build_index([make_doc("bird", "d0")], stopwords=NO_STOP)
        save_index(old, tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert set(before) == {VOCAB_FILE, VECTORS_FILE}
        escape = selection._escape

        def failing(text):
            # "fish" fails in vocabulary.tsv, "d1" in vectors.txt.
            if text == victim:
                raise OSError("disk full")
            return escape(text)

        monkeypatch.setattr(selection, "_escape", failing)
        new = build_index([make_doc("cat dog", "d0"), make_doc("fish", "d1")], stopwords=NO_STOP)
        with pytest.raises(OSError, match="disk full"):
            save_index(new, tmp_path)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @settings(max_examples=400, deadline=None)
    @given(files=index_files())
    def test_load_matches_reference_loader(self, files):
        vocab, vectors = files
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "vocabulary.tsv").write_text(vocab, encoding="utf-8")
            (Path(tmp) / "vectors.txt").write_text(vectors, encoding="utf-8")
            assert load_outcome(load_index, tmp) == load_outcome(reference_load_index, tmp)

    def test_embedding_index_not_persistable(self, tmp_path):
        vectors = {"cat": [1.0, 0.0], "dog": [0.0, 1.0]}
        index = build_vector_index([make_doc("cat dog", "d0")], vectors, stopwords=NO_STOP)
        with pytest.raises(ValueError):
            save_index(index, tmp_path / "idx")


class TestVectorIndex:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vector_index([], {"cat": [1.0]})

    def test_averaging_and_self_similarity(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 0.0\ndog 0.0 1.0\nfish 1.0 1.0\n")
        word_vectors = load_word_vectors(path)
        docs = [make_doc("cat dog", "d0"), make_doc("fish", "d1"), make_doc("cat", "d2")]
        index = build_vector_index(docs, word_vectors, stopwords=NO_STOP)
        # doc0 mean (0.5, 0.5) and doc1 (1,1) normalize to the same direction
        results = retrieve(index, make_doc("cat dog", "q"), k=3)
        assert results[0][1] == pytest.approx(1.0, abs=1e-9)
        assert results[1][1] == pytest.approx(1.0, abs=1e-9)
        assert results[2][1] == pytest.approx(math.cos(math.pi / 4), abs=1e-9)

    def test_unknown_words_ignored(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("cat 1.0 0.0\n")
        index = build_vector_index(
            [make_doc("cat zebra", "d0")], load_word_vectors(path), stopwords=NO_STOP
        )
        results = retrieve(index, make_doc("cat", "q"))
        assert results[0][1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("magnitude", [1e308, 1e200, 1e-300])
    def test_extreme_magnitudes_keep_cosine(self, magnitude):
        # Unscaled, 1e308 rows overflow to NaN, 1e200 squares to inf and
        # 1e-300 squares to 0, each wiping out the similarity.
        big = [magnitude, magnitude]
        vectors = {"cat": big, "dog": big, "fish": [1.0, 0.0]}
        docs = [make_doc("cat dog", "a"), make_doc("fish", "b")]
        index = build_vector_index(docs, vectors, stopwords=NO_STOP)
        results = retrieve(index, make_doc("cat dog", "q"), k=2)
        assert [doc.id for doc, _ in results] == ["a", "b"]
        assert results[0][1] == pytest.approx(1.0, abs=1e-9)
        assert results[1][1] == pytest.approx(math.cos(math.pi / 4), abs=1e-9)

    @given(
        st.lists(
            st.lists(st.floats(-1e100, 1e100).filter(lambda v: v == 0.0 or abs(v) > 1e-100),
                     min_size=3, max_size=3),
            min_size=1, max_size=5,
        ),
        st.lists(st.integers(0, 5), max_size=8),
    )
    def test_scaling_is_exact(self, rows, picks):
        # Away from overflow and underflow, scaling by a power of two
        # leaves every bit of the normalized mean unchanged.
        vectors = {f"w{i}": row for i, row in enumerate(rows)}
        tokens = [f"w{i}" for i in picks]
        known = [vectors[t] for t in tokens if t in vectors]
        expected = {}
        if known:
            mean = [0, 0, 0]
            for r in known:
                mean = [m + v for m, v in zip(mean, r)]
            mean = [m / len(known) for m in mean]
            expected = _normalize([(d, v) for d, v in enumerate(mean) if v != 0.0])
        assert _normalize(_embed(tokens, vectors, NO_STOP)) == expected
