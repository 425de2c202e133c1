"""Invariants across commands, over generated small inputs run in-process
through ``cli.main``: where README documents two commands as the same
computation, their outputs agree."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verseforge.cli import main
from verseforge.corpus import split_flat

from conftest import DATA_DIR, FILTER_TOKENS, PKG_DATA_DIR

MINI = DATA_DIR / "mini_corpus"
LEXICON = PKG_DATA_DIR / "cmudict_sample.txt"

# Mini-corpus words that rhyme with one another, so enhancement has work.
CONTENT = ["rain", "pain", "game", "name", "flame", "train", "night", "light", "shine",
           "grind", "money", "tonight", "flow", "slow", "gold", "soul"]
# The filter tokens, plus words that tokenize splits punctuation from.
NOISE = FILTER_TOKENS + ["Rain,", "(night)", '"gain"', "train.", "u.s.?", "4%"]
_LINE = st.tuples(
    st.lists(st.sampled_from(CONTENT + NOISE), max_size=6),
    st.sampled_from(CONTENT),
    st.lists(st.sampled_from(CONTENT + NOISE), max_size=6),
).map(lambda t: " ".join(t[0] + [t[1]] + t[2]))


def run_main(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def only_record(*argv) -> dict:
    code, out, err = run_main(*argv)
    assert code == 0, err
    [line] = out.splitlines()
    return json.loads(line)


def write_lines(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def flat_to_lyrics(path: Path, text: str) -> Path:
    """The non-empty lines of a flat ``text`` field, as a one-verse lyrics file."""
    return write_lines(path, (" ".join(line) for line in split_flat(text)))


# A news document is one line; a lyrics document is a song, here one verse.
@pytest.mark.parametrize("kind, max_lines", [("news", 1), ("lyrics", 6)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pipeline_record_equals_the_separate_commands(kind, max_lines, data):
    lines = data.draw(st.lists(_LINE, min_size=1, max_size=max_lines))
    seed = data.draw(st.integers(0, 50))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc = write_lines(tmp / "doc.txt", lines)
        resources = ("--corpus", MINI, "--lexicon", LEXICON)
        piped = only_record("pipeline", doc, "--kind", kind, "--seed", seed, *resources)
        stripped = only_record("strip", doc, "--kind", kind, "--noise", "shuffle", "--seed", seed)
        enhanced = only_record("enhance", flat_to_lyrics(tmp / "stripped.txt", stripped["text"]),
                               *resources)
        analyzed = only_record("analyze", flat_to_lyrics(tmp / "enhanced.txt", enhanced["text"]),
                               "--input", doc, "--lexicon", LEXICON)
    assert piped["doc"] == stripped["doc"]
    assert (piped["text"], piped["rd_before"], piped["rd_after"], piped["replaced_positions"]) == (
        enhanced["text"], enhanced["rd_before"], enhanced["rd_after"], enhanced["replaced"]
    )
    assert (piped["rep"], piped["overlap_vs_input"]) == (analyzed["rep"], analyzed["overlap"])


# Terms that the vocabulary file percent-encodes or that tokenize splits.
_TERMS = ["rain", "pain", "night", "light", "gold", "the", "a", "4", "100%", "a%20b", "naïve",
          "٣", "can't", "(night)", "..."]
_DOC = st.lists(st.sampled_from(_TERMS), min_size=1, max_size=8).map(" ".join)


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(_DOC, min_size=1, max_size=6),
    query=_DOC,
    k=st.integers(1, 8),
    kind=st.sampled_from(["lyrics", "news"]),
)
def test_built_and_loaded_index_print_the_same(docs, query, k, kind):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if kind == "news":
            corpus = write_lines(tmp / "news.txt", docs)
        else:
            corpus = tmp / "corpus"
            corpus.mkdir()
            for i, doc in enumerate(docs):
                write_lines(corpus / f"doc_{i}.txt", [doc])
        query_file = write_lines(tmp / "query.txt", [query])
        argv = ("retrieve", "--query", query_file, "--k", k)
        code, built, err = run_main(*argv, "--corpus", corpus, "--kind", kind,
                                    "--save-index", tmp / "idx")
        assert code == 0, err
        code, loaded, err = run_main(*argv, "--index-dir", tmp / "idx")
        assert code == 0, err
    assert len(built.splitlines()) == min(k, len(docs))
    assert loaded == built
