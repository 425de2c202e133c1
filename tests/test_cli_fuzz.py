"""Arbitrary input files through ``cli.main``: a run exits 0 with JSON-lines
output, or 1 with one JSON error object on stderr; no exception escapes."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from verseforge.cli import main
from verseforge.corpus import load_corpus
from verseforge.selection import VECTORS_FILE, VOCAB_FILE, build_index, save_index

from conftest import DATA_DIR, PKG_DATA_DIR

MINI = DATA_DIR / "mini_corpus"
LEXICON = PKG_DATA_DIR / "cmudict_sample.txt"
SYNONYMS = PKG_DATA_DIR / "synonyms_sample.tsv"
# Content words of the query, doc_d, so every fuzzed vector row counts.
WORDS = ["rain", "window", "pane", "pain", "game", "name", "flame", "train"]
# Lyrics words, with the reserved tokens of the flat format (one upper-cased).
LYRICS_WORDS = WORDS + ["<nl>", "<NL>", "<mask>", "the", "a"]

# Each fuzzed file, with the argv of a command that reads it from ``f``.
COMMANDS = {
    "hypotheses": lambda f: ["rerank", "--hypotheses", f, "--lexicon", LEXICON],
    # --predictor wins over the config, so no fuzzed config reaches the network.
    "config": lambda f: ["pipeline", MINI / "doc_a.txt", "--kind", "lyrics", "--config", f,
                         "--corpus", MINI, "--predictor", "corpus"],
    "lexicon": lambda f: ["analyze", MINI / "doc_a.txt", "--lexicon", f],
    "synonyms": lambda f: ["strip", MINI / "doc_a.txt", "--noise", "synonym",
                           "--synonym-rate", "1", "--synonyms", f],
    "deny": lambda f: ["enhance", MINI / "doc_d.txt", "--corpus", MINI, "--lexicon", LEXICON,
                       "--deny", f],
    "lyrics": lambda f: ["pair", f, "--min-lines", "1", "--noise", "shuffle"],
    "verses": lambda f: ["enhance", f, "--corpus", MINI, "--lexicon", LEXICON],
    "vectors": lambda f: ["retrieve", "--query", MINI / "doc_d.txt", "--corpus", MINI,
                          "--vectors", f, "--k", "3"],
    VOCAB_FILE: lambda f: ["retrieve", "--query", MINI / "doc_d.txt", "--index-dir", f.parent,
                           "--k", "3"],
    VECTORS_FILE: lambda f: ["retrieve", "--query", MINI / "doc_d.txt", "--index-dir", f.parent,
                             "--k", "3"],
}

_CHARS = st.characters(blacklist_categories=("Cs",))
_TEXT = st.text(_CHARS, max_size=200)
# Finite floats, with magnitudes whose sums or squares overflow or underflow.
_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([1e308, -1e308, 1e200, 1e-300, 5e-324]))
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(_CHARS, max_size=8)
)
_CONFIG_KEYS = ["lexicon_path", "stopwords_path", "synonyms_path", "deny_path", "corpus_path",
                "noise", "seed", "drop_rate", "synonym_rate", "predictor", "endpoint"]
_NESTED = {"rhyme": ["lookback_window", "exclude_identical"], "enhance": ["k", "mode"]}


def _lines(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _structured(slot: str):
    """Files that pass the outer parsing, so the checks behind it run."""
    if slot == "hypotheses":
        record = st.fixed_dictionaries({"rank": st.one_of(st.integers(), _JSON_SCALAR),
                                        "text": st.one_of(_TEXT, _JSON_SCALAR)})
        return st.lists(record, max_size=4).map(
            lambda rs: "".join(json.dumps(r) + "\n" for r in rs))
    if slot == "config":
        value = st.one_of(_JSON_SCALAR, st.sampled_from([str(MINI), str(LEXICON), "best", "drop"]))
        top = st.dictionaries(st.sampled_from(_CONFIG_KEYS), value)
        nested = st.fixed_dictionaries({}, optional={
            key: st.dictionaries(st.sampled_from(names), value) for key, names in _NESTED.items()
        })
        return st.tuples(top, nested).map(lambda p: json.dumps({**p[0], **p[1]}))
    if slot in ("lyrics", "verses"):
        line = st.lists(st.sampled_from(LYRICS_WORDS), min_size=1, max_size=6).map(" ".join)
        return st.lists(st.one_of(line, st.just("")), max_size=8).map(
            lambda lines: "".join(line + "\n" for line in lines))
    if slot == "vectors":
        dim = st.integers(1, 3)
        return dim.flatmap(lambda n: st.lists(
            st.tuples(st.sampled_from(WORDS), *[_FLOAT] * n), min_size=1, max_size=8
        )).map(_lines)
    if slot == VECTORS_FILE:
        pair = st.tuples(st.integers(-1, 60), _FLOAT).map(lambda p: f"{p[0]}:{p[1]!r}")
        return st.lists(st.tuples(st.sampled_from(["d0", "doc_a", "x%20y"]),
                                  *[pair] * 3), min_size=1, max_size=5).map(_lines)
    return st.nothing()


@pytest.fixture(scope="module")
def index_text(tmp_path_factory) -> dict:
    """The text of each file of a valid saved index of the mini corpus."""
    path = tmp_path_factory.mktemp("index")
    save_index(build_index(load_corpus(MINI, "lyrics")), path)
    return {name: (path / name).read_text(encoding="utf-8") for name in (VOCAB_FILE, VECTORS_FILE)}


def _valid(slot: str, index_text: dict) -> str:
    """A well-formed file for ``slot``, to append arbitrary text to."""
    return {
        "hypotheses": '{"rank": 0, "text": "go slow flow"}\n',
        "config": "{}",
        "lexicon": LEXICON.read_text(encoding="utf-8"),
        "synonyms": SYNONYMS.read_text(encoding="utf-8"),
        "deny": "pain\nrain\n",
        "lyrics": (MINI / "doc_a.txt").read_text(encoding="utf-8"),
        "verses": (MINI / "doc_d.txt").read_text(encoding="utf-8"),
        "vectors": "rain 1.0 0.0\npain 0.0 1.0\n",
    }.get(slot) or index_text[slot]


def _no_constants(name: str):
    raise ValueError(f"{name} is not JSON")


def _run(slot: str, content: bytes, index_text: dict) -> list[dict]:
    """Run the command that reads ``content`` as ``slot``; check its output.

    Returns the stdout records.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in index_text.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        path = Path(tmp) / (slot if slot in index_text else "input")
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in COMMANDS[slot](path)])
    assert code in (0, 1)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1
        assert isinstance(json.loads(err.getvalue())["error"], str)
    return [json.loads(line, parse_constant=_no_constants) for line in out.getvalue().splitlines()]


@pytest.mark.parametrize("slot", list(COMMANDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fuzzed_file_gives_json_or_json_error(slot, index_text, data):
    valid = _valid(slot, index_text)
    content = data.draw(st.one_of(
        st.binary(max_size=200),
        _TEXT.map(lambda t: t.encode("utf-8")),
        _TEXT.map(lambda t: (valid + t).encode("utf-8")),
        _structured(slot).map(lambda t: t.encode("utf-8")),
    ))
    _run(slot, content, index_text)


@settings(max_examples=60, deadline=None)
@given(_structured("vectors"))
def test_finite_word_vectors_give_cosines(index_text, rows):
    # Rows of any finite magnitude embed to unit vectors, so every
    # similarity is a cosine.
    for record in _run("vectors", rows.encode("utf-8"), index_text):
        assert -1.0 - 1e-9 <= record["similarity"] <= 1.0 + 1e-9
