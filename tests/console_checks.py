#!/usr/bin/env python3
"""Console checks: each row runs one command and checks its exit code and output.

Run every row against an installed console script:

    python tests/console_checks.py verseforge

The arguments are the entry command; ``tests/test_console_checks.py`` runs
the same rows through ``python -m verseforge.cli``. Rows run in order, from
the repository root, in one temporary directory that ``{tmp}`` in an
argument names, so a row can use what an earlier row left there. Each row's
stdout is kept there as ``<name>.stdout``. Exit code 1 means a row failed.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MINI = "tests/data/mini_corpus"
DOC_A = f"{MINI}/doc_a.txt"
LEXICON = "src/verseforge/data/cmudict_sample.txt"


@dataclass(frozen=True)
class Check:
    """One command and what it must do.

    ``argv`` follows the entry command, or this interpreter if ``python`` is
    set. ``files`` are written into the temporary directory first, a name
    holding at most one subdirectory. ``ok`` gets stdout, stderr and the
    temporary directory. ``server`` is a script
    that this interpreter serves on a free port, ``{port}`` in an argument,
    while the row runs.
    """

    name: str
    argv: tuple[str, ...]
    code: int = 0
    ok: Callable[[str, str, Path], bool] = lambda out, err, tmp: True
    files: dict[str, bytes] = field(default_factory=dict)
    python: bool = False
    server: tuple[str, ...] = ()


def stdout_of(tmp: Path, name: str) -> str:
    """The stdout of the earlier row ``name``."""
    return (tmp / f"{name}.stdout").read_bytes().decode("utf-8", "surrogateescape")


def same_tree(a: Path, b: Path) -> bool:
    """Whether two directories hold the same paths and file bytes, as ``diff -r`` sees them."""

    def tree(root: Path) -> dict:
        return {p.relative_to(root): p.is_file() and p.read_bytes() for p in root.rglob("*")}

    return tree(a) == tree(b)


def line_count(n: int) -> Callable[[str, str, Path], bool]:
    """Stdout holds ``n`` lines, as ``wc -l`` counts them."""
    return lambda out, err, tmp: out.count("\n") == n


def demo_report_keys(out: str, err: str, tmp: Path) -> bool:
    [line] = [line for line in out.splitlines() if line.startswith("{")]
    return set(json.loads(line)) == {
        "rd_before", "rd_after", "rep", "overlap_vs_input", "replaced_positions"
    }


BEAM = [
    {"rank": 0, "text": "no pain <nl> no gain"},
    {"rank": 1, "text": "the day <nl> the way"},
    {"rank": 2, "text": "rain\u2028again <nl> <nl> train"},
    {"rank": 3, "text": "\"no pain,\" (no gain)! <nl> rain_drop \u2014 \u0663 [again]; u.s.? <nl> plain train: ..."},
]

CHECKS = [
    Check(
        "import_leaves_requests_unloaded",
        ("-c", "import sys, verseforge.cli; sys.exit('requests' in sys.modules)"),
        python=True,
    ),
    Check("corpus_split", ("corpus", "split", MINI)),
    Check("corpus_stats", ("corpus", "stats", MINI)),
    Check(
        "retrieve_built",
        ("retrieve", "--corpus", MINI, "--query", DOC_A, "--k", "5", "--save-index", "{tmp}/idx"),
    ),
    Check(
        "retrieve_loaded",
        ("retrieve", "--index-dir", "{tmp}/idx", "--query", DOC_A, "--k", "5"),
        ok=lambda out, err, tmp: out == stdout_of(tmp, "retrieve_built"),
    ),
    Check(
        "retrieve_resaved",
        ("retrieve", "--index-dir", "{tmp}/idx", "--query", DOC_A, "--k", "5", "--save-index", "{tmp}/idx2"),
        ok=lambda out, err, tmp: same_tree(tmp / "idx", tmp / "idx2"),
    ),
    Check(
        "retrieve_truncated_index",
        ("retrieve", "--index-dir", "{tmp}/cut", "--query", DOC_A, "--k", "5"),
        code=1,
        # A saved index whose vectors.txt lost its last bytes, mid-weight.
        files={"cut/vocabulary.tsv": b"night\t0\t1\nrain\t1\t2\n",
               "cut/vectors.txt": b"doc_a 0:0.6 1:0.8\ndoc_b 1:0.70710678"},
        ok=lambda out, err, tmp: json.loads(err)
        == {"error": f"{tmp}/cut/vectors.txt:2: no final newline (truncated file?)"},
    ),
    Check(
        "retrieve_vectors",
        ("retrieve", "--corpus", MINI, "--query", DOC_A, "--vectors", "{tmp}/wv.txt", "--k", "3"),
        files={"wv.txt": b"money 1 0\nnight 0.5 1\n"},
        ok=line_count(3),
    ),
    Check(
        "retrieve_k_0",
        ("retrieve", "--corpus", MINI, "--query", DOC_A, "--k", "0"),
        code=1,
        ok=lambda out, err, tmp: json.loads(err) == {"error": "--k must be at least 1, got 0"},
    ),
    Check(
        "retrieve_index_dir_with_corpus",
        ("retrieve", "--index-dir", "{tmp}/idx", "--corpus", MINI, "--query", DOC_A),
        code=1,
        ok=lambda out, err, tmp: json.loads(err)
        == {"error": "--index-dir cannot be combined with --corpus"},
    ),
    Check(
        "retrieve_same_bits",
        ("retrieve", "--corpus", MINI, "--query", f"{MINI}/doc_b.txt", "--k", "1"),
        ok=lambda out, err, tmp: out == '{"id": "doc_b", "similarity": 1.0000000000000004}\n',
    ),
    Check(
        "enhance_port_0",
        ("enhance", DOC_A, "--predictor", "remote", "--endpoint", "http://127.0.0.1:0", "--lexicon", LEXICON),
        code=1,
        # Rejected as configured, not after failed requests to some port.
        ok=lambda out, err, tmp: json.loads(err)
        == {"error": "endpoint must be an http(s) URL with a host, got 'http://127.0.0.1:0'"},
    ),
    Check(
        "pair_reserved_token",
        ("pair", "{tmp}/reserved.txt", "--noise", "none"),
        code=1,
        files={"reserved.txt": b"we ride <nl> at night\nthe day is bright\nwe go slow\nwe hold the flow\n"},
        ok=lambda out, err, tmp: json.loads(err)
        == {"error": f"{tmp}/reserved.txt:1: reserved token '<nl>' in corpus input"},
    ),
    Check(
        "strip_bom_stopwords",
        ("strip", "{tmp}/bom_song.txt", "--stopwords", "{tmp}/bom_stopwords.txt"),
        files={"bom_stopwords.txt": b"\xef\xbb\xbfthe\n", "bom_song.txt": b"the cat sat\n"},
        ok=lambda out, err, tmp: "the" not in json.loads(out)["text"].split(),
    ),
    Check(
        "strip_invalid_utf8",
        ("strip", "{tmp}/bad_utf8.txt"),
        code=1,
        files={"bad_utf8.txt": b"the cat \xff sat\n"},
        ok=lambda out, err, tmp: f"{tmp}/bad_utf8.txt:1:" in err,
    ),
    Check("pipeline_lyrics", ("pipeline", DOC_A, "--kind", "lyrics", "--corpus", MINI, "--lexicon", LEXICON)),
    Check(
        "pipeline_news",
        ("pipeline", "{tmp}/news.txt", "--kind", "news", "--corpus", MINI, "--lexicon", LEXICON),
        files={"news.txt": (
            b"The mayor said 1,000 people came by train in the rain tonight.\n"
            b'Officials in their mid-30s say prices rose 3.14 times; "no pain, no gain" - again!\n'
        )},
        ok=line_count(2),
    ),
    Check(
        "strip_synonym_jobs",
        ("strip", MINI, "--noise", "synonym", "--synonyms", "src/verseforge/data/synonyms_sample.tsv",
         "--seed", "3", "--jobs", "4"),
    ),
    Check("pair_drop", ("pair", MINI, "--noise", "drop", "--seed", "3")),
    Check("analyze", ("analyze", MINI, "--lexicon", LEXICON)),
    Check(
        "rerank",
        ("rerank", "--hypotheses", "{tmp}/beam.jsonl", "--lexicon", LEXICON),
        files={"beam.jsonl": "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in BEAM).encode()},
    ),
    Check("pipeline_demo", ("scripts/pipeline_demo.py",), ok=demo_report_keys, python=True),
    Check(
        "enhance_remote",
        ("enhance", DOC_A, "--predictor", "remote", "--endpoint", "http://127.0.0.1:{port}", "--lexicon", LEXICON),
        server=("scripts/predictor_server.py", "--corpus", MINI, "--port", "{port}"),
    ),
    Check(
        "enhance_corpus",
        ("enhance", DOC_A, "--predictor", "corpus", "--corpus", MINI, "--lexicon", LEXICON),
        ok=lambda out, err, tmp: out == stdout_of(tmp, "enhance_remote"),
    ),
]


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@contextmanager
def _serving(check: Check, tmp: Path):
    """The port that ``check.server`` listens on while the block runs; None without one.

    The server is killed and reaped on the way out.
    """
    if not check.server:
        yield None
        return
    port = _free_port()
    with (tmp / f"{check.name}.server.log").open("wb") as log:
        proc = subprocess.Popen(
            [sys.executable, *_expand(check.server, tmp, port)],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
        )
    try:
        deadline = time.monotonic() + 10
        while proc.poll() is None and time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1).close()
                break
            except OSError:
                time.sleep(0.05)
        yield port
    finally:
        proc.kill()
        proc.wait()


def _expand(argv: tuple[str, ...], tmp: Path, port: int | None) -> list[str]:
    return [arg.replace("{tmp}", str(tmp)).replace("{port}", str(port)) for arg in argv]


def run(entry: list[str], tmp: Path) -> list[str]:
    """Run every check in order in ``tmp``; one line for each that fails."""
    failures = []
    for check in CHECKS:
        for name, data in check.files.items():
            (tmp / name).parent.mkdir(exist_ok=True)
            (tmp / name).write_bytes(data)
        with _serving(check, tmp) as port:
            cmd = [sys.executable] if check.python else list(entry)
            proc = subprocess.run(
                cmd + _expand(check.argv, tmp, port), cwd=ROOT, capture_output=True, timeout=120
            )
        (tmp / f"{check.name}.stdout").write_bytes(proc.stdout)
        out, err = (b.decode("utf-8", "surrogateescape") for b in (proc.stdout, proc.stderr))
        if proc.returncode != check.code:
            failures.append(f"{check.name}: exit {proc.returncode}, expected {check.code}; stderr {err[-500:]!r}")
            continue
        try:
            passed = check.ok(out, err, tmp)
        except Exception as exc:  # a predicate that cannot read the output fails the row
            passed = False
            err += f"\n{type(exc).__name__}: {exc}"
        if not passed:
            failures.append(f"{check.name}: unexpected output; stdout {out[:500]!r}, stderr {err[-500:]!r}")
    return failures


def main(entry: list[str]) -> int:
    if not entry:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        failures = run(entry, Path(tmp))
    print("\n".join(failures + [f"{len(CHECKS) - len(failures)} of {len(CHECKS)} console checks passed"]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
