"""Stub predictor server for ``remote_enhance``, and the corpus-predictor check.

    python3 bench/serve.py --corpus LYRICS_DIR --port PORT

Serves ``POST /predict`` with the request handler of
``scripts/predictor_server.py``, over the corpus predictor that script
builds, so the HTTP behaviour measured is the script's own. It differs from
running the script in one way, ``checked_predictor`` below, and prints which
predictor it serves on standard error, the first line of its log.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
from http.server import ThreadingHTTPServer
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "predictor_server.py"
SUBSTITUTED = "substituted score-ordered ranking"
# Candidates the remote_enhance client asks for, and so the top-k checked.
K = 200


def checked_predictor(vf_enhance, vf_corpus, predictor, corpus_dir: Path, k: int):
    """``predictor`` if it accepts its own top-k; else the same ranking in score order.

    At the commit that added the benchmark, ``build_corpus_predictor`` orders
    words by the integer key ``10*final + total``, ties by word, but reports
    the float score ``final + 0.1*total``. For tied keys those floats can
    differ in the last bit (1.2 and 1.2000000000000002), so the list is not
    in descending score order and ``CandidateList`` rejects every query.
    The replacement is the library's own ``CorpusPredictor`` over the same
    words and scores, ordered by descending score, ties by word. Returns the
    predictor and whether it was replaced.
    """
    query = vf_enhance.PredictorQuery((vf_enhance.MASK_TOKEN,), 0, k)
    try:
        predictor.predict(query)
        return predictor, False
    except ValueError:
        pass
    lines = [
        line
        for doc in vf_corpus.load_corpus(corpus_dir, "lyrics")
        for verse in vf_corpus.split_verses(doc)
        for line in verse.lines
    ]
    return vf_enhance.CorpusPredictor(reference.corpus_ranking(lines)), True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, type=Path)
    parser.add_argument("--port", required=True, type=int)
    args = parser.parse_args()

    spec = importlib.util.spec_from_file_location("predictor_server", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)  # puts src/ on sys.path
    from verseforge import corpus, enhance

    verses = [v for doc in script.load_corpus(args.corpus, "lyrics") for v in script.split_verses(doc)]
    predictor = script.build_corpus_predictor(verses, script.Lexicon())
    predictor, substituted = checked_predictor(enhance, corpus, predictor, args.corpus, K)
    print(SUBSTITUTED if substituted else "library corpus predictor", file=sys.stderr, flush=True)
    server = ThreadingHTTPServer(("127.0.0.1", args.port), script.make_handler(predictor))
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
