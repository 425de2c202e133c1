#!/usr/bin/env python3
"""Serve masked-word predictions over HTTP from a corpus-frequency model.

Stands in for a finetuned masked language model so the remote predictor
path can be exercised end to end:

    python3 scripts/predictor_server.py --corpus tests/data/mini_corpus --port 8000
    verseforge enhance song.txt --predictor remote --endpoint http://127.0.0.1:8000

POST /predict with {"tokens": [...], "mask_index": int, "k": int} returns
{"candidates": [{"token": ..., "score": ...}, ...]} sorted by score.
"""

import argparse
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from verseforge.corpus import load_corpus, split_verses
from verseforge.enhance import build_corpus_predictor, PredictorQuery
# Unused here: bench/serve.py and tests/test_remote.py build the predictor
# through this module as build_corpus_predictor(verses, Lexicon()).
from verseforge.phonetics import Lexicon


def make_handler(predictor):
    # The last reply as (result, body). A predictor that returns the same
    # list again (CorpusPredictor shares one immutable list per k) gets the
    # kept body instead of a new encoding; holding the list keeps its id from
    # being reused. The pair is swapped in one assignment, so threads need no
    # lock: each reads one consistent pair.
    last = (object(), b"")

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            nonlocal last
            if self.path.rstrip("/") != "/predict":
                self.send_error(404)
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
                if length < 0:
                    raise ValueError(f"negative Content-Length {length}")
                payload = json.loads(self.rfile.read(length))
                query = PredictorQuery(
                    tuple(payload["tokens"]), payload["mask_index"], payload["k"]
                )
            except (ValueError, KeyError, TypeError) as exc:
                self.send_error(400, str(exc))
                return
            result = predictor.predict(query)
            kept, body = last
            if result is not kept:
                body = json.dumps(
                    {"candidates": [{"token": t, "score": s} for t, s in result.candidates]}
                ).encode()
                last = (result, body)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):
            print(f"{self.address_string()} {fmt % args}", file=sys.stderr)

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True, help="lyrics file or directory")
    parser.add_argument("--min-lines", type=int, default=4)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000)
    args = parser.parse_args()

    verses = []
    for doc in load_corpus(args.corpus, "lyrics"):
        verses.extend(split_verses(doc, args.min_lines))
    if not verses:
        print(f"no verses found in {args.corpus}", file=sys.stderr)
        return 1
    predictor = build_corpus_predictor(verses)
    print(
        f"serving {len(predictor)}-word predictor from {len(verses)} verses "
        f"on http://{args.host}:{args.port}/predict",
        file=sys.stderr,
    )
    server = ThreadingHTTPServer((args.host, args.port), make_handler(predictor))
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
