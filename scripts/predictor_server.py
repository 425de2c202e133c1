#!/usr/bin/env python3
"""Run ``python -m verseforge.server`` from a checkout, with that module's flags."""

import importlib.util
import sys
from pathlib import Path

if importlib.util.find_spec("verseforge") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from verseforge.server import main, make_handler
# Read by bench/serve.py; the benchmark change of ROADMAP direction 16 deletes them.
from verseforge import Lexicon, build_corpus_predictor, load_corpus, split_verses

if __name__ == "__main__":
    sys.exit(main())
