#!/usr/bin/env python3
"""End-to-end demo: turn a prose snippet into an enhanced verse.

Uses the bundled sample lexicon and the tiny test corpus, so it runs
offline in a fresh checkout:

    python3 scripts/pipeline_demo.py
    python3 scripts/pipeline_demo.py --text "your own headline here" --seed 3
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from verseforge.cli import PipelineRuntime, load_config, run_pipeline, serve_report
from verseforge.corpus import Document, tokenize
from verseforge.enhance import MODES
from verseforge.stripping import NOISE_TYPES

DEFAULT_TEXT = (
    "temperatures dipped fast while the storm crossed the town\n"
    "rescue teams searched the park through the night\n"
    "the river rose over the road by morning\n"
    "people stayed warm inside and waited for the light"
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--text", default=DEFAULT_TEXT)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--noise", default="shuffle", choices=NOISE_TYPES)
    parser.add_argument("--mode", default="first_improvement", choices=MODES)
    args = parser.parse_args()

    cfg = load_config(None, {
        "lexicon_path": str(REPO / "src/verseforge/data/cmudict_sample.txt"),
        "synonyms_path": str(REPO / "src/verseforge/data/synonyms_sample.tsv"),
        "deny_path": str(REPO / "src/verseforge/data/deny_sample.txt"),
        "corpus_path": str(REPO / "tests/data/mini_corpus"),
        "noise": args.noise,
        "seed": args.seed,
        "enhance": {"mode": args.mode, "k": None},
    })
    runtime = PipelineRuntime.from_config(cfg)
    doc = Document(id="demo", kind="news", lines=tokenize(args.text), raw=args.text)
    verse, report = run_pipeline(doc, cfg, runtime=runtime)

    print("input:")
    print(f"  {args.text}")
    print("output verse:")
    for line in verse.lines:
        print(f"  {' '.join(line)}")
    print()
    print(json.dumps(report))
    print()
    print(serve_report([report]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
