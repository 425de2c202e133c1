"""Command-line entry point and pipeline orchestration.

Subcommands mirror the processing steps: corpus stats/split, strip, pair,
analyze, enhance, rerank, retrieve, and the end-to-end pipeline. Machine
output is JSON or JSON-lines on stdout; structured errors go to stderr as
JSON. Everything is deterministic given (inputs, config, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, pstdev

from . import corpus as corpus_mod
from .corpus import Document, Verse, join_lines, load_corpus, load_document
from .enhance import (
    EnhanceConfig,
    MaskedPredictor,
    RemotePredictor,
    build_corpus_predictor,
    enhance_verse,
    load_deny_list,
    replaced_positions,
)
from .metrics import (
    RhymeConfig,
    corpus_bleu,
    repetition_score,
    rhyme_density,
    unigram_overlap,
)
from .phonetics import Lexicon, load_lexicon
from .selection import (
    build_index,
    build_vector_index,
    load_hypotheses,
    load_index,
    load_word_vectors,
    rerank,
    retrieve_indices,
    save_index,
)
from .stripping import (
    NoiseConfig,
    SynonymLexicon,
    apply_noise,
    default_stopwords,
    extract_content_words,
    load_stopwords,
    strip_corpus,
)

CONFIG_ENV_VAR = "VERSEFORGE_CONFIG"

_MODE_ALIASES = {"first": "first_improvement", "best": "best_of_k"}


class ConfigError(ValueError):
    pass


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass
class PipelineConfig:
    lexicon_path: str | None = None
    stopwords_path: str | None = None
    synonyms_path: str | None = None
    deny_path: str | None = None
    corpus_path: str | None = None
    noise: str = "shuffle"
    seed: int = 0
    drop_rate: float = 0.20
    synonym_rate: float = 0.20
    rhyme: RhymeConfig = field(default_factory=RhymeConfig)
    enhance: EnhanceConfig = field(default_factory=EnhanceConfig)
    predictor: str = "corpus"
    endpoint: str | None = None


_PATH_KEYS = ("lexicon_path", "stopwords_path", "synonyms_path", "deny_path", "corpus_path")

_CONFIG_SCHEMA: dict[str, type | tuple] = {
    "lexicon_path": str,
    "stopwords_path": str,
    "synonyms_path": str,
    "deny_path": str,
    "corpus_path": str,
    "noise": str,
    "seed": int,
    "drop_rate": (int, float),
    "synonym_rate": (int, float),
    "rhyme": dict,
    "enhance": dict,
    "predictor": str,
    "endpoint": str,
}
_RHYME_SCHEMA: dict[str, type | tuple] = {"lookback_window": int, "exclude_identical": bool}
_ENHANCE_SCHEMA: dict[str, type | tuple] = {"k": int, "mode": str}


def _check_keys(data: dict, schema: dict, where: str) -> None:
    for key, value in data.items():
        if key not in schema:
            raise ConfigError(
                f"unknown config key {where}{key!r}; valid keys: "
                + ", ".join(sorted(schema))
            )
        expected = schema[key]
        allowed = expected if isinstance(expected, tuple) else (expected,)
        # bool is an int subclass; only accept it where bool is expected.
        if isinstance(value, bool) and bool not in allowed:
            raise ConfigError(f"config key {where}{key!r} has wrong type: {value!r}")
        if not isinstance(value, expected):
            raise ConfigError(f"config key {where}{key!r} has wrong type: {value!r}")


def load_config(
    path: str | Path | None = None, overrides: dict | None = None
) -> PipelineConfig:
    """Build a validated pipeline config from a JSON file plus overrides.

    Flag overrides win over file values; anything still unset takes its
    documented default.
    """
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    _check_keys(data, _CONFIG_SCHEMA, "")
    _check_keys(data.get("rhyme", {}), _RHYME_SCHEMA, "rhyme.")
    _check_keys(data.get("enhance", {}), _ENHANCE_SCHEMA, "enhance.")

    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key in ("rhyme", "enhance"):
            nested = dict(merged.get(key, {}))
            nested.update({k: v for k, v in value.items() if v is not None})
            merged[key] = nested
        else:
            merged[key] = value

    rhyme_kwargs = dict(merged.pop("rhyme", {}))
    enhance_kwargs = dict(merged.pop("enhance", {}))
    if "mode" in enhance_kwargs:
        mode = enhance_kwargs["mode"]
        enhance_kwargs["mode"] = _MODE_ALIASES.get(mode, mode)
    try:
        cfg = PipelineConfig(
            rhyme=RhymeConfig(**rhyme_kwargs),
            enhance=EnhanceConfig(**enhance_kwargs),
            **merged,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    validate_config(cfg)
    return cfg


def validate_config(cfg: PipelineConfig) -> None:
    if cfg.noise not in ("none", "shuffle", "drop", "synonym"):
        raise ConfigError(f"unknown noise type {cfg.noise!r}")
    if cfg.predictor not in ("corpus", "remote"):
        raise ConfigError(f"unknown predictor {cfg.predictor!r}")
    if cfg.predictor == "remote" and not cfg.endpoint:
        raise ConfigError("predictor 'remote' requires an endpoint")
    for key in _PATH_KEYS:
        value = getattr(cfg, key)
        if value is not None and not Path(value).exists():
            raise ConfigError(f"{key} does not exist: {value}")


@dataclass
class PipelineRuntime:
    """Config with its referenced resources loaded once."""

    cfg: PipelineConfig
    lexicon: Lexicon
    stopwords: frozenset[str]
    synonyms: SynonymLexicon | None
    predictor: MaskedPredictor
    enhance_cfg: EnhanceConfig

    @classmethod
    def from_config(cls, cfg: PipelineConfig) -> "PipelineRuntime":
        lexicon = load_lexicon(cfg.lexicon_path) if cfg.lexicon_path else Lexicon()
        stopwords = (
            load_stopwords(cfg.stopwords_path)
            if cfg.stopwords_path
            else default_stopwords()
        )
        synonyms = SynonymLexicon.load(cfg.synonyms_path) if cfg.synonyms_path else None
        deny = load_deny_list(cfg.deny_path) if cfg.deny_path else frozenset()
        enhance_cfg = EnhanceConfig(
            k=cfg.enhance.k, mode=cfg.enhance.mode, deny_list=deny
        )
        predictor: MaskedPredictor
        if cfg.predictor == "remote":
            predictor = RemotePredictor(cfg.endpoint)
        else:
            if not cfg.corpus_path:
                raise ConfigError("predictor 'corpus' requires corpus_path")
            verses = _corpus_verses(cfg.corpus_path)
            predictor = build_corpus_predictor(verses, lexicon)
        return cls(cfg, lexicon, stopwords, synonyms, predictor, enhance_cfg)


def _corpus_verses(path: str, min_lines: int = 4) -> list[Verse]:
    verses: list[Verse] = []
    for doc in load_corpus(path, "lyrics"):
        verses.extend(corpus_mod.split_verses(doc, min_lines))
    if not verses:
        raise ConfigError(f"no verses of >= {min_lines} lines found in {path}")
    return verses


def run_pipeline(
    doc: Document,
    cfg: PipelineConfig,
    hypotheses=None,
    runtime: PipelineRuntime | None = None,
) -> tuple[Verse, dict]:
    """Strip, noise, select a hypothesis, enhance, and report.

    Without an external hypothesis batch, the noised content words pass
    through as a single trivial hypothesis so the pipeline still runs end
    to end.
    """
    if runtime is None:
        runtime = PipelineRuntime.from_config(cfg)

    if not doc.lines:
        raise PipelineError("strip", "empty input")
    cw = extract_content_words(doc, runtime.stopwords)

    try:
        noise_cfg = NoiseConfig(cfg.drop_rate, cfg.synonym_rate, cfg.seed)
        cw = apply_noise(cw, cfg.noise, noise_cfg, runtime.synonyms)
    except ValueError as exc:
        raise PipelineError("noise", str(exc)) from exc

    if hypotheses:
        best = rerank(hypotheses, runtime.lexicon, cfg.rhyme)
        selected = best.verse
    else:
        selected = Verse([list(line) for line in cw.lines if line], doc.id)
        if not selected.lines:
            raise PipelineError("rerank", "no content words to form a hypothesis")

    rd_before = rhyme_density(selected, runtime.lexicon, cfg.rhyme)
    try:
        enhanced = enhance_verse(selected, runtime.predictor, runtime.enhance_cfg, runtime.lexicon)
    except (ValueError, RuntimeError) as exc:
        raise PipelineError("enhance", str(exc)) from exc

    report = {
        "rd_before": rd_before,
        "rd_after": rhyme_density(enhanced, runtime.lexicon, cfg.rhyme),
        "rep": repetition_score(enhanced),
        "overlap_vs_input": unigram_overlap(doc.all_tokens(), enhanced.all_tokens()),
        "replaced_positions": [list(p) for p in replaced_positions(selected, enhanced)],
    }
    return enhanced, report


_REPORT_COLUMNS = (
    ("overlap_vs_input", "Overlap"),
    ("rd_before", "RD before"),
    ("rd_after", "RD after"),
    ("rep", "Rep"),
)


def serve_report(reports: list[dict]) -> str:
    """Aggregate reports into a mean ± std summary table.

    Columns with no numeric values in any report render "-".
    """
    if not reports:
        raise ValueError("serve_report requires at least one report")
    known = [k for k, _ in _REPORT_COLUMNS]
    extra = sorted(
        {
            k
            for r in reports
            for k, v in r.items()
            if k not in known and isinstance(v, (int, float)) and not isinstance(v, bool)
        }
    )
    columns = [(k, label) for k, label in _REPORT_COLUMNS] + [(k, k) for k in extra]
    cells = []
    for key, label in columns:
        values = [
            float(r[key])
            for r in reports
            if isinstance(r.get(key), (int, float)) and not isinstance(r.get(key), bool)
        ]
        if values:
            cells.append((label, f"{mean(values):.2f} ± {pstdev(values):.2f}"))
        else:
            cells.append((label, "-"))
    widths = [max(len(label), len(value)) for label, value in cells]
    header = "  ".join(label.ljust(w) for (label, _), w in zip(cells, widths))
    row = "  ".join(value.ljust(w) for (_, value), w in zip(cells, widths))
    return header.rstrip() + "\n" + row.rstrip()


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


# --- subcommand handlers ---


def _cmd_corpus_stats(args) -> None:
    docs = []
    for path in args.paths:
        docs.extend(load_corpus(path, args.kind))
    stats = corpus_mod.corpus_stats(docs)
    _emit(stats.as_dict())


def _cmd_corpus_split(args) -> None:
    for doc in load_corpus(args.path, "lyrics"):
        for verse in corpus_mod.split_verses(doc, args.min_lines):
            _emit({"doc": verse.source_doc, "text": join_lines(verse.lines)})


def _load_synonyms(args) -> SynonymLexicon | None:
    return SynonymLexicon.load(args.synonyms) if args.synonyms else None


def _load_stop(args) -> frozenset[str]:
    return load_stopwords(args.stopwords) if args.stopwords else default_stopwords()


def _cmd_strip(args) -> None:
    docs = load_corpus(args.path, args.kind)
    results = strip_corpus(
        docs,
        _load_stop(args),
        noise=args.noise,
        cfg=NoiseConfig(args.drop_rate, args.synonym_rate, args.seed),
        synonyms=_load_synonyms(args),
        workers=args.jobs,
    )
    for cw in results:
        _emit(
            {
                "doc": cw.provenance,
                "noise": cw.noise,
                "seed": cw.seed,
                "text": join_lines(cw.as_line_lists()),
            }
        )


def _cmd_pair(args) -> None:
    stopwords = _load_stop(args)
    synonyms = _load_synonyms(args)
    noise_cfg = NoiseConfig(args.drop_rate, args.synonym_rate, args.seed)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for doc in load_corpus(args.path, "lyrics"):
            for j, verse in enumerate(corpus_mod.split_verses(doc, args.min_lines)):
                pseudo = Document(
                    id=f"{doc.id}#v{j}", kind="lyrics", lines=verse.lines, raw=""
                )
                cw = extract_content_words(pseudo, stopwords)
                cw = apply_noise(cw, args.noise, noise_cfg, synonyms)
                record = {
                    "source": join_lines(cw.as_line_lists()),
                    "target": join_lines(verse.lines),
                }
                out.write(json.dumps(record) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _analysis_verses(path: str, min_lines: int) -> list[Verse]:
    verses = []
    for doc in load_corpus(path, "lyrics"):
        verses.extend(corpus_mod.split_verses(doc, min_lines))
    return verses


def _cmd_analyze(args) -> None:
    lex = load_lexicon(args.lexicon) if args.lexicon else Lexicon()
    cfg = RhymeConfig(lookback_window=args.window)
    verses = _analysis_verses(args.path, args.min_lines)
    input_tokens = (
        load_document(args.input, "news").all_tokens() if args.input else None
    )
    references = (
        _analysis_verses(args.reference, args.min_lines) if args.reference else None
    )
    if references is not None and len(references) != len(verses):
        raise ValueError(
            f"reference count {len(references)} does not match verse count {len(verses)}"
        )
    for i, verse in enumerate(verses):
        record = {
            "rd": rhyme_density(verse, lex, cfg),
            "rep": repetition_score(verse),
            "overlap": (
                unigram_overlap(input_tokens, verse.all_tokens())
                if input_tokens is not None
                else None
            ),
            "bleu": (
                corpus_bleu([verse.all_tokens()], [references[i].all_tokens()])
                if references is not None
                else None
            ),
        }
        _emit(record)


def _make_predictor(args, lex: Lexicon) -> MaskedPredictor:
    if args.predictor == "remote":
        if not args.endpoint:
            raise ConfigError("predictor 'remote' requires --endpoint")
        return RemotePredictor(args.endpoint)
    if not args.corpus:
        raise ConfigError("predictor 'corpus' requires --corpus")
    return build_corpus_predictor(_corpus_verses(args.corpus), lex)


def _cmd_enhance(args) -> None:
    lex = load_lexicon(args.lexicon) if args.lexicon else Lexicon()
    deny = load_deny_list(args.deny) if args.deny else frozenset()
    cfg = EnhanceConfig(
        k=args.k, mode=_MODE_ALIASES.get(args.mode, args.mode), deny_list=deny
    )
    rhyme = RhymeConfig(lookback_window=args.window)
    predictor = _make_predictor(args, lex)
    for verse in _analysis_verses(args.path, args.min_lines):
        enhanced = enhance_verse(verse, predictor, cfg, lex)
        _emit(
            {
                "doc": verse.source_doc,
                "text": join_lines(enhanced.lines),
                "replaced": [list(p) for p in replaced_positions(verse, enhanced)],
                "rd_before": rhyme_density(verse, lex, rhyme),
                "rd_after": rhyme_density(enhanced, lex, rhyme),
            }
        )


def _cmd_rerank(args) -> None:
    lex = load_lexicon(args.lexicon) if args.lexicon else Lexicon()
    hyps = load_hypotheses(args.hypotheses)
    best = rerank(hyps, lex, RhymeConfig(lookback_window=args.window))
    _emit(
        {
            "rank": best.generator_rank,
            "text": join_lines(best.verse.lines),
            "rd": best.scored.rd,
            "rep": best.scored.rep,
            "score": best.scored.score,
        }
    )


def _cmd_retrieve(args) -> None:
    if args.index_dir:
        index = load_index(args.index_dir)
    elif args.corpus:
        if args.split_verses:
            docs: list = _corpus_verses(args.corpus)
        else:
            docs = load_corpus(args.corpus, args.kind)
        if args.vectors:
            index = build_vector_index(docs, load_word_vectors(args.vectors))
        else:
            index = build_index(docs)
        if args.save_index:
            save_index(index, args.save_index)
    else:
        raise ConfigError("retrieve requires --index-dir or --corpus")
    query = load_document(args.query, "news")
    for i, sim in retrieve_indices(index, query, args.k):
        _emit({"id": index.doc_ids[i], "similarity": sim})


def _cmd_pipeline(args) -> None:
    overrides = {
        "lexicon_path": args.lexicon,
        "stopwords_path": args.stopwords,
        "synonyms_path": args.synonyms,
        "deny_path": args.deny,
        "corpus_path": args.corpus,
        "noise": args.noise,
        "seed": args.seed,
        "drop_rate": args.drop_rate,
        "synonym_rate": args.synonym_rate,
        "predictor": args.predictor,
        "endpoint": args.endpoint,
        "rhyme": {"lookback_window": args.window},
        "enhance": {
            "k": args.k,
            "mode": _MODE_ALIASES.get(args.mode, args.mode) if args.mode else None,
        },
    }
    config_path = args.config or os.environ.get(CONFIG_ENV_VAR) or None
    cfg = load_config(config_path, overrides)
    runtime = PipelineRuntime.from_config(cfg)

    docs = load_corpus(args.path, args.kind)
    hypotheses = None
    if args.hypotheses:
        if len(docs) != 1:
            raise ConfigError("--hypotheses requires exactly one input document")
        hypotheses = load_hypotheses(args.hypotheses)

    reports = []
    for doc in docs:
        verse, report = run_pipeline(doc, cfg, hypotheses, runtime)
        reports.append(report)
        _emit({"doc": doc.id, "text": join_lines(verse.lines), **report})
    if args.summary:
        print(serve_report(reports), file=sys.stderr)


# --- parser wiring ---


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise", default="none", choices=["none", "shuffle", "drop", "synonym"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stopwords", help="stopword file, one word per line")
    p.add_argument("--synonyms", help="tab-separated synonym lexicon")
    p.add_argument("--drop-rate", type=float, default=0.20)
    p.add_argument("--synonym-rate", type=float, default=0.20)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verseforge",
        description="Deterministic toolkit for conditional rap-verse generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser("corpus", help="corpus statistics and verse splitting")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    p_stats = corpus_sub.add_parser("stats", help="per-corpus size statistics")
    p_stats.add_argument("paths", nargs="+")
    p_stats.add_argument("--kind", default="lyrics", choices=["lyrics", "news", "movies"])
    p_stats.set_defaults(func=_cmd_corpus_stats)
    p_split = corpus_sub.add_parser("split", help="split lyrics into verses")
    p_split.add_argument("path")
    p_split.add_argument("--min-lines", type=int, default=4)
    p_split.set_defaults(func=_cmd_corpus_split)

    p_strip = sub.add_parser("strip", help="extract and noise content words")
    p_strip.add_argument("path")
    p_strip.add_argument("--kind", default="lyrics", choices=["lyrics", "news", "movies"])
    _add_noise_flags(p_strip)
    p_strip.add_argument("--jobs", type=int, default=1)
    p_strip.set_defaults(func=_cmd_strip)

    p_pair = sub.add_parser("pair", help="emit (content words, verse) training pairs")
    p_pair.add_argument("path")
    p_pair.add_argument("--min-lines", type=int, default=4)
    _add_noise_flags(p_pair)
    p_pair.add_argument("--out", help="output file (default stdout)")
    p_pair.set_defaults(func=_cmd_pair)

    p_analyze = sub.add_parser("analyze", help="rhyme/repetition/overlap/BLEU per verse")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--lexicon", help="CMUdict-format pronunciation lexicon")
    p_analyze.add_argument("--window", type=int, default=15)
    p_analyze.add_argument("--min-lines", type=int, default=1)
    p_analyze.add_argument("--input", help="source text for the overlap metric")
    p_analyze.add_argument("--reference", help="reference verses for BLEU")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_enhance = sub.add_parser("enhance", help="rhyme-enhance verses")
    p_enhance.add_argument("path")
    p_enhance.add_argument("--lexicon")
    p_enhance.add_argument("--predictor", default="corpus", choices=["corpus", "remote"])
    p_enhance.add_argument("--corpus", help="lyrics corpus for the corpus predictor")
    p_enhance.add_argument("--endpoint", help="remote predictor base URL")
    p_enhance.add_argument("--k", type=int, default=200)
    p_enhance.add_argument("--mode", default="first", choices=["first", "best"])
    p_enhance.add_argument("--deny", help="deny list, one word per line")
    p_enhance.add_argument("--min-lines", type=int, default=1)
    p_enhance.add_argument("--window", type=int, default=15)
    p_enhance.set_defaults(func=_cmd_enhance)

    p_rerank = sub.add_parser("rerank", help="pick the best hypothesis by rd - rep")
    p_rerank.add_argument("--hypotheses", required=True)
    p_rerank.add_argument("--lexicon")
    p_rerank.add_argument("--window", type=int, default=15)
    p_rerank.set_defaults(func=_cmd_rerank)

    p_retrieve = sub.add_parser("retrieve", help="nearest-neighbor baseline")
    p_retrieve.add_argument("--query", required=True)
    p_retrieve.add_argument("--index-dir", help="persisted index directory")
    p_retrieve.add_argument("--corpus", help="corpus to index ad hoc")
    p_retrieve.add_argument("--kind", default="lyrics", choices=["lyrics", "news", "movies"])
    p_retrieve.add_argument("--save-index", help="persist the ad hoc index here")
    p_retrieve.add_argument("--vectors", help="word-vector text file (word v1 ... vd)")
    p_retrieve.add_argument(
        "--split-verses", action="store_true",
        help="index individual verses of a lyrics corpus",
    )
    p_retrieve.add_argument("--k", type=int, default=1)
    p_retrieve.set_defaults(func=_cmd_retrieve)

    p_pipe = sub.add_parser("pipeline", help="strip -> noise -> select -> enhance")
    p_pipe.add_argument("path")
    p_pipe.add_argument("--kind", default="news", choices=["lyrics", "news", "movies"])
    p_pipe.add_argument("--config", help=f"JSON config (default ${CONFIG_ENV_VAR})")
    p_pipe.add_argument("--hypotheses", help="JSON-lines generator batch to rerank")
    p_pipe.add_argument("--lexicon")
    p_pipe.add_argument("--stopwords")
    p_pipe.add_argument("--synonyms")
    p_pipe.add_argument("--deny")
    p_pipe.add_argument("--corpus")
    p_pipe.add_argument("--noise", choices=["none", "shuffle", "drop", "synonym"])
    p_pipe.add_argument("--seed", type=int)
    p_pipe.add_argument("--drop-rate", type=float)
    p_pipe.add_argument("--synonym-rate", type=float)
    p_pipe.add_argument("--window", type=int)
    p_pipe.add_argument("--k", type=int)
    p_pipe.add_argument("--mode", choices=["first", "best"])
    p_pipe.add_argument("--predictor", choices=["corpus", "remote"])
    p_pipe.add_argument("--endpoint")
    p_pipe.add_argument("--summary", action="store_true", help="print a mean ± std table to stderr")
    p_pipe.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        payload: dict = {"error": str(exc)}
        stage = getattr(exc, "stage", None)
        if stage:
            payload["stage"] = stage
        print(json.dumps(payload), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
