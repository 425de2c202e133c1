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
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from itertools import chain
from pathlib import Path
from statistics import mean, pstdev
from urllib.parse import urlsplit

from . import corpus as corpus_mod
from .corpus import (
    KINDS, Document, Verse, join_lines, load_corpus, load_document, load_verses, read_text,
)
from .enhance import (
    EnhanceConfig,
    MaskedPredictor,
    RemotePredictor,
    build_corpus_predictor,
    enhance_verse,
    load_deny_list,
    replaced_positions,
)
from .metrics import RhymeConfig, corpus_bleu, repetition_score, rhyme_density, unigram_overlap
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
    NOISE_TYPES,
    ContentWords,
    NoiseConfig,
    SynonymLexicon,
    default_stopwords,
    emit_training_pair,
    load_stopwords,
    strip_corpus,
)

CONFIG_ENV_VAR = "VERSEFORGE_CONFIG"

PREDICTORS = ("corpus", "remote")

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
    seed: int = NoiseConfig.seed
    drop_rate: float = NoiseConfig.drop_rate
    synonym_rate: float = NoiseConfig.synonym_rate
    rhyme: RhymeConfig = field(default_factory=RhymeConfig)
    enhance: EnhanceConfig = field(default_factory=EnhanceConfig)
    predictor: str = "corpus"
    endpoint: str | None = None


def _config_defaults(cls: type) -> dict:
    """The config keys of ``cls``: its fields whose default has a JSON type."""
    keys = {}
    for f in fields(cls):
        default = f.default if f.default is not MISSING else f.default_factory()
        if default is None or is_dataclass(default) or isinstance(default, (int, float, str)):
            keys[f.name] = default
    return keys


def _check_keys(data: dict, cls: type, where: str = "") -> None:
    """Check config keys against the types of ``cls``'s field defaults.

    A ``None`` default takes a string or null, a float also takes an int, a
    bool is never taken as an int, and a nested dataclass takes an object,
    checked the same way. A field with any other default, such as
    ``EnhanceConfig.deny_list``, is not a config key.
    """
    defaults = _config_defaults(cls)
    for key, value in data.items():
        if key not in defaults:
            raise ConfigError(
                f"unknown config key {where}{key!r}; valid keys: "
                + ", ".join(sorted(defaults))
            )
        default = defaults[key]
        if default is None:
            types: tuple = (str, type(None))
        elif is_dataclass(default):
            types = (dict,)
        elif isinstance(default, float):
            types = (int, float)
        else:
            types = (type(default),)
        if type(value) not in types:
            raise ConfigError(f"config key {where}{key!r} has wrong type: {value!r}")
    for key, value in data.items():
        if isinstance(value, dict):
            _check_keys(value, type(defaults[key]), f"{where}{key}.")


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
            data = json.loads(read_text(path))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    _check_keys(data, PipelineConfig)

    defaults = _config_defaults(PipelineConfig)
    merged = dict(data)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if is_dataclass(defaults.get(key)):
            value = {**merged.get(key, {}), **{k: v for k, v in value.items() if v is not None}}
        merged[key] = value
    mode = merged.get("enhance", {}).get("mode")
    if mode in _MODE_ALIASES:
        merged["enhance"] = {**merged["enhance"], "mode": _MODE_ALIASES[mode]}
    try:
        for key, default in defaults.items():
            if key in merged and is_dataclass(default):
                merged[key] = type(default)(**merged[key])
        cfg = PipelineConfig(**merged)
        validate_config(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def validate_config(cfg: PipelineConfig) -> None:
    if cfg.noise not in NOISE_TYPES:
        raise ConfigError(f"unknown noise type {cfg.noise!r}")
    if cfg.predictor not in PREDICTORS:
        raise ConfigError(f"unknown predictor {cfg.predictor!r}")
    if cfg.predictor == "remote" and not cfg.endpoint:
        raise ConfigError("predictor 'remote' requires an endpoint")
    if cfg.predictor == "remote":
        url = urlsplit(cfg.endpoint)  # ValueError on, e.g., an unclosed "[" IPv6 literal
        try:
            port = url.port  # None when the URL names no port
        except ValueError:  # not a number, or beyond 65535
            port = 0
        if url.scheme not in ("http", "https") or not url.hostname or port == 0:
            raise ConfigError(f"endpoint must be an http(s) URL with a host, got {cfg.endpoint!r}")
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.name.endswith("_path") and value is not None and not Path(value).exists():
            raise ConfigError(f"{f.name} does not exist: {value}")


def _flag_config(args, path: str | None = None) -> PipelineConfig:
    """Load ``path`` with each parsed flag overriding the config key it is stored under."""
    flags = vars(args)
    overrides = {
        key: {f.name: flags.get(f.name) for f in fields(default)}
        if is_dataclass(default) else flags.get(key)
        for key, default in _config_defaults(PipelineConfig).items()
    }
    return load_config(path, overrides)


# --- resource loaders, shared by PipelineRuntime and the subcommands ---


def _lexicon(cfg: PipelineConfig) -> Lexicon:
    return load_lexicon(cfg.lexicon_path) if cfg.lexicon_path else Lexicon()


def _stopwords(cfg: PipelineConfig) -> frozenset[str]:
    return load_stopwords(cfg.stopwords_path) if cfg.stopwords_path else default_stopwords()


def _synonyms(cfg: PipelineConfig) -> SynonymLexicon | None:
    return SynonymLexicon.load(cfg.synonyms_path) if cfg.synonyms_path else None


def _deny_list(cfg: PipelineConfig) -> frozenset[str]:
    return load_deny_list(cfg.deny_path) if cfg.deny_path else frozenset()


def _predictor(cfg: PipelineConfig) -> MaskedPredictor:
    if cfg.predictor == "remote":
        return RemotePredictor(cfg.endpoint)
    if not cfg.corpus_path:
        raise ConfigError("predictor 'corpus' requires corpus_path")
    return build_corpus_predictor(load_verses(cfg.corpus_path))


def _strip(
    cfg: PipelineConfig,
    docs: list[Document],
    stopwords: frozenset[str],
    synonyms: SynonymLexicon | None,
) -> list[ContentWords]:
    """Content words of each document, noised as ``cfg`` says."""
    noise_cfg = NoiseConfig(cfg.drop_rate, cfg.synonym_rate, cfg.seed)
    return strip_corpus(docs, stopwords, cfg.noise, noise_cfg, synonyms)


@dataclass
class PipelineRuntime:
    """Config with its referenced resources loaded once."""

    lexicon: Lexicon
    stopwords: frozenset[str]
    synonyms: SynonymLexicon | None
    predictor: MaskedPredictor
    enhance_cfg: EnhanceConfig

    @classmethod
    def from_config(cls, cfg: PipelineConfig) -> "PipelineRuntime":
        lexicon = _lexicon(cfg)
        stopwords = _stopwords(cfg)
        synonyms = _synonyms(cfg)
        enhance_cfg = replace(cfg.enhance, deny_list=_deny_list(cfg))
        predictor = _predictor(cfg)
        return cls(lexicon, stopwords, synonyms, predictor, enhance_cfg)


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
    try:
        [cw] = _strip(cfg, [doc], runtime.stopwords, runtime.synonyms)
    except ValueError as exc:
        raise PipelineError("noise", str(exc)) from exc

    if hypotheses is not None:
        try:
            best = rerank(hypotheses, runtime.lexicon, cfg.rhyme)
        except ValueError as exc:
            raise PipelineError("rerank", str(exc)) from exc
        # Reranking scored the pick with the same lexicon and config.
        selected, rd_before = best.verse, best.scored.rd
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
        "overlap_vs_input": unigram_overlap(
            chain.from_iterable(doc.lines), chain.from_iterable(enhanced.lines)
        ),
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
    """Aggregate reports into a mean ± std table of the four report columns.

    Other keys are ignored. A column with no numeric value in any report
    renders "-".
    """
    if not reports:
        raise ValueError("serve_report requires at least one report")
    cells = []
    for key, label in _REPORT_COLUMNS:
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
    docs = [doc for path in args.paths for doc in load_corpus(path, args.kind)]
    _emit(asdict(corpus_mod.corpus_stats(docs)))


def _cmd_corpus_split(args) -> None:
    for verse in load_verses(args.path, args.min_lines):
        _emit({"doc": verse.source_doc, "text": join_lines(verse.lines)})


def _cmd_strip(args) -> None:
    cfg = _flag_config(args)
    docs = load_corpus(args.path, args.kind)
    for cw in _strip(cfg, docs, _stopwords(cfg), _synonyms(cfg)):
        text = join_lines(cw.lines)
        _emit({"doc": cw.provenance, "noise": cw.noise, "seed": cw.seed, "text": text})


def _cmd_pair(args) -> None:
    cfg = _flag_config(args)
    verses = [
        (f"{doc.id}#v{j}", verse)
        for doc in load_corpus(args.path, "lyrics")
        for j, verse in enumerate(corpus_mod.split_verses(doc, args.min_lines))
    ]
    docs = [Document(id=vid, kind="lyrics", lines=verse.lines, raw="") for vid, verse in verses]
    sources = _strip(cfg, docs, _stopwords(cfg), _synonyms(cfg))
    # Everything that can fail has run, so a bad input leaves --out untouched.
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for cw, (_, verse) in zip(sources, verses):
            emit_training_pair(cw, verse, out)
    finally:
        if out is not sys.stdout:
            out.close()


def _cmd_analyze(args) -> None:
    cfg = _flag_config(args)
    lex = _lexicon(cfg)
    verses = load_verses(args.path, args.min_lines)
    input_tokens = (
        load_document(args.input, "news").all_tokens() if args.input else None
    )
    references = load_verses(args.reference, args.min_lines) if args.reference else None
    if references is not None and len(references) != len(verses):
        raise ValueError(
            f"reference count {len(references)} does not match verse count {len(verses)}"
        )
    for i, verse in enumerate(verses):
        tokens = verse.all_tokens()
        _emit({
            "rd": rhyme_density(verse, lex, cfg.rhyme),
            "rep": repetition_score(verse),
            "overlap": unigram_overlap(input_tokens, tokens) if input_tokens is not None else None,
            "bleu": corpus_bleu([tokens], [references[i].all_tokens()]) if references else None,
        })


def _cmd_enhance(args) -> None:
    cfg = _flag_config(args)
    runtime = PipelineRuntime.from_config(cfg)
    lex = runtime.lexicon
    for verse in load_verses(args.path, args.min_lines):
        enhanced = enhance_verse(verse, runtime.predictor, runtime.enhance_cfg, lex)
        _emit({
            "doc": verse.source_doc,
            "text": join_lines(enhanced.lines),
            "replaced": [list(p) for p in replaced_positions(verse, enhanced)],
            "rd_before": rhyme_density(verse, lex, cfg.rhyme),
            "rd_after": rhyme_density(enhanced, lex, cfg.rhyme),
        })


def _cmd_rerank(args) -> None:
    cfg = _flag_config(args)
    lex = _lexicon(cfg)
    best = rerank(load_hypotheses(args.hypotheses), lex, cfg.rhyme)
    scored = best.scored
    _emit({
        "rank": best.generator_rank,
        "text": join_lines(best.verse.lines),
        "rd": scored.rd, "rep": scored.rep, "score": scored.score,
    })


def _cmd_retrieve(args) -> None:
    if args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    # --corpus and the flags that shape the index built from it; a loaded
    # index would ignore every one of them.
    corpus_flags = [
        flag for flag, value in (
            ("--corpus", args.corpus), ("--vectors", args.vectors),
            ("--split-verses", args.split_verses), ("--kind", args.kind),
        ) if value
    ]
    if args.index_dir:
        if corpus_flags:
            raise ConfigError(f"--index-dir cannot be combined with {', '.join(corpus_flags)}")
        index = load_index(args.index_dir)
    elif args.corpus:
        if args.split_verses and args.kind == "news":
            raise ConfigError("--split-verses reads a lyrics corpus, not --kind news")
        docs = load_verses(args.corpus) if args.split_verses else load_corpus(args.corpus, args.kind or "lyrics")
        if args.vectors:
            index = build_vector_index(docs, load_word_vectors(args.vectors))
        else:
            index = build_index(docs)
    elif corpus_flags:
        raise ConfigError(f"{corpus_flags[0]} requires --corpus")
    else:
        raise ConfigError("retrieve requires --index-dir or --corpus")
    if args.save_index:
        save_index(index, args.save_index)
    query = load_document(args.query, "news")
    for i, sim in retrieve_indices(index, query, args.k):
        _emit({"id": index.doc_ids[i], "similarity": sim})


def _cmd_pipeline(args) -> None:
    cfg = _flag_config(args, args.config or os.environ.get(CONFIG_ENV_VAR) or None)
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

# Flags that set a config key, stored under that key's name. A subcommand
# takes the ones it uses; each defaults to None, so the config decides.
_CONFIG_FLAGS: dict[str, dict] = {
    "--lexicon": {"dest": "lexicon_path", "help": "CMUdict-format pronunciation lexicon"},
    "--stopwords": {"dest": "stopwords_path", "help": "stopword file, one word per line"},
    "--synonyms": {"dest": "synonyms_path", "help": "tab-separated synonym lexicon"},
    "--deny": {"dest": "deny_path", "help": "deny list, one word per line"},
    "--corpus": {"dest": "corpus_path", "help": "lyrics corpus for the corpus predictor"},
    "--noise": {"choices": NOISE_TYPES},
    "--seed": {"type": int},
    "--drop-rate": {"type": float},
    "--synonym-rate": {"type": float},
    "--window": {"dest": "lookback_window", "type": int, "help": "rhyme lookback window"},
    "--k": {"type": int, "help": "predictor candidates per masked word"},
    "--mode": {"choices": _MODE_ALIASES},
    "--predictor": {"choices": PREDICTORS},
    "--endpoint": {"help": "remote predictor base URL"},
}
_NOISE_FLAGS = ("--noise", "--seed", "--stopwords", "--synonyms", "--drop-rate", "--synonym-rate")


def _add_config_flags(p: argparse.ArgumentParser, flags) -> None:
    for flag in flags:
        p.add_argument(flag, **_CONFIG_FLAGS[flag])


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
    p_stats.add_argument("--kind", default="lyrics", choices=KINDS)
    p_stats.set_defaults(func=_cmd_corpus_stats)
    p_split = corpus_sub.add_parser("split", help="split lyrics into verses")
    p_split.add_argument("path")
    p_split.add_argument("--min-lines", type=int, default=4)
    p_split.set_defaults(func=_cmd_corpus_split)

    p_strip = sub.add_parser("strip", help="extract and noise content words")
    p_strip.add_argument("path")
    p_strip.add_argument("--kind", default="lyrics", choices=KINDS)
    _add_config_flags(p_strip, _NOISE_FLAGS)
    p_strip.add_argument(
        "--jobs", type=int, default=1,
        help="accepted and ignored: strip runs serially",
    )
    # strip and pair add no noise unless asked; the config default is shuffle
    p_strip.set_defaults(func=_cmd_strip, noise="none")

    p_pair = sub.add_parser("pair", help="emit (content words, verse) training pairs")
    p_pair.add_argument("path")
    p_pair.add_argument("--min-lines", type=int, default=4)
    _add_config_flags(p_pair, _NOISE_FLAGS)
    p_pair.add_argument("--out", help="output file (default stdout)")
    p_pair.set_defaults(func=_cmd_pair, noise="none")

    p_analyze = sub.add_parser("analyze", help="rhyme/repetition/overlap/BLEU per verse")
    p_analyze.add_argument("path")
    _add_config_flags(p_analyze, ("--lexicon", "--window"))
    p_analyze.add_argument("--min-lines", type=int, default=1)
    p_analyze.add_argument("--input", help="source text for the overlap metric")
    p_analyze.add_argument("--reference", help="reference verses for BLEU")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_enhance = sub.add_parser("enhance", help="rhyme-enhance verses")
    p_enhance.add_argument("path")
    _add_config_flags(p_enhance, ("--lexicon", "--predictor", "--corpus", "--endpoint",
                                  "--k", "--mode", "--deny", "--window"))
    p_enhance.add_argument("--min-lines", type=int, default=1)
    p_enhance.set_defaults(func=_cmd_enhance)

    p_rerank = sub.add_parser("rerank", help="pick the best hypothesis by rd - rep")
    p_rerank.add_argument("--hypotheses", required=True)
    _add_config_flags(p_rerank, ("--lexicon", "--window"))
    p_rerank.set_defaults(func=_cmd_rerank)

    p_retrieve = sub.add_parser("retrieve", help="nearest-neighbor baseline")
    p_retrieve.add_argument("--query", required=True)
    p_retrieve.add_argument("--index-dir", help="persisted index directory")
    p_retrieve.add_argument("--corpus", help="corpus to index ad hoc")
    p_retrieve.add_argument("--kind", choices=KINDS, help="corpus kind (default lyrics)")
    p_retrieve.add_argument("--save-index", help="persist the built or loaded index here")
    p_retrieve.add_argument("--vectors", help="word-vector text file (word v1 ... vd)")
    p_retrieve.add_argument(
        "--split-verses", action="store_true",
        help="index individual verses of a lyrics corpus",
    )
    p_retrieve.add_argument("--k", type=int, default=1)
    p_retrieve.set_defaults(func=_cmd_retrieve)

    p_pipe = sub.add_parser("pipeline", help="strip -> noise -> select -> enhance")
    p_pipe.add_argument("path")
    p_pipe.add_argument("--kind", default="news", choices=KINDS)
    p_pipe.add_argument("--config", help=f"JSON config (default ${CONFIG_ENV_VAR})")
    p_pipe.add_argument("--hypotheses", help="JSON-lines generator batch to rerank")
    _add_config_flags(p_pipe, _CONFIG_FLAGS)
    p_pipe.add_argument("--summary", action="store_true", help="print a mean ± std table to stderr")
    p_pipe.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        # Written inside the try, so a reader that closed early is seen here.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout: not an error to report. Output still
        # buffered goes to the null device, so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
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
