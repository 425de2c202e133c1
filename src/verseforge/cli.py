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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from statistics import mean, pstdev
from urllib.parse import urlsplit

from . import corpus as corpus_mod
from .corpus import KINDS, Document, Verse, join_lines, load_corpus, load_document
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
    NoiseConfig,
    SynonymLexicon,
    apply_noise,
    default_stopwords,
    emit_training_pair,
    extract_content_words,
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
    seed: int = 0
    drop_rate: float = 0.20
    synonym_rate: float = 0.20
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
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    _check_keys(data, PipelineConfig)

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
        if url.scheme not in ("http", "https") or not url.hostname:
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


def _predictor(cfg: PipelineConfig, lexicon: Lexicon) -> MaskedPredictor:
    if cfg.predictor == "remote":
        return RemotePredictor(cfg.endpoint)
    if not cfg.corpus_path:
        raise ConfigError("predictor 'corpus' requires corpus_path")
    return build_corpus_predictor(_verses(cfg.corpus_path), lexicon)


def _verses(path: str, min_lines: int = 4) -> list[Verse]:
    """Every verse of at least ``min_lines`` lines in a lyrics corpus."""
    return [
        verse
        for doc in load_corpus(path, "lyrics")
        for verse in corpus_mod.split_verses(doc, min_lines)
    ]


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
        lexicon = _lexicon(cfg)
        stopwords = _stopwords(cfg)
        synonyms = _synonyms(cfg)
        enhance_cfg = replace(cfg.enhance, deny_list=_deny_list(cfg))
        predictor = _predictor(cfg, lexicon)
        return cls(cfg, lexicon, stopwords, synonyms, predictor, enhance_cfg)


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

    if hypotheses is not None:
        try:
            selected = rerank(hypotheses, runtime.lexicon, cfg.rhyme).verse
        except ValueError as exc:
            raise PipelineError("rerank", str(exc)) from exc
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
    docs = [doc for path in args.paths for doc in load_corpus(path, args.kind)]
    _emit(corpus_mod.corpus_stats(docs).as_dict())


def _cmd_corpus_split(args) -> None:
    for verse in _verses(args.path, args.min_lines):
        _emit({"doc": verse.source_doc, "text": join_lines(verse.lines)})


def _cmd_strip(args) -> None:
    cfg = _flag_config(args)
    docs = load_corpus(args.path, args.kind)
    results = strip_corpus(
        docs,
        _stopwords(cfg),
        noise=cfg.noise,
        cfg=NoiseConfig(cfg.drop_rate, cfg.synonym_rate, cfg.seed),
        synonyms=_synonyms(cfg),
        workers=args.jobs,
    )
    for cw in results:
        text = join_lines(cw.lines)
        _emit({"doc": cw.provenance, "noise": cw.noise, "seed": cw.seed, "text": text})


def _cmd_pair(args) -> None:
    cfg = _flag_config(args)
    verses = [
        (f"{doc.id}#v{j}", verse)
        for doc in load_corpus(args.path, "lyrics")
        for j, verse in enumerate(corpus_mod.split_verses(doc, args.min_lines))
    ]
    sources = strip_corpus(
        [Document(id=vid, kind="lyrics", lines=verse.lines, raw="") for vid, verse in verses],
        _stopwords(cfg),
        noise=cfg.noise,
        cfg=NoiseConfig(cfg.drop_rate, cfg.synonym_rate, cfg.seed),
        synonyms=_synonyms(cfg),
    )
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
    verses = _verses(args.path, args.min_lines)
    input_tokens = (
        load_document(args.input, "news").all_tokens() if args.input else None
    )
    references = _verses(args.reference, args.min_lines) if args.reference else None
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
    for verse in _verses(args.path, args.min_lines):
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
    if args.index_dir:
        index = load_index(args.index_dir)
    elif args.corpus:
        docs = _verses(args.corpus) if args.split_verses else load_corpus(args.corpus, args.kind)
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
    p_retrieve.add_argument("--kind", default="lyrics", choices=KINDS)
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
