"""Spans and counters recorded around calls into verseforge, from outside it.

``install`` replaces public verseforge functions with wrappers. A function
imported elsewhere with ``from .x import y`` is bound under several module
names, so each binding of the original object is rebound; otherwise calls
made inside the library would bypass the wrapper. Nothing here runs unless
a traced run installs it: the untraced run imports no wrapper at all.

A span is ``(unit, span_id, parent_id, name, start, end)``; spans live in
memory and are written out once the run ends. Bookkeeping done by a wrapper
after its call is itself a child span, so it never counts as self time of
the layer that encloses it.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.unit: object = None
        self._stack: list[int] = []
        self._next_id = 0
        self._words: list[str] = []
        self._lexicon = None
        self._last_candidates = None
        self._candidate_lists: set = set()

    # --- recording ---

    def begin_unit(self, unit: object) -> None:
        self.unit = unit

    def reset_counters(self) -> None:
        """Forget the counters and candidate lists recorded so far."""
        self.counts.clear()
        self._candidate_lists.clear()

    def end_unit(self) -> None:
        """Fold this unit's transcribed words into the phonetics counters."""
        words = self._words
        if words and self._lexicon is not None:
            c = self.counts
            c["phonetics.transcribe_calls"] += len(words)
            c["phonetics.transcribe_repeats"] += len(words) - len(set(words))
            c["phonetics.fallbacks"] += sum(1 for w in words if self._lexicon.get(w) is None)
        self._words = []

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _close(self, sid: int, parent: int | None, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((self.unit, sid, parent, name, start, end))

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, *args)`` runs as bookkeeping."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self._close(sid, parent, name, start)
            if after is not None:
                self.bookkeeping(after, result, *args, **kwargs)
            return result

        return wrapper

    def bookkeeping(self, hook, *args, **kwargs) -> None:
        sid, parent = self._open()
        start = perf_counter()
        try:
            hook(*args, **kwargs)
        finally:
            self._close(sid, parent, BOOKKEEPING, start)

    # --- hooks for particular layers ---

    def transcribe(self, fn):
        @functools.wraps(fn)
        def wrapper(word, lex):
            self._words.append(word)
            self._lexicon = lex
            return fn(word, lex)

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def after_predict(self, result, *_args) -> None:
        self._last_candidates = result.candidates
        key = hash(result.candidates)
        self.counts["enhance.candidate_lists"] += 1
        if key in self._candidate_lists:
            self.counts["enhance.candidate_list_repeats"] += 1
        self._candidate_lists.add(key)

    def after_replacement(self, result, verse, src_idx, tgt_idx, query, predictor, cfg, lex) -> None:
        tgt = verse.lines[tgt_idx][-1]
        scanned = self._last_candidates[: cfg.k]
        self.counts["enhance.candidates_scanned"] += len(scanned)
        self.counts["enhance.candidates_usable"] += sum(
            1 for tok, _ in scanned
            if (t := tok.lower()).isalpha() and t not in cfg.deny_list and t != tgt
        )

    def after_enhance(self, result, verse, *_args) -> None:
        self.counts["enhance.line_pairs"] += len(verse.lines) // 2
        self.counts["enhance.substitutions"] += sum(
            1 for a, b in zip(verse.lines, result.lines) if a[-1:] != b[-1:]
        )

    def after_extract(self, result, doc, *_args) -> None:
        self.counts["stripping.tokens_in"] += doc.token_count()
        self.counts["stripping.tokens_kept"] += result.token_count()

    # --- output ---

    def write(self, path: Path) -> None:
        names = ("unit", "id", "parent", "name", "start", "end")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(names, span))) + "\n")


def _rebind(vf_modules, original, replacement) -> None:
    for module in vf_modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer, vf) -> None:
    """Wrap the public verseforge functions each layer metric is built from."""
    import requests
    import urllib3.connection

    modules = [vf.package, vf.corpus, vf.phonetics, vf.metrics, vf.stripping,
               vf.enhance, vf.selection, vf.cli]
    span_names = {
        vf.corpus: ("tokenize", "load_corpus", "split_verses"),
        vf.phonetics: ("load_lexicon",),
        vf.metrics: ("rhyme_density", "repetition_score"),
        vf.stripping: ("apply_noise",),
        vf.selection: ("load_hypotheses", "rerank", "build_index", "save_index",
                       "load_index", "retrieve_indices"),
        vf.cli: ("load_config", "run_pipeline"),
    }
    for module, names in span_names.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            fn = getattr(module, name)
            _rebind(modules, fn, tracer.span(f"{layer}.{name}", fn))
    special = [
        (vf.stripping.extract_content_words,
         tracer.span("stripping.extract_content_words", vf.stripping.extract_content_words,
                     tracer.after_extract)),
        (vf.enhance.enhance_verse,
         tracer.span("enhance.enhance_verse", vf.enhance.enhance_verse, tracer.after_enhance)),
        (vf.phonetics.transcribe, tracer.transcribe(vf.phonetics.transcribe)),
        (vf.metrics.rhyme_length,
         tracer.counted("metrics.rhyme_length_calls", vf.metrics.rhyme_length)),
        (vf.enhance.remote_predict,
         tracer.span("enhance.remote_predict", vf.enhance.remote_predict)),
    ]
    for original, wrapper in special:
        _rebind(modules, original, wrapper)

    replacement = vf.enhance.get_rhyming_replacement

    @functools.wraps(replacement)
    def get_rhyming_replacement(*args):
        result = replacement(*args)
        tracer.bookkeeping(tracer.after_replacement, result, *args)
        return result

    _rebind(modules, replacement, get_rhyming_replacement)
    for cls in (vf.enhance.CorpusPredictor, vf.enhance.RemotePredictor):
        cls.predict = tracer.span("enhance.predict", cls.predict, tracer.after_predict)
    runtime = vf.cli.PipelineRuntime
    runtime.from_config = classmethod(
        tracer.span("cli.runtime_build", runtime.from_config.__func__)
    )
    requests.post = tracer.span("enhance.remote.request", requests.post)
    urllib3.connection.HTTPConnection.connect = tracer.counted(
        "enhance.remote.connections", urllib3.connection.HTTPConnection.connect
    )


# Per-layer metric -> unit. Each is reported on every traced run; a layer a
# workload never calls reads 0 there.
LAYER_UNITS = {
    "corpus.tokenize_ms": "ms",
    "corpus.load_corpus_s": "s",
    "corpus.split_verses_ms": "ms",
    "phonetics.load_lexicon_s": "s",
    "phonetics.transcribe_calls": "count",
    "phonetics.transcribe_repeat_ratio": "ratio",
    "phonetics.fallback_ratio": "ratio",
    "metrics.rhyme_density_ms": "ms",
    "metrics.repetition_score_ms": "ms",
    "metrics.rhyme_length_calls": "count",
    "stripping.extract_ms": "ms",
    "stripping.noise_ms": "ms",
    "stripping.kept_token_ratio": "ratio",
    "enhance.enhance_verse_ms": "ms",
    "enhance.predict_calls": "count",
    "enhance.predict_ms": "ms",
    "enhance.candidates_scanned": "count",
    "enhance.candidate_usable_ratio": "ratio",
    "enhance.candidate_list_repeat_share": "ratio",
    "enhance.substitution_ratio": "ratio",
    "enhance.remote.request_ms_p50": "ms",
    "enhance.remote.request_ms_p90": "ms",
    "enhance.remote.connections_per_request": "ratio",
    "enhance.remote.retries": "count",
    "enhance.remote.errors": "count",
    "selection.load_hypotheses_ms": "ms",
    "selection.rerank_ms": "ms",
    "selection.build_index_s": "s",
    "selection.save_index_s": "s",
    "selection.load_index_s": "s",
    "selection.index_bytes": "bytes",
    "selection.retrieve_ms": "ms",
    "selection.query_doc_overlap_share": "ratio",
    "cli.load_config_ms": "ms",
    "cli.runtime_build_s": "s",
    "cli.run_pipeline_ms": "ms",
}


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_units: int, setup_reps: int) -> dict[str, float]:
    """Per-layer figures from the spans and counters of one traced run.

    ``_ms`` figures are per timed unit; ``_s`` figures are the median over
    set-up repetitions. Metrics marked self time subtract child spans.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    per_unit: dict[str, float] = defaultdict(float)
    per_unit_self: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    setup: dict[str, list[float]] = defaultdict(lambda: [0.0] * setup_reps)
    requests_ms = []
    for unit, sid, _, name, start, end in tracer.spans:
        if isinstance(unit, tuple):  # ("setup", rep)
            setup[name][unit[1]] += end - start
            continue
        if not isinstance(unit, int):  # spans of the output checks
            continue
        per_unit[name] += end - start
        per_unit_self[name] += end - start - child_time[sid]
        calls[name] += 1
        if name == "enhance.remote.request":
            requests_ms.append((end - start) * 1e3)

    def ms(name: str, self_time: bool = False) -> float:
        return (per_unit_self if self_time else per_unit)[name] * 1e3 / max(n_units, 1)

    def setup_median(name: str, scale: float = 1.0) -> float:
        return statistics.median(setup[name]) * scale if name in setup else 0.0

    c = tracer.counts
    posts = calls["enhance.remote.request"]
    remote_calls = calls["enhance.remote_predict"]
    n = max(n_units, 1)
    words = c["phonetics.transcribe_calls"]
    return {
        "corpus.tokenize_ms": ms("corpus.tokenize"),
        "corpus.load_corpus_s": setup_median("corpus.load_corpus"),
        "corpus.split_verses_ms": setup_median("corpus.split_verses", 1e3),
        "phonetics.load_lexicon_s": setup_median("phonetics.load_lexicon"),
        "phonetics.transcribe_calls": words / n,
        "phonetics.transcribe_repeat_ratio": _ratio(c["phonetics.transcribe_repeats"], words),
        "phonetics.fallback_ratio": _ratio(c["phonetics.fallbacks"], words),
        "metrics.rhyme_density_ms": ms("metrics.rhyme_density"),
        "metrics.repetition_score_ms": ms("metrics.repetition_score"),
        "metrics.rhyme_length_calls": c["metrics.rhyme_length_calls"] / n,
        "stripping.extract_ms": ms("stripping.extract_content_words"),
        "stripping.noise_ms": ms("stripping.apply_noise"),
        "stripping.kept_token_ratio": _ratio(c["stripping.tokens_kept"], c["stripping.tokens_in"]),
        "enhance.enhance_verse_ms": ms("enhance.enhance_verse", self_time=True),
        "enhance.predict_calls": calls["enhance.predict"] / n,
        "enhance.predict_ms": ms("enhance.predict"),
        "enhance.candidates_scanned": c["enhance.candidates_scanned"] / n,
        "enhance.candidate_usable_ratio": _ratio(
            c["enhance.candidates_usable"], c["enhance.candidates_scanned"]
        ),
        "enhance.candidate_list_repeat_share": _ratio(
            c["enhance.candidate_list_repeats"], c["enhance.candidate_lists"]
        ),
        "enhance.substitution_ratio": _ratio(c["enhance.substitutions"], c["enhance.line_pairs"]),
        "enhance.remote.request_ms_p50": statistics.median(requests_ms) if requests_ms else 0.0,
        "enhance.remote.request_ms_p90": p90(requests_ms),
        "enhance.remote.connections_per_request": _ratio(c["enhance.remote.connections"], posts),
        "enhance.remote.retries": max(posts - remote_calls, 0) / n,
        "enhance.remote.errors": c["enhance.remote_predict.errors"] / n,
        "selection.load_hypotheses_ms": ms("selection.load_hypotheses"),
        "selection.rerank_ms": ms("selection.rerank", self_time=True),
        "selection.build_index_s": setup_median("selection.build_index"),
        "selection.save_index_s": setup_median("selection.save_index"),
        "selection.load_index_s": setup_median("selection.load_index"),
        "selection.retrieve_ms": ms("selection.retrieve_indices"),
        "cli.load_config_ms": setup_median("cli.load_config", 1e3),
        "cli.runtime_build_s": setup_median("cli.runtime_build"),
        "cli.run_pipeline_ms": ms("cli.run_pipeline", self_time=True),
    }
