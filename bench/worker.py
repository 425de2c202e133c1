"""Run one workload in a fresh process and print its result as JSON.

Started by ``run.py``; not meant to be run by hand. The process sets up the
workload ``--setup-reps`` times, each from a clean state, runs units in a
closed loop with one client until the time is up, then checks every output.
A fixed calibration loop runs around every set-up repetition and between
units, outside every timing; it scales the CPU time of each to a
reference host speed (``_at_reference_speed``). Peak RSS is read before the
checks, so the reference implementations do not count against it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import serve  # noqa: E402
import tracing  # noqa: E402

PINNED_SEED = 0
# Fixed pure-Python reference work timed between units and around every
# set-up repetition. Host speed on shared machines swings by tens of
# percent within seconds, and it hits this loop and the timed work alike, so
# their ratio stays put when times do not.
_CAL_WINDOW_S = 0.1
# About the calibration loop's time on the 2-vCPU host where the benchmark
# was defined; scaled times are reported as if the loop took this long.
CAL_REF_S = 0.002
_CAL_TABLE = {f"w{i}": (i % 15, i % 7) for i in range(20_000)}
_CAL_KEYS = [f"w{(i * 7919) % 20_000}" for i in range(4_000)]
DIGESTS = Path(__file__).with_name("digests.json")
STOPWORDS = ROOT / "src" / "verseforge" / "data" / "stopwords_en.txt"


def _modules():
    import verseforge
    from verseforge import cli, corpus, enhance, metrics, phonetics, selection, stripping

    return types.SimpleNamespace(
        package=verseforge, corpus=corpus, phonetics=phonetics, metrics=metrics,
        stripping=stripping, enhance=enhance, selection=selection, cli=cli,
    )


def _words(path: Path) -> frozenset[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return frozenset(w.strip().lower() for w in lines if w.strip())


def _flat(lines) -> str:
    return " <nl> ".join(" ".join(line) for line in lines)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9


class Rerank:
    """One 24-hypothesis batch: load_hypotheses, then rerank."""

    reference_sample = 8

    def __init__(self, vf, inputs: Path, args):
        self.vf, self.inputs = vf, inputs

    def setup(self) -> None:
        self.lex = self.vf.phonetics.load_lexicon(self.inputs / "lexicon.dict")

    def items(self) -> list:
        return sorted((self.inputs / "batches").glob("*.jsonl"))

    def run(self, path):
        hyps = self.vf.selection.load_hypotheses(path)
        return self.vf.selection.rerank(hyps, self.lex)

    def digest(self, path, best) -> str:
        s = best.scored
        return f"{best.generator_rank}|{s.rd!r}|{s.rep!r}|{_flat(best.verse.lines)}"

    def check(self, path, best, table) -> list[str]:
        scores = {}
        for raw in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(raw)
            lines = [l[0] for l in map(reference.tokenize, record["text"].split("<nl>")) if l]
            rd, rep = reference.rhyme_density(lines, table), reference.repetition(lines)
            scores[record["rank"]] = (rd, rep)
        rd, rep = scores[best.generator_rank]
        errors = []
        if not (_close(rd, best.scored.rd) and _close(rep, best.scored.rep)):
            errors.append(f"rank {best.generator_rank}: rd/rep {best.scored.rd}/{best.scored.rep}"
                          f" differ from reference {rd}/{rep}")
        top_rank = min(scores, key=lambda r: (-(scores[r][0] - scores[r][1]), r))
        top = scores[top_rank][0] - scores[top_rank][1]
        if best.generator_rank != top_rank and not _close(rd - rep, top):
            errors.append(f"picked rank {best.generator_rank}, brute-force argmax is {top_rank}")
        return errors


class Pipeline:
    """One news document: tokenize it, then run_pipeline with a shared runtime."""

    reference_sample = 10_000

    def __init__(self, vf, inputs: Path, args):
        self.vf, self.inputs = vf, inputs
        self.stopwords = _words(STOPWORDS)
        self.deny = _words(inputs / "deny.txt")
        self.docs = [
            (p.stem, p.read_text(encoding="utf-8")) for p in sorted((inputs / "news").glob("*.txt"))
        ]

    def setup(self) -> None:
        self.cfg = self.vf.cli.load_config(self.inputs / "config.json")
        self.runtime = self.vf.cli.PipelineRuntime.from_config(self.cfg)

    def prepare(self) -> None:
        vf, runtime = self.vf, self.runtime
        runtime.predictor, self.predictor_substituted = serve.checked_predictor(
            vf.enhance, vf.corpus, runtime.predictor, Path(self.cfg.corpus_path), self.cfg.enhance.k
        )

    def items(self) -> list:
        return self.docs

    def run(self, item):
        doc_id, raw = item
        corpus = self.vf.corpus
        doc = corpus.Document(id=doc_id, kind="news", lines=corpus.tokenize(raw), raw=raw)
        return self.vf.cli.run_pipeline(doc, self.cfg, None, self.runtime)

    def digest(self, item, out) -> str:
        verse, report = out
        return json.dumps({"doc": item[0], "text": _flat(verse.lines), **report})

    def check(self, item, out, table) -> list[str]:
        verse, report = out
        before = reference.shuffled_content_lines(item[1], item[0], self.stopwords, self.cfg.seed)
        errors = reference.enhancement_errors(before, verse.lines, self.deny, table)
        expected = {
            "rd_before": reference.rhyme_density(before, table),
            "rd_after": reference.rhyme_density(verse.lines, table),
            "rep": reference.repetition(verse.lines),
        }
        errors += [
            f"{key} {report[key]} differs from reference {value}"
            for key, value in expected.items() if not _close(report[key], value)
        ]
        return errors


class Retrieval:
    """One k=5 TF-IDF query against the index reloaded from disk."""

    reference_sample = 20
    k = 5

    def __init__(self, vf, inputs: Path, args):
        self.vf, self.inputs = vf, inputs
        self.index_dir = inputs / "index"
        self.last_bit_differences = 0

    def setup(self) -> None:
        sel = self.vf.selection
        docs = self.vf.corpus.load_corpus(self.inputs / "news.txt", "news")
        self.in_memory = sel.build_index(docs)
        sel.save_index(self.in_memory, self.index_dir)
        self.index = sel.load_index(self.index_dir)

    def items(self) -> list:
        return json.loads((self.inputs / "queries.json").read_text(encoding="utf-8"))

    def run(self, query: str):
        return self.vf.selection.retrieve_indices(self.index, self.vf.corpus.tokenize(query), self.k)

    def digest(self, query, out) -> str:
        return json.dumps([[self.index.doc_ids[i], sim] for i, sim in out])

    def check(self, query, out, table) -> list[str]:
        sel = self.vf.selection
        a, b = self.index, self.in_memory
        if (a.doc_ids, a.vocabulary, a.df, a.vectors) != (b.doc_ids, b.vocabulary, b.df, b.vectors):
            return ["reloaded index content differs from the in-memory index"]
        expected = sel.retrieve_indices(b, self.vf.corpus.tokenize(query), self.k)
        if [i for i, _ in out] != [i for i, _ in expected]:
            return [f"reloaded index ranked {out}, in-memory index {expected}"]
        # Both indexes hold bit-identical weights, but retrieve_indices sums
        # in dict order, which differs after a reload, so similarities may
        # differ in the last bit. Those are counted; larger gaps fail.
        self.last_bit_differences += sum(1 for (_, x), (_, y) in zip(out, expected) if x != y)
        if any(abs(x - y) > 1e-12 for (_, x), (_, y) in zip(out, expected)):
            return [f"reloaded index scored {out}, in-memory index {expected}"]
        return []

    def properties(self, queries: list[str]) -> dict:
        """Index size, and how many documents share a term with each query."""
        postings: dict[int, set[int]] = {}
        for doc, vec in enumerate(self.index.vectors):
            for dim in vec:
                postings.setdefault(dim, set()).add(doc)
        shares = []
        for q in queries:
            dims = {self.index.vocabulary[t] for line in self.vf.corpus.tokenize(q)
                    for t in line if t in self.index.vocabulary}
            hit = set().union(*(postings.get(d, ()) for d in dims))
            shares.append(len(hit) / len(self.index.vectors))
        return {
            "selection.index_bytes": sum(p.stat().st_size for p in self.index_dir.iterdir()),
            "selection.query_doc_overlap_share": statistics.fmean(shares),
        }


class RemoteEnhance:
    """One 16-line verse through enhance_verse with the HTTP predictor client."""

    reference_sample = 10_000

    def __init__(self, vf, inputs: Path, args):
        import requests

        # The stub server's log starts with the predictor it serves.
        log = (inputs / "server.log").read_text(encoding="utf-8").splitlines()
        self.predictor_substituted = log[0] == serve.SUBSTITUTED

        self.vf, self.inputs, self.endpoint = vf, inputs, args.endpoint
        self.deny = _words(inputs / "deny.txt")
        # Client-side request count for the cross-check against the stub
        # server's log. It is installed in every phase, traced or not, and
        # costs one increment per loopback request.
        self.requests_sent = 0
        post = requests.post

        @functools.wraps(post)
        def counted_post(*args, **kwargs):
            self.requests_sent += 1
            return post(*args, **kwargs)

        requests.post = counted_post

    def setup(self) -> None:
        vf = self.vf
        self.lex = vf.phonetics.load_lexicon(self.inputs / "lexicon.dict")
        self.verses = [
            verse
            for doc in vf.corpus.load_corpus(self.inputs / "verses.txt", "lyrics")
            for verse in vf.corpus.split_verses(doc)
        ]
        deny = vf.enhance.load_deny_list(self.inputs / "deny.txt")
        self.cfg = vf.enhance.EnhanceConfig(k=serve.K, mode="first_improvement", deny_list=deny)
        self.predictor = vf.enhance.RemotePredictor(self.endpoint)

    def items(self) -> list:
        return self.verses

    def run(self, verse):
        return self.vf.enhance.enhance_verse(verse, self.predictor, self.cfg, self.lex)

    def digest(self, verse, out) -> str:
        return _flat(out.lines)

    def check(self, verse, out, table) -> list[str]:
        return reference.enhancement_errors(verse.lines, out.lines, self.deny, table)


WORKLOADS = {
    "rerank": Rerank,
    "pipeline": Pipeline,
    "retrieval": Retrieval,
    "remote_enhance": RemoteEnhance,
}


def _calibration_s() -> float:
    start = perf_counter()
    seen = set()
    acc = 0
    for key in _CAL_KEYS:
        a, b = _CAL_TABLE[key]
        acc += a * b + len([x for x in (a, b) if x])
        seen.add(key)
    return perf_counter() - start


def _calibration_window_s() -> float:
    """Mean calibration time over ``_CAL_WINDOW_S`` of back-to-back loops."""
    times = []
    end = perf_counter() + _CAL_WINDOW_S
    while perf_counter() < end:
        times.append(_calibration_s())
    return statistics.fmean(times)


def _at_reference_speed(wall: float, cpu: float, calibration: float) -> float:
    """Wall time with its CPU part scaled to the reference host speed.

    Time off the CPU (sleeps, waiting on the stub server) is kept as it is,
    since host speed does not change it.
    """
    cpu = min(cpu, wall)
    return wall - cpu + cpu * CAL_REF_S / calibration


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _check(wl, args, items, results, outputs) -> tuple[dict[int, str], dict]:
    """Map failed unit number -> reason; also return the check summary.

    ``results`` holds ``(input, digest, error)`` per unit; ``outputs`` the
    first good output of each input.
    """
    pinned = None
    if args.seed == PINNED_SEED and DIGESTS.exists():
        pinned = json.loads(DIGESTS.read_text()).get(f"{args.size}/{args.workload}")
    failed: dict[int, str] = {}
    first: dict[int, str] = {}
    for unit, (idx, digest, error) in enumerate(results):
        if error is not None:
            failed[unit] = error
            continue
        if first.setdefault(idx, digest) != digest:
            failed[unit] = f"input {idx}: output differs from an earlier unit on the same input"
        elif pinned is not None and pinned[idx] != digest:
            failed[unit] = f"input {idx}: digest {digest} differs from recorded {pinned[idx]}"
    lexicon = wl.inputs / "lexicon.dict"
    table = reference.load_vowels(lexicon) if lexicon.exists() else {}
    checked = sorted(first)[: wl.reference_sample]
    bad = {}
    for idx in checked:
        out = outputs[idx]
        errors = wl.check(items[idx], out, table)
        if errors:
            bad[idx] = "; ".join(errors[:3])
    for unit, (idx, _, _) in enumerate(results):
        if idx in bad:
            failed.setdefault(unit, f"input {idx}: {bad[idx]}")
    summary = {
        "digests_pinned": pinned is not None,
        "similarity_last_bit_differences": getattr(wl, "last_bit_differences", None),
        "corpus_predictor_substituted": getattr(wl, "predictor_substituted", None),
        "inputs_seen": len(first),
        "inputs_checked_against_reference": len(checked),
    }
    return failed, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--size", required=True)
    parser.add_argument("--setup-reps", required=True, type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--endpoint")
    args = parser.parse_args()

    vf = _modules()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, vf)
    wl = WORKLOADS[args.workload](vf, args.inputs, args)

    setup_times, setup_scaled = [], []
    before_setup = set(vars(wl))
    for rep in range(args.setup_reps):
        # Each repetition starts from a clean state: the previous one's
        # objects are freed outside the timer, so neither the time nor the
        # peak RSS holds two copies.
        for attr in set(vars(wl)) - before_setup:
            delattr(wl, attr)
        gc.collect()
        cal_before = _calibration_window_s()
        if tracer:
            tracer.begin_unit(("setup", rep))
        start, cpu_start = perf_counter(), process_time()
        wl.setup()
        wall, cpu = perf_counter() - start, process_time() - cpu_start
        cal = (cal_before + _calibration_window_s()) / 2
        setup_times.append(wall)
        setup_scaled.append(_at_reference_speed(wall, cpu, cal))
    # Work of the benchmark's own after the last set-up, outside every timing.
    if tracer:
        tracer.begin_unit("prepare")
    if hasattr(wl, "prepare"):
        wl.prepare()
    if tracer:
        tracer.end_unit()
        tracer.reset_counters()
    items = wl.items()
    gc.collect()

    latencies: list[float] = []
    cpu_times: list[float] = []
    # calibration[u] and calibration[u + 1] bracket unit u.
    calibration = [_calibration_s()]
    results: list[tuple] = []
    # Only the first output of each input is kept, so memory, and with it
    # peak RSS, does not grow with the number of units the run completes.
    outputs: dict[int, object] = {}
    start = perf_counter()
    deadline = start + args.seconds
    while perf_counter() < deadline:
        idx = len(results) % len(items)
        if tracer:
            tracer.begin_unit(len(results))
        t0, c0 = perf_counter(), process_time()
        try:
            out, error = wl.run(items[idx]), None
        except Exception as exc:  # a failed unit is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        cpu_times.append(process_time() - c0)
        if tracer:
            tracer.end_unit()
        calibration.append(_calibration_s())
        digest = None
        if error is None:
            digest = _digest(wl.digest(items[idx], out))
            outputs.setdefault(idx, out)
        results.append((idx, digest, error))
    elapsed = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    bracket = [(a + b) / 2 for a, b in zip(calibration, calibration[1:])]
    scaled = list(map(_at_reference_speed, latencies, cpu_times, bracket))
    result: dict = {
        "units": len(results),
        "elapsed_s": elapsed,
        "setup_s": statistics.median(setup_scaled),
        "setup_wall_s": statistics.median(setup_times),
        "setup_reps_s": setup_times,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": tracing.p90(latencies) * 1e3,
        "latency_p50_ref_ms": statistics.median(scaled) * 1e3,
        "latency_p90_ref_ms": tracing.p90(scaled) * 1e3,
        "calibration_ms": statistics.median(calibration) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "cpu_p50_ms": statistics.median(cpu_times) * 1e3,
        "cpu_p90_ms": tracing.p90(cpu_times) * 1e3,
        "cpu_s": sum(cpu_times),
    }
    if tracer:
        tracer.begin_unit("after")
        result["layers"] = tracing.layer_metrics(tracer, len(results), args.setup_reps)
    if hasattr(wl, "requests_sent"):
        result["client_requests"] = wl.requests_sent
    if hasattr(wl, "properties"):
        result["properties"] = wl.properties(items[: len(results)])
        if tracer:
            result["layers"].update(result["properties"])

    failed, summary = _check(wl, args, items, results, outputs)
    completed = len(results) - sum(1 for _, _, error in results if error is not None)
    result.update(
        attempted=len(results),
        failed=len(failed),
        failures=sorted(set(failed.values()))[:5],
        throughput_per_s=completed / sum(latencies),
        checks=summary,
    )
    if tracer and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
