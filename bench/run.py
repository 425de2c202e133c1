#!/usr/bin/env python3
"""verseforge benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload rerank --seed 0 --seconds 12 --trace 0

Run from the repository root. The inputs are generated from ``--seed`` into
``.bench_out/`` and deleted afterwards. The workload then runs in a fresh
worker process (``worker.py``), a closed loop with one client, for
``--seconds``. Every output is checked. The last line of standard output is
one JSON object::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones listed in
BENCHMARK.json. With ``--trace 1`` the workload runs untraced, traced and
untraced again, each for half of ``--seconds`` in its own process; only the
traced phase repeats its set-up. The metrics are then the per-layer ones
listed there. They include ``trace.overhead_ms``, the traced
``latency_p50_ms`` minus the mean of the two untraced ones, and
``trace.overhead_share``, the same comparison made on ``latency_p50_ref_ms``
as a share. The table printed above the last line shows every layer metric,
listed or not. Spans go to
``.bench_out/spans/``. A record of the run goes to ``.bench_out/results/``:
interpreter, CPU count, git SHA, input sizes and measured input properties.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

import gen
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SERVER = ROOT / "scripts" / "predictor_server.py"
WORKLOADS = ("rerank", "pipeline", "retrieval", "remote_enhance")
# Every end-to-end figure is printed; BENCHMARK.json lists the ones that
# carry a bound (README.md says why the others do not).
END_TO_END = {
    "setup_s": "s",
    "setup_wall_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p50_ref_ms": "ms",
    "latency_p90_ref_ms": "ms",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}
WORKER_TIMEOUT_S = 150
# Set-up repetitions of the phase whose set-up is reported; the phases that
# only bracket a traced run set up once.
SETUP_REPS = 5


def _free_port() -> int:
    # The stub server prints the --port it was given, not the port it bound,
    # so the port is chosen here before the server starts.
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@contextlib.contextmanager
def stub_server(corpus: Path, log_path: Path):
    """Run the stub predictor server (serve.py) on loopback; always stop and reap it."""
    port = _free_port()
    with log_path.open("w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--corpus", str(corpus), "--port", str(port)],
            stdout=subprocess.DEVNULL, stderr=log, cwd=ROOT,
        )
        try:
            deadline = time.monotonic() + 60
            while True:
                if proc.poll() is not None:
                    raise RuntimeError(f"predictor server exited with code {proc.returncode}")
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=1).close()
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise RuntimeError("predictor server did not start within 60 s")
                    time.sleep(0.05)
            yield f"http://127.0.0.1:{port}"
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def run_worker(args, inputs: Path, traced: bool, endpoint: str | None) -> dict:
    # A traced run has three phases, so each gets half the time.
    seconds = args.seconds / 2 if args.trace else args.seconds
    setup_reps = SETUP_REPS if traced or not args.trace else 1
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--inputs", str(inputs), "--seed", str(args.seed),
        "--seconds", str(seconds), "--size", args.size, "--trace", str(int(traced)),
        "--setup-reps", str(setup_reps),
    ]
    if endpoint:
        cmd += ["--endpoint", endpoint]
    if traced:
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl")]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _spec() -> dict:
    """BENCHMARK.json, which names the metrics the result line carries."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _server_requests(log_path: Path) -> int:
    """Requests in the stub server's log: answered ones, and ones whose
    handler raised (socketserver logs those instead of a request line)."""
    text = log_path.read_text(encoding="utf-8", errors="replace")
    return sum(
        1 for line in text.splitlines()
        if '"POST /predict' in line or line.startswith("Exception occurred during processing")
    )


def measure(args) -> tuple[list[dict], dict, list[str]]:
    """Generate inputs, run the worker(s); return phases, input properties, problems."""
    inputs = OUT / f"inputs-{args.workload}-seed{args.seed}-{os.getpid()}"
    problems: list[str] = []
    try:
        props = gen.generate(args.workload, args.seed, args.size, inputs)
        server = contextlib.nullcontext(None)
        log_path = inputs / "server.log"
        if args.workload == "remote_enhance":
            server = stub_server(inputs / "server_lyrics", log_path)
        with server as endpoint:
            phases = [run_worker(args, inputs, traced, endpoint)
                      for traced in ([False, True, False] if args.trace else [False])]
        if endpoint:
            client = sum(p["client_requests"] for p in phases)
            served = _server_requests(log_path)
            props["requests_client"], props["requests_server"] = client, served
            if client != served:
                problems.append(f"client sent {client} requests, server logged {served}")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return phases, props, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is for the quick self-test")
    args = parser.parse_args()
    if not (ROOT / "src" / "verseforge" / "__init__.py").is_file() or not SERVER.is_file():
        print(f"no verseforge checkout at {ROOT} (src/verseforge or {SERVER.name} missing)",
              file=sys.stderr)
        return 2

    phases, props, problems = measure(args)
    props.update(phases[0].get("properties", {}))
    untraced = phases[0]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    for p in phases:
        problems += p["failures"]
    if args.trace:
        traced = phases[1]
        values = {name: traced["layers"].get(name, 0.0) for name in tracing.LAYER_UNITS}
        values["failed_ratio"] = failed / attempted
        # The untraced phases bracket the traced one, so a steady drift in
        # machine speed cancels out of the difference.
        baseline = (phases[0]["latency_p50_ms"] + phases[2]["latency_p50_ms"]) / 2
        values["trace.overhead_ms"] = traced["latency_p50_ms"] - baseline
        baseline = (phases[0]["latency_p50_ref_ms"] + phases[2]["latency_p50_ref_ms"]) / 2
        values["trace.overhead_share"] = traced["latency_p50_ref_ms"] / baseline - 1
        units = {**tracing.LAYER_UNITS, "failed_ratio": "ratio", "trace.overhead_ms": "ms",
                 "trace.overhead_share": "ratio"}
    else:
        values = {**untraced, "failed_ratio": failed / attempted}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    listed = [m["name"] for m in _spec()["per_layer" if args.trace else "end_to_end"]]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "inputs": props,
        "phases": [{k: v for k, v in p.items() if k != "layers"} for p in phases],
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(f"{args.workload} seed={args.seed} units={untraced['units']}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    for problem in problems:
        print(f"  problem: {problem}")
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
