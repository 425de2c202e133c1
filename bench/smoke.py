"""Smallest-size smoke run of the benchmark.

    python3 -m pytest bench/smoke.py -q

The file name keeps it out of the package's default test collection, so
the repository's own test run stays as fast as before. Each listed workload
runs for one second on the smallest inputs. The tests assert that every
metric named in BENCHMARK.json is emitted with its unit and that no unit
fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_listed_metric_is_emitted(workload, trace, kind):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC[kind]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_unit_fails(workload):
    result = _result(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["failed_ratio"]["value"] == 0


@pytest.mark.xfail(strict=True, reason="corpus predictor emits unsorted candidate scores")
def test_corpus_predictor_accepts_its_own_top_k():
    """build_corpus_predictor ranks by the integer key 10*final + total, ties
    by word, but reports final + 0.1*total: "a" (1 + 0.2 = 1.2) is ranked
    before "b" (0 + 1.2 = 1.2000000000000002), so CandidateList rejects the
    list. The pipeline and remote_enhance workloads replace such a predictor
    (serve.checked_predictor) and record that they did; once the ranking is
    fixed this test passes and its marker has to go."""
    sys.path.insert(0, str(ROOT / "src"))
    from verseforge.corpus import Verse
    from verseforge.enhance import MASK_TOKEN, PredictorQuery, build_corpus_predictor

    predictor = build_corpus_predictor([Verse([["a", "z"], ["b"] * 12 + ["a"]])])
    predictor.predict(PredictorQuery((MASK_TOKEN,), 0, 3))


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("rerank", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
