"""The HTTP stack is imported by the remote predictor's first request only,
and the scripts find the package without shadowing an importable one.

Each check runs in a fresh interpreter: this test process has imported
``requests`` already (``test_remote`` does), so its ``sys.modules`` shows
nothing about what ``verseforge`` itself loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, PKG_DATA_DIR
from test_remote import StubServer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MINI = DATA_DIR / "mini_corpus"
LEXICON = PKG_DATA_DIR / "cmudict_sample.txt"
HTTP_MODULES = ("requests", "urllib3")

# Runs ``cli.main`` on argv with stdout discarded, then prints its exit code
# and which of HTTP_MODULES it left loaded.
RUN_MAIN = f"""
import contextlib, io, json, sys
from verseforge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({{"code": code, "loaded": [m for m in {HTTP_MODULES!r} if m in sys.modules]}}))
"""


def run_python(script: str, *argv) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )


def run_main(*argv) -> dict:
    proc = run_python(RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_after(statement: str, modules) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after running ``statement``."""
    proc = run_python(
        f"import json, sys\n{statement}\n"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_leaves_http_stack_unloaded():
    modules = (*HTTP_MODULES, "http.server", "socketserver")
    assert loaded_after("import verseforge, verseforge.cli", modules) == []


def test_server_import_leaves_http_client_unloaded():
    assert loaded_after("import verseforge.server", HTTP_MODULES) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["rerank", "--hypotheses", DATA_DIR / "rerank_punct.jsonl", "--lexicon", LEXICON],
        ["retrieve", "--corpus", MINI, "--query", MINI / "doc_a.txt", "--k", "2"],
        ["analyze", MINI, "--lexicon", LEXICON],
        ["pipeline", MINI / "doc_a.txt", "--kind", "lyrics", "--predictor", "corpus",
         "--corpus", MINI, "--lexicon", LEXICON],
    ],
    ids=lambda argv: argv[0],
)
def test_local_commands_leave_http_stack_unloaded(argv):
    assert run_main(*argv) == {"code": 0, "loaded": []}


def test_remote_enhance_loads_http_stack():
    with StubServer([(200, None)]) as stub:
        result = run_main(
            "enhance", MINI / "doc_d.txt", "--predictor", "remote",
            "--endpoint", stub.endpoint, "--lexicon", LEXICON,
        )
    assert result == {"code": 0, "loaded": list(HTTP_MODULES)}
    assert stub.requests


def test_remote_predictor_loads_http_stack_on_first_predict():
    script = f"""
import json, sys
from verseforge.enhance import PredictorQuery, RemotePredictor
predictor = RemotePredictor(sys.argv[1])
before = [m for m in {HTTP_MODULES!r} if m in sys.modules]
predictor.predict(PredictorQuery(("go", "<mask>"), 1, k=5))
print(json.dumps([before, [m for m in {HTTP_MODULES!r} if m in sys.modules]]))
"""
    with StubServer([(200, None)]) as stub:
        proc = run_python(script, stub.endpoint)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], list(HTTP_MODULES)]
    assert len(stub.requests) == 1


def test_patched_post_sees_every_attempt():
    # requests.post is looked up at call time, so a patch made after the
    # package is imported still counts the retries.
    script = """
import sys
from verseforge.enhance import PredictorQuery, remote_predict
assert "requests" not in sys.modules
import requests
calls = []
post = requests.post
requests.post = lambda *a, **kw: calls.append(a) or post(*a, **kw)
remote_predict(sys.argv[1], PredictorQuery(("go", "<mask>"), 1, k=5), backoff=0.01)
print(len(calls))
"""
    with StubServer([(503, {}), (503, {}), (200, None)]) as stub:
        proc = run_python(script, stub.endpoint)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "3"
    assert len(stub.requests) == 3


# The CLI with ``requests`` unimportable: ``import requests`` raises ImportError.
WITHOUT_REQUESTS = """
import sys
sys.modules["requests"] = None
from verseforge.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["rerank", "--hypotheses", DATA_DIR / "rerank_punct.jsonl", "--lexicon", LEXICON],
        ["retrieve", "--corpus", MINI, "--query", MINI / "doc_a.txt"],
    ],
    ids=lambda argv: argv[0],
)
def test_local_commands_run_without_requests(argv):
    proc = run_python(WITHOUT_REQUESTS, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_remote_enhance_without_requests_is_a_json_error():
    proc = run_python(
        WITHOUT_REQUESTS, "enhance", MINI / "doc_d.txt", "--predictor", "remote",
        "--endpoint", "http://127.0.0.1:9", "--lexicon", LEXICON,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error.startswith("predictor failed (mask_index=")
    assert "requests" in error


# Runs a script without its ``__main__`` block, so no server starts, and
# prints whether it changed ``sys.path`` and where ``verseforge`` came from.
RUN_SCRIPT = """
import json, runpy, sys
before = list(sys.path)
runpy.run_path(sys.argv[1])
print(json.dumps({"path_changed": sys.path != before, "package": sys.modules["verseforge"].__file__}))
"""


@pytest.mark.parametrize("script", ["predictor_server.py", "pipeline_demo.py"])
def test_script_leaves_sys_path_when_package_is_importable(script):
    proc = run_python(RUN_SCRIPT, ROOT / "scripts" / script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "path_changed": False, "package": str(SRC / "verseforge" / "__init__.py")
    }


def test_server_script_imports_the_checkout_when_package_is_not_importable():
    # -S hides site-packages, where an installed copy would be found.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", RUN_SCRIPT + "import verseforge.server as m; print(m.__file__)",
         str(ROOT / "scripts" / "predictor_server.py")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    status, server_file = proc.stdout.splitlines()
    assert json.loads(status) == {
        "path_changed": True, "package": str(SRC / "verseforge" / "__init__.py")
    }
    assert server_file == str(SRC / "verseforge" / "server.py")
