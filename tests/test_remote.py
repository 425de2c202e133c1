"""Remote masked-predictor client against a scripted loopback HTTP stub."""

import http.client
import importlib.util
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from verseforge.corpus import Verse
from verseforge.enhance import (
    EnhanceConfig,
    PredictorProtocolError,
    PredictorQuery,
    PredictorRetryableError,
    RemotePredictor,
    enhance_verse,
    remote_predict,
)


class StubServer:
    """Loopback /predict endpoint driven by a script of canned replies.

    Each entry is (status, body); a body of None means "echo a valid
    sorted candidate list". When the script runs out, the last entry
    repeats.
    """

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                stub.requests.append(json.loads(self.rfile.read(length)))
                status, body = stub.script.pop(0) if len(stub.script) > 1 else stub.script[0]
                if body is None:
                    body = {
                        "candidates": [
                            {"token": "food", "score": 3.0},
                            {"token": "fruit", "score": 2.0},
                            {"token": "rules", "score": 1.0},
                        ]
                    }
                payload = body if isinstance(body, (bytes, str)) else json.dumps(body)
                if isinstance(payload, str):
                    payload = payload.encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def endpoint(self) -> str:
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()


QUERY = PredictorQuery(("where", "were", "<mask>",), 2, k=5)


def test_valid_response_passes_through():
    with StubServer([(200, None)]) as stub:
        result = remote_predict(stub.endpoint, QUERY)
    assert result.tokens() == ["food", "fruit", "rules"]
    assert stub.requests[0] == {
        "tokens": ["where", "were", "<mask>"],
        "mask_index": 2,
        "k": 5,
    }


def test_unsorted_response_is_protocol_error():
    body = {"candidates": [{"token": "a", "score": 1.0}, {"token": "b", "score": 2.0}]}
    with StubServer([(200, body)]) as stub:
        with pytest.raises(PredictorProtocolError, match="not sorted"):
            remote_predict(stub.endpoint, QUERY)


def test_non_finite_score_is_protocol_error():
    body = '{"candidates": [{"token": "a", "score": NaN}, {"token": "b", "score": 1.0}]}'
    with StubServer([(200, body)]) as stub:
        with pytest.raises(PredictorProtocolError, match="finite"):
            remote_predict(stub.endpoint, QUERY)


def test_score_beyond_float_range_is_protocol_error():
    body = '{"candidates": [{"token": "a", "score": 1%s}]}' % ("0" * 400)
    with StubServer([(200, body)]) as stub:
        with pytest.raises(PredictorProtocolError, match="float range"):
            remote_predict(stub.endpoint, QUERY)
    assert len(stub.requests) == 1


def test_three_500s_surface_retryable_error_after_backoff():
    with StubServer([(500, {}), (500, {}), (500, {})]) as stub:
        started = time.monotonic()
        with pytest.raises(PredictorRetryableError, match="after 3 attempts"):
            remote_predict(stub.endpoint, QUERY)
        elapsed = time.monotonic() - started
    assert len(stub.requests) == 3
    # exponential backoff starting at 200 ms: 0.2 + 0.4 between attempts
    assert elapsed >= 0.55


def test_transient_500_then_success_recovers():
    with StubServer([(500, {}), (200, None)]) as stub:
        result = remote_predict(stub.endpoint, QUERY, backoff=0.01)
    assert result.tokens()[0] == "food"
    assert len(stub.requests) == 2


def test_connection_refused_is_retryable():
    with pytest.raises(PredictorRetryableError):
        remote_predict("http://127.0.0.1:9", QUERY, backoff=0.01)


def test_malformed_json_is_protocol_error():
    with StubServer([(200, "this is not json")]) as stub:
        with pytest.raises(PredictorProtocolError, match="not JSON"):
            remote_predict(stub.endpoint, QUERY)


def test_missing_candidates_key_is_protocol_error():
    with StubServer([(200, {"tokens": []})]) as stub:
        with pytest.raises(PredictorProtocolError, match="candidates"):
            remote_predict(stub.endpoint, QUERY)


def test_bad_entry_shape_is_protocol_error():
    body = {"candidates": [{"token": 5, "score": "high"}]}
    with StubServer([(200, body)]) as stub:
        with pytest.raises(PredictorProtocolError, match="malformed"):
            remote_predict(stub.endpoint, QUERY)


def test_boolean_score_is_protocol_error():
    body = {"candidates": [{"token": "a", "score": True}]}
    with StubServer([(200, body)]) as stub:
        with pytest.raises(PredictorProtocolError, match="malformed"):
            remote_predict(stub.endpoint, QUERY)
    assert len(stub.requests) == 1


def test_k_bound_enforced():
    body = {"candidates": [{"token": f"w{i}", "score": float(-i)} for i in range(6)]}
    with StubServer([(200, body)]) as stub:
        with pytest.raises(PredictorProtocolError, match="exceed"):
            remote_predict(stub.endpoint, QUERY)


def test_4xx_is_protocol_error_not_retried():
    with StubServer([(404, {}), (404, {})]) as stub:
        with pytest.raises(PredictorProtocolError, match="404"):
            remote_predict(stub.endpoint, QUERY)
    assert len(stub.requests) == 1


def test_endpoint_path_normalization():
    with StubServer([(200, None)]) as stub:
        remote_predict(stub.endpoint + "/predict", QUERY)
        remote_predict(stub.endpoint + "/", QUERY)
    assert len(stub.requests) == 2


def test_remote_predictor_drives_enhancement(sample_lex):
    verse = Verse(
        [["where", "were", "you"],
         ["last", "year", "with", "no", "beginners"]]
    )
    with StubServer([(200, None)]) as stub:
        predictor = RemotePredictor(stub.endpoint, backoff=0.01)
        out = enhance_verse(verse, predictor, EnhanceConfig(k=5), sample_lex)
    assert out.lines[1][-1] == "food"


def test_cli_enhance_remote_path(capsys, tmp_path):
    from verseforge.cli import main
    from conftest import PKG_DATA_DIR

    src = tmp_path / "verse.txt"
    src.write_text("where were you\nlast year with no beginners\n")
    with StubServer([(200, None)]) as stub:
        code = main([
            "enhance", str(src),
            "--lexicon", str(PKG_DATA_DIR / "cmudict_sample.txt"),
            "--predictor", "remote", "--endpoint", stub.endpoint,
            "--min-lines", "1", "--k", "5",
        ])
    out = capsys.readouterr().out
    assert code == 0
    record = json.loads(out)
    assert record["text"].endswith("food")
    assert record["replaced"] == [[1, 4]]


def test_cli_remote_failure_reports_retryable_error(capsys, tmp_path):
    from verseforge.cli import main

    src = tmp_path / "verse.txt"
    src.write_text("where were you\nlast year with no beginners\n")
    with StubServer([(500, {}), (500, {}), (500, {})]) as stub:
        code = main([
            "enhance", str(src), "--predictor", "remote",
            "--endpoint", stub.endpoint, "--min-lines", "1",
        ])
    err = capsys.readouterr().err
    assert code == 1
    assert "attempts" in json.loads(err)["error"]


def _load_predictor_server():
    path = Path(__file__).resolve().parent.parent / "scripts" / "predictor_server.py"
    spec = importlib.util.spec_from_file_location("predictor_server", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def predictor_server():
    """Address of ``scripts/predictor_server.py``'s handler on a loopback port."""
    script = _load_predictor_server()
    predictor = script.build_corpus_predictor([Verse([["day", "way"], ["play", "day"]])])
    server = ThreadingHTTPServer(("127.0.0.1", 0), script.make_handler(predictor))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def _post(address, body: bytes, length: str | None = None):
    conn = http.client.HTTPConnection(*address, timeout=5)
    try:
        conn.putrequest("POST", "/predict")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", str(len(body)) if length is None else length)
        conn.endheaders()
        conn.send(body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_predictor_server_rejects_bad_content_length(predictor_server, length):
    status, _ = _post(predictor_server, b"", length)
    assert status == 400


@pytest.mark.parametrize(
    "mask_index, k",
    [(5, 3), (-1, 3), (True, 3), (0, True), (0, 0), (0.0, 3)],
)
def test_predictor_server_rejects_bad_mask_index_or_k(predictor_server, mask_index, k):
    payload = {"tokens": ["<mask>"], "mask_index": mask_index, "k": k}
    status, _ = _post(predictor_server, json.dumps(payload).encode())
    assert status == 400
    # the server keeps answering
    valid = {"tokens": ["<mask>"], "mask_index": 0, "k": 3}
    status, body = _post(predictor_server, json.dumps(valid).encode())
    assert status == 200
    assert [c["token"] for c in json.loads(body)["candidates"]] == ["day", "way", "play"]
