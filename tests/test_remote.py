"""Remote masked-predictor client against a scripted loopback HTTP stub."""

import contextlib
import dataclasses
import http.client
import importlib.util
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests
from hypothesis import example, given, settings, strategies as st

from verseforge.corpus import Verse
from verseforge.enhance import (
    CandidateList,
    EnhanceConfig,
    PredictorProtocolError,
    PredictorQuery,
    PredictorRetryableError,
    RemotePredictor,
    _parse_response,
    enhance_verse,
    remote_predict,
)

from conftest import reference_parse_response


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


def _reply(body: bytes) -> requests.Response:
    """A 200 reply as ``requests`` builds it for an ``application/json`` body."""
    resp = requests.Response()
    resp.status_code = 200
    resp.headers["Content-Type"] = "application/json"
    resp.encoding = requests.utils.get_encoding_from_headers(resp.headers)
    resp._content = body
    return resp


def _outcome(parse, body: bytes, k: int):
    try:
        return repr(parse(_reply(body), k))
    except PredictorProtocolError as exc:
        return type(exc.__cause__), str(exc)


# JSON text of a token or a score: well-formed values, the other JSON
# types, and numbers a float cannot hold (NaN, infinities, huge integers).
_TOKENS = st.one_of(
    st.text(max_size=6).map(json.dumps),
    st.sampled_from(["5", "1.5", "true", "false", "null", "[]", '{"a": 1}']),
)
_SCORES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.integers(-1000, 1000).map(str),
    st.integers(10**308, 10**320).map(str),
    st.integers(10**308, 10**320).map(lambda n: str(-n)),
    st.sampled_from(
        ["NaN", "Infinity", "-Infinity", "1e400", "true", "false", "null", '"2.0"', "[]"]
    ),
)


@st.composite
def _items(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["1", '"food"', "null", "true", "[]", '[{"token": "a"}]']))
    fields = []
    if draw(st.booleans()):
        fields.append(f'"token": {draw(_TOKENS)}')
    if draw(st.booleans()):
        fields.append(f'"score": {draw(_SCORES)}')
    if draw(st.booleans()):
        fields.append('"extra": 1')
    return "{" + ", ".join(draw(st.permutations(fields))) + "}"


@st.composite
def _sorted_items(draw):
    scores = draw(st.lists(st.integers(-5, 5) | st.floats(-5, 5), max_size=10))
    scores.sort(reverse=True)
    return [
        json.dumps({"token": draw(st.text(max_size=4)), "score": score}) for score in scores
    ]


def _candidates_body(items) -> bytes:
    return ('{"candidates": [' + ", ".join(items) + "]}").encode()


# Numbers only, so whole lists get to the order and finiteness checks.
_WELL_TYPED_ITEMS = st.builds(
    '{{"token": {}, "score": {}}}'.format,
    st.text(max_size=4).map(json.dumps),
    (st.floats() | st.integers(-5, 5)).map(json.dumps),
)

_BODIES = st.one_of(
    st.lists(_items(), max_size=10).map(_candidates_body),
    st.lists(_WELL_TYPED_ITEMS, max_size=10).map(_candidates_body),
    _sorted_items().map(_candidates_body),
    st.sampled_from([b"", b"not json", b"\xff", b"[]", b"{}", b'{"candidates": {}}', b"null"]),
)


@settings(max_examples=400, deadline=None)
@given(body=_BODIES, k=st.integers(1, 8))
@example(body=_candidates_body([]), k=1)
@example(body=_candidates_body(['{"token": "a", "score": 1%s}' % ("0" * 400), "5"]), k=5)
@example(body=_candidates_body(["5", '{"token": "a", "score": 1%s}' % ("0" * 400)]), k=5)
@example(body=_candidates_body(['{"token": "a", "score": 1e400}', "5"]), k=5)
@example(
    body=_candidates_body(['{"token": "a", "score": 1}', '{"token": "b", "score": 2}']), k=1
)
def test_reply_parse_matches_reference(body, k):
    assert _outcome(_parse_response, body, k) == _outcome(reference_parse_response, body, k)


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


# A loopback port with nothing listening: a proxy there refuses every request.
CLOSED_PROXY = "http://127.0.0.1:9"


@pytest.fixture
def proxy_env(monkeypatch):
    """``monkeypatch`` with every proxy variable cleared, either case."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


@pytest.fixture
def posted_proxies(monkeypatch):
    """The ``proxies`` argument of every ``requests.post`` call, in order."""
    seen = []
    post = requests.post

    def recording_post(*args, **kwargs):
        seen.append(kwargs.get("proxies"))
        return post(*args, **kwargs)

    monkeypatch.setattr(requests, "post", recording_post)
    return seen


def test_predictor_without_proxy_names_its_host_as_no_proxy(proxy_env, posted_proxies):
    with StubServer([(500, {}), (200, None)]) as stub:
        predictor = RemotePredictor(stub.endpoint, backoff=0)
        for _ in range(3):
            assert predictor.predict(QUERY).tokens()[0] == "food"
    assert len(stub.requests) == 4
    assert posted_proxies == [{"no_proxy": "127.0.0.1"}] * 4


def test_predictor_honours_a_proxy_for_its_endpoint(proxy_env, posted_proxies):
    proxy_env.setenv("HTTP_PROXY", CLOSED_PROXY)
    with StubServer([(200, None)]) as stub:
        with pytest.raises(PredictorRetryableError):
            RemotePredictor(stub.endpoint, backoff=0).predict(QUERY)
    assert stub.requests == []
    assert posted_proxies == [None] * 3


def test_predictor_goes_direct_to_a_no_proxy_host(proxy_env):
    proxy_env.setenv("HTTP_PROXY", CLOSED_PROXY)
    proxy_env.setenv("NO_PROXY", "127.0.0.1")
    with StubServer([(200, None)]) as stub:
        assert RemotePredictor(stub.endpoint, backoff=0).predict(QUERY).tokens()[0] == "food"
    assert len(stub.requests) == 1


def test_resolved_proxies_stay_out_of_equality_repr_and_replace(proxy_env):
    with StubServer([(200, None)]) as stub:
        resolved = RemotePredictor(stub.endpoint, backoff=0)
        resolved.predict(QUERY)
        fresh = RemotePredictor(stub.endpoint, backoff=0)
        assert resolved == fresh
        assert repr(resolved) == repr(fresh)
        # The environment is read once per predictor: a proxy set after the
        # first request is seen by a copy, not by the resolved predictor.
        proxy_env.setenv("HTTP_PROXY", CLOSED_PROXY)
        copy = dataclasses.replace(resolved)
        resolved.predict(QUERY)
        with pytest.raises(PredictorRetryableError):
            copy.predict(QUERY)
    assert len(stub.requests) == 2


@pytest.mark.parametrize("endpoint", ["http:///x", "127.0.0.1:9"])
def test_endpoint_without_host_fails_as_remote_predict_does(endpoint, posted_proxies):
    with pytest.raises(PredictorRetryableError) as direct:
        remote_predict(endpoint, QUERY, backoff=0)
    with pytest.raises(PredictorRetryableError) as via_predictor:
        RemotePredictor(endpoint, backoff=0).predict(QUERY)
    assert str(via_predictor.value) == str(direct.value)
    assert posted_proxies == [None] * 6


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


@contextlib.contextmanager
def _serving(predictor):
    """Serve ``scripts/predictor_server.py``'s handler over ``predictor`` on loopback."""
    handler = _load_predictor_server().make_handler(predictor)
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
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


@pytest.fixture
def predictor_server():
    """Address of ``scripts/predictor_server.py``'s handler on a loopback port."""
    script = _load_predictor_server()
    predictor = script.build_corpus_predictor([Verse([["day", "way"], ["play", "day"]])])
    with _serving(predictor) as address:
        yield address


def test_served_corpus_predictor_enhances_as_the_in_process_one(capsys):
    # The served predictor is built as scripts/predictor_server.py builds it
    # without --lexicon.
    from verseforge.cli import main
    from conftest import DATA_DIR, PKG_DATA_DIR

    mini = str(DATA_DIR / "mini_corpus")
    lexicon = str(PKG_DATA_DIR / "cmudict_sample.txt")
    script = _load_predictor_server()
    verses = [v for doc in script.load_corpus(mini, "lyrics") for v in script.split_verses(doc, 4)]
    with _serving(script.build_corpus_predictor(verses, script.Lexicon())) as (host, port):
        endpoint = f"http://{host}:{port}"
        code = main(["enhance", mini, "--predictor", "remote", "--endpoint", endpoint, "--lexicon", lexicon])
        remote = capsys.readouterr().out
    assert code == 0
    assert main(["enhance", mini, "--predictor", "corpus", "--corpus", mini, "--lexicon", lexicon]) == 0
    assert capsys.readouterr().out == remote
    records = [json.loads(line) for line in remote.splitlines()]
    assert {r["doc"] for r in records} == {f"doc_{c}" for c in "abcde"}
    assert any(r["replaced"] for r in records)


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


def _predict_body(k: int) -> bytes:
    return json.dumps({"tokens": ["<mask>"], "mask_index": 0, "k": k}).encode()


def test_predictor_server_repeats_one_body_for_a_repeated_query(predictor_server):
    first = _post(predictor_server, _predict_body(3))
    second = _post(predictor_server, _predict_body(3))
    assert first == second
    assert json.loads(first[1]) == {
        "candidates": [
            {"token": "day", "score": 1.2},
            {"token": "way", "score": 1.1},
            {"token": "play", "score": 0.1},
        ]
    }


def test_predictor_server_answers_alternating_k_with_each_top_k(predictor_server):
    for k in (3, 2, 3, 1, 2, 2, 3):
        status, body = _post(predictor_server, _predict_body(k))
        assert status == 200
        tokens = [c["token"] for c in json.loads(body)["candidates"]]
        assert tokens == ["day", "way", "play"][:k]


def test_predictor_server_threads_never_mix_bodies():
    # More client threads than cores, each alternating k, so the server's
    # handler threads keep swapping the kept reply while others read it.
    # Long lists keep each encoding slow enough for threads to overlap it.
    script = _load_predictor_server()
    words = [f"w{i:03d}" for i in range(300)]
    predictor = script.build_corpus_predictor(
        [Verse([words[i:i + 10]]) for i in range(0, 300, 10)]
    )
    ks = (100, 200, 300)
    mismatches = []
    with _serving(predictor) as address:
        expected = {k: _post(address, _predict_body(k)) for k in ks}

        def client(offset):
            for i in range(100):
                k = ks[(i + offset) % 3]
                reply = _post(address, _predict_body(k))
                if reply != expected[k]:
                    mismatches.append((k, reply))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [k for k, _ in mismatches] == []
    assert {len(json.loads(expected[k][1])["candidates"]) for k in ks} == set(ks)


def test_predictor_server_encodes_each_new_list():
    class FreshPredictor:
        """Returns a new list, with new scores, for every query of one k.

        It keeps only the last list's id, and makes each new list at that
        address if it can (a freed object's memory is soon reused), so a
        server that kept ids instead of lists would send a stale body.
        """

        def __init__(self):
            self.calls = 0
            self.last_id = None

        def predict(self, query):
            self.calls += 1
            made = []
            for _ in range(1000):
                made.append(CandidateList((("day", float(self.calls)), ("way", 0.0))))
                if id(made[-1]) == self.last_id:
                    break
            self.last_id = id(made[-1])
            return made[-1]

    with _serving(FreshPredictor()) as address:
        scores = [
            json.loads(_post(address, _predict_body(2))[1])["candidates"][0]["score"]
            for _ in range(20)
        ]
    assert scores == [float(n) for n in range(1, 21)]
