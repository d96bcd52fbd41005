"""Inference service: message protocol and prediction semantics."""

import gc
import json
import logging
import socket
import struct
import threading
import warnings
from unittest.mock import ANY

import numpy as np
import pytest

from shmlink import mlp
from shmlink.protocol import MAX_MESSAGE_SIZE, ConnectionClosed, recv_message, send_message
from shmlink.server import InferenceServer, Refused, ServerConfig, serve


@pytest.fixture
def model_file(tmp_path):
    rng = np.random.default_rng(0)
    model = mlp.init_model(2, 8, mu=np.array([51.0, 43.0]), sigma=np.ones(2), rng=rng)
    path = tmp_path / "model.json"
    mlp.save_model(model, path)
    return path


@pytest.fixture
def running_server(model_file):
    config = ServerConfig(host="127.0.0.1", port=0,
                          model_files={"default": str(model_file)})
    server = serve(config)
    yield server
    server.stop()


def roundtrip(server, message: dict, sock=None) -> dict:
    own = sock is None
    if own:
        sock = socket.create_connection(server.address, timeout=5)
    try:
        send_message(sock, json.dumps(message).encode())
        return json.loads(recv_message(sock).decode())
    finally:
        if own:
            sock.close()


# -- message protocol ------------------------------------------------------------


def test_health(running_server):
    reply = roundtrip(running_server, {"type": "health"})
    assert reply["type"] == "health_ok"
    assert reply["model_id"] == "default"


def test_predict_five_rows_echoes_ids(running_server):
    rows = [[51.0 + i, 43.0 - i] for i in range(5)]
    reply = roundtrip(running_server, {"type": "predict", "request_id": 77,
                                       "model_id": "default", "rows": rows})
    assert reply["type"] == "predict_ok"
    assert reply["request_id"] == 77
    assert len(reply["predictions"]) == 5
    assert reply["processing_time"] >= 0.0


def test_wrong_width_keeps_connection_open(running_server):
    sock = socket.create_connection(running_server.address, timeout=5)
    with sock:
        bad = roundtrip(running_server, {"type": "predict", "request_id": 1,
                                         "rows": [[1.0, 2.0, 3.0]]}, sock=sock)
        assert bad == {"type": "error", "error": "shape_mismatch",
                       "detail": bad["detail"], "request_id": 1}
        good = roundtrip(running_server, {"type": "predict", "request_id": 2,
                                          "rows": [[51.0, 43.0]]}, sock=sock)
        assert good["type"] == "predict_ok"


@pytest.mark.parametrize("fields,answer", [
    ({"timestamp": "soon"}, "predict_ok"),
    ({"timestamp": None}, "predict_ok"),
    ({"request_id": "abc"}, "bad_message"),
    ({"request_id": 1.5}, "bad_message"),
    ({"rows": [[None, 43.0]]}, "bad_message"),
    ({"rows": [[51.0, "x"]]}, "bad_message"),
    ({"rows": [["51", 43.0]]}, "bad_message"),
    ({"rows": [[True, 43.0]]}, "bad_message"),
    ({"rows": [[float("nan"), 43.0]]}, "bad_message"),
    ({"rows": [[51.0, float("inf")]]}, "bad_message"),
    ({"rows": [[float("-inf"), 43.0]]}, "bad_message"),
])
def test_predict_fields_other_than_rows_are_not_a_shape_mismatch(running_server, fields, answer):
    reply = roundtrip(running_server, {"type": "predict", "request_id": 1,
                                       "rows": [[51.0, 43.0]], **fields})
    assert answer in (reply["type"], reply.get("error"))


def test_ragged_rows_are_a_shape_mismatch(running_server):
    reply = roundtrip(running_server, {"type": "predict", "request_id": 1,
                                       "rows": [[51.0, 43.0], [51.0]]})
    assert reply["error"] == "shape_mismatch"


def test_unknown_model_id(running_server):
    reply = roundtrip(running_server, {"type": "predict", "request_id": 1,
                                       "model_id": "ghost", "rows": [[1.0, 2.0]]})
    assert reply["error"] == "model_not_loaded"


def test_malformed_json_earns_error_not_disconnect(running_server):
    sock = socket.create_connection(running_server.address, timeout=5)
    with sock:
        send_message(sock, b"{nope")
        reply = json.loads(recv_message(sock).decode())
        assert reply["error"] == "bad_message"
        assert roundtrip(running_server, {"type": "health"}, sock=sock)["type"] == "health_ok"


def test_malformed_message_does_not_disturb_other_connections(running_server):
    results = []

    def well_behaved():
        for _ in range(20):
            results.append(roundtrip(running_server, {"type": "health"})["type"])

    worker = threading.Thread(target=well_behaved)
    worker.start()
    for _ in range(20):
        sock = socket.create_connection(running_server.address, timeout=5)
        with sock:
            send_message(sock, b"\xff\xfe garbage")
            recv_message(sock)
    worker.join()
    assert results == ["health_ok"] * 20


def test_pipelined_requests_answered_in_order(running_server):
    requests = [{"type": "predict", "request_id": i, "rows": [[51.0 + i, 43.0]]}
                for i in range(1, 4)]
    sock = socket.create_connection(running_server.address, timeout=5)
    with sock:  # all three reach the server in one write
        sock.sendall(b"".join(struct.pack("<I", len(doc)) + doc
                              for doc in (json.dumps(r).encode() for r in requests)))
        replies = [json.loads(recv_message(sock).decode()) for _ in requests]
    assert [r["request_id"] for r in replies] == [1, 2, 3]
    assert [r["predictions"] for r in replies] == [
        roundtrip(running_server, r)["predictions"] for r in requests]


def test_oversized_length_prefix_closes_only_that_connection(running_server):
    sock = socket.create_connection(running_server.address, timeout=5)
    with sock:
        sock.sendall(struct.pack("<I", MAX_MESSAGE_SIZE + 1))
        with pytest.raises(ConnectionClosed):
            recv_message(sock)
    assert roundtrip(running_server, {"type": "health"})["type"] == "health_ok"


def test_load_model_inline_document(running_server):
    rng = np.random.default_rng(3)
    other = mlp.init_model(2, 4, mu=np.zeros(2), sigma=np.ones(2), rng=rng)
    reply = roundtrip(running_server, {"type": "load_model", "model_id": "alt",
                                       "document": mlp.model_to_doc(other)})
    assert reply == {"type": "load_model_ok", "model_id": "alt"}
    predict_reply = roundtrip(running_server, {"type": "predict", "request_id": 5,
                                               "model_id": "alt", "rows": [[0.0, 0.0]]})
    assert predict_reply["predictions"][0] == mlp.forward(other, [0.0, 0.0])


@pytest.mark.parametrize("key,value", [("feature_std", [float("nan"), 1.0]),
                                       ("format_version", True),
                                       ("layer_sizes", [2.9, "4", 4, True])])
def test_load_model_that_cannot_predict_is_bad_model(running_server, tmp_path, key, value):
    doc = mlp.model_to_doc(mlp.init_model(2, 4, mu=np.zeros(2), sigma=np.ones(2),
                                          rng=np.random.default_rng(3)))
    doc[key] = value
    path = tmp_path / "spoiled.json"
    path.write_text(json.dumps(doc))  # a NaN as json writes it
    reply = roundtrip(running_server, {"type": "load_model", "model_id": "default",
                                       "path": str(path)})
    assert reply["error"] == "bad_model"
    assert roundtrip(running_server, {"type": "predict", "request_id": 1,
                                      "rows": [[51.0, 43.0]]})["type"] == "predict_ok"


@pytest.mark.parametrize("message", [
    {"type": "poll_config", "enabled": True},
    # a fake poll answer: the server would skip its upload and the gateway count it
    {"type": "upload_data", "name": "trigger_0000_00000001.pred.json", "content": "{}"},
], ids=["poll_config", "upload_data"])
def test_poll_config_is_an_unknown_type(running_server, tmp_path, message):
    before = sorted(tmp_path.rglob("*"))
    reply = roundtrip(running_server, message)
    assert reply["error"] == "bad_message"
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


# -- prediction semantics -----------------------------------------------------------


def test_handle_predict_matches_local_forward(running_server, model_file):
    local = mlp.load_model(model_file)
    rows = np.array([[51.4, 42.9], [50.1, 43.3]])
    result = running_server.handle_predict("default", rows)
    assert result["model_id"] == "default"
    assert result["predictions"] == [mlp.forward(local, r) for r in rows]


def test_evaluate_scores_the_served_answers(model_file):
    rng = np.random.default_rng(6)
    x = rng.normal([51.0, 43.0], 1.0, (480, 2))
    server = InferenceServer(ServerConfig(model_files={"default": str(model_file)}))
    answers = np.array(server.handle_predict("default", x.tolist())["predictions"])
    # targets within a trained model's error of the answers, so an answer's last
    # bit shows in the scores; one (480, 2) product rounds many of these rows differently
    y = answers + rng.normal(0.0, 0.01, 480)
    residual = answers - y
    served = (float(np.mean(residual * residual)), float(np.mean(np.abs(residual))))
    assert mlp.evaluate(mlp.load_model(model_file), x, y) == served


def test_identical_rows_identical_predictions(running_server):
    rows = [[51.0, 43.0]] * 3
    reply = roundtrip(running_server, {"type": "predict", "request_id": 1, "rows": rows})
    assert len(set(reply["predictions"])) == 1


def test_purity_across_restarts(tmp_path, model_file):
    row = [[51.2, 42.8]]

    def one_run():
        server = serve(ServerConfig(host="127.0.0.1", port=0,
                                    model_files={"default": str(model_file)}))
        try:
            return roundtrip(server, {"type": "predict", "request_id": 1, "rows": row})
        finally:
            server.stop()

    assert one_run()["predictions"] == one_run()["predictions"]


def test_handle_predict_model_not_loaded():
    server = InferenceServer(ServerConfig(port=0))
    with pytest.raises(Refused) as exc:
        server.handle_predict("default", [[0.0, 0.0]])
    assert exc.value.error == "model_not_loaded"


# -- lifecycle ---------------------------------------------------------------------------


def test_stop_ends_every_server_thread_with_client_connected(model_file):
    before = set(threading.enumerate())
    server = serve(ServerConfig(host="127.0.0.1", port=0,
                                model_files={"default": str(model_file)}))
    client = socket.create_connection(server.address, timeout=5)
    with client:
        assert roundtrip(server, {"type": "health"}, sock=client)["type"] == "health_ok"
        server.stop()  # the client's handler is idle in recv
        assert [t for t in threading.enumerate() if t not in before] == []
        assert client.recv(1) == b""  # the server shut the connection


# -- startup failures ------------------------------------------------------------------


def test_unloadable_model_fails_startup(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(mlp.CorruptModelFile):
        InferenceServer(ServerConfig(port=0, model_files={"default": str(bad)}))


def test_unbindable_address_fails_startup(model_file):
    server = InferenceServer(ServerConfig(host="203.0.113.7", port=80,
                                          model_files={"default": str(model_file)}))
    with pytest.raises(OSError):
        server.start()


def test_failed_bind_closes_listening_socket():
    server = InferenceServer(ServerConfig(host="256.0.0.1", port=0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OSError):
            server.start()
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# -- predictions that cannot be answered as strict JSON ---------------------------------


def strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def gain_server(tmp_path) -> InferenceServer:
    """A server whose 2-1-1-1 model multiplies the first cell by 1000."""
    gain = [np.array([[10.0, 0.0]]), np.array([[10.0]]), np.array([[10.0]])]
    model = mlp.MlpModel(layer_sizes=[2, 1, 1, 1], weights=gain, biases=[np.zeros(1)] * 3,
                         feature_mean=np.zeros(2), feature_std=np.ones(2))
    mlp.save_model(model, tmp_path / "gain.json")
    return InferenceServer(ServerConfig(model_files={"default": str(tmp_path / "gain.json")}))


def test_predict_that_overflows_is_a_bad_message(tmp_path):
    request = {"type": "predict", "request_id": 5, "rows": [[1e306, 43.0]]}
    with pytest.warns(RuntimeWarning, match="overflow"):
        reply = gain_server(tmp_path).handle_message(json.dumps(request).encode())
    # serialized as the connection handler sends it; a gateway must be able to parse it
    doc = strict_json(json.dumps(reply))
    assert (doc["type"], doc["error"], doc["request_id"]) == ("error", "bad_message", 5)


# -- every refusal, as sent ---------------------------------------------------------------


def predict(**fields) -> bytes:
    return json.dumps({"type": "predict", **fields}).encode()


def load(**fields) -> bytes:
    return json.dumps({"type": "load_model", **fields}).encode()


REFUSALS = [  # request bytes, error code, detail (ANY where numpy or the OS words it), echoed id
    (b"\xff{}", "bad_message",
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte", None),
    (b"{nope", "bad_message",
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)", None),
    (b"[1, 2]", "bad_message", "not an object", None),
    pytest.param(b"[" * 100000, "bad_message", "nested too deeply", None, id="deep_nesting"),
    (b"{}", "bad_message", "'type'", None),
    (b'{"type": "bogus", "request_id": 4}', "bad_message", "unknown type 'bogus'", None),
    (predict(request_id="x", rows=[[1.0, 2.0]]), "bad_message",
     "request_id 'x' is not an integer", None),
    (predict(request_id=None, rows=[[1.0, 2.0]]), "bad_message",
     "request_id None is not an integer", None),
    (predict(request_id=True, rows=[[1.0, 2.0]]), "bad_message",
     "request_id True is not an integer", None),
    (predict(request_id=7), "bad_message", "missing 'rows'", 7),
    (predict(), "bad_message", "missing 'rows'", 0),
    (predict(request_id=1, rows=[[True, 43.0]]), "bad_message",
     "cell True is not a finite number", 1),
    (predict(request_id=2, rows=[[51.0, "x"]]), "bad_message",
     "cell 'x' is not a finite number", 2),
    (b'{"type": "predict", "request_id": 3, "rows": [[NaN, 1.0]]}', "bad_message",
     "cell nan is not a finite number", 3),
    (predict(request_id=4, rows=[[10**400, 1.0]]), "bad_message",
     f"cell {10**400!r} is not a finite number", 4),
    (predict(request_id=5, rows=[[1e306, 43.0]]), "bad_message", "a prediction overflowed", 5),
    (predict(request_id=6, rows=[[1.0, 2.0], [1.0]]), "shape_mismatch", ANY, 6),
    (predict(request_id=7, rows=[[1.0, 2.0, 3.0]]), "shape_mismatch",
     "expected (n, 2) rows, got shape (1, 3)", 7),
    (predict(request_id=8, rows=5), "shape_mismatch", "expected (n, 2) rows, got shape ()", 8),
    (predict(request_id=9, model_id="ghost", rows=[[1.0, 2.0]]), "model_not_loaded",
     "no model loaded under id 'ghost'", 9),
    (load(request_id=3), "bad_message", "missing 'model_id'", None),
    (load(model_id="a"), "bad_message", "missing 'path'", None),
    (load(model_id="a", path="no/such/model.json"), "bad_model", ANY, None),
    (load(model_id="a", document=5), "bad_model", "not a model document", None),
]


@pytest.mark.parametrize("raw,error,detail,request_id", REFUSALS)
def test_refusal_reply_is_exact(tmp_path, raw, error, detail, request_id):
    with np.errstate(over="ignore"):
        reply = gain_server(tmp_path).handle_message(raw)
    expected = {"type": "error", "error": error, "detail": detail}
    if request_id is not None:  # echoed only once a predict's id was found an integer
        expected["request_id"] = request_id
    assert reply == expected
    assert list(reply) == list(expected)
    assert isinstance(reply["detail"], str)


def test_fault_in_the_server_is_an_internal_reply(running_server, monkeypatch, caplog):
    def broken(raw):
        raise RuntimeError("boom")

    monkeypatch.setattr(running_server, "handle_message", broken)
    with caplog.at_level(logging.ERROR, logger="shmlink.server"):
        reply = roundtrip(running_server, {"type": "health"})
    assert list(reply.items()) == [("type", "error"), ("error", "internal"), ("detail", "boom")]
    assert "unhandled error" in caplog.text
