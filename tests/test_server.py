"""Inference service: message protocol, prediction semantics, poll topology."""

import json
import socket
import threading

import numpy as np
import pytest

from shmlink import mlp
from shmlink.dataset import AlignedRecord, write_table_csv
from shmlink.protocol import recv_message, send_message
from shmlink.server import InferenceServer, ModelNotLoaded, PredictRequest, ServerConfig, serve


@pytest.fixture
def model_file(tmp_path):
    rng = np.random.default_rng(0)
    model = mlp.init_model(2, 8, mu=np.array([51.0, 43.0]), sigma=np.ones(2), rng=rng)
    path = tmp_path / "model.json"
    mlp.save_model(model, path)
    return path


@pytest.fixture
def running_server(tmp_path, model_file):
    config = ServerConfig(host="127.0.0.1", port=0,
                          model_files={"default": str(model_file)},
                          upload_dir=str(tmp_path / "uploads"))
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


def test_upload_data(running_server, tmp_path):
    reply = roundtrip(running_server, {"type": "upload_data", "name": "batch1.csv",
                                       "content": "index,Time,Strain,t,R1,R2\n"})
    assert reply["type"] == "upload_ok"
    assert (tmp_path / "uploads" / "batch1.csv").read_text() == "index,Time,Strain,t,R1,R2\n"


@pytest.mark.parametrize("name", ["", ".", "..", "a\0b.csv"])
def test_upload_rejects_names_that_are_not_files(running_server, tmp_path, name):
    before = sorted(tmp_path.rglob("*"))
    reply = roundtrip(running_server, {"type": "upload_data", "name": name,
                                       "content": "index,Time,Strain,t,R1\n"})
    assert reply["type"] == "error" and reply["error"] == "bad_message"
    assert sorted(tmp_path.rglob("*")) == before  # nothing written or replaced


def test_load_model_inline_document(running_server):
    rng = np.random.default_rng(3)
    other = mlp.init_model(2, 4, mu=np.zeros(2), sigma=np.ones(2), rng=rng)
    reply = roundtrip(running_server, {"type": "load_model", "model_id": "alt",
                                       "document": mlp.model_to_doc(other)})
    assert reply == {"type": "load_model_ok", "model_id": "alt"}
    predict_reply = roundtrip(running_server, {"type": "predict", "request_id": 5,
                                               "model_id": "alt", "rows": [[0.0, 0.0]]})
    assert predict_reply["predictions"][0] == mlp.forward(other, [0.0, 0.0])


def test_poll_config_message(running_server):
    reply = roundtrip(running_server, {"type": "poll_config", "enabled": True,
                                       "interval": 0.05})
    assert reply["type"] == "poll_config_ok"
    assert reply["enabled"] is True
    off = roundtrip(running_server, {"type": "poll_config", "enabled": False})
    assert off["enabled"] is False


# -- prediction semantics -----------------------------------------------------------


def test_handle_predict_matches_local_forward(running_server, model_file):
    local = mlp.load_model(model_file)
    rows = np.array([[51.4, 42.9], [50.1, 43.3]])
    response = running_server.handle_predict(
        PredictRequest(request_id=1, model_id="default", rows=rows, timestamp=0.0))
    assert list(response.predictions) == [mlp.forward(local, r) for r in rows]


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
    with pytest.raises(ModelNotLoaded):
        server.handle_predict(PredictRequest(request_id=0, model_id="default",
                                             rows=np.zeros((1, 2)), timestamp=0.0))


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


# -- poll topology ------------------------------------------------------------------------


def upload_record_csv(tmp_path, name, resistances):
    rec = AlignedRecord(time=0.0, strain=float("nan"), t=0.0, resistances=resistances)
    path = tmp_path / "uploads" / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(write_table_csv([rec]), encoding="utf-8")
    return path


def test_poll_scan_predicts_new_files(running_server, tmp_path, model_file):
    path = upload_record_csv(tmp_path, "t1.csv", (51.0, 43.0))
    handled = running_server.poll_scan_once(tmp_path / "uploads")
    assert handled == 1
    doc = json.loads(path.with_suffix(".pred.json").read_text())
    local = mlp.load_model(model_file)
    assert doc["predictions"] == [mlp.forward(local, [51.0, 43.0])]
    # second scan leaves answered files alone
    assert running_server.poll_scan_once(tmp_path / "uploads") == 0


def test_poll_scan_skips_bad_files_and_continues(running_server, tmp_path):
    (tmp_path / "uploads").mkdir(exist_ok=True)
    (tmp_path / "uploads" / "broken.csv").write_text("not,a,table\n1,2,3\n")
    upload_record_csv(tmp_path, "good.csv", (51.0, 43.0))
    assert running_server.poll_scan_once(tmp_path / "uploads") == 1
    assert (tmp_path / "uploads" / "good.pred.json").exists()
    assert not (tmp_path / "uploads" / "broken.pred.json").exists()


def test_poll_empty_dir_no_outputs(running_server, tmp_path):
    (tmp_path / "uploads").mkdir(exist_ok=True)
    assert running_server.poll_scan_once(tmp_path / "uploads") == 0
    assert list((tmp_path / "uploads").iterdir()) == []


def test_poll_mode_answers_on_next_scan(running_server, tmp_path):
    import time

    interval = 0.1
    running_server.start_poll_mode(tmp_path / "uploads", interval)
    time.sleep(interval / 2)  # land between scans
    path = upload_record_csv(tmp_path, "timed.csv", (51.0, 43.0))
    submitted = time.perf_counter()
    result = path.with_suffix(".pred.json")
    while not result.exists():
        assert time.perf_counter() - submitted < 5.0
        time.sleep(0.002)
    delay = time.perf_counter() - submitted
    assert 0.0 < delay <= interval + 0.25  # next scan plus processing slack
