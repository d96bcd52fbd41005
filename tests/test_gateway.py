"""Gateway: ingest/dedupe/trigger rules, persistence, latency statistics."""

import csv
import gc
import logging
import socket
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from shmlink import gateway as gateway_mod
from shmlink import mlp
from shmlink.dataset import AlignedRecord, read_table_csv, write_table_csv
from shmlink.gateway import (
    CsvAppender,
    Gateway,
    GatewayConfig,
    NoRecords,
    ServerUnreachable,
    ShapeMismatch,
    TriggerRule,
    latency_summary,
    node_listener,
    read_node_stream,
    serve_nodes,
)
from shmlink.protocol import TelemetryFrame, encode, send_message
from shmlink.server import ServerConfig, serve


def frame(counter, resistances=(47.0, 120.0), node_id=0):
    return TelemetryFrame(counter=counter, node_id=node_id, resistances=resistances)


def latency_log(gw) -> list[dict]:
    """The rows of ``gw``'s latency log: counter and node as int, times as float."""
    with open(gw.config.latency_log_path, encoding="utf-8", newline="") as fh:
        return [{k: int(v) if k in ("frame_counter", "node_id") else float(v)
                 for k, v in row.items()} for row in csv.DictReader(fh)]


def dead_endpoint() -> str:
    """An address on which nothing listens: a port bound once, then closed."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


@pytest.fixture
def offline_gateway(tmp_path):
    """Gateway whose triggers only write upload files; no server needed."""
    config = GatewayConfig(node_endpoints=["127.0.0.1:0"],
                           server_endpoint="127.0.0.1:1",
                           mode="poll-compat",
                           upload_dir=str(tmp_path / "uploads"),
                           persistence_path=str(tmp_path / "telemetry.csv"),
                           trigger=TriggerRule(every_frame=False, delta_ohm=1e9),
                           retry_backoff=0.001)
    gw = Gateway(config)
    yield gw
    gw.close()


@pytest.fixture
def served_gateway(tmp_path):
    rng = np.random.default_rng(0)
    model = mlp.init_model(2, 8, mu=np.array([47.0, 120.0]), sigma=np.ones(2), rng=rng)
    model_path = tmp_path / "model.json"
    mlp.save_model(model, model_path)
    server = serve(ServerConfig(host="127.0.0.1", port=0,
                                model_files={"default": str(model_path)}))
    host, port = server.address
    gw = Gateway(GatewayConfig(node_endpoints=["127.0.0.1:0"],
                               server_endpoint=f"{host}:{port}",
                               persistence_path=str(tmp_path / "telemetry.csv"),
                               latency_log_path=str(tmp_path / "latency.csv"),
                               retry_backoff=0.001))
    yield gw, server
    gw.close()
    server.stop()


# -- ingest and trigger rules -----------------------------------------------------------


def test_every_frame_rule_requests_once_per_frame(served_gateway):
    gw, _ = served_gateway
    for i in range(5):
        assert gw.ingest(frame(i)) is True
    assert len(latency_log(gw)) == 5


def test_delta_rule_hand_trace(tmp_path, served_gateway):
    gw, server = served_gateway
    gw.config.trigger = TriggerRule(every_frame=False, delta_ohm=0.5)
    fired = [gw.ingest(frame(i, resistances=(r, 0.0)))
             for i, r in enumerate([50.0, 50.2, 51.0])]
    assert fired == [True, False, True]  # baseline, +0.2 quiet, +1.0 fires


def test_duplicate_counter_dropped(offline_gateway, tmp_path):
    assert offline_gateway.ingest(frame(0)) is True  # first frame sets baseline
    assert offline_gateway.ingest(frame(1)) is False
    assert offline_gateway.ingest(frame(1)) is False  # duplicate: dropped
    offline_gateway.close()
    rows = read_table_csv((tmp_path / "telemetry.csv").read_text())
    assert len(rows) == 2


def test_duplicate_does_not_trigger(served_gateway):
    gw, _ = served_gateway
    gw.ingest(frame(3))
    gw.ingest(frame(3))
    assert len(latency_log(gw)) == 1


def test_persistence_completeness_arrival_order(offline_gateway, tmp_path):
    sent = [frame(i, resistances=(47.0 + i, 120.0)) for i in range(20)]
    for f in sent:
        offline_gateway.ingest(f)
    offline_gateway.ingest(frame(7, resistances=(999.0, 999.0)))  # duplicate
    offline_gateway.close()
    rows = read_table_csv((tmp_path / "telemetry.csv").read_text())
    assert [r.t for r in rows] == [float(i) for i in range(20)]
    assert [r.resistances[0] for r in rows] == [47.0 + i for i in range(20)]


def test_poll_upload_time_is_persisted_time(offline_gateway, tmp_path, monkeypatch):
    ticks = iter(range(1000, 1100))  # every wall-clock reading differs
    monkeypatch.setattr(gateway_mod, "time", SimpleNamespace(
        time=lambda: float(next(ticks)), perf_counter=time.perf_counter))
    assert offline_gateway.ingest(frame(5)) is True
    offline_gateway.close()
    persisted = read_table_csv((tmp_path / "telemetry.csv").read_text())
    uploaded = read_table_csv((tmp_path / "uploads" / "trigger_0000_00000005.csv").read_text())
    assert [r.time for r in uploaded] == [r.time for r in persisted] == [1000.0]


# -- crash-safe persistence ----------------------------------------------------------------


HEADER = ["index", "Time", "Strain", "t", "R1"]


def test_persisted_rows_are_table_csv_rows(offline_gateway, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1700000000.1234567)
    resistances = (47.000123, 1 / 3)
    offline_gateway.ingest(frame(7, resistances))
    offline_gateway.ingest(frame(8, resistances))
    expected = write_table_csv([AlignedRecord(time=1700000000.1234567, strain=float("nan"),
                                              t=float(counter), resistances=resistances)
                                for counter in (7, 8)])
    assert (tmp_path / "telemetry.csv").read_bytes() == expected.encode("utf-8")


def test_torn_final_line_quarantined(tmp_path):
    path = tmp_path / "t.csv"
    appender = CsvAppender(path, HEADER)
    appender.append(["1.0", "nan", "0.0", "47.0"])
    appender.append(["2.0", "nan", "1.0", "47.1"])
    appender.close()
    # simulate a crash mid-append
    with open(path, "a") as fh:
        fh.write("2,3.0,nan,2.0,4")
    reopened = CsvAppender(path, HEADER)
    reopened.append(["4.0", "nan", "3.0", "47.3"])
    reopened.close()

    rows = read_table_csv(path.read_text())
    assert [r.t for r in rows] == [0.0, 1.0, 3.0]
    assert (tmp_path / "t.csv.quarantine").read_text() == "2,3.0,nan,2.0,4"


def test_unparseable_complete_line_quarantined(tmp_path):
    path = tmp_path / "t.csv"
    appender = CsvAppender(path, HEADER)
    appender.append(["1.0", "nan", "0.0", "47.0"])
    appender.close()
    with open(path, "a") as fh:
        fh.write("not,a,valid,row,x\n")
    reopened = CsvAppender(path, HEADER)
    reopened.close()
    assert "not,a,valid" in (tmp_path / "t.csv.quarantine").read_text()
    assert len(read_table_csv(path.read_text())) == 1


def test_restart_reads_only_the_tail(tmp_path):
    path = tmp_path / "t.csv"
    body = "".join(f"{i},1700000000.0,nan,{i}.0,47.0\n" for i in range(100_000))
    path.write_text(",".join(HEADER) + "\n" + body + "100000,1700000000.1,na")
    tracemalloc.start()
    try:
        appender = CsvAppender(path, HEADER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    appender.close()
    assert peak < 1 << 20
    assert appender.next_index == 100_000
    assert (tmp_path / "t.csv.quarantine").read_text() == "100000,1700000000.1,na"


def test_index_resumes_after_restart(tmp_path):
    path = tmp_path / "t.csv"
    a = CsvAppender(path, HEADER)
    a.append(["1.0", "nan", "0.0", "47.0"])
    a.append(["1.1", "nan", "1.0", "47.0"])
    a.close()
    b = CsvAppender(path, HEADER)
    assert b.append(["1.2", "nan", "2.0", "47.0"]) == 2
    b.close()
    assert [r.time for r in read_table_csv(path.read_text())] == [1.0, 1.1, 1.2]


# -- prediction requests ---------------------------------------------------------------------


def test_request_prediction_round_trip(served_gateway):
    gw, _ = served_gateway
    predictions = gw.request_prediction([[47.0, 120.0]])
    assert len(predictions) == 1


def test_loopback_end_to_end_under_one_second(served_gateway):
    gw, _ = served_gateway
    gw.ingest(frame(0))
    assert latency_log(gw)[0]["end_to_end"] < 1.0


def test_server_down_unreachable_after_retries(tmp_path):
    gw = Gateway(GatewayConfig(node_endpoints=["127.0.0.1:0"],
                               server_endpoint=dead_endpoint(),
                               persistence_path=str(tmp_path / "t.csv"),
                               retry_backoff=0.001, connect_timeout=0.2))
    with pytest.raises(ServerUnreachable):
        gw.request_prediction([[1.0, 2.0]])
    gw.close()


def test_wrong_width_raises_shape_mismatch(served_gateway):
    gw, _ = served_gateway
    with pytest.raises(ShapeMismatch):
        gw.request_prediction([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]])


def test_latency_fields_monotone(served_gateway):
    gw, _ = served_gateway
    gw.ingest(frame(0))
    rec = latency_log(gw)[0]
    assert rec["t_frame_received"] <= rec["t_request_sent"] <= rec["t_response_received"]


def test_latency_log_layout(served_gateway):
    gw, _ = served_gateway
    gw.ingest(frame(4, node_id=2))
    header, row = Path(gw.config.latency_log_path).read_text(encoding="utf-8").splitlines()
    assert header == ("frame_counter,node_id,t_frame_received,t_request_sent,"
                      "t_response_received,end_to_end")
    counter, node, received, _, done, end_to_end = row.split(",")
    assert (counter, node) == ("4", "2")
    assert end_to_end == repr(float(done) - float(received))
    assert gw.answered == 1


# -- trigger combining ---------------------------------------------------------------------


def test_concurrent_triggers_coalesce_bit_identically(served_gateway, tmp_path):
    gw, server = served_gateway
    model = mlp.load_model(tmp_path / "model.json")
    answered = []  # (rows, predictions) of every predict the server handled
    handle_predict = server.handle_predict

    def slow_handle_predict(model_id, rows):
        result = handle_predict(model_id, rows)
        answered.append((rows, result["predictions"]))
        time.sleep(0.005)  # a round trip long enough for other nodes to queue
        return result

    server.handle_predict = slow_handle_predict

    def node(node_id):
        rng = np.random.default_rng(node_id)
        for counter in range(50):
            gw.ingest(frame(counter, tuple(rng.normal((47.0, 120.0), 1.0).tolist()), node_id))

    nodes = [threading.Thread(target=node, args=(node_id,)) for node_id in range(3)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in nodes:
            t.start()
        for t in nodes:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(t.is_alive() for t in nodes)

    assert gw._pending == [] and gw._sending is False
    answered_frames = sorted((r["node_id"], r["frame_counter"]) for r in latency_log(gw))
    assert answered_frames == [(n, c) for n in range(3) for c in range(50)]
    assert sum(len(rows) for rows, _ in answered) == 150
    assert len(answered) < 150
    assert max(len(rows) for rows, _ in answered) > 1
    for rows, predictions in answered:
        assert [p.hex() for p in predictions] == [mlp.forward(model, r).hex() for r in rows]


def test_failed_batch_leaves_nothing_pending(served_gateway, caplog):
    gw, _ = served_gateway
    request_prediction = gw.request_prediction
    queued = []

    def fail_once(rows):
        # frames from another node arrive while this send is in flight
        gw.request_prediction = request_prediction
        other = threading.Thread(target=lambda: queued.extend(
            gw.ingest(frame(counter, node_id=1)) for counter in range(3)))
        other.start()
        other.join(timeout=10)
        raise ServerUnreachable("server down")

    gw.request_prediction = fail_once
    with caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
        with pytest.raises(ServerUnreachable):
            gw.ingest(frame(0))
    assert queued == [True, True, True]  # queued behind the sender, returned at once
    assert gw._pending == [] and gw._sending is False
    assert latency_log(gw) == []
    assert "[(0, 0), (1, 0), (1, 1), (1, 2)]" in caplog.text
    assert gw.ingest(frame(1)) is True  # the next trigger is sent inline again
    assert [(r["node_id"], r["frame_counter"]) for r in latency_log(gw)] == [(0, 1)]


# -- latency summary -----------------------------------------------------------------------


def test_summary_hand_values():
    summary = latency_summary([0.1, 0.2, 0.3])
    assert summary["mean"] == pytest.approx(0.2)
    assert summary["p50"] == 0.2
    assert summary["max"] == 0.3


def test_summary_single_record():
    summary = latency_summary([0.42])
    assert summary["mean"] == summary["p50"] == summary["p95"] == summary["max"] == 0.42


def test_summary_nearest_rank_matches_sort_oracle():
    rng = np.random.default_rng(1)
    values = rng.exponential(0.2, 100)
    summary = latency_summary([float(v) for v in values])
    ordered = sorted(values)
    assert summary["p95"] == ordered[94]   # nearest-rank: ceil(0.95*100) = 95th value
    assert summary["p50"] == ordered[49]


def test_summary_no_records():
    with pytest.raises(NoRecords):
        latency_summary([])


# -- live node intake ---------------------------------------------------------------------


def test_serve_nodes_two_concurrent_streams(tmp_path):
    listener = node_listener("127.0.0.1", 0)
    endpoint = listener.getsockname()
    gw = Gateway(GatewayConfig(node_endpoints=[f"{endpoint[0]}:{endpoint[1]}"],
                               server_endpoint="127.0.0.1:1",
                               mode="poll-compat", upload_dir=str(tmp_path / "up"),
                               trigger=TriggerRule(every_frame=False, delta_ohm=1e9),
                               persistence_path=str(tmp_path / "t.csv")))
    stop = threading.Event()
    acceptor = threading.Thread(target=serve_nodes, args=(listener, gw, stop), daemon=True)
    acceptor.start()

    def stream(node_id):
        sock = socket.create_connection(endpoint, timeout=5)
        with sock:
            for counter in range(25):
                send_message(sock, encode(frame(counter, node_id=node_id,
                                                resistances=(47.0 + node_id, 120.0))))

    senders = [threading.Thread(target=stream, args=(nid,)) for nid in (1, 2)]
    for s in senders:
        s.start()
    for s in senders:
        s.join()

    deadline = 50
    import time as _time
    while sum(len(v) for v in gw._seen.values()) < 50 and deadline:
        _time.sleep(0.05)
        deadline -= 1
    stop.set()
    acceptor.join(timeout=10)
    listener.close()
    gw.close()

    rows = read_table_csv((tmp_path / "t.csv").read_text())
    assert len(rows) == 50  # every frame from both nodes exactly once
    by_node = {47.0 + 1: 0, 47.0 + 2: 0}
    for r in rows:
        by_node[r.resistances[0]] += 1
    assert by_node == {48.0: 25, 49.0: 25}


def test_serve_nodes_stops_promptly_with_idle_node(offline_gateway):
    before = set(threading.enumerate())
    listener = node_listener("127.0.0.1", 0)
    stop = threading.Event()
    acceptor = threading.Thread(target=serve_nodes, args=(listener, offline_gateway, stop))
    acceptor.start()
    try:
        with socket.create_connection(listener.getsockname(), timeout=5) as node:
            send_message(node, encode(frame(0)))
            deadline = time.perf_counter() + 5
            while not offline_gateway._seen and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert offline_gateway._seen  # the reader is up, now idle in recv
            stopped = time.perf_counter()
            stop.set()
            acceptor.join(timeout=10)
            assert time.perf_counter() - stopped < 1.0
    finally:
        stop.set()
        acceptor.join(timeout=10)
        listener.close()
    assert [t for t in threading.enumerate() if t not in before] == []


def test_node_listener_failed_bind_closes_socket():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OSError):
            node_listener("256.0.0.1", 0)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_read_node_stream_skips_undecodable_frames(tmp_path, offline_gateway):
    server, client = socket.socketpair()
    with client:
        send_message(client, encode(frame(0)))
        send_message(client, b"garbage that fails to decode")
        send_message(client, encode(frame(1)))
    with server:
        count = read_node_stream(server, offline_gateway)
    assert count == 2


def test_read_node_stream_survives_unreachable_server(tmp_path):
    gw = Gateway(GatewayConfig(node_endpoints=["127.0.0.1:0"],
                               server_endpoint=dead_endpoint(),
                               persistence_path=str(tmp_path / "t.csv"),
                               retry_backoff=0.001, connect_timeout=0.2))
    server, client = socket.socketpair()
    with client:
        for counter in range(5):
            send_message(client, encode(frame(counter)))
    with server:
        count = read_node_stream(server, gw)
    gw.close()
    assert count == 5
    rows = read_table_csv((tmp_path / "t.csv").read_text())
    assert [r.t for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_poll_compat_without_upload_dir_rejected(tmp_path):
    with pytest.raises(ValueError, match="upload_dir"):
        GatewayConfig(mode="poll-compat", persistence_path=str(tmp_path / "t.csv"))


def test_read_node_stream_survives_unwritable_upload(tmp_path, caplog):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    gw = Gateway(GatewayConfig(mode="poll-compat", upload_dir=str(blocker),
                               persistence_path=str(tmp_path / "t.csv")))
    server, client = socket.socketpair()
    with client:
        for counter in range(5):
            send_message(client, encode(frame(counter)))
    with server, caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
        count = read_node_stream(server, gw)
    gw.close()
    assert count == 5
    rows = read_table_csv((tmp_path / "t.csv").read_text())
    assert [r.t for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert gw._pending_polls == {}
    assert "prediction lost for (node, counter) (0, 4)" in caplog.text


def test_request_prediction_reconnects_after_server_restart(tmp_path):
    rng = np.random.default_rng(0)
    model = mlp.init_model(2, 4, mu=np.zeros(2), sigma=np.ones(2), rng=rng)
    model_path = tmp_path / "model.json"
    mlp.save_model(model, model_path)

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    def start_server():
        return serve(ServerConfig(host="127.0.0.1", port=port,
                                  model_files={"default": str(model_path)}))

    first = start_server()
    gw = Gateway(GatewayConfig(node_endpoints=["127.0.0.1:0"],
                               server_endpoint=f"127.0.0.1:{port}",
                               persistence_path=str(tmp_path / "t.csv"),
                               retry_backoff=0.02, connect_timeout=1.0))
    before = gw.request_prediction([[0.5, -0.5]])
    first.stop()

    # while the server is down the gateway burns its retries and drops the
    # stale connection (releasing the port from FIN_WAIT on the server side)
    with pytest.raises(ServerUnreachable):
        gw.request_prediction([[0.5, -0.5]])

    second = start_server()
    try:
        after = gw.request_prediction([[0.5, -0.5]])  # reconnects transparently
        assert after == before  # purity across restarts, via the gateway
    finally:
        gw.close()
        second.stop()
