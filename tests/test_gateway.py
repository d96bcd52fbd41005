"""Gateway: ingest/dedupe/trigger rules, persistence, latency statistics."""

import contextlib
import csv
import errno
import gc
import logging
import os
import socket
import struct
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmlink import gateway as gateway_mod
from shmlink import mlp
from shmlink.bench import PollGateway
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
from test_protocol import CutReads


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
def model_server(tmp_path):
    rng = np.random.default_rng(0)
    model = mlp.init_model(2, 8, mu=np.array([47.0, 120.0]), sigma=np.ones(2), rng=rng)
    model_path = tmp_path / "model.json"
    mlp.save_model(model, model_path)
    server = serve(ServerConfig(host="127.0.0.1", port=0,
                                model_files={"default": str(model_path)}))
    yield server
    server.stop()


def quiet_config(tmp_path, server_endpoint: str) -> GatewayConfig:
    """A gateway whose rule fires only on each node's first frame."""
    return GatewayConfig(server_endpoint=server_endpoint,
                         persistence_path=str(tmp_path / "telemetry.csv"),
                         trigger=TriggerRule(every_frame=False, delta_ohm=1e9),
                         retry_backoff=0.001)


@pytest.fixture
def quiet_gateway(tmp_path, model_server):
    gw = Gateway(quiet_config(tmp_path, "%s:%d" % model_server.address))
    yield gw
    gw.close()


@pytest.fixture
def served_gateway(tmp_path, model_server):
    gw = Gateway(GatewayConfig(node_endpoints=["127.0.0.1:0"],
                               server_endpoint="%s:%d" % model_server.address,
                               persistence_path=str(tmp_path / "telemetry.csv"),
                               latency_log_path=str(tmp_path / "latency.csv"),
                               retry_backoff=0.001))
    yield gw, model_server
    gw.close()


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


@pytest.mark.parametrize("delta_ohm", [-1.0, float("nan")])
def test_trigger_rule_refuses_a_delta_below_zero_or_nan(delta_ohm):
    with pytest.raises(ValueError, match="delta_ohm"):
        TriggerRule(every_frame=False, delta_ohm=delta_ohm)


def test_duplicate_counter_dropped(quiet_gateway, tmp_path):
    assert quiet_gateway.ingest(frame(0)) is True  # first frame sets baseline
    assert quiet_gateway.ingest(frame(1)) is False
    assert quiet_gateway.ingest(frame(1)) is False  # duplicate: dropped
    quiet_gateway.close()
    rows = read_table_csv((tmp_path / "telemetry.csv").read_text())
    assert len(rows) == 2


def test_duplicate_does_not_trigger(served_gateway):
    gw, _ = served_gateway
    gw.ingest(frame(3))
    gw.ingest(frame(3))
    assert len(latency_log(gw)) == 1


def test_persistence_completeness_arrival_order(quiet_gateway, tmp_path):
    sent = [frame(i, resistances=(47.0 + i, 120.0)) for i in range(20)]
    for f in sent:
        quiet_gateway.ingest(f)
    quiet_gateway.ingest(frame(7, resistances=(999.0, 999.0)))  # duplicate
    quiet_gateway.close()
    rows = read_table_csv((tmp_path / "telemetry.csv").read_text())
    assert [r.t for r in rows] == [float(i) for i in range(20)]
    assert [r.resistances[0] for r in rows] == [47.0 + i for i in range(20)]


def test_poll_upload_time_is_persisted_time(tmp_path, monkeypatch):
    ticks = iter(range(1000, 1100))  # every wall-clock reading differs
    monkeypatch.setattr(gateway_mod, "time", SimpleNamespace(
        time=lambda: float(next(ticks)), perf_counter=time.perf_counter))
    gw = PollGateway(quiet_config(tmp_path, dead_endpoint()), tmp_path / "uploads")
    assert gw.ingest(frame(5)) is True
    gw.close()
    persisted = read_table_csv((tmp_path / "telemetry.csv").read_text())
    uploaded = read_table_csv((tmp_path / "uploads" / "trigger_0000_00000005.csv").read_text())
    assert [r.time for r in uploaded] == [r.time for r in persisted] == [1000.0]


# -- crash-safe persistence ----------------------------------------------------------------


HEADER = ["index", "Time", "Strain", "t", "R1"]


def test_persisted_rows_are_table_csv_rows(quiet_gateway, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1700000000.1234567)
    resistances = (47.000123, 1 / 3)
    quiet_gateway.ingest(frame(7, resistances))
    quiet_gateway.ingest(frame(8, resistances))
    expected = write_table_csv([AlignedRecord(time=1700000000.1234567, strain=float("nan"),
                                              t=float(counter), resistances=resistances)
                                for counter in (7, 8)])
    assert (tmp_path / "telemetry.csv").read_bytes() == expected.encode("utf-8")


def test_torn_final_line_quarantined(tmp_path):
    path = tmp_path / "t.csv"
    appender = CsvAppender(path, HEADER)
    appender.append([[0, "1.0", "nan", "0.0", "47.0"]])
    appender.append([[1, "2.0", "nan", "1.0", "47.1"]])
    appender.close()
    # simulate a crash mid-append
    with open(path, "a") as fh:
        fh.write("2,3.0,nan,2.0,4")
    reopened = CsvAppender(path, HEADER)
    assert reopened.last_row == ["1", "2.0", "nan", "1.0", "47.1"]
    reopened.append([[2, "4.0", "nan", "3.0", "47.3"]])
    reopened.close()

    rows = read_table_csv(path.read_text())
    assert [r.t for r in rows] == [0.0, 1.0, 3.0]
    assert (tmp_path / "t.csv.quarantine").read_text() == "2,3.0,nan,2.0,4"


def test_unparseable_complete_line_quarantined(tmp_path):
    path = tmp_path / "t.csv"
    appender = CsvAppender(path, HEADER)
    appender.append([[0, "1.0", "nan", "0.0", "47.0"]])
    appender.close()
    with open(path, "a") as fh:
        fh.write("not,a,valid,row,x\n")
    reopened = CsvAppender(path, HEADER)
    reopened.close()
    assert reopened.last_row == ["0", "1.0", "nan", "0.0", "47.0"]
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
    assert appender.last_row == ["99999", "1700000000.0", "nan", "99999.0", "47.0"]
    assert (tmp_path / "t.csv.quarantine").read_text() == "100000,1700000000.1,na"


def test_index_resumes_after_restart(quiet_gateway, tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1700000000.5)
    quiet_gateway.ingest(frame(0))
    quiet_gateway.ingest(frame(1))
    quiet_gateway.close()
    path = tmp_path / "telemetry.csv"
    with open(path, "a") as fh:
        fh.write("2,1700000000.5,nan,2.0,4")  # a crash mid-append
    restarted = Gateway(quiet_gateway.config)
    restarted.ingest(frame(3))
    restarted.close()
    lines = path.read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    assert [r.t for r in read_table_csv(path.read_text())] == [0.0, 1.0, 3.0]


class HalfWriteOnce:
    """A file whose third write writes only the first half of its data, then fails."""

    def __init__(self, fh, short: bool):
        self._fh, self._short, self._writes = fh, short, 0

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, data):
        self._writes += 1
        if self._writes != 3:
            return self._fh.write(data)
        half = self._fh.write(data[:len(data) // 2])
        if self._short:
            return half
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("short", [False, True], ids=["raises", "short"])
def test_failed_append_leaves_no_trace(quiet_gateway, tmp_path, monkeypatch, caplog, short):
    def open_half_write(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return HalfWriteOnce(fh, short) if Path(file).name == "telemetry.csv" and "a" in mode \
            else fh

    monkeypatch.setattr(gateway_mod, "open", open_half_write, raising=False)
    monkeypatch.setattr(time, "time", lambda: 1700000000.5)
    with caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
        for counter in range(3):  # writes: header, counter 0, counter 1 (fails), counter 2
            quiet_gateway.ingest(frame(counter))
    quiet_gateway.close()
    text = (tmp_path / "telemetry.csv").read_text()
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == ["0", "1"]
    assert [r.t for r in read_table_csv(text)] == [0.0, 2.0]
    assert "row for counter 1 from node 0 lost" in caplog.text


def test_unopenable_telemetry_log_loses_rows_not_the_stream(served_gateway, tmp_path, caplog):
    _, server = served_gateway
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    gw = Gateway(GatewayConfig(server_endpoint="%s:%d" % server.address,
                               persistence_path=str(blocker / "t.csv"),
                               latency_log_path=str(tmp_path / "lat.csv"),
                               retry_backoff=0.001))
    reader, client = socket.socketpair()
    with client:
        for counter in range(3):
            send_message(client, encode(frame(counter)))
    with reader, caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
        count = read_node_stream(reader, gw)
    assert count == 3
    assert gw.answered == 3
    assert [r["frame_counter"] for r in latency_log(gw)] == [0, 1, 2]
    assert "row for counter 2 from node 0 lost" in caplog.text
    blocker.unlink()
    blocker.mkdir()
    gw.ingest(frame(3))  # the next batch opens the log
    gw.close()
    assert [r.t for r in read_table_csv((blocker / "t.csv").read_text())] == [3.0]


def test_read_node_stream_stops_at_an_oversized_prefix(quiet_gateway, tmp_path):
    server, client = socket.socketpair()
    with server, client:
        server.settimeout(5)
        client.sendall(b"".join(struct.pack("<I", len(encode(frame(c)))) + encode(frame(c))
                                for c in range(3)))
        client.sendall(struct.pack("<I", 1 << 20) + b"\0" * 100)  # and the rest never comes
        started = time.perf_counter()
        count = read_node_stream(server, quiet_gateway)
        assert time.perf_counter() - started < 1.0
    assert count == 3
    quiet_gateway.close()
    assert [r.t for r in read_table_csv((tmp_path / "telemetry.csv").read_text())] \
        == [0.0, 1.0, 2.0]


def test_lone_frame_is_persisted_at_once(quiet_gateway, tmp_path):
    path = tmp_path / "telemetry.csv"
    server, client = socket.socketpair()
    reader = threading.Thread(target=read_node_stream, args=(server, quiet_gateway))
    reader.start()
    try:
        send_message(client, encode(frame(0)))  # and the connection stays open
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline and not (
                path.exists() and path.read_text().count("\n") == 2):
            time.sleep(0.005)
        assert path.read_text().count("\n") == 2  # header and the row
    finally:
        client.close()
        reader.join(timeout=10)
        server.close()


def intake_gateway(work: Path, delta_ohm: float) -> Gateway:
    """A push gateway whose server answers every row with 0.0 at once."""
    gw = Gateway(GatewayConfig(persistence_path=str(work / "t.csv"),
                               latency_log_path=str(work / "lat.csv"),
                               trigger=TriggerRule(every_frame=False, delta_ohm=delta_ohm)))
    gw.request_prediction = lambda rows: [0.0] * len(rows)
    return gw


@settings(max_examples=60, deadline=None)
@given(specs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 6), st.sampled_from([2, 3]),
                                st.integers(0, 3)), min_size=1, max_size=30),
       cuts=st.lists(st.integers(1, 150), max_size=60),
       delta_ohm=st.sampled_from([0.0, 0.5, 1.0]))
def test_batched_intake_matches_one_frame_at_a_time(specs, cuts, delta_ohm):
    """Node, counter (so duplicates), width and level per frame; reads cut at random sizes."""
    frames = [frame(counter, tuple(47.0 + 0.4 * level + ch for ch in range(width)), node)
              for node, counter, width, level in specs]
    wall = SimpleNamespace(time=lambda: 1700000000.25, perf_counter=time.perf_counter)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(gateway_mod, "time", wall):
        batched_dir, single_dir = Path(tmp, "batched"), Path(tmp, "single")
        batched, single = intake_gateway(batched_dir, delta_ohm), intake_gateway(single_dir,
                                                                                   delta_ohm)
        with contextlib.closing(batched), contextlib.closing(single):
            fired = []
            ingest_frames = batched.ingest_frames

            def recording(batch):
                result = ingest_frames(batch)
                fired.extend(result)
                return result

            batched.ingest_frames = recording
            server, client = socket.socketpair()
            with server, client:
                for f in frames:
                    send_message(client, encode(f))
                client.shutdown(socket.SHUT_WR)
                assert read_node_stream(CutReads(server, cuts), batched) == len(frames)
            assert fired == [single.ingest(f) for f in frames]
        assert (batched_dir / "t.csv").read_bytes() == (single_dir / "t.csv").read_bytes()
        answered = [sorted((r["node_id"], r["frame_counter"]) for r in latency_log(gw))
                    for gw in (batched, single)]
        assert answered[0] == answered[1]
        assert batched.answered == single.answered == len(answered[0])


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


def test_latency_log_torn_tail_quarantined_on_restart(served_gateway):
    gw, _ = served_gateway
    gw.ingest(frame(0))
    gw.close()
    path = Path(gw.config.latency_log_path)
    with open(path, "a") as fh:
        fh.write("1,0,12.5,12.6")  # a crash mid-row
    restarted = Gateway(gw.config)
    restarted.ingest(frame(1))
    restarted.close()
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [6, 6, 6]
    assert [row[0] for row in rows[1:]] == ["0", "1"]
    assert (path.parent / "latency.csv.quarantine").read_text() == "1,0,12.5,12.6"


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
                               server_endpoint=dead_endpoint(),
                               trigger=TriggerRule(every_frame=False, delta_ohm=1e9),
                               persistence_path=str(tmp_path / "t.csv"),
                               retry_backoff=0.001))
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


def test_serve_nodes_stops_promptly_with_idle_node(tmp_path):
    before = set(threading.enumerate())
    # no server: a connection to one would leave its handler thread running
    gw = Gateway(quiet_config(tmp_path, dead_endpoint()))
    listener = node_listener("127.0.0.1", 0)
    stop = threading.Event()
    acceptor = threading.Thread(target=serve_nodes, args=(listener, gw, stop))
    acceptor.start()
    try:
        with socket.create_connection(listener.getsockname(), timeout=5) as node:
            send_message(node, encode(frame(0)))
            deadline = time.perf_counter() + 5
            while not gw._seen and time.perf_counter() < deadline:
                time.sleep(0.01)
            assert gw._seen  # the reader is up, now idle in recv
            stopped = time.perf_counter()
            stop.set()
            acceptor.join(timeout=10)
            assert time.perf_counter() - stopped < 1.0
    finally:
        stop.set()
        acceptor.join(timeout=10)
        listener.close()
        gw.close()
    assert [t for t in threading.enumerate() if t not in before] == []


def test_node_listener_failed_bind_closes_socket():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OSError):
            node_listener("256.0.0.1", 0)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_read_node_stream_skips_undecodable_frames(tmp_path, quiet_gateway):
    server, client = socket.socketpair()
    with client:
        send_message(client, encode(frame(0)))
        send_message(client, b"garbage that fails to decode")
        send_message(client, encode(frame(1)))
    with server:
        count = read_node_stream(server, quiet_gateway)
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


def test_read_node_stream_survives_unwritable_latency_log(served_gateway, tmp_path,
                                                         monkeypatch, caplog):
    _, server = served_gateway

    class FullDisk:
        """A text file on a full disk: only the latency-log header gets written."""

        def __init__(self, fh):
            self._fh = fh

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def write(self, data):
            if not data.startswith(b"frame_counter"):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self._fh.write(data)

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return FullDisk(fh) if Path(file).name == "full.csv" and "a" in mode else fh

    monkeypatch.setattr(gateway_mod, "open", open_on_full_disk, raising=False)
    gw = Gateway(GatewayConfig(server_endpoint="%s:%d" % server.address,
                               persistence_path=str(tmp_path / "t.csv"),
                               latency_log_path=str(tmp_path / "full.csv"),
                               retry_backoff=0.001))
    reader, client = socket.socketpair()
    with client:
        for counter in range(5):
            send_message(client, encode(frame(counter)))
    with reader, caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
        count = read_node_stream(reader, gw)
    gw.close()
    assert count == 5
    rows = read_table_csv((tmp_path / "t.csv").read_text())
    assert [r.t for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert gw.answered == 5
    assert "latency row for counter 4 from node 0 lost" in caplog.text
    assert (tmp_path / "full.csv").read_text().startswith("frame_counter,")


def test_read_node_stream_survives_unwritable_upload(tmp_path, caplog):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    gw = PollGateway(GatewayConfig(persistence_path=str(tmp_path / "t.csv")), blocker)
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
    assert gw._uploads == {}
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
