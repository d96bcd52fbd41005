"""Gateway: ingest/dedupe/trigger rules, persistence, latency statistics."""

import contextlib
import csv
import errno
import gc
import json
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
    GatewayError,
    NoRecords,
    ServerRefused,
    ServerUnreachable,
    TriggerRule,
    latency_summary,
    node_listener,
    read_node_stream,
    serve_nodes,
)
from shmlink.protocol import (
    COUNTER_MODULUS,
    TelemetryFrame,
    encode,
    listen,
    recv_batches,
    send_message,
    serve_connections,
)
from shmlink.server import ServerConfig, serve
from test_protocol import CutReads
from test_server import gain_server


def frame(counter, resistances=(47.0, 120.0), node_id=0):
    return TelemetryFrame(counter=counter, node_id=node_id, resistances=resistances)


def stream(gw: Gateway, frames, cuts=()) -> list[bool]:
    """Send ``frames`` to ``read_node_stream`` over one new node connection, reads cut at ``cuts``.

    Returns, for each frame the reader passed on to ``gw``, whether the rule fired.
    """
    fired = []
    ingest_frames = gw.ingest_frames

    def recording(batch):
        result = ingest_frames(batch)
        fired.extend(result)
        return result

    gw.ingest_frames = recording
    server, client = socket.socketpair()
    try:
        with server, client:
            for f in frames:
                send_message(client, encode(f))
            client.shutdown(socket.SHUT_WR)
            count = read_node_stream(CutReads(server, cuts), gw)
    finally:
        del gw.ingest_frames
    assert count == len(fired)
    return fired


def latency_log(gw) -> list[dict]:
    """The rows of ``gw``'s latency log: counter and node as int, times as float."""
    with open(gw.config.latency_log_path, encoding="utf-8", newline="") as fh:
        return [{k: int(v) if k in ("frame_counter", "node_id") else float(v)
                 for k, v in row.items()} for row in csv.DictReader(fh)]


def wait_for_rows(path: Path, rows: int, timeout: float = 5.0) -> None:
    """Wait until the CSV at ``path`` holds its header and ``rows`` rows, or ``timeout`` passes."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline and not (
            path.exists() and path.read_text().count("\n") >= rows + 1):
        time.sleep(0.01)


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
                         trigger=TriggerRule(every_frame=False, delta_ohm=1e9))


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
                               latency_log_path=str(tmp_path / "latency.csv")))
    yield gw, model_server
    gw.close()


# -- ingest and trigger rules -----------------------------------------------------------


def test_every_frame_rule_requests_once_per_frame(served_gateway):
    gw, _ = served_gateway
    for i in range(5):
        assert gw.ingest(frame(i)) is True
    gw.close()
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
    # the first frame sets the baseline; the repeated 1 is dropped before it can fire
    assert stream(quiet_gateway, [frame(0), frame(1), frame(1)]) == [True, False]
    quiet_gateway.close()
    rows = read_table_csv((tmp_path / "telemetry.csv").read_text())
    assert len(rows) == 2


def test_duplicate_does_not_trigger(served_gateway):
    gw, _ = served_gateway
    stream(gw, [frame(3), frame(3)])
    gw.close()
    assert len(latency_log(gw)) == 1


def test_counter_at_or_below_the_highest_is_dropped(quiet_gateway, tmp_path):
    # 5 fires; 3 and 5 are dropped, so only 6 reaches the rule, and it stays quiet
    assert stream(quiet_gateway, [frame(c) for c in (5, 3, 5, 6)]) == [True, False]
    quiet_gateway.close()
    # 3 was never seen, but it is below 5; 6 is above it and kept
    assert [r.t for r in read_table_csv((tmp_path / "telemetry.csv").read_text())] == [5.0, 6.0]


def test_counter_wrap_keeps_counting(quiet_gateway, tmp_path):
    """4294967295 is followed by 0: the frames after the wrap are newer, not duplicates."""
    top = COUNTER_MODULUS - 1
    wrapped = [top - 1, top, 0, 1]
    assert stream(quiet_gateway, [frame(c) for c in wrapped]) == [True, False, False, False]
    quiet_gateway.close()
    assert [r.t for r in read_table_csv((tmp_path / "telemetry.csv").read_text())] \
        == [float(c) for c in wrapped]


def test_counter_before_the_wrap_is_dropped_after_it(quiet_gateway, tmp_path):
    top = COUNTER_MODULUS - 1
    stream(quiet_gateway, [frame(c) for c in (top - 1, top, 0, top, 1)])
    quiet_gateway.close()
    assert [r.t for r in read_table_csv((tmp_path / "telemetry.csv").read_text())] \
        == [float(top - 1), float(top), 0.0, 1.0]


def test_counter_half_the_circle_ahead_is_not_newer(quiet_gateway, tmp_path):
    """Serial-number order: 2^31 ahead is undefined, and dropped; 2^31 - 1 ahead is newer."""
    half = COUNTER_MODULUS // 2
    stream(quiet_gateway, [frame(c) for c in (0, half, half - 1)])
    quiet_gateway.close()
    assert [r.t for r in read_table_csv((tmp_path / "telemetry.csv").read_text())] \
        == [0.0, float(half - 1)]


def test_ingest_memory_does_not_grow_with_frames(tmp_path):
    gw = intake_gateway(tmp_path, delta_ohm=1e9)
    # built before tracing starts, so only what the gateway keeps is traced
    batches = [[frame(c) for c in range(first, first + 1000)] for first in range(0, 205_000, 1000)]
    tracemalloc.start()
    try:
        for batch in batches[:5]:  # warm-up: both logs are open, every cache is filled
            gw.ingest_frames(batch)
        before = tracemalloc.get_traced_memory()[0]
        for batch in batches[5:]:  # 200k frames
            gw.ingest_frames(batch)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gw.close()
    assert grown < 1 << 20


def test_persistence_completeness_arrival_order(quiet_gateway, tmp_path):
    sent = [frame(i, resistances=(47.0 + i, 120.0)) for i in range(20)]
    stream(quiet_gateway, sent + [frame(7, resistances=(999.0, 999.0))])  # and a duplicate
    quiet_gateway.close()
    rows = read_table_csv((tmp_path / "telemetry.csv").read_text())
    assert [r.t for r in rows] == [float(i) for i in range(20)]
    assert [r.resistances[0] for r in rows] == [47.0 + i for i in range(20)]


def test_node_restart_keeps_its_rows(quiet_gateway, tmp_path):
    """A restarted node reconnects and counts from 0 again; none of its frames is a duplicate."""
    stream(quiet_gateway, [frame(c) for c in range(5)])
    stream(quiet_gateway, [frame(c) for c in range(3)])
    quiet_gateway.close()
    assert [r.t for r in read_table_csv((tmp_path / "telemetry.csv").read_text())] \
        == [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 2.0]


def test_frames_resent_after_a_reconnect_are_stored_twice(quiet_gateway, tmp_path):
    """The cost of counters that live as long as a connection: a resent frame is kept again."""
    stream(quiet_gateway, [frame(c) for c in range(5)])
    stream(quiet_gateway, [frame(c) for c in (3, 4, 5)])
    quiet_gateway.close()
    assert [r.t for r in read_table_csv((tmp_path / "telemetry.csv").read_text())] \
        == [0.0, 1.0, 2.0, 3.0, 4.0, 3.0, 4.0, 5.0]


def test_duplicates_are_dropped_per_node_on_a_new_connection(quiet_gateway, tmp_path):
    stream(quiet_gateway, [frame(c) for c in range(5)])
    # node 1's first frame is kept although node 0 already sent counter 1
    stream(quiet_gateway, [frame(0), frame(1), frame(0, node_id=1), frame(1), frame(0), frame(2)])
    quiet_gateway.close()
    rows = read_table_csv((tmp_path / "telemetry.csv").read_text())
    assert [r.t for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0, 0.0, 2.0]


# -- the bench's poll baseline: a sender thread that scans ------------------------------


def poll_config(tmp_path) -> GatewayConfig:
    """A gateway that fires on every frame and logs latency; no server is dialled."""
    return GatewayConfig(server_endpoint=dead_endpoint(),
                         persistence_path=str(tmp_path / "telemetry.csv"),
                         latency_log_path=str(tmp_path / "latency.csv"))


def wait_until(condition, timeout: float = 5.0) -> None:
    deadline = time.perf_counter() + timeout
    while not condition():
        assert time.perf_counter() < deadline, "timed out"
        time.sleep(0.005)


def test_poll_trigger_is_answered_at_the_next_scan_and_not_before(tmp_path, model_server):
    interval = 0.5
    started = time.perf_counter()
    gw = PollGateway(poll_config(tmp_path), model_server, interval)
    try:
        time.sleep(interval / 5)  # land between the start and the first scan
        gw.ingest(frame(0))
        wait_until(lambda: gw.answered == 1)
    finally:
        gw.close()
    [row] = latency_log(gw)
    assert row["t_frame_received"] < started + interval <= row["t_request_sent"]
    assert row["t_response_received"] < started + 2 * interval


def test_poll_latency_rows_are_in_stage_order(tmp_path, model_server):
    gw = PollGateway(poll_config(tmp_path), model_server, 0.05)
    try:
        for counter in range(6):
            gw.ingest(frame(counter))
            time.sleep(0.02)  # spread the triggers over several scans
        wait_until(lambda: gw.answered == 6)
    finally:
        gw.close()
    rows = latency_log(gw)
    assert [r["frame_counter"] for r in rows] == list(range(6))
    for r in rows:
        assert r["t_frame_received"] <= r["t_request_sent"] <= r["t_response_received"]


def test_poll_prediction_that_overflows_loses_only_its_batch(tmp_path, caplog):
    gw = PollGateway(poll_config(tmp_path), gain_server(tmp_path), 0.1)
    try:
        with caplog.at_level(logging.ERROR, logger="shmlink.gateway"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            gw.ingest(frame(0, (1e306, 43.0)))  # finite cell, 1e309 prediction
            wait_until(lambda: "predictions lost for (node, counter) [(0, 0)]" in caplog.text)
        gw.ingest(frame(1))
        wait_until(lambda: gw.answered == 1)
    finally:
        gw.close()
    assert [r["frame_counter"] for r in latency_log(gw)] == [1]


def test_poll_close_answers_the_queue_without_waiting_for_the_scan(tmp_path, model_server):
    gw = PollGateway(poll_config(tmp_path), model_server, 3600.0)
    gw.ingest(frame(0))
    gw.ingest(frame(1, (47.5, 120.0)))
    closing = time.perf_counter()
    gw.close()
    assert time.perf_counter() - closing < 5.0
    assert gw.answered == 2
    assert [r["frame_counter"] for r in latency_log(gw)] == [0, 1]
    assert not gw._sender.is_alive()


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
    appender.append("0,1.0,nan,0.0,47.0\n")
    appender.append("1,2.0,nan,1.0,47.1\n")
    appender.close()
    # simulate a crash mid-append
    with open(path, "a") as fh:
        fh.write("2,3.0,nan,2.0,4")
    reopened = CsvAppender(path, HEADER)
    assert reopened.last_row == ["1", "2.0", "nan", "1.0", "47.1"]
    reopened.append("2,4.0,nan,3.0,47.3\n")
    reopened.close()

    rows = read_table_csv(path.read_text())
    assert [r.t for r in rows] == [0.0, 1.0, 3.0]
    assert (tmp_path / "t.csv.quarantine").read_text() == "2,3.0,nan,2.0,4"


def test_unparseable_complete_line_quarantined(tmp_path):
    path = tmp_path / "t.csv"
    appender = CsvAppender(path, HEADER)
    appender.append("0,1.0,nan,0.0,47.0\n")
    appender.close()
    with open(path, "a") as fh:
        fh.write("not,a,valid,row,x\n")
    reopened = CsvAppender(path, HEADER)
    reopened.close()
    assert reopened.last_row == ["0", "1.0", "nan", "0.0", "47.0"]
    assert "not,a,valid" in (tmp_path / "t.csv.quarantine").read_text()
    assert len(read_table_csv(path.read_text())) == 1


def test_complete_line_with_too_few_cells_quarantined(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(",".join(HEADER) + "\n0,1.0,nan,0.0,47.0\n1,2.0,nan,1.0\n")
    reopened = CsvAppender(path, HEADER)
    reopened.close()
    assert reopened.last_row == ["0", "1.0", "nan", "0.0", "47.0"]
    assert (tmp_path / "t.csv.quarantine").read_text() == "1,2.0,nan,1.0\n"


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


def test_torn_header_quarantined(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("index,Ti")  # a crash while the header was written
    appender = CsvAppender(path, HEADER)
    appender.append("0,1.0,nan,0.0,47.0\n")
    appender.close()
    assert path.read_text() == "index,Time,Strain,t,R1\n0,1.0,nan,0.0,47.0\n"
    assert (tmp_path / "t.csv.quarantine").read_text() == "index,Ti"


@pytest.mark.parametrize("text", ["", ",".join(HEADER) + "\n"], ids=["empty", "header_only"])
def test_file_without_rows_reopens_clean(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    appender = CsvAppender(path, HEADER)
    appender.append("0,1.0,nan,0.0,47.0\n")
    appender.close()
    assert appender.last_row is None
    assert path.read_text() == "index,Time,Strain,t,R1\n0,1.0,nan,0.0,47.0\n"
    assert not (tmp_path / "t.csv.quarantine").exists()


def test_restart_with_another_width_loses_the_row_not_the_log(tmp_path, caplog):
    gw = intake_gateway(tmp_path, delta_ohm=1e9)
    gw.ingest_frames([frame(c, (47.0,) * 8) for c in range(5)])
    gw.close()
    path = tmp_path / "t.csv"
    before = path.read_bytes()
    restarted = intake_gateway(tmp_path, delta_ohm=1e9)
    with caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
        restarted.ingest(frame(0, (47.0, 120.0), node_id=1))  # a 2-channel node comes first
    assert path.read_bytes() == before
    assert not (tmp_path / "t.csv.quarantine").exists()
    assert "row for counter 0 from node 1 lost" in caplog.text
    restarted.ingest(frame(5, (47.0,) * 8))  # the next batch opens the log
    restarted.close()
    text = path.read_text()
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == ["0", "1", "2", "3", "4", "5"]
    assert [r.t for r in read_table_csv(text)] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_frame_of_another_width_is_lost_not_appended(tmp_path, caplog):
    gw = intake_gateway(tmp_path, delta_ohm=1e9)
    with caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
        gw.ingest_frames([frame(0, (47.0,) * 8), frame(0, (47.0, 120.0), node_id=1),
                          frame(1, (47.0,) * 8)])
        gw.ingest(frame(1, (47.0, 120.0), node_id=1))
    gw.close()
    text = (tmp_path / "t.csv").read_text()
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == ["0", "1"]
    assert [(r.t, len(r.resistances)) for r in read_table_csv(text)] == [(0.0, 8), (1.0, 8)]
    for counter in (0, 1):
        assert f"row for counter {counter} from node 1 lost" in caplog.text


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
                               latency_log_path=str(tmp_path / "lat.csv")))
    reader, client = socket.socketpair()
    with client:
        for counter in range(3):
            send_message(client, encode(frame(counter)))
    with reader, caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
        count = read_node_stream(reader, gw)
    assert count == 3
    assert "row for counter 2 from node 0 lost" in caplog.text
    blocker.unlink()
    blocker.mkdir()
    gw.ingest(frame(3))  # the next batch opens the log
    gw.close()
    assert gw.answered == 4
    assert [r["frame_counter"] for r in latency_log(gw)] == [0, 1, 2, 3]
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
    highest, kept = {}, 0  # the frames above their node's highest so far are the ones ingested
    for f in frames:
        if f.counter > highest.get(f.node_id, -1):
            highest[f.node_id], kept = f.counter, kept + 1
    wall = SimpleNamespace(time=lambda: 1700000000.25, perf_counter=time.perf_counter)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(gateway_mod, "time", wall):
        batched_dir, single_dir = Path(tmp, "batched"), Path(tmp, "single")
        batched, single = intake_gateway(batched_dir, delta_ohm), intake_gateway(single_dir,
                                                                                   delta_ohm)
        with contextlib.closing(batched), contextlib.closing(single):
            fired = stream(batched, frames, cuts)
            assert len(fired) == kept
            assert fired == stream(single, frames, [4 + len(encode(f)) for f in frames])
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
    gw.close()
    assert latency_log(gw)[0]["end_to_end"] < 1.0


def test_server_down_unreachable_after_retries(tmp_path):
    gw = Gateway(GatewayConfig(node_endpoints=["127.0.0.1:0"],
                               server_endpoint=dead_endpoint(),
                               persistence_path=str(tmp_path / "t.csv")))
    with pytest.raises(ServerUnreachable):
        gw.request_prediction([[1.0, 2.0]])
    gw.close()


@contextlib.contextmanager
def silent_server():
    """The endpoint of a server that accepts connections and never reads or answers."""
    listener = listen("127.0.0.1", 0)
    stop = threading.Event()
    server = threading.Thread(target=serve_connections,
                              args=(listener, lambda conn: stop.wait(), stop))
    server.start()
    try:
        yield "%s:%d" % listener.getsockname()
    finally:
        stop.set()
        server.join(timeout=10)
        listener.close()
    assert not server.is_alive()


@pytest.mark.parametrize("silent", [False, True], ids=["refusing", "silent"])
def test_server_refusing_costs_no_wait_and_keeps_time(tmp_path, monkeypatch, silent):
    """A down or silent server must not hold the node's reader: every Time stays within a tick."""
    tick = 0.05
    monkeypatch.setattr(gateway_mod, "SERVER_TIMEOUT", 0.3)
    with contextlib.ExitStack() as running:
        endpoint = running.enter_context(silent_server()) if silent else dead_endpoint()
        gw = Gateway(GatewayConfig(server_endpoint=endpoint,
                                   persistence_path=str(tmp_path / "t.csv")))
        running.callback(gw.close)  # before the server stops: callbacks run last first
        seconds = []  # how long each ingest_frames call took
        ingest_frames = gw.ingest_frames

        def timed(frames):
            started = time.perf_counter()
            ingest_frames(frames)  # every frame triggers
            seconds.append(time.perf_counter() - started)

        gw.ingest_frames = timed
        reader, client = socket.socketpair()
        sent = []

        def node():
            with client:
                for counter in range(6):
                    if counter:
                        time.sleep(tick)
                    sent.append(time.time())
                    send_message(client, encode(frame(counter)))

        sender = threading.Thread(target=node)
        sender.start()
        with reader:
            count = read_node_stream(reader, gw)
        sender.join(timeout=10)
    assert not sender.is_alive()
    assert count == 6
    assert gw.answered == 0
    rows = read_table_csv((tmp_path / "t.csv").read_text())
    assert [r.t for r in rows] == [float(c) for c in range(6)]
    for row in rows:
        assert sent[int(row.t)] <= row.time < sent[int(row.t)] + tick
    assert seconds and max(seconds) < 0.1


def test_server_that_never_answers_is_unreachable_within_two_timeouts(tmp_path, monkeypatch):
    monkeypatch.setattr(gateway_mod, "SERVER_TIMEOUT", 0.2)
    listener = listen("127.0.0.1", 0)
    stop = threading.Event()
    server = threading.Thread(target=serve_connections,  # accepts, reads nothing, never answers
                              args=(listener, lambda conn: stop.wait(), stop))
    server.start()
    gw = Gateway(GatewayConfig(server_endpoint="%s:%d" % listener.getsockname(),
                               persistence_path=str(tmp_path / "t.csv")))
    try:
        started = time.perf_counter()
        with pytest.raises(ServerUnreachable):
            gw.request_prediction([[1.0, 2.0]])
        assert time.perf_counter() - started < 1.0
    finally:
        gw.close()
        stop.set()
        server.join(timeout=10)
        listener.close()
    assert not server.is_alive()


@pytest.mark.parametrize("endpoint", ["localhost", "127.0.0.1:99999", "127.0.0.1:0",
                                      ":7420", "127.0.0.1:", "127.0.0.1:http"])
def test_server_endpoint_must_be_host_and_port(endpoint):
    with pytest.raises(ValueError, match="server_endpoint"):
        GatewayConfig(server_endpoint=endpoint)


def test_wrong_width_raises_shape_mismatch(served_gateway):
    gw, _ = served_gateway
    with pytest.raises(ServerRefused) as refused:
        gw.request_prediction([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]])
    assert refused.value.error == "shape_mismatch"


@pytest.mark.parametrize("models,rows,error", [
    (True, [[1.0, 2.0, 3.0]], "shape_mismatch"),
    (False, [[1.0, 2.0]], "model_not_loaded"),
], ids=["wrong_width", "no_model"])
def test_server_refusal_is_asked_once(tmp_path, models, rows, error):
    """A server that answers with an error was reached: one request, then ServerRefused."""
    model_files = {}
    if models:
        model_files["default"] = str(tmp_path / "model.json")
        mlp.save_model(mlp.init_model(2, 4, mu=np.zeros(2), sigma=np.ones(2),
                                      rng=np.random.default_rng(0)), model_files["default"])
    server = serve(ServerConfig(host="127.0.0.1", port=0, model_files=model_files))
    answered = []
    handle_message = server.handle_message

    def counting(raw):
        answered.append(raw)
        return handle_message(raw)

    server.handle_message = counting
    gw = Gateway(GatewayConfig(server_endpoint="%s:%d" % server.address,
                               persistence_path=str(tmp_path / "t.csv")))
    try:
        with pytest.raises(ServerRefused) as refused:
            gw.request_prediction(rows)
    finally:
        gw.close()
        server.stop()
    assert refused.value.error == error
    assert len(answered) == 1


@pytest.mark.parametrize("reply", [
    [1],
    {"type": "predict_ok", "request_id": 1},
    {"type": "predict_ok", "request_id": 1, "predictions": ["x"]},
], ids=["not_an_object", "no_predictions", "not_numbers"])
def test_malformed_predict_reply_keeps_the_node_stream(tmp_path, caplog, reply):
    listener = listen("127.0.0.1", 0)
    stop = threading.Event()

    def answer(conn):  # every request on every connection gets ``reply``
        for messages in recv_batches(conn, 1 << 20):
            for _ in messages:
                try:
                    send_message(conn, json.dumps(reply).encode())
                except OSError:
                    return

    server = threading.Thread(target=serve_connections, args=(listener, answer, stop))
    server.start()
    gw = Gateway(GatewayConfig(server_endpoint="%s:%d" % listener.getsockname(),
                               persistence_path=str(tmp_path / "t.csv"),
                               latency_log_path=str(tmp_path / "lat.csv")))
    reader, client = socket.socketpair()
    with client:
        for counter in range(3):
            send_message(client, encode(frame(counter)))
    wire = 4 + len(encode(frame(0)))
    try:
        with reader, caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
            count = read_node_stream(CutReads(reader, [wire] * 3), gw)  # a batch per frame
    finally:
        gw.close()
        stop.set()
        server.join(timeout=10)
        listener.close()
    assert not server.is_alive()
    assert count == 3
    assert [r.t for r in read_table_csv((tmp_path / "t.csv").read_text())] == [0.0, 1.0, 2.0]
    assert gw.answered == 0 and latency_log(gw) == []
    for counter in range(3):  # each named lost by the sender, in one batch or several
        assert f"(0, {counter})" in caplog.text


def test_latency_fields_monotone(served_gateway):
    gw, _ = served_gateway
    gw.ingest(frame(0))
    gw.close()
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
    gw.close()
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
    gw.close()

    assert gw._pending == []
    answered_frames = sorted((r["node_id"], r["frame_counter"]) for r in latency_log(gw))
    assert answered_frames == [(n, c) for n in range(3) for c in range(50)]
    assert sum(len(rows) for rows, _ in answered) == 150
    assert len(answered) < 150
    assert max(len(rows) for rows, _ in answered) > 1
    for rows, predictions in answered:
        assert [p.hex() for p in predictions] == [mlp.forward(model, r).hex() for r in rows]


def test_failed_batch_loses_only_its_own_frames(served_gateway, caplog):
    gw, _ = served_gateway
    request_prediction = gw.request_prediction
    queued = []
    failing = threading.Event()

    def fail_once(rows):
        # frames from another node arrive while this send is in flight
        gw.request_prediction = request_prediction
        other = threading.Thread(target=lambda: queued.extend(
            gw.ingest(frame(counter, node_id=1)) for counter in range(3)))
        other.start()
        other.join(timeout=10)
        failing.set()
        raise ServerUnreachable("server down")

    gw.request_prediction = fail_once
    with caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
        assert gw.ingest(frame(0)) is True
        assert failing.wait(timeout=10)
        assert gw.ingest(frame(1)) is True  # queued behind node 1's frames
        gw.close()
    assert queued == [True, True, True]  # queued behind the failing batch, returned at once
    assert gw._pending == []
    assert "predictions lost for (node, counter) [(0, 0)]" in caplog.text
    assert [(r["node_id"], r["frame_counter"]) for r in latency_log(gw)] \
        == [(1, 0), (1, 1), (1, 2), (0, 1)]


def test_sender_survives_any_exception(tmp_path, caplog):
    """A batch whose send raises something other than a GatewayError loses only its frames."""
    gw = intake_gateway(tmp_path, delta_ohm=0.0)
    first_sent = threading.Event()

    def broken_once(rows):
        gw.request_prediction = lambda rows: [0.0] * len(rows)
        first_sent.set()
        raise RuntimeError("a bug in the send path")

    gw.request_prediction = broken_once
    reader, client = socket.socketpair()

    def node():  # frame 0 alone in the first batch, then two more
        with client:
            send_message(client, encode(frame(0)))
            first_sent.wait(timeout=10)
            for counter in (1, 2):
                send_message(client, encode(frame(counter)))

    sender = threading.Thread(target=node)
    sender.start()
    with reader, caplog.at_level(logging.ERROR, logger="shmlink.gateway"):
        count = read_node_stream(reader, gw)
        sender.join(timeout=10)
        gw.close()
    assert not sender.is_alive()
    assert count == 3
    assert [r.t for r in read_table_csv((tmp_path / "t.csv").read_text())] == [0.0, 1.0, 2.0]
    assert gw.answered == 2
    assert "predictions lost for (node, counter) [(0, 0)]" in caplog.text
    assert "RuntimeError: a bug in the send path" in caplog.text


def test_empty_batch_touches_neither_log(tmp_path):
    gw = intake_gateway(tmp_path, delta_ohm=0.0)
    assert gw.ingest_frames([]) == []
    gw.close()
    assert not (tmp_path / "t.csv").exists()
    assert (tmp_path / "lat.csv").read_text() == ",".join(gateway_mod.LATENCY_HEADER) + "\n"
    assert gw.answered == 0


def test_close_sends_what_is_queued_and_leaves_no_thread(tmp_path):
    before = set(threading.enumerate())
    gw = intake_gateway(tmp_path, delta_ohm=0.0)

    def slow(rows):  # triggers queue behind a round trip
        time.sleep(0.02)
        return [0.0] * len(rows)

    gw.request_prediction = slow
    for counter in range(5):
        assert gw.ingest(frame(counter)) is True
    gw.close()
    assert gw.answered == 5
    assert [r["frame_counter"] for r in latency_log(gw)] == [0, 1, 2, 3, 4]
    assert [t for t in threading.enumerate() if t not in before] == []


def test_closed_gateway_refuses_frames(tmp_path):
    gw = intake_gateway(tmp_path, delta_ohm=0.0)
    assert gw.ingest(frame(0)) is True
    gw.close()
    with pytest.raises(GatewayError, match="gateway is closed"):
        gw.ingest(frame(1))
    assert gw._pending == []
    assert [r.t for r in read_table_csv((tmp_path / "t.csv").read_text())] == [0.0]


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

    wait_for_rows(tmp_path / "t.csv", 50)
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
            wait_for_rows(tmp_path / "telemetry.csv", 1)
            # the reader is up, now idle in recv
            assert (tmp_path / "telemetry.csv").read_text().count("\n") == 2
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
                               persistence_path=str(tmp_path / "t.csv")))
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
                               latency_log_path=str(tmp_path / "full.csv")))
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
                               persistence_path=str(tmp_path / "t.csv")))
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
