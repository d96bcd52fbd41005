"""Client-side gateway: ingests node telemetry, persists it, triggers inference.

The gateway sits between the sensor link and the inference service.  Each
decoded frame is appended to a crash-safe CSV (canonical
``index,Time,Strain,t,R1..Rn`` layout; strain is unknown at ingest and stored
as nan, t carries the node counter), a counter not newer (in serial-number
order) than the highest its node sent on the same connection is dropped as a
duplicate, and an event rule decides when a frame triggers a prediction.
Every answered trigger appends one row to the latency log, stamped on the
monotonic clock in program order: frame received <= request sent <= response
received.  Both files are ``CsvAppender`` logs: a torn tail is quarantined on
restart, a file with another header is left alone, and rows whose write fails
or whose width is not the telemetry log's are logged as lost.

Node intake works in batches: one ``recv`` per arrival, and the frames it
completed are ingested in one pass under the ingest lock and written to the
telemetry CSV with one write.  The frames of one batch share one ``Time`` and
one ``t_frame_received``; a frame that arrives alone is a batch of one.

Triggers go to the server over TCP from one sender thread per gateway, which
reads no node: ingest only queues a triggered frame and wakes it.  Each pass
sends the whole queue as one multi-row predict per channel count, in arrival
order, so what queued during one round trip goes out in the next.  A
transport failure gets one immediate reconnect, never a sleep, and an error
reply none; a batch that still fails loses only its own predictions.  A
coalesced frame's ``t_request_sent`` is the time its batch was sent, and each
batch's latency rows are written with one write.
``Gateway._send_pending`` is the sender thread's loop; the bench's
periodic-scan baseline overrides it to answer the queue once per interval,
through the same per-channel-count ``_answer``.
"""

from __future__ import annotations

import io
import json
import logging
import math
import mmap
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .dataset import csv_line, table_csv_header, table_csv_row
from .protocol import (
    COUNTER_MODULUS,
    DEFAULT_HOST,
    DEFAULT_PORT,
    MAX_FRAME_SIZE,
    ConnectionClosed,
    FrameError,
    TelemetryFrame,
    decode,
    listen,
    parse_endpoint,
    recv_batches,
    recv_message,
    send_message,
    serve_connections,
)

log = logging.getLogger(__name__)

SERVER_TIMEOUT = 5.0  # seconds, for the connect and for each reply

LATENCY_HEADER = ["frame_counter", "node_id", "t_frame_received", "t_request_sent",
                  "t_response_received", "end_to_end"]


class GatewayError(Exception):
    pass


class ServerUnreachable(GatewayError):
    pass


class ServerRefused(GatewayError):
    """The server replied with an object that is no answer; ``error`` is its error code or None."""

    def __init__(self, reply: dict):
        self.error = reply.get("error")
        super().__init__(f"server refused the request: {reply!r}")


class NoRecords(GatewayError):
    pass


class PersistenceFailure(GatewayError):
    pass


@dataclass(frozen=True)
class TriggerRule:
    """When a frame fires a prediction request.

    ``every_frame`` triggers unconditionally.  Otherwise a frame triggers when
    any channel moved at least ``delta_ohm`` from the last *triggering* frame
    (the first frame always triggers and sets the baseline).
    """

    every_frame: bool = True
    delta_ohm: float = 0.0

    def __post_init__(self):
        if not self.delta_ohm >= 0:  # also refuses nan, which no difference reaches
            raise ValueError("delta_ohm must be >= 0")


@dataclass
class GatewayConfig:
    # node endpoints are bind addresses: the gateway listens and emulated
    # nodes dial out (see serve_nodes / node_listener)
    node_endpoints: list[str] = field(default_factory=lambda: ["127.0.0.1:0"])
    server_endpoint: str = f"{DEFAULT_HOST}:{DEFAULT_PORT}"  # host:port, port in 1..65535
    mode: str = "push"  # the only mode; kept while perfbench/sut.py passes it
    persistence_path: str = "telemetry.csv"
    trigger: TriggerRule = field(default_factory=TriggerRule)
    latency_log_path: str | None = None

    def __post_init__(self):
        if not self.node_endpoints:
            raise ValueError("at least one node endpoint required")
        if self.mode != "push":
            raise ValueError(f"unknown mode {self.mode!r}")
        try:
            self.server_address = parse_endpoint(self.server_endpoint)
        except ValueError as exc:
            raise ValueError(f"server_endpoint {exc}") from None


def latency_summary(end_to_end: list[float]) -> dict[str, float]:
    """Mean, nearest-rank p50/p95, and max of end-to-end latencies in seconds."""
    if not end_to_end:
        raise NoRecords("no latency records")
    values = sorted(end_to_end)
    n = len(values)

    def nearest_rank(p: float) -> float:
        return values[max(0, math.ceil(p / 100.0 * n) - 1)]

    return {"count": float(n), "mean": sum(values) / n,
            "p50": nearest_rank(50.0), "p95": nearest_rank(95.0), "max": values[-1]}


class CsvAppender:
    """Append-only CSV log with torn-line quarantine on restart.

    On open, the file is scanned back from its end as bytes, and the lines
    after the last row that parses (an incomplete one, without its newline,
    included) are moved to ``<path>.quarantine`` rather than silently
    accepted; ``last_row`` holds the cells of the last row kept, or None.
    A new file gets the ``header`` line; an existing file whose header line
    differs raises PersistenceFailure and is left as it is.  ``append`` takes rows
    already rendered to text (``dataset.csv_line``) and writes them with one
    unbuffered write; a failed or short write is cut back off the file and
    raises PersistenceFailure, so the rows are lost whole and nothing of them
    is written later.
    """

    def __init__(self, path, header: list[str]):
        self.path = Path(path)
        self.header = header
        self.last_row = self._recover()
        self._fh = open(self.path, "ab", buffering=0)
        try:
            self._size = self._fh.seek(0, io.SEEK_END)
            if self._size == 0:
                self.append(",".join(header) + "\n")
        except BaseException:
            self._fh.close()
            raise

    def _recover(self) -> list[str] | None:
        """Quarantine the torn tail and return the last row kept, scanning back from the end.

        The file is mapped read-only and scanned back to the last row that
        parses, so a restart costs the same whatever the file's size.  Of the
        header, only a torn one (all the file holds) is quarantined.
        """
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            return None
        last = None
        with open(self.path, "r+b") as fh:
            expected = (",".join(self.header) + "\n").encode("utf-8")
            first = fh.readline(len(expected))
            if not expected.startswith(first):
                raise PersistenceFailure(f"header {first!r} is not {expected!r}")
            end = fh.seek(0, io.SEEK_END)
            if end == 0:  # an empty file cannot be mapped
                return None
            keep = end
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
                while keep > 0:  # view[keep:] is the tail; view[start:keep] the line before it
                    start = view.rfind(b"\n", 0, keep - 1) + 1
                    if view[keep - 1] == ord("\n"):
                        last = self._parsed(view[start:keep - 1])
                        if last is not None or start == 0:
                            break
                    keep = start
                torn = view[keep:]
            # unmapped first: Windows cannot truncate a mapped file, and on
            # Linux a mapped page past the new end would fault (SIGBUS)
            if torn:
                with open(self.path.with_suffix(self.path.suffix + ".quarantine"), "ab") as q:
                    q.write(torn)
                fh.truncate(keep)
                log.warning("quarantined torn row(s) in %s", self.path)
        return last

    def _parsed(self, line: bytes) -> list[str] | None:
        """The cells of a data row: an int, then floats, as many as the header; else None.

        The package writes no quoted cell (``dataset.csv_line``), so a row
        splits at its commas.
        """
        try:
            row = line.decode("utf-8").split(",")
            if len(row) != len(self.header):
                return None
            int(row[0])
            for v in row[1:]:
                float(v)
        except ValueError:  # UnicodeDecodeError is one
            return None
        return row

    def append(self, text: str) -> None:
        """Write rendered lines with one write, all of them or none."""
        data = text.encode("utf-8")
        try:
            written = self._fh.write(data)
            if written != len(data):
                raise OSError(f"short write: {written} of {len(data)} bytes")
        except OSError as exc:
            try:
                self._fh.truncate(self._size)
            except OSError:
                log.exception("could not cut a failed write off %s", self.path)
            raise PersistenceFailure(str(exc)) from exc
        self._size += len(data)

    def close(self) -> None:
        self._fh.close()


class Gateway:
    """Single-owner ingest/trigger pipeline; one instance per deployment."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self._csv: CsvAppender | None = None
        self._next_index = 0  # the telemetry CSV's running row index
        self._baseline: dict[int, tuple[float, ...]] = {}  # node_id -> last triggering R
        self._server_sock: socket.socket | None = None
        self._request_id = 0
        self._request_lock = threading.Lock()  # request id + server socket
        self._ingest_lock = threading.Lock()  # readers of many nodes funnel in
        # triggers awaiting the sender thread, and close(); both under the ingest lock
        self._queued = threading.Condition(self._ingest_lock)
        self._pending: list[tuple[TelemetryFrame, float]] = []
        self._closed = False
        # triggers answered so far, one latency-log row each; written only by the sender thread
        self.answered = 0
        self._latency = (CsvAppender(config.latency_log_path, LATENCY_HEADER)
                         if config.latency_log_path else None)
        self._sender = threading.Thread(target=self._send_pending, name="gateway-sender", daemon=True)
        self._sender.start()

    # -- ingest -------------------------------------------------------------------

    def ingest(self, frame: TelemetryFrame) -> bool:
        """Ingest one decoded frame, a batch of one; True when the trigger rule fired."""
        return self.ingest_frames([frame])[0]

    def ingest_frames(self, frames: list[TelemetryFrame]) -> list[bool]:
        """Persist decoded frames, in order; returns per frame whether the rule fired.

        The frames share one pass under the ingest lock, one ``Time`` and one
        ``t_frame_received``; an empty list touches neither log.  Every frame
        is persisted and the trigger rule runs on each, in order; duplicates
        are the caller's to drop (see ``read_node_stream``).  The rows are
        written with one write; a row that cannot be written, or whose width
        is not the log's, is lost (logged) and monitoring continues.  Safe to
        call from several node-reader threads.  Fired frames are queued for
        the sender thread: this never waits on the server or raises its errors.
        GatewayError after ``close()``: no sender would read a queued trigger.
        """
        if not frames:
            return []
        received = time.perf_counter()
        with self._ingest_lock:
            if self._closed:
                raise GatewayError("gateway is closed")
            # Time = arrival wall clock, stamped under the lock so the rows keep time order
            wall = time.time()
            fired = []
            for frame in frames:
                hit = self._should_trigger(frame)
                if hit:
                    self._baseline[frame.node_id] = frame.resistances
                    self._pending.append((frame, received))
                fired.append(hit)
            self._persist(frames, wall)
            if self._pending:
                self._queued.notify()
        return fired

    def _persist(self, frames: list[TelemetryFrame], wall: float) -> None:
        """Append one row per frame: Time ``wall``, Strain unknown (nan), t the node counter.

        The log opens on the first call that can open it, for the width of
        that call's first frame, and then takes only frames of its width.
        Each frame whose row is not written is logged as lost.
        """
        try:
            if self._csv is None:
                self._csv = CsvAppender(self.config.persistence_path,
                                        table_csv_header(frames[0].channel_count))
                self._next_index = int(self._csv.last_row[0]) + 1 if self._csv.last_row else 0
            width = len(self._csv.header) - 4  # index, Time, Strain, t, then R1..Rn
            kept = [f for f in frames if f.channel_count == width]
            lost = [f for f in frames if f.channel_count != width]
            reason = f"the log holds {width} channels"
            self._csv.append("".join(
                table_csv_row(self._next_index + k, wall, math.nan, f.counter, f.resistances)
                for k, f in enumerate(kept)))
            self._next_index += len(kept)
        except (OSError, PersistenceFailure) as exc:
            lost, reason = frames, f"cannot write {self.config.persistence_path}: {exc}"
        for frame in lost:
            log.error("row for counter %d from node %d lost: %s",
                      frame.counter, frame.node_id, reason)

    def _should_trigger(self, frame: TelemetryFrame) -> bool:
        if self.config.trigger.every_frame:
            return True
        baseline = self._baseline.get(frame.node_id)
        if baseline is None or len(baseline) != frame.channel_count:
            return True
        return any(abs(r - b) >= self.config.trigger.delta_ohm
                   for r, b in zip(frame.resistances, baseline))

    # -- push topology ---------------------------------------------------------------

    def _send_pending(self) -> None:
        """The sender thread: send queued triggers until the gateway is closed and none are left.

        Each pass takes the whole queue and answers it with ``_answer``.
        """
        while True:
            with self._queued:
                self._queued.wait_for(lambda: self._pending or self._closed)
                queued, self._pending = self._pending, []
            if not queued:
                return
            self._answer(queued, self.request_prediction)

    def _answer(self, queued: list[tuple[TelemetryFrame, float]], predict) -> None:
        """Answer ``(frame, received)`` triggers with one ``predict(rows)`` per channel count.

        Batches go in order of arrival.  A batch whose ``predict`` raises any
        Exception loses its frames' predictions (logged); the batches after it
        are answered.  Runs on the sender thread only.
        """
        while queued:
            width = queued[0][0].channel_count
            batch = [item for item in queued if item[0].channel_count == width]
            queued = [item for item in queued if item[0].channel_count != width]
            sent = time.perf_counter()
            try:
                predict([list(f.resistances) for f, _ in batch])
            except Exception:
                log.exception("trigger send failed; predictions lost for (node, counter) %s",
                              [(f.node_id, f.counter) for f, _ in batch])
                continue
            done = time.perf_counter()
            self._record_latency([(f, received, sent, done) for f, received in batch])

    def request_prediction(self, rows: list[list[float]]) -> list[float]:
        """Round-trip one predict request in at most two attempts, never sleeping.

        A transport failure or a reply that is not a JSON object fails the
        attempt and drops the connection, so the second attempt reconnects (a
        server that closed an idle connection or restarted); ServerUnreachable
        when both fail.  Any other reply but ``predict_ok`` with one number
        per row, such as ``shape_mismatch`` or ``model_not_loaded``, raises
        ServerRefused at once: asking again would get the same answer.  A
        refused connect fails at once; a server that never answers holds the
        caller 2 x SERVER_TIMEOUT.  Calls from any thread take turns on the
        one server connection.
        """
        with self._request_lock:
            self._request_id += 1
            request = {"type": "predict", "request_id": self._request_id, "rows": rows}
            payload = json.dumps(request).encode()
            for attempt in range(2):
                try:
                    sock = self._server_connection()
                    send_message(sock, payload)
                    # an int prediction, even one beyond float range, arrives as a float
                    reply = json.loads(recv_message(sock).decode("utf-8"), parse_int=float)
                    if not isinstance(reply, dict):
                        raise ValueError(f"reply {reply!r} is not an object")
                    break
                except (OSError, ConnectionClosed, ValueError) as exc:
                    self._drop_server_connection()
                    if attempt:
                        raise ServerUnreachable(f"2 attempts failed: {exc}") from exc
            predictions = reply.get("predictions")
            if (reply.get("type") == "predict_ok" and isinstance(predictions, list)
                    and len(predictions) == len(rows)
                    and all(type(p) is float for p in predictions)):
                return predictions
            raise ServerRefused(reply)

    def _server_connection(self) -> socket.socket:
        if self._server_sock is None:
            self._server_sock = socket.create_connection(self.config.server_address,
                                                         timeout=SERVER_TIMEOUT)
        return self._server_sock

    def _drop_server_connection(self) -> None:
        if self._server_sock is not None:
            try:
                self._server_sock.close()
            except OSError:
                pass
            self._server_sock = None

    # -- latency -----------------------------------------------------------------------

    def _record_latency(self, answers: list[tuple[TelemetryFrame, float, float, float]]) -> None:
        """One latency-log row per ``(frame, received, sent, done)``, written with one write."""
        self.answered += len(answers)
        if self._latency is None or not answers:
            return
        try:
            self._latency.append("".join(
                csv_line((frame.counter, frame.node_id, received, sent, done, done - received))
                for frame, received, sent, done in answers))
        except PersistenceFailure as exc:
            for frame, *_ in answers:
                log.error("latency row for counter %d from node %d lost: %s",
                          frame.counter, frame.node_id, exc)

    def close(self) -> None:
        """Send what is still queued, join the sender thread, then close the connection and logs.

        A server that never answers costs 2 x SERVER_TIMEOUT per queued batch.
        """
        with self._queued:
            self._closed = True
            self._queued.notify()
        self._sender.join()
        with self._request_lock:
            self._drop_server_connection()
        if self._csv is not None:
            self._csv.close()
        if self._latency is not None:
            self._latency.close()


# -- live node intake ------------------------------------------------------------------


def node_listener(bind_host: str, bind_port: int) -> socket.socket:
    """Bind a listening socket for node telemetry streams."""
    return listen(bind_host, bind_port)


def read_node_stream(conn: socket.socket, gateway: Gateway) -> int:
    """Ingest length-prefixed frames from one node connection until EOF.

    Each ``recv`` is one arrival: the frames it completed are decoded and
    ingested as one batch (``Gateway.ingest_frames``).  A frame is kept only
    when its counter ``c`` is newer than the highest its node sent on this
    connection in serial-number order (RFC 1982), ``0 < (c - highest) mod 2^32
    < 2^31``, so 0 follows 4294967295.  Others are dropped as duplicates: a
    node's frames arrive in counter order over its one connection (a
    reordering transport would need an anti-replay window), and a node that
    restarts reconnects, so its new counters are kept.
    Undecodable frames are logged and skipped, and the server is never
    waited on here (see ``Gateway.ingest_frames``).
    A length prefix above the widest frame (MAX_FRAME_SIZE) ends it.
    Returns the number of frames ingested.
    """
    count = 0
    highest: dict[int, int] = {}  # node_id -> highest counter on this connection
    for messages in recv_batches(conn, MAX_FRAME_SIZE):
        frames = []
        for raw in messages:
            try:
                frame = decode(raw)
            except FrameError:
                log.exception("undecodable frame, skipping")
                continue
            # a node's first frame on this connection is kept: it counts as one ahead
            last = highest.get(frame.node_id, frame.counter - 1)
            if not 0 < (frame.counter - last) % COUNTER_MODULUS < COUNTER_MODULUS // 2:
                log.debug("dropping duplicate counter %d from node %d",
                          frame.counter, frame.node_id)
                continue
            highest[frame.node_id] = frame.counter
            frames.append(frame)
        gateway.ingest_frames(frames)
        count += len(frames)
    return count


def serve_nodes(listener: socket.socket, gateway: Gateway,
                stop: threading.Event) -> None:
    """Accept node connections until ``stop``; one reader thread per node.

    Frames from all nodes funnel into the gateway, whose ingest is
    serialized internally (single CSV writer, triggers in arrival order).
    On stop the open connections are shut down and their readers joined
    (see ``protocol.serve_connections``).
    """
    serve_connections(listener, lambda conn: read_node_stream(conn, gateway), stop)
