"""Client-side gateway: ingests node telemetry, persists it, triggers inference.

The gateway sits between the sensor link and the inference service.  Each
decoded frame is appended to a crash-safe CSV (canonical
``index,Time,Strain,t,R1..Rn`` layout; strain is unknown at ingest and stored
as nan, t carries the node counter), duplicate counters are dropped, and a
configurable event rule decides when a frame triggers a prediction request.
Every answered trigger appends one row to the latency log, stamped on the
monotonic clock in program order: frame received <= request sent <= response
received.  Both files are ``CsvAppender`` logs: a torn tail is quarantined on
restart, and rows whose write fails are cut off again and logged as lost.

Node intake works in batches: one ``recv`` per arrival, and the frames it
completed are ingested in one pass under the ingest lock and written to the
telemetry CSV with one write.  The frames of one batch share one ``Time`` and
one ``t_frame_received``; a frame that arrives alone is a batch of one.

Triggers go to the server over TCP by flat combining (Hendler et al., SPAA
2010).  Ingest only queues a triggered frame under the ingest lock; once the
lock is released, the ingesting thread sends the queue itself unless another
thread is already sending, in which case it returns at once and that sender
keeps going until the queue is empty.  Each pass sends what queued during the
previous round trip as one multi-row predict per channel count, in arrival
order, so an uncontended trigger is still answered before ``ingest`` returns,
while under load the other nodes keep persisting during a round trip or a
retry backoff.  A coalesced frame's ``t_request_sent`` is the time its batch
was sent, and each batch's latency rows are written with one write.
``Gateway._fire`` is where fired frames leave the ingest pass; the bench's
periodic-scan baseline overrides it to hand them over as files.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .dataset import table_csv_header, table_csv_row
from .protocol import (
    MAX_FRAME_SIZE,
    ConnectionClosed,
    FrameError,
    TelemetryFrame,
    decode,
    listen,
    recv_batches,
    recv_message,
    send_message,
    serve_connections,
)

log = logging.getLogger(__name__)

LATENCY_HEADER = ["frame_counter", "node_id", "t_frame_received", "t_request_sent",
                  "t_response_received", "end_to_end"]


class GatewayError(Exception):
    pass


class ServerUnreachable(GatewayError):
    pass


class ShapeMismatch(GatewayError):
    """The server rejected the feature width; a configuration error, fatal."""


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
    server_endpoint: str = "127.0.0.1:7420"
    mode: str = "push"  # the only mode; kept while perfbench/sut.py passes it
    persistence_path: str = "telemetry.csv"
    trigger: TriggerRule = field(default_factory=TriggerRule)
    latency_log_path: str | None = None
    model_id: str = "default"
    retry_backoff: float = 0.2
    connect_timeout: float = 5.0

    def __post_init__(self):
        if not self.node_endpoints:
            raise ValueError("at least one node endpoint required")
        if self.mode != "push":
            raise ValueError(f"unknown mode {self.mode!r}")


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

    On open, a final line that is incomplete (no newline) or unparseable is
    moved to ``<path>.quarantine`` rather than silently accepted, and
    ``last_row`` holds the cells of the last row kept, or None.  A new file
    gets ``header``.  ``append`` renders its rows to text and writes them with
    one unbuffered write; a failed or short write is cut back off the file
    and raises PersistenceFailure, so the rows are lost whole and nothing of
    them is written later.
    """

    def __init__(self, path, header: list[str]):
        self.path = Path(path)
        self.header = header
        self.last_row = self._recover()
        self._lines = _Lines()
        self._writer = csv.writer(self._lines, lineterminator="\n")
        self._fh = open(self.path, "ab", buffering=0)
        try:
            self._size = self._fh.seek(0, io.SEEK_END)
            if self._size == 0:
                self.append([header])
        except BaseException:
            self._fh.close()
            raise

    def _recover(self) -> list[str] | None:
        """Quarantine the torn tail and return the last row kept, reading back from the end.

        Only the lines after the last row that parses are read, so a restart
        costs the same whatever the file's size.  The header line is never
        quarantined.
        """
        if not self.path.exists():
            if self.path.parent != Path(""):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            return None
        last = None
        with open(self.path, "r+b") as fh:
            end = fh.seek(0, io.SEEK_END)
            keep = end
            for offset, line in _lines_backward(fh, end):
                if line.endswith(b"\n"):
                    last = self._parsed(line[:-1])
                    if last is not None or offset == 0:
                        break
                keep = offset
            if keep < end:
                fh.seek(keep)
                torn = fh.read()
                with open(self.path.with_suffix(self.path.suffix + ".quarantine"), "ab") as q:
                    q.write(torn)
                fh.truncate(keep)
                log.warning("quarantined torn row(s) in %s", self.path)
        return last

    def _parsed(self, line: bytes) -> list[str] | None:
        """The cells of a data row: an int, then floats, as many as the header; else None."""
        try:
            row = next(csv.reader(io.StringIO(line.decode("utf-8"))))
            if len(row) != len(self.header):
                return None
            int(row[0])
            for v in row[1:]:
                float(v)
        except (StopIteration, UnicodeDecodeError, csv.Error, ValueError):
            return None
        return row

    def append(self, rows) -> None:
        """Write an iterable of rows with one write, all of them or none."""
        try:
            for row in rows:  # writerow per row: faster than writerows for a batch of one
                self._writer.writerow(row)
            data = "".join(self._lines).encode("utf-8")
        finally:
            self._lines.clear()
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


class _Lines(list):
    """The lines a ``csv.writer`` renders, kept for one write of all of them."""

    write = list.append


def _lines_backward(fh, end: int):
    """Yield ``(offset, line)`` for each line of the file's first ``end`` bytes, last first.

    A line keeps its newline; only the last one can lack it.
    """
    pos, buf = end, b""
    while True:
        stop = len(buf)
        cut = buf.rfind(b"\n", 0, stop - 1)
        while cut >= 0:  # buf[cut + 1:stop] starts a line
            yield pos + cut + 1, buf[cut + 1:stop]
            stop = cut + 1
            cut = buf.rfind(b"\n", 0, stop - 1)
        buf = buf[:stop]
        if pos == 0:
            if buf:
                yield 0, buf
            return
        step = min(io.DEFAULT_BUFFER_SIZE, pos)
        pos -= step
        fh.seek(pos)
        buf = fh.read(step) + buf


class Gateway:
    """Single-owner ingest/trigger pipeline; one instance per deployment."""

    def __init__(self, config: GatewayConfig):
        self.config = config
        self._csv: CsvAppender | None = None
        self._next_index = 0  # the telemetry CSV's running row index
        self._seen: dict[int, set[int]] = {}               # node_id -> counters
        self._baseline: dict[int, tuple[float, ...]] = {}  # node_id -> last triggering R
        self._server_sock: socket.socket | None = None
        self._request_id = 0
        self._request_lock = threading.Lock()  # request id + server socket
        self._ingest_lock = threading.Lock()  # readers of many nodes funnel in
        # push triggers awaiting the sender; guarded by the ingest lock, and
        # never non-empty while _sending is False
        self._pending: list[tuple[TelemetryFrame, float]] = []
        self._sending = False
        # triggers answered so far, each one a latency-log row; only the
        # thread recording latency rows writes it
        self.answered = 0
        self._latency = (CsvAppender(config.latency_log_path, LATENCY_HEADER)
                         if config.latency_log_path else None)

    # -- ingest -------------------------------------------------------------------

    def ingest(self, frame: TelemetryFrame) -> bool:
        """Ingest one decoded frame, a batch of one; True when the trigger rule fired."""
        return self.ingest_frames([frame])[0]

    def ingest_frames(self, frames: list[TelemetryFrame]) -> list[bool]:
        """Persist decoded frames, in order; returns per frame whether the rule fired.

        The frames share one pass under the ingest lock, one ``Time`` and one
        ``t_frame_received``.  Duplicate counters from one node are dropped
        without persisting or triggering; the trigger rule runs frame by frame
        in order.  The rows kept are written with one write; if that fails
        they are lost (logged) and monitoring continues.  Safe to call from
        several node-reader threads: rows are serialized internally, and push
        triggers are sent in arrival order by whichever caller is the sender
        (see the module docstring).  A failed send raises ServerUnreachable or
        ShapeMismatch in the sender's call; the frames stay persisted.
        """
        received = time.perf_counter()
        with self._ingest_lock:
            fired = self._ingest_locked(frames, received)
            if self._sending or not self._pending:
                return fired
            self._sending = True
        self._send_pending()
        return fired

    def _ingest_locked(self, frames: list[TelemetryFrame], received: float) -> list[bool]:
        # Time = arrival wall clock, stamped under the lock so the rows keep time order
        wall = time.time()
        fresh, fired, triggered = [], [], []
        for frame in frames:
            seen = self._seen.setdefault(frame.node_id, set())
            if frame.counter in seen:
                log.debug("dropping duplicate counter %d from node %d",
                          frame.counter, frame.node_id)
                fired.append(False)
                continue
            seen.add(frame.counter)
            fresh.append(frame)
            hit = self._should_trigger(frame)
            if hit:
                self._baseline[frame.node_id] = frame.resistances
                triggered.append(frame)
            fired.append(hit)
        if not fresh:
            return fired
        try:
            self._persist(fresh, wall)
        except PersistenceFailure as exc:
            for frame in fresh:
                log.error("row for counter %d from node %d lost: %s",
                          frame.counter, frame.node_id, exc)
        self._fire(triggered, received, wall)
        return fired

    def _fire(self, frames: list[TelemetryFrame], received: float, wall: float) -> None:
        """Queue fired frames for the sender; runs under the ingest lock, ``wall`` is their Time."""
        self._pending.extend((frame, received) for frame in frames)

    def _persist(self, frames: list[TelemetryFrame], wall: float) -> None:
        """Append one row per frame: Time ``wall``, Strain unknown (nan), t the node counter.

        The log opens on the first call that can open it.
        """
        if self._csv is None:
            try:
                self._csv = CsvAppender(self.config.persistence_path,
                                        table_csv_header(frames[0].channel_count))
            except OSError as exc:
                raise PersistenceFailure(f"cannot open {self.config.persistence_path}: {exc}") \
                    from exc
            self._next_index = int(self._csv.last_row[0]) + 1 if self._csv.last_row else 0
        first = self._next_index
        self._csv.append([first + k, *table_csv_row(wall, math.nan, f.counter, f.resistances)]
                         for k, f in enumerate(frames))
        self._next_index = first + len(frames)

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
        """Send queued triggers until none are left; only the sender calls this.

        Each pass takes the whole queue and sends one request per channel
        count, in order of arrival.  On a failed send the frames not yet
        answered, and any queued behind them, lose their prediction: they are
        logged, the queue is cleared, the sender role is released and the
        error propagates.
        """
        queued: list[tuple[TelemetryFrame, float]] = []
        try:
            while True:
                with self._ingest_lock:
                    queued, self._pending = self._pending, []
                    if not queued:
                        self._sending = False
                        return
                while queued:
                    width = queued[0][0].channel_count
                    batch = [item for item in queued if item[0].channel_count == width]
                    sent = time.perf_counter()
                    self.request_prediction([list(f.resistances) for f, _ in batch])
                    done = time.perf_counter()
                    self._record_latency([(f, received, sent, done) for f, received in batch])
                    queued = [item for item in queued if item[0].channel_count != width]
        except BaseException:
            with self._ingest_lock:
                lost = queued + self._pending
                self._pending = []
                self._sending = False
            log.error("trigger send failed; predictions lost for (node, counter) %s",
                      [(f.node_id, f.counter) for f, _ in lost])
            raise

    def request_prediction(self, rows: list[list[float]]) -> list[float]:
        """Round-trip one predict request; retries transport failures.

        Raises ServerUnreachable after 5 failed attempts (exponential
        backoff), ShapeMismatch when the server rejects the feature width.
        Safe to call from any thread: calls take turns on the one server
        connection.
        """
        with self._request_lock:
            self._request_id += 1
            request = {"type": "predict", "request_id": self._request_id,
                       "model_id": self.config.model_id, "rows": rows}
            payload = json.dumps(request).encode()
            last_error: Exception | None = None
            for attempt in range(5):
                if attempt:
                    time.sleep(self.config.retry_backoff * 2 ** (attempt - 1))
                try:
                    sock = self._server_connection()
                    send_message(sock, payload)
                    reply = json.loads(recv_message(sock).decode("utf-8"))
                except (OSError, ConnectionClosed, ValueError) as exc:
                    last_error = exc
                    self._drop_server_connection()
                    continue
                if reply.get("type") == "predict_ok":
                    return [float(p) for p in reply["predictions"]]
                if reply.get("error") == "shape_mismatch":
                    raise ShapeMismatch(reply.get("detail", "shape mismatch"))
                last_error = GatewayError(f"server error: {reply!r}")
            raise ServerUnreachable(f"5 attempts failed: {last_error}")

    def _server_connection(self) -> socket.socket:
        if self._server_sock is None:
            host, port = self.config.server_endpoint.rsplit(":", 1)
            self._server_sock = socket.create_connection(
                (host, int(port)), timeout=self.config.connect_timeout)
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
            self._latency.append([frame.counter, frame.node_id, received, sent, done,
                                  done - received]
                                 for frame, received, sent, done in answers)
        except PersistenceFailure as exc:
            for frame, *_ in answers:
                log.error("latency row for counter %d from node %d lost: %s",
                          frame.counter, frame.node_id, exc)

    def close(self) -> None:
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
    ingested as one batch (``Gateway.ingest_frames``).  Undecodable frames
    are logged and skipped, and so is a trigger that fails to reach the
    server, so one failure never ends the node's stream.  A length prefix
    above the widest frame (MAX_FRAME_SIZE) ends it.  Returns the number of
    frames ingested.
    """
    count = 0
    for messages in recv_batches(conn, MAX_FRAME_SIZE):
        frames = []
        for raw in messages:
            try:
                frames.append(decode(raw))
            except FrameError:
                log.exception("undecodable frame, skipping")
        if not frames:
            continue
        try:
            gateway.ingest_frames(frames)
        except GatewayError:
            log.exception("trigger send failed while ingesting %d frame(s)", len(frames))
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
