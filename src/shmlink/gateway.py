"""Client-side gateway: ingests node telemetry, persists it, triggers inference.

The gateway sits between the sensor link and the inference service.  Each
decoded frame is appended to a crash-safe CSV (canonical
``index,Time,Strain,t,R1..Rn`` layout; strain is unknown at ingest and stored
as nan, t carries the node counter), duplicate counters are dropped, and a
configurable event rule decides when a frame triggers a prediction request.
Every answered trigger appends one row to the latency log, stamped on the
monotonic clock in program order: frame received <= request sent <= response
received.

In push mode triggers go to the server over TCP by flat combining (Hendler
et al., SPAA 2010).  Ingest only queues a triggered frame under the ingest
lock; once the lock is released, the ingesting thread sends the queue itself
unless another thread is already sending, in which case it returns at once
and that sender keeps going until the queue is empty.  Each pass sends what
queued during the previous round trip as one multi-row predict per channel
count, in arrival order, so an uncontended trigger is still answered before
``ingest`` returns, while under load the other nodes keep persisting during a
round trip or a retry backoff.  A coalesced frame's ``t_request_sent`` is the
time its batch was sent.  In poll-compat mode (the legacy topology kept for
benchmarking) triggers are written as upload files that the server's periodic
scan will answer.
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

from .dataset import AlignedRecord, table_csv_header, table_csv_row, write_atomic, write_table_csv
from .protocol import (
    ConnectionClosed,
    FrameError,
    TelemetryFrame,
    decode,
    listen,
    recv_message,
    send_message,
    serve_connections,
)

log = logging.getLogger(__name__)


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
        if self.delta_ohm < 0:
            raise ValueError("delta_ohm must be >= 0")


@dataclass
class GatewayConfig:
    # node endpoints are bind addresses: the gateway listens and emulated
    # nodes dial out (see serve_nodes / node_listener)
    node_endpoints: list[str] = field(default_factory=lambda: ["127.0.0.1:0"])
    server_endpoint: str = "127.0.0.1:7420"
    mode: str = "push"  # push | poll-compat
    persistence_path: str = "telemetry.csv"
    trigger: TriggerRule = field(default_factory=TriggerRule)
    latency_log_path: str | None = None
    model_id: str = "default"
    upload_dir: str | None = None      # poll-compat only
    retry_backoff: float = 0.2
    connect_timeout: float = 5.0

    def __post_init__(self):
        if not self.node_endpoints:
            raise ValueError("at least one node endpoint required")
        if self.mode not in ("push", "poll-compat"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "poll-compat" and not self.upload_dir:
            raise ValueError("poll-compat mode requires upload_dir")


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
    """Append-only CSV persistence with torn-line quarantine on restart.

    On open, a final line that is incomplete (no newline) or unparseable is
    moved to ``<path>.quarantine`` rather than silently accepted, and the
    running row index resumes from the last valid row.  Appends are flushed
    per row.
    """

    def __init__(self, path, header: list[str]):
        self.path = Path(path)
        self.header = header
        self.next_index = 0
        self._recover()
        self._fh = open(self.path, "a", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        if self._fh.tell() == 0:
            self._writer.writerow(header)
            self._fh.flush()

    def _recover(self) -> None:
        """Quarantine the torn tail and resume the index, reading back from the end.

        Only the lines after the last row that parses are read, so a restart
        costs the same whatever the file's size.  The header line is never
        quarantined.
        """
        if not self.path.exists():
            if self.path.parent != Path(""):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            return
        with open(self.path, "r+b") as fh:
            end = fh.seek(0, io.SEEK_END)
            keep = end
            for offset, line in _lines_backward(fh, end):
                if line.endswith(b"\n"):
                    if self._parses(line[:-1]):
                        self.next_index = int(line.split(b",", 1)[0].decode()) + 1
                        break
                    if offset == 0:
                        break
                keep = offset
            if keep < end:
                fh.seek(keep)
                torn = fh.read()
                with open(self.path.with_suffix(self.path.suffix + ".quarantine"), "ab") as q:
                    q.write(torn)
                fh.truncate(keep)
                log.warning("quarantined torn row(s) in %s", self.path)

    def _parses(self, line: bytes) -> bool:
        try:
            row = next(csv.reader(io.StringIO(line.decode("utf-8"))))
        except (StopIteration, UnicodeDecodeError, csv.Error):
            return False
        if len(row) != len(self.header):
            return False
        try:
            int(row[0])
            for v in row[1:]:
                float(v)
        except ValueError:
            return False
        return True

    def append(self, values: list) -> int:
        index = self.next_index
        try:
            self._writer.writerow([index, *values])
            self._fh.flush()
        except OSError as exc:
            raise PersistenceFailure(str(exc)) from exc
        self.next_index += 1
        return index

    def close(self) -> None:
        self._fh.close()


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
        self._pending_polls: dict[Path, tuple[TelemetryFrame, float, float]] = {}
        # triggers answered so far, each one a latency-log row; only the one
        # sender or poll watcher writes it
        self.answered = 0
        self._latency_fh = None
        if config.latency_log_path:
            self._latency_fh = open(config.latency_log_path, "a", encoding="utf-8", newline="")
            if self._latency_fh.tell() == 0:
                self._latency_fh.write("frame_counter,node_id,t_frame_received,"
                                       "t_request_sent,t_response_received,end_to_end\n")

    # -- ingest -------------------------------------------------------------------

    def ingest(self, frame: TelemetryFrame) -> bool:
        """Persist one decoded frame; returns True when the trigger rule fired.

        Duplicate counters from one node are dropped without persisting or
        triggering.  A persistence failure loses that row only (logged);
        monitoring continues.  Safe to call from several node-reader threads:
        rows are serialized internally, and push triggers are sent in arrival
        order by whichever caller is the sender (see the module docstring).
        A failed send raises ServerUnreachable or ShapeMismatch in the
        sender's call; the frame itself stays persisted.
        """
        received = time.perf_counter()
        with self._ingest_lock:
            fired = self._ingest_locked(frame, received)
            if self._sending or not self._pending:
                return fired
            self._sending = True
        self._send_pending()
        return fired

    def _ingest_locked(self, frame: TelemetryFrame, received: float) -> bool:
        seen = self._seen.setdefault(frame.node_id, set())
        if frame.counter in seen:
            log.debug("dropping duplicate counter %d from node %d", frame.counter, frame.node_id)
            return False
        seen.add(frame.counter)

        if self._csv is None:
            self._csv = CsvAppender(self.config.persistence_path,
                                    table_csv_header(frame.channel_count))
        # Time = arrival wall clock, Strain unknown at ingest, t = node counter
        wall = time.time()
        try:
            self._csv.append(table_csv_row(wall, math.nan, frame.counter, frame.resistances))
        except PersistenceFailure:
            log.exception("row for counter %d lost", frame.counter)

        if not self._should_trigger(frame):
            return False
        self._baseline[frame.node_id] = frame.resistances
        if self.config.mode == "push":
            self._pending.append((frame, received))
        else:
            self._submit_poll_upload(frame, received, wall)
        return True

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
                    for f, received in batch:
                        self._record_latency(f, received, sent, done)
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

    # -- poll-compat topology -----------------------------------------------------------

    def _submit_poll_upload(self, frame: TelemetryFrame, received: float, wall: float) -> None:
        """Write the triggered frame's persisted row, same ``Time``, as an upload file.

        An upload that cannot be written loses that frame's prediction only
        (logged); monitoring continues.
        """
        record = AlignedRecord(time=wall, strain=math.nan,
                               t=float(frame.counter), resistances=frame.resistances)
        dest = Path(self.config.upload_dir) / f"trigger_{frame.node_id:04d}_{frame.counter:08d}.csv"
        try:
            write_atomic(dest, write_table_csv([record]))
        except OSError:
            log.exception("poll upload failed; prediction lost for (node, counter) (%d, %d)",
                          frame.node_id, frame.counter)
            return
        # the result cannot exist before the rename, so received <= sent <= done holds
        sent = time.perf_counter()
        self._pending_polls[dest.with_suffix(".pred.json")] = (frame, received, sent)

    def poll_results_once(self) -> int:
        """Collect any poll-compat results that have appeared; returns count.

        Safe to call from a watcher thread while ingest keeps submitting.
        """
        completed = []
        for result_path, (frame, received, sent) in list(self._pending_polls.items()):
            if result_path.exists():
                done = time.perf_counter()
                self._record_latency(frame, received, sent, done)
                completed.append(result_path)
        for path in completed:
            del self._pending_polls[path]
        return len(completed)

    # -- latency -----------------------------------------------------------------------

    def _record_latency(self, frame: TelemetryFrame, received: float,
                        sent: float, done: float) -> None:
        self.answered += 1
        if self._latency_fh is not None:
            self._latency_fh.write(f"{frame.counter},{frame.node_id},{received!r},{sent!r},"
                                   f"{done!r},{done - received!r}\n")
            self._latency_fh.flush()

    def close(self) -> None:
        with self._request_lock:
            self._drop_server_connection()
        if self._csv is not None:
            self._csv.close()
        if self._latency_fh is not None:
            self._latency_fh.close()


# -- live node intake ------------------------------------------------------------------


def node_listener(bind_host: str, bind_port: int) -> socket.socket:
    """Bind a listening socket for node telemetry streams."""
    return listen(bind_host, bind_port)


def read_node_stream(conn: socket.socket, gateway: Gateway) -> int:
    """Ingest length-prefixed frames from one node connection until EOF.

    Undecodable frames are logged and skipped, and so is a trigger that
    fails to reach the server, so one failure never ends the node's stream;
    returns the number ingested.
    """
    count = 0
    while True:
        try:
            raw = recv_message(conn)
        except (ConnectionClosed, OSError, ValueError):
            break
        try:
            frame = decode(raw)
        except FrameError:
            log.exception("undecodable frame, skipping")
            continue
        try:
            gateway.ingest(frame)
        except GatewayError:
            log.exception("trigger failed for counter %d from node %d",
                          frame.counter, frame.node_id)
        count += 1
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
