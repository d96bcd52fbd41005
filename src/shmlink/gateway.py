"""Client-side gateway: ingests node telemetry, persists it, triggers inference.

The gateway sits between the sensor link and the inference service.  Each
decoded frame is appended to a crash-safe CSV (canonical
``index,Time,Strain,t,R1..Rn`` layout; strain is unknown at ingest and stored
as nan, t carries the node counter), duplicate counters are dropped, and a
configurable event rule decides when a frame triggers a prediction request.
Every trigger produces a latency record stamped on the monotonic clock:
frame received <= request sent <= response received.

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

from .dataset import AlignedRecord, table_csv_header, write_table_csv
from .protocol import (
    ConnectionClosed,
    FrameError,
    TelemetryFrame,
    decode,
    recv_message,
    send_message,
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


@dataclass(frozen=True)
class LatencyRecord:
    """Trigger-to-response timing for one frame, monotonic-clock seconds."""

    frame_counter: int
    node_id: int
    t_frame_received: float
    t_request_sent: float
    t_response_received: float

    def __post_init__(self):
        if not (self.t_frame_received <= self.t_request_sent <= self.t_response_received):
            raise ValueError("latency timestamps must be monotone")

    @property
    def end_to_end(self) -> float:
        return self.t_response_received - self.t_frame_received


def latency_summary(records: list[LatencyRecord]) -> dict[str, float]:
    """Mean, nearest-rank p50/p95, and max of end-to-end latencies."""
    if not records:
        raise NoRecords("no latency records")
    values = sorted(r.end_to_end for r in records)
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
        new_file = not self.path.exists() or self.path.stat().st_size == 0
        self._fh = open(self.path, "a", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        if new_file:
            self._writer.writerow(header)
            self._fh.flush()

    def _recover(self) -> None:
        if not self.path.exists():
            if self.path.parent != Path(""):
                self.path.parent.mkdir(parents=True, exist_ok=True)
            return
        data = self.path.read_bytes()
        if not data:
            return
        torn = b""
        if not data.endswith(b"\n"):
            cut = data.rfind(b"\n") + 1
            torn, data = data[cut:], data[:cut]
        lines = data.split(b"\n")  # trailing newline leaves a final empty element
        while len(lines) > 2 and not self._parses(lines[-2]):
            torn = lines[-2] + b"\n" + torn
            del lines[-2]
        if torn:
            with open(self.path.with_suffix(self.path.suffix + ".quarantine"), "ab") as q:
                q.write(torn)
            self.path.write_bytes(b"\n".join(lines))
            log.warning("quarantined torn row(s) in %s", self.path)
        for line in reversed(lines[:-1]):
            if self._parses(line):
                self.next_index = int(line.split(b",", 1)[0].decode()) + 1
                break

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
        self.latency_records: list[LatencyRecord] = []
        self._latency_fh = None
        if config.latency_log_path:
            self._latency_fh = open(config.latency_log_path, "a", encoding="utf-8", newline="")
            if self._latency_fh.tell() == 0:
                self._latency_fh.write("frame_counter,node_id,t_frame_received,"
                                       "t_request_sent,t_response_received,end_to_end\n")

    # -- ingest -------------------------------------------------------------------

    def ingest(self, frame: TelemetryFrame, now: float | None = None) -> bool:
        """Persist one decoded frame; returns True when the trigger rule fired.

        ``now`` is the arrival time on the monotonic clock (defaults to the
        current reading).  Duplicate counters from one node are dropped
        without persisting or triggering.  A persistence failure loses that
        row only (logged); monitoring continues.  Safe to call from several
        node-reader threads: rows are serialized internally, and push triggers
        are sent in arrival order by whichever caller is the sender (see the
        module docstring).  A failed send raises ServerUnreachable or
        ShapeMismatch in the sender's call; the frame itself stays persisted.
        """
        received = time.perf_counter() if now is None else now
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
        try:
            # Time = arrival wall clock, Strain unknown at ingest, t = node counter
            self._csv.append([repr(time.time()), "nan", repr(float(frame.counter)),
                              *(repr(r) for r in frame.resistances)])
        except PersistenceFailure:
            log.exception("row for counter %d lost", frame.counter)

        if not self._should_trigger(frame):
            return False
        self._baseline[frame.node_id] = frame.resistances
        self._fire_trigger(frame, received)
        return True

    def _should_trigger(self, frame: TelemetryFrame) -> bool:
        if self.config.trigger.every_frame:
            return True
        baseline = self._baseline.get(frame.node_id)
        if baseline is None or len(baseline) != frame.channel_count:
            return True
        return any(abs(r - b) >= self.config.trigger.delta_ohm
                   for r, b in zip(frame.resistances, baseline))

    def _fire_trigger(self, frame: TelemetryFrame, received: float) -> None:
        if self.config.mode == "push":
            self._pending.append((frame, received))
        else:
            self._submit_poll_upload(frame, received)

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
                       "model_id": self.config.model_id, "rows": rows,
                       "timestamp": time.time()}
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

    def _submit_poll_upload(self, frame: TelemetryFrame, received: float) -> None:
        assert self.config.upload_dir, "poll-compat mode requires upload_dir"
        record = AlignedRecord(time=time.time(), strain=math.nan,
                               t=float(frame.counter), resistances=frame.resistances)
        dest = Path(self.config.upload_dir) / f"trigger_{frame.node_id:04d}_{frame.counter:08d}.csv"
        dest.parent.mkdir(parents=True, exist_ok=True)
        tmp = dest.with_suffix(".tmp")
        tmp.write_text(write_table_csv([record]), encoding="utf-8")
        sent = time.perf_counter()
        tmp.replace(dest)
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

    @property
    def pending_poll_count(self) -> int:
        return len(self._pending_polls)

    # -- latency -----------------------------------------------------------------------

    def _record_latency(self, frame: TelemetryFrame, received: float,
                        sent: float, done: float) -> None:
        record = LatencyRecord(frame_counter=frame.counter, node_id=frame.node_id,
                               t_frame_received=received, t_request_sent=sent,
                               t_response_received=done)
        self.latency_records.append(record)
        if self._latency_fh is not None:
            self._latency_fh.write(f"{record.frame_counter},{record.node_id},"
                                   f"{record.t_frame_received!r},{record.t_request_sent!r},"
                                   f"{record.t_response_received!r},{record.end_to_end!r}\n")
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
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((bind_host, bind_port))
    sock.listen(8)
    return sock


def read_node_stream(conn: socket.socket, gateway: Gateway,
                     max_frames: int | None = None) -> int:
    """Ingest length-prefixed frames from one node connection until EOF.

    Undecodable frames are logged and skipped, and so is a trigger that
    fails to reach the server, so one failure never ends the node's stream;
    returns the number ingested.
    """
    count = 0
    while max_frames is None or count < max_frames:
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
    Open connections are closed on stop.
    """
    readers: list[threading.Thread] = []
    connections: list[socket.socket] = []
    listener.settimeout(0.2)
    try:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            connections.append(conn)
            reader = threading.Thread(target=_read_until_eof, args=(conn, gateway),
                                      daemon=True)
            reader.start()
            readers.append(reader)
    finally:
        for conn in connections:
            try:
                conn.close()
            except OSError:
                pass
        for reader in readers:
            reader.join(timeout=5)


def _read_until_eof(conn: socket.socket, gateway: Gateway) -> None:
    with conn:
        read_node_stream(conn, gateway)
