"""Inference service: loads strain regressors and answers prediction queries.

Two topologies are supported.  In the push topology clients connect over TCP
and exchange length-prefixed (u32 LE) JSON messages with a ``type`` field of
predict / load_model / health.  In the legacy poll topology the server
periodically scans an upload directory, which the gateway writes into
directly, for new data files and writes prediction results beside them; the
bench compares the two.  An upload holding a cell that is not a finite
number is logged and skipped, and gets no result.

A malformed message earns an error response on its own connection and never
disturbs other clients: ``bad_message`` for an unknown type, a missing field or
a cell that is not a finite number, ``shape_mismatch`` for rows of the wrong
width.  Model state is read-shared and replaced atomically by load_model.
"""

from __future__ import annotations

import json
import logging
import math
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import mlp
from .dataset import read_table_csv, write_atomic
from .protocol import ConnectionClosed, listen, recv_message, send_message, serve_connections

log = logging.getLogger(__name__)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7420


class ModelNotLoaded(Exception):
    def __init__(self, model_id: str):
        super().__init__(f"no model loaded under id {model_id!r}")
        self.model_id = model_id


@dataclass
class ServerConfig:
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    model_files: dict[str, str] = field(default_factory=dict)  # model_id -> path
    default_model_id: str = "default"
    upload_dir: str | None = None


class InferenceServer:
    """Concurrent TCP service around a read-shared model table."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self._models: dict[str, mlp.MlpModel] = {}
        self._models_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []  # accept and poll; stop() joins them
        self._stop = threading.Event()
        for model_id, path in config.model_files.items():
            self._models[model_id] = mlp.load_model(path)  # startup failure propagates

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Bind and serve; raises on an unbindable address."""
        self._listener = listen(self.config.host, self.config.port)
        self._start_thread("shmlink-accept", serve_connections,
                           self._listener, self._serve_connection, self._stop)

    def _start_thread(self, name: str, target, *args) -> None:
        thread = threading.Thread(target=target, args=args, daemon=True, name=name)
        thread.start()
        self._threads.append(thread)

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()

    def stop(self) -> None:
        """Shut every connection, join every server thread, close the listener.

        When this returns the port is free and the accept, connection and poll
        threads have ended; only a handler still busy JOIN_TIMEOUT_S after its
        connection was shut down is left behind, as a daemon thread.
        """
        self._stop.set()
        if self._listener is not None:
            try:  # on Linux this wakes accept() at once, not after ACCEPT_POLL_S
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in self._threads:
            thread.join()
        if self._listener is not None:
            self._listener.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        while True:
            try:
                raw = recv_message(conn)
            except (ConnectionClosed, OSError, ValueError):
                return  # closed, shut down by stop(), or framing broken beyond recovery
            try:
                reply = self.handle_message(raw)
            except Exception as exc:  # never let one client kill the worker
                log.exception("unhandled error on %s", conn)
                reply = {"type": "error", "error": "internal", "detail": str(exc)}
            try:
                send_message(conn, json.dumps(reply).encode())
            except OSError:
                return

    # -- message handling ----------------------------------------------------------

    def handle_message(self, raw: bytes) -> dict:
        """Dispatch one request document and build the reply document."""
        try:
            msg = json.loads(raw.decode("utf-8"))
            if not isinstance(msg, dict):
                raise ValueError("not an object")
            mtype = msg["type"]
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            return {"type": "error", "error": "bad_message", "detail": str(exc)}

        if mtype == "health":
            return {"type": "health_ok", "model_id": self.config.default_model_id,
                    "models": sorted(self._models)}
        if mtype == "predict":
            return self._on_predict(msg)
        if mtype == "load_model":
            return self._on_load_model(msg)
        return {"type": "error", "error": "bad_message", "detail": f"unknown type {mtype!r}"}

    def _on_predict(self, msg: dict) -> dict:
        request_id = msg.get("request_id", 0)
        if not isinstance(request_id, int) or isinstance(request_id, bool):
            return {"type": "error", "error": "bad_message",
                    "detail": f"request_id {request_id!r} is not an integer"}
        try:
            rows = msg["rows"]
        except KeyError:
            return {"type": "error", "error": "bad_message", "detail": "missing 'rows'",
                    "request_id": request_id}
        cell_error = _cell_error(rows)
        if cell_error is not None:
            return {"type": "error", "error": "bad_message", "detail": cell_error,
                    "request_id": request_id}
        try:
            result = self.handle_predict(str(msg.get("model_id") or self.config.default_model_id),
                                         rows)
        except ModelNotLoaded as exc:
            return {"type": "error", "error": "model_not_loaded", "detail": str(exc),
                    "request_id": request_id}
        except (mlp.DimensionMismatch, TypeError, ValueError) as exc:
            return {"type": "error", "error": "shape_mismatch", "detail": str(exc),
                    "request_id": request_id}
        return {"type": "predict_ok", "request_id": request_id, **result}

    def handle_predict(self, model_id: str, rows) -> dict:
        """Pure model application: ``{"model_id", "predictions", "processing_time"}``.

        Raises ModelNotLoaded, or DimensionMismatch / ValueError when ``rows``
        is not an (n, d_in) matrix.  The result for a given row is
        bit-identical however clients batch their requests, so a gateway may
        coalesce triggers freely.  A single (n, d_in) matrix product may round
        differently per batch shape; ``mlp.forward_rows`` instead multiplies a
        stack of 1-row matrices, and numpy applies the same 1-row kernel to
        every slice of the stack.
        """
        with self._models_lock:
            model = self._models.get(model_id)
        if model is None:
            raise ModelNotLoaded(model_id)
        started = time.perf_counter()
        predictions = mlp.forward_rows(model, rows).tolist()
        return {"model_id": model_id, "predictions": predictions,
                "processing_time": time.perf_counter() - started}

    def _on_load_model(self, msg: dict) -> dict:
        try:
            model_id = str(msg["model_id"])
            if "document" in msg:
                model = mlp.model_from_doc(msg["document"])
            else:
                model = mlp.load_model(str(msg["path"]))
        except KeyError as exc:
            return {"type": "error", "error": "bad_message", "detail": f"missing {exc}"}
        except (mlp.MlError, OSError) as exc:
            return {"type": "error", "error": "bad_model", "detail": str(exc)}
        with self._models_lock:
            self._models[model_id] = model
        return {"type": "load_model_ok", "model_id": model_id}

    # -- legacy poll topology ----------------------------------------------------------

    def start_poll_mode(self, interval: float) -> None:
        """Run poll_mode_run on a background thread until stop()."""
        if interval <= 0:
            raise ValueError("interval must be > 0")
        if self.config.upload_dir is None:
            raise ValueError("upload_dir required for poll mode")
        self._start_thread("shmlink-poll", self.poll_mode_run, interval)

    def poll_mode_run(self, interval: float) -> None:
        """Every ``interval`` seconds, predict on new uploads and write results.

        Response delay for a file landing between scans is therefore in
        (0, interval] plus processing.  Per-file failures are logged and
        skipped, never fatal.
        """
        while not self._stop.is_set():
            scan_started = time.perf_counter()
            try:
                self.poll_scan_once()
            except OSError:
                log.exception("poll scan failed")
            elapsed = time.perf_counter() - scan_started
            self._stop.wait(max(0.0, interval - elapsed))

    def poll_scan_once(self) -> int:
        """Answer every pending upload in ``config.upload_dir`` once; returns the count."""
        upload_dir = Path(self.config.upload_dir)
        if not upload_dir.is_dir():
            return 0
        handled = 0
        for path in sorted(upload_dir.glob("*.csv")):
            result = path.with_suffix(".pred.json")
            if result.exists():
                continue
            try:
                records = read_table_csv(path.read_text(encoding="utf-8"))
                rows = [list(r.resistances) for r in records]
                cell_error = _cell_error(rows)
                if cell_error is not None:
                    raise ValueError(cell_error)
                answer = self.handle_predict(self.config.default_model_id, rows)
                # strict JSON: a prediction that overflowed to inf is refused, not written
                write_atomic(result, json.dumps({"name": path.name, **answer}, allow_nan=False))
                handled += 1
            except Exception:
                log.exception("skipping upload %s", path)
        return handled


def _cell_error(rows) -> str | None:
    """Names the first cell of a list row that is not a finite JSON number.

    A bool is not a number here.  Whether ``rows`` is an (n, d_in) matrix is
    left to the shape check.
    """
    for row in rows if isinstance(rows, list) else ():
        for v in row if isinstance(row, list) else ():
            try:
                if type(v) in (int, float) and math.isfinite(v):
                    continue
            except OverflowError:  # an int beyond float range
                pass
            return f"cell {v!r} is not a finite number"
    return None


def serve(config: ServerConfig) -> InferenceServer:
    """Load models, bind, and return the running service."""
    server = InferenceServer(config)
    server.start()
    return server
