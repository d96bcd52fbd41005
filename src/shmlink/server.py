"""Inference service: loads strain regressors and answers prediction queries.

Clients connect over TCP and exchange length-prefixed (u32 LE) JSON messages
with a ``type`` field of predict / load_model / health.  ``handle_predict`` is
the model application behind every predict answer; the bench's periodic-scan
baseline calls it directly.

A malformed message earns an error response on its own connection and never
disturbs other clients: ``bad_message`` for an unknown type, a missing field, a
cell that is not a finite number or a prediction that overflows,
``shape_mismatch`` for rows of the wrong width.  Model state is read-shared and
replaced atomically by load_model.
"""

from __future__ import annotations

import json
import logging
import math
import socket
import threading
import time
from dataclasses import dataclass, field

from . import mlp
from .protocol import MAX_MESSAGE_SIZE, listen, recv_batches, send_message, serve_connections

log = logging.getLogger(__name__)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7420


class ModelNotLoaded(Exception):
    def __init__(self, model_id: str):
        super().__init__(f"no model loaded under id {model_id!r}")
        self.model_id = model_id


class NotFinite(Exception):
    """A row cell or a prediction is not a finite number; answered ``bad_message``."""


@dataclass
class ServerConfig:
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    model_files: dict[str, str] = field(default_factory=dict)  # model_id -> path
    default_model_id: str = "default"


class InferenceServer:
    """Concurrent TCP service around a read-shared model table."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self._models: dict[str, mlp.MlpModel] = {}
        self._models_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept: threading.Thread | None = None  # stop() joins it
        self._stop = threading.Event()
        for model_id, path in config.model_files.items():
            self._models[model_id] = mlp.load_model(path)  # startup failure propagates

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Bind and serve; raises on an unbindable address."""
        self._listener = listen(self.config.host, self.config.port)
        self._accept = threading.Thread(
            target=serve_connections, args=(self._listener, self._serve_connection, self._stop),
            daemon=True, name="shmlink-accept")
        self._accept.start()

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()

    def stop(self) -> None:
        """Shut every connection, join every server thread, close the listener.

        When this returns the port is free and the accept and connection
        threads have ended; only a handler still busy JOIN_TIMEOUT_S after its
        connection was shut down is left behind, as a daemon thread.
        """
        self._stop.set()
        if self._listener is not None:
            try:  # on Linux this wakes accept() at once, not after ACCEPT_POLL_S
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self._accept is not None:
            self._accept.join()
        if self._listener is not None:
            self._listener.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        # ends when the client closes, stop() shuts the connection down, or a
        # length prefix breaks the framing beyond recovery
        for messages in recv_batches(conn, MAX_MESSAGE_SIZE):
            for raw in messages:
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
        try:
            result = self.handle_predict(str(msg.get("model_id") or self.config.default_model_id),
                                         rows)
        except NotFinite as exc:
            return {"type": "error", "error": "bad_message", "detail": str(exc),
                    "request_id": request_id}
        except ModelNotLoaded as exc:
            return {"type": "error", "error": "model_not_loaded", "detail": str(exc),
                    "request_id": request_id}
        except (mlp.DimensionMismatch, TypeError, ValueError) as exc:
            return {"type": "error", "error": "shape_mismatch", "detail": str(exc),
                    "request_id": request_id}
        return {"type": "predict_ok", "request_id": request_id, **result}

    def handle_predict(self, model_id: str, rows) -> dict:
        """Pure model application: ``{"model_id", "predictions", "processing_time"}``.

        Raises NotFinite when a cell of ``rows`` or a prediction is not a
        finite number, so every answer is strict JSON; ModelNotLoaded; or
        DimensionMismatch / ValueError when ``rows`` is not an (n, d_in)
        matrix.  The result for a given row is
        bit-identical however clients batch their requests, so a gateway may
        coalesce triggers freely.  A single (n, d_in) matrix product may round
        differently per batch shape; ``mlp.forward_rows`` instead multiplies a
        stack of 1-row matrices, and numpy applies the same 1-row kernel to
        every slice of the stack.
        """
        _check_cells(rows)
        with self._models_lock:
            model = self._models.get(model_id)
        if model is None:
            raise ModelNotLoaded(model_id)
        started = time.perf_counter()
        predictions = mlp.forward_rows(model, rows).tolist()
        if not all(map(math.isfinite, predictions)):
            raise NotFinite("a prediction overflowed")
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


def _check_cells(rows) -> None:
    """Raises NotFinite at the first cell of a list row that is not a finite JSON number.

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
            raise NotFinite(f"cell {v!r} is not a finite number")


def serve(config: ServerConfig) -> InferenceServer:
    """Load models, bind, and return the running service."""
    server = InferenceServer(config)
    server.start()
    return server
