"""Inference service: loads strain regressors and answers prediction queries.

Clients connect over TCP and exchange length-prefixed (u32 LE) JSON messages
with a ``type`` field of predict / load_model / health.  ``handle_predict`` is
the model application behind every predict answer, a push gateway's and the
bench's periodic-scan baseline's alike: both send their batches over TCP.

A malformed message earns an error reply, built by ``Refused.reply``, on its
own connection and never disturbs other clients: ``bad_message`` for an
unknown type, a missing field, a ``model_id`` that is not a non-empty string,
a cell that is not a finite number or a prediction that overflows,
``shape_mismatch`` for rows that are not an (n, d_in) matrix,
``model_not_loaded``, ``bad_model``, ``too_many_models`` for a load under a
new id when MAX_MODELS are loaded, and ``internal`` for a fault of the
server's own.  Model state is read-shared and replaced atomically by
load_model.
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
from .protocol import (DEFAULT_HOST, DEFAULT_PORT, MAX_MESSAGE_SIZE, listen, recv_batches,
                       send_message, serve_connections)

log = logging.getLogger(__name__)

DEFAULT_MODEL_ID = "default"  # what a predict without a model_id is answered by
MAX_MODELS = 64  # loaded models; a load under a new id beyond it is refused, a replacement never


class Refused(Exception):
    """A request answered with an error reply: ``error`` is its code, the message its detail."""

    def __init__(self, error: str, detail: str):
        super().__init__(detail)
        self.error = error

    def reply(self, request_id: int | None = None) -> dict:
        """The error reply document; it echoes ``request_id`` when one is given."""
        reply = {"type": "error", "error": self.error, "detail": str(self)}
        if request_id is not None:
            reply["request_id"] = request_id
        return reply


@dataclass
class ServerConfig:
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    model_files: dict[str, str] = field(default_factory=dict)  # model_id -> path


class InferenceServer:
    """Concurrent TCP service around a read-shared model table."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self._models: dict[str, mlp.MlpModel] = {}
        self._models_lock = threading.Lock()
        self._listener: socket.socket | None = None
        self._accept: threading.Thread | None = None  # stop() joins it
        self._stop = threading.Event()
        if len(config.model_files) > MAX_MODELS:
            raise ValueError(f"{len(config.model_files)} model files; at most {MAX_MODELS}")
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
                    reply = Refused("internal", str(exc)).reply()
                try:
                    send_message(conn, json.dumps(reply).encode())
                except OSError:
                    return

    # -- message handling ----------------------------------------------------------

    def handle_message(self, raw: bytes) -> dict:
        """Dispatch one request document and build the reply document, a Refused's included."""
        request_id = None  # a predict's error reply echoes it once found an integer
        try:
            try:
                msg = json.loads(raw.decode("utf-8"))
                if not isinstance(msg, dict):
                    raise ValueError("not an object")
                mtype = msg["type"]
            except (ValueError, KeyError) as exc:  # UnicodeDecodeError is a ValueError
                raise Refused("bad_message", str(exc)) from None
            except RecursionError:  # json.loads on deeply nested arrays or objects
                raise Refused("bad_message", "nested too deeply") from None
            if mtype == "health":
                return {"type": "health_ok", "model_id": DEFAULT_MODEL_ID,
                        "models": sorted(self._models)}
            if mtype == "load_model":
                return self._on_load_model(msg)
            if mtype != "predict":
                raise Refused("bad_message", f"unknown type {mtype!r}")
            given = msg.get("request_id", 0)
            if not isinstance(given, int) or isinstance(given, bool):
                raise Refused("bad_message", f"request_id {given!r} is not an integer")
            request_id = given
            if "rows" not in msg:
                raise Refused("bad_message", "missing 'rows'")
            model_id = _check_model_id(msg.get("model_id", DEFAULT_MODEL_ID))
            result = self.handle_predict(model_id, msg["rows"])
            return {"type": "predict_ok", "request_id": request_id, **result}
        except Refused as exc:
            return exc.reply(request_id)

    def handle_predict(self, model_id: str, rows) -> dict:
        """Pure model application: ``{"model_id", "predictions", "processing_time"}``.

        Raises Refused: ``bad_message`` when a cell of ``rows`` or a
        prediction is not a finite number, so every answer is strict JSON;
        ``model_not_loaded``; ``shape_mismatch`` when ``rows`` is not an
        (n, d_in) matrix.  The answers come from ``mlp.forward_rows``, the
        one forward behind every score and every answer: a row's answer is
        bit-identical however clients batch their requests, so a gateway may
        coalesce triggers freely, and it is the prediction ``mlp.evaluate``
        scores for that row.
        """
        _check_cells(rows)
        with self._models_lock:
            model = self._models.get(model_id)
        if model is None:
            raise Refused("model_not_loaded", f"no model loaded under id {model_id!r}")
        started = time.perf_counter()
        try:
            predictions = mlp.forward_rows(model, rows).tolist()
        except (mlp.DimensionMismatch, TypeError, ValueError) as exc:
            raise Refused("shape_mismatch", str(exc)) from None
        if not all(map(math.isfinite, predictions)):
            raise Refused("bad_message", "a prediction overflowed")
        return {"model_id": model_id, "predictions": predictions,
                "processing_time": time.perf_counter() - started}

    def _on_load_model(self, msg: dict) -> dict:
        try:
            model_id = _check_model_id(msg["model_id"])
            if "document" in msg:
                model = mlp.model_from_doc(msg["document"])
            else:
                model = mlp.load_model(str(msg["path"]))
        except KeyError as exc:
            raise Refused("bad_message", f"missing {exc}") from None
        except mlp.MlError as exc:
            raise Refused("bad_model", str(exc)) from None
        with self._models_lock:
            if model_id not in self._models and len(self._models) >= MAX_MODELS:
                raise Refused("too_many_models",
                              f"{MAX_MODELS} models are loaded; {model_id!r} is not one of them")
            self._models[model_id] = model
        return {"type": "load_model_ok", "model_id": model_id}


def _check_model_id(model_id) -> str:
    """Refuses ``bad_message`` unless ``model_id`` is a non-empty string."""
    if not isinstance(model_id, str) or not model_id:
        raise Refused("bad_message", f"model_id {model_id!r} is not a non-empty string")
    return model_id


def _check_cells(rows) -> None:
    """Refuses ``bad_message`` at the first cell of a list row that is not a finite JSON number.

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
            raise Refused("bad_message", f"cell {v!r} is not a finite number")

