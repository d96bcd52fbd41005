"""Inference service: loads strain regressors and answers prediction queries.

Two topologies are supported.  In the push topology clients connect over TCP
and exchange length-prefixed (u32 LE) JSON messages with a ``type`` field of
predict / upload_data / load_model / poll_config / health.  In the legacy
poll topology the server periodically scans an upload directory for new data
files and writes prediction results beside them; the bench compares the two.

A malformed message earns an error response on its own connection and never
disturbs other clients.  Model state is read-shared and replaced atomically
by load_model.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mlp
from .dataset import read_table_csv
from .protocol import ConnectionClosed, recv_message, send_message

log = logging.getLogger(__name__)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7420


class ModelNotLoaded(Exception):
    def __init__(self, model_id: str):
        super().__init__(f"no model loaded under id {model_id!r}")
        self.model_id = model_id


@dataclass(frozen=True)
class PredictRequest:
    request_id: int
    model_id: str
    rows: np.ndarray
    timestamp: float


@dataclass(frozen=True)
class PredictResponse:
    request_id: int
    predictions: tuple[float, ...]
    model_id: str
    processing_time: float


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
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._poll_thread: threading.Thread | None = None
        self._poll_stop = threading.Event()
        self._poll_interval = 0.0
        for model_id, path in config.model_files.items():
            self._models[model_id] = mlp.load_model(path)  # startup failure propagates

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Bind and serve; raises on an unbindable address."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(32)
        self._listener = listener
        accept = threading.Thread(target=self._accept_loop, daemon=True, name="shmlink-accept")
        accept.start()
        self._threads.append(accept)

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "server not started"
        return self._listener.getsockname()

    def stop(self) -> None:
        """Close the listener and every live connection; port is free after."""
        self._stop.set()
        self._poll_stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._connections_lock:
            open_conns = list(self._connections)
        for conn in open_conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._poll_thread is not None:
            self._poll_thread.join(timeout=5)

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed
            worker = threading.Thread(target=self._serve_connection, args=(conn, peer),
                                      daemon=True)
            worker.start()

    def _serve_connection(self, conn: socket.socket, peer) -> None:
        with self._connections_lock:
            self._connections.add(conn)
        try:
            with conn:
                while not self._stop.is_set():
                    try:
                        raw = recv_message(conn)
                    except (ConnectionClosed, OSError):
                        return
                    except ValueError:
                        return  # framing broken beyond recovery
                    try:
                        reply = self.handle_message(raw)
                    except Exception as exc:  # never let one client kill the worker
                        log.exception("unhandled error from %s", peer)
                        reply = {"type": "error", "error": "internal", "detail": str(exc)}
                    try:
                        send_message(conn, json.dumps(reply).encode())
                    except OSError:
                        return
        finally:
            with self._connections_lock:
                self._connections.discard(conn)

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
        if mtype == "upload_data":
            return self._on_upload(msg)
        if mtype == "load_model":
            return self._on_load_model(msg)
        if mtype == "poll_config":
            return self._on_poll_config(msg)
        return {"type": "error", "error": "bad_message", "detail": f"unknown type {mtype!r}"}

    def _on_predict(self, msg: dict) -> dict:
        request_id = msg.get("request_id", 0)
        try:
            rows = msg["rows"]
        except KeyError:
            return {"type": "error", "error": "bad_message", "detail": "missing 'rows'",
                    "request_id": request_id}
        try:
            request = PredictRequest(request_id=int(request_id),
                                     model_id=str(msg.get("model_id") or self.config.default_model_id),
                                     rows=np.array(rows, dtype=float),
                                     timestamp=float(msg.get("timestamp", 0.0)))
            response = self.handle_predict(request)
        except ModelNotLoaded as exc:
            return {"type": "error", "error": "model_not_loaded", "detail": str(exc),
                    "request_id": request_id}
        except (mlp.DimensionMismatch, TypeError, ValueError) as exc:
            return {"type": "error", "error": "shape_mismatch", "detail": str(exc),
                    "request_id": request_id}
        return {"type": "predict_ok", "request_id": response.request_id,
                "model_id": response.model_id,
                "predictions": list(response.predictions),
                "processing_time": response.processing_time}

    def handle_predict(self, request: PredictRequest) -> PredictResponse:
        """Pure model application; raises ModelNotLoaded / DimensionMismatch.

        The result for a given row is bit-identical however clients batch
        their requests, so a gateway may coalesce triggers freely.  A single
        (n, d_in) matrix product may round differently per batch shape;
        ``mlp.forward_rows`` instead multiplies a stack of 1-row matrices, and
        numpy applies the same 1-row kernel to every slice of the stack.
        """
        with self._models_lock:
            model = self._models.get(request.model_id)
        if model is None:
            raise ModelNotLoaded(request.model_id)
        started = time.perf_counter()
        predictions = tuple(mlp.forward_rows(model, request.rows).tolist())
        return PredictResponse(request_id=request.request_id, predictions=predictions,
                               model_id=request.model_id,
                               processing_time=time.perf_counter() - started)

    def _on_upload(self, msg: dict) -> dict:
        if self.config.upload_dir is None:
            return {"type": "error", "error": "bad_message", "detail": "no upload_dir configured"}
        try:
            name = Path(str(msg["name"])).name  # strip any directory parts
            content = str(msg["content"])
        except KeyError as exc:
            return {"type": "error", "error": "bad_message", "detail": f"missing {exc}"}
        if name in ("", "..") or "\0" in name:
            return {"type": "error", "error": "bad_message",
                    "detail": f"not a file name: {msg['name']!r}"}
        dest = Path(self.config.upload_dir) / name
        dest.parent.mkdir(parents=True, exist_ok=True)
        tmp = dest.with_suffix(dest.suffix + ".tmp")
        tmp.write_text(content, encoding="utf-8")
        tmp.replace(dest)
        return {"type": "upload_ok", "path": str(dest)}

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

    def _on_poll_config(self, msg: dict) -> dict:
        enabled = bool(msg.get("enabled", self._poll_thread is not None))
        interval = float(msg.get("interval", self._poll_interval or 5.0))
        if enabled and self._poll_thread is None:
            try:
                self.start_poll_mode(self.config.upload_dir, interval)
            except ValueError as exc:
                return {"type": "error", "error": "bad_message", "detail": str(exc)}
        elif not enabled and self._poll_thread is not None:
            self._poll_stop.set()
            self._poll_thread.join(timeout=5)
            self._poll_thread = None
        return {"type": "poll_config_ok", "enabled": self._poll_thread is not None,
                "interval": self._poll_interval, "upload_dir": self.config.upload_dir}

    # -- legacy poll topology ----------------------------------------------------------

    def start_poll_mode(self, upload_dir, interval: float) -> None:
        """Run poll_mode_run on a background thread until stop() or poll_config off."""
        if interval <= 0:
            raise ValueError("interval must be > 0")
        if upload_dir is None:
            raise ValueError("upload_dir required for poll mode")
        self._poll_interval = interval
        self._poll_stop.clear()
        self._poll_thread = threading.Thread(
            target=self.poll_mode_run, args=(upload_dir, interval), daemon=True,
            name="shmlink-poll")
        self._poll_thread.start()

    def poll_mode_run(self, upload_dir, interval: float) -> None:
        """Every ``interval`` seconds, predict on new uploads and write results.

        Response delay for a file landing between scans is therefore in
        (0, interval] plus processing.  Per-file failures are logged and
        skipped, never fatal.
        """
        upload_dir = Path(upload_dir)
        while not (self._stop.is_set() or self._poll_stop.is_set()):
            scan_started = time.perf_counter()
            try:
                self.poll_scan_once(upload_dir)
            except OSError:
                log.exception("poll scan failed")
            elapsed = time.perf_counter() - scan_started
            self._poll_stop.wait(max(0.0, interval - elapsed))
            if self._stop.is_set():
                return

    def poll_scan_once(self, upload_dir) -> int:
        """Process every pending upload once; returns the number handled."""
        upload_dir = Path(upload_dir)
        if not upload_dir.is_dir():
            return 0
        handled = 0
        for path in sorted(upload_dir.glob("*.csv")):
            result = path.with_suffix(".pred.json")
            if result.exists():
                continue
            try:
                records = read_table_csv(path.read_text(encoding="utf-8"))
                rows = np.array([r.resistances for r in records])
                request = PredictRequest(request_id=0,
                                         model_id=self.config.default_model_id,
                                         rows=rows, timestamp=time.time())
                response = self.handle_predict(request)
                doc = {"name": path.name, "model_id": response.model_id,
                       "predictions": list(response.predictions),
                       "processing_time": response.processing_time}
                tmp = result.with_suffix(".tmp")
                tmp.write_text(json.dumps(doc), encoding="utf-8")
                tmp.replace(result)  # atomic: watchers never see partial results
                handled += 1
            except Exception:
                log.exception("skipping upload %s", path)
        return handled


def serve(config: ServerConfig) -> InferenceServer:
    """Load models, bind, and return the running service."""
    server = InferenceServer(config)
    server.start()
    return server
