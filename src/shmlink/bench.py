"""Push-vs-poll latency benchmark over a real in-process loopback stack.

Spins up the full chain — emulated node firmware streaming framed telemetry
over TCP into the gateway's ``serve_nodes`` intake, gateway ingesting and
triggering, inference server answering — and measures trigger-to-response
time per frame on the monotonic clock.  The calling thread waits for the last
answer, collecting poll results as they appear, and the report is computed
from the gateway's latency log.

Push mode: every frame triggers an immediate TCP predict round trip.
Poll mode, the legacy baseline that lives only here: ``PollGateway`` writes
triggers as upload files that ``scan_uploads`` answers every interval, so
each trigger waits for the next scan.  Frames arrive on the node tick
schedule, spreading arrivals across poll cycles; with the default 0.2 s
tick, 200 triggers span several 5 s cycles and the measured mean approaches
interval/2 plus the processing base, without serializing the waits.
``stream_node`` is the node loop that ``shmlink simulate-node`` runs as well.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import logging
import math
import socket
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from . import mlp
from .adc import AdcEmulator, SensorModel
from .dataset import AlignedRecord, read_table_csv, write_atomic, write_table_csv
from .firmware import NodeFirmware
from .gateway import Gateway, GatewayConfig, TriggerRule, latency_summary, node_listener, serve_nodes
from .protocol import TelemetryFrame, encode, send_message
from .server import InferenceServer, ServerConfig

log = logging.getLogger(__name__)

FIXTURE_RESISTANCES = (47.0, 47.0, 100.0, 100.0, 120.0, 120.0, 120.0, 120.0)

DEFAULT_PUSH_TICK = 0.02
DEFAULT_POLL_TICK = 0.2


def make_bench_model(channels: int, path, seed: int = 0) -> None:
    """Write a small random regressor for the bench to serve."""
    rng = np.random.default_rng(seed)
    base = np.array(FIXTURE_RESISTANCES[:channels])
    model = mlp.init_model(channels, 8, mu=base, sigma=np.ones(channels), rng=rng)
    mlp.save_model(model, path)


def stream_node(sock: socket.socket, firmware: NodeFirmware,
                resistances=None, frames: int | None = None) -> int:
    """Tick the firmware every ``firmware.tick_period`` seconds and send each frame.

    Tick i runs at ``i * tick_period`` on the signal clock.  Each vector of
    ``resistances``, if given, sets the emulated sensors for one tick; the
    loop ends when they run out or after ``frames`` frames, and returns the
    number sent.  A failed send raises OSError.
    """
    tick = firmware.tick_period
    sent = 0
    for vector in itertools.repeat(()) if resistances is None else resistances:
        for ch, r in enumerate(vector):
            firmware.bus.sensors.set_resistance(ch, r)
        send_message(sock, encode(firmware.run_tick(now=firmware.counter * tick)))
        sent += 1
        if frames is not None and sent >= frames:
            break
        time.sleep(tick)
    return sent


class PollGateway(Gateway):
    """A gateway that writes each trigger's persisted row, same ``Time``, as an upload file.

    A failed write loses that frame's prediction only (logged).
    """

    def __init__(self, config: GatewayConfig, upload_dir: Path):
        super().__init__(config)
        self.upload_dir = upload_dir
        # result path -> (frame, received, sent), for collect_results
        self._uploads: dict[Path, tuple[TelemetryFrame, float, float]] = {}

    def _fire(self, frames: list[TelemetryFrame], received: float, wall: float) -> None:
        for frame in frames:
            record = AlignedRecord(time=wall, strain=math.nan,
                                   t=float(frame.counter), resistances=frame.resistances)
            dest = self.upload_dir / f"trigger_{frame.node_id:04d}_{frame.counter:08d}.csv"
            try:
                write_atomic(dest, write_table_csv([record]))
            except OSError:
                log.exception("poll upload failed; prediction lost for (node, counter) (%d, %d)",
                              frame.node_id, frame.counter)
                continue
            # the result cannot exist before the rename, so received <= sent <= done holds
            self._uploads[dest.with_suffix(".pred.json")] = (frame, received, time.perf_counter())

    def collect_results(self) -> None:
        """Record a latency row for each result that has appeared."""
        answers = []
        for result, (frame, received, sent) in list(self._uploads.items()):
            if result.exists():
                answers.append((frame, received, sent, time.perf_counter()))
                del self._uploads[result]
        self._record_latency(answers)


def answer_uploads(server: InferenceServer, upload_dir: Path) -> int:
    """Write ``<name>.pred.json`` beside each upload that has none; returns the count.

    An upload that is not a table, or that ``server.handle_predict`` refuses,
    is logged and skipped, and gets no result.
    """
    handled = 0
    for path in sorted(upload_dir.glob("*.csv")):
        result = path.with_suffix(".pred.json")
        if result.exists():
            continue
        try:
            records = read_table_csv(path.read_text(encoding="utf-8"))
            answer = server.handle_predict(server.config.default_model_id,
                                           [list(r.resistances) for r in records])
            write_atomic(result, json.dumps({"name": path.name, **answer}, allow_nan=False))
            handled += 1
        except Exception:
            log.exception("skipping upload %s", path)
    return handled


def scan_uploads(server: InferenceServer, upload_dir: Path, interval: float,
                 stop: threading.Event) -> None:
    """Every ``interval`` seconds until ``stop``, answer new uploads; a failed scan is logged."""
    while not stop.is_set():
        started = time.perf_counter()
        try:
            answer_uploads(server, upload_dir)
        except OSError:
            log.exception("poll scan failed")
        stop.wait(max(0.0, interval - (time.perf_counter() - started)))


def _node_stream(endpoint: tuple[str, int], frames: int, tick: float,
                 channels: int, seed: int, failures: list) -> None:
    """Stream ``frames`` fixture frames to the gateway; errors go to ``failures``."""
    try:
        sensors = SensorModel.from_resistances(FIXTURE_RESISTANCES[:channels])
        emulator = AdcEmulator(sensors, seed=seed)
        firmware = NodeFirmware(emulator, channel_count=channels, tick_period=tick,
                                trace=False)
        firmware.init()
        with socket.create_connection(endpoint, timeout=5.0) as sock:
            stream_node(sock, firmware, frames=frames)
    except Exception as exc:
        failures.append(exc)


def run_bench(mode: str, frames: int = 200, tick: float | None = None,
              poll_interval: float = 5.0, channels: int = 2, seed: int = 0) -> dict:
    """Run one benchmark; returns the latency report document.

    ``mode`` is "push" or "poll".  All components run in-process over
    loopback TCP, with their files in a fresh temporary directory.
    """
    if mode not in ("push", "poll"):
        raise ValueError(f"unknown mode {mode!r}")
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if tick is None:
        tick = DEFAULT_PUSH_TICK if mode == "push" else DEFAULT_POLL_TICK
    with tempfile.TemporaryDirectory(prefix="shmlink-bench-") as tmp, \
            contextlib.ExitStack() as running:
        work = Path(tmp)
        model_path = work / "bench_model.json"
        make_bench_model(channels, model_path, seed=seed)

        # each part is stopped on the way out, also when a later one fails to start
        server = InferenceServer(ServerConfig(host="127.0.0.1", port=0,
                                              model_files={"default": str(model_path)}))
        server.start()
        running.callback(server.stop)
        host, port = server.address

        listener = running.enter_context(node_listener("127.0.0.1", 0))
        node_endpoint = listener.getsockname()
        config = GatewayConfig(
            node_endpoints=[f"{node_endpoint[0]}:{node_endpoint[1]}"],
            server_endpoint=f"{host}:{port}",
            persistence_path=str(work / "telemetry.csv"),
            trigger=TriggerRule(every_frame=True),
            latency_log_path=str(work / "latency.csv"))
        stop = threading.Event()  # ends the scan loop and the intake
        if mode == "poll":
            if not poll_interval > 0:
                raise ValueError("interval must be > 0")
            scanner = threading.Thread(target=scan_uploads,
                                       args=(server, work / "uploads", poll_interval, stop),
                                       daemon=True, name="bench-poll-scan")
            scanner.start()
            running.callback(scanner.join)
            running.callback(stop.set)
            gateway = PollGateway(config, work / "uploads")
        else:
            gateway = Gateway(config)
        running.callback(gateway.close)

        intake = threading.Thread(target=serve_nodes, args=(listener, gateway, stop),
                                  daemon=True, name="bench-intake")
        failures: list = []
        node = threading.Thread(target=_node_stream,
                                args=(node_endpoint, frames, tick, channels, seed, failures),
                                daemon=True, name="bench-node")

        started = time.perf_counter()
        intake.start()
        running.callback(intake.join)
        running.callback(stop.set)  # before the join above: callbacks run last first
        node.start()
        running.callback(node.join)
        # the node streams for frames * tick; a poll trigger is answered by
        # the scan after it, so poll results are collected as they appear
        deadline = started + frames * tick + 30
        if mode == "poll":
            deadline += poll_interval * 2 + 10
        while (gateway.answered < frames and not failures
               and time.perf_counter() < deadline):
            if mode == "poll":
                gateway.collect_results()
            time.sleep(0.002)
        running.close()

        if failures:
            raise failures[0]
        with open(work / "latency.csv", encoding="utf-8", newline="") as fh:
            end_to_end = [float(row["end_to_end"]) for row in csv.DictReader(fh)]
        if len(end_to_end) != frames:
            telemetry = work / "telemetry.csv"
            ingested = (len(read_table_csv(telemetry.read_text(encoding="utf-8")))
                        if telemetry.exists() else 0)
            raise RuntimeError(f"expected {frames} triggers, measured {len(end_to_end)} "
                               f"({ingested} frames ingested)")

        return {"mode": mode, "frames": frames, "tick": tick, "channels": channels,
                "poll_interval": poll_interval if mode == "poll" else None,
                "wall_time": time.perf_counter() - started, **latency_summary(end_to_end)}
