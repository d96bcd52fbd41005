"""Push-vs-poll latency benchmark over a real in-process loopback stack.

Spins up the full chain — emulated node firmware streaming framed telemetry
over TCP into the gateway's ``serve_nodes`` intake, gateway ingesting and
triggering, inference server answering — and measures trigger-to-response
time per frame on the monotonic clock.  The calling thread waits for the last
answer, collecting poll results as they appear, and the report is computed
from the gateway's latency log.

Push mode: every frame triggers an immediate TCP predict round trip.
Poll mode: triggers become upload files; the server's periodic scan answers
them, so each trigger waits for the next scan.  Frames arrive on the node
tick schedule, spreading arrivals across poll cycles; with the default 0.2 s
tick, 200 triggers span several 5 s cycles and the measured mean approaches
interval/2 plus the processing base, without serializing the waits.
``stream_node`` is the node loop that ``shmlink simulate-node`` runs as well.
"""

from __future__ import annotations

import csv
import itertools
import json
import socket
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from . import mlp
from .adc import AdcEmulator, SensorModel
from .dataset import read_table_csv
from .firmware import NodeFirmware
from .gateway import Gateway, GatewayConfig, TriggerRule, latency_summary, node_listener, serve_nodes
from .protocol import encode, send_message
from .server import InferenceServer, ServerConfig

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
    if tick is None:
        tick = DEFAULT_PUSH_TICK if mode == "push" else DEFAULT_POLL_TICK
    with tempfile.TemporaryDirectory(prefix="shmlink-bench-") as tmp:
        work = Path(tmp)
        model_path = work / "bench_model.json"
        make_bench_model(channels, model_path, seed=seed)
        upload_dir = work / "uploads"
        upload_dir.mkdir()

        server = InferenceServer(ServerConfig(host="127.0.0.1", port=0,
                                              model_files={"default": str(model_path)},
                                              upload_dir=str(upload_dir)))
        server.start()
        host, port = server.address
        if mode == "poll":
            server.start_poll_mode(poll_interval)

        listener = node_listener("127.0.0.1", 0)
        node_endpoint = listener.getsockname()
        gateway = Gateway(GatewayConfig(
            node_endpoints=[f"{node_endpoint[0]}:{node_endpoint[1]}"],
            server_endpoint=f"{host}:{port}",
            mode="push" if mode == "push" else "poll-compat",
            persistence_path=str(work / "telemetry.csv"),
            trigger=TriggerRule(every_frame=True),
            latency_log_path=str(work / "latency.csv"),
            upload_dir=str(upload_dir)))

        stop = threading.Event()
        intake = threading.Thread(target=serve_nodes, args=(listener, gateway, stop),
                                  daemon=True, name="bench-intake")
        failures: list = []
        node = threading.Thread(target=_node_stream,
                                args=(node_endpoint, frames, tick, channels, seed, failures),
                                daemon=True, name="bench-node")

        started = time.perf_counter()
        intake.start()
        node.start()
        # the node streams for frames * tick; a poll trigger is answered by
        # the scan after it, so poll results are collected as they appear
        deadline = started + frames * tick + 30
        if mode == "poll":
            deadline += poll_interval * 2 + 10
        while (gateway.answered < frames and not failures
               and time.perf_counter() < deadline):
            gateway.poll_results_once()
            time.sleep(0.002)
        stop.set()
        intake.join()
        node.join()

        listener.close()
        gateway.close()
        server.stop()
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


def write_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
