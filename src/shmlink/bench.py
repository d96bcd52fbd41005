"""Push-vs-poll latency benchmark over a real in-process loopback stack.

Spins up the full chain — emulated node firmware streaming framed telemetry
over TCP into the gateway's ``serve_nodes`` intake, gateway ingesting and
triggering, inference server answering — and measures trigger-to-response
time per frame on the monotonic clock.  The node runs on the calling thread,
which then waits for the last answer; the report is computed from the
gateway's latency log.

Push mode: every frame triggers an immediate TCP predict round trip.
Poll mode, the legacy baseline that lives only here: ``PollGateway``'s sender
thread is a scan that sends the queued triggers to the server every interval,
over the same connection and messages as a push gateway, so each trigger
waits for the next scan and the two modes differ only in when they send.
Frames arrive on the node tick schedule, spreading arrivals across poll
cycles; with the default 0.2 s tick, 200 triggers span several 5 s cycles and
the measured mean approaches interval/2 plus the processing base, without
serializing the waits.  ``run_node`` is the one emulated node, which ``shmlink simulate-node``
runs as well; ``stream_node`` is its tick loop.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
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
from .gateway import Gateway, GatewayConfig, node_listener, serve_nodes
from .protocol import encode, send_message
from .server import DEFAULT_MODEL_ID, InferenceServer, ServerConfig

FIXTURE_RESISTANCES = (47.0, 47.0, 100.0, 100.0, 120.0, 120.0, 120.0, 120.0)

DEFAULT_PUSH_TICK = 0.02
DEFAULT_POLL_TICK = 0.2
# the longest node tick or poll interval, in seconds: a lock wait overflows past
# threading.TIMEOUT_MAX, and time.sleep fails once the clock plus its wait passes it
MAX_WAIT = threading.TIMEOUT_MAX / 2


def make_bench_model(channels: int, path, seed: int = 0) -> None:
    """Write a small random regressor for the bench to serve."""
    rng = np.random.default_rng(seed)
    base = np.array(FIXTURE_RESISTANCES[:channels])
    model = mlp.init_model(channels, 8, mu=base, sigma=np.ones(channels), rng=rng)
    mlp.save_model(model, path)


def stream_node(sock: socket.socket, firmware: NodeFirmware,
                resistances=None, frames: int | None = None) -> int:
    """Tick the firmware every ``firmware.tick_period`` seconds and send each frame.

    Tick i runs at ``i * tick_period`` on the signal clock, whatever the
    firmware's wrapping counter says.  Each vector of ``resistances``, if
    given, sets the emulated sensors for one tick; the loop ends when they run
    out or after ``frames`` frames, and returns the number sent.  A failed
    send raises OSError.
    """
    tick = firmware.tick_period
    sent = 0
    for vector in itertools.repeat(()) if resistances is None else resistances:
        for ch, r in enumerate(vector):
            firmware.bus.sensors.set_resistance(ch, r)
        send_message(sock, encode(firmware.run_tick(now=sent * tick)))
        sent += 1
        if frames is not None and sent >= frames:
            break
        time.sleep(tick)
    return sent


def run_node(endpoint: tuple[str, int], channels: int, tick: float, seed: int = 0,
             noise: float = 0.0, node_id: int = 0, resistances=None,
             frames: int | None = None) -> int:
    """Stream the emulated node to ``endpoint`` with ``stream_node``; returns the frames sent.

    Fixture sensors with ``noise`` ohm of noise, a converter seeded with
    ``seed``, one connection (connect timeout 10 s).  OSError if it fails.
    """
    sensors = SensorModel.from_resistances(FIXTURE_RESISTANCES[:channels], noise_std=noise)
    firmware = NodeFirmware(AdcEmulator(sensors, seed=seed), node_id=node_id,
                            channel_count=channels, tick_period=tick, trace=False)
    firmware.init()
    with socket.create_connection(endpoint, timeout=10.0) as sock:
        return stream_node(sock, firmware, resistances, frames=frames)


class PollGateway(Gateway):
    """The legacy poll baseline: a gateway whose sender thread is a periodic scan.

    Every ``interval`` (at most MAX_WAIT) seconds from its start, the sender
    sends the whole queue to the server with ``Gateway._answer``, as a push
    gateway's sender does; ``close()`` answers what is still queued at once.
    """

    def __init__(self, config: GatewayConfig, interval: float):
        self.interval = interval  # before super().__init__, which starts the sender thread
        super().__init__(config)

    def _send_pending(self) -> None:
        scan = time.perf_counter()
        closed = False
        while not closed:
            scan += self.interval
            with self._queued:
                closed = self._queued.wait_for(lambda: self._closed, scan - time.perf_counter())
                queued, self._pending = self._pending, []
            self._answer(queued)


def latency_summary(end_to_end: list[float]) -> dict[str, float]:
    """Mean, nearest-rank p50/p95, and max of a non-empty list of latencies in seconds."""
    values = sorted(end_to_end)
    n = len(values)

    def nearest_rank(p: float) -> float:
        return values[math.ceil(p / 100.0 * n) - 1]

    return {"count": float(n), "mean": sum(values) / n,
            "p50": nearest_rank(50.0), "p95": nearest_rank(95.0), "max": values[-1]}


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
    if mode == "poll" and not 0 < poll_interval <= MAX_WAIT:
        raise ValueError(f"poll interval must be in (0, {MAX_WAIT:.0f}] s")
    if tick is None:
        tick = DEFAULT_PUSH_TICK if mode == "push" else DEFAULT_POLL_TICK
    with tempfile.TemporaryDirectory(prefix="shmlink-bench-") as tmp, \
            contextlib.ExitStack() as running:
        work = Path(tmp)
        model_path = work / "bench_model.json"
        make_bench_model(channels, model_path, seed=seed)

        # each part is stopped on the way out, also when a later one fails to start
        server = InferenceServer(ServerConfig(host="127.0.0.1", port=0,
                                              model_files={DEFAULT_MODEL_ID: str(model_path)}))
        server.start()
        running.callback(server.stop)
        host, port = server.address

        listener = running.enter_context(node_listener("127.0.0.1", 0))
        node_endpoint = listener.getsockname()
        config = GatewayConfig(server_endpoint=f"{host}:{port}",
                               persistence_path=str(work / "telemetry.csv"),
                               latency_log_path=str(work / "latency.csv"))
        gateway = (PollGateway(config, poll_interval) if mode == "poll"
                   else Gateway(config))
        running.callback(gateway.close)

        stop = threading.Event()  # ends the intake
        intake = threading.Thread(target=serve_nodes, args=(listener, gateway, stop),
                                  daemon=True, name="bench-intake")
        started = time.perf_counter()
        intake.start()
        running.callback(intake.join)
        running.callback(stop.set)  # before the join above: callbacks run last first
        run_node(node_endpoint, channels, tick, seed=seed, frames=frames)
        # a poll trigger waits for the scan after it
        deadline = time.perf_counter() + 30
        if mode == "poll":
            deadline += poll_interval * 2 + 10
        while gateway.answered < frames and time.perf_counter() < deadline:
            time.sleep(0.002)
        running.close()

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
