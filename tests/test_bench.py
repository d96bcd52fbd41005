"""Push-vs-poll bench: one short in-process run per mode, and the emulated node."""

import math
import socket
import threading

import numpy as np
import pytest

from shmlink import bench
from shmlink.adc import AdcEmulator, ChannelInput, SensorModel
from shmlink.bench import latency_summary, run_bench, run_node, stream_node
from shmlink.firmware import NodeFirmware
from shmlink.protocol import encode, recv_message
from test_cli import FrameSink

REPORT_KEYS = {"mode", "frames", "tick", "channels", "poll_interval", "wall_time",
               "count", "mean", "p50", "p95", "max"}


@pytest.mark.parametrize("mode", ["push", "poll"])
def test_run_bench_measures_every_frame_and_leaves_no_thread(mode):
    before = set(threading.enumerate())
    report = run_bench(mode, frames=5, tick=0.01, poll_interval=0.3)
    assert [t for t in threading.enumerate() if t not in before] == []
    assert set(report) == REPORT_KEYS
    assert (report["mode"], report["frames"], report["tick"], report["channels"]) == \
        (mode, 5, 0.01, 2)
    assert report["poll_interval"] == (0.3 if mode == "poll" else None)
    assert report["count"] == 5.0
    assert 0.0 < report["p50"] <= report["p95"] <= report["max"] < report["wall_time"]


def test_run_bench_stops_what_it_started_when_setup_fails(monkeypatch):
    started = []
    start = bench.InferenceServer.start

    def recording_start(server):
        start(server)
        started.append(server)

    def no_listener(host, port):
        raise OSError("no listener")

    monkeypatch.setattr(bench.InferenceServer, "start", recording_start)
    monkeypatch.setattr(bench, "node_listener", no_listener)
    before = set(threading.enumerate())
    with pytest.raises(OSError, match="no listener"):
        run_bench("poll", frames=2, poll_interval=0.3)
    assert len(started) == 1  # the server was running when the next step failed
    assert [t for t in threading.enumerate() if t not in before] == []


def test_run_bench_refuses_an_unknown_mode_before_starting_anything(monkeypatch):
    monkeypatch.setattr(bench, "InferenceServer", None)  # building one raises TypeError
    with pytest.raises(ValueError, match="unknown mode 'pull'"):
        run_bench("pull")


def test_run_bench_refuses_no_frames_before_starting_anything(monkeypatch):
    monkeypatch.setattr(bench, "InferenceServer", None)  # building one raises TypeError
    with pytest.raises(ValueError, match="frames"):
        run_bench("push", frames=0)


@pytest.mark.parametrize("interval", [0, -1.0, math.nan, bench.MAX_WAIT * 2, 1e308])
def test_run_bench_refuses_a_poll_interval_before_starting_anything(monkeypatch, interval):
    monkeypatch.setattr(bench, "InferenceServer", None)  # building one raises TypeError
    with pytest.raises(ValueError, match="poll interval"):
        run_bench("poll", frames=2, poll_interval=interval)


# -- latency summary -----------------------------------------------------------------------


def test_summary_hand_values():
    summary = latency_summary([0.1, 0.2, 0.3])
    assert summary["mean"] == pytest.approx(0.2)
    assert summary["p50"] == 0.2
    assert summary["max"] == 0.3


def test_summary_single_record():
    summary = latency_summary([0.42])
    assert summary["mean"] == summary["p50"] == summary["p95"] == summary["max"] == 0.42


def test_summary_nearest_rank_matches_sort_oracle():
    rng = np.random.default_rng(1)
    values = rng.exponential(0.2, 100)
    summary = latency_summary([float(v) for v in values])
    ordered = sorted(values)
    assert summary["p95"] == ordered[94]   # nearest-rank: ceil(0.95*100) = 95th value
    assert summary["p50"] == ordered[49]


# -- emulated node -------------------------------------------------------------------------


def test_run_node_sends_the_reference_firmware_frames():
    channels, tick, seed, noise, node_id = 8, 0.001, 5, 0.05, 7
    sensors = SensorModel.from_resistances(bench.FIXTURE_RESISTANCES[:channels], noise_std=noise)
    reference = NodeFirmware(AdcEmulator(sensors, seed=seed), node_id=node_id,
                             channel_count=channels, tick_period=tick, trace=False)
    reference.init()
    expected = [encode(reference.run_tick(now=i * tick)) for i in range(6)]
    sink = FrameSink()
    sent = run_node(sink.sock.getsockname(), channels, tick, seed=seed, noise=noise,
                    node_id=node_id, frames=6)
    assert sent == 6
    assert [encode(frame) for frame in sink.finish()] == expected


def test_run_node_raises_oserror_on_a_refused_connect():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    endpoint = probe.getsockname()
    probe.close()
    with pytest.raises(OSError):
        run_node(endpoint, 2, 0.001, frames=1)


def interfered_node(tick: float) -> NodeFirmware:
    """A 2-channel node whose readings depend on the signal clock (7 Hz pickup)."""
    sensors = SensorModel(channels=[ChannelInput(resistance=r, interference_amplitude=5.0,
                                                 interference_freq=7.0)
                                    for r in (47.0, 120.0)])
    firmware = NodeFirmware(AdcEmulator(sensors), channel_count=2, tick_period=tick, trace=False)
    firmware.init()
    firmware.counter = 2**32 - 2  # two ticks before the wrap
    return firmware


def test_stream_node_keeps_its_clock_across_the_counter_wrap():
    """Tick i runs at i * tick whatever the counter; the counter wraps to 0 and streaming goes on."""
    tick = 0.03
    reference = interfered_node(tick)
    expected = [encode(reference.run_tick(now=i * tick)) for i in range(4)]
    node, gateway = socket.socketpair()
    with node, gateway:
        assert stream_node(node, interfered_node(tick), frames=4) == 4
        assert [recv_message(gateway) for _ in expected] == expected
    # the readings follow the clock, so a clock taken from the counter would show
    late = interfered_node(tick).run_tick(now=(2**32 - 2) * tick)
    assert encode(late) != expected[0]
