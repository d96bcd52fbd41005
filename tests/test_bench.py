"""Push-vs-poll bench: one short in-process run per mode."""

import math
import threading

import pytest

from shmlink import bench
from shmlink.bench import run_bench

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


def test_run_bench_refuses_no_frames_before_starting_anything(monkeypatch):
    monkeypatch.setattr(bench, "InferenceServer", None)  # building one raises TypeError
    with pytest.raises(ValueError, match="frames"):
        run_bench("push", frames=0)


@pytest.mark.parametrize("interval", [0, -1.0, math.nan, bench.MAX_WAIT * 2, 1e308])
def test_run_bench_refuses_a_poll_interval_before_starting_anything(monkeypatch, interval):
    monkeypatch.setattr(bench, "InferenceServer", None)  # building one raises TypeError
    with pytest.raises(ValueError, match="poll interval"):
        run_bench("poll", frames=2, poll_interval=interval)
