"""Command-line surface: exit codes, streaming, training, synchronization."""

import dataclasses
import json
import math
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from shmlink import cli, mlp
from shmlink.adc import AdcEmulator, SensorModel
from shmlink.bench import stream_node
from shmlink.dataset import write_table_csv
from shmlink.firmware import NodeFirmware
from shmlink.protocol import decode, encode, recv_message
from shmlink.synthetic import offset_pair, strain_records

HALF_LSB = 0.5 * 2.5 / 16777216 / 0.001
FIXTURE8 = (47.0, 47.0, 100.0, 100.0, 120.0, 120.0, 120.0, 120.0)
BUNDLED_2CH = Path(__file__).parent.parent / "data" / "synthetic_2ch.csv"


def run_cli(*args, timeout=120):
    return subprocess.run([sys.executable, "-m", "shmlink", *args],
                          capture_output=True, text=True, timeout=timeout)


class FrameSink:
    """Accept one node connection and collect its frames."""

    def __init__(self):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(1)
        self.frames = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @property
    def endpoint(self):
        host, port = self.sock.getsockname()
        return f"{host}:{port}"

    def _serve(self):
        conn, _ = self.sock.accept()
        with conn:
            while True:
                try:
                    self.frames.append(decode(recv_message(conn)))
                except Exception:
                    return

    def finish(self):
        self.thread.join(timeout=30)
        self.sock.close()
        return self.frames


# -- help and usage ----------------------------------------------------------------


@pytest.mark.parametrize("args", [
    ("--help",),
    ("simulate-node", "--help"),
    ("train", "--help"),
    ("bench-latency", "--help"),
    ("sync", "--help"),
])
def test_help_exits_zero(args):
    result = run_cli(*args)
    assert result.returncode == 0
    assert "usage" in result.stdout.lower()


def test_unknown_flag_exits_two_with_usage():
    result = run_cli("sync", "--bogus-flag")
    assert result.returncode == 2
    assert "usage" in result.stderr.lower()


def test_unknown_command_exits_two():
    assert run_cli("frobnicate").returncode == 2


# -- simulate-node -------------------------------------------------------------------


def test_simulate_node_fixture_stream():
    sink = FrameSink()
    result = run_cli("simulate-node", "--channels", "8", "--tick", "0.01",
                     "--profile", "fixture", "--connect", sink.endpoint,
                     "--seed", "1", "--frames", "5")
    frames = sink.finish()
    assert result.returncode == 0
    assert [f.counter for f in frames] == [0, 1, 2, 3, 4]
    for frame in frames:
        for measured, true in zip(frame.resistances, FIXTURE8):
            assert abs(measured - true) <= HALF_LSB


def test_simulate_node_replay(tmp_path):
    records = strain_records(n=6, channels=2, noise=0.0, seed=0)
    replay_file = tmp_path / "replay.csv"
    replay_file.write_text(write_table_csv(records), encoding="utf-8")
    sink = FrameSink()
    result = run_cli("simulate-node", "--channels", "2", "--tick", "0.01",
                     "--profile", f"replay:{replay_file}", "--connect", sink.endpoint,
                     "--frames", "6")
    frames = sink.finish()
    assert result.returncode == 0
    assert len(frames) == 6
    for frame, record in zip(frames, records):
        for measured, true in zip(frame.resistances, record.resistances):
            assert abs(measured - true) <= HALF_LSB


def test_simulate_node_ramp_drifts():
    sink = FrameSink()
    result = run_cli("simulate-node", "--channels", "2", "--tick", "0.01",
                     "--profile", "ramp", "--connect", sink.endpoint, "--frames", "3")
    frames = sink.finish()
    assert result.returncode == 0
    first = [f.resistances[0] for f in frames]
    assert first[1] - first[0] == pytest.approx(0.5, abs=1e-3)


def seeded_node(tick):
    sensors = SensorModel.from_resistances(FIXTURE8[:2], noise_std=0.02)
    firmware = NodeFirmware(AdcEmulator(sensors, seed=9), channel_count=2, tick_period=tick,
                            trace=False)
    firmware.init()
    return firmware


@pytest.mark.parametrize("resistances,frames", [
    (None, 4),
    ([(50.0, 60.0), (51.0, 61.5), (52.0, 63.0)], None),
])
def test_stream_node_sends_the_firmware_frames(resistances, frames):
    tick = 0.001
    reference = seeded_node(tick)
    expected = []
    for i, vector in enumerate(resistances or [()] * frames):
        for ch, r in enumerate(vector):
            reference.bus.sensors.set_resistance(ch, r)
        expected.append(encode(reference.run_tick(i * tick)))
    node, gateway = socket.socketpair()
    with node, gateway:
        sent = stream_node(node, seeded_node(tick), resistances, frames=frames)
        assert sent == len(expected)
        assert [recv_message(gateway) for _ in expected] == expected


def test_simulate_node_bad_replay_file_exits_two(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not a table\n")
    sink = FrameSink()
    result = run_cli("simulate-node", "--profile", f"replay:{bad}",
                     "--connect", sink.endpoint, "--frames", "1")
    sink.sock.close()
    assert result.returncode == 2


def unused_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_simulate_node_nan_in_replay_file_exits_two_before_connecting(tmp_path):
    records = strain_records(n=6, channels=2, noise=0.0, seed=0)
    records[1] = dataclasses.replace(records[1], resistances=(math.nan, records[1].resistances[1]))
    replay_file = tmp_path / "replay.csv"
    replay_file.write_text(write_table_csv(records), encoding="utf-8")
    # nothing listens on the port, so only a check made before connecting exits 2
    result = run_cli("simulate-node", "--channels", "2", "--profile", f"replay:{replay_file}",
                     "--connect", f"127.0.0.1:{unused_port()}", "--frames", "6")
    assert result.returncode == 2
    assert "data row 2 holds a resistance that is not finite" in result.stderr


def test_simulate_node_connect_failure_exits_nonzero():
    port = unused_port()
    result = run_cli("simulate-node", "--connect", f"127.0.0.1:{port}", "--frames", "1")
    assert result.returncode == 1
    assert "error" in result.stderr.lower()


# -- train ---------------------------------------------------------------------------


@pytest.fixture
def small_dataset(tmp_path):
    records = strain_records(n=300, channels=2, noise=0.01, seed=0)
    path = tmp_path / "train.csv"
    path.write_text(write_table_csv(records), encoding="utf-8")
    return path


@pytest.fixture
def small_grid(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"hidden_widths": [8], "learning_rates": [1e-2],
                                "batch_sizes": [32], "max_epochs": 40,
                                "plateau_patience": 20}))
    return path


def test_train_writes_model_and_report(tmp_path, small_dataset, small_grid):
    out = tmp_path / "model.json"
    result = run_cli("train", "--data", str(small_dataset),
                     "--grid", str(small_grid), "--out", str(out), "--seed", "3")
    assert result.returncode == 0, result.stderr
    assert "MSE" in result.stdout and "MAE" in result.stdout
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert "test_mse" in report and "test_mae" in report
    doc = json.loads(out.read_text())
    assert doc["layer_sizes"][0] == 2


def test_train_same_seed_byte_identical(tmp_path, small_dataset, small_grid):
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for out in (out1, out2):
        result = run_cli("train", "--data", str(small_dataset),
                         "--grid", str(small_grid), "--out", str(out), "--seed", "3")
        assert result.returncode == 0, result.stderr
    assert out1.read_bytes() == out2.read_bytes()


def test_train_takes_its_width_from_the_data(tmp_path, small_grid):
    data = tmp_path / "eight.csv"
    data.write_text(write_table_csv(strain_records(n=300, channels=8, noise=0.01, seed=0)),
                    encoding="utf-8")
    out = tmp_path / "m.json"
    result = run_cli("train", "--data", str(data), "--grid", str(small_grid), "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert json.loads(out.read_text())["layer_sizes"][0] == 8


def test_train_bad_grid_value_exits_two_before_training(tmp_path, small_dataset):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"hidden_widths": [8], "learning_rates": [1e-2, -1],
                                "batch_sizes": [32], "max_epochs": 40,
                                "plateau_patience": 20}))
    out = tmp_path / "m.json"
    result = run_cli("train", "--data", str(small_dataset),
                     "--grid", str(grid), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "learning_rate" in result.stderr and not out.exists()


@pytest.mark.parametrize("patience", [-5, 0, True])
def test_train_grid_with_patience_below_one_exits_two_before_training(tmp_path, small_dataset,
                                                                      patience):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"hidden_widths": [8], "learning_rates": [1e-2],
                                "batch_sizes": [32], "max_epochs": 40,
                                "plateau_patience": patience}))
    out = tmp_path / "m.json"
    result = run_cli("train", "--data", str(small_dataset),
                     "--grid", str(grid), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "plateau_patience" in result.stderr and not out.exists()


def test_train_grid_with_nan_plateau_tolerance_exits_two_before_training(tmp_path,
                                                                        small_dataset):
    grid = tmp_path / "grid.json"
    # json writes (and reads back) the bare NaN token, which is not JSON
    grid.write_text(json.dumps({"hidden_widths": [8], "learning_rates": [1e-2],
                                "batch_sizes": [32], "max_epochs": 40,
                                "plateau_patience": 20, "plateau_tolerance": math.nan}))
    out = tmp_path / "m.json"
    result = run_cli("train", "--data", str(small_dataset),
                     "--grid", str(grid), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "plateau_tolerance" in result.stderr and not out.exists()


def test_train_with_no_test_rows_exits_two_before_training(tmp_path, small_grid):
    # ceil(6 * 0.9) = 6: every row trains, and no model could be selected on the test slice
    data = tmp_path / "six.csv"
    data.write_text(write_table_csv(strain_records(n=6, channels=2, noise=0.01, seed=0)),
                    encoding="utf-8")
    out = tmp_path / "m.json"
    result = run_cli("train", "--data", str(data), "--grid", str(small_grid),
                     "--train-fraction", "0.9", "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "no test rows" in result.stderr and "selected" not in result.stdout
    assert not out.exists()


def test_train_on_a_gateway_log_names_its_unknown_strain(tmp_path, small_grid):
    # a gateway persists Strain as nan: no strain is known at ingest
    records = [dataclasses.replace(r, strain=math.nan)
               for r in strain_records(n=50, channels=2, noise=0.01, seed=0)]
    data = tmp_path / "telemetry.csv"
    data.write_text(write_table_csv(records), encoding="utf-8")
    out = tmp_path / "m.json"
    result = run_cli("train", "--data", str(data),
                     "--grid", str(small_grid), "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "Strain" in result.stderr and "diverged" not in result.stderr
    assert not out.exists()


def test_load_grid_defaults_come_from_hypergrid(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"hidden_widths": [4], "batch_sizes": [None]}))
    assert cli._load_grid(str(path)) == mlp.HyperGrid(hidden_widths=(4,), batch_sizes=(None,))


@pytest.mark.parametrize("doc", [{"max_epoch": 3}, [1, 2], {"max_epochs": 40.0}])
def test_load_grid_rejects_unknown_keys_and_bad_values(tmp_path, doc):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))  # a typo must not silently run 500 epochs
    with pytest.raises(cli.UsageError):
        cli._load_grid(str(path))


def test_train_grid_nested_too_deeply_exits_two(tmp_path, small_dataset):
    grid = tmp_path / "grid.json"
    grid.write_text("[" * 100000)
    out = tmp_path / "m.json"
    result = run_cli("train", "--data", str(small_dataset), "--grid", str(grid),
                     "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert f"error: grid file {grid}: nested too deeply" in result.stderr
    assert not out.exists()


# -- sync ----------------------------------------------------------------------------


def write_pair(tmp_path, offset, n=1200, noise=0.0):
    mech, res = offset_pair(offset=offset, n=n, noise_frac=noise, seed=5)
    mech_path = tmp_path / "mech.csv"
    mech_path.write_text("Time,Strain\n" + "".join(f"{m.time!r},{m.strain!r}\n" for m in mech))
    res_path = tmp_path / "res.csv"
    res_path.write_text("t,R1,R2\n" + "".join(
        f"{r.t!r},{r.resistances[0]!r},{r.resistances[1]!r}\n" for r in res))
    return mech_path, res_path


def test_sync_recovers_known_offset(tmp_path):
    mech_path, res_path = write_pair(tmp_path, offset=37.7)
    out = tmp_path / "aligned.csv"
    result = run_cli("sync", "--mech", str(mech_path), "--res", str(res_path),
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert "estimated offset" in result.stdout
    estimated = float(result.stdout.split("estimated offset:")[1].split("s")[0])
    assert abs(estimated - 37.7) <= 0.1


def test_sync_explicit_offset_identity(tmp_path):
    mech_path, res_path = write_pair(tmp_path, offset=0.0)
    out = tmp_path / "aligned.csv"
    result = run_cli("sync", "--mech", str(mech_path), "--res", str(res_path),
                     "--offset", "0", "--out", str(out))
    assert result.returncode == 0, result.stderr
    from shmlink.dataset import read_table_csv
    rows = read_table_csv(out.read_text())
    assert len(rows) == 1200
    assert all(r.time == r.t for r in rows)


def test_sync_disjoint_ranges_exits_two(tmp_path):
    mech_path, res_path = write_pair(tmp_path, offset=0.0, n=600)
    result = run_cli("sync", "--mech", str(mech_path), "--res", str(res_path),
                     "--offset", "1e6", "--out", str(tmp_path / "out.csv"))
    assert result.returncode == 2


@pytest.mark.parametrize("offset", [[], ["--offset", "0"]])
def test_sync_refuses_a_log_whose_clock_steps_back(tmp_path, offset):
    # a restarted logger: its clock runs 0..9 s, then 0..9 s again
    mech_path, res_path = tmp_path / "mech.csv", tmp_path / "res.csv"
    mech_path.write_text("Time,Strain\n" + "".join(f"{0.5 * i},{0.001 * (i % 7)}\n"
                                                    for i in range(20)))
    res_path.write_text("t,R1\n" + "".join(f"{i % 10},{47 + i % 3}\n" for i in range(20)))
    out = tmp_path / "out.csv"
    result = run_cli("sync", "--mech", str(mech_path), "--res", str(res_path), *offset,
                     "--out", str(out))
    assert result.returncode == 2, result.stdout
    assert "resistance log: time is out of order at sample 10" in result.stderr
    assert not out.exists()


def test_sync_percent_strain_past_decimal_range_exits_two(tmp_path):
    mech_path, res_path = tmp_path / "mech.csv", tmp_path / "res.csv"
    mech_path.write_text("Time (s),Strain (%)\n0,0.5\n1,1e999999999\n")
    res_path.write_text("t,R1\n0,47\n1,48\n")
    out = tmp_path / "out.csv"
    result = run_cli("sync", "--mech", str(mech_path), "--res", str(res_path),
                     "--offset", "0", "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "error: line 3: strain '1e999999999' out of range" in result.stderr
    assert not out.exists()


def test_sync_cell_past_the_csv_field_limit_exits_two(tmp_path):
    mech_path, res_path = tmp_path / "mech.csv", tmp_path / "res.csv"
    mech_path.write_text("Time,Strain\n0,0.001\n1,0.002\n")
    res_path.write_text("t,R1\n0,47\n1," + "4" * 140000 + "\n")  # past csv's 131072 limit
    out = tmp_path / "out.csv"
    result = run_cli("sync", "--mech", str(mech_path), "--res", str(res_path),
                     "--offset", "0", "--out", str(out))
    assert result.returncode == 2, result.stderr
    assert "error: line 3: field larger than field limit" in result.stderr
    assert not out.exists()


# -- bench-latency --------------------------------------------------------------------


def test_bench_latency_push_writes_report(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("bench-latency", "--mode", "push", "--frames", "10",
                     "--tick", "0.005", "--out", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["mode"] == "push"
    assert report["count"] == 10
    assert report["p95"] < 1.0


@pytest.mark.parametrize("args", [
    ("bench-latency", "--mode", "push", "--frames", "0"),
    ("bench-latency", "--mode", "push", "--tick", "-1"),
    ("bench-latency", "--mode", "poll", "--poll-interval", "-1"),
    ("bench-latency", "--mode", "poll", "--poll-interval", "nan"),
    ("simulate-node", "--connect", "127.0.0.1:1", "--frames", "-1"),
    ("simulate-node", "--connect", "127.0.0.1:1", "--tick", "0"),
    ("simulate-node", "--connect", "127.0.0.1:1", "--noise", "-1"),
    ("simulate-node", "--connect", "127.0.0.1:1", "--node-id", "70000"),
    ("train", "--data", str(BUNDLED_2CH), "--train-fraction", "1.5"),
    ("train", "--data", str(BUNDLED_2CH), "--train-fraction", "nan"),
    ("train", "--data", str(BUNDLED_2CH), "--seed", "-1"),
    ("simulate-node", "--connect", "127.0.0.1:1", "--seed", "-1"),
    ("bench-latency", "--mode", "push", "--frames", "2", "--seed", "-1"),
    ("simulate-node", "--connect", "127.0.0.1:99999", "--frames", "1"),
    ("simulate-node", "--connect", "localhost", "--frames", "1"),
    # waits too long for a timeout or time.sleep; such a poll interval once hung the bench
    ("bench-latency", "--mode", "poll", "--frames", "3", "--tick", "0.01",
     "--poll-interval", "1e308"),
    ("bench-latency", "--mode", "poll", "--frames", "3", "--poll-interval", "9.3e9"),
    ("bench-latency", "--mode", "push", "--frames", "3", "--tick", "1e308"),
    ("simulate-node", "--connect", "127.0.0.1:1", "--frames", "3", "--tick", "1e308"),
])
def test_out_of_range_numbers_are_usage_errors(args, tmp_path):
    out = ("--out", str(tmp_path / "report.json")) if args[0] != "simulate-node" else ()
    result = run_cli(*args, *out)
    assert result.returncode == 2, result.stderr
    assert "usage" in result.stderr.lower()
    if args[2] in ("127.0.0.1:99999", "localhost"):  # the message says what --connect takes
        assert "host:port" in result.stderr


def test_bench_latency_poll_writes_report(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("bench-latency", "--mode", "poll", "--frames", "8",
                     "--tick", "0.05", "--poll-interval", "0.3", "--out", str(out))
    assert result.returncode == 0, result.stderr
    report = json.loads(out.read_text())
    assert report["mode"] == "poll"
    assert report["poll_interval"] == 0.3
    assert report["count"] == 8
    assert 0.0 < report["mean"] <= 0.3 + 0.2  # bounded by interval plus slack
