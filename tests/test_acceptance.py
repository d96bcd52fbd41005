"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
live).  The benchmark criteria drive the real in-process loopback stack, so
this module takes on the order of a minute; everything else is seconds.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from shmlink import mlp
from shmlink.adc import (
    DATA,
    STATUS,
    AdcEmulator,
    ChannelInput,
    SensorModel,
    code_to_resistance,
    resistance_to_code,
)
from shmlink.bench import run_bench
from shmlink.dataset import estimate_offset, parse_mechanical_csv, read_table_csv
from shmlink.firmware import NodeFirmware
from shmlink.protocol import CrcMismatch, FrameError, TelemetryFrame, decode, encode
from shmlink.server import InferenceServer, ServerConfig
from shmlink.synthetic import offset_pair

DATA_DIR = Path(__file__).parent / "data"
BUNDLED = Path(__file__).parent.parent / "data" / "synthetic_2ch.csv"

HALF_LSB_BOUND = 7.4506e-5


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} {name}: {detail}"


# -- 1: quantization ------------------------------------------------------------------


def test_criterion_01_quantization_round_trip():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for r in rng.uniform(0.0, 2500.0, 10_000):
        worst = max(worst, abs(code_to_resistance(resistance_to_code(r)) - r))
    elapsed = time.perf_counter() - started
    report(1, "quantization round trip", worst <= HALF_LSB_BOUND and elapsed < 1.0,
           f"max err {worst:.4e} <= {HALF_LSB_BOUND:.4e}, {elapsed:.2f}s < 1s")


# -- 2: golden trace ------------------------------------------------------------------


def test_criterion_02_golden_trace():
    started = time.perf_counter()
    emu = AdcEmulator(SensorModel.from_resistances([47, 47, 100, 100, 120, 120, 120, 120]))
    fw = NodeFirmware(emu, channel_count=8)
    fw.init()
    fw.clear_trace()
    fw.run_tick(now=0.0)
    trace = fw.capture_trace()
    rendered = "\n".join(
        f"0x{addr:02X} 0x{value:06X}" if addr == 0x03 else f"0x{addr:02X} 0x{value:04X}"
        for addr, value in trace) + "\n"
    golden = (DATA_DIR / "golden_trace_8ch.txt").read_bytes()
    elapsed = time.perf_counter() - started
    ok = rendered.encode() == golden and len(trace) == 32 and elapsed < 1.0
    report(2, "golden register trace", ok,
           f"{len(trace)} writes byte-identical to fixture, {elapsed:.2f}s < 1s")


# -- 3: filter rejection --------------------------------------------------------------


def test_criterion_03_filter_rejection():
    started = time.perf_counter()
    attenuations = {}
    for freq in (50.0, 60.0):
        inputs = [ChannelInput(resistance=100.0, interference_amplitude=10.0,
                               interference_freq=freq)] + [ChannelInput()] * 7
        emu = AdcEmulator(SensorModel(channels=inputs))
        emu.write_register(0x03, 0x003811)
        worst = 0.0
        for i in range(16):
            emu.write_register(0x09, 0x8011)
            emu.set_time(i / (freq * 16) + 0.29)
            while emu.read_register(STATUS) & 0x80:  # poll until RDY clears
                pass
            code = emu.read_register(DATA)
            worst = max(worst, abs(code_to_resistance(code) - 100.0))
        attenuations[freq] = 20 * math.log10(10.0 / max(worst, HALF_LSB_BOUND))
    elapsed = time.perf_counter() - started
    ok = all(a >= 60.0 for a in attenuations.values()) and elapsed < 10.0
    report(3, "mains rejection", ok,
           f"50Hz {attenuations[50.0]:.1f}dB, 60Hz {attenuations[60.0]:.1f}dB >= 60dB, "
           f"{elapsed:.1f}s < 10s")


# -- 4: codec -------------------------------------------------------------------------


def random_frame(rng) -> TelemetryFrame:
    n = int(rng.integers(1, 9))
    return TelemetryFrame(counter=int(rng.integers(0, 2**32)),
                          node_id=int(rng.integers(0, 2**16)),
                          resistances=tuple(float(r) for r in rng.uniform(0, 2500, n)))


def test_criterion_04_codec():
    rng = np.random.default_rng(104)

    for _ in range(10_000):
        frame = random_frame(rng)
        assert decode(encode(frame)) == frame
    round_trips_ok = True

    crashes = 0
    for _ in range(100_000):
        blob = rng.bytes(int(rng.integers(0, 64)))
        try:
            decode(blob)
        except FrameError:
            pass
        except Exception:
            crashes += 1
    fuzz_ok = crashes == 0

    flips_ok = True
    for _ in range(1_000):
        frame = random_frame(rng)
        data = bytearray(encode(frame))
        payload_positions = [i for i in range(5, len(data)) if i != 11]
        pos = payload_positions[int(rng.integers(0, len(payload_positions)))]
        data[pos] ^= 1 << int(rng.integers(0, 8))
        try:
            decode(bytes(data))
            flips_ok = False
        except CrcMismatch:
            pass
        except FrameError:
            flips_ok = False
    ok = round_trips_ok and fuzz_ok and flips_ok
    report(4, "codec", ok,
           f"10k round trips, 100k fuzz inputs ({crashes} crashes), "
           f"1k payload bit flips all CrcMismatch: {flips_ok}")


# -- 5: gradients ---------------------------------------------------------------------


def test_criterion_05_gradients():
    from test_mlp import max_relative_gradient_error

    worst = max(max_relative_gradient_error(seed) for seed in range(10))
    report(5, "gradient check", worst < 1e-4,
           f"max relative deviation {worst:.2e} < 1e-4 across 10 seeds")


# -- 6 and 7: training ------------------------------------------------------------------


@pytest.fixture(scope="module")
def bundled_grid_search():
    records = read_table_csv(BUNDLED.read_text(encoding="utf-8"))
    data = mlp.TrainData.from_records(records, train_fraction=0.8)
    grid = mlp.HyperGrid(hidden_widths=(8, 16), learning_rates=(1e-2, 1e-3),
                         batch_sizes=(32,), max_epochs=450, plateau_patience=50,
                         plateau_tolerance=1e-4)
    started = time.perf_counter()
    config, model, rep = mlp.grid_search(data, grid, seed=0)
    return data, config, model, rep, time.perf_counter() - started


def test_criterion_06_training_metrics(bundled_grid_search):
    _, config, _, rep, elapsed = bundled_grid_search
    ok = rep.test_mse <= 0.05 and rep.test_mae <= 0.15 and elapsed < 300.0
    report(6, "grid-search training", ok,
           f"test MSE {rep.test_mse:.4f} <= 0.05, MAE {rep.test_mae:.4f} <= 0.15, "
           f"{elapsed:.0f}s < 300s (width={config.hidden_width}, rate={config.learning_rate})")


def test_criterion_07_plateau(bundled_grid_search):
    data, config, _, _, _ = bundled_grid_search
    rerun = mlp.TrainConfig(hidden_width=config.hidden_width,
                            learning_rate=config.learning_rate,
                            batch_size=config.batch_size, max_epochs=450,
                            plateau_patience=50, plateau_tolerance=None, seed=0)
    _, rep = mlp.train(data, rerun)
    losses = rep.epoch_losses
    early = losses[0] - losses[200]
    late = losses[200] - losses[400]
    ok = late < 0.05 * early
    report(7, "loss plateau", ok,
           f"decrease epochs 200-400 is {late / early:.3%} of decrease 0-200 (< 5%)")


# -- 1 and 6 together: the acquisition chain under the served model -------------------


def test_adc_chain_costs_nothing_in_accuracy(tmp_path):
    records = read_table_csv(BUNDLED.read_text(encoding="utf-8"))
    data = mlp.TrainData.from_records(records, train_fraction=0.8)
    model, rep = mlp.train(data, mlp.TrainConfig(hidden_width=16, learning_rate=1e-2,
                                                 batch_size=32))
    firmware = NodeFirmware(AdcEmulator(SensorModel.from_resistances(data.test_x[0])),
                            channel_count=2)
    firmware.init()
    acquired = []
    for tick, row in enumerate(data.test_x):
        for channel, r in enumerate(row):
            firmware.bus.sensors.set_resistance(channel, r)
        frame = decode(encode(firmware.run_tick(now=tick * firmware.tick_period)))
        acquired.append(frame.resistances)
    acquired = np.array(acquired)
    assert np.abs(acquired - data.test_x).max() <= HALF_LSB_BOUND

    mlp.save_model(model, tmp_path / "model.json")
    server = InferenceServer(ServerConfig(model_files={"default": str(tmp_path / "model.json")}))
    answers = np.array(server.handle_predict("default", acquired.tolist())["predictions"])
    assert [a.hex() for a in answers.tolist()] == \
        [f.hex() for f in mlp.forward_rows(model, acquired).tolist()]
    # |MAE(a) - MAE(b)| <= mean |a - b|: the chain moves the score by no more
    # than it moves the answers
    chain_mae = float(np.mean(np.abs(answers - data.test_y)))
    moved = float(np.mean(np.abs(answers - mlp.forward_rows(model, data.test_x))))
    assert abs(chain_mae - rep.test_mae) <= moved, (chain_mae, rep.test_mae, moved)


# -- 8 and 9: latency --------------------------------------------------------------------


@pytest.fixture(scope="module")
def push_report():
    return run_bench("push", frames=200, seed=0)


def test_criterion_08_push_latency(push_report):
    ok = push_report["p95"] < 1.0
    report(8, "push latency", ok,
           f"p95 {push_report['p95'] * 1e3:.2f}ms < 1s over {push_report['frames']} frames "
           f"(mean {push_report['mean'] * 1e3:.2f}ms)")


def test_criterion_09_poll_push_ratio(push_report):
    poll = run_bench("poll", frames=200, poll_interval=5.0, seed=0)
    ratio = poll["mean"] / push_report["mean"]
    # uniform arrivals across 5s cycles put the poll mean near interval/2
    mean_in_band = 1.5 <= poll["mean"] <= 3.5
    ok = ratio >= 10.0 and mean_in_band
    report(9, "poll/push ratio", ok,
           f"mean poll {poll['mean']:.2f}s / mean push {push_report['mean'] * 1e3:.2f}ms "
           f"= {ratio:.0f}x >= 10x; poll mean within [1.5, 3.5]s: {mean_in_band}")


# -- 10: ingestion --------------------------------------------------------------------------


def test_criterion_10_ingestion_fixture():
    text = (DATA_DIR / "tensile_test_export.csv").read_text(encoding="utf-8")
    samples = parse_mechanical_csv(text)
    s = samples[0]
    expected = {"stress": 76.15, "strain": 0.0081, "displacement": 1.40,
                "force": 5969.85, "time": 188.05}
    ok = (len(samples) == 1 and s.stress == expected["stress"]
          and s.strain == expected["strain"] and s.displacement == expected["displacement"]
          and s.force == expected["force"] and s.time == expected["time"])
    report(10, "tensile export ingestion", ok,
           f"stress {s.stress} MPa, strain {s.strain}, displacement {s.displacement} mm, "
           f"force {s.force} N, time {s.time} s; all exact")


# -- 11: synchronization ----------------------------------------------------------------------


def test_criterion_11_offset_recovery():
    rng = np.random.default_rng(111)
    res_interval = 0.1
    worst = 0.0
    for trial in range(100):
        offset = float(rng.uniform(-300.0, 300.0))
        mech, res = offset_pair(offset=offset, n=2500, noise_frac=0.10, seed=trial)
        worst = max(worst, abs(estimate_offset(mech, res) - offset))
    report(11, "offset recovery", worst <= res_interval,
           f"worst error {worst:.4f}s <= one sampling interval ({res_interval}s) "
           f"over 100 offsets at 10% noise")


# -- 12: model persistence ----------------------------------------------------------------------


def test_criterion_12_model_persistence(tmp_path):
    rng = np.random.default_rng(112)
    model = mlp.init_model(2, 16, mu=np.array([51.0, 43.0]), sigma=np.array([0.5, 0.4]),
                           rng=rng)
    path = tmp_path / "model.json"
    mlp.save_model(model, path)
    loaded = mlp.load_model(path)
    mismatches = 0
    for _ in range(100):
        x = rng.normal([51.0, 43.0], 2.0)
        if mlp.forward(model, x) != mlp.forward(loaded, x):
            mismatches += 1
    report(12, "model persistence", mismatches == 0,
           f"{100 - mismatches}/100 forward outputs bit-identical after save/load")
