"""The ``calibrate`` workload: raw instrument data to a served model, in fresh processes.

Each of REPEATS fresh processes runs rounds of acquire, calibrate and score,
CYCLES_PER_SECOND rounds per second of its share of --seconds; the metrics
are medians over all acquisition segments and all calibrations of the run.
Each round, a 2-channel node with sensor noise acquires the same seeded load
test through ``NodeFirmware``/``AdcEmulator``; the true resistances and the
mechanical series come from ``synthetic.offset_pair`` with a known clock
offset.  Both series are rendered as CSV text.  The timed calibration then
parses them, estimates the offset, synchronizes, round-trips the canonical
CSV, runs a fixed small grid search, saves and reloads the model, and loads
it into an ``InferenceServer``, which finally scores every record through
``predict`` messages of 1000 rows over loopback TCP.  Before each timed
acquisition segment and each calibration the process moves to the CPU
``common.fastest_cpu`` picks.

Run as a script this is the worker process; ``run`` is the benchmark side.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time
from pathlib import Path

from common import (Child, child_main, emit, fastest_cpu, median, percentile, pin,
                    use_checkout_source)

REPEATS = 3                  # fresh processes per run, each runs the whole workload
CYCLES_PER_SECOND = 0.6      # acquire + calibrate + score rounds per second of a process
SEGMENTS = 6                 # separately timed parts of each acquisition
MECH_SAMPLES = 2400          # mechanical series: 240 s at 0.1 s
MECH_INTERVAL = 0.1
TICKS_PER_SECOND = 1300      # acquisition ticks per second of a process, all rounds
NOISE_OHM = 0.05             # sensor noise std per modulator sample
ROWS_PER_MESSAGE = 1000
MESSAGES_PER_SECOND = 4      # scoring messages per second of --seconds, all processes
GRID = dict(hidden_widths=(8, 16), learning_rates=(1e-2,), batch_sizes=(32, None),
            max_epochs=100, plateau_patience=50, plateau_tolerance=None)


def run(seed: int, seconds: float, trace: bool, workdir: Path, spans_path: Path) -> dict:
    """Benchmark side: REPEATS fresh workers run the same inputs; medians over all."""
    repeats = []
    for r in range(REPEATS):
        worker = Child("calibrate.py", ["1" if trace else "0"])
        try:
            result = worker.call({
                "cmd": "run", "seed": seed, "seconds": seconds / REPEATS,
                "workdir": str(workdir),
                "spans": str(spans_path.with_name(f"{spans_path.stem}-{r}{spans_path.suffix}"))},
                timeout=120)
            final = worker.finish()
        finally:
            worker.kill()
        result["setup_s"] = worker.spawn_seconds
        result["peak_rss_mb"] = final["maxrss_kb"] / 1024.0
        repeats.append(result)

    def pooled(name: str) -> list[float]:
        return [v for r in repeats for v in r["samples"][name]]

    round_trip_s = median(pooled("score_round_trip_s"))
    combined = {
        "metrics": {"setup_s": median(r["setup_s"] for r in repeats),
                    "peak_rss_mb": median(r["peak_rss_mb"] for r in repeats),
                    "latency_ms": median(pooled("calibrate_s")) * 1e3,
                    "cpu_us_per_op": median(pooled("acquire_cpu_us_per_tick"))},
        "checks": {name: all(r["checks"][name] for r in repeats) for name in repeats[0]["checks"]},
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
        "diagnostics": {
            "named_metrics": {"acquire_ticks_per_s": median(pooled("acquire_ticks_per_s")),
                              "calibrate_s": median(pooled("calibrate_s")),
                              "score_round_trip_ms": round_trip_s * 1e3,
                              "score_rows_per_s": ROWS_PER_MESSAGE / round_trip_s},
            "repeats": [{k: r[k] for k in ("setup_s", "peak_rss_mb", "samples", "diagnostics")}
                        for r in repeats]},
    }
    if trace:
        from tracing import combine_layers
        combined["layers"] = combine_layers([r["layers"] for r in repeats])
    return combined


def acquire(seed: int, ticks: int, rates: list, cpu_us: list):
    """Noisy 2-channel acquisition of a seeded load test, timed in SEGMENTS parts.

    Appends each part's ticks per second and CPU microseconds per tick to
    ``rates`` and ``cpu_us``.
    """
    import numpy as np
    from shmlink import synthetic
    from shmlink.adc import AdcEmulator, SensorModel
    from shmlink.firmware import NodeFirmware

    offset = float(np.random.default_rng(seed).uniform(0.5, 3.0))
    interval = MECH_SAMPLES * MECH_INTERVAL / ticks
    mech, truth = synthetic.offset_pair(offset, n=MECH_SAMPLES, channels=2, seed=seed,
                                        mech_interval=MECH_INTERVAL, res_interval=interval)
    sensors = SensorModel.from_resistances(truth[0].resistances, noise_std=NOISE_OHM)
    firmware = NodeFirmware(AdcEmulator(sensors, seed=seed), channel_count=2,
                            tick_period=interval, trace=False)
    firmware.init()
    acquired = []
    step = -(-len(truth) // SEGMENTS)
    for first in range(0, len(truth), step):
        segment = truth[first:first + step]
        place()
        started, cpu_started = time.perf_counter(), time.process_time()
        for sample in segment:
            for ch, r in enumerate(sample.resistances):
                sensors.set_resistance(ch, r)
            acquired.append((sample.t, firmware.run_tick(now=sample.t).resistances))
        rates.append(len(segment) / (time.perf_counter() - started))
        cpu_us.append((time.process_time() - cpu_started) / len(segment) * 1e6)
    mech_text = "Time (s),Strain\n" + "".join(f"{m.time!r},{m.strain!r}\n" for m in mech)
    res_text = "t,R1,R2\n" + "".join(f"{t!r},{r1!r},{r2!r}\n" for t, (r1, r2) in acquired)
    return offset, interval, mech_text, res_text


def workload(seed: int, seconds: float, workdir: str, reference_forward) -> dict:
    """Rounds of: acquire, calibrate from the CSV text, then score through the server."""
    from shmlink import dataset as ds
    from shmlink import mlp
    from shmlink.protocol import recv_message, send_message
    from shmlink.server import InferenceServer, ServerConfig

    cycles = max(1, round(CYCLES_PER_SECOND * seconds))
    ticks = int(TICKS_PER_SECOND * seconds / cycles)
    model_path = str(Path(workdir) / "coupon_model.json")
    min_messages = int(MESSAGES_PER_SECOND * seconds / cycles)
    server = InferenceServer(ServerConfig(host="127.0.0.1", port=0))
    server.start()
    client = socket.create_connection(server.address, timeout=30)

    def ask(doc: dict) -> dict:
        send_message(client, json.dumps(doc).encode())
        return json.loads(recv_message(client))

    rates, cpu_us, jobs, round_trips, checks, failed = [], [], [], [], {}, 0

    def check(name: str, ok: bool) -> None:
        checks[name] = checks.get(name, True) and bool(ok)

    try:
        for cycle in range(cycles):
            offset, interval, mech_text, res_text = acquire(seed, ticks, rates, cpu_us)
            place()
            started = time.perf_counter()
            mech = ds.parse_mechanical_csv(mech_text)
            res = ds.parse_resistance_csv(res_text)
            estimate = ds.estimate_offset(mech, res)
            records = ds.synchronize(mech, res, estimate)
            table = ds.write_table_csv(records)
            reread = ds.read_table_csv(table)
            data = mlp.TrainData.from_records(reread)
            config, model, report = mlp.grid_search(data, mlp.HyperGrid(**GRID), seed=seed)
            mlp.save_model(model, model_path)
            reloaded = mlp.load_model(model_path)
            loaded = ask({"type": "load_model", "model_id": "coupon", "path": model_path})
            jobs.append(time.perf_counter() - started)

            rows = [list(r.resistances) for r in reread]
            messages = max(min_messages, -(-len(rows) // ROWS_PER_MESSAGE))
            scores_match, scored = True, 0
            for m in range(messages):
                first = (cycle * messages + m) * ROWS_PER_MESSAGE
                chunk = [rows[(first + j) % len(rows)] for j in range(ROWS_PER_MESSAGE)]
                sent = time.perf_counter()
                reply = ask({"type": "predict", "request_id": cycle * messages + m + 1,
                             "model_id": "coupon", "rows": chunk})
                round_trips.append(time.perf_counter() - sent)
                got = reply.get("predictions", [])
                want = [reference_forward(model, row) for row in chunk]
                scores_match &= [float(g).hex() for g in got] == [w.hex() for w in want]
                scored += len(got)
            failed += int(not scores_match) + int(loaded.get("type") != "load_model_ok")
            check("recovered offset within one sampling interval",
                  abs(estimate - offset) <= interval)
            check("reloaded model is bit-identical", _same_model(model, reloaded, mlp))
            check("server loaded the model", loaded.get("type") == "load_model_ok")
            check("server scores equal mlp.forward per row", scores_match)
            check("every record scored", scored == messages * ROWS_PER_MESSAGE >= len(rows))
            check("canonical CSV round trips",
                  reread == records and ds.write_table_csv(reread) == table)
    finally:
        client.close()
        server.stop()

    return {
        "samples": {"acquire_ticks_per_s": rates, "acquire_cpu_us_per_tick": cpu_us,
                    "calibrate_s": jobs,
                    "score_round_trip_s": round_trips},
        "checks": checks,
        "attempted": len(round_trips) + cycles,
        "failed": failed,
        "diagnostics": {
            "ticks": ticks, "records": len(records), "true_offset_s": offset,
            "estimated_offset_s": estimate, "sampling_interval_s": interval,
            "selected": {"hidden_width": config.hidden_width,
                         "batch_size": config.batch_size, "test_mse": report.test_mse},
            "score_message_p99_ms": percentile(round_trips, 99) * 1e3,
        },
    }


def place() -> None:
    """Move this process, every thread of it, to the CPU ``fastest_cpu`` picks."""
    cpu = fastest_cpu()
    if cpu is not None:
        pin(os.getpid(), cpu)


def _same_model(a, b, mlp) -> bool:
    arrays = zip([*a.weights, *a.biases, a.feature_mean, a.feature_std],
                 [*b.weights, *b.biases, b.feature_mean, b.feature_std])
    return (mlp.model_to_doc(a) == mlp.model_to_doc(b)
            and all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in arrays))


def main(trace: str) -> None:
    import resource

    use_checkout_source()
    from shmlink import mlp
    reference_forward = mlp.forward
    recorder = None
    if trace == "1":
        import tracing
        recorder = tracing.Recorder()
        recorder.install()
    emit({"ready": True})

    def handle(command: dict) -> dict:
        if command["cmd"] == "run":
            result = workload(command["seed"], command["seconds"], command["workdir"],
                              reference_forward)
            if recorder is not None:
                import tracing
                recorder.write(command["spans"])
                result["layers"] = tracing.layer_metrics(recorder.spans)
                result["diagnostics"]["server_errors"] = tracing.server_errors_by_code(
                    recorder.spans)
                recorder.spans.clear()
            return result
        return {"quit": True, "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    child_main(handle)


if __name__ == "__main__":
    main(sys.argv[1])
