"""Online workloads: an open-loop node generator against the gateway and server.

The system under test runs in one child process (``sut.py``).  This process is
the load generator: one thread, two node connections over loopback TCP.
Frames are produced before any timing by ``NodeFirmware`` + ``AdcEmulator``
with DC inputs replayed per tick (the ``replay:`` profile's path), and sent
either on an open-loop schedule or back to back.

Each frame is timed from when it was due.  Due times are ``perf_counter``
readings, which on Linux is the system-wide ``CLOCK_MONOTONIC``, so they join
the child's ``LatencyRecord.t_response_received``; mapped to ``time.time()``
they join the ``Time`` column of the telemetry CSV (persist latency).  Before
each phase the system under test moves to the CPU ``common.fastest_cpu``
picks, and the generator to another.
"""

from __future__ import annotations

import csv
import gc
import math
import os
import socket
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (USABLE_CPUS, BenchError, Child, fastest_cpu, median, other_cpu,
                    percentile, pin)
from tracing import combine_layers

NODES = 2
CHANNELS = 8
TICK = 0.01                  # node tick period handed to the firmware, seconds
SPIN_S = 0.0003              # sleep until this close to a due time, then spin
STALL_S = 5.0                # drain gives up after this long without progress
TRIGGER_SHARE = 0.015        # ingest_quiet: share of frames the rule should fire on
LATE_P50_BOUND_MS = 1.0      # median generator lateness above this invalidates a run
PROBE_ROWS = 4
REPEATS = 3                  # system-under-test processes per run
CYCLES = 8                   # each process runs the phase sequence this many times;
                             # a metric is the median over all REPEATS * CYCLES phases


@dataclass(frozen=True)
class Phase:
    name: str
    share: float             # of --seconds (open loop) or of the frame budget
    rate: float | None       # frames/s; None sends back to back


# Every phase runs REPEATS * CYCLES times, interleaved with the others, for
# share * seconds in total.  Open-loop rates are about 2% and 20-25% of the
# saturated rate measured on a 2-core machine, with the system under test on
# one CPU; a saturate phase sends the frames ``nominal_fps`` would carry in its
# time, so its length follows the program's speed.
WORKLOADS = {
    "push_every_frame": dict(trigger="every", nominal_fps=4000.0, phases=(
        Phase("light", 0.45, 100.0), Phase("loaded", 0.2, 1000.0),
        Phase("saturate", 0.35, None))),
    "ingest_quiet": dict(trigger="delta", nominal_fps=20000.0, phases=(
        Phase("light", 0.45, 100.0), Phase("loaded", 0.2, 4000.0),
        Phase("saturate", 0.3, None))),
}


@dataclass
class Frames:
    """Every frame of a run in send order, plus what the gateway must do with it."""

    node: list[int] = field(default_factory=list)
    counter: list[int] = field(default_factory=list)
    resistances: list[tuple] = field(default_factory=list)
    wire: list[bytes] = field(default_factory=list)      # length-prefixed messages
    triggers: list[bool] = field(default_factory=list)
    delta_ohm: float | None = None

    def __len__(self) -> int:
        return len(self.node)


def load_cycle(seed: int, per_node: int) -> np.ndarray:
    """Seeded slow load cycle, shape (nodes, ticks, channels), in ohm.

    Each node has its own base offsets (so no two nodes ever send the same
    counter with the same first resistance), gauge factors and phase.
    """
    from shmlink.bench import FIXTURE_RESISTANCES
    rng = np.random.default_rng(seed)
    base = np.array(FIXTURE_RESISTANCES) + np.arange(NODES)[:, None] * 3.0
    base = base + rng.uniform(0.0, 2.0, (NODES, CHANNELS))
    gauge = rng.uniform(0.005, 0.02, (NODES, CHANNELS))
    period = per_node * rng.uniform(0.6, 1.0)
    phase = rng.uniform(0.0, 2 * math.pi, NODES)
    k = np.arange(per_node)
    latent = 0.5 * (1.0 - np.cos(2 * math.pi * k[None, :] / period + phase[:, None]))
    return base[:, None, :] * (1.0 + gauge[:, None, :] * latent[:, :, None])


def generate(seed: int, total: int, trigger: str, repeats: int) -> Frames:
    """Acquire ``total`` frames through the firmware, alternating nodes.

    The frames are split into ``repeats`` equal runs, one per gateway; each
    gateway starts with no trigger baseline, so the expected triggers are
    computed per run.
    """
    from shmlink.adc import AdcEmulator, SensorModel
    from shmlink.firmware import NodeFirmware
    from shmlink.protocol import encode

    per_node = (total + NODES - 1) // NODES
    inputs = load_cycle(seed, per_node)
    acquired = []
    for node in range(NODES):
        sensors = SensorModel.from_resistances(inputs[node, 0])
        firmware = NodeFirmware(AdcEmulator(sensors), node_id=node, channel_count=CHANNELS,
                                tick_period=TICK, trace=False)
        firmware.init()
        frames = []
        for row in inputs[node].tolist():
            for ch, r in enumerate(row):
                sensors.set_resistance(ch, r)
            frames.append(firmware.run_tick(now=firmware.counter * TICK))
        acquired.append(frames)

    out = Frames()
    for i in range(total):
        frame = acquired[i % NODES][i // NODES]
        payload = encode(frame)
        out.node.append(frame.node_id)
        out.counter.append(frame.counter)
        out.resistances.append(frame.resistances)
        out.wire.append(struct.pack("<I", len(payload)) + payload)
    if len({(c, r[0]) for c, r in zip(out.counter, out.resistances)}) != total:
        raise BenchError("generated frames are not unique by (counter, R1)")
    if trigger == "every":
        out.triggers = [True] * total
    else:
        out.delta_ohm = _delta_for_share(out, TRIGGER_SHARE)
        size = total // repeats
        out.triggers = [hit for r in range(repeats)
                        for hit in expected_triggers(out, out.delta_ohm,
                                                     range(r * size, (r + 1) * size))]
        share = sum(out.triggers) / total
        if not 0.005 <= share <= 0.03:
            raise BenchError(f"trigger share {share:.4f} outside [0.005, 0.03]")
    return out


def _delta_for_share(frames: Frames, share: float) -> float:
    """A ``delta_ohm`` that fires on about ``share`` of the frames.

    Between triggers the fastest channel travels about ``delta_ohm``, so the
    rule fires about (that channel's path length / delta_ohm) times.
    """
    paths = []
    for node in range(NODES):
        r = np.array([res for n, res in zip(frames.node, frames.resistances) if n == node])
        paths.append(np.abs(np.diff(r, axis=0)).sum(axis=0).max() / (share * len(r)))
    return float(np.mean(paths))


def expected_triggers(frames: Frames, delta_ohm: float, ids: range) -> list[bool]:
    """``TriggerRule(every_frame=False, delta_ohm)`` applied per node, in order."""
    baseline: dict[int, tuple] = {}
    fired = []
    for i in ids:
        node, res = frames.node[i], frames.resistances[i]
        base = baseline.get(node)
        hit = base is None or any(abs(r - b) >= delta_ohm for r, b in zip(res, base))
        if hit:
            baseline[node] = res
        fired.append(hit)
    return fired


# -- sending -----------------------------------------------------------------------


def send_open_loop(socks, frames: Frames, ids: range, rate: float) -> tuple[list, list]:
    """Send each frame when due; an overdue frame goes at once (no sliding)."""
    interval = 1.0 / rate
    perf = time.perf_counter
    start = perf() + 0.002
    due, sent = [], []
    for j, i in enumerate(ids):
        at = start + j * interval
        wait = at - perf()
        if wait > SPIN_S:
            time.sleep(wait - SPIN_S)
        while perf() < at:
            pass
        socks[frames.node[i]].sendall(frames.wire[i])
        sent.append(perf())
        due.append(at)
    return due, sent


def send_back_to_back(socks, frames: Frames, ids: range) -> tuple[list, list]:
    perf = time.perf_counter
    sent = []
    for i in ids:
        socks[frames.node[i]].sendall(frames.wire[i])
        sent.append(perf())
    return sent, sent


class OutputTail:
    """Counts the lines a child has appended to one of its output files."""

    def __init__(self, path: Path):
        self.path, self.offset, self.lines = path, 0, 0

    def poll(self) -> int:
        if self.path.exists():
            with open(self.path, "rb") as fh:
                fh.seek(self.offset)
                chunk = fh.read()
            cut = chunk.rfind(b"\n") + 1
            self.lines += chunk.count(b"\n", 0, cut)
            self.offset += cut
        return self.lines


def drain(rows: OutputTail, answers: OutputTail, want_rows: int, want_answers: int) -> bool:
    """Wait until the gateway persisted and answered everything sent so far.

    Gives up once neither file has grown for ``STALL_S``.
    """
    progress, deadline = None, 0.0
    while True:
        seen = (rows.poll(), answers.poll())
        if seen[0] >= want_rows + 1 and seen[1] >= want_answers + 1:  # + header lines
            return True
        if seen != progress:
            progress, deadline = seen, time.monotonic() + STALL_S
        elif time.monotonic() > deadline:
            return False
        time.sleep(0.005)


def wall_minus_perf() -> float:
    """``time.time() - time.perf_counter()``, from the tightest of a few readings."""
    best = None
    for _ in range(50):
        a = time.perf_counter()
        w = time.time()
        b = time.perf_counter()
        if best is None or b - a < best[0]:
            best = (b - a, w - (a + b) / 2)
    return best[1]


# -- output checks ---------------------------------------------------------------------


def read_outputs(workdir: Path, frames: Frames, ids: range):
    """Persisted wall times and answer perf times per frame, with mismatches."""
    lookup = {(frames.counter[i], frames.resistances[i][0]): i for i in ids}
    by_node = {(frames.node[i], frames.counter[i]): i for i in ids}
    persisted: dict[int, list[float]] = {i: [] for i in ids}
    answered: dict[int, list[float]] = {i: [] for i in ids}
    problems = {"rows": [], "answers": []}
    with open(workdir / "telemetry.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["index", "Time", "Strain", "t"] or len(header) != 4 + CHANNELS:
            problems["rows"].append(f"telemetry header {header}")
        for row in reader:
            values = tuple(float(v) for v in row[4:])
            i = lookup.get((int(float(row[3])), values[0]) if values else None)
            if i is None or values != frames.resistances[i]:
                problems["rows"].append(f"persisted row matches no frame sent: {row[:5]}")
                continue
            persisted[i].append(float(row[1]))
    with open(workdir / "latency.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            i = by_node.get((int(row[1]), int(row[0])))
            if i is None:
                problems["answers"].append(f"answer for unknown frame {row[:2]}")
                continue
            answered[i].append(float(row[4]))
    return persisted, answered, problems


@dataclass
class PhaseResult:
    name: str
    attempted: int
    failed: int
    bad_rows: int                   # persisted zero or several times
    bad_answers: int                # answered other than exactly when the rule fires
    response_ms: list[float]        # due -> answer, triggered frames (inf = failed)
    persist_ms: list[float]         # due -> row persisted (inf = failed)
    late_ms: list[float]
    capacity_fps: float | None
    cpu_s: float
    probe_ok: bool

    def p50(self, label: str) -> float | None:
        values = getattr(self, f"{label}_ms")
        return percentile(values, 50) if values else None

    def summary(self) -> dict:
        doc = {"attempted": self.attempted, "succeeded": self.attempted - self.failed,
               "failed": self.failed, "probe_bit_exact": self.probe_ok,
               "cpu_us_per_frame": self.cpu_s / self.attempted * 1e6}
        for label in ("response", "persist", "late"):
            values = getattr(self, f"{label}_ms")
            if values:
                doc[f"{label}_p50_ms"] = percentile(values, 50)
                doc[f"{label}_p99_ms"] = percentile(values, 99)
                doc[f"{label}_n"] = len(values)
        if self.capacity_fps is not None:
            doc["capacity_fps"] = self.capacity_fps
        return doc


@dataclass
class Repeat:
    """One system-under-test process and the phases it ran."""

    setup_s: float
    final: dict
    threads: int
    phases: list[PhaseResult]
    problems: dict[str, list[str]]      # rows / answers matching no frame sent
    warm_probe_ok: bool


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        spans_path: Path) -> dict:
    """Run one online workload; returns metrics, checks and diagnostics."""
    from shmlink import mlp
    from shmlink.bench import make_bench_model

    spec = WORKLOADS[workload]
    plan = []
    for phase in spec["phases"]:
        rate = phase.rate or spec["nominal_fps"]
        count = int(phase.share * seconds / (REPEATS * CYCLES) * rate) // NODES * NODES
        plan.append((phase, count))
    plan *= CYCLES
    per_repeat = sum(count for _, count in plan)
    frames = generate(seed, per_repeat * REPEATS, spec["trigger"], REPEATS)
    gc.collect()
    gc.freeze()  # the generator's collections then skip the pre-built frames
    model_path = workdir / "model.json"
    make_bench_model(CHANNELS, model_path, seed=seed)
    model = mlp.load_model(model_path)
    trigger_arg = "every" if frames.delta_ohm is None else repr(frames.delta_ohm)

    repeats = []
    try:
        for r in range(REPEATS):
            sut_dir = workdir / f"sut{r}"
            sut_dir.mkdir()
            spans = spans_path.with_name(f"{spans_path.stem}-{r}{spans_path.suffix}")
            sut = Child("sut.py", [str(sut_dir), str(model_path), trigger_arg,
                                   "1" if trace else "0", str(spans)])
            repeats.append(_run_repeat(sut, frames, plan, r * per_repeat, sut_dir, model, mlp))
    finally:
        gc.unfreeze()
        os.sched_setaffinity(0, USABLE_CPUS)
    return _report(workload, frames, repeats)


def _run_repeat(sut: Child, frames: Frames, plan, first: int, sut_dir: Path, model,
                mlp) -> Repeat:
    socks = []
    try:
        for _ in range(NODES):
            sock = socket.create_connection(("127.0.0.1", sut.ready["node_port"]), timeout=10)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            socks.append(sock)
        rows_tail = OutputTail(sut_dir / "telemetry.csv")
        answers_tail = OutputTail(sut_dir / "latency.csv")
        # warm-up: opens the gateway's server connection before any timing
        warm_probe_ok = _probe_ok(sut, model, [list(frames.resistances[first])], mlp)
        offset = wall_minus_perf()
        sent_so_far = answered_so_far = 0
        runs = []
        for phase, count in plan:
            ids = range(first + sent_so_far, first + sent_so_far + count)
            cpu = fastest_cpu()
            if cpu is not None:  # the system under test there, the generator elsewhere
                pin(sut.proc.pid, cpu)
                os.sched_setaffinity(0, {other_cpu(cpu)})
            before = sut.call({"cmd": "mark"})
            if phase.rate:
                due, sent = send_open_loop(socks, frames, ids, phase.rate)
            else:
                due, sent = send_back_to_back(socks, frames, ids)
            sent_so_far += count
            answered_so_far += sum(frames.triggers[i] for i in ids)
            drained = drain(rows_tail, answers_tail, sent_so_far, answered_so_far)
            after = sut.call({"cmd": "mark"})
            probe_rows = [list(frames.resistances[i]) for i in ids[:PROBE_ROWS]]
            probe_ok = drained and _probe_ok(sut, model, probe_rows, mlp)
            runs.append((phase, ids, due, sent, after["cpu_s"] - before["cpu_s"], probe_ok))
        for sock in socks:
            sock.close()
        socks = []
        final = sut.finish()
    finally:
        for sock in socks:
            sock.close()
        sut.kill()

    persisted, answered, problems = read_outputs(sut_dir, frames,
                                                 range(first, first + sent_so_far))
    phases = [_phase_result(phase, ids, due, sent, cpu, probe_ok, frames, persisted,
                            answered, offset)
              for phase, ids, due, sent, cpu, probe_ok in runs]
    return Repeat(sut.spawn_seconds, final, after["threads"], phases, problems, warm_probe_ok)


def _probe_ok(sut: Child, model, rows, mlp) -> bool:
    got = sut.call({"cmd": "probe", "rows": rows})["predictions"]
    want = [mlp.forward(model, row) for row in rows]
    return [float(g).hex() for g in got] == [w.hex() for w in want]


def _phase_result(phase: Phase, ids, due, sent, cpu_s, probe_ok, frames: Frames,
                  persisted, answered, offset: float) -> PhaseResult:
    response, persist, completions = [], [], []
    failed = bad_rows = bad_answers = 0
    for j, i in enumerate(ids):
        ok_row = len(persisted[i]) == 1
        ok_answer = len(answered[i]) == (1 if frames.triggers[i] else 0)
        bad_rows += not ok_row
        bad_answers += not ok_answer
        failed += not (ok_row and ok_answer)
        persist.append((persisted[i][0] - offset - due[j]) * 1e3 if ok_row else math.inf)
        if frames.triggers[i]:
            response.append((answered[i][0] - due[j]) * 1e3 if ok_answer else math.inf)
        if ok_row and ok_answer:
            completions.append(answered[i][0] if frames.triggers[i]
                               else persisted[i][0] - offset)
    capacity = None
    if phase.rate is None:
        capacity = (len(completions) / (max(completions) - sent[0])
                    if completions else 0.0)
    late = [(s - d) * 1e3 for s, d in zip(sent, due)] if phase.rate else []
    return PhaseResult(phase.name, len(ids), failed, bad_rows, bad_answers, response,
                       persist, late, capacity, cpu_s, probe_ok)


def _report(workload: str, frames: Frames, repeats: list[Repeat]) -> dict:
    phases = [p for r in repeats for p in r.phases]
    problems = {kind: [m for r in repeats for m in r.problems[kind]]
                for kind in ("rows", "answers")}
    late = [v for p in phases for v in p.late_ms]
    late_p50 = percentile(late, 50)
    saturated = [p for p in phases if p.name == "saturate"]

    def over_repeats(phase: str, label: str) -> float | None:
        values = [p.p50(label) for p in phases if p.name == phase]
        return median(values) if None not in values else None

    response, persist = over_repeats("loaded", "response"), over_repeats("loaded", "persist")
    light_response, light_persist = (over_repeats("light", "response"),
                                     over_repeats("light", "persist"))
    push = workload == "push_every_frame"
    cpu_per_phase = [p.cpu_s / p.attempted * 1e6 for p in saturated]
    cpu_us_per_frame = median(cpu_per_phase)
    capacity = median(p.capacity_fps for p in saturated)
    metrics = {
        "setup_s": median(r.setup_s for r in repeats),
        "peak_rss_mb": median(r.final["maxrss_kb"] for r in repeats) / 1024.0,
        "latency_ms": light_response if push else light_persist,
        "cpu_us_per_op": cpu_us_per_frame,
    }
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    layers = {
        **combine_layers([r.final["layers"] for r in repeats if "layers" in r.final]),
        "sut.cpu_us_per_frame": cpu_us_per_frame,
        "sut.threads": median(r.threads for r in repeats),
        "loadgen.late_p50_ms": late_p50,
        "loadgen.late_p99_ms": percentile(late, 99),
        "loadgen.sent": len(frames),
    }
    checks = {
        "every frame persisted exactly once, bit-exact": not problems["rows"] and all(
            p.bad_rows == 0 for p in phases),
        "triggered set equals the rule applied to the frames": not problems["answers"] and all(
            p.bad_answers == 0 for p in phases),
        "post-phase probes equal mlp.forward bit for bit": all(
            p.probe_ok for p in phases) and all(r.warm_probe_ok for r in repeats),
    }
    return {
        "metrics": metrics, "layers": layers, "checks": checks,
        "attempted": attempted, "failed": failed,
        "diagnostics": {
            "valid": late_p50 <= LATE_P50_BOUND_MS,
            "invalid_reason": f"generator lateness p50 {late_p50:.3f} ms > {LATE_P50_BOUND_MS} ms",
            "named_metrics": {
                "light_response_p50_ms": light_response,
                "response_p50_ms": response,
                "persist_p50_ms": persist,
                "light_persist_p50_ms": light_persist,
                "capacity_fps": capacity,
                "failed_frac": failed / attempted,
            },
            "samples": {"latency_ms": [p.p50("response" if push else "persist")
                                       for p in phases if p.name == "light"],
                        "cpu_us_per_op": cpu_per_phase},
            "repeats": [{"setup_s": r.setup_s, "peak_rss_mb": r.final["maxrss_kb"] / 1024.0,
                         "phases": [{"phase": p.name, **p.summary()} for p in r.phases]}
                        for r in repeats],
            "delta_ohm": frames.delta_ohm,
            "expected_triggers": sum(frames.triggers),
            "mismatches": problems["rows"][:5] + problems["answers"][:5],
            "server_errors": [r.final.get("server_errors", {}) for r in repeats],
        },
    }
