"""Helpers shared by the benchmark entry point and its child processes.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` of that checkout, never from an installed copy.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"


class BenchError(Exception):
    """The benchmark cannot run or produced an invalid measurement."""


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or fail."""
    if not (SRC / "shmlink" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'shmlink'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


USABLE_CPUS = sorted(os.sched_getaffinity(0))
PROBE_LOOPS = 4000           # about 1 ms of interpreter work at full speed


def _probe_seconds() -> float:
    started = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(PROBE_LOOPS):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3 // 7
        str(i).encode()
    return time.perf_counter() - started


def fastest_cpu() -> int | None:
    """The usable CPU that runs a short fixed loop fastest now; None with one CPU.

    On the shared host this was tuned on, each virtual CPU ran either at full
    speed or about half of it, for one to twenty seconds at a time, and the
    two CPUs did so independently.  The Linux scheduler cannot see this, so
    before each timed sample the benchmark probes every usable CPU from the
    calling thread (1-2 ms each, outside every figure) and places the
    process under test on the fastest.  The calling thread's affinity is
    restored.
    """
    if len(USABLE_CPUS) < 2:
        return None
    before = os.sched_getaffinity(0)
    timings = []
    try:
        for cpu in USABLE_CPUS:
            os.sched_setaffinity(0, {cpu})
            timings.append((min(_probe_seconds() for _ in range(2)), cpu))
    finally:
        os.sched_setaffinity(0, before)
    return min(timings)[1]


def other_cpu(cpu: int) -> int:
    """A usable CPU other than ``cpu`` (for the load generator)."""
    return next(c for c in USABLE_CPUS if c != cpu)


def pin(pid: int, cpu: int) -> None:
    """Move every thread of process ``pid`` onto ``cpu``."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:  # the thread ended meanwhile
            pass


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed operations) sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def emit(doc: dict) -> None:
    """One JSON document per line on stdout (the parent reads these)."""
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


class Child:
    """A benchmark child process speaking JSON lines on stdin/stdout.

    The child starts on the CPU ``fastest_cpu`` picks, it and every thread
    it starts.  It prints one line when it is ready; ``spawn_seconds`` is the
    wall time from starting it until that line arrived.
    """

    def __init__(self, script: str, args: list[str], ready_timeout: float = 60.0):
        cpu = fastest_cpu()
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT),
            preexec_fn=None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu})))
        self._buf = b""
        try:
            self.ready = self.read(ready_timeout)
        except BaseException:
            self.kill()
            raise
        self.spawn_seconds = time.perf_counter() - started

    def read(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"child {self.proc.args[1]} silent for {timeout:.0f} s")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise BenchError(f"child {self.proc.args[1]} exited "
                                     f"with code {self.proc.wait()}")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        doc = json.loads(line)
        if "error" in doc:
            raise BenchError(f"child {self.proc.args[1]}: {doc['error']}")
        return doc

    def call(self, command: dict, timeout: float = 60.0) -> dict:
        self.proc.stdin.write((json.dumps(command) + "\n").encode())
        self.proc.stdin.flush()
        return self.read(timeout)

    def finish(self, timeout: float = 30.0) -> dict:
        """Ask the child to quit; returns its last document and reaps it."""
        try:
            reply = self.call({"cmd": "quit"}, timeout)
            self.proc.wait(timeout=timeout)
            return reply
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


def child_main(handler) -> None:
    """Child side of :class:`Child`: run ``handler(command)`` per stdin line.

    ``handler`` returns the reply document; a reply containing ``"quit"``
    ends the loop.  Failures are reported as an ``error`` document.
    """
    for line in sys.stdin:
        try:
            reply = handler(json.loads(line))
        except Exception as exc:  # report to the parent, which fails the run
            import traceback
            traceback.print_exc()
            emit({"error": f"{type(exc).__name__}: {exc}"})
            return
        emit(reply)
        if reply.get("quit"):
            return
