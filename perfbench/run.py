"""Benchmark entry point: one command for every workload, end to end or traced.

    python3 perfbench/run.py --workload push_every_frame --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from the root of a source checkout; the program is imported from its
``src/``.  Human-readable lines and diagnostics come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``).  A traced run first repeats the
workload untraced, to state the tracing overhead.  Exit status: 0 when every
output check passed, 1 when one failed (the result line is still printed),
2 when the benchmark cannot run, 3 when the load generator fell too far
behind for the run to be valid (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

from common import OUT_DIR, ROOT, BenchError, use_checkout_source

WORKLOADS = ("push_every_frame", "ingest_quiet", "calibrate")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    spans_path = OUT_DIR / f"spans-{name}.csv"
    try:
        if name == "calibrate":
            import calibrate
            return calibrate.run(seed, seconds, trace, workdir, spans_path)
        import online
        return online.run(name, seed, seconds, trace, workdir, spans_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(),
            "source_sha256": source.hexdigest()}


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One workload's result: metrics named as in BENCHMARK.json, plus checks."""
    untraced = run_workload(name, seed, seconds, trace=False)
    if not trace:
        return {"metrics": untraced["metrics"], "checks": untraced["checks"],
                "attempted": untraced["attempted"], "failed": untraced["failed"],
                "diagnostics": untraced["diagnostics"], "units": spec["end_to_end"]}
    traced = run_workload(name, seed, seconds, trace=True)
    layers = {metric: 0 for metric in spec["per_layer"]}
    layers.update(traced["layers"])
    base, slow = untraced["metrics"]["latency_ms"], traced["metrics"]["latency_ms"]
    layers["trace.overhead_pct"] = (slow / base - 1.0) * 100.0
    checks = {**untraced["checks"], **{f"traced: {k}": v for k, v in traced["checks"].items()}}
    diagnostics = {"untraced_metrics": untraced["metrics"],
                   "traced_metrics": traced["metrics"], **traced["diagnostics"]}
    return {"metrics": layers, "checks": checks, "diagnostics": diagnostics,
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"], "units": spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_source()
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = {"end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]}}
    print(json.dumps({"provenance": provenance(args.seed)}))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = result = measure(name, args.seed, args.seconds, bool(args.trace),
                                             spec)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        for metric, unit in result["units"].items():
            print(f"{name:17s} {metric:36s} {result['metrics'][metric]:>14.6g} {unit}")
        for metric, value in result["diagnostics"].get("named_metrics", {}).items():
            if value is not None:
                print(f"{name:17s} {metric:36s} {value:>14.6g}  (diagnostic)")
        for check, ok in result["checks"].items():
            print(f"{name:17s} check {'ok  ' if ok else 'FAIL'} {check}")
        print(json.dumps({"workload": name, "diagnostics": result["diagnostics"]}))
        if not result["diagnostics"].get("valid", True):
            print(f"error: {name}: run invalid: {result['diagnostics']['invalid_reason']}",
                  file=sys.stderr)
            return 3

    correct = all(all(r["checks"].values()) for r in results.values())
    if len(names) == 1:
        only = results[names[0]]
        metrics = {m: {"value": only["metrics"][m], "unit": u} for m, u in only["units"].items()}
    else:
        metrics = {f"{n}.{m}": {"value": r["metrics"][m], "unit": u}
                   for n, r in results.items() for m, u in r["units"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
