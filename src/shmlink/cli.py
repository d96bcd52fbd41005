"""Operator entry point: node simulation, training, benchmarks, dataset tools.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error.  Every
randomized command accepts --seed and is bit-reproducible under it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import bench as bench_mod
from . import dataset as ds
from . import mlp
from .firmware import CHANNEL_COUNTS, DEFAULT_TICK_PERIOD
from .protocol import parse_endpoint

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ds.DatasetError, mlp.MlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shmlink",
        description="Structural-health-monitoring stack: emulated nodes, "
                    "training, synchronization, and latency benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    node = sub.add_parser("simulate-node", help="run an emulated sensor node streaming frames")
    node.add_argument("--channels", type=int, choices=CHANNEL_COUNTS, default=8)
    node.add_argument("--tick", type=_seconds, default=DEFAULT_TICK_PERIOD,
                      help="tick period, seconds")
    node.add_argument("--profile", default="fixture",
                      help="fixture | replay:FILE | ramp")
    node.add_argument("--connect", type=_endpoint, required=True, metavar="HOST:PORT")
    node.add_argument("--seed", type=_non_negative_int, default=0)
    node.add_argument("--noise", type=_number(float, lambda v: 0 <= v < float("inf"), ">= 0"),
                      default=0.0, help="resistance noise std, ohm")
    node.add_argument("--frames", type=_non_negative_int, default=0,
                      help="stop after N frames (0 = until interrupted)")
    node.add_argument("--node-id", type=_number(int, lambda v: 0 <= v <= 0xFFFF, "in [0, 65535]"),
                      default=0)
    node.set_defaults(func=cmd_simulate_node)

    train = sub.add_parser("train", help="grid-search the strain regressor on a dataset")
    train.add_argument("--data", required=True, metavar="FILE")
    train.add_argument("--grid", metavar="FILE", help="JSON hyperparameter grid")
    train.add_argument("--out", required=True, metavar="MODEL")
    train.add_argument("--seed", type=_non_negative_int, default=0)
    train.add_argument("--train-fraction", type=_number(float, lambda v: 0 < v < 1, "in (0, 1)"),
                       default=0.8)
    train.set_defaults(func=cmd_train)

    lat = sub.add_parser("bench-latency", help="push-vs-poll trigger-to-response benchmark")
    lat.add_argument("--mode", choices=("push", "poll"), required=True)
    lat.add_argument("--poll-interval", type=_seconds, default=5.0)
    lat.add_argument("--frames", type=_number(int), default=200)
    lat.add_argument("--tick", type=_seconds, default=None,
                     help=f"node tick period (default {bench_mod.DEFAULT_PUSH_TICK} push"
                          f" / {bench_mod.DEFAULT_POLL_TICK} poll)")
    lat.add_argument("--channels", type=int, choices=CHANNEL_COUNTS, default=2)
    lat.add_argument("--seed", type=_non_negative_int, default=0)
    lat.add_argument("--out", required=True, metavar="REPORT")
    lat.set_defaults(func=cmd_bench_latency)

    sync = sub.add_parser("sync", help="synchronize mechanical-test and resistance logs")
    sync.add_argument("--mech", required=True, metavar="FILE")
    sync.add_argument("--res", required=True, metavar="FILE")
    sync.add_argument("--offset", type=float, default=None,
                      help="clock offset, seconds (estimated when omitted)")
    sync.add_argument("--out", required=True, metavar="FILE")
    sync.set_defaults(func=cmd_sync)
    return parser


def _number(cast=float, ok=lambda v: 0 < v < float("inf"), expected="> 0"):
    """An argparse type: ``cast(text)``, a usage error unless ``ok`` (default: > 0, finite)."""
    def number(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return value
    return number


_non_negative_int = _number(int, lambda v: v >= 0, ">= 0")
_seconds = _number(float, lambda v: 0 < v <= bench_mod.MAX_WAIT,
                   f"in (0, {bench_mod.MAX_WAIT:.0f}]")


def _endpoint(text: str) -> tuple[str, int]:
    """An argparse type: ``protocol.parse_endpoint``, whose message says what is expected."""
    try:
        return parse_endpoint(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# -- simulate-node ------------------------------------------------------------------


def _profile_resistances(profile: str, channels: int):
    """Per-tick resistance vectors for ``run_node``, validated eagerly; None keeps the fixture."""
    if profile == "fixture":
        return None
    if profile == "ramp":  # each tick 0.5 ohm above the last
        base = bench_mod.FIXTURE_RESISTANCES[:channels]
        return (tuple(r + 0.5 * tick for r in base) for tick in itertools.count())
    if profile.startswith("replay:"):
        path = Path(profile.split(":", 1)[1])
        try:
            records = ds.read_table_csv(path.read_text(encoding="utf-8"))
        except (OSError, ds.DatasetError) as exc:
            raise UsageError(f"replay file {path}: {exc}") from exc
        if not records:
            raise UsageError(f"replay file {path} has no rows")
        if len(records[0].resistances) < channels:
            raise UsageError(f"replay file has {len(records[0].resistances)} channels, "
                             f"need {channels}")
        replay = [rec.resistances[:channels] for rec in records]
        for row, cells in enumerate(replay, 1):
            if not all(map(math.isfinite, cells)):
                raise UsageError(f"replay file {path}: data row {row} holds a resistance "
                                 f"that is not finite")
        return iter(replay)
    raise UsageError(f"unknown profile {profile!r}")


def cmd_simulate_node(args) -> int:
    profile = _profile_resistances(args.profile, args.channels)
    try:
        sent = bench_mod.run_node(args.connect, args.channels, args.tick, seed=args.seed,
                                  noise=args.noise, node_id=args.node_id,
                                  resistances=profile, frames=args.frames or None)
    except OSError as exc:
        print("error: node link to %s:%d: %s" % (*args.connect, exc), file=sys.stderr)
        return EXIT_RUNTIME
    print(f"streamed {sent} frames", file=sys.stderr)
    return EXIT_OK


# -- train --------------------------------------------------------------------------


def _load_grid(path: str | None) -> mlp.HyperGrid:
    if path is None:
        return mlp.HyperGrid()
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        # keys left out keep HyperGrid's defaults; an unknown key is a TypeError
        return mlp.HyperGrid(**{key: tuple(value) if isinstance(value, list) else value
                                for key, value in doc.items()})
    except (OSError, ValueError, TypeError) as exc:
        raise UsageError(f"grid file {path}: {exc}") from exc


def cmd_train(args) -> int:
    try:
        records = ds.read_table_csv(Path(args.data).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"data file: {exc}") from exc
    data = mlp.TrainData.from_records(records, train_fraction=args.train_fraction)
    grid = _load_grid(args.grid)

    config, model, report = mlp.grid_search(data, grid, seed=args.seed)
    mlp.save_model(model, args.out)
    report_path = Path(args.out).with_suffix(".report.json")
    ds.write_atomic(report_path, json.dumps(asdict(report), indent=1) + "\n")
    print(f"selected width={config.hidden_width} rate={config.learning_rate} "
          f"batch={config.batch_size}")
    print(f"test MSE {report.test_mse:.6g}  test MAE {report.test_mae:.6g}")
    print(f"model -> {args.out}\nreport -> {report_path}")
    return EXIT_OK


# -- bench-latency -------------------------------------------------------------------


def cmd_bench_latency(args) -> int:
    report = bench_mod.run_bench(mode=args.mode, frames=args.frames, tick=args.tick,
                                 poll_interval=args.poll_interval,
                                 channels=args.channels, seed=args.seed)
    ds.write_atomic(args.out, json.dumps(report, indent=1) + "\n")
    print(f"{args.mode}: mean {report['mean']:.4f}s  p50 {report['p50']:.4f}s  "
          f"p95 {report['p95']:.4f}s  max {report['max']:.4f}s over {args.frames} triggers")
    print(f"report -> {args.out}")
    return EXIT_OK


# -- sync ----------------------------------------------------------------------------


def cmd_sync(args) -> int:
    try:
        mech = ds.parse_mechanical_csv(Path(args.mech).read_text(encoding="utf-8"))
        res = ds.parse_resistance_csv(Path(args.res).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    offset = args.offset
    if offset is None:
        offset = ds.estimate_offset(mech, res)
        print(f"estimated offset: {offset:.3f} s")
    records = ds.synchronize(mech, res, offset)
    ds.write_atomic(args.out, ds.write_table_csv(records))
    print(f"{len(records)} aligned records -> {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
