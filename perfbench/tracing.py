"""Span recording around the program's public functions, for traced runs only.

``install`` replaces the public functions of each layer module with timing
wrappers; untraced runs never call it, so they run the program unmodified.
Spans stay in memory until ``write`` and ``layer_metrics`` at the end of the
run.  A span is (name, start_ns, end_ns, parent span id, key, status, extra):
the key is ``(node_id, counter)`` for frames and the ``request_id`` for
predict requests, status names an exception the call raised, and extra holds
a small result fact (rows answered, trigger fired, epochs run).
"""

from __future__ import annotations

import csv
import functools
import threading
import time

from common import mean, median, percentile

# ("module[:class]", attribute, span name).  A function the gateway imports by
# name is patched in the gateway's namespace, where its callers look it up.
TARGETS = (
    ("shmlink.adc:AdcEmulator", "read_register", "adc.read_register"),
    ("shmlink.adc:AdcEmulator", "write_register", "adc.write_register"),
    ("shmlink.firmware:NodeFirmware", "run_tick", "firmware.run_tick"),
    ("shmlink.gateway", "decode", "protocol.decode"),
    ("shmlink.gateway", "send_message", "protocol.send_message"),
    ("shmlink.gateway:Gateway", "ingest", "gateway.ingest"),
    ("shmlink.gateway:Gateway", "request_prediction", "gateway.request_prediction"),
    ("shmlink.gateway:CsvAppender", "append", "gateway.persist"),
    ("shmlink.server:InferenceServer", "handle_message", "server.handle_message"),
    ("shmlink.server:InferenceServer", "handle_predict", "server.handle_predict"),
    ("shmlink.mlp", "forward", "mlp.forward"),
    ("shmlink.mlp", "backward", "mlp.backward"),
    ("shmlink.mlp", "train", "mlp.train"),
    ("shmlink.mlp", "grid_search", "mlp.grid_search"),
    ("shmlink.dataset", "parse_mechanical_csv", "dataset.parse"),
    ("shmlink.dataset", "parse_resistance_csv", "dataset.parse"),
    ("shmlink.dataset", "estimate_offset", "dataset.estimate_offset"),
    ("shmlink.dataset", "synchronize", "dataset.synchronize"),
    ("shmlink.dataset", "write_table_csv", "dataset.table_csv"),
    ("shmlink.dataset", "read_table_csv", "dataset.table_csv"),
)


def _facts(name: str, args: tuple, result):
    """(key, extra) recorded for a finished call."""
    if name == "gateway.ingest":
        frame = args[1]
        return (frame.node_id, frame.counter), int(bool(result))
    if name == "protocol.decode":
        return (result.node_id, result.counter), None
    if name == "gateway.request_prediction":
        return args[0]._request_id, len(args[1])
    if name == "server.handle_message":
        if result.get("type") == "predict_ok":
            return result.get("request_id"), len(result["predictions"])
        return result.get("request_id"), result.get("error")
    if name == "adc.read_register":
        return args[1], None
    if name == "firmware.run_tick":
        return result.counter, None
    if name == "mlp.train":
        return None, result[1].epochs_run
    return None, None


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = len(spans)
            spans.append(None)  # reserve the id; list.append is atomic
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            result, status = None, ""
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                status = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                key, extra = _facts(name, args, result) if not status else (None, None)
                spans[span_id] = (name, start, end, parent, key, status, extra)

        return traced

    def install(self) -> None:
        import importlib
        for owner_path, attr, name in TARGETS:
            module_name, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "name", "start_ns", "end_ns", "parent", "key", "status", "extra"])
            for i, span in enumerate(self.spans):
                if span is not None:
                    out.writerow([i, *span])


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer counts and busy time derived from one process's spans.

    Times are means per call unless the name says p50/p99 or the layer runs
    once per run (dataset, grid search), where they are totals.  Self time
    subtracts the direct child spans.  A layer the workload never called
    reports 0.
    """
    ids: dict[str, list[int]] = {}
    child_ns: dict[tuple[int, str], int] = {}
    for i, span in enumerate(spans):
        if span is None:  # still running when the run ended
            continue
        ids.setdefault(span[0], []).append(i)
        if span[3] >= 0:
            key = (span[3], span[0])
            child_ns[key] = child_ns.get(key, 0) + span[2] - span[1]

    def us(i: int) -> float:
        return (spans[i][2] - spans[i][1]) / 1e3

    def durations(name: str) -> list[float]:
        return [us(i) for i in ids.get(name, ())]

    def self_us(name: str, *children: str) -> float:
        return mean(us(i) - sum(child_ns.get((i, c), 0) for c in children) / 1e3
                    for i in ids.get(name, ()))

    def p(name: str, q: float) -> float:
        values = durations(name)
        return percentile(values, q) if values else 0.0

    conversions = sum(1 for i in ids.get("adc.read_register", ()) if spans[i][4] == 0x02)
    adc_us = sum(durations("adc.read_register")) + sum(durations("adc.write_register"))
    frames = len(ids.get("gateway.ingest", ()))
    triggers = sum(spans[i][6] for i in ids.get("gateway.ingest", ()))
    predict_us = {spans[i][4]: us(i) for i in ids.get("gateway.request_prediction", ())}
    handled_us = {spans[i][4]: us(i) for i in ids.get("server.handle_message", ())}
    replies = [spans[i][6] for i in ids.get("server.handle_message", ())]
    epochs = sum(spans[i][6] for i in ids.get("mlp.train", ()))
    under_predict = [us(i) for i in ids.get("protocol.send_message", ())
                     if spans[i][3] >= 0 and spans[spans[i][3]] is not None
                     and spans[spans[i][3]][0] == "gateway.request_prediction"]
    return {
        "adc.conversion_us": adc_us / conversions if conversions else 0.0,
        "adc.conversions": conversions,
        "firmware.run_tick_us": mean(durations("firmware.run_tick")),
        "firmware.self_us": self_us("firmware.run_tick", "adc.read_register",
                                    "adc.write_register"),
        "firmware.ticks": len(ids.get("firmware.run_tick", ())),
        "protocol.decode_us": mean(durations("protocol.decode")),
        "protocol.decode_errors": sum(1 for i in ids.get("protocol.decode", ()) if spans[i][5]),
        "protocol.send_message_us": mean(under_predict),
        "gateway.frames": frames,
        "gateway.triggers": triggers,
        "gateway.trigger_ratio": triggers / frames if frames else 0.0,
        "gateway.ingest_us_p50": p("gateway.ingest", 50),
        "gateway.ingest_us_p99": p("gateway.ingest", 99),
        "gateway.ingest_self_us": self_us("gateway.ingest", "gateway.persist",
                                          "gateway.request_prediction"),
        "gateway.persist_us": mean(durations("gateway.persist")),
        "gateway.request_prediction_us_p50": p("gateway.request_prediction", 50),
        "gateway.request_prediction_us_p99": p("gateway.request_prediction", 99),
        "server.handle_message_us_p50": p("server.handle_message", 50),
        "server.handle_message_us_p99": p("server.handle_message", 99),
        "server.handle_predict_us": mean(durations("server.handle_predict")),
        "server.wait_us": mean(predict_us[k] - handled_us[k]
                               for k in predict_us if k in handled_us),
        "server.rows_per_call": mean(r for r in replies if isinstance(r, int)),
        "server.errors": sum(1 for r in replies if isinstance(r, str)),
        "mlp.forward_us": mean(durations("mlp.forward")),
        "mlp.backward_us": mean(durations("mlp.backward")),
        "mlp.epoch_ms": sum(durations("mlp.train")) / 1e3 / epochs if epochs else 0.0,
        "mlp.epochs": epochs,
        "mlp.grid_search_s": sum(durations("mlp.grid_search")) / 1e6,
        "dataset.parse_ms": sum(durations("dataset.parse")) / 1e3,
        "dataset.estimate_offset_ms": sum(durations("dataset.estimate_offset")) / 1e3,
        "dataset.synchronize_ms": sum(durations("dataset.synchronize")) / 1e3,
        "dataset.table_csv_ms": sum(durations("dataset.table_csv")) / 1e3,
    }


def server_errors_by_code(spans: list) -> dict[str, int]:
    counts: dict[str, int] = {}
    for span in spans:
        if span is not None and span[0] == "server.handle_message" and isinstance(span[6], str):
            counts[span[6]] = counts.get(span[6], 0) + 1
    return counts


COUNTS = ("adc.conversions", "firmware.ticks", "protocol.decode_errors", "gateway.frames",
          "gateway.triggers", "server.errors", "mlp.epochs")


def combine_layers(per_process: list[dict]) -> dict:
    """Counts add up over the processes of a run; the rest is their median."""
    if not per_process:
        return {}
    combined = {name: median(p[name] for p in per_process) for name in per_process[0]}
    for name in COUNTS:
        combined[name] = sum(p[name] for p in per_process)
    frames = combined["gateway.frames"]
    combined["gateway.trigger_ratio"] = combined["gateway.triggers"] / frames if frames else 0.0
    return combined
