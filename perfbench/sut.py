"""System under test for the online workloads: one process, as ``run_bench`` builds it.

Holds an ``InferenceServer`` and a push-mode ``Gateway`` (telemetry CSV and
latency log on) with ``serve_nodes`` accepting node connections.  It prints
one ready line, then answers JSON-line commands from the benchmark on stdin:

    mark   process CPU seconds, thread count, peak RSS
    probe  ``Gateway.request_prediction`` on the given rows
    quit   stop everything; in a traced run also write the spans

Usage: sut.py WORKDIR MODEL_PATH TRIGGER TRACE SPANS_PATH, where TRIGGER is
``every`` or a ``delta_ohm`` value.
"""

from __future__ import annotations

import resource
import sys
import threading
import time

from common import child_main, emit, use_checkout_source


def process_stats() -> dict:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "threads": threading.active_count(),
            "maxrss_kb": usage.ru_maxrss, "t": time.perf_counter()}


def main(workdir: str, model_path: str, trigger: str, trace: str, spans_path: str) -> None:
    use_checkout_source()
    recorder = None
    if trace == "1":
        import tracing
        recorder = tracing.Recorder()
        recorder.install()
    from shmlink.gateway import Gateway, GatewayConfig, TriggerRule, node_listener, serve_nodes
    from shmlink.server import InferenceServer, ServerConfig

    server = InferenceServer(ServerConfig(host="127.0.0.1", port=0,
                                          model_files={"default": model_path}))
    server.start()
    host, port = server.address
    listener = node_listener("127.0.0.1", 0)
    rule = (TriggerRule(every_frame=True) if trigger == "every"
            else TriggerRule(every_frame=False, delta_ohm=float(trigger)))
    gateway = Gateway(GatewayConfig(
        node_endpoints=["%s:%d" % listener.getsockname()],
        server_endpoint=f"{host}:{port}", mode="push",
        persistence_path=f"{workdir}/telemetry.csv", trigger=rule,
        latency_log_path=f"{workdir}/latency.csv"))
    stop = threading.Event()
    nodes = threading.Thread(target=serve_nodes, args=(listener, gateway, stop),
                             name="sut-nodes")
    nodes.start()
    emit({"ready": True, "node_port": listener.getsockname()[1]})

    def handle(command: dict) -> dict:
        if command["cmd"] == "mark":
            return process_stats()
        if command["cmd"] == "probe":
            return {"predictions": gateway.request_prediction(command["rows"])}
        stop.set()
        nodes.join(timeout=10)
        listener.close()
        gateway.close()
        server.stop()
        final = process_stats()
        final["quit"] = True
        if recorder is not None:
            import tracing
            recorder.write(spans_path)
            final["layers"] = tracing.layer_metrics(recorder.spans)
            final["server_errors"] = tracing.server_errors_by_code(recorder.spans)
        return final

    child_main(handle)


if __name__ == "__main__":
    main(*sys.argv[1:6])
