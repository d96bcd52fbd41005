"""Desk-scale wireless structural-health-monitoring stack.

An emulated sensor node samples resistive strain sensors through a 24-bit
sigma-delta converter model, streams framed telemetry over a simulated or TCP
link to a gateway, which persists the time series and pushes triggered
frames to an inference service hosting a 3-layer strain regressor.  A bench
harness measures the trigger-to-response latency of that push topology
against a legacy periodic-scan poll baseline that lives only in the bench.
"""

__version__ = "0.1.0"

from .adc import (
    AdcEmulator,
    ChannelInput,
    SensorModel,
    code_to_resistance,
    resistance_to_code,
)
from .dataset import (
    AlignedRecord,
    MechanicalSample,
    ResistanceSample,
    estimate_offset,
    parse_mechanical_csv,
    parse_resistance_csv,
    read_table_csv,
    split_chronological,
    synchronize,
    write_table_csv,
)
from .firmware import CHANNEL_PLAN, INIT_SEQUENCE, NodeFirmware
from .gateway import Gateway, GatewayConfig, TriggerRule, latency_summary
from .mlp import (
    HyperGrid,
    MlpModel,
    TrainConfig,
    TrainData,
    TrainReport,
    evaluate,
    fit_normalizer,
    forward,
    grid_search,
    load_model,
    save_model,
    train,
)
from .protocol import LinkConfig, TelemetryFrame, decode, encode, link_send
from .server import InferenceServer, ServerConfig

__all__ = [
    "AdcEmulator", "ChannelInput", "SensorModel",
    "code_to_resistance", "resistance_to_code",
    "AlignedRecord", "MechanicalSample", "ResistanceSample",
    "estimate_offset", "parse_mechanical_csv", "parse_resistance_csv",
    "read_table_csv", "split_chronological", "synchronize", "write_table_csv",
    "CHANNEL_PLAN", "INIT_SEQUENCE", "NodeFirmware",
    "Gateway", "GatewayConfig", "TriggerRule", "latency_summary",
    "HyperGrid", "MlpModel", "TrainConfig", "TrainData", "TrainReport",
    "evaluate", "fit_normalizer", "forward", "grid_search", "load_model",
    "save_model", "train",
    "LinkConfig", "TelemetryFrame", "decode", "encode", "link_send",
    "InferenceServer", "ServerConfig",
]
