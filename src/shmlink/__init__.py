"""Desk-scale wireless structural-health-monitoring stack.

An emulated sensor node samples resistive strain sensors through a 24-bit
sigma-delta converter model, streams framed telemetry over a simulated or TCP
link to a gateway, which persists the time series and pushes triggered
frames to an inference service hosting a 3-layer strain regressor.  A bench
harness measures the trigger-to-response latency of that push topology
against a legacy periodic-scan poll baseline that lives only in the bench.

Each name is imported from the module that defines it (``shmlink.adc``,
``shmlink.gateway``, ``shmlink.mlp``, ...); the package itself exports nothing.
"""
