"""Deterministic synthetic telemetry for training, benchmarks, and tests.

Real coupon data is not distributable, so acceptance-scale experiments run on
generated load cycles: a latent strain path drives per-channel resistances
through a smooth response, and the regression target is the standardized
latent (zero mean, unit variance) with configurable relative noise, matching
the magnitudes the regressor is expected to handle.
"""

from __future__ import annotations

import numpy as np

from .dataset import AlignedRecord, MechanicalSample, ResistanceSample

# Nominal channel resistances (ohm), test-fixture style values.
BASE_RESISTANCES = (51.0, 43.0, 100.0, 98.0, 120.0, 121.0, 119.0, 122.0)

LOAD_CYCLES = 6.0       # load-unload cycles per strain_records series
SAMPLE_INTERVAL = 0.1   # seconds between strain_records rows

# Fixed broadband tones (amplitude, hertz, phase) giving the offset-pair
# latent its fine structure; frequencies stay under the 5 Hz Nyquist of the
# default 0.1 s sampling.
_DETAIL_RNG = np.random.default_rng(20240916)
_DETAIL_TONES = tuple(
    (0.12 / np.sqrt(f), f, p)
    for f, p in zip(np.exp(_DETAIL_RNG.uniform(np.log(0.3), np.log(3.5), 24)),
                    _DETAIL_RNG.uniform(0.0, 2 * np.pi, 24)))


def load_cycle_strain(t: np.ndarray) -> np.ndarray:
    """LOAD_CYCLES load-unload cycles of latent strain over the span of ``t``, range [0, 1]."""
    span = t[-1] - t[0] if t.size > 1 else 1.0
    period = span / LOAD_CYCLES
    phase = 2 * np.pi * (t - t[0]) / period
    return 0.5 * (1.0 - np.cos(phase)) * (1.0 + 0.1 * np.sin(0.37 * phase))


def strain_records(n: int = 2400, channels: int = 2, noise: float = 0.01,
                   seed: int = 0) -> list[AlignedRecord]:
    """Aligned records SAMPLE_INTERVAL apart: standardized-strain target, resistance features.

    Resistances respond smoothly (mildly nonlinear) to the latent strain;
    ``noise`` is the target noise std relative to the unit target std.
    Raises ValueError when every sample falls on a load-cycle start (``n`` of
    at most 4, or 7), where the latent does not vary and has no standard form.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n) * SAMPLE_INTERVAL
    latent = load_cycle_strain(t) if n else t
    spread = latent.std() if n else 0.0
    if not spread > 0.0:
        raise ValueError(f"{n} samples span no strain variation; the target cannot be "
                         "standardized")
    target = (latent - latent.mean()) / spread
    target = target + rng.normal(0.0, noise, n)

    base = np.array(BASE_RESISTANCES[:channels])
    gauge = 0.015 * base          # relative response per unit latent strain
    curve = 0.2 * gauge           # mild quadratic term
    feature_noise = 1e-4 * base
    resist = (base + np.outer(latent, gauge) + np.outer(latent**2, curve)
              + rng.normal(0.0, 1.0, (n, channels)) * feature_noise)

    return [AlignedRecord(time=float(ti), strain=float(yi), t=float(ti),
                          resistances=tuple(float(v) for v in row))
            for ti, yi, row in zip(t, target, resist)]


def offset_pair(offset: float, n: int = 3000, channels: int = 2,
                noise_frac: float = 0.0, seed: int = 0,
                mech_interval: float = 0.1, res_interval: float = 0.1,
                ) -> tuple[list[MechanicalSample], list[ResistanceSample]]:
    """Mechanical/resistance series of the same physical event on shifted clocks.

    Both instruments observe the same latent strain; the resistance recorder's
    clock reads ``time + offset``.  ``noise_frac`` scales additive noise by
    each signal's own std, for recovery-robustness tests.
    """
    rng = np.random.default_rng(seed)
    span = n * mech_interval
    mech_t = np.arange(0.0, span, mech_interval)
    res_t = np.arange(0.0, span, res_interval) + offset

    def latent(physical_t: np.ndarray) -> np.ndarray:
        # growing-amplitude load cycles on a ramp (aperiodic, so the
        # cross-correlation peak is unambiguous) plus fixed broadband detail
        # (so the peak is sharp at the sampling scale)
        u = physical_t / span
        cycles = 0.5 * u * (1 - np.cos(2 * np.pi * 5 * u))
        detail = sum(a * np.sin(2 * np.pi * f * physical_t + p) for a, f, p in _DETAIL_TONES)
        return 0.004 * (u + cycles + 0.2 * np.sin(2 * np.pi * 1.7 * u + 0.4) + detail)

    strain = latent(mech_t)
    strain = strain + rng.normal(0.0, noise_frac * strain.std(), strain.size)
    mech = [MechanicalSample(time=float(t), strain=float(s)) for t, s in zip(mech_t, strain)]

    base = np.array(BASE_RESISTANCES[:channels])
    response = latent(res_t - offset)
    rows = base * (1.0 + 4.0 * response[:, None])
    rows = rows + rng.normal(0.0, 1.0, rows.shape) * (noise_frac * 4.0 * base * latent(mech_t).std())
    res = [ResistanceSample(t=float(t), resistances=tuple(float(v) for v in row))
           for t, row in zip(res_t, rows)]
    return mech, res
