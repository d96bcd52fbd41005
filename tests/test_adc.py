"""Converter emulation: register semantics, quantization, sinc3 filtering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmlink.adc import (
    DATA,
    DECIMATION,
    IO_CONTROL_1,
    MODULATOR_RATE,
    OUTPUT_RATE,
    STATUS,
    AdcEmulator,
    ChannelInput,
    ChannelNotArmed,
    CodeOutOfRange,
    DataNotReady,
    ExcitationOff,
    ReadOnlyRegister,
    SensorModel,
    UnknownRegister,
    code_to_resistance,
    resistance_to_code,
    sinc3_kernel,
)

HALF_LSB = 0.5 * 2.5 / 16777216 / 0.001  # ~7.4506e-5 ohm


def armed_emulator(channel_inputs=None, seed=None) -> AdcEmulator:
    sensors = SensorModel(channels=channel_inputs) if channel_inputs else SensorModel()
    emu = AdcEmulator(sensors, seed=seed)
    emu.write_register(IO_CONTROL_1, 0x003811)
    emu.write_register(0x09, 0x8011)
    return emu


# -- conversion arithmetic ----------------------------------------------------------


@pytest.mark.parametrize("r,code", [
    (0.0, 0),
    (47.0, 315412),       # round(0.047 / 2.5 * 2^24)
    (50.988, 342175),     # round(0.050988 / 2.5 * 2^24)
    (100.0, 671089),
    (120.0, 805306),
])
def test_resistance_to_code_pinned(r, code):
    assert resistance_to_code(r) == code


@pytest.mark.parametrize("code,r", [
    (0, 0.0),
    (805306, 119.9999451637268),    # 805306 * 2.5 / 16777216 / 0.001
    (315412, 47.00005054473877),
])
def test_code_to_resistance_pinned(code, r):
    assert code_to_resistance(code) == r


def test_code_out_of_range():
    with pytest.raises(CodeOutOfRange):
        code_to_resistance(1 << 24)
    with pytest.raises(CodeOutOfRange):
        code_to_resistance(-1)


def test_clamping_never_fails():
    assert resistance_to_code(-5.0) == 0
    assert resistance_to_code(1e9) == (1 << 24) - 1
    assert resistance_to_code(2500.0) == (1 << 24) - 1  # full scale saturates


def test_infinite_resistance_saturates():
    assert resistance_to_code(math.inf) == (1 << 24) - 1  # an open wire reads full scale
    assert resistance_to_code(-math.inf) == 0


def test_nan_resistance_is_refused():
    with pytest.raises(ValueError, match="NaN"):
        resistance_to_code(math.nan)


def test_nan_noise_std_is_refused():
    with pytest.raises(ValueError):
        ChannelInput(resistance=100.0, noise_std=math.nan)


def test_round_trip_bound():
    rng = np.random.default_rng(7)
    worst = 0.0
    for r in rng.uniform(0.0, 2500.0, 10_000):
        worst = max(worst, abs(code_to_resistance(resistance_to_code(r)) - r))
    assert worst <= 7.4506e-5


@given(st.floats(min_value=0.0, max_value=2499.9), st.floats(min_value=0.0, max_value=2499.9))
def test_monotonicity(r1, r2):
    lo, hi = sorted((r1, r2))
    assert resistance_to_code(lo) <= resistance_to_code(hi)


# -- register file ------------------------------------------------------------------


def test_reset_state():
    emu = armed_emulator()
    emu.reset()
    assert emu.read_register(DATA) == 0          # cleared DATA stays readable
    assert emu.rdy == 1                          # but nothing converted yet
    assert emu.read_register(0x19) == 0          # prior writes cleared


def test_reset_clears_prior_writes():
    emu = AdcEmulator()
    emu.write_register(0x19, 0x0070)
    emu.reset()
    assert emu.read_register(0x19) == 0


def test_write_read_back():
    emu = AdcEmulator()
    emu.write_register(0x09, 0x0011)
    assert emu.read_register(0x09) == 0x0011
    emu.write_register(IO_CONTROL_1, 0x003811)
    assert emu.read_register(IO_CONTROL_1) == 0x003811


def test_data_not_writable():
    emu = AdcEmulator()
    with pytest.raises(ReadOnlyRegister):
        emu.write_register(DATA, 5)
    with pytest.raises(ReadOnlyRegister):
        emu.write_register(STATUS, 1)


def test_unknown_register():
    emu = AdcEmulator()
    with pytest.raises(UnknownRegister):
        emu.read_register(0xFF)
    with pytest.raises(UnknownRegister):
        emu.write_register(0x55, 1)


def test_value_exceeding_24_bits_rejected():
    emu = AdcEmulator()
    with pytest.raises(ValueError):
        emu.write_register(0x09, 1 << 24)


def test_data_read_mid_conversion_raises():
    emu = armed_emulator()
    with pytest.raises(DataNotReady):
        emu.read_register(DATA)


def test_status_polling_completes_conversion():
    emu = armed_emulator([ChannelInput(resistance=120.0)] + [ChannelInput()] * 7)
    polls = 0
    while emu.read_register(STATUS) & 0x80:
        polls += 1
        assert polls < 100
    assert emu.read_register(DATA) == 805306
    assert emu.rdy == 0


def test_sample_channel_pinned():
    emu = armed_emulator([ChannelInput(resistance=100.0)] + [ChannelInput()] * 7)
    assert emu.sample_channel(0, now=0.0) == 671089
    assert emu.read_register(DATA) == 671089


def test_zero_resistance_reads_zero():
    emu = armed_emulator()
    assert emu.sample_channel(0, now=0.0) == 0


def test_channel_not_armed():
    emu = AdcEmulator()
    emu.write_register(IO_CONTROL_1, 0x003811)
    with pytest.raises(ChannelNotArmed):
        emu.sample_channel(0, now=0.0)


def test_excitation_off():
    emu = AdcEmulator()
    emu.write_register(IO_CONTROL_1, 0x000011)  # channel routing set, current off
    emu.write_register(0x09, 0x8011)
    with pytest.raises(ExcitationOff):
        emu.sample_channel(0, now=0.0)


def test_disarm_cancels_pending():
    emu = armed_emulator()
    emu.write_register(0x09, 0x0011)
    assert emu.read_register(DATA) == 0  # no longer in flight


# -- sinc3 filter --------------------------------------------------------------------


def sinc3_magnitude(f, fs, n):
    """Independent statement of the triple-boxcar response for cross-checks."""
    if f == 0:
        return 1.0
    return abs(math.sin(math.pi * f * n / fs) / (n * math.sin(math.pi * f / fs))) ** 3


def test_default_output_rate_is_10_hz():
    assert OUTPUT_RATE == 10.0


def test_dc_gain_unity():
    assert abs(sinc3_kernel().sum() - 1.0) <= 1e-9


def measured_interference_deviation(freq, amplitude=10.0, phases=16):
    """Max |R_out - R_true| across conversion phases for a pure interferer."""
    inputs = [ChannelInput(resistance=100.0, interference_amplitude=amplitude,
                           interference_freq=freq)] + [ChannelInput()] * 7
    worst = 0.0
    emu = armed_emulator(inputs)
    for i in range(phases):
        emu.write_register(0x09, 0x8011)  # re-arm
        code = emu.sample_channel(0, now=i / (freq * phases) + 0.37)
        worst = max(worst, abs(code_to_resistance(code) - 100.0))
    return worst


@pytest.mark.parametrize("freq", [50.0, 60.0])
def test_mains_nulls(freq):
    deviation = measured_interference_deviation(freq)
    attenuation_db = 20 * math.log10(10.0 / max(deviation, HALF_LSB))
    assert attenuation_db >= 60.0


def test_off_null_interference_matches_formula():
    freq = 23.0
    expected = 10.0 * sinc3_magnitude(freq, MODULATOR_RATE, DECIMATION)
    measured = measured_interference_deviation(freq, phases=32)
    assert measured == pytest.approx(expected, rel=0.05, abs=2 * HALF_LSB)


def test_filtered_constant_input_within_half_lsb():
    for r in (47.0, 50.988, 119.3, 2401.5):
        inputs = [ChannelInput(resistance=r)] + [ChannelInput()] * 7
        emu = armed_emulator(inputs)
        code = emu.sample_channel(0, now=0.0)
        assert abs(code_to_resistance(code) - r) <= 7.4506e-5


# -- determinism ------------------------------------------------------------------------


def test_seeded_noise_is_deterministic():
    def run(seed):
        inputs = [ChannelInput(resistance=100.0, noise_std=0.5)] + [ChannelInput()] * 7
        emu = armed_emulator(inputs, seed=seed)
        codes = []
        for i in range(5):
            emu.write_register(0x09, 0x8011)
            codes.append(emu.sample_channel(0, now=float(i)))
        return codes

    assert run(42) == run(42)
    assert run(42) != run(43)


@pytest.mark.parametrize("disturbance,codes", [
    ({"noise_std": 0.5}, [671132, 671084, 671101, 671085, 671085, 671086]),
    ({"noise_std": 0.5, "interference_amplitude": 0.3, "interference_freq": 13.0},
     [671127, 671071, 671113, 671090, 671069, 671091]),
])
def test_seeded_noisy_codes_pinned(disturbance, codes):
    emu = armed_emulator([ChannelInput(resistance=100.0, **disturbance)] + [ChannelInput()] * 7,
                         seed=11)
    measured = []
    for i in range(6):
        emu.write_register(0x09, 0x8011)
        measured.append(emu.sample_channel(0, now=0.1 * i))
    assert measured == codes


@pytest.mark.parametrize("disturbance", [{"noise_std": 0.01},
                                         {"interference_amplitude": 0.3,
                                          "interference_freq": 50.0}])
def test_integer_resistance_converts_like_float(disturbance):
    def code(r):
        emu = armed_emulator([ChannelInput(resistance=r, **disturbance)] + [ChannelInput()] * 7,
                             seed=3)
        return emu.sample_channel(0, now=0.25)

    assert code(100) == code(100.0)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**24 - 1))
def test_code_round_trips_exactly(code):
    assert resistance_to_code(code_to_resistance(code)) == code
