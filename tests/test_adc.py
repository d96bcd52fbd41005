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
    CodeOutOfRange,
    DataNotReady,
    ExcitationOff,
    ReadOnlyRegister,
    SensorModel,
    UnknownRegister,
    code_to_resistance,
    resistance_to_code,
    sinc3_kernel,
    sinc3_noise_gain,
)

HALF_LSB = 0.5 * 2.5 / 16777216 / 0.001  # ~7.4506e-5 ohm


def armed_emulator(channel_inputs=None, seed=None) -> AdcEmulator:
    sensors = SensorModel(channels=channel_inputs) if channel_inputs else SensorModel()
    emu = AdcEmulator(sensors, seed=seed)
    emu.write_register(IO_CONTROL_1, 0x003811)
    emu.write_register(0x09, 0x8011)
    return emu


def convert(emu: AdcEmulator, now: float) -> int:
    """The firmware's handshake: poll STATUS until RDY clears, then read DATA."""
    emu.set_time(now)
    polls = 0
    while emu.read_register(STATUS) & 0x80:
        polls += 1
        assert polls < 100
    return emu.read_register(DATA)


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
    for bad in ({"noise_std": math.nan}, {"noise_std": math.inf}, {"noise_std": -0.1},
                {"interference_amplitude": math.nan}, {"interference_amplitude": math.inf},
                {"interference_freq": math.nan}, {"interference_freq": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            ChannelInput(resistance=100.0, **bad)


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
    assert emu.read_register(STATUS) & 0x80      # but RDY says nothing converted yet
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
    assert not emu.read_register(STATUS) & 0x80


def test_status_read_with_nothing_pending_converts_nothing():
    emu = armed_emulator([ChannelInput(resistance=120.0)] + [ChannelInput()] * 7)
    convert(emu, now=0.0)
    status = emu.read_register(STATUS)
    emu.sensors.set_resistance(0, 100.0)  # a conversion now would latch another code
    for _ in range(3):
        assert emu.read_register(STATUS) == status
    assert emu.read_register(DATA) == 805306


def test_register_handshake_pinned():
    emu = armed_emulator([ChannelInput(resistance=100.0)] + [ChannelInput()] * 7)
    assert convert(emu, now=0.0) == 671089


def test_zero_resistance_reads_zero():
    emu = armed_emulator()
    assert convert(emu, now=0.0) == 0


def test_excitation_off():
    emu = AdcEmulator()
    emu.write_register(IO_CONTROL_1, 0x000011)  # channel routing set, current off
    emu.write_register(0x09, 0x8011)
    with pytest.raises(ExcitationOff):
        convert(emu, now=0.0)


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
        code = convert(emu, now=i / (freq * phases) + 0.37)
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
        code = convert(emu, now=0.0)
        assert abs(code_to_resistance(code) - r) <= 7.4506e-5


# -- determinism ------------------------------------------------------------------------


def test_seeded_noise_is_deterministic():
    def run(seed):
        inputs = [ChannelInput(resistance=100.0, noise_std=0.5)] + [ChannelInput()] * 7
        emu = armed_emulator(inputs, seed=seed)
        codes = []
        for i in range(5):
            emu.write_register(0x09, 0x8011)
            codes.append(convert(emu, now=float(i)))
        return codes

    assert run(42) == run(42)
    assert run(42) != run(43)


@pytest.mark.parametrize("disturbance,codes", [
    ({"noise_std": 0.5}, [671091, 671166, 671158, 671060, 671072, 671059]),
    ({"noise_std": 0.5, "interference_amplitude": 0.3, "interference_freq": 13.0},
     [671086, 671153, 671171, 671064, 671056, 671064]),
])
def test_seeded_noisy_codes_pinned(disturbance, codes):
    emu = armed_emulator([ChannelInput(resistance=100.0, **disturbance)] + [ChannelInput()] * 7,
                         seed=11)
    measured = []
    for i in range(6):
        emu.write_register(0x09, 0x8011)
        measured.append(convert(emu, now=0.1 * i))
    assert measured == codes


def test_noisy_conversion_is_one_draw_at_the_filter_noise_gain():
    sigma, r, seed, k = 0.5, 100.0, 11, 40
    g = math.sqrt(sinc3_kernel() @ sinc3_kernel())
    emu = armed_emulator([ChannelInput(resistance=r, noise_std=sigma), ChannelInput(resistance=47.0)]
                         + [ChannelInput()] * 6, seed=seed)
    noisy, quiet = [], []
    for i in range(k):
        emu.write_register(0x09, 0x8011)
        noisy.append(convert(emu, now=0.1 * i))
        emu.write_register(0x0B, 0x8011)  # noise-free channel in between: it draws nothing
        quiet.append(convert(emu, now=0.1 * i + 0.05))
    z = np.random.default_rng(seed).standard_normal(k)
    assert noisy == [resistance_to_code(r + sigma * g * z[i]) for i in range(k)]
    assert quiet == [resistance_to_code(47.0)] * k


def test_filtered_noise_matches_the_per_sample_model():
    """One draw at sigma*g has the code spread of sinc3-filtering per-sample noise."""
    kernel = sinc3_kernel()
    g = sinc3_noise_gain()
    assert g * g == pytest.approx(kernel @ kernel, rel=1e-15)
    sigma, r, n, chunk = 0.5, 100.0, 2000, 200
    lsb = 2 * HALF_LSB
    rng = np.random.default_rng(5)
    per_sample = []
    for _ in range(n // chunk):  # fresh window per conversion, chunked to bound memory
        windows = r + sigma * rng.standard_normal((chunk, kernel.size))
        per_sample += [resistance_to_code(v) for v in windows @ kernel]
    emu = armed_emulator([ChannelInput(resistance=r, noise_std=sigma)] + [ChannelInput()] * 7,
                         seed=6)
    emulated = []
    for i in range(n):
        emu.write_register(0x09, 0x8011)
        emulated.append(convert(emu, now=0.1 * i))
    analytic = sigma * g / lsb  # ~56.8 codes
    rel_se = 1 / math.sqrt(2 * (n - 1))  # standard error of a sample std, relative
    stds = [np.std(codes, ddof=1) for codes in (per_sample, emulated)]
    for std in stds:
        assert std == pytest.approx(analytic, rel=4 * rel_se)
    assert stds[0] == pytest.approx(stds[1], rel=4 * math.sqrt(2) * rel_se)
    for codes in (per_sample, emulated):
        assert abs(np.mean(codes) - resistance_to_code(r)) <= 4 * analytic / math.sqrt(n)


@pytest.mark.parametrize("disturbance", [{"noise_std": 0.01},
                                         {"interference_amplitude": 0.3,
                                          "interference_freq": 50.0}])
def test_integer_resistance_converts_like_float(disturbance):
    def code(r):
        emu = armed_emulator([ChannelInput(resistance=r, **disturbance)] + [ChannelInput()] * 7,
                             seed=3)
        return convert(emu, now=0.25)

    assert code(100) == code(100.0)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**24 - 1))
def test_code_round_trips_exactly(code):
    assert resistance_to_code(code_to_resistance(code)) == code
