"""Converter emulation: register semantics, quantization, sinc3 filtering."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shmlink.adc import (
    CHANNEL_ADDRS,
    CHANNEL_ENABLE_BIT,
    CONFIG_0,
    DATA,
    DECIMATION,
    DEFAULT_EXCITATION,
    IO_CONTROL_1,
    KNOWN_ADDRS,
    MAX_CODE,
    MODULATOR_RATE,
    NOISE_BLOCK,
    OUTPUT_RATE,
    POLLS_TO_READY,
    READONLY_ADDRS,
    RESOLUTION,
    SETTLE_TIME,
    STATUS,
    STATUS_RDY_BIT,
    VREF,
    WRITABLE_ADDRS,
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


@pytest.mark.parametrize("addr,value", [(IO_CONTROL_1, 1.5), (IO_CONTROL_1, True),
                                        (CHANNEL_ADDRS[0], 0x8011 + 0.5), (CHANNEL_ADDRS[0], True),
                                        (CONFIG_0, "7"), (CONFIG_0, np.int64(7))])
def test_register_value_that_is_not_an_int_is_refused_before_it_is_stored(addr, value):
    emu = AdcEmulator()
    emu.write_register(IO_CONTROL_1, 0x003811)
    before = dict(emu.registers)
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        emu.write_register(addr, value)
    assert emu.registers == before
    assert emu.read_register(STATUS) == STATUS_RDY_BIT  # nothing armed, nothing converted


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


def test_noise_blocks_cross_their_boundary_unchanged():
    """Blocks of NOISE_BLOCK draws give the scalar draws, in order, across a reset()."""
    sigma, r, seed, k = 0.5, 100.0, 29, 2 * NOISE_BLOCK + 3
    g = sinc3_noise_gain()
    emu = AdcEmulator(SensorModel(channels=[ChannelInput(resistance=r, noise_std=sigma),
                                            ChannelInput(resistance=47.0)]
                                  + [ChannelInput()] * 6), seed=seed)
    noisy, quiet = [], []
    for i in range(k):
        if i == k // 2:
            emu.reset()  # keeps the generator and the draws it has made
        emu.write_register(IO_CONTROL_1, 0x003811)
        emu.write_register(0x09, 0x8011)
        noisy.append(convert(emu, now=0.1 * i))
        emu.write_register(0x0B, 0x8051)
        quiet.append(convert(emu, now=0.1 * i + 0.05))
    rng = np.random.default_rng(seed)
    assert noisy == [resistance_to_code(r + sigma * g * rng.standard_normal()) for _ in range(k)]
    assert quiet == [resistance_to_code(47.0)] * k


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


# -- the register bus checked against its earlier implementation --------------------------


def reference_resistance_to_code(r: float) -> int:
    """``resistance_to_code`` as first written, clamping with min and max."""
    if math.isnan(r):
        raise ValueError("resistance is NaN")
    x = r * DEFAULT_EXCITATION / VREF * RESOLUTION
    return math.floor(min(max(x, 0.0), MAX_CODE) + 0.5)


class ReferenceAdcEmulator:
    """The emulator with a separate method per register step and one scalar draw
    per noisy conversion, kept verbatim apart from its clamp: ``AdcEmulator``
    must behave like it bit for bit on every int register value."""

    def __init__(self, sensors: SensorModel | None = None, seed: int | None = None):
        self.sensors = sensors if sensors is not None else SensorModel()
        self._rng = np.random.default_rng(seed)
        self._now = 0.0
        self.reset()

    # -- power / clock -------------------------------------------------------

    def reset(self) -> None:
        """Power-on state: all registers zero, no conversion pending, RDY=1."""
        self.registers = {addr: 0 for addr in KNOWN_ADDRS}
        self._rdy = 1
        self._pending_channel: int | None = None
        self._polls_left = 0

    def set_time(self, now: float) -> None:
        """Position the signal clock (seconds); conversions sample up to it."""
        self._now = now

    # -- register bus ---------------------------------------------------------

    def write_register(self, addr: int, value: int) -> None:
        if addr in READONLY_ADDRS:
            raise ReadOnlyRegister(addr)
        if addr not in WRITABLE_ADDRS:
            raise UnknownRegister(addr)
        if not 0 <= value <= 0xFFFFFF:
            raise ValueError(f"register value 0x{value:X} exceeds 24 bits")
        self.registers[addr] = value
        if addr in CHANNEL_ADDRS:
            channel = CHANNEL_ADDRS.index(addr)
            if value & CHANNEL_ENABLE_BIT:
                self._arm(channel)
            elif self._pending_channel == channel:
                self._pending_channel = None  # disarm cancels the pending conversion
                self._polls_left = 0

    def read_register(self, addr: int) -> int:
        if addr not in KNOWN_ADDRS:
            raise UnknownRegister(addr)
        if addr == STATUS:
            self._poll()
            return (STATUS_RDY_BIT if self._rdy else 0) | (self._pending_channel or 0)
        if addr == DATA and self._pending_channel is not None:
            raise DataNotReady("conversion in flight")
        return self.registers[addr]

    # -- conversion ------------------------------------------------------------

    def _arm(self, channel: int) -> None:
        self._pending_channel = channel
        self._polls_left = POLLS_TO_READY
        self._rdy = 1

    def _poll(self) -> None:
        if self._pending_channel is None:
            return
        self._polls_left -= 1
        if self._polls_left <= 0:
            self._convert(self._pending_channel)

    def _convert(self, channel: int) -> None:
        if not self.registers[IO_CONTROL_1] & 0xFF00:
            raise ExcitationOff("IO_CONTROL_1 excitation bits are clear")
        ch = self.sensors.channels[channel]
        filtered = ch.resistance  # DC input: unit-gain filter is exact
        if ch.interference_amplitude != 0.0:
            # oversampled modulator stream ending at the current signal clock
            kernel = sinc3_kernel()
            t = self._now - np.arange(kernel.size)[::-1] / MODULATOR_RATE
            wobble = ch.interference_amplitude * np.sin(2 * math.pi * ch.interference_freq * t)
            filtered = float(kernel @ (ch.resistance + wobble))
        if ch.noise_std > 0.0:
            filtered += ch.noise_std * sinc3_noise_gain() * self._rng.standard_normal()
        self.registers[DATA] = reference_resistance_to_code(filtered)
        self._rdy = 0
        self._pending_channel = None
        self._polls_left = 0
        self._now += SETTLE_TIME


FULL_SCALE = code_to_resistance(MAX_CODE)


@given(st.one_of(st.floats(allow_nan=False),
                 st.sampled_from([-0.0, 5e-324, -5e-324, FULL_SCALE, 2500.0,
                                  math.nextafter(FULL_SCALE, math.inf)])))
def test_clamp_matches_reference(r):
    code = resistance_to_code(r)
    assert code == reference_resistance_to_code(r) and type(code) is int


def bus_sensors() -> SensorModel:
    """Noisy, interfered, both and quiet channels; a fresh copy per emulator."""
    return SensorModel(channels=[
        ChannelInput(resistance=100.0, noise_std=0.5),
        ChannelInput(resistance=47.0, noise_std=0.2, interference_amplitude=0.3,
                     interference_freq=13.0),
        ChannelInput(resistance=120.0, interference_amplitude=0.3, interference_freq=50.0),
    ] + [ChannelInput(resistance=2400.0 + i) for i in range(5)])


BUS_ADDRS = sorted(KNOWN_ADDRS) + [0x04, 0x0A, 0x55, 0xFF]  # the last four are unknown
BUS_VALUES = st.one_of(st.sampled_from([0, 0x0011, 0x8011, 0x8051, 0x003811, 0xFFFFFF]),
                       st.integers(min_value=-2, max_value=RESOLUTION + 1))
BUS_RESISTANCES = st.one_of(st.floats(min_value=-10.0, max_value=3000.0),
                            st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e300]))
BUS_CALL = st.one_of(
    st.tuples(st.just("write_register"),
              st.one_of(st.sampled_from(CHANNEL_ADDRS), st.just(IO_CONTROL_1),
                        st.sampled_from(BUS_ADDRS)),
              BUS_VALUES),
    st.tuples(st.just("read_register"),
              st.one_of(st.just(STATUS), st.just(DATA), st.sampled_from(BUS_ADDRS))),
    st.tuples(st.just("set_time"), st.floats(min_value=0.0, max_value=1e4)),
    st.tuples(st.just("reset")),
    st.tuples(st.just("set_resistance"), st.integers(min_value=0, max_value=7), BUS_RESISTANCES),
)
# the firmware's handshake on one channel, excitation on or off, and maybe
# disarmed before its polls; random calls alone rarely complete a conversion
HANDSHAKE = st.builds(
    lambda excitation, addr, disarm: [("write_register", IO_CONTROL_1, excitation),
                                      ("write_register", addr, 0x8011)]
    + [("write_register", addr, 0x0011)] * disarm
    + [("read_register", STATUS), ("read_register", STATUS), ("read_register", DATA)],
    st.sampled_from([0x003811, 0x003811, 0x000011]), st.sampled_from(CHANNEL_ADDRS),
    st.sampled_from([False, False, False, True]))
BUS_CALLS = st.lists(st.one_of(BUS_CALL.map(lambda call: [call]), HANDSHAKE),
                     min_size=10, max_size=60).map(lambda steps: sum(steps, []))


def bus_outcome(emu, call):
    """What one call returns, or the type and message of what it raises."""
    name, *args = call
    target = emu.sensors if name == "set_resistance" else emu
    try:
        return getattr(target, name)(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2**32), BUS_CALLS)
def test_register_bus_matches_reference(seed, calls):
    emu = AdcEmulator(bus_sensors(), seed=seed)
    reference = ReferenceAdcEmulator(bus_sensors(), seed=seed)
    for call in calls:
        assert bus_outcome(emu, call) == bus_outcome(reference, call), call
        assert emu.registers == reference.registers, call
