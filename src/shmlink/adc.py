"""Emulated 24-bit sigma-delta ADC with a constant-current resistance front end.

The emulator models the acquisition chain the node firmware drives over an
in-process register bus: an addressable register file, per-channel resistance
inputs excited by a constant current, a sinc3 decimation filter applied to the
oversampled modulator stream, and the code<->resistance conversion

    code = round(R * I_exc / Vref * 2^24)        (clamped to 24 bits)
    R    = code * 2.5 / 16777216 / 0.001         (this exact operation order)

Writing a CHANNEL register with its enable bit set arms a conversion; the
conversion completes while the STATUS register is being polled, after which
the DATA register holds the filtered, quantized code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

VREF = 2.5
RESOLUTION = 1 << 24       # 24-bit full scale
MAX_CODE = RESOLUTION - 1
DEFAULT_EXCITATION = 0.001  # ampere; the firmware converts every reading back at it

# Register addresses
STATUS = 0x00
ADC_CONTROL = 0x01
DATA = 0x02
IO_CONTROL_1 = 0x03
CHANNEL_ADDRS = (0x09, 0x0B, 0x0D, 0x0F, 0x11, 0x13, 0x15, 0x17)
CONFIG_0 = 0x19
FILTER_0 = 0x21

WRITABLE_ADDRS = frozenset((ADC_CONTROL, IO_CONTROL_1, CONFIG_0, FILTER_0) + CHANNEL_ADDRS)
READONLY_ADDRS = frozenset((STATUS, DATA))
KNOWN_ADDRS = WRITABLE_ADDRS | READONLY_ADDRS

CHANNEL_ENABLE_BIT = 0x8000  # bit 15 of a CHANNEL register arms the channel
STATUS_RDY_BIT = 0x80        # bit 7 of STATUS: 1 = no valid DATA yet


class BusError(Exception):
    """Base class for register-bus level failures."""


class UnknownRegister(BusError):
    def __init__(self, addr: int):
        super().__init__(f"unknown register 0x{addr:02X}")
        self.addr = addr


class ReadOnlyRegister(BusError):
    def __init__(self, addr: int):
        super().__init__(f"register 0x{addr:02X} is read-only")
        self.addr = addr


class DataNotReady(BusError):
    """DATA was read while a conversion is still in flight."""


class ChannelNotArmed(BusError):
    def __init__(self, channel: int):
        super().__init__(f"channel {channel} is not armed")
        self.channel = channel


class ExcitationOff(BusError):
    """A conversion was requested with the excitation current disabled."""


class CodeOutOfRange(ValueError):
    def __init__(self, code: int):
        super().__init__(f"code {code} outside [0, {RESOLUTION})")
        self.code = code


def resistance_to_code(r: float) -> int:
    """Quantize a resistance (ohm) to a 24-bit code.

    Clamps to [0, 2^24 - 1], then rounds half up.  Out-of-range inputs,
    infinities included, saturate like a physical converter: an open wire
    modelled as ``math.inf`` reads full scale.  NaN raises ValueError.
    """
    if math.isnan(r):
        raise ValueError("resistance is NaN")
    x = r * DEFAULT_EXCITATION / VREF * RESOLUTION
    return math.floor(min(max(x, 0.0), MAX_CODE) + 0.5)


def code_to_resistance(code: int) -> float:
    """Convert a 24-bit code back to ohms.

    Evaluates ``code * 2.5 / 16777216 / 0.001`` in exactly that order,
    volts then ohms; the node firmware converts every DATA reading with it.
    """
    if not 0 <= code < RESOLUTION:
        raise CodeOutOfRange(code)
    return code * VREF / RESOLUTION / DEFAULT_EXCITATION


@dataclass
class ChannelInput:
    """True signal on one channel: resistance plus optional disturbances.

    ``noise_std`` is the std of white Gaussian resistance noise added to every
    modulator sample; the sinc3 filter attenuates it at the output, as in the
    real converter.  The sinusoidal interference models mains pickup.
    """

    resistance: float = 0.0
    noise_std: float = 0.0
    interference_amplitude: float = 0.0
    interference_freq: float = 0.0

    def __post_init__(self):
        if not self.noise_std >= 0:  # also refuses nan
            raise ValueError("noise_std must be >= 0")


@dataclass
class SensorModel:
    """Per-channel inputs to the converter.

    Representable resistance spans [0, Vref/I_exc) = [0, 2500) ohm at the
    1 mA excitation; values outside clamp to the nearest code.
    """

    channels: list[ChannelInput] = field(default_factory=lambda: [ChannelInput() for _ in range(8)])

    @classmethod
    def from_resistances(cls, resistances, noise_std: float = 0.0) -> "SensorModel":
        return cls(channels=[ChannelInput(resistance=r, noise_std=noise_std) for r in resistances])

    def set_resistance(self, channel: int, r: float) -> None:
        self.channels[channel].resistance = r


# Sinc3 decimation filter: three cascaded boxcars of DECIMATION modulator
# samples.  Its spectral nulls fall at every multiple of OUTPUT_RATE, so the
# 10 Hz rate rejects both 50 Hz and 60 Hz mains interference.  One settled
# conversion consumes a window of 3*DECIMATION - 2 modulator samples.
MODULATOR_RATE = 19200.0
DECIMATION = 1920
OUTPUT_RATE = MODULATOR_RATE / DECIMATION
SETTLE_TIME = (3 * DECIMATION - 2) / MODULATOR_RATE


@functools.cache
def sinc3_kernel() -> np.ndarray:
    """Impulse response of the sinc3 filter, normalized to unit DC gain; built once."""
    box = np.ones(DECIMATION)
    return np.convolve(np.convolve(box, box), box) / float(DECIMATION) ** 3


POLLS_TO_READY = 2  # STATUS reads until an armed conversion completes


class AdcEmulator:
    """Register-level emulation of the 8-channel sigma-delta converter.

    Single-threaded per instance.  The host sets the signal clock with
    :meth:`set_time`; conversions triggered through the register interface
    complete after POLLS_TO_READY STATUS reads and consume one filter
    window of signal ending at the internal clock, which then advances by the
    window's duration so back-to-back channel scans see consecutive signal.
    """

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

    @property
    def rdy(self) -> int:
        """1 while no valid DATA is available, 0 once a conversion completed."""
        return self._rdy

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

    def sample_channel(self, channel: int, now: float) -> int:
        """Run one conversion on an armed channel, sampling signal up to ``now``.

        Returns the 24-bit code also latched into DATA; RDY transitions 1 -> 0.
        """
        self.set_time(now)
        self._check_armed(channel)
        return self._convert(channel)

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

    def _check_armed(self, channel: int) -> None:
        if not 0 <= channel < len(CHANNEL_ADDRS):
            raise ChannelNotArmed(channel)
        if not self.registers[CHANNEL_ADDRS[channel]] & CHANNEL_ENABLE_BIT:
            raise ChannelNotArmed(channel)

    def _convert(self, channel: int) -> int:
        if not self.registers[IO_CONTROL_1] & 0xFF00:
            raise ExcitationOff("IO_CONTROL_1 excitation bits are clear")
        ch = self.sensors.channels[channel]
        kernel = sinc3_kernel()
        n = kernel.size
        if ch.interference_amplitude != 0.0 or ch.noise_std != 0.0:
            # oversampled modulator stream ending at the current signal clock
            signal = np.full(n, ch.resistance, dtype=float)
            if ch.interference_amplitude != 0.0:
                t = self._now - (n - 1 - np.arange(n)) / MODULATOR_RATE
                signal += ch.interference_amplitude * np.sin(2 * math.pi * ch.interference_freq * t)
            if ch.noise_std > 0.0:
                signal += self._rng.normal(0.0, ch.noise_std, n)
            filtered = float(kernel @ signal)
        else:
            filtered = ch.resistance  # DC input: unit-gain filter is exact
        code = resistance_to_code(filtered)
        self.registers[DATA] = code
        self._rdy = 0
        self._pending_channel = None
        self._polls_left = 0
        self._now += SETTLE_TIME
        return code
