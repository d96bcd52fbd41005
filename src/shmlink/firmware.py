"""Node firmware: timer-driven 8-channel acquisition loop over the register bus.

Reproduces the embedded acquisition procedure exactly: a fixed init sequence,
then per tick an 8-step choreography per channel (excitation on, arm, poll
ready, read data, convert to volts then ohms, excitation off, disarm), ending
with a telemetry frame that carries a counter of completed ticks modulo 2^32
(the frame's u32 field): it wraps to 0 after 4294967295, 49.7 days at 1 ms.
Register writes are traced so the sequence can be checked byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adc import DATA, IO_CONTROL_1, STATUS, STATUS_RDY_BIT, code_to_resistance
from .protocol import COUNTER_MODULUS, TelemetryFrame


class ConversionTimeout(Exception):
    def __init__(self, channel: int, polls: int):
        super().__init__(f"channel {channel}: RDY never cleared within {polls} polls")
        self.channel = channel


@dataclass(frozen=True)
class ChannelStep:
    """Register choreography for one channel of the acquisition loop."""

    io_control_on: int
    channel_reg_addr: int
    channel_arm_value: int
    io_control_off: int
    channel_disarm_value: int


# Per-channel excitation routing and arm/disarm words, in scan order 0..7.
CHANNEL_PLAN = (
    ChannelStep(0x003811, 0x09, 0x8011, 0x000011, 0x0011),
    ChannelStep(0x003833, 0x0B, 0x8051, 0x000033, 0x0051),
    ChannelStep(0x003855, 0x0D, 0x8091, 0x000055, 0x0091),
    ChannelStep(0x003877, 0x0F, 0x80D1, 0x000077, 0x00D1),
    ChannelStep(0x003899, 0x11, 0x8111, 0x000099, 0x0111),
    ChannelStep(0x0038BB, 0x13, 0x8151, 0x0000BB, 0x0151),
    ChannelStep(0x0038DD, 0x15, 0x8191, 0x0000DD, 0x0191),
    ChannelStep(0x0038FF, 0x17, 0x81D1, 0x0000FF, 0x01D1),
)

# Init writes after reset: CHANNEL_0 idle, CONFIG_0, ADC_CONTROL, FILTER_0.
INIT_SEQUENCE = (
    (0x09, 0x0011),
    (0x19, 0x0070),
    (0x01, 0x0500),
    (0x21, 0x060030),
)

DEFAULT_TICK_PERIOD = 10.0
POLL_BUDGET = 1000  # STATUS reads per channel before a conversion times out


class NodeFirmware:
    """State machine producing one telemetry frame per completed tick.

    ``bus`` is anything exposing write_register/read_register (and optionally
    reset / set_time, as the emulator does).  ``channel_count`` is 2 or 8; the
    2-sensor configuration scans channels 0-1 only.  ``tick_period`` is the
    acquisition period in seconds, which ``bench.stream_node`` ticks at.
    ``counter``, the next frame's, is 0 after ``init()`` and wraps at 2^32.
    """

    def __init__(self, bus, node_id: int = 0, channel_count: int = 8,
                 tick_period: float = DEFAULT_TICK_PERIOD, trace: bool = True):
        if channel_count not in (2, 8):
            raise ValueError("channel_count must be 2 or 8")
        if tick_period <= 0:
            raise ValueError("tick_period must be > 0")
        self.bus = bus
        self.node_id = node_id
        self.channel_count = channel_count
        self.tick_period = tick_period
        self.counter = 0
        self._trace_enabled = trace
        self._trace: list[tuple[int, int]] = []
        self._initialized = False

    # -- lifecycle -------------------------------------------------------------

    def init(self) -> None:
        """Reset the converter and apply the fixed register init sequence."""
        if hasattr(self.bus, "reset"):
            self.bus.reset()
        for addr, value in INIT_SEQUENCE:
            self._write(addr, value)
        self.counter = 0
        self._initialized = True

    def run_tick(self, now: float) -> TelemetryFrame:
        """Scan the active channels and emit a frame stamped with the counter.

        A tick that fails mid-scan emits no frame and leaves the counter
        unchanged.
        """
        if not self._initialized:
            raise RuntimeError("init() must run before run_tick()")
        if hasattr(self.bus, "set_time"):
            self.bus.set_time(now)
        resistances = tuple(self._acquire(CHANNEL_PLAN[channel], channel)
                            for channel in range(self.channel_count))
        frame = TelemetryFrame(counter=self.counter, node_id=self.node_id,
                               resistances=resistances)
        self.counter = (self.counter + 1) % COUNTER_MODULUS
        return frame

    def _acquire(self, step: ChannelStep, channel: int) -> float:
        self._write(IO_CONTROL_1, step.io_control_on)
        self._write(step.channel_reg_addr, step.channel_arm_value)
        for _ in range(POLL_BUDGET):
            if not self.bus.read_register(STATUS) & STATUS_RDY_BIT:
                break
        else:
            raise ConversionTimeout(channel, POLL_BUDGET)
        resistance = code_to_resistance(self.bus.read_register(DATA))
        self._write(IO_CONTROL_1, step.io_control_off)
        self._write(step.channel_reg_addr, step.channel_disarm_value)
        return resistance

    def _write(self, addr: int, value: int) -> None:
        self.bus.write_register(addr, value)
        if self._trace_enabled:
            self._trace.append((addr, value))

    # -- write trace -------------------------------------------------------------

    def capture_trace(self) -> list[tuple[int, int]]:
        """Ordered (addr, value) register writes since the last clear."""
        return list(self._trace)

    def clear_trace(self) -> None:
        self._trace.clear()
