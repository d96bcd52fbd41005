"""Node firmware: timer-driven 8-channel acquisition loop over the register bus.

Reproduces the embedded acquisition procedure exactly: a fixed init sequence,
then per tick an 8-step choreography per channel (excitation on, arm, poll
ready, read data, convert to volts then ohms, excitation off, disarm), ending
with a telemetry frame that carries a counter of completed ticks modulo 2^32
(the frame's u32 field): it wraps to 0 after 4294967295, 49.7 days at 1 ms.
Register addresses and converter bits come from ``adc``; the firmware holds
only its own choices: the init values, the excitation current setting, and
each channel's pin routing and idle CHANNEL word.  Register writes are traced
so the sequence can be checked byte for byte.
"""

from __future__ import annotations

from .adc import (ADC_CONTROL, CHANNEL_ADDRS, CHANNEL_ENABLE_BIT, CONFIG_0, DATA, FILTER_0,
                  IO_CONTROL_1, STATUS, STATUS_RDY_BIT, code_to_resistance)
from .protocol import COUNTER_MODULUS, TelemetryFrame


class ConversionTimeout(Exception):
    def __init__(self, channel: int, polls: int):
        super().__init__(f"channel {channel}: RDY never cleared within {polls} polls")
        self.channel = channel


EXCITATION_ON = 0x3800  # IO_CONTROL_1 current-source bits, set while a channel converts

# Per channel, in scan order 0..7: (IO_CONTROL_1 pin routing, CHANNEL word with
# the enable bit clear).
CHANNEL_PLAN = ((0x11, 0x0011), (0x33, 0x0051), (0x55, 0x0091), (0x77, 0x00D1),
                (0x99, 0x0111), (0xBB, 0x0151), (0xDD, 0x0191), (0xFF, 0x01D1))

# Init writes after reset, in order; CHANNEL_0 gets its idle word.
INIT_SEQUENCE = (
    (CHANNEL_ADDRS[0], 0x0011),
    (CONFIG_0, 0x0070),
    (ADC_CONTROL, 0x0500),
    (FILTER_0, 0x060030),
)

CHANNEL_COUNTS = (2, 8)  # channels a node scans: the 2-sensor configuration's 0-1, or all
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
        if channel_count not in CHANNEL_COUNTS:
            raise ValueError(f"channel_count must be one of {CHANNEL_COUNTS}")
        if not tick_period > 0:  # also refuses nan
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
        read = self.bus.read_register
        write = self._write if self._trace_enabled else self.bus.write_register
        resistances = []
        for channel in range(self.channel_count):
            routing, word = CHANNEL_PLAN[channel]
            write(IO_CONTROL_1, EXCITATION_ON | routing)
            write(CHANNEL_ADDRS[channel], word | CHANNEL_ENABLE_BIT)
            for _ in range(POLL_BUDGET):
                if not read(STATUS) & STATUS_RDY_BIT:
                    break
            else:
                raise ConversionTimeout(channel, POLL_BUDGET)
            resistances.append(code_to_resistance(read(DATA)))
            write(IO_CONTROL_1, routing)
            write(CHANNEL_ADDRS[channel], word)
        frame = TelemetryFrame(counter=self.counter, node_id=self.node_id,
                               resistances=tuple(resistances))
        self.counter = (self.counter + 1) % COUNTER_MODULUS
        return frame

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
