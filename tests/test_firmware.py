"""Acquisition loop: init sequence, golden trace, counters, error handling."""

import math
from pathlib import Path

import pytest

from shmlink.adc import STATUS, AdcEmulator, SensorModel, UnknownRegister
from shmlink.firmware import CHANNEL_PLAN, INIT_SEQUENCE, ConversionTimeout, NodeFirmware
from shmlink.protocol import decode, encode

DATA_DIR = Path(__file__).parent / "data"
FIXTURE = (47.0, 47.0, 100.0, 100.0, 120.0, 120.0, 120.0, 120.0)
HALF_LSB = 0.5 * 2.5 / 16777216 / 0.001


def fresh_firmware(channel_count=8, **kwargs) -> NodeFirmware:
    emu = AdcEmulator(SensorModel.from_resistances(FIXTURE))
    fw = NodeFirmware(emu, channel_count=channel_count, **kwargs)
    fw.init()
    return fw


def format_trace(trace) -> str:
    return "\n".join(f"0x{addr:02X} 0x{value:06X}" if addr == 0x03
                     else f"0x{addr:02X} 0x{value:04X}"
                     for addr, value in trace) + "\n"


# -- init ---------------------------------------------------------------------------


def test_init_trace_is_golden_sequence():
    fw = fresh_firmware()
    assert fw.capture_trace() == list(INIT_SEQUENCE)
    assert fw.capture_trace()[0] == (0x09, 0x0011)


def test_counter_zero_after_init():
    fw = fresh_firmware()
    assert fw.counter == 0


def test_init_propagates_bus_error():
    class RejectingBus:
        def write_register(self, addr, value):
            if addr == 0x19:
                raise UnknownRegister(addr)

        def read_register(self, addr):
            return 0

    fw = NodeFirmware(RejectingBus())
    with pytest.raises(UnknownRegister):
        fw.init()


def test_tick_before_init_rejected():
    emu = AdcEmulator()
    fw = NodeFirmware(emu)
    with pytest.raises(RuntimeError):
        fw.run_tick(0.0)


# -- tick choreography -------------------------------------------------------------------


def test_golden_trace_full_tick():
    fw = fresh_firmware()
    fw.clear_trace()
    fw.run_tick(now=0.0)
    trace = fw.capture_trace()
    assert len(trace) == 32
    assert trace[0] == (0x03, 0x003811)
    golden = (DATA_DIR / "golden_trace_8ch.txt").read_bytes()
    assert format_trace(trace).encode() == golden


def test_trace_channel5_arm_before_disarm():
    fw = fresh_firmware()
    fw.clear_trace()
    fw.run_tick(now=0.0)
    trace = fw.capture_trace()
    assert trace.index((0x13, 0x8151)) < trace.index((0x13, 0x0151))


def test_arm_precedes_io_off_for_every_channel():
    fw = fresh_firmware()
    fw.clear_trace()
    fw.run_tick(now=0.0)
    trace = fw.capture_trace()
    for step in CHANNEL_PLAN:
        arm = trace.index((step.channel_reg_addr, step.channel_arm_value))
        off = trace.index((0x03, step.io_control_off))
        assert arm < off


def test_cleared_trace_is_empty():
    fw = fresh_firmware()
    fw.clear_trace()
    assert fw.capture_trace() == []


def test_counters_across_ticks():
    fw = fresh_firmware()
    f0 = fw.run_tick(now=0.0)
    f1 = fw.run_tick(now=10.0)
    assert (f0.counter, f1.counter) == (0, 1)


def test_counter_wraps_after_u32_max():
    """Tick 2^32 - 1 is followed by counter 0, and every frame still encodes."""
    fw = fresh_firmware(channel_count=2, trace=False)
    fw.counter = 2**32 - 2
    frames = [fw.run_tick(now=0.1 * i) for i in range(4)]
    assert [f.counter for f in frames] == [2**32 - 2, 2**32 - 1, 0, 1]
    assert [decode(encode(f)).counter for f in frames] == [2**32 - 2, 2**32 - 1, 0, 1]


def test_zero_resistances_give_zero_frame():
    emu = AdcEmulator(SensorModel.from_resistances([0.0] * 8))
    fw = NodeFirmware(emu)
    fw.init()
    frame = fw.run_tick(now=0.0)
    assert frame.resistances == (0.0,) * 8


@pytest.mark.parametrize("open_wire", [1e6, math.inf])
@pytest.mark.parametrize("noise_std", [0.0, 0.02])
def test_open_wire_reads_full_scale(open_wire, noise_std):
    emu = AdcEmulator(SensorModel.from_resistances((open_wire, 47.0), noise_std=noise_std), seed=1)
    fw = NodeFirmware(emu, channel_count=2)
    fw.init()
    assert fw.run_tick(now=0.0).resistances[0] == 2499.999850988388


def test_fixture_resistances_within_half_lsb():
    fw = fresh_firmware()
    frame = fw.run_tick(now=0.0)
    assert len(frame.resistances) == 8
    for measured, true in zip(frame.resistances, FIXTURE):
        assert abs(measured - true) <= HALF_LSB


def test_frame_ordering_matches_acquisition_order():
    distinct = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]
    emu = AdcEmulator(SensorModel.from_resistances(distinct))
    fw = NodeFirmware(emu)
    fw.init()
    frame = fw.run_tick(now=0.0)
    for measured, true in zip(frame.resistances, distinct):
        assert abs(measured - true) <= HALF_LSB


def test_two_channel_mode_scans_first_two():
    fw = fresh_firmware(channel_count=2)
    fw.clear_trace()
    frame = fw.run_tick(now=0.0)
    trace = fw.capture_trace()
    assert len(trace) == 8
    assert {addr for addr, _ in trace} == {0x03, 0x09, 0x0B}
    assert len(frame.resistances) == 2


def test_invalid_channel_count_rejected():
    with pytest.raises(ValueError):
        NodeFirmware(AdcEmulator(), channel_count=3)


@pytest.mark.parametrize("tick_period", [0.0, -1.0, math.nan])
def test_tick_period_that_is_not_positive_rejected(tick_period):
    with pytest.raises(ValueError, match="tick_period"):
        NodeFirmware(AdcEmulator(), tick_period=tick_period)


# -- failure semantics ----------------------------------------------------------------------


class StuckBus:
    """Bus whose conversions never finish; RDY stays high."""

    def write_register(self, addr, value):
        pass

    def read_register(self, addr):
        return 0x80 if addr == STATUS else 0


def test_conversion_timeout():
    fw = NodeFirmware(StuckBus())
    fw.init()
    with pytest.raises(ConversionTimeout):
        fw.run_tick(now=0.0)


def test_failed_tick_does_not_increment_counter():
    fw = NodeFirmware(StuckBus())
    fw.init()
    for _ in range(3):
        with pytest.raises(ConversionTimeout):
            fw.run_tick(now=0.0)
    assert fw.counter == 0

    emu = AdcEmulator(SensorModel.from_resistances(FIXTURE))
    fw = NodeFirmware(emu)
    fw.init()
    fw.run_tick(now=0.0)
    assert fw.counter == 1
