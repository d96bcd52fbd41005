"""
Firmware acquisition loop: the register choreography of one tick
================================================================

The node firmware initializes the converter with a fixed write sequence,
then per tick walks all eight channels: route excitation, arm, poll the
ready flag, read data, convert to ohms, unroute, disarm.  Four writes per
channel, 32 per tick, in channel order.
"""

from shmlink.adc import AdcEmulator, SensorModel
from shmlink.bench import FIXTURE_RESISTANCES as FIXTURE
from shmlink.firmware import NodeFirmware

emu = AdcEmulator(SensorModel.from_resistances(FIXTURE))
fw = NodeFirmware(emu, channel_count=8)
fw.init()

print("init writes (after reset):")
for addr, value in fw.capture_trace():
    print(f"  reg 0x{addr:02X} <- 0x{value:06X}")

fw.clear_trace()
frame = fw.run_tick(now=0.0)

print(f"\ntick writes ({len(fw.capture_trace())} total, first channel shown):")
for addr, value in fw.capture_trace()[:4]:
    print(f"  reg 0x{addr:02X} <- 0x{value:06X}")
print("  ... same pattern for channels 1..7")

print(f"\nframe counter {frame.counter}, resistances:")
for ch, (measured, true) in enumerate(zip(frame.resistances, FIXTURE)):
    print(f"  ch{ch}: {measured:10.5f} Ohm (true {true:.1f})")

frame2 = fw.run_tick(now=10.0)
print(f"\nnext tick counter: {frame2.counter}")
