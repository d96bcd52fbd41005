"""
Telemetry frame codec: layout, integrity, time on the wire
==========================================================

Frames are little-endian: magic "SHM1", version, node id, counter, channel
count, one f64 per channel, CRC-32 over everything before it.  The decoder
is total -- arbitrary bytes produce a typed error, corrupted payloads always
surface as a CRC mismatch.
"""

from shmlink.protocol import CrcMismatch, TelemetryFrame, Truncated, decode, encode

frame = TelemetryFrame(counter=7, node_id=3, resistances=(47.0, 120.0))
data = encode(frame)
print(f"{len(data)}-byte frame:")
print(" ", data.hex(" "))
print("  magic+ver | node | counter | n |      two f64 resistances      | crc")

assert decode(data) == frame
print("\nround trip ok")

corrupted = bytearray(data)
corrupted[14] ^= 0x01  # flip one payload bit
try:
    decode(bytes(corrupted))
except CrcMismatch as exc:
    print(f"single flipped bit -> CrcMismatch ({exc})")

try:
    decode(data[:9])
except Truncated as exc:
    print(f"truncated input    -> Truncated ({exc})")

wire_s = len(data) * 8 / 2e6  # serialization time at the radio's 2 Mbit/s
print(f"\nover a 2 Mbit/s link this frame takes {wire_s * 1e6:.1f} us on the wire")
