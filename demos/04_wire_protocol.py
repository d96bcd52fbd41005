"""
Telemetry frame codec: layout, integrity, link timing
=====================================================

Frames are little-endian: magic "SHM1", version, node id, counter, channel
count, one f64 per channel, CRC-32 over everything before it.  The decoder
is total -- arbitrary bytes produce a typed error, corrupted payloads always
surface as a CRC mismatch.
"""

import random

from shmlink.protocol import (CrcMismatch, LinkConfig, TelemetryFrame, Truncated, decode, encode,
                              link_send)

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

config = LinkConfig(throughput=2_000_000, latency=0.0)
delivery = link_send(frame, config, now=0.0, rng=random.Random(0))  # draws only when loss > 0
print(f"\nover a 2 Mbit/s link this frame takes {delivery.time * 1e6:.1f} us on the wire")

lossy, rng = LinkConfig(loss=0.1), random.Random(7)  # the seed fixes which frames drop
dropped = sum(link_send(frame, lossy, now=0.0, rng=rng) is None for _ in range(1000))
print(f"at 10% loss the seeded link drops {dropped} of 1000 frames, the same ones every run")
