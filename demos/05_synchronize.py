"""
Two-clock synchronization: recover the offset, join the series
==============================================================

The testing machine and the telemetry recorder run on different clocks.
Cross-correlating strain against mean resistance change recovers the clock
offset; the join then matches each mechanical sample to the nearest
resistance sample (interpolating across sparse gaps).
"""

from shmlink.dataset import estimate_offset, synchronize, write_table_csv
from shmlink.synthetic import offset_pair

TRUE_OFFSET = 164.038

mech, res = offset_pair(offset=TRUE_OFFSET, n=2000, noise_frac=0.05, seed=1)
print(f"mechanical series: {len(mech)} samples on [{mech[0].time:.1f}, {mech[-1].time:.1f}] s")
print(f"resistance series: {len(res)} samples on [{res[0].t:.1f}, {res[-1].t:.1f}] s")

estimated = estimate_offset(mech, res)
print(f"\ntrue offset {TRUE_OFFSET} s, estimated {estimated:.3f} s "
      f"(error {abs(estimated - TRUE_OFFSET) * 1e3:.1f} ms)")

records = synchronize(mech, res, estimated)
print(f"\n{len(records)} aligned records; first three rows of the canonical CSV:")
for line in write_table_csv(records[:3]).splitlines():
    print(" ", line)
