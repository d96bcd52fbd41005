"""
Code <-> resistance conversion of the emulated 24-bit converter
===============================================================

A constant 1 mA excitation current through the sensor drops a voltage that
the converter digitizes against a 2.5 V reference, so the representable
range is [0, 2500) ohm in steps of one LSB ~ 0.149 mOhm.
"""

import numpy as np

from shmlink.adc import code_to_resistance, resistance_to_code

lsb = 2.5 / 16777216 / 0.001
print(f"LSB = {lsb * 1e3:.6f} mOhm, full scale = 2500 Ohm\n")

print("fixture resistors through the conversion chain:")
for r in (47.0, 100.0, 120.0):
    code = resistance_to_code(r)
    back = code_to_resistance(code)
    print(f"  {r:7.3f} Ohm -> code {code:8d} -> {back:.6f} Ohm  (err {abs(back - r) * 1e6:.2f} uOhm)")

rng = np.random.default_rng(0)
errors = [abs(code_to_resistance(resistance_to_code(r)) - r)
          for r in rng.uniform(0, 2500, 10_000)]
print(f"\n10,000 random resistances: max round-trip error {max(errors):.3e} Ohm"
      f" (half LSB = {lsb / 2:.3e} Ohm)")

print("\nsaturation: -3 Ohm ->", resistance_to_code(-3.0),
      "| 9999 Ohm ->", resistance_to_code(9999.0), "(clamped, never an error)")
