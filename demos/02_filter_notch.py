"""
Sinc3 kernel response: mains rejection at the 10 Hz output rate
===============================================================

The decimation filter is three cascaded boxcar averages, so its frequency
response has nulls at every multiple of the output data rate.  At the 10 Hz
default both 50 Hz and 60 Hz mains pickup land exactly on nulls.  The
response printed first is the discrete-time Fourier transform of the very
kernel the emulator convolves with, so its nulls read at float rounding
(~1e-17), not zero.  The second table measures the same nulls by injecting a
sinusoidal interference into the emulated sensor and watching the converted
output wobble.  Last, the filter's noise gain g = sqrt(sum k^2): white sensor
noise of std sigma per modulator sample leaves the filter with std sigma*g,
which is the one draw each noisy conversion makes.
"""

import math

import numpy as np

from shmlink.adc import (DATA, DECIMATION, MODULATOR_RATE, OUTPUT_RATE, STATUS, AdcEmulator,
                         ChannelInput, SensorModel, code_to_resistance, sinc3_kernel,
                         sinc3_noise_gain)

print(f"modulator {MODULATOR_RATE:.0f} Hz, decimation {DECIMATION}, "
      f"output rate {OUTPUT_RATE:.0f} Hz\n")

kernel = sinc3_kernel()
print("response |H(f)| of the kernel the emulator runs:")
for f in (5, 10, 23, 47, 50, 60, 100):
    mag = abs(kernel @ np.exp(-2j * math.pi * f * np.arange(kernel.size) / MODULATOR_RATE))
    db = -20 * math.log10(mag) if mag > 0 else math.inf
    print(f"  {f:5.0f} Hz: {mag:10.3e}  ({db:6.1f} dB attenuation)")

print("\nmeasured through the register interface (10 Ohm interference on 100 Ohm):")
for freq in (23.0, 47.0, 50.0, 60.0):
    inputs = [ChannelInput(resistance=100.0, interference_amplitude=10.0,
                           interference_freq=freq)] + [ChannelInput()] * 7
    emu = AdcEmulator(SensorModel(channels=inputs))
    emu.write_register(0x03, 0x003811)
    worst = 0.0
    for i in range(32):
        emu.write_register(0x09, 0x8011)  # arm channel 0
        emu.set_time(i / (freq * 32))
        while emu.read_register(STATUS) & 0x80:  # poll until RDY clears
            pass
        code = emu.read_register(DATA)
        worst = max(worst, abs(code_to_resistance(code) - 100.0))
    floor = 0.5 * 2.5 / 16777216 / 0.001
    db = 20 * math.log10(10.0 / max(worst, floor))
    note = "  <- null" if freq in (50.0, 60.0) else ""
    print(f"  {freq:5.1f} Hz: worst deviation {worst:.3e} Ohm  (>= {db:5.1f} dB){note}")

g = sinc3_noise_gain()
sigma = 0.05
lsb = code_to_resistance(1)  # ohm per code
print(f"\nnoise gain g = sqrt(sum k^2) = {g:.7f}; {sigma} Ohm per modulator sample "
      f"filters to {sigma * g:.3e} Ohm = {sigma * g / lsb:.2f} LSB std")
