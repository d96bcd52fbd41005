"""Ingestion, synchronization, offset estimation, and the canonical CSV layout."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shmlink.dataset import (
    AlignedRecord,
    InsufficientVariation,
    MalformedRow,
    MechanicalSample,
    MissingColumn,
    NoOverlap,
    ResistanceSample,
    TooFewRecords,
    estimate_offset,
    parse_mechanical_csv,
    parse_resistance_csv,
    read_table_csv,
    split_chronological,
    synchronize,
    write_table_csv,
)
from shmlink.synthetic import offset_pair

DATA_DIR = Path(__file__).parent / "data"

# The five pinned synchronized rows (index 500..504 of the reference recording).
PINNED_ROWS = [
    AlignedRecord(time=49.34, strain=0.00002, t=213.378, resistances=(50.988, 42.881)),
    AlignedRecord(time=49.44, strain=0.00001, t=213.838, resistances=(51.002, 42.883)),
    AlignedRecord(time=49.54, strain=0.00001, t=214.281, resistances=(50.994, 42.885)),
    AlignedRecord(time=49.64, strain=0.00001, t=214.695, resistances=(50.990, 42.887)),
    AlignedRecord(time=49.74, strain=0.00001, t=215.110, resistances=(50.992, 42.894)),
]


# -- mechanical CSV ---------------------------------------------------------------


def test_parse_tensile_export_fixture():
    text = (DATA_DIR / "tensile_test_export.csv").read_text(encoding="utf-8")
    samples = parse_mechanical_csv(text)
    assert len(samples) == 1  # summary rows skipped
    s = samples[0]
    assert s.stress == 76.15
    assert s.strain == 0.0081          # 0.81 % converted on ingest
    assert s.displacement == 1.40
    assert s.force == 5969.85
    assert s.time == 188.05


def test_parse_empty_file_missing_column():
    with pytest.raises(MissingColumn):
        parse_mechanical_csv("")


def test_parse_header_without_strain():
    with pytest.raises(MissingColumn):
        parse_mechanical_csv("Time,Force\n1.0,2.0\n")


def test_parse_non_numeric_strain_reports_line():
    text = "Time,Strain\n0.0,0.1\n1.0,oops\n"
    with pytest.raises(MalformedRow) as excinfo:
        parse_mechanical_csv(text)
    assert excinfo.value.line == 3


def test_parse_plain_time_series():
    samples = parse_mechanical_csv("Time,Strain\n0.0,0.001\n0.1,0.002\n")
    assert [s.strain for s in samples] == [0.001, 0.002]  # no % header, no rescale


def test_parse_resistance_log():
    samples = parse_resistance_csv("t,R1,R2\n0.0,47.0,120.0\n0.1,47.1,120.1\n")
    assert samples[0] == ResistanceSample(t=0.0, resistances=(47.0, 120.0))
    with pytest.raises(MissingColumn):
        parse_resistance_csv("")
    with pytest.raises(MalformedRow):
        parse_resistance_csv("t,R1\n0.0,x\n")


# -- synchronize -------------------------------------------------------------------


def test_synchronize_pinned_row():
    mech = [MechanicalSample(time=r.time, strain=r.strain) for r in PINNED_ROWS]
    res = [ResistanceSample(t=r.t, resistances=r.resistances) for r in PINNED_ROWS]
    offset = 213.378 - 49.34
    aligned = synchronize(mech, res, offset)
    first = aligned[0]
    assert first.time == 49.34
    assert first.strain == 0.00002
    assert first.t == 213.378
    assert first.resistances == (50.988, 42.881)


def test_synchronize_no_overlap():
    mech = [MechanicalSample(time=t, strain=0.001 * t) for t in np.arange(0, 10, 0.1)]
    res = [ResistanceSample(t=t, resistances=(47.0,)) for t in np.arange(0, 10, 0.1)]
    with pytest.raises(NoOverlap):
        synchronize(mech, res, offset=1000.0)


def test_synchronize_identity_join():
    times = np.arange(0, 5, 0.1)
    mech = [MechanicalSample(time=float(t), strain=float(0.01 * t)) for t in times]
    res = [ResistanceSample(t=float(t), resistances=(47.0 + float(t),)) for t in times]
    aligned = synchronize(mech, res, offset=0.0)
    assert len(aligned) == len(times)
    for rec, m, r in zip(aligned, mech, res):
        assert rec.time == m.time and rec.strain == m.strain
        assert rec.t == r.t and rec.resistances == r.resistances


def test_synchronize_idempotent_on_aligned_records():
    times = np.arange(0, 5, 0.1)
    records = [AlignedRecord(time=float(t), strain=float(0.01 * t), t=float(t),
                             resistances=(47.0 + float(t), 120.0)) for t in times]
    mech = [MechanicalSample(time=r.time, strain=r.strain) for r in records]
    res = [ResistanceSample(t=r.t, resistances=r.resistances) for r in records]
    assert synchronize(mech, res, offset=0.0) == records


def test_synchronize_interpolates_between_sparse_neighbors():
    # median interval 2.5 -> a 2.0 gap exceeds half of it, forcing interpolation
    mech = [MechanicalSample(time=3.0, strain=0.1)]
    res = [ResistanceSample(t=0.0, resistances=(10.0,)),
           ResistanceSample(t=1.0, resistances=(20.0,)),
           ResistanceSample(t=5.0, resistances=(60.0,))]
    aligned = synchronize(mech, res, offset=0.0)
    assert aligned[0].t == 3.0
    assert aligned[0].resistances == (40.0,)


# -- estimate_offset ------------------------------------------------------------------


def test_fft_correlation_matches_direct_correlation():
    from shmlink.dataset import _correlate_full
    rng = np.random.default_rng(7)
    for s_len, r_len in [(1, 1), (1, 5), (5, 1), (10, 10), (13, 40), (64, 17), (100, 99)]:
        s, r = rng.normal(size=s_len), rng.normal(size=r_len)
        direct = np.correlate(s, r, "full")
        scale = np.abs(s).sum() * np.abs(r).max()
        np.testing.assert_allclose(_correlate_full(s, r), direct, rtol=0, atol=1e-13 * scale)


def test_package_imports_without_scipy():
    code = ("import pkgutil, sys, shmlink\n"
            "for module in pkgutil.iter_modules(shmlink.__path__):\n"
            "    if module.name != '__main__':\n"
            "        __import__('shmlink.' + module.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_estimate_known_offset():
    mech, res = offset_pair(offset=164.038, n=2000, seed=3)
    estimate = estimate_offset(mech, res)
    assert abs(estimate - 164.038) <= 0.1  # one resistance sampling interval


def test_estimate_zero_offset():
    mech, res = offset_pair(offset=0.0, n=2000, seed=4)
    assert abs(estimate_offset(mech, res)) <= 0.1


def test_estimate_with_noise_and_random_offsets():
    rng = np.random.default_rng(11)
    for trial in range(5):
        offset = float(rng.uniform(-300, 300))
        mech, res = offset_pair(offset=offset, n=2500, noise_frac=0.10, seed=trial)
        assert abs(estimate_offset(mech, res) - offset) <= 0.1


def test_estimate_constant_series_rejected():
    mech = [MechanicalSample(time=float(t), strain=1.0) for t in range(20)]
    res = [ResistanceSample(t=float(t), resistances=(47.0,)) for t in range(20)]
    with pytest.raises(InsufficientVariation):
        estimate_offset(mech, res)


def test_estimate_too_few_samples_rejected():
    mech = [MechanicalSample(time=float(t), strain=float(t)) for t in range(5)]
    res = [ResistanceSample(t=float(t), resistances=(float(t),)) for t in range(5)]
    with pytest.raises(InsufficientVariation):
        estimate_offset(mech, res)


def test_recovered_offset_survives_synchronize():
    mech, res = offset_pair(offset=42.5, n=1500, seed=9)
    estimate = estimate_offset(mech, res)
    aligned = synchronize(mech, res, estimate)
    assert len(aligned) > 1200  # most of the overlap joined


def test_estimate_with_mismatched_sampling_rates():
    # resistance recorder slower than the testing machine
    mech, res = offset_pair(offset=-58.25, n=2000, res_interval=0.25, seed=12)
    assert abs(estimate_offset(mech, res) - (-58.25)) <= 0.25


def test_aligned_clock_residual_bounded():
    mech, res = offset_pair(offset=17.3, n=1000, seed=13)
    aligned = synchronize(mech, res, 17.3)
    half_mech_interval = 0.05
    for rec in aligned:
        assert abs((rec.t - 17.3) - rec.time) <= half_mech_interval + 1e-9


# -- split ---------------------------------------------------------------------------


def make_records(n):
    return [AlignedRecord(time=float(i), strain=float(i), t=float(i), resistances=(47.0,))
            for i in range(n)]


def test_split_80_20():
    train, test = split_chronological(make_records(10), 0.8)
    assert len(train) == 8 and len(test) == 2
    assert train[0].time == 0.0 and test[-1].time == 9.0


def test_split_ceiling_rule():
    train, test = split_chronological(make_records(5), 0.5)
    assert len(train) == 3 and len(test) == 2


def test_split_too_few():
    with pytest.raises(TooFewRecords):
        split_chronological(make_records(3), 0.5)


def test_split_preserves_order():
    records = make_records(20)
    train, test = split_chronological(records, 0.7)
    assert train + test == records


# -- CSV round trip ----------------------------------------------------------------------


def test_pinned_rows_round_trip_losslessly():
    text = write_table_csv(PINNED_ROWS)
    assert read_table_csv(text) == PINNED_ROWS


def test_round_trip_full_float_precision():
    rng = np.random.default_rng(2)
    records = [AlignedRecord(time=float(t), strain=float(s), t=float(t2),
                             resistances=tuple(map(float, r)))
               for t, s, t2, r in zip(rng.uniform(0, 1e4, 50), rng.normal(0, 1e-5, 50),
                                      rng.uniform(0, 1e4, 50), rng.uniform(0, 2500, (50, 8)))]
    assert read_table_csv(write_table_csv(records)) == records


def test_empty_records_write_header_only():
    assert write_table_csv([]) == "index,Time,Strain,t,R1\n"


def test_eight_channel_header():
    rec = AlignedRecord(time=0.0, strain=0.0, t=0.0, resistances=tuple(range(8)))
    text = write_table_csv([rec])
    assert text.splitlines()[0] == "index,Time,Strain,t,R1,R2,R3,R4,R5,R6,R7,R8"


def test_read_rejects_malformed_rows():
    with pytest.raises(MalformedRow):
        read_table_csv("index,Time,Strain,t,R1\n0,1.0,x,2.0,47.0\n")
    with pytest.raises(MissingColumn):
        read_table_csv("a,b\n1,2\n")
