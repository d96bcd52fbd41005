"""Ingestion, synchronization, offset estimation, and the canonical CSV layout."""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shmlink.dataset import (
    AlignedRecord,
    DatasetError,
    InsufficientVariation,
    MalformedRow,
    MechanicalSample,
    MissingColumn,
    NoOverlap,
    ResistanceSample,
    TooFewRecords,
    csv_line,
    estimate_offset,
    parse_mechanical_csv,
    parse_resistance_csv,
    read_table_csv,
    split_chronological,
    synchronize,
    table_csv_row,
    write_atomic,
    write_table_csv,
)
from shmlink.synthetic import offset_pair, strain_records

DATA_DIR = Path(__file__).parent / "data"
BUNDLED_DIR = Path(__file__).parent.parent / "data"

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


def test_parse_missing_strain_cell_names_its_line():
    with pytest.raises(MalformedRow, match="line 3: missing time or strain value"):
        parse_mechanical_csv("Time,Strain\n0.0,0.1\n1.0,\n")


def test_percent_strain_past_decimal_range_is_a_malformed_row():
    # Decimal's default context overflows dividing 1e999999999 by 100
    with pytest.raises(MalformedRow, match="line 3: strain '1e999999999' out of range"):
        parse_mechanical_csv("Time (s),Strain (%)\n0,0.5\n1,1e999999999\n")


def test_percent_strain_past_float_range_still_parses():
    assert [s.strain for s in parse_mechanical_csv("Time (s),Strain (%)\n0,1e400\n")] == [math.inf]


def test_parse_plain_time_series():
    samples = parse_mechanical_csv("Time,Strain\n0.0,0.001\n0.1,0.002\n")
    assert [s.strain for s in samples] == [0.001, 0.002]  # no % header, no rescale


def test_parse_resistance_log():
    samples = parse_resistance_csv("t,R1,R2\n0.0,47.0,120.0\n0.1,47.1,120.1\n")
    assert samples[0] == ResistanceSample(t=0.0, resistances=(47.0, 120.0))
    with pytest.raises(MissingColumn):
        parse_resistance_csv("")
    with pytest.raises(MissingColumn) as excinfo:
        parse_resistance_csv("t\n0\n")
    assert excinfo.value.name == "R1"
    with pytest.raises(MalformedRow):
        parse_resistance_csv("t,R1\n0.0,x\n")


@pytest.mark.parametrize("parse,text", [
    (parse_resistance_csv, "t,R1,R2\n0.0,47.0,120.0\n0.1,47.1\n"),
    (parse_resistance_csv, "t,R1,R2\n0.0,47.0,120.0\n0.1,47.1,120.1,9.0\n"),
    (parse_resistance_csv, "t,R1,R2\n0.0,47.0,120.0\n0.1,oops,120.1\n"),
    (read_table_csv, "index,Time,Strain,t,R1\n0,0.0,0.0,0.0,47.0\n1,0.1,0.0,0.1\n"),
    (read_table_csv, "index,Time,Strain,t,R1\n0,0.0,0.0,0.0,47.0\n1,0.1,0.0,0.1,x\n"),
], ids=["resistance_short", "resistance_long", "resistance_text",
        "table_short", "table_text"])
def test_malformed_data_row_names_its_line(parse, text):
    with pytest.raises(MalformedRow) as excinfo:
        parse(text)
    assert excinfo.value.line == 3
    assert str(excinfo.value).startswith("line 3: ")


@pytest.mark.parametrize("parse,header", [
    (parse_resistance_csv, "t,R1"),
    (parse_mechanical_csv, "Time,Strain"),
    (read_table_csv, "index,Time,Strain,t,R1"),
], ids=["resistance", "mechanical", "table"])
def test_cell_past_the_csv_field_limit_names_its_line(parse, header):
    width = header.count(",") + 1
    text = f"{header}\n{','.join(['0'] * width)}\n{'9' * (csv.field_size_limit() + 1)}\n"
    with pytest.raises(MalformedRow) as excinfo:
        parse(text)
    assert str(excinfo.value) == f"line 3: field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize("parse,text,line", [
    (parse_resistance_csv, "t,R1\n\n\n0.0,x\n", 4),
    (read_table_csv, "index,Time,Strain,t,R1\n\n0,1.0,nan,0.0,x\n", 3),
    (parse_mechanical_csv, "Time (s),Strain\n\n\n0.0,abc\n", 4),
    (parse_mechanical_csv, "\nTime (s),Strain\n0.0,0.1\n,\n1.0,oops\n", 5),
], ids=["resistance", "table", "mechanical", "mechanical_leading_blank"])
def test_malformed_row_line_counts_blank_lines(parse, text, line):
    with pytest.raises(MalformedRow) as excinfo:
        parse(text)
    assert excinfo.value.line == line


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
    with pytest.raises(NoOverlap, match="empty series"):
        synchronize([], res, offset=0.0)


def test_synchronize_nan_offset_has_no_overlap():
    # a nan shifted time lies in no overlap; it used to join with nan resistances
    mech = [MechanicalSample(time=t, strain=0.1) for t in (0.0, 0.5, 1.0)]
    for log_times in ((0.5,), (0.0, 0.5, 1.0)):
        res = [ResistanceSample(t=t, resistances=(47.0,)) for t in log_times]
        with pytest.raises(NoOverlap):
            synchronize(mech, res, math.nan)


def test_one_sample_log_joins_only_its_instant():
    mech = [MechanicalSample(time=t, strain=0.1) for t in (0.0, 0.5, 1.0)]
    res = [ResistanceSample(t=0.5, resistances=(47.0, 120.0))]
    assert [(r.time, r.t) for r in synchronize(mech, res, 0.0)] == [(0.5, 0.5)]


def test_target_midway_between_samples_takes_the_earlier():
    # both neighbors lie exactly half an interval away, so neither is interpolated
    mech = [MechanicalSample(time=0.5, strain=0.1), MechanicalSample(time=1.5, strain=0.2)]
    res = [ResistanceSample(t=float(t), resistances=(47.0 + t,)) for t in range(3)]
    assert [(r.t, r.resistances) for r in synchronize(mech, res, 0.0)] == [
        (0.0, (47.0,)), (1.0, (48.0,))]


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


@pytest.mark.parametrize("join", [lambda m, r: synchronize(m, r, 0.0), estimate_offset],
                         ids=["synchronize", "estimate_offset"])
@pytest.mark.parametrize("series", ["mechanical series", "resistance log"])
def test_a_clock_that_steps_back_is_refused(join, series):
    restarted = [float(i % 10) for i in range(20)]  # a restarted recorder: 0..9 s, then again
    steady = [0.5 * i for i in range(20)]
    mech_t, res_t = (restarted, steady) if series == "mechanical series" else (steady, restarted)
    mech = [MechanicalSample(time=t, strain=0.001 * (i % 7)) for i, t in enumerate(mech_t)]
    res = [ResistanceSample(t=t, resistances=(47.0 + i % 3,)) for i, t in enumerate(res_t)]
    with pytest.raises(DatasetError, match=f"{series}: time is out of order at sample 10 "
                                           r"\(9\.0 then 0\.0\)"):
        join(mech, res)


def test_repeated_timestamps_still_join():
    mech = [MechanicalSample(time=float(t), strain=0.01 * t) for t in range(10)]
    res = [ResistanceSample(t=float(t // 2), resistances=(47.0 + t,)) for t in range(20)]
    assert len(synchronize(mech, res, 0.0)) == 10


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


def test_estimate_degenerate_time_axis_rejected():
    mech = [MechanicalSample(time=0.0, strain=float(t)) for t in range(20)]
    res = [ResistanceSample(t=float(t), resistances=(float(t),)) for t in range(20)]
    with pytest.raises(InsufficientVariation, match="degenerate time axis"):
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


@pytest.mark.parametrize("fraction", [0.0, 1.0, math.nan])
def test_split_fraction_outside_open_unit_interval(fraction):
    with pytest.raises(ValueError, match="train_fraction"):
        split_chronological(make_records(10), fraction)


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


@pytest.mark.parametrize("name", ["synthetic_2ch.csv", "synthetic_8ch.csv"])
def test_bundled_tables_render_byte_for_byte(name):
    text = (BUNDLED_DIR / name).read_text(encoding="utf-8")
    assert write_table_csv(read_table_csv(text)) == text


def test_numpy_cells_render_as_python_floats():
    rows = np.random.default_rng(4).normal(0.0, 1e3, (6, 5))
    as_numpy = [AlignedRecord(time=r[0], strain=r[1], t=r[2], resistances=tuple(r[3:]))
                for r in rows]  # np.float64 cells
    as_python = [AlignedRecord(time=float(r[0]), strain=float(r[1]), t=float(r[2]),
                               resistances=tuple(map(float, r[3:]))) for r in rows]
    assert type(as_numpy[0].time) is np.float64
    assert write_table_csv(as_numpy) == write_table_csv(as_python)


EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.225073858507201e-308,
               2.2250738585072014e-308, 1e300, -1.7976931348623157e308, 1e16, 1e-7, 0.1)


def random_floats(rng, n: int) -> list[float]:
    """Random bit patterns (every exponent, subnormals, nan), plain values and edge values."""
    kinds = (np.frombuffer(rng.bytes(8 * n), dtype=np.float64).tolist(),
             (rng.normal(size=n) * 10.0 ** rng.integers(-12, 13, n)).tolist(),
             [EDGE_FLOATS[i] for i in rng.integers(0, len(EDGE_FLOATS), n)])
    return [kinds[k][i] for i, k in enumerate(rng.integers(0, 3, n))]


def csv_writer_line(cells) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()


def test_rendered_lines_match_csv_writer():
    rng = np.random.default_rng(11)
    for _ in range(3000):
        index = int(rng.integers(0, 1 << 40))
        time, strain, t, *resistances = random_floats(rng, 3 + int(rng.choice([1, 2, 8])))
        assert table_csv_row(index, time, strain, t, resistances) \
            == csv_writer_line([index, time, strain, t, *resistances])
        # the latency log's layout: counter, node id, then four times
        latency = [int(rng.integers(0, 1 << 32)), int(rng.integers(0, 1 << 16)),
                   *random_floats(rng, 4)]
        assert csv_line(latency) == csv_writer_line(latency)


def test_write_atomic_writes_then_replaces(tmp_path):
    path = tmp_path / "uploads" / "trigger.pred.json"
    write_atomic(path, "first")
    assert path.read_text(encoding="utf-8") == "first"
    write_atomic(path, "second\n")
    assert path.read_text(encoding="utf-8") == "second\n"
    assert [p.name for p in path.parent.iterdir()] == ["trigger.pred.json"]


def test_write_atomic_syncs_the_file_before_the_rename_and_the_directory_after(
        tmp_path, monkeypatch):
    """So a power cut leaves the old file or the new one, never an empty one."""
    path = tmp_path / "model.json"
    path.write_text("old", encoding="utf-8")
    synced = []  # per fsync: what it synced, and what the path held at that moment
    real_fsync = os.fsync

    def fsync(fd):
        synced.append((os.fstat(fd), path.read_text(encoding="utf-8")))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    write_atomic(path, "new")
    assert [held for _, held in synced] == ["old", "new"]  # one sync each side of the rename
    (file, _), (directory, _) = synced
    assert os.path.samestat(file, path.stat())  # the new file, before it replaced the old
    assert os.path.samestat(directory, tmp_path.stat())  # its directory, after


def test_read_rejects_malformed_rows():
    with pytest.raises(MalformedRow):
        read_table_csv("index,Time,Strain,t,R1\n0,1.0,x,2.0,47.0\n")
    with pytest.raises(MissingColumn):
        read_table_csv("a,b\n1,2\n")


# -- synthetic series --------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_strain_records_refuse_a_span_with_no_strain_variation(n):
    # every sample falls on a load-cycle start, so the latent never moves
    with pytest.raises(ValueError, match="no strain variation"):
        strain_records(n=n, channels=2, noise=0.0, seed=0)


@pytest.mark.parametrize("n", [5, 6, 8])
def test_strain_records_of_a_short_span_are_finite(n):
    strains = [r.strain for r in strain_records(n=n, channels=2, noise=0.0, seed=0)]
    assert all(math.isfinite(s) for s in strains)
