"""Mechanical-test and resistance-log ingestion, clock synchronization, CSV I/O.

Tensile tests and resistance telemetry are recorded by different instruments
on different clocks.  This module parses both exports, estimates the clock
offset by cross-correlating strain against mean resistance change, joins the
two series into aligned records, and reads/writes them in the canonical
``index,Time,Strain,t,R1..Rn`` layout (UTF-8, comma separator, shortest
round-trip float rendering).  ``csv_line`` renders every CSV row the package
writes, gateway logs included; every whole file goes through ``write_atomic``.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from decimal import Decimal, Overflow
from pathlib import Path

import numpy as np


class DatasetError(Exception):
    pass


class MalformedRow(DatasetError):
    def __init__(self, line: int, detail: str = ""):
        super().__init__(f"line {line}: {detail}" if detail else f"line {line}")
        self.line = line


class MissingColumn(DatasetError):
    def __init__(self, name: str):
        super().__init__(f"no column matching {name!r}")
        self.name = name


class NoOverlap(DatasetError):
    pass


class InsufficientVariation(DatasetError):
    pass


class TooFewRecords(DatasetError):
    pass


@dataclass(frozen=True)
class MechanicalSample:
    """One row of a tensile-test export; strain is dimensionless."""

    time: float
    strain: float
    stress: float | None = None      # MPa
    force: float | None = None       # N
    displacement: float | None = None  # mm


@dataclass(frozen=True)
class ResistanceSample:
    """One telemetry row on the resistance clock."""

    t: float
    resistances: tuple[float, ...]


@dataclass(frozen=True)
class AlignedRecord:
    """One synchronized row: mechanical clock + strain joined to resistances."""

    time: float
    strain: float
    t: float
    resistances: tuple[float, ...]


# Summary rows appended by the testing machine's export.
_SUMMARY_LABELS = ("mean", "standard deviation")


def _csv_rows(text: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header row of CSV ``text`` ([] if none) and ``(line, row)`` for each row after it.

    Blank rows are dropped; ``line`` is the 1-based line a row ends on.  Text
    the csv module cannot split, such as a cell past its field size limit,
    is a MalformedRow at the line where splitting failed.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [(reader.line_num, r) for r in reader if any(cell.strip() for cell in r)]
    except csv.Error as exc:
        raise MalformedRow(reader.line_num, str(exc)) from None
    return (rows[0][1], rows[1:]) if rows else ([], [])


def _numeric_rows(width: int, rows: list[tuple[int, list[str]]], skip: int):
    """Yield each ``(line, row)`` of ``rows`` as floats, from column ``skip`` on.

    A row not ``width`` cells wide, or a cell not a number, is a MalformedRow.
    """
    for lineno, row in rows:
        if len(row) != width:
            raise MalformedRow(lineno, f"expected {width} cells, got {len(row)}")
        try:
            values = [float(v) for v in row[skip:]]
        except ValueError:
            raise MalformedRow(lineno, f"non-numeric value in {row!r}") from None
        yield values


def _find_column(headers: list[str], predicate) -> int | None:
    for i, h in enumerate(headers):
        if predicate(h.strip().lower()):
            return i
    return None


def parse_mechanical_csv(text: str) -> list[MechanicalSample]:
    """Parse a tensile-test CSV export into samples.

    Columns are located by fuzzy header match (time/strain required; stress,
    force, displacement optional).  A strain header containing '%' is converted
    to dimensionless on ingest.  Summary rows labelled Mean / Standard
    deviation are skipped.
    """
    headers, rows = _csv_rows(text)
    time_col = _find_column(headers, lambda h: "time" in h or h == "t")
    strain_col = _find_column(headers, lambda h: "strain" in h)
    if time_col is None:
        raise MissingColumn("time")
    if strain_col is None:
        raise MissingColumn("strain")
    strain_is_percent = "%" in headers[strain_col]
    stress_col = _find_column(headers, lambda h: "stress" in h)
    force_col = _find_column(headers, lambda h: "force" in h)
    disp_col = _find_column(headers, lambda h: "displacement" in h and "strain" not in h)

    samples = []
    for lineno, row in rows:
        label = " ".join(cell.strip().lower() for cell in row[:2])
        if any(label.startswith(s) for s in _SUMMARY_LABELS):
            continue

        def cell(col: int | None) -> float | None:
            if col is None or col >= len(row) or not row[col].strip():
                return None
            try:
                return float(row[col])
            except ValueError:
                raise MalformedRow(lineno, f"non-numeric value {row[col]!r}") from None

        time = cell(time_col)
        strain = cell(strain_col)
        if time is None or strain is None:
            raise MalformedRow(lineno, "missing time or strain value")
        if strain_is_percent:
            # scale in decimal space so "0.81" % lands exactly on 0.0081; Decimal
            # takes every text float() took above
            try:
                strain = float(Decimal(row[strain_col].strip()) / 100)
            except Overflow:  # an exponent past Decimal's range, such as 1e999999999
                raise MalformedRow(lineno, f"strain {row[strain_col]!r} out of range") from None
        samples.append(MechanicalSample(time=time, strain=strain, stress=cell(stress_col),
                                        force=cell(force_col), displacement=cell(disp_col)))
    return samples


def parse_resistance_csv(text: str) -> list[ResistanceSample]:
    """Parse a resistance log with header ``t,R1..Rn``."""
    headers, rows = _csv_rows(text)
    if not headers or headers[0].strip().lower() not in ("t", "time"):
        raise MissingColumn("t")
    if len(headers) < 2:
        raise MissingColumn("R1")
    return [ResistanceSample(t=values[0], resistances=tuple(values[1:]))
            for values in _numeric_rows(len(headers), rows, 0)]


# -- synchronization -------------------------------------------------------------


def _check_time_order(series: str, times: np.ndarray) -> None:
    """DatasetError naming the first sample of ``series`` whose time is below the one before.

    A clock that steps back, such as a restarted logger's, would mix two
    recordings into one join.  Equal times pass: ``_median_interval`` skips them.
    """
    back = np.flatnonzero(~(np.diff(times) >= 0))  # the not also catches nan
    if back.size:
        i = int(back[0]) + 1
        raise DatasetError(f"{series}: time is out of order at sample {i} "
                           f"({float(times[i - 1])!r} then {float(times[i])!r})")


def _median_interval(times: np.ndarray) -> float:
    diffs = np.diff(times)
    diffs = diffs[diffs > 0]
    return float(np.median(diffs)) if diffs.size else 0.0


def synchronize(mech: list[MechanicalSample], res: list[ResistanceSample],
                offset: float) -> list[AlignedRecord]:
    """Join both series under ``t ~= time + offset``.

    Each mechanical sample takes the nearest resistance sample on the shifted
    clock; when the nearest one is farther than half the resistance sampling
    interval, resistances are linearly interpolated at the exact shifted time
    instead.  Mechanical samples outside the overlap are dropped.  A series
    whose time decreases is refused (DatasetError).
    """
    if not mech or not res:
        raise NoOverlap("empty series")
    _check_time_order("mechanical series", np.array([m.time for m in mech]))
    res_t = np.array([s.t for s in res])
    _check_time_order("resistance log", res_t)
    res_r = np.array([s.resistances for s in res])
    half_interval = _median_interval(res_t) / 2.0
    lo, hi = res_t[0], res_t[-1]

    records = []
    for m in mech:
        target = m.time + offset
        if not lo <= target <= hi:  # the not also drops a nan target
            continue
        idx = int(np.searchsorted(res_t, target))
        # res_t[idx] >= target, so no later sample is nearer; a tie keeps the earlier
        best = min((i for i in (idx - 1, idx) if i >= 0), key=lambda i: abs(res_t[i] - target))
        if abs(res_t[best] - target) <= half_interval:
            t, resist = float(res_t[best]), tuple(float(v) for v in res_r[best])
        else:
            cols = [float(np.interp(target, res_t, res_r[:, c])) for c in range(res_r.shape[1])]
            t, resist = target, tuple(cols)
        records.append(AlignedRecord(time=m.time, strain=m.strain, t=t, resistances=resist))
    if not records:
        raise NoOverlap(f"shifted range [{mech[0].time + offset}, {mech[-1].time + offset}] "
                        f"disjoint from [{lo}, {hi}]")
    return records


def estimate_offset(mech: list[MechanicalSample], res: list[ResistanceSample]) -> float:
    """Estimate the clock offset such that ``t ~= time + offset``.

    Resamples strain and mean resistance onto a common grid, zero-means both,
    and picks the lag maximizing |normalized cross-correlation| (the sign of
    the resistance response is irrelevant).  Requires >= 10 samples with
    variation on each side, and considers only lags where at least a quarter
    of the shorter series overlaps: parallel recordings of one event overlap
    substantially, and small-overlap lags alias on cyclic loads.  A series
    whose time decreases is refused (DatasetError).
    """
    if len(mech) < 10 or len(res) < 10:
        raise InsufficientVariation("need at least 10 samples per series")
    mech_t = np.array([s.time for s in mech])
    strain = np.array([s.strain for s in mech])
    res_t = np.array([s.t for s in res])
    mean_r = np.array([np.mean(s.resistances) for s in res])
    _check_time_order("mechanical series", mech_t)
    _check_time_order("resistance log", res_t)
    if np.std(strain) == 0.0 or np.std(mean_r) == 0.0:
        raise InsufficientVariation("constant series")

    dt = min(_median_interval(mech_t), _median_interval(res_t))
    if dt <= 0:
        raise InsufficientVariation("degenerate time axis")
    grid_s = np.arange(mech_t[0], mech_t[-1] + dt / 2, dt)
    grid_r = np.arange(res_t[0], res_t[-1] + dt / 2, dt)
    s = np.interp(grid_s, mech_t, strain)
    r = np.interp(grid_r, res_t, mean_r)
    s -= s.mean()
    r -= r.mean()

    corr = _correlate_full(s, r)
    lags = np.arange(-(r.size - 1), s.size)
    # normalize by the energies of the overlapping segments at each lag:
    # s[n] overlaps r[n - lag] for n in [max(0, lag), min(len(s), len(r)+lag))
    s2 = np.concatenate(([0.0], np.cumsum(s * s)))
    r2 = np.concatenate(([0.0], np.cumsum(r * r)))
    n_lo = np.maximum(0, lags)
    n_hi = np.minimum(s.size, r.size + lags)
    min_overlap = max(10, min(s.size, r.size) // 4)
    es = s2[n_hi] - s2[n_lo]
    er = r2[n_hi - lags] - r2[n_lo - lags]
    with np.errstate(invalid="ignore", divide="ignore"):
        score = np.abs(corr) / np.sqrt(es * er)
    score[(n_hi - n_lo < min_overlap) | (es <= 0) | (er <= 0)] = -np.inf
    best = int(np.argmax(score))
    if not np.isfinite(score[best]) or score[best] == 0.0:
        raise InsufficientVariation("no informative overlap")
    return float(grid_r[0] - grid_s[0] - lags[best] * dt)


def _correlate_full(s: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``sum_n s[n] * r[n - lag]`` for lag = -(len(r) - 1) .. len(s) - 1.

    The same values as ``np.correlate(s, r, "full")``, in O(n log n): a
    circular correlation by real FFT, zero-padded to a power of two at least
    len(s) + len(r) - 1 long so no lag wraps onto another.
    """
    size = 1 << (s.size + r.size - 2).bit_length()
    circular = np.fft.irfft(np.fft.rfft(s, size) * np.conj(np.fft.rfft(r, size)), size)
    return np.concatenate((circular[size - (r.size - 1):], circular[:s.size]))


def split_chronological(records: list[AlignedRecord],
                        train_fraction: float) -> tuple[list[AlignedRecord], list[AlignedRecord]]:
    """Order-preserving split: first ceil(n * fraction) records train, rest test."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    if len(records) < 5:
        raise TooFewRecords(f"{len(records)} records, need at least 5")
    cut = math.ceil(len(records) * train_fraction)
    return records[:cut], records[cut:]


# -- canonical CSV layout ---------------------------------------------------------


def write_table_csv(records: list[AlignedRecord]) -> str:
    """Render records as ``index,Time,Strain,t,R1..Rn`` text."""
    n_channels = len(records[0].resistances) if records else 1
    return ",".join(table_csv_header(n_channels)) + "\n" + "".join(
        table_csv_row(i, rec.time, rec.strain, rec.t, rec.resistances)
        for i, rec in enumerate(records))


def table_csv_header(n_channels: int) -> list[str]:
    return ["index", "Time", "Strain", "t"] + [f"R{i + 1}" for i in range(n_channels)]


def table_csv_row(index: int, time: float, strain: float, t: float, resistances) -> str:
    """The ``index,Time,Strain,t,R1..Rn`` line of one row."""
    # float() first: numpy 2's repr of an np.float64 is "np.float64(...)"
    return csv_line((index, float(time), float(strain), float(t), *map(float, resistances)))


def csv_line(cells) -> str:
    """One CSV line: the shortest round-trip ``repr`` of each int or Python float.

    >>> csv_line((7, 0.1, math.nan, -math.inf, 5e-324))
    '7,0.1,nan,-inf,5e-324\\n'

    A finite float's ``repr`` is its JSON too, so a predict carries the same cells:

    >>> import json
    >>> line = csv_line((-0.0, 5e-324, 1e16))
    >>> line, [repr(v) for v in json.loads("[" + line[:-1] + "]")]
    ('-0.0,5e-324,1e+16\\n', ['-0.0', '5e-324', '1e+16'])
    """
    return ",".join(map(repr, cells)) + "\n"


def write_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` by a rename, so no reader sees a partial file.

    The new file is synced before the rename and its directory after it, so a
    power cut leaves the old file or the new one, never an empty one (POSIX).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def read_table_csv(text: str) -> list[AlignedRecord]:
    """Parse ``index,Time,Strain,t,R1..Rn`` text back into records."""
    headers, rows = _csv_rows(text)
    if len(headers) < 5 or [h.strip() for h in headers[:4]] != ["index", "Time", "Strain", "t"]:
        raise MissingColumn("index,Time,Strain,t,R1..")
    return [AlignedRecord(time=values[0], strain=values[1], t=values[2],
                          resistances=tuple(values[3:]))
            for values in _numeric_rows(len(headers), rows, 1)]
