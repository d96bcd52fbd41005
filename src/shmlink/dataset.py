"""Mechanical-test and resistance-log ingestion, clock synchronization, CSV I/O.

Tensile tests and resistance telemetry are recorded by different instruments
on different clocks.  This module parses both exports, estimates the clock
offset by cross-correlating strain against mean resistance change, joins the
two series into aligned records, and reads/writes them in the canonical
``index,Time,Strain,t,R1..Rn`` layout (UTF-8, comma separator, shortest
round-trip float rendering).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

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
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if not rows:
        raise MissingColumn("time")
    headers = rows[0]
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
    for lineno, row in enumerate(rows[1:], start=2):
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
            # scale in decimal space so "0.81" % lands exactly on 0.0081
            try:
                strain = float(Decimal(row[strain_col].strip()) / 100)
            except InvalidOperation:
                raise MalformedRow(lineno, f"non-numeric value {row[strain_col]!r}") from None
        samples.append(MechanicalSample(time=time, strain=strain, stress=cell(stress_col),
                                        force=cell(force_col), displacement=cell(disp_col)))
    return samples


def parse_resistance_csv(text: str) -> list[ResistanceSample]:
    """Parse a resistance log with header ``t,R1..Rn``."""
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if not rows:
        raise MissingColumn("t")
    headers = [h.strip().lower() for h in rows[0]]
    if not headers or headers[0] not in ("t", "time"):
        raise MissingColumn("t")
    n_channels = len(headers) - 1
    if n_channels < 1:
        raise MissingColumn("R1")
    samples = []
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            values = [float(v) for v in row]
        except ValueError:
            raise MalformedRow(lineno, f"non-numeric value in {row!r}") from None
        if len(values) != n_channels + 1:
            raise MalformedRow(lineno, f"expected {n_channels + 1} values, got {len(values)}")
        samples.append(ResistanceSample(t=values[0], resistances=tuple(values[1:])))
    return samples


# -- synchronization -------------------------------------------------------------


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
    instead.  Mechanical samples outside the overlap are dropped.
    """
    if not mech or not res:
        raise NoOverlap("empty series")
    res_t = np.array([s.t for s in res])
    res_r = np.array([s.resistances for s in res])
    half_interval = _median_interval(res_t) / 2.0
    lo, hi = res_t[0], res_t[-1]

    records = []
    for m in mech:
        target = m.time + offset
        if target < lo or target > hi:
            continue
        idx = int(np.searchsorted(res_t, target))
        best = min((i for i in (idx - 1, idx, idx + 1) if 0 <= i < res_t.size),
                   key=lambda i: abs(res_t[i] - target))
        if abs(res_t[best] - target) <= half_interval or res_t.size < 2:
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
    substantially, and small-overlap lags alias on cyclic loads.
    """
    if len(mech) < 10 or len(res) < 10:
        raise InsufficientVariation("need at least 10 samples per series")
    mech_t = np.array([s.time for s in mech])
    strain = np.array([s.strain for s in mech])
    res_t = np.array([s.t for s in res])
    mean_r = np.array([np.mean(s.resistances) for s in res])
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
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table_csv_header(n_channels))
    for i, rec in enumerate(records):
        # float() first: repr of float is the shortest round-trip decimal,
        # whatever numeric scalar type the caller handed us
        writer.writerow([i, repr(float(rec.time)), repr(float(rec.strain)),
                         repr(float(rec.t)), *(repr(float(r)) for r in rec.resistances)])
    return out.getvalue()


def table_csv_header(n_channels: int) -> list[str]:
    return ["index", "Time", "Strain", "t"] + [f"R{i + 1}" for i in range(n_channels)]


def read_table_csv(text: str) -> list[AlignedRecord]:
    """Parse ``index,Time,Strain,t,R1..Rn`` text back into records."""
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if not rows:
        raise MissingColumn("Time")
    headers = [h.strip() for h in rows[0]]
    if len(headers) < 5 or headers[:4] != ["index", "Time", "Strain", "t"]:
        raise MissingColumn("index,Time,Strain,t,R1..")
    n_channels = len(headers) - 4
    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(headers):
            raise MalformedRow(lineno, f"expected {len(headers)} cells, got {len(row)}")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise MalformedRow(lineno, f"non-numeric value in {row!r}") from None
        records.append(AlignedRecord(time=values[0], strain=values[1], t=values[2],
                                     resistances=tuple(values[3:3 + n_channels])))
    return records
