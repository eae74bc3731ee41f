"""Per-tick telemetry rows, full-precision CSV persistence, run metrics.

One row per control tick, held by a run as an (n_ticks, len(COLUMNS))
float64 table; read_csv returns the same table. Floats are written with
shortest round-trip precision so read(write(table)) == table exactly and two
identical runs produce bit-identical files. Booleans and the passivity
selector are stored as 0.0/1.0 for uniform parsing.

Every pass over a finished table (the CSV write and read here, the passivity
audit in `tanks`) walks it BLOCK_ROWS rows at a time, so a pass holds the
table plus one block of temporaries, never a second table. Iterating
`RunResult.rows`, a TelemetryRows view of the table, is one more such pass.

Every CSV write goes through one writer, `CsvWriter`, whose job is sent
one row limit per request and formats the head of the table up to each
limit straight into the file, while this process formats the rest into an
unnamed temporary file and appends those bytes after reaping the job, so
the file is byte-identical to a one-process write. For a table of two
blocks or more the job is a `forked.Forked` child, so the two parts are
formatted in two processes at once (the simulation loop itself stays
single-threaded); for a shorter one it is a `forked.InProcess` job, which
formats each limit as it is sent. A run gives its writer a table from
`new_table`, whose shared mapping lets a forked child read the rows filled
after the fork; it starts the writer before its first tick and hands it
the rows finished so far at each perception tick, never more than one
block beyond what the job has formatted; when the loop ends, the job takes
half of the rows neither process has formatted. `write_csv` is the same
writer on a finished table, split at the middle row,
mid = (len(table) + 1) // 2, the job taking rows [:mid]. The fork makes
the writer of a long table POSIX-only.
"""

from __future__ import annotations

import mmap
import operator
import shutil
import struct
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .forked import Forked, InProcess

COLUMNS = (
    ["t"]
    + ["px", "py", "pz", "qw", "qx", "qy", "qz"]
    + ["vx", "vy", "vz", "wx", "wy", "wz"]
    + [f"fcmd_{c}" for c in ("fx", "fy", "fz", "tx", "ty", "tz")]
    + [f"fext_ee_{c}" for c in ("fx", "fy", "fz", "tx", "ty", "tz")]
    + ["fd_ee_z"]
    + ["rho_align", "rho_frc", "C", "h", "theta", "l_s"]
    + ["S_t_i", "S_t_f", "sigma_i", "sigma_f", "lam", "beta_i", "beta_f"]
    + ["perception_fresh"]
    + ["xd_x", "xd_y", "xd_z"]
)

# a row's native float64 bytes: ROW_STRUCT.pack_into(table, k * ROW_STRUCT.size, *row)
# writes row k of a C-contiguous table, the same bytes as table[k] = row, in about
# 0.5 against 1.1-1.3 us (Python 3.11, 2-vCPU x86-64)
ROW_STRUCT = struct.Struct(f"{len(COLUMNS)}d")

BLOCK_ROWS = 512  # rows per block of a pass over a table: 184 KB of float64

TelemetryRow = NamedTuple("TelemetryRow", [(c, float) for c in COLUMNS])


class TelemetryRows:
    """A read-only sequence view of a telemetry table, one TelemetryRow per tick.

    numpy reads the table itself through ``__array__``, so ``np.asarray``,
    ``rows_to_columns`` and ``write_csv`` copy nothing; a row is built only
    when it is indexed or iterated.
    """

    __slots__ = ("_table",)

    def __init__(self, table: np.ndarray):
        table = table.view()
        table.flags.writeable = False
        self._table = table

    def __array__(self, dtype=None, copy=None):
        return np.array(self._table, dtype=dtype, copy=copy)

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, i) -> TelemetryRow:
        return TelemetryRow._make(self._table[operator.index(i)].tolist())

    def __iter__(self):
        for start in range(0, len(self._table), BLOCK_ROWS):
            yield from map(TelemetryRow._make, self._table[start : start + BLOCK_ROWS].tolist())


class ParseError(ValueError):
    """Malformed telemetry CSV; the message names the offending row."""


def new_table(n_rows: int) -> np.ndarray:
    """An unfilled (n_rows, len(COLUMNS)) table, the kind every run fills.

    It lives in a shared anonymous mapping, so a forked CsvWriter sees the
    rows filled after the fork.
    """
    return np.frombuffer(mmap.mmap(-1, n_rows * len(COLUMNS) * 8)).reshape(n_rows, len(COLUMNS))


class CsvWriter:
    """A table's CSV text, header first, formatted while the table's rows are finished.

    The header is checked against the table, and the destination opens and
    gets the header, before the job starts; the module docstring describes
    the job, `hand` and `finish`. Leaving the ``with`` block closes the file;
    if the block raised, it ends a forked job first.
    """

    def __init__(self, table: np.ndarray, path, header=COLUMNS):
        if table.ndim != 2 or table.shape[1] != len(header):
            raise ValueError(f"a table of shape {table.shape} does not fit a header of {len(header)} names")
        self._table, self._handed, self._formatted = table, 0, np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
        self._fh = open(path, "w")
        try:
            self._fh.write(",".join(header) + "\n")
            self._fh.flush()  # so a forked child's copy of the file object holds nothing to write twice
            job = Forked if len(table) >= 2 * BLOCK_ROWS else InProcess
            self._job = job(f"the CSV writer of {path}", self._serve)
        except BaseException:
            self._fh.close()
            raise

    def _serve(self, limit: int) -> None:
        """The job: format the rows up to limit, from the last limit on, into the file."""
        done = int(self._formatted[0])
        _write_rows(self._fh, self._table[done:limit])
        self._fh.flush()  # a forked child leaves through os._exit, which flushes nothing
        self._formatted[0] = limit

    def hand(self, n_rows: int) -> None:
        """Let the job format rows [:n_rows], or up to one block beyond the rows it has formatted."""
        self._send(min(n_rows, int(self._formatted[0]) + BLOCK_ROWS))

    def _send(self, n_rows: int) -> None:
        if n_rows > self._handed:
            self._job.send(n_rows, f" before formatting rows {self._handed}:{n_rows}")
            self._handed = n_rows

    def finish(self, n_rows: int) -> None:
        """Write rows [:n_rows]: the job formats half of those neither process has formatted yet."""
        self._send((int(self._formatted[0]) + n_rows + 1) // 2)
        self._job.close()
        with tempfile.TemporaryFile("w+") as tail:
            _write_rows(tail, self._table[self._handed : n_rows])
            if self._job.reap():
                raise self._job.failure()
            tail.seek(0)
            shutil.copyfileobj(tail, self._fh)  # at the file offset the job moved past its rows

    def __enter__(self) -> CsvWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._job.__exit__(exc_type, exc, tb)
        finally:
            self._fh.close()


def write_csv(table, path, header=COLUMNS) -> None:
    """Write a float table (or a sequence of rows), one column per header name, as CSV.

    A CsvWriter with every row already finished, split at its middle row,
    mid = (len(table) + 1) // 2: the job formats rows [:mid] and this
    process rows [mid:].
    """
    table = np.asarray(table, dtype=float)
    with CsvWriter(table, path, header) as writer:
        writer.finish(len(table))


def _write_rows(fh, table) -> None:
    for start in range(0, len(table), BLOCK_ROWS):
        lines = [",".join(map(repr, row)) for row in table[start : start + BLOCK_ROWS].tolist()]
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> np.ndarray:
    """The (n, len(COLUMNS)) float64 table of a telemetry CSV.

    A first pass counts the rows, a second parses them a block at a time
    into the preallocated table. Blank lines are skipped.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",") != COLUMNS:
            raise ParseError("row 1: unexpected header")
        table = np.empty((sum(line != "\n" for line in fh), len(COLUMNS)))
        fh.seek(0)
        fh.readline()
        filled, block = 0, []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(COLUMNS):
                raise ParseError(f"row {lineno}: expected {len(COLUMNS)} fields, got {len(parts)}")
            try:
                block.append([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(f"row {lineno}: {exc}") from exc
            if len(block) == BLOCK_ROWS:
                table[filled : filled + BLOCK_ROWS] = block
                filled, block = filled + BLOCK_ROWS, []
        if block:
            table[filled:] = block
    return table


def rows_to_columns(rows) -> dict:
    """Column name -> numpy array, for metrics and the passivity audit.

    A float64 table is not copied: the columns are views into it.
    """
    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != len(COLUMNS):
        raise ParseError("telemetry rows have the wrong shape")
    return {name: arr[:, i] for i, name in enumerate(COLUMNS)}


@dataclass(frozen=True)
class AxisStats:
    mae: float
    rmse: float


@dataclass(frozen=True)
class RunMetrics:
    """Tracking metrics over the contact phase (rho_frc > 0.5)."""

    contact_ticks: int
    position: tuple  # AxisStats per x, y, z
    force_z: AxisStats | None
    tank_impedance_range: tuple  # (min, max) J
    tank_force_range: tuple
    rho_align_stats: tuple  # (min, max, mean)
    rho_frc_stats: tuple

    @property
    def applicable(self) -> bool:
        return self.contact_ticks > 0


def compute_metrics(columns: dict) -> RunMetrics:
    """MAE/RMSE of position per axis and of the shaped z-force.

    The force error compares the measured tool-frame z reaction against the
    commanded setpoint scaled by rho_frc. Restricted to the contact phase;
    when the run never makes contact the tracking stats are not applicable.
    """
    rho_a = columns["rho_align"]
    rho_f = columns["rho_frc"]
    mask = rho_f > 0.5
    contact_ticks = int(mask.sum())
    position, force_z = (), None
    if contact_ticks:
        position = tuple(
            _axis_stats(columns[axis][mask] - columns[desired][mask])
            for axis, desired in (("px", "xd_x"), ("py", "xd_y"), ("pz", "xd_z"))
        )
        force_z = _axis_stats(columns["fext_ee_fz"][mask] - rho_f[mask] * columns["fd_ee_z"][mask])
    return RunMetrics(
        contact_ticks=contact_ticks,
        position=position,
        force_z=force_z,
        tank_impedance_range=(float(columns["S_t_i"].min()), float(columns["S_t_i"].max())),
        tank_force_range=(float(columns["S_t_f"].min()), float(columns["S_t_f"].max())),
        rho_align_stats=(float(rho_a.min()), float(rho_a.max()), float(rho_a.mean())),
        rho_frc_stats=(float(rho_f.min()), float(rho_f.max()), float(rho_f.mean())),
    )


def _axis_stats(err: np.ndarray) -> AxisStats:
    return AxisStats(mae=float(np.abs(err).mean()), rmse=float(np.sqrt((err ** 2).mean())))


def format_report(metrics: RunMetrics, audit=None, stats: dict | None = None) -> str:
    """Human-readable run report."""
    lines = ["run report", "=" * 10]
    if metrics.applicable:
        lines.append(f"contact phase: {metrics.contact_ticks} ticks")
        for name, ax in zip(("x", "y", "z"), metrics.position):
            lines.append(f"position {name}: MAE {ax.mae:.6f} m, RMSE {ax.rmse:.6f} m")
        lines.append(f"force z: MAE {metrics.force_z.mae:.4f} N, RMSE {metrics.force_z.rmse:.4f} N")
    else:
        lines.append("contact phase: none (tracking metrics not applicable)")
    lines.append(
        "tank energies: impedance [{:.4f}, {:.4f}] J, force [{:.4f}, {:.4f}] J".format(
            *metrics.tank_impedance_range, *metrics.tank_force_range
        )
    )
    lines.append(
        "rho_align min/max/mean: {:.4f} / {:.4f} / {:.4f}".format(*metrics.rho_align_stats)
    )
    lines.append("rho_frc min/max/mean: {:.4f} / {:.4f} / {:.4f}".format(*metrics.rho_frc_stats))
    if audit is not None:
        verdict = "PASS" if audit.ok else "FAIL"
        lines.append(
            f"passivity audit: {verdict} ({audit.violation_count} violations over "
            f"{audit.ticks_checked} ticks, worst {audit.worst_violation:.3e} J at t={audit.worst_time:.3f} s)"
        )
    if stats:
        for key, val in stats.items():
            lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"
