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

The CSV write of a table of two blocks or more runs in two processes at
once; the simulation loop itself stays single-threaded. The rows split at
the middle row, mid = (len(table) + 1) // 2, so this process, which starts
first, takes the odd row: it writes the header and rows [:mid], an os.fork()ed
child formats rows [mid:] with the same per-block code into an unnamed
temporary file, and this process appends those bytes after reaping the
child, so the file is byte-identical to a one-process write. A shorter table
is written in this process alone. os.fork makes the writer POSIX-only, and
Python 3.12 and later warn (DeprecationWarning) when a process with threads
forks; OpenBLAS's thread pool counts, so CI pins Python 3.11 with one BLAS
thread.
"""

from __future__ import annotations

import operator
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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


def write_csv(table, path, header=COLUMNS) -> None:
    """Write a float table (or a sequence of rows), one column per header name, as CSV.

    A table of two blocks or more is formatted by two processes at once:
    this one writes rows [:mid], a forked child formats rows [mid:] into an
    unnamed temporary file, and this one appends them once the child exits.
    """
    table = np.asarray(table, dtype=float)
    mid = (len(table) + 1) // 2 if len(table) >= 2 * BLOCK_ROWS else 0
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if not mid:
            _write_rows(fh, table)
            return
        with tempfile.TemporaryFile("w+") as tail:
            pid = os.fork()
            if pid == 0:  # the child leaves only through os._exit, running no cleanup of this process
                status = 1
                try:
                    _write_rows(tail, table[mid:])
                    tail.flush()
                    status = 0
                finally:
                    os._exit(status)
            try:
                _write_rows(fh, table[:mid])
            finally:
                _, status = os.waitpid(pid, 0)
            if status:
                code = os.waitstatus_to_exitcode(status)
                raise OSError(f"the child formatting rows {mid}: of {path} exited with status {code}")
            tail.seek(0)
            shutil.copyfileobj(tail, fh)


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
