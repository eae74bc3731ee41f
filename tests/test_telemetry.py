import os
import re

import numpy as np
import pytest

from conftest import shared_counts, traced_peak
from vauf import telemetry
from vauf.telemetry import (
    BLOCK_ROWS,
    COLUMNS,
    ParseError,
    TelemetryRow,
    compute_metrics,
    format_report,
    read_csv,
    rows_to_columns,
    write_csv,
)


def make_row(**overrides):
    vals = {c: 0.0 for c in COLUMNS}
    vals["qw"] = 1.0
    vals.update(overrides)
    return TelemetryRow(**vals)


def synthetic_rows(n=50, fz_err=0.0, rho_frc=1.0, fd=15.0, alternating=False):
    rows = []
    for k in range(n):
        err = fz_err if not alternating else (fz_err if k % 2 == 0 else -fz_err)
        rows.append(
            make_row(
                t=k * 1e-3,
                rho_frc=rho_frc,
                fd_ee_z=fd,
                fext_ee_fz=rho_frc * fd + err,
                S_t_i=24.5,
                S_t_f=2.0,
            )
        )
    return rows


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [TelemetryRow(*rng.normal(size=len(COLUMNS))) for _ in range(200)]
        path = tmp_path / "t.csv"
        write_csv(rows, path)
        table = read_csv(path)
        assert table.dtype == np.float64 and table.shape == (200, len(COLUMNS))
        assert np.array_equal(table, np.asarray(rows))

    def test_header_only_reads_empty_table(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(np.empty((0, len(COLUMNS))), path)
        assert path.read_text() == ",".join(COLUMNS) + "\n"
        assert read_csv(path).shape == (0, len(COLUMNS))

    def test_custom_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(np.array([[0.1, 2.0], [-3.5, 1e-300]]), path, ["a", "b"])
        assert path.read_text() == "a,b\n0.1,2.0\n-3.5,1e-300\n"

    @pytest.mark.parametrize("shape", [(3, 2), (3,), (2, 1, 1)])
    def test_header_must_fit_the_table(self, shape, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))} does not fit a header of 1 names"):
            write_csv(np.zeros(shape), path, ["a"])
        with pytest.raises(ValueError, match="does not fit a header of 1 names"):
            telemetry.CsvWriter(np.zeros(shape), path, ["a"])
        assert path.read_bytes() == b"kept\n"

    def test_bit_identical_rewrite(self, tmp_path):
        rows = synthetic_rows(100, fz_err=0.123456789012345678)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, p1)
        write_csv(read_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(synthetic_rows(5), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 2)[0]  # drop two fields from row 3
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 4"):
            read_csv(path)

    def test_bad_float_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(synthetic_rows(5), path)
        text = path.read_text().replace("24.5", "not_a_number", 1)
        path.write_text(text)
        with pytest.raises(ParseError, match="row 2"):
            read_csv(path)

    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
    def test_round_trip_across_blocks(self, n, tmp_path):
        table = np.random.default_rng(n).normal(size=(n, len(COLUMNS)))
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert path.read_text().count("\n") == n + 1
        assert np.array_equal(read_csv(path), table)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(synthetic_rows(3), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + ["", ""] + lines[2:]) + "\n\n")
        assert np.array_equal(read_csv(path), np.asarray(synthetic_rows(3)))
        path.write_text("\n".join(lines[:2] + ["", "1,2"] + lines[2:]) + "\n")
        with pytest.raises(ParseError, match="row 4: expected"):
            read_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError, match="row 1"):
            read_csv(path)


def one_process_csv(table, header=COLUMNS) -> bytes:
    """The CSV text of a table, formatted row by row in this process."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in np.asarray(table).tolist()]
    return ("\n".join(lines) + "\n").encode()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


SPECIALS = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308]


def special_table(n, width=len(COLUMNS)):
    """n rows of normal draws with every value of SPECIALS in both halves of the split."""
    table = np.random.default_rng(n).normal(size=(n, width))
    table.flat[::7] = np.resize(SPECIALS, table.flat[::7].shape)
    return table


class TestSplitWrite:
    """write_csv formats a table of two blocks or more in two processes."""

    @pytest.mark.parametrize("n", [0, 1, 511, 512, 1023, 1024, 1025, 1536, 2049])
    def test_byte_identical_to_one_process(self, n, tmp_path):
        table = special_table(n)
        write_csv(table, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == one_process_csv(table)
        assert_no_child()

    def test_custom_header(self, tmp_path):
        table = special_table(3 * BLOCK_ROWS, width=3)
        write_csv(table, tmp_path / "t.csv", ["a", "b", "c"])
        assert (tmp_path / "t.csv").read_bytes() == one_process_csv(table, ["a", "b", "c"])
        assert_no_child()

    @pytest.mark.parametrize("n, forks", [(2 * BLOCK_ROWS - 1, 0), (2 * BLOCK_ROWS, 1)])
    def test_fork_only_from_two_blocks(self, n, forks, tmp_path, monkeypatch):
        calls = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
        write_csv(special_table(n), tmp_path / "t.csv")
        assert len(calls) == forks

    @pytest.mark.parametrize("n, head", [(2049, 1025), (20_000, 10_000)])
    def test_split_at_the_middle_row(self, n, head, tmp_path, monkeypatch):
        parent, heads = os.getpid(), shared_counts(2)  # the child formats the head: its calls and rows
        write_rows = telemetry._write_rows

        def record_head(fh, rows):
            if os.getpid() != parent:
                heads[:] += (1, len(rows))
            write_rows(fh, rows)

        monkeypatch.setattr(telemetry, "_write_rows", record_head)
        write_csv(special_table(n, width=3), tmp_path / "t.csv", ["a", "b", "c"])
        assert heads.tolist() == [1, head]
        assert_no_child()

    def test_failed_child_raises(self, tmp_path, monkeypatch):
        n = 3 * BLOCK_ROWS  # the child formats rows [:768], the parent [768:]
        parent = os.getpid()
        write_rows = telemetry._write_rows

        def fail_on_tail(fh, rows):
            if os.getpid() != parent:
                raise RuntimeError("tail")
            write_rows(fh, rows)

        monkeypatch.setattr(telemetry, "_write_rows", fail_on_tail)
        with pytest.raises(OSError, match="exited with status 1"):
            write_csv(special_table(n), tmp_path / "t.csv")
        assert_no_child()

    def test_failed_parent_reaps_child(self, tmp_path, monkeypatch):
        parent = os.getpid()
        write_rows = telemetry._write_rows

        def fail_on_head(fh, rows):
            if os.getpid() == parent:
                raise RuntimeError("head")
            write_rows(fh, rows)

        monkeypatch.setattr(telemetry, "_write_rows", fail_on_head)
        with pytest.raises(RuntimeError, match="head"):
            write_csv(special_table(3 * BLOCK_ROWS), tmp_path / "t.csv")
        assert_no_child()

    def test_missing_directory_raises_before_fork(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked before the destination opened")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(FileNotFoundError):
            write_csv(special_table(2 * BLOCK_ROWS), tmp_path / "missing" / "t.csv")
        assert_no_child()


class TestCsvWriter:
    """A CsvWriter formats a table while it is filled, byte-identical to one process."""

    @pytest.mark.parametrize(
        "n, end", [(2 * BLOCK_ROWS, None), (3 * BLOCK_ROWS + 7, None), (20_000, None), (3000, 1451)]
    )
    def test_rows_handed_while_filled(self, n, end, tmp_path):
        table, filled = special_table(n), telemetry.new_table(n)
        end = n if end is None else end  # a run that ends early finishes fewer rows than it allocated
        with telemetry.CsvWriter(filled, tmp_path / "t.csv") as writer:
            for k in range(0, end, 300):
                filled[k : k + 300] = table[k : k + 300]
                writer.hand(min(k + 300, end))
            writer.finish(end)
        assert (tmp_path / "t.csv").read_bytes() == one_process_csv(table[:end])
        assert_no_child()

    def test_handed_one_block_beyond_the_formatted_rows(self, tmp_path, monkeypatch):
        parent, chunks = os.getpid(), shared_counts(3)  # the child's calls, then the rows of each
        write_rows = telemetry._write_rows

        def record_chunk(fh, rows):
            if os.getpid() != parent:
                calls = int(chunks[0])
                chunks[0] += 1
                chunks[1 + min(calls, 1)] += len(rows)
            write_rows(fh, rows)

        monkeypatch.setattr(telemetry, "_write_rows", record_chunk)
        table = special_table(4 * BLOCK_ROWS)
        with telemetry.CsvWriter(table, tmp_path / "t.csv") as writer:
            writer.hand(len(table))  # the child has formatted nothing yet
            writer.finish(len(table))
        assert chunks[1] == BLOCK_ROWS and sum(chunks[1:]) <= (len(table) + BLOCK_ROWS + 1) // 2
        assert (tmp_path / "t.csv").read_bytes() == one_process_csv(table)

    def test_short_table_forks_no_child(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked for a table of less than two blocks")

        monkeypatch.setattr(os, "fork", no_fork)
        table = telemetry.new_table(2 * BLOCK_ROWS - 1)
        table[:] = special_table(len(table))
        with telemetry.CsvWriter(table, tmp_path / "t.csv") as writer:
            writer.hand(BLOCK_ROWS)
            writer.finish(len(table))
        assert (tmp_path / "t.csv").read_bytes() == one_process_csv(table)


class TestPassMemory:
    """A pass over the 7 MB reference table holds one block of it at a time."""

    def test_write_holds_one_block(self, reference_run, tmp_path):
        # a row formatted as Python floats and a line takes about 2.9 KB:
        # the bound holds about 700 rows, not thousands
        assert traced_peak(lambda: write_csv(reference_run.table, tmp_path / "t.csv")) < 2e6

    def test_read_fills_one_table(self, reference_run, tmp_path):
        # the table plus one and a half of it; every row parsed into a list
        # of Python floats before the table is built takes about five
        path = tmp_path / "t.csv"
        write_csv(reference_run.table, path)
        assert traced_peak(lambda: read_csv(path)) < 2.5 * reference_run.table.nbytes


class TestComputeMetrics:
    def test_zero_error_log(self):
        m = compute_metrics(rows_to_columns(synthetic_rows(100)))
        assert m.applicable
        assert m.force_z.mae == 0.0 and m.force_z.rmse == 0.0
        assert all(ax.mae == 0.0 for ax in m.position)

    def test_constant_error(self):
        m = compute_metrics(rows_to_columns(synthetic_rows(100, fz_err=2.0)))
        assert m.force_z.mae == pytest.approx(2.0)
        assert m.force_z.rmse == pytest.approx(2.0)

    def test_alternating_error(self):
        m = compute_metrics(rows_to_columns(synthetic_rows(100, fz_err=1.0, alternating=True)))
        assert m.force_z.mae == pytest.approx(1.0)
        assert m.force_z.rmse == pytest.approx(1.0)

    def test_no_contact_phase(self):
        m = compute_metrics(rows_to_columns(synthetic_rows(50, rho_frc=0.2)))
        assert not m.applicable
        assert m.force_z is None

    def test_position_errors(self):
        rows = [make_row(t=k * 1e-3, rho_frc=1.0, px=0.003, xd_x=0.001, S_t_i=24.5, S_t_f=2.0) for k in range(10)]
        m = compute_metrics(rows_to_columns(rows))
        assert m.position[0].mae == pytest.approx(0.002)

    def test_tank_ranges(self):
        rows = synthetic_rows(10)
        m = compute_metrics(rows_to_columns(rows))
        assert m.tank_impedance_range == (24.5, 24.5)
        assert m.tank_force_range == (2.0, 2.0)


class TestFormatReport:
    def test_sections_present(self):
        m = compute_metrics(rows_to_columns(synthetic_rows(20)))
        text = format_report(m, None, {"ticks": 20})
        assert "force z" in text and "tank energies" in text and "ticks" in text

    def test_not_applicable(self):
        m = compute_metrics(rows_to_columns(synthetic_rows(20, rho_frc=0.0)))
        assert "not applicable" in format_report(m)
