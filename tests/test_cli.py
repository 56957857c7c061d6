"""Command-line interface: formats, metadata, determinism, exit codes."""

import csv
import io
import json
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import run_with_blas_threads
from wamlab.arith import is_prime
from wamlab.cli import main
from wamlab.ffpoly import FpPoly


def run(argv):
    """Invoke the CLI, capturing streams and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_file(tmp_path, argv, name="out.txt"):
    path = tmp_path / name
    code, _, err = run(argv + ["--out", str(path)])
    assert code == 0, err
    return path.read_text()


def meta_lines(text):
    return {
        line[2:].split(":", 1)[0]: line[2:].split(":", 1)[1].strip()
        for line in text.splitlines()
        if line.startswith("# ")
    }


def body_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def next_prime_at_least(n):
    while not is_prime(n):
        n += 1
    return n


HARD_SEMIPRIME = next_prime_at_least(1 << 36) * next_prime_at_least(1 << 37)


class TestScalarCommands:
    def test_wam_value(self):
        code, out, _ = run(["wam", "72", "--s", "1"])
        assert code == 0
        assert body_lines(out) == ["2.3868528072345416"]
        meta = meta_lines(out)
        assert meta["log_base"] == "natural"
        assert meta["command"] == "wam"
        assert meta["s"] == "1.0"

    def test_wam_complex_point(self):
        code, out, _ = run(["wam", "72", "--s", "0.5,3"])
        assert code == 0
        # one scalar line formatted as a complex number
        value = complex(body_lines(out)[0])
        assert abs(value.imag) > 0

    def test_wam_pole_prints_pole(self):
        b = math.pi / math.log(math.log(3) / math.log(2))
        code, out, _ = run(["wam", "72", "--s", f"0,{b}"])
        assert code == 0
        assert body_lines(out) == ["pole"]

    def test_acrit_value_and_none(self):
        code, out, _ = run(["acrit", "30"])
        assert code == 0
        assert abs(float(body_lines(out)[0]) - 1.1932950207262243) < 1e-9

        code, out, _ = run(["acrit", "8"])
        assert code == 0
        assert body_lines(out) == ["none"]

    def test_cyclo_value(self):
        code, out, _ = run(["cyclo", "--p", "5", "--s", "1"])
        assert code == 0
        assert abs(float(body_lines(out)[0]) - 11 / 7) < 1e-12

    @pytest.mark.parametrize("s,value", [("2000", 1.0), ("-2000", 3.0), ("700,30", 1.0)])
    def test_cyclo_large_exponents(self, s, value):
        code, out, err = run(["cyclo", "--p", "5", "--s", s])
        assert code == 0, err
        assert abs(float(body_lines(out)[0]) - value) < 1e-12

    @pytest.mark.parametrize("argv", [["30", "--s=-2000"], ["30030", "--s", "5000"]])
    def test_wam_large_exponents(self, argv):
        code, out, err = run(["wam", *argv])
        assert code == 0, err
        assert body_lines(out) == ["1.0"]

    def test_json_scalar(self):
        code, out, _ = run(["wam", "72", "--s", "1", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["command"] == "wam"
        assert abs(doc["value"]["re"] - 2.3868528072345416) < 1e-15
        assert doc["value"]["im"] == 0.0


class TestTableCommands:
    def test_factor_rows(self):
        code, out, _ = run(["factor", "72"])
        assert code == 0
        assert body_lines(out) == ["p,e", "2,3", "3,2"]

    def test_zeros_columns_and_rows(self):
        code, out, _ = run(["zeros", "6", "--re", "-1:1", "--im", "0:50"])
        assert code == 0
        rows = list(csv.DictReader(body_lines(out)))
        assert len(rows) == 4
        assert set(rows[0]) == {"re", "im", "residual", "numerator_magnitude", "classification"}
        assert all(row["classification"] == "removable" for row in rows)
        assert abs(float(rows[0]["im"]) - 6.821234041066631) < 1e-8
        meta = meta_lines(out)
        assert meta["deduplicated"] == "4"
        dropped = int(meta["out_of_region"]) + int(meta["deduplicated"])
        assert int(meta["converged"]) == len(rows) + dropped

    def test_zeros_negative_range_parses(self):
        code, out, _ = run(["zeros", "30", "--re", "-1:2.5", "--im", "-20:20"])
        assert code == 0
        rows = list(csv.DictReader(body_lines(out)))
        imags = sorted(float(r["im"]) for r in rows)
        assert imags[0] < 0 < imags[-1]

    def test_em_hist_from_generation(self):
        code, out, _ = run(["em-hist", "--gen", "10000", "--min-quality", "1.0"])
        assert code == 0
        rows = list(csv.DictReader(body_lines(out)))
        hist = {int(r["e_m"]): int(r["count"]) for r in rows}
        assert hist == {1: 60, 2: 44, 3: 17, 4: 1}

    def test_mersenne_table(self):
        code, out, _ = run(["mersenne", "--nmax", "12", "--s", "0.5"])
        assert code == 0
        rows = list(csv.DictReader(body_lines(out)))
        assert len(rows) == 11
        assert [r["n"] for r in rows] == [str(n) for n in range(2, 13)]
        for row in rows:
            assert row["holds"] == "true"

    def test_bounds_check_all_hold(self):
        code, out, _ = run(["bounds-check", "--nmax", "20"])
        assert code == 0
        rows = list(csv.DictReader(body_lines(out)))
        assert rows
        assert all(r["holds"] == "true" for r in rows)
        # the full grid: every n gets one row per probe point
        ns = {int(r["n"]) for r in rows}
        assert ns == set(range(2, 21))

    def test_critical_line_row(self):
        code, out, _ = run(["critical-line", "30", "--bmax", "1000", "--samples", "20000"])
        assert code == 0
        rows = list(csv.DictReader(body_lines(out)))
        assert len(rows) == 1
        assert float(rows[0]["min_abs_f"]) > 0
        assert 0 <= float(rows[0]["argmin_b"]) <= 1000

    def test_acrit_scan_columns(self):
        code, out, _ = run(["acrit-scan", "--gen", "500", "--min-quality", "1.0"])
        assert code == 0
        rows = list(csv.DictReader(body_lines(out)))
        assert rows
        for row in rows:
            assert {"a", "b", "c", "quality", "p_m", "a_crit"} <= set(row)

    def test_poly_triple_cells_parse_back(self):
        code, out, _ = run(["poly-triple", "--q", "5", "--n", "3"])
        assert code == 0
        rows = list(csv.DictReader(body_lines(out)))
        assert len(rows) == 1
        row = rows[0]
        a = FpPoly.parse(row["a"])
        b = FpPoly.parse(row["b"])
        c = FpPoly.parse(row["c"])
        assert a + b == c
        assert row["mason_holds"] == "true"

    def test_json_table(self):
        code, out, _ = run(["factor", "72", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["p", "e"]
        assert doc["rows"] == [[2, 3], [3, 2]]


class TestHeatmapCommand:
    def test_axes_and_symmetry(self, tmp_path):
        text = run_file(
            tmp_path,
            ["heatmap", "--gen", "300", "--re", "-2:2", "--im", "-2:2", "--step", "0.5"],
        )
        rows = body_lines(text)
        header = rows[0].split(",")
        assert header[0] == "im\\re"
        assert [float(x) for x in header[1:]] == [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]
        data = [row.split(",") for row in rows[1:]]
        assert len(data) == 9
        # conjugate symmetry: the row at +b equals the row at -b exactly
        for i in range(len(data)):
            assert data[i][1:] == data[len(data) - 1 - i][1:]

    def test_dataset_input(self, tmp_path):
        dataset = tmp_path / "triples.txt"
        dataset.write_text("1 8 9\n3 125 128\n")
        text = run_file(
            tmp_path,
            ["heatmap", "--triples", str(dataset), "--re", "0:1", "--im", "0:1", "--step", "0.5"],
            name="grid.csv",
        )
        meta = meta_lines(text)
        assert meta["triples"] == "2"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["zeros", "30", "--re", "-1:2.5", "--im", "0:40"],
            ["heatmap", "--gen", "500", "--re", "-3:3", "--im", "-3:3", "--step", "0.25"],
            ["em-hist", "--gen", "2000"],
            ["poly-triple", "--q", "2", "--n", "9"],
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, argv):
        first = run_file(tmp_path, argv, name="a.txt")
        second = run_file(tmp_path, argv, name="b.txt")
        assert first == second

    def test_heatmap_insensitive_to_thread_count(self, tmp_path):
        # Large enough that OpenBLAS splits the grid products across threads.
        argv = ["heatmap", "--gen", "400", "--re", "-6:6", "--im", "-6:6", "--step", "0.02"]
        outputs = []
        for threads in (1, 2):
            path = tmp_path / f"threads-{threads}.csv"
            run_with_blas_threads(threads, ["-m", "wamlab.cli", *argv, "--out", str(path)])
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestDatasetIssues:
    def test_bad_lines_reported_on_stderr(self, tmp_path):
        dataset = tmp_path / "mixed.txt"
        dataset.write_text("1 8 9\n1 2 4\n3 125 128\n")
        code, out, err = run(["em-hist", "--triples", str(dataset)])
        assert code == 0
        assert ":2:" in err  # path:line style
        meta = meta_lines(out)
        assert meta["parse_issues"] == "1"
        assert meta["triples"] == "2"

    def test_empty_dataset_fails(self, tmp_path):
        dataset = tmp_path / "empty.txt"
        dataset.write_text("# nothing\n")
        code, _, err = run(["em-hist", "--triples", str(dataset)])
        assert code == 1
        assert err


class TestExitCodes:
    def test_success(self):
        assert run(["factor", "72"])[0] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", "0"],
            ["wam", "1", "--s", "1"],
            ["zeros", "6", "--re", "1:0", "--im", "0:10"],
            ["zeros", "8", "--re", "-1:1", "--im", "0:10"],
            ["cyclo", "--p", "4", "--s", "1"],
            ["poly-triple", "--q", "2", "--n", "20"],
            ["critical-line", "6", "--bmax", "100", "--samples", "10"],
        ],
    )
    def test_validation_failures(self, argv):
        code, _, err = run(argv)
        assert code == 1
        assert err.startswith("wamlab:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", str(HARD_SEMIPRIME), "--budget", "50"],
            ["poly-triple", "--q", "2", "--n", "27"],
        ],
    )
    def test_resource_failures(self, argv):
        code, _, err = run(argv)
        assert code == 2
        assert err.startswith("wamlab:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["heatmap", "--gen", "100", "--step", "1e-9"],
            ["heatmap", "--gen", "100", "--re", "0:0.001", "--step", "1e-9"],
            ["zeros", "30", "--step", "1e-9"],
            ["zeros", "30", "--step", "1e-320"],
        ],
    )
    def test_oversized_grids_are_refused_before_allocation(self, argv):
        tracemalloc.start()
        try:
            code, _, err = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert err.startswith("wamlab:")
        assert peak < 8 * 2**20

    def test_usage_failures(self):
        assert run([])[0] == 1
        assert run(["factor"])[0] == 1
        assert run(["factor", "72", "--format", "xml"])[0] == 1
        assert run(["no-such-command"])[0] == 1

    def test_version(self):
        code, out, _ = run(["--version"])
        assert code == 0
        assert out.strip().startswith("wamlab ")


class TestOutputFiles:
    def test_out_flag_writes_file_and_keeps_stdout_clean(self, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run(["factor", "72", "--out", str(path)])
        assert code == 0
        assert out == ""
        assert "2,3" in path.read_text()

    def test_metadata_has_tool_and_log_base(self, tmp_path):
        text = run_file(tmp_path, ["factor", "72"])
        meta = meta_lines(text)
        assert meta["tool"].startswith("wamlab")
        assert meta["log_base"] == "natural"
        assert "seed" not in meta
