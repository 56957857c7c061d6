"""Command-line interface: formats, metadata, determinism, exit codes."""

import csv
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import wamlab
from wamlab import cli, triples, wamcore, zeros
from conftest import run_with_blas_threads
from wamlab.arith import _brent_rho, factor, is_prime
from wamlab.cli import _cell, _csv_cell, _fmt, main
from wamlab.critical import critical_abscissa
from wamlab.triples import generate_triples, max_wam_heatmap
from wamlab.zeros import SearchRegion
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
# The square search splits HARD_SEMIPRIME on trial 15, after the rho probe:
# this budget leaves it 14 trials.
HARD_BUDGET = _brent_rho(HARD_SEMIPRIME, 0, 50)[1] + 14


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
        assert abs(float(body_lines(out)[0]) - 5 / 3) < 1e-12

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
        for re in ("-1:2.5", "-.5:2.5"):
            code, out, _ = run(["zeros", "30", "--re", re, "--im", "-20:20"])
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

    def test_mersenne_right_of_the_bounds_prints_wam_alone(self):
        # The bounds hold for Re s < 1 only: at Re s >= 1 each row's wam is
        # that of 2^n (2^n - 1) and its three margin columns are empty.
        code, out, err = run(["mersenne", "--nmax", "12", "--s", "1.5,2"])
        assert code == 0, err
        rows = list(csv.DictReader(body_lines(out)))
        assert [int(r["n"]) for r in rows] == list(range(2, 13))
        for row in rows:
            n = int(row["n"])
            assert complex(row["wam"]) == wamcore.wam_at(factor(2**n * (2**n - 1)), 1.5 + 2j).value
            assert (row["lemma_margin"], row["goal_margin"], row["holds"]) == ("", "", "")

    @pytest.mark.parametrize("s", ["-8000", "-1e6,2"])
    def test_mersenne_holds_where_the_lemma_sides_underflow(self, s):
        code, out, _ = run(["mersenne", "--nmax", "63", f"--s={s}"])
        assert code == 0
        rows = list(csv.DictReader(body_lines(out)))
        assert len(rows) == 62
        for row in rows:
            assert (row["lemma_margin"], row["holds"]) == ("0.0", "true")

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

    def test_acrit_scan_rows_equal_per_triple_abscissa(self):
        code, out, _ = run(["acrit-scan", "--gen", "3000", "--min-quality", "0.9"])
        assert code == 0
        rows = list(csv.DictReader(body_lines(out)))
        triples = generate_triples(3000, 0.9)
        assert len(rows) == len(triples)
        for row, t in zip(rows, triples):
            f = t.abc_factorization
            assert (int(row["a"]), int(row["b"]), int(row["c"])) == (t.a, t.b, t.c)
            assert int(row["p_m"]) == f.primes[-1]
            assert row["a_crit"] == _fmt(critical_abscissa(f).a_crit)

    @pytest.mark.parametrize("n", ["23", "25"])
    def test_poly_triple_past_a_third_of_the_factoring_degree(self, n):
        # a*b*c has degree 3n > 64, which poly_factor refuses; a, b and c do not.
        code, out, err = run(["poly-triple", "--q", "2", "--n", n])
        assert (code, err) == (0, "")
        assert list(csv.DictReader(body_lines(out)))[0]["mason_holds"] == "true"

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

    @pytest.mark.parametrize("im", ["-2:2", "-2.1:2.1", "-1:2", "0:0.1"])
    def test_rows_equal_a_rendering_of_every_cell(self, tmp_path, im):
        # Mirrored rows reuse the text of the row they copy; the file must
        # still be what rendering each cell of each row gives.
        argv = ["heatmap", "--gen", "300", "--re", "-2:2", "--im", im, "--step", "0.2"]
        text = run_file(tmp_path, argv)
        lo, hi = map(float, im.split(":"))
        grid = max_wam_heatmap(generate_triples(300), SearchRegion(-2.0, 2.0, lo, hi, 0.2))
        expected = [
            ",".join(map(_cell, [y] + row))
            for y, row in zip(grid.im_axis.tolist(), grid.cells.tolist())
        ]
        assert body_lines(text)[1:] == expected


    @pytest.mark.parametrize("im,fmt", [("-6:6", "csv"), ("-5:6", "csv"), ("-6:6", "json")])
    def test_streamed_file_equals_the_rendered_table(self, tmp_path, im, fmt):
        # The CSV is written row by row from the grid; every byte must be
        # what rendering the whole table cell by cell with _cell gives (and,
        # for JSON, what json.dumps gives the same rows).
        dataset = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "triples_c10000.txt")
        argv = ["heatmap", "--triples", dataset, "--re", "-6:6", "--im", im, "--step", "0.04"]
        text = run_file(tmp_path, [*argv, "--format", fmt])
        lo, hi = map(float, im.split(":"))
        grid = max_wam_heatmap(list(triples.DatasetParse(dataset)), SearchRegion(-6.0, 6.0, lo, hi, 0.04))
        assert grid.mirrored == (150 if im == "-6:6" else 0)
        header = ["im\\re"] + [_fmt(v) for v in grid.re_axis]
        rows = [[y] + row for y, row in zip(grid.im_axis.tolist(), grid.cells.tolist())]
        if fmt == "json":
            meta = json.loads(text)["meta"]
            assert text == json.dumps({"meta": meta, "columns": header, "rows": rows}) + "\n"
        else:
            meta = [line for line in text.splitlines(keepends=True) if line.startswith("# ")]
            table = [",".join(map(_cell, r)) + "\n" for r in [header, *rows]]
            assert text == "".join(meta + table)


class TestSharedGeneration:
    def test_survey_commands_generate_once_per_source(self, monkeypatch, tmp_path):
        # triple_survey.py runs these three in one process on one --gen set.
        sieved = []
        sieve = triples._radical_sieve
        monkeypatch.setattr(triples, "_radical_sieve", lambda n: sieved.append(n) or sieve(n))
        source = ["--gen", "2000", "--min-quality", "1.0"]
        for argv in (["heatmap", "--step", "0.5"], ["em-hist"], ["acrit-scan"]):
            run_file(tmp_path, [*argv, *source], name=f"{argv[0]}.csv")
        assert sieved == [2000]
        run_file(tmp_path, ["em-hist", "--gen", "2000", "--min-quality", "1.1"])
        assert sieved == [2000, 2000]

    def test_generation_over_the_triple_cap_exits_2(self, monkeypatch):
        monkeypatch.setattr(triples, "_GENERATE_MAX_TRIPLES", 1000)
        code, out, err = run(["em-hist", "--gen", "500", "--min-quality", "0"])
        assert code == 2
        assert out == ""
        assert err.startswith("wamlab:") and "1000 triples" in err

    def test_nan_min_quality_is_refused_before_the_sieve(self, monkeypatch, tmp_path):
        sieved = []
        sieve = triples._radical_sieve
        monkeypatch.setattr(triples, "_radical_sieve", lambda n: sieved.append(n) or sieve(n))
        code, out, err = run(["em-hist", "--gen", "1000", "--min-quality", "nan"])
        assert (code, out, sieved) == (1, "", [])
        assert err.startswith("wamlab:") and "min_quality" in err
        assert "no triples" not in err
        text = run_file(tmp_path, ["em-hist", "--gen", "1000", "--min-quality", "1.25"])
        assert sieved == [1000]
        assert int(meta_lines(text)["triples"]) > 0

    def test_generation_over_the_triple_cap_validates_nothing(self, monkeypatch):
        # At q = 0 every coprime pair with c <= 10^4 survives the prefilter,
        # far more than 2^20: the scan stops at the cap, before any pair is
        # validated.
        def refuse(*abc):
            raise AssertionError(f"validated {abc}")

        monkeypatch.setattr(triples, "validate_triple", refuse)
        code, out, err = run(["em-hist", "--gen", "10000", "--min-quality", "0"])
        assert (code, out) == (2, "")
        assert err.startswith("wamlab:") and f"{1 << 20} triples" in err


#: SHA-256 of the Mersenne sweeps' whole output, header included.
MERSENNE_PINS = [
    (["bounds-check", "--nmax", "63"], "e8dadac99ea937293fb82238dc61e765d0a6f41d30faa4cb1938be5d2dd1d40c"),
    (["bounds-check", "--nmax", "63", "--format", "json"], "b2352f16b17f48bffcdc4a74307f3b44e69d143830671d44190e6d3480eae2f7"),
    (["mersenne", "--nmax", "63"], "8a141233a420a920937c7589e82693c0df5e694e8727325055087c01aa29d310"),
    (["mersenne", "--nmax", "63", "--format", "json"], "ac59c40fb8c9e72dc8a3d804ad29eb8f8e4b0c8c12ef0be35efb76478e9d6600"),
]
MERSENNE_PIN_IDS = ["bounds-check", "bounds-check-json", "mersenne", "mersenne-json"]
#: How far a heatmap cell (log10 |wam|) may move from one OpenBLAS kernel
#: to another, which adds its m products in another order: about 6 times
#: the 1.7e-14 that the dataset's 301² heatmap shows.
HEATMAP_KERNEL_SLACK = 1e-13


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

    def test_consecutive_calls_equal_separate_runs(self, tmp_path):
        # main() reuses one parser per process; a second subcommand in the
        # same process must write what a fresh interpreter writes.
        commands = [
            ["acrit-scan", "--gen", "800"],
            ["zeros", "30", "--re", "-1:2.5", "--im", "0:20"],
            ["factor", "720"],
        ]
        src = os.path.dirname(os.path.dirname(wamlab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        for i, argv in enumerate(commands):
            assert run([*argv, "--out", str(tmp_path / f"same-{i}.csv")])[0] == 0
        for i, argv in enumerate(commands):
            fresh = tmp_path / f"fresh-{i}.csv"
            subprocess.run(
                [sys.executable, "-m", "wamlab.cli", *argv, "--out", str(fresh)],
                env=env, check=True, timeout=120,
            )
            assert (tmp_path / f"same-{i}.csv").read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("argv, digest", MERSENNE_PINS, ids=MERSENNE_PIN_IDS)
    def test_mersenne_sweeps_are_pinned(self, argv, digest):
        # SHA-256 of the whole output, header included.  Each point's sums
        # are added in one fixed order, so neither the other points of an n
        # nor the BLAS kernel moves a bit.
        code, out, err = run(argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    @pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge", "Prescott"])
    def test_sums_at_points_do_not_depend_on_the_blas_kernel(self, tmp_path, kernel):
        # The pinned sweeps, sample 6's zeros and critical-line table, and the
        # 301² heatmap of the dataset, in a child whose OpenBLAS runs another
        # kernel (x86-64 ones, Prescott being SSE3 only).  Where the variable
        # is ignored the child runs the default kernel, and the test still
        # holds.  Every sum at a point is added in one fixed order, so all
        # but the heatmap keep their bytes; heatmap cells are 2-d BLAS
        # products, whose last bits follow the kernel.
        sample = str(13573088 * 349609375 * 363182463)
        dataset = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "triples_c10000.txt")
        same = [
            ["zeros", sample, "--re", "-1:7.29", "--im", "0:600"],
            ["zeros", sample, "--re", "-10:7.29", "--im", "0:5000"],
            ["critical-line", sample, "--bmax", "1e5"],
        ]
        heatmap = ["heatmap", "--triples", dataset, "--re", "-6:6", "--im", "-6:6", "--step", "0.04"]
        commands = [argv for argv, _ in MERSENNE_PINS] + same + [heatmap]
        paths = [str(tmp_path / f"{kernel}-{i}.txt") for i in range(len(commands))]
        script = ("import json, sys\nfrom wamlab.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0\n")
        src = os.path.dirname(os.path.dirname(wamlab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=path)
        argvs = json.dumps([[*argv, "--out", out] for argv, out in zip(commands, paths)])
        subprocess.run([sys.executable, "-c", script, argvs], env=env, check=True, timeout=120)
        outputs = [pathlib.Path(out).read_text(encoding="ascii") for out in paths]
        pinned = outputs[: len(MERSENNE_PINS)]
        assert [hashlib.sha256(out.encode("ascii")).hexdigest() for out in pinned] == [d for _, d in MERSENNE_PINS]
        for argv, out in zip(same, outputs[len(MERSENNE_PINS) : -1]):
            assert out == run_file(tmp_path, argv), argv
        theirs, ours = outputs[-1], run_file(tmp_path, heatmap)
        assert meta_lines(theirs) == meta_lines(ours)
        (axis, *rows), (their_axis, *their_rows) = (csv.reader(body_lines(text)) for text in (ours, theirs))
        assert their_axis == axis
        cells = np.array(rows, dtype=float)
        their_cells = np.array(their_rows, dtype=float)
        assert np.array_equal(their_cells[:, 0], cells[:, 0])  # the im axis
        assert np.max(np.abs(their_cells - cells)) <= HEATMAP_KERNEL_SLACK

    @pytest.mark.parametrize("argv, calls", [(["bounds-check"], 62), (["mersenne"], 62)])
    def test_mersenne_sweeps_evaluate_once_per_n(self, monkeypatch, argv, calls):
        # bounds-check checks its 12 grid points of an n in one evaluation;
        # mersenne prints the wam value that the check of its n evaluates.
        seen, wam_at = [], wamcore.wam_at
        for module in (cli, wamcore):
            monkeypatch.setattr(module, "wam_at", lambda f, s: seen.append(s) or wam_at(f, s))
        assert run([*argv, "--nmax", "63"])[0] == 0
        assert len(seen) == calls

    def test_heatmap_insensitive_to_thread_count(self, tmp_path):
        # Large enough that OpenBLAS splits the grid products across threads.
        argv = ["heatmap", "--gen", "400", "--re", "-6:6", "--im", "-6:6", "--step", "0.02"]
        outputs = []
        for threads in (1, 2):
            path = tmp_path / f"threads-{threads}.csv"
            run_with_blas_threads(threads, ["-m", "wamlab.cli", *argv, "--out", str(path)])
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


class TestCsvCells:
    @pytest.mark.parametrize(
        "x,text",
        [
            (-0.0, "-0.0"),
            (5e-324, "5e-324"),
            (1e16, "1e+16"),
            (0.1 + 0.2, "0.30000000000000004"),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
            (np.float64(0.1 + 0.2), "0.30000000000000004"),
            (np.float64(-0.0), "-0.0"),
            (0, "0"),
            (-7, "-7"),
            (2**127 - 1, str(2**127 - 1)),
            (np.int64(42), "42"),
            (True, "true"),
            (False, "false"),
            (None, ""),
            ("1,0,1@2", '"1,0,1@2"'),
            ('say "hi"', '"say ""hi"""'),
            ("im\\re", "im\\re"),
        ],
    )
    def test_cell_matches_fmt_then_quote(self, x, text):
        assert _cell(x) == _csv_cell(_fmt(x)) == text


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

    def test_budget_zero_and_one_trial_more(self):
        assert run(["factor", "72", "--budget", "0"])[0] == 0
        code, out, _ = run(["factor", str(HARD_SEMIPRIME), "--budget", str(HARD_BUDGET + 1)])
        assert code == 0
        assert len(body_lines(out)) == 3  # header and two primes

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
            ["critical-line", "1000650100302451", "--bmax", "100"],  # |f| overflows there
            ["wam", "1000003", "--s=-1e308"],
            ["cyclo", "--p", str(2**127 - 1), "--s", "1e306"],
            ["factor", "72", "--budget", "-5"],
            ["factor", "1000000016000000063", "--budget", "-5"],
            ["bounds-check", "--nmax", "1"],
            ["bounds-check", "--nmax", "64"],
        ],
    )
    def test_validation_failures(self, argv):
        code, _, err = run(argv)
        assert code == 1
        assert err.startswith("wamlab:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["factor", str(HARD_SEMIPRIME), "--budget", str(HARD_BUDGET)],
            ["poly-triple", "--q", "2", "--n", "27"],
            ["poly-triple", "--q", "3", "--n", "1000000000000"],  # refused before 3^n
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
            ["critical-line", "30030", "--bmax", "1e300"],
            ["critical-line", "30030", "--bmax", "1e308"],
            ["critical-line", "30030", "--bmax", "10", "--samples", str(10**18)],
            ["zeros", "30", "--im", "0:1e9", "--step", "0.5"],
            ["zeros", "30", "--re", "-1:2", "--im", "0:1e308"],  # too many points to count
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

    def test_an_axis_too_long_to_count_names_the_budget(self):
        code, _, err = run(["zeros", "30", "--re", "-1:2", "--im", "0:1e308"])
        assert code == 2
        assert "over 1.074e+09 points on [0.0, 1e+308]" in err
        assert err.rstrip().endswith("search a smaller rectangle")
        assert "inf" not in err

    @pytest.mark.parametrize(
        "argv,names",
        [
            (["critical-line", "30030", "--bmax", "inf"], "b_max"),
            (["critical-line", "30030", "--bmax", "nan"], "b_max"),
            (["heatmap", "--gen", "100", "--step", "nan"], "finite"),
            (["zeros", "30", "--step", "nan"], "finite"),
            (["zeros", "30", "--im", "0:inf"], "finite"),
            (["heatmap", "--gen", "100", "--cap", "nan"], "cap"),
            (["heatmap", "--gen", "100", "--cap", "inf"], "cap"),
            (["critical-line", "30030", "--bmax", "-inf"], "b_max must be positive and finite"),
            (["zeros", "30", "--re", "-inf:0"], "must be finite"),
            (["zeros", "30", "--re", "-NaN:0"], "must be finite"),
        ],
    )
    def test_non_finite_inputs_are_bad_input(self, argv, names):
        code, out, err = run(argv)
        assert code == 1
        assert err.startswith("wamlab:") and names in err
        assert "Traceback" not in err and out == ""

    def test_min_quality_beside_a_dataset_is_bad_input(self, tmp_path):
        # A dataset is read as it is: a quality floor there would be inert.
        dataset = tmp_path / "triples.txt"
        dataset.write_text("1 8 9\n5 27 32\n")
        code, out, err = run(["heatmap", "--triples", str(dataset), "--min-quality", "1.2"])
        assert code == 1
        assert err.startswith("wamlab:") and "--min-quality" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("case", ["missing dataset", "directory dataset", "missing out dir"])
    def test_file_errors_are_bad_input(self, tmp_path, case):
        argv = {
            "missing dataset": ["heatmap", "--triples", str(tmp_path / "missing.txt")],
            "directory dataset": ["em-hist", "--triples", str(tmp_path)],
            "missing out dir": ["factor", "72", "--out", str(tmp_path / "no" / "x.csv")],
        }[case]
        src = os.path.dirname(os.path.dirname(wamlab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "wamlab.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("wamlab:") and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_zeros_past_the_seed_cap_exits_2(self, monkeypatch):
        monkeypatch.setattr(zeros, "_MAX_SEEDS", 10)
        code, out, err = run(["zeros", "30", "--im", "0:100"])
        assert code == 2
        assert err.startswith("wamlab:") and "over 10 Newton runs" in err
        assert out == ""

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
