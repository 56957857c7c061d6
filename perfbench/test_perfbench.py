"""Self-tests of the benchmark: seeded inputs, oracles, tracing, metric names.

    python3 -m pytest perfbench

Run from the repository root.  Correct outputs come from wamlab itself; each
oracle must accept them and flag a planted wrong answer.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import wamlab  # noqa: E402
import wamlab.cli  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def artifact(tmp_path, argv):
    path = str(tmp_path / f"{argv[0]}.csv")
    assert wamlab.cli.main([*argv, "--out", path]) == 0
    return oracles.read_artifact(path)


# ----------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_depend_only_on_the_seed(name):
    first = make_inputs(name, 7, "out")
    assert make_inputs(name, 7, "out") == first
    assert make_inputs(name, 8, "out") != first
    json.dumps(first)  # plain data, as handed to the child


# ----------------------------------------------------------------------
# oracles: accept the program's answer, flag a planted wrong one


def test_factor_oracle():
    n = 1000003 * 999983
    assert oracles.check_factor(n, [(999983, 1), (1000003, 1)]) == []
    assert oracles.check_factor(n, [(999983, 1), (1000005, 1)])  # corrupted factor
    assert oracles.check_factor(6 * 35, [(6, 1), (35, 1)])  # composite "factors"


def test_triple_and_a_crit_oracles(tmp_path):
    _, _, rows = artifact(tmp_path, ["acrit-scan", "--gen", "300"])
    assert oracles.check_triple_rows(rows, 300, 1.0) == []
    assert oracles.check_triple_rows(rows[1:], 300, 1.0)  # a dropped triple
    bad_quality = [list(r) for r in rows]
    bad_quality[0][3] = repr(float(rows[0][3]) * 1.001)
    assert oracles.check_triple_rows(bad_quality, 300, 1.0)
    bad_acrit = [list(r) for r in rows]
    k = next(i for i, r in enumerate(rows) if r[5] and float(r[5]) != 0.0)
    bad_acrit[k][5] = repr(float(rows[k][5]) + 1e-4)
    assert oracles.check_triple_rows(bad_acrit, 300, 1.0)
    not_coprime = [list(r) for r in rows] + [["2", "4", "6", "1.5", "3", "0.0"]]
    assert oracles.check_triple_rows(not_coprime, 300, 1.0)


def test_em_hist_oracle(tmp_path):
    triples = [(t.a, t.b, t.c) for t in wamlab.generate_triples(300)]
    _, _, rows = artifact(tmp_path, ["em-hist", "--gen", "300"])
    assert oracles.check_em_hist(rows, triples) == []
    rows[0][1] = str(int(rows[0][1]) + 1)
    assert oracles.check_em_hist(rows, triples)


def test_heatmap_oracle(tmp_path):
    import random

    triples = [(t.a, t.b, t.c) for t in wamlab.generate_triples(300)]
    meta, header, rows = artifact(
        tmp_path, ["heatmap", "--gen", "300", "--re", "-2:2", "--im", "-2:2", "--step", "0.5"]
    )
    assert oracles.check_heatmap(meta, header, rows, triples, random.Random(1)) == []
    shifted = [[r[0]] + [repr(float(x) + 1e-6) for x in r[1:]] for r in rows]
    assert oracles.check_heatmap(meta, header, shifted, triples, random.Random(1))
    assert oracles.check_heatmap(meta, header, rows, triples[1:], random.Random(1))


def zeros_case(tmp_path, n=2**3 * 3 * 5**2 * 7):
    f = wamlab.factor(n)
    a_crit = wamlab.critical_abscissa(f).a_crit
    region = (-1.0, a_crit + 1.0, 0.0, 40.0)
    meta, _, rows = artifact(
        tmp_path, ["zeros", str(n), "--re", f"{region[0]}:{region[1]}", "--im", f"{region[2]}:{region[3]}"]
    )
    count = wamlab.argument_principle_count(f, wamlab.SearchRegion(*region))
    return {"n": n}, {"a_crit": a_crit, "region": list(region)}, meta, rows, count


def test_zeros_oracle(tmp_path):
    op, value, meta, rows, count = zeros_case(tmp_path)
    assert len(rows) == count > 2
    assert oracles.check_zeros(op, value, meta, rows, count) == []
    dropped = oracles.check_zeros(op, value, meta, rows[1:], count)
    assert [kind for kind, _ in dropped] == ["failed"]  # a dropped zero
    moved = [list(r) for r in rows]
    moved[0][1] = repr(float(rows[0][1]) + 1e-3)
    assert ("wrong" in {kind for kind, _ in oracles.check_zeros(op, value, meta, moved, count)})
    twice = rows + rows[:1]
    assert oracles.check_zeros(op, value, meta, twice, count)


def test_critical_line_oracle(tmp_path):
    import random

    n = 2**3 * 3 * 5**2 * 7
    _, _, rows = artifact(tmp_path, ["critical-line", str(n), "--bmax", "200"])
    assert oracles.check_critical_line(n, 200.0, rows[0], random.Random(1)) == []
    too_high = list(rows[0])
    too_high[3] = repr(float(rows[0][3]) * 10 + 1.0)
    assert oracles.check_critical_line(n, 200.0, too_high, random.Random(1))


def test_mersenne_and_bounds_oracles(tmp_path):
    meta, _, rows = artifact(tmp_path, ["mersenne", "--nmax", "20"])
    assert oracles.check_mersenne(meta, rows) == []
    rows[3][4] = repr(complex(rows[3][4]) * (1 + 1e-6))
    assert oracles.check_mersenne(meta, rows)
    _, _, rows = artifact(tmp_path, ["bounds-check", "--nmax", "12"])
    assert oracles.check_bounds(rows, 12) == []
    rows[5][7] = "false"
    assert oracles.check_bounds(rows, 12)


def test_poly_oracles(tmp_path):
    _, _, rows = artifact(tmp_path, ["poly-triple", "--q", "3", "--n", "8"])
    assert oracles.check_poly_triple(rows[0], 3, 8) == []
    reducible = list(rows[0])
    # c -> c * x: still "monic", now reducible and no longer a + b
    reducible[5] = "0," + rows[0][5]
    assert oracles.check_poly_triple(reducible, 3, 8)
    wrong_wam = list(rows[0])
    wrong_wam[8] = repr(float(rows[0][8]) + 0.01)
    assert oracles.check_poly_triple(wrong_wam, 3, 8)

    coeffs = [2, 1, 0, 1, 1]  # (x^2 + 1)(x^2 + x + 2) over F_3
    res = wamlab.poly_factor(wamlab.FpPoly(3, tuple(coeffs)))
    value = {"unit": res.unit, "factors": [[list(f.coefficients), e] for f, e in res.factors]}
    op = {"q": 3, "coeffs": coeffs}
    assert len(value["factors"]) == 2
    assert oracles.check_poly_factor(op, value) == []
    assert oracles.check_poly_factor(op, {"unit": 1, "factors": [[coeffs, 1]]})  # reducible
    assert oracles.check_poly_factor(op, {"unit": 1, "factors": value["factors"][1:]})


# ----------------------------------------------------------------------
# tracing


def test_self_time_subtracts_the_union_of_children():
    spans = [
        [1, 0, "a", 0.0, 10.0, 1, None],
        [2, 1, "b", 1.0, 4.0, 1, None],
        [3, 1, "b", 3.0, 6.0, 2, None],  # overlaps 2: another thread
        [4, 1, "b", 8.0, 9.0, 2, None],
    ]
    assert tracing._self_times(spans)[1] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_attaches_pool_threads_to_the_heatmap():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        triples = wamlab.generate_triples(200)
        wamlab.max_wam_heatmap(triples, wamlab.SearchRegion(-1, 1, -1, 1, grid_step=0.5))
    finally:
        tracer.uninstall()
    assert wamlab.factor.__module__ == "wamlab.arith" and not hasattr(wamlab.factor, "__wrapped__")
    by_id = {s[0]: s for s in tracer.spans}
    heatmap = next(s for s in tracer.spans if s[2] == "triples.max_wam_heatmap")
    sums = [s for s in tracer.spans if s[2] == "wamcore.ExpSum" and s[5] != heatmap[5]]
    assert sums and all(by_id[s[1]][2] == "triples.max_wam_heatmap" for s in sums)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["triples.generate_triples.s"] > 0
    assert metrics["triples.validate_triple.calls"] > 0
    assert metrics["wamcore.ExpSum.terms"] >= metrics["wamcore.ExpSum.points"] > 0


# ----------------------------------------------------------------------
# metric names


def test_metric_tables_match_benchmark_json():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in tracing.PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_those_in_benchmark_json(trace):
    spec = benchmark_json()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor-algebra", "--seed", "3",
         "--seconds", "0", "--trace", trace],
        capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert result["correct"] and result["attempted"] > 0
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
