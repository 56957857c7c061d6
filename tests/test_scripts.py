"""The scripts in scripts/ run end to end on tiny inputs."""

import os
import subprocess
import sys

import pytest

import wamlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLE_CS = (1484375, 61009, 9765625, 46137344, 135443891, 363182463)


@pytest.mark.parametrize(
    "script, args, names",
    [
        ("triple_survey.py", ["--cmax", "300"], ["heatmap.csv", "em_hist.csv", "acrit_scan.csv"]),
        ("pole_scatter.py", ["--imax", "5"], [f"zeros_{c}.csv" for c in SAMPLE_CS]),
        ("mersenne_sweep.py", ["--nmax", "10"], ["mersenne.csv", "bounds_grid.csv"]),
    ],
    ids=["triple_survey", "pole_scatter", "mersenne_sweep"],
)
def test_script_writes_its_csvs(tmp_path, script, args, names):
    src = os.path.dirname(os.path.dirname(wamlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args, "--outdir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path), check=True, capture_output=True, timeout=60,
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        header = (tmp_path / name).read_text().splitlines()
        assert any(line.startswith("# command: ") for line in header)
