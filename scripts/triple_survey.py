#!/usr/bin/env python3
"""Survey the high-quality triples below a size cutoff.

Produces three CSV artifacts in the output directory:

  heatmap.csv     121x121 grid of log10 max |wam| over the triple set
  em_hist.csv     histogram of the top-prime multiplicity e_m
  acrit_scan.csv  per-triple quality, top prime, and critical abscissa

Every file is produced through the command-line interface, so rerunning a
header's recorded command reproduces the file byte for byte.  The three
commands run in this one process on the same --gen source, so the triples
are generated once and the later commands reuse them.
"""

import argparse
import pathlib
import sys

from wamlab.cli import main as wamlab_main


def run(argv):
    code = wamlab_main(argv)
    if code != 0:
        raise SystemExit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cmax", type=int, default=10_000, help="largest allowed c")
    parser.add_argument("--min-quality", type=float, default=1.0)
    parser.add_argument("--span", type=float, default=6.0, help="half-width of the square grid")
    parser.add_argument("--step", type=float, default=0.1)
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    window = f"{-args.span}:{args.span}"
    source = ["--gen", str(args.cmax), "--min-quality", str(args.min_quality)]

    run(["heatmap", *source, "--re", window, "--im", window,
         "--step", str(args.step), "--out", str(outdir / "heatmap.csv")])
    run(["em-hist", *source, "--out", str(outdir / "em_hist.csv")])
    run(["acrit-scan", *source, "--out", str(outdir / "acrit_scan.csv")])
    print(f"wrote heatmap.csv, em_hist.csv, acrit_scan.csv to {outdir}/", file=sys.stderr)


if __name__ == "__main__":
    main()
