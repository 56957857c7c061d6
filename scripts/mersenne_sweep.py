#!/usr/bin/env python3
"""Tabulate the power-of-two family 2^n * (2^n - 1) and its lower bound.

Writes two CSVs: mersenne.csv (per-n weighted multiplicity at a chosen s,
with the lower-bound verdict) and bounds_grid.csv (the bound inequality
across a grid of evaluation points for every n in range).
"""

import argparse
import pathlib
import sys

from wamlab.cli import main as wamlab_main
from wamlab.wamcore import MERSENNE_N_MAX


def run(argv):
    code = wamlab_main(argv)
    if code != 0:
        raise SystemExit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nmax", type=int, default=MERSENNE_N_MAX,
                        help=f"largest exponent, at most {MERSENNE_N_MAX}")
    parser.add_argument("--s", default="0.5", help="evaluation point, re[,im]")
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    run(["mersenne", "--nmax", str(args.nmax), "--s", args.s,
         "--out", str(outdir / "mersenne.csv")])
    run(["bounds-check", "--nmax", str(args.nmax),
         "--out", str(outdir / "bounds_grid.csv")])
    print(f"wrote mersenne.csv and bounds_grid.csv to {outdir}/", file=sys.stderr)


if __name__ == "__main__":
    main()
