"""Command-line surface: every tabular or gridded artifact as CSV or JSON.

Outputs are ASCII, LF line endings, shortest-repr floats, and a '#'
metadata header (tool version, natural-log contract, caps) on every CSV.
For a fixed argv every artifact is byte-identical on one OpenBLAS kernel
and for any OPENBLAS_NUM_THREADS.  wam, bounds-check, mersenne,
critical-line and sample 6's zeros are byte-identical across the SkylakeX,
Haswell, Sandybridge and Prescott kernels (OPENBLAS_CORETYPE); heatmap
cells, 2-d BLAS products, agree across them within 1e-13 in log10 |wam|.
a_crit, wam and the zeros do not depend on the log base, but
critical-line's min_abs_f, the absolute |sum_k (ln p_k)^s|, scales by
(ln b)^(-a_crit) in base b.  mersenne and bounds-check take --nmax in
[2, wamcore.MERSENNE_N_MAX], the range of mersenne_family.  Exit codes:
0 success, 1 validation/usage error or an unusable file path, 2 exhausted
budget or oversized grid.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Sequence

from . import __version__
from .arith import DEFAULT_RHO_BUDGET, FactorizationBudgetExceeded, factor
from .critical import critical_abscissa, critical_abscissae
from .ffpoly import (
    EnumerationBudget,
    cyclotomic_wam_formula,
    mason_stothers_check,
    pigeonhole_triple,
)
from .triples import (
    DEFAULT_HEATMAP_CAP,
    DatasetParse,
    em_histogram,
    generate_triples,
    max_wam_heatmap,
    mersenne_family,
)
from .wamcore import MERSENNE_N_MAX, mersenne_lower_bound_check, wam_at
from .zeros import SearchRegion, critical_line_probe, find_zeros

#: Re(s) grid x Im(s) grid swept by the bounds-check subcommand.
BOUNDS_RE_GRID = (-1.0, 0.0, 0.5, 0.9)
BOUNDS_IM_GRID = (0.0, 1.0, 5.0)
_PROBE_STEP = 0.05


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors and accepts values
    like "-1:1" or "-0.5,2" (leading minus) for range/complex flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse only treats "-<digits>" as a value, not as an option,
        # when it matches this internal pattern; widen it so negative
        # ranges ("-6:6", "-.5:.5", "-inf:0") and complex points ("-1,0.5")
        # parse as values.
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(f"expected RE or RE,IM, got {text!r}")
    re = float(parts[0])
    im = float(parts[1]) if len(parts) == 2 else 0.0
    return complex(re, im)


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"expected LO:HI, got {text!r}")
    return float(lo), float(hi)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):  # includes numpy float64 cells
        return repr(float(x))
    return str(x)


def _csv_cell(text: str) -> str:
    """Quote a CSV field when it contains the delimiter (poly strings do)."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell(x) -> str:
    """One CSV field: _csv_cell(_fmt(x)), with Python floats (never quoted)
    rendered directly."""
    return repr(x) if type(x) is float else _csv_cell(_fmt(x))


def _fmt_complex(z: complex | None) -> str:
    if z is None:
        return "pole"
    if z.imag == 0.0:
        return repr(z.real)
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _json_complex(z: complex | None):
    if z is None:
        return None
    return {"re": z.real, "im": z.imag}


class _Output:
    """Collects metadata plus either a table or a scalar, then writes it."""

    def __init__(self, args, command: str):
        self.args = args
        self.meta: dict = {
            "tool": f"wamlab {__version__}",
            "command": command,
            "log_base": "natural",
        }
        self.header: list[str] | None = None
        self.rows, self.lines = [], None
        self.scalar = None
        self.scalar_text: str | None = None

    def table(self, header: Sequence[str], rows, lines=None):
        """rows is read once, when written; `lines`, when given, are the
        rows' CSV text, written in place of rendering rows."""
        self.header = list(header)
        self.rows = rows
        self.lines = lines

    def value(self, scalar, text: str | None = None):
        self.scalar = scalar
        self.scalar_text = text if text is not None else _fmt(scalar)

    def write(self):
        out = self.args.out
        if out in (None, "-"):
            self._render(sys.stdout)
        else:
            with open(out, "w", encoding="ascii", newline="\n") as fh:
                self._render(fh)

    def _render(self, fh):
        if self.args.format == "json":
            payload = {"meta": self.meta}
            if self.header is not None:
                payload["columns"] = self.header
                payload["rows"] = list(self.rows)
            else:
                payload["value"] = self.scalar
            fh.write(json.dumps(payload) + "\n")
            return
        for key, val in self.meta.items():
            fh.write(f"# {key}: {_fmt(val)}\n")
        if self.header is not None:
            fh.write(",".join(map(_cell, self.header)) + "\n")
            lines = self.lines or (",".join(map(_cell, row)) for row in self.rows)
            for line in lines:
                fh.write(line + "\n")
        else:
            fh.write(f"{self.scalar_text}\n")


def _load_triples(args, out: _Output):
    if args.triples is not None:
        if args.min_quality is not None:
            raise ValueError("--min-quality applies to --gen only, not to a --triples dataset")
        parse = DatasetParse(args.triples)
        triples = list(parse)
        for issue in parse.issues:
            print(f"{args.triples}:{issue.line_number}: {issue.message}", file=sys.stderr)
        out.meta["source"] = f"dataset {args.triples}"
        out.meta["parse_issues"] = len(parse.issues)
    else:
        min_q = 1.0 if args.min_quality is None else args.min_quality
        triples = generate_triples(args.gen, min_q)
        out.meta["source"] = f"generated c_max={args.gen} min_quality={_fmt(min_q)}"
    out.meta["triples"] = len(triples)
    if not triples:
        raise ValueError("no triples to process")
    return triples


# ----------------------------------------------------------------------
# subcommand bodies


def _cmd_factor(args, out: _Output):
    f = factor(args.n, budget=args.budget)
    out.meta["n"] = args.n
    out.table(["p", "e"], [[p, e] for p, e in f.pairs()])


def _cmd_wam(args, out: _Output):
    ev = wam_at(factor(args.n), args.s)
    out.meta["n"] = args.n
    out.meta["s"] = _fmt_complex(args.s)
    out.value(_json_complex(ev.value), _fmt_complex(ev.value))


def _cmd_acrit(args, out: _Output):
    f = factor(args.n)
    prof = critical_abscissa(f)
    out.meta.update(n=args.n, m=f.m, e_m=f.e_m, is_constant=prof.is_constant)
    if prof.a_crit is None:
        out.value(None, "none")
    else:
        out.value(prof.a_crit)


def _cmd_zeros(args, out: _Output):
    re_lo, re_hi = args.re
    im_lo, im_hi = args.im
    region = SearchRegion(re_lo, re_hi, im_lo, im_hi, grid_step=args.step)
    search = find_zeros(factor(args.n), region)
    out.meta["n"] = args.n
    out.meta["region"] = f"re [{re_lo}:{re_hi}] im [{im_lo}:{im_hi}]"
    out.meta["grid_step"] = args.step
    for key in ("seeds", "converged", "no_convergence", "out_of_region", "deduplicated"):
        out.meta[key] = getattr(search, key)
    out.table(
        ["re", "im", "residual", "numerator_magnitude", "classification"],
        [[r.location.real, r.location.imag, r.residual, r.numerator_magnitude, r.classification.value]
         for r in search.records],
    )


def _cmd_heatmap(args, out: _Output):
    triples = _load_triples(args, out)
    re_lo, re_hi = args.re
    im_lo, im_hi = args.im
    region = SearchRegion(re_lo, re_hi, im_lo, im_hi, grid_step=args.step)
    grid = max_wam_heatmap(triples, region, cap=args.cap)
    out.meta["cap"] = args.cap
    out.meta["grid_step"] = args.step
    header = ["im\\re"] + [_fmt(v) for v in grid.re_axis]
    ims, cells, last = grid.im_axis.tolist(), grid.cells, grid.im_axis.size - 1

    def lines():
        # A mirrored row's cells are rendered once, for the row it copies;
        # the repr of a list of floats is their reprs joined by ", ".
        tails = {}
        for i, im in enumerate(ims):
            tail = tails.pop(i, None) or repr(cells[i].tolist())[1:-1].replace(", ", ",")
            if i < grid.mirrored:
                tails[last - i] = tail
            yield f"{im!r},{tail}"

    # JSON reads the rows, and CSV the lines; each is built as it is written.
    out.table(header, map(lambda im, row: [im, *row.tolist()], ims, cells), lines())


def _cmd_em_hist(args, out: _Output):
    triples = _load_triples(args, out)
    hist = em_histogram(triples)
    out.table(["e_m", "count"], [[k, v] for k, v in hist.items()])


def _cmd_critical_line(args, out: _Output):
    samples = args.samples
    if samples is None:  # a non-finite b_max / step is passed on for the probe to refuse
        steps = args.bmax / _PROBE_STEP
        samples = max(1, math.ceil(steps)) if math.isfinite(steps) else steps
    probe = critical_line_probe(factor(args.n), args.bmax, samples)
    out.meta["n"] = args.n
    out.table(
        ["a_crit", "b_max", "samples", "min_abs_f", "argmin_b"],
        [[probe.a_crit, probe.b_max, probe.samples, probe.min_abs, probe.argmin_b]],
    )


def _cmd_acrit_scan(args, out: _Output):
    triples = _load_triples(args, out)
    profiles = critical_abscissae([t.abc_factorization for t in triples])
    out.table(
        ["a", "b", "c", "quality", "p_m", "a_crit"],
        [
            [t.a, t.b, t.c, t.quality, t.abc_factorization.primes[-1], prof.a_crit]
            for t, prof in zip(triples, profiles)
        ],
    )


def _cmd_mersenne(args, out: _Output):
    s = args.s
    out.meta["s"] = _fmt_complex(s)
    rows = []
    for t in mersenne_family(args.nmax):
        n = t.c.bit_length() - 1
        if s.real < 1:
            chk = mersenne_lower_bound_check(n, s)
            value, margins = chk.wam, [chk.lemma_margin, chk.goal_margin, chk.holds]
        else:
            value, margins = wam_at(t.abc_factorization, s).value, [None, None, None]
        rows.append([n, t.b, t.quality, t.e_m, _fmt_complex(value), *margins])
    out.table(
        ["n", "b", "quality", "e_m", "wam", "lemma_margin", "goal_margin", "holds"],
        rows,
    )


def _cmd_poly_triple(args, out: _Output):
    pc = pigeonhole_triple(args.q, args.n)
    ms = mason_stothers_check(pc.triple)
    for key in (
        "irreducible_count",
        "pigeonhole_bound",
        "buckets_scanned",
        "candidates_tested",
        "irreducibles_seen",
    ):
        out.meta[key] = getattr(pc, key)
    out.table(
        ["q", "n", "k", "a", "b", "c", "r", "deg_r", "wam1", "mason_holds"],
        [
            [
                pc.q,
                pc.n,
                pc.k,
                str(pc.triple.a),
                str(pc.triple.b),
                str(pc.triple.c),
                str(pc.r_poly),
                pc.r_poly.degree,
                ms.wam_at_one,
                ms.holds,
            ]
        ],
    )


def _cmd_cyclo(args, out: _Output):
    ev = cyclotomic_wam_formula(args.p, args.s)
    out.meta["p"] = args.p
    out.meta["s"] = _fmt_complex(args.s)
    out.value(_json_complex(ev.value), _fmt_complex(ev.value))


def _cmd_bounds_check(args, out: _Output):
    grid = [complex(re, im) for re in BOUNDS_RE_GRID for im in BOUNDS_IM_GRID]
    rows = [
        [c.n, c.s.real, c.s.imag, c.lemma_lhs, c.lemma_rhs, c.goal_lhs, c.goal_rhs, c.holds]
        for t in mersenne_family(args.nmax)
        for c in mersenne_lower_bound_check(t.c.bit_length() - 1, grid)
    ]
    out.table(
        ["n", "re", "im", "lemma_lhs", "lemma_rhs", "goal_lhs", "goal_rhs", "holds"],
        rows,
    )


# ----------------------------------------------------------------------
# argv wiring


@functools.cache
def _build_parser() -> _Parser:
    """The argv parser, built once per process; parse_args leaves it as it is."""
    parser = _Parser(prog="wamlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"wamlab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="-", help="output path ('-' for stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("factor", _cmd_factor, help="prime factorization of N")
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_RHO_BUDGET,
                   help="rho steps plus square-search trials per composite split, "
                        ">= 0; trial division below 2^64 is not counted")

    p = add("wam", _cmd_wam, help="wam(N, s) at a complex point")
    p.add_argument("n", type=int)
    p.add_argument("--s", type=_parse_complex, default=complex(1.0))

    p = add("acrit", _cmd_acrit, help="critical abscissa of N")
    p.add_argument("n", type=int)

    p = add("zeros", _cmd_zeros, help="denominator zeros in a rectangle")
    p.add_argument("n", type=int)
    p.add_argument("--re", type=_parse_range, default=(-1.0, 1.0))
    p.add_argument("--im", type=_parse_range, default=(0.0, 30.0))
    p.add_argument("--step", type=float, default=0.05)

    def add_triple_source(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--triples", help="dataset file of 'a b c' lines")
        grp.add_argument("--gen", type=int, help="generate triples with c <= CMAX")
        p.add_argument("--min-quality", type=float, help="with --gen only (default 1.0)")

    p = add("heatmap", _cmd_heatmap, help="max |wam| grid over a triple set")
    add_triple_source(p)
    p.add_argument("--re", type=_parse_range, default=(-6.0, 6.0))
    p.add_argument("--im", type=_parse_range, default=(-6.0, 6.0))
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--cap", type=float, default=DEFAULT_HEATMAP_CAP)

    p = add("em-hist", _cmd_em_hist, help="histogram of e_m over a triple set")
    add_triple_source(p)

    p = add("critical-line", _cmd_critical_line, help="min |f| on the critical line")
    p.add_argument("n", type=int)
    p.add_argument("--bmax", type=float, required=True)
    p.add_argument("--samples", type=int, default=None)

    p = add("acrit-scan", _cmd_acrit_scan, help="a_crit and p_m per triple")
    add_triple_source(p)

    p = add("mersenne", _cmd_mersenne, help="the family (1, 2^n-1, 2^n) + bounds")
    p.add_argument("--nmax", type=int, default=MERSENNE_N_MAX)
    p.add_argument("--s", type=_parse_complex, default=complex(0.5))

    p = add("poly-triple", _cmd_poly_triple, help="pigeonhole triple over F_q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("cyclo", _cmd_cyclo, help="closed-form wam of (1, x^p-1, x^p)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", type=_parse_complex, default=complex(1.0))

    p = add("bounds-check", _cmd_bounds_check, help="inequality sweep for 2^n(2^n-1)")
    p.add_argument("--nmax", type=int, default=MERSENNE_N_MAX)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = _Output(args, args.command)
    try:
        args.func(args, out)
        out.write()
    except (FactorizationBudgetExceeded, EnumerationBudget, MemoryError) as exc:
        print(f"wamlab: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"wamlab: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
