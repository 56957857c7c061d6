"""Spans around the public functions of each wamlab module.

A traced repetition wraps every function named in TRACED in every
``wamlab.*`` namespace that binds it (internal callers use
``from .arith import factor``), plus ``ExpSum.__call__`` and the iteration of
``DatasetParse`` on their classes.  Each call becomes a span: name, start,
end, parent and thread.  Spans opened by the heatmap's pool threads attach
to the span open on the thread that installed the tracer, which is the
enclosing ``max_wam_heatmap``.  Spans stay in memory and are written out
once, after the repetition.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import sys
import threading
import time
from collections import defaultdict

#: (module, attribute) of each traced public function; the span name is
#: "<module without the wamlab. prefix>.<attribute>".
TRACED = (
    ("wamlab.cli", "main"),
    ("wamlab.triples", "generate_triples"),
    ("wamlab.triples", "validate_triple"),
    ("wamlab.triples", "max_wam_heatmap"),
    ("wamlab.arith", "factor"),
    ("wamlab.arith", "is_prime"),
    ("wamlab.wamcore", "wam_at"),
    ("wamlab.critical", "critical_abscissa"),
    ("wamlab.zeros", "find_zeros"),
    ("wamlab.zeros", "argument_principle_count"),
    ("wamlab.zeros", "critical_line_probe"),
    ("wamlab.ffpoly", "pigeonhole_triple"),
    ("wamlab.ffpoly", "is_irreducible"),
    ("wamlab.ffpoly", "poly_factor"),
)

#: Per-layer metrics: name -> (unit, better, the end-to-end metric and
#: workload each should move).  BENCHMARK.json lists the same names.  The
#: shares of traced wall time are from one traced run per workload on a
#: 2-vCPU x86-64 VM: triple-survey is generate_triples 89% and
#: max_wam_heatmap 10%; pole-census is max_wam_heatmap 43%,
#: critical_line_probe 32%, find_zeros 20% and argument_principle_count 2%;
#: factor-algebra is factor 51%, poly_factor 37% and the other CLI commands
#: 12%.  Peak memory on pole-census is set by find_zeros on the 12-prime
#: rectangle, whose seed grid is an ExpSum over 1.7M points with m = 12
#: (about 720 MB; about 220 MB without that case, 78 MB for the heatmap).
PER_LAYER = {
    "cli.main.calls": ("count", "lower", "none; counts CLI invocations"),
    "cli.main.s": ("s", "lower", "wall_s on pole-census (the 1.7 MB dense heatmap CSV, with its grid)"),
    "cli.self_s": ("s", "lower", "wall_s on pole-census: argparse plus CSV/JSON rendering (3%)"),
    "cli.out_bytes": ("B", "lower", "wall_s on pole-census"),
    "triples.generate_triples.s": ("s", "lower", "wall_s on triple-survey; unchanged elsewhere"),
    "triples.generate_triples.self_s": ("s", "lower", "wall_s on triple-survey; unchanged elsewhere"),
    "triples.validate_triple.calls": ("count", "lower", "wall_s on triple-survey"),
    "triples.validate_triple.s": ("s", "lower", "wall_s on triple-survey"),
    "triples.kept_per_validated": ("ratio", "higher", "wall_s on triple-survey"),
    "triples.parse_dataset.s": ("s", "lower", "wall_s on pole-census"),
    "triples.max_wam_heatmap.s": ("s", "lower", "wall_s on pole-census (43%) and triple-survey (10%)"),
    "triples.max_wam_heatmap.cpu_s": ("s", "lower", "cpu_s on pole-census"),
    "triples.heatmap.cells": ("count", "lower", "wall_s and cpu_s on pole-census"),
    "triples.heatmap.saturated_cells": ("count", "lower", "none; cells clipped at the cap"),
    "arith.factor.calls": ("count", "lower", "wall_s on factor-algebra and triple-survey"),
    "arith.factor.s": ("s", "lower", "wall_s on factor-algebra (Brent rho, 51%)"),
    "arith.factor.self_s": ("s", "lower", "wall_s on factor-algebra"),
    "arith.factor.repeat_frac": ("ratio", "higher", "wall_s on triple-survey (repeated small integers)"),
    "arith.is_prime.calls": ("count", "lower", "wall_s on factor-algebra"),
    "arith.is_prime.s": ("s", "lower", "wall_s on factor-algebra"),
    "wamcore.ExpSum.calls": ("count", "lower", "wall_s on factor-algebra (scalar calls must not slow)"),
    "wamcore.ExpSum.s": ("s", "lower", "wall_s and cpu_s on pole-census"),
    "wamcore.ExpSum.points": ("count", "lower", "wall_s on pole-census"),
    "wamcore.ExpSum.terms": ("count", "lower", "wall_s and cpu_s on pole-census"),
    "wamcore.ExpSum.terms_per_s": ("1/s", "higher", "wall_s and cpu_s on pole-census"),
    "wamcore.ExpSum.bytes_computed": ("B", "lower", "peak_rss_mb on pole-census (the zeros seed grids)"),
    "wamcore.wam_at.calls": ("count", "lower", "wall_s on factor-algebra"),
    "wamcore.wam_at.s": ("s", "lower", "wall_s on factor-algebra (must not slow)"),
    "critical.critical_abscissa.calls": ("count", "lower", "wall_s on triple-survey and pole-census"),
    "critical.critical_abscissa.s": ("s", "lower", "wall_s on triple-survey (acrit-scan) and pole-census"),
    "zeros.find_zeros.calls": ("count", "lower", "wall_s on pole-census"),
    "zeros.find_zeros.s": ("s", "lower", "wall_s (20%) and peak_rss_mb on pole-census"),
    "zeros.find_zeros.self_s": ("s", "lower", "wall_s on pole-census"),
    "zeros.seeds": ("count", "lower", "wall_s on pole-census"),
    "zeros.converged": ("count", "higher", "failed on pole-census"),
    "zeros.no_convergence": ("count", "lower", "failed on pole-census"),
    "zeros.out_of_region": ("count", "lower", "wall_s on pole-census"),
    "zeros.deduplicated": ("count", "lower", "wall_s on pole-census"),
    "zeros.found": ("count", "higher", "failed on pole-census"),
    "zeros.converged_per_seed": ("ratio", "higher", "wall_s and failed on pole-census"),
    "zeros.argument_principle_count.calls": ("count", "lower", "wall_s on pole-census"),
    "zeros.argument_principle_count.s": ("s", "lower", "wall_s on pole-census"),
    "zeros.contour_mismatch": ("count", "lower", "failed on pole-census"),
    "zeros.critical_line_probe.calls": ("count", "lower", "wall_s on pole-census"),
    "zeros.critical_line_probe.s": ("s", "lower", "wall_s on pole-census (32%)"),
    "zeros.critical_line_probe.samples": ("count", "lower", "wall_s on pole-census"),
    "ffpoly.pigeonhole_triple.calls": ("count", "lower", "wall_s on factor-algebra only"),
    "ffpoly.pigeonhole_triple.s": ("s", "lower", "wall_s on factor-algebra only"),
    "ffpoly.candidates_tested": ("count", "lower", "wall_s on factor-algebra only"),
    "ffpoly.irreducibles_seen": ("count", "lower", "wall_s on factor-algebra only"),
    "ffpoly.buckets_scanned": ("count", "lower", "wall_s on factor-algebra only"),
    "ffpoly.is_irreducible.calls": ("count", "lower", "wall_s on factor-algebra only (0 for q = 2)"),
    "ffpoly.is_irreducible.s": ("s", "lower", "wall_s on factor-algebra only"),
    "ffpoly.poly_factor.calls": ("count", "lower", "wall_s on factor-algebra only"),
    "ffpoly.poly_factor.s": ("s", "lower", "wall_s on factor-algebra only (37%)"),
    "trace.overhead_s": ("s", "lower", "none; traced wall_s minus untraced wall_s"),
}


def _process_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _out_bytes(argv) -> int:
    argv = list(argv or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if path != "-" and os.path.exists(path):
            return os.path.getsize(path)
    return 0


def _heatmap_info(args, kwargs, grid):
    import numpy as np

    cap_cell = np.log10(grid.cap)
    return {"cells": int(grid.cells.size), "saturated": int(np.count_nonzero(grid.cells >= cap_cell))}


def _search_info(args, kwargs, search):
    keys = ("seeds", "converged", "no_convergence", "out_of_region", "deduplicated")
    info = {k: int(getattr(search, k)) for k in keys}
    info["found"] = len(search)
    return info


def _pigeonhole_info(args, kwargs, pc):
    keys = ("candidates_tested", "irreducibles_seen", "buckets_scanned")
    return {k: int(getattr(pc, k)) for k in keys}


#: What each span records from its arguments and result.
_INFO = {
    "cli.main": lambda args, kwargs, code: {"out_bytes": _out_bytes(args[0] if args else None)},
    "arith.factor": lambda args, kwargs, f: {"n": int(args[0])},
    "triples.generate_triples": lambda args, kwargs, found: {"kept": len(found)},
    "triples.max_wam_heatmap": _heatmap_info,
    "zeros.find_zeros": _search_info,
    "zeros.critical_line_probe": lambda args, kwargs, probe: {"samples": int(probe.samples)},
    "ffpoly.pigeonhole_triple": _pigeonhole_info,
    "wamcore.ExpSum": lambda args, kwargs, value: {
        "points": int(getattr(args[1], "size", 1)),
        "m": int(args[0].rates.size),
    },
}
_CPU_SPANS = {"triples.max_wam_heatmap"}


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, thread, info]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: list = []
        self._home_thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        if threading.get_ident() == self._home_thread:
            return self._home
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent_stack = stack or self._home
        parent = parent_stack[-1][0] if parent_stack else 0
        span = [next(self._ids), parent, name, time.perf_counter(), None, threading.get_ident(), None]
        if name in _CPU_SPANS:
            span[6] = {"cpu0": _process_cpu()}
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: list, args, kwargs, result) -> None:
        span[4] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)
        describe = _INFO.get(span[2])
        info = describe(args, kwargs, result) if describe and result is not None else {}
        if span[6] is not None:
            info["cpu_s"] = _process_cpu() - span[6].pop("cpu0")
        span[6] = info or None

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span, args, kwargs, result)

        return traced

    def _wrap_iter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                tracer._close(span, args, kwargs, None)

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the traced functions; wamlab must already be imported."""
        import wamlab.triples
        import wamlab.wamcore

        modules = [m for k, m in sys.modules.items() if k == "wamlab" or k.startswith("wamlab.")]
        for module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(f"{module_name[len('wamlab.'):]}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, traced)
        exp_sum = wamlab.wamcore.ExpSum
        self._patch(exp_sum, "__call__", self._wrap("wamcore.ExpSum", exp_sum.__call__))
        parse = wamlab.triples.DatasetParse
        self._patch(parse, "__iter__", self._wrap_iter("triples.parse_dataset", parse.__iter__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "thread", "info")
        with open(path, "w", encoding="ascii") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def _self_times(spans) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append((span[3], span[4]))
    out = {}
    for sid, _, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one repetition, except those run.py adds."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    self_time = _self_times(spans)
    parents = {span[0]: span[1] for span in spans}
    names = {span[0]: span[2] for span in spans}

    def total(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def self_total(name):
        return sum(self_time[s[0]] for s in by_name[name])

    def info_sum(name, key):
        return sum((s[6] or {}).get(key, 0) for s in by_name[name])

    def under(sid, ancestor):
        sid = parents.get(sid, 0)
        while sid:
            if names[sid] == ancestor:
                return True
            sid = parents.get(sid, 0)
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in ("cli.main", "triples.validate_triple", "arith.factor", "arith.is_prime",
                 "wamcore.ExpSum", "wamcore.wam_at", "critical.critical_abscissa",
                 "zeros.find_zeros", "zeros.argument_principle_count",
                 "zeros.critical_line_probe", "ffpoly.pigeonhole_triple",
                 "ffpoly.is_irreducible", "ffpoly.poly_factor"):
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.s"] = total(name)
    for name in ("triples.generate_triples", "triples.parse_dataset", "triples.max_wam_heatmap"):
        out[f"{name}.s"] = total(name)
    out["cli.self_s"] = self_total("cli.main")
    out["cli.out_bytes"] = info_sum("cli.main", "out_bytes")
    out["triples.generate_triples.self_s"] = self_total("triples.generate_triples")
    validated = sum(under(s[0], "triples.generate_triples") for s in by_name["triples.validate_triple"])
    out["triples.kept_per_validated"] = ratio(info_sum("triples.generate_triples", "kept"), validated)
    out["triples.max_wam_heatmap.cpu_s"] = info_sum("triples.max_wam_heatmap", "cpu_s")
    out["triples.heatmap.cells"] = info_sum("triples.max_wam_heatmap", "cells")
    out["triples.heatmap.saturated_cells"] = info_sum("triples.max_wam_heatmap", "saturated")
    out["arith.factor.self_s"] = self_total("arith.factor")
    seen, repeats = set(), 0
    for span in sorted(by_name["arith.factor"], key=lambda s: s[3]):
        n = (span[6] or {}).get("n")
        repeats += n in seen
        seen.add(n)
    out["arith.factor.repeat_frac"] = ratio(repeats, len(by_name["arith.factor"]))
    points = info_sum("wamcore.ExpSum", "points")
    terms = sum((s[6] or {}).get("points", 0) * (s[6] or {}).get("m", 0) for s in by_name["wamcore.ExpSum"])
    out["wamcore.ExpSum.points"] = points
    out["wamcore.ExpSum.terms"] = terms
    out["wamcore.ExpSum.terms_per_s"] = ratio(terms, out["wamcore.ExpSum.s"])
    out["wamcore.ExpSum.bytes_computed"] = 16 * terms
    out["zeros.find_zeros.self_s"] = self_total("zeros.find_zeros")
    for key in ("seeds", "converged", "no_convergence", "out_of_region", "deduplicated", "found"):
        out[f"zeros.{key}"] = info_sum("zeros.find_zeros", key)
    out["zeros.converged_per_seed"] = ratio(out["zeros.converged"], out["zeros.seeds"])
    out["zeros.critical_line_probe.samples"] = info_sum("zeros.critical_line_probe", "samples")
    for key in ("candidates_tested", "irreducibles_seen", "buckets_scanned"):
        out[f"ffpoly.{key}"] = info_sum("ffpoly.pigeonhole_triple", key)
    return out
