"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py INPUTS.json TRACE SPANS_PATH

Run from the repository root by run.py.  A fresh process per repetition
starts every repetition with an empty ``factor`` cache and its own peak
memory, as a CLI invocation would.  Set-up time runs from this module's first
statement through ``import wamlab`` and loading the inputs, so it leaves out
the start of the interpreter.  TRACE is 0, 1 (record spans) or "setup" (stop
after set-up).  Prints one JSON line on stdout.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """This process's peak resident memory.  Not ru_maxrss: Linux carries
    that over from the parent through fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    inputs_path, trace, spans_path = argv
    sys.path.insert(0, "src")
    import wamlab
    import wamlab.cli

    with open(inputs_path, encoding="ascii") as fh:
        ops = json.load(fh)["ops"]
    setup_s = time.perf_counter() - _STARTED
    if trace == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if trace == "1":
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    def run_cli(op, ctx):
        code = wamlab.cli.main(op["argv"])
        if code != 0:
            raise RuntimeError(f"wamlab {op['argv'][0]} exited {code}")

    def run_zeros(op, ctx):
        # As scripts/pole_scatter.py does: a_crit first, then the rectangle.
        a_crit = wamlab.critical_abscissa(wamlab.factor(op["n"])).a_crit
        (lo_rel, lo), (hi_rel, hi) = op["re"]
        re = (a_crit + lo if lo_rel else lo, a_crit + hi if hi_rel else hi)
        ctx[op["id"]] = (*re, *op["im"])
        run_cli({"argv": ["zeros", str(op["n"]), "--re", f"{re[0]!r}:{re[1]!r}",
                          "--im", f"{op['im'][0]!r}:{op['im'][1]!r}", "--out", op["path"]]}, ctx)
        return {"a_crit": a_crit, "region": list(ctx[op["id"]])}

    def run_contour(op, ctx):
        region = wamlab.SearchRegion(*ctx[op["of"]])
        return wamlab.argument_principle_count(wamlab.factor(op["n"]), region)

    def run_factor(op, ctx):
        return wamlab.factor(op["n"])

    def run_poly_factor(op, ctx):
        return wamlab.poly_factor(wamlab.FpPoly(op["q"], tuple(op["coeffs"])))

    runners = {
        "cli": run_cli,
        "zeros": run_zeros,
        "contour": run_contour,
        "factor": run_factor,
        "poly_factor": run_poly_factor,
    }

    ctx: dict = {}
    values: list = []
    errors: list = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for op in ops:
        value = error = None
        try:
            value = runners[op["kind"]](op, ctx)
        except SystemExit as exc:  # argparse usage errors exit from inside main
            error = f"SystemExit {exc.code}"
        except Exception as exc:  # one failed operation must not stop the client
            error = f"{type(exc).__name__}: {exc}"
        values.append(value)
        errors.append(error)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu() - cpu0
    peak_rss_mb = _peak_rss_mb()

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer.spans)
        tracer.dump(spans_path)

    results = []
    for op, value, error in zip(ops, values, errors):
        value = _plain(value)
        digest = hashlib.sha256(json.dumps(value).encode())
        if error is None and "path" in op:
            with open(op["path"], "rb") as fh:
                digest.update(fh.read())
        results.append({"id": op["id"], "value": value, "error": error, "digest": digest.hexdigest()})
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "results": results,
        "layers": layers,
    }))
    return 0


def _plain(value):
    """JSON form of an operation's library result."""
    if value is None or isinstance(value, (int, float, dict)):
        return value
    if hasattr(value, "pairs"):  # Factorization
        return [list(pair) for pair in value.pairs()]
    # PolyFactorization
    return {
        "unit": value.unit,
        "factors": [[list(f.coefficients), e] for f, e in value.factors],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
