#!/usr/bin/env python3
"""Benchmark of wamlab: seeded workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of triple-survey, pole-census and
factor-algebra, or ``all`` to run each in turn.  One client runs the
workload's operations in order (a closed loop), through the public API and
``wamlab.cli.main``, once per repetition; each repetition is a fresh
interpreter (child.py), so every one starts with an empty ``factor`` cache.
Repetitions repeat until S seconds of them have run.  Every output is
checked by oracles.py, which does not use wamlab.

With ``--trace 0`` the result holds the end-to-end metrics, medians over the
repetitions; with ``--trace 1`` untraced and traced repetitions alternate,
and the result holds the per-layer metrics of tracing.py (medians over the
traced ones) and the tracing overhead.  The last line of standard output is
the result as JSON; the lines before it give the environment, each metric
with its unit and sample count, and every failure.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

CHILD = "perfbench/child.py"
OUT_ROOT = ".bench_build/perfbench"
#: End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
#: Repetitions per run at least, whatever --seconds says; with --trace 1
#: half of them are traced.
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: Set-up samples per run: repetitions plus set-up-only launches.
SETUP_SAMPLES = 21
#: No new repetition starts after this many seconds, so a run ends well
#: within three minutes even when the machine is slow.
MAX_RUN_S = 110.0
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    """A repetition's interpreter crashed or printed no result."""


def launch(inputs_path: str, mode: str, spans_path: str = "-") -> dict:
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, inputs_path, mode, spans_path],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"{CHILD} exited {proc.returncode}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["elapsed_s"] = time.monotonic() - launched
    return rep


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(inputs: dict) -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": inputs["workload"],
        "seed": inputs["seed"],
        "operations": len(inputs["ops"]),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "WAMLAB_THREADS": os.environ.get("WAMLAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": git_commit(),
    }


class Verifier:
    """Runs the oracles once per distinct set of outputs, and checks that
    every repetition reproduces the first one byte for byte."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.first: dict[str, str] | None = None
        self.cache: dict[tuple, list] = {}

    def __call__(self, results: list[dict]) -> list[tuple[str, str, str]]:
        key = tuple((r["id"], r["digest"]) for r in results)
        if key not in self.cache:
            self.cache[key] = oracles.check(self.inputs, results)
        findings = list(self.cache[key])
        if self.first is None:
            self.first = dict(key)
        for op_id, digest in key:
            if digest != self.first[op_id]:
                findings.append((op_id, "wrong", "output differs from the first repetition"))
        return findings


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    outdir = os.path.join(OUT_ROOT, name)
    os.makedirs(outdir, exist_ok=True)
    inputs = make_inputs(name, seed, outdir)
    inputs_path = os.path.join(outdir, "inputs.json")
    with open(inputs_path, "w", encoding="ascii") as fh:
        json.dump(inputs, fh)
    env = environment(inputs)
    verify = Verifier(inputs)

    reps, findings = [], []
    started = time.monotonic()
    measured = 0.0
    min_reps = 2 * MIN_TRACED_REPS if trace else MIN_REPS
    while len(reps) < min_reps or measured < seconds:
        if time.monotonic() - started > MAX_RUN_S:
            break
        traced = trace and len(reps) % 2 == 1
        spans = os.path.join(outdir, f"spans-{len(reps)}.json")
        rep = launch(inputs_path, "1" if traced else "0", spans)
        rep["traced"] = traced
        measured += rep["elapsed_s"]
        rep["findings"] = verify(rep["results"])
        findings += [(len(reps), *f) for f in rep["findings"]]
        if traced:
            rep["layers"]["zeros.contour_mismatch"] = oracles.contour_mismatch(inputs, rep["results"])
        reps.append(rep)

    plain = [r for r in reps if not r["traced"]]
    setups = [r["setup_s"] for r in plain]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(launch(inputs_path, "setup")["setup_s"])
    samples = {"setup_s": setups}
    samples.update({k: [r[k] for r in plain] for k in ("wall_s", "cpu_s", "peak_rss_mb")})

    attempted = len(inputs["ops"]) * len(reps)
    failed = sum(len({f[0] for f in r["findings"]}) for r in reps)
    metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k]} for k, v in samples.items()}
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        layers = {
            k: statistics.median(r["layers"][k] for r in traced_reps)
            for k in PER_LAYER if k != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_reps) - metrics["wall_s"]["value"]
        )
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
        samples["traced wall_s"] = [r["wall_s"] for r in traced_reps]

    print("perfbench env " + json.dumps(env))
    print(f"perfbench {name}: {len(reps)} repetitions of {len(inputs['ops'])} operations, "
          f"{sum(r['traced'] for r in reps)} traced")
    for key, values in samples.items():
        unit = END_TO_END.get(key, "s")
        print(f"  {key:<14} {statistics.median(values):.6g} {unit:<3} median of {len(values)}"
              f" (min {min(values):.6g}, max {max(values):.6g})")
    print(f"  {'fail_frac':<14} {failed / attempted:.6g}     {failed} failed of {attempted} attempted")
    distinct: dict[tuple, list[int]] = {}
    for rep_index, op_id, kind, message in findings:
        distinct.setdefault((op_id, kind, message), []).append(rep_index)
    for (op_id, kind, message), rep_list in distinct.items():
        print(f"perfbench {kind} {name} {op_id} (repetitions {rep_list}): {message}")
    return {
        "correct": not any(f[2] == "wrong" for f in findings),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (os.path.isfile("src/wamlab/__init__.py") and os.path.isfile(CHILD)):
        print("perfbench: run from the root of a wamlab checkout (src/wamlab is missing)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
