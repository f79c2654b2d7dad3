"""gemkit benchmark: one workload, closed loop, every answer checked.

Run from the root of a gemkit source tree:

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

One client in one thread calls gemkit (the library, or ``gemkit.cli.main``
in-process) and starts the next op only when the previous one returned.
The run imports gemkit from ``src/`` and builds the workload's inputs from
the seed, several times over, and reports the median as ``setup_s``.  It
then repeats the workload's fixed op list ("pass") until ``--seconds``
have passed, at least twice, and checks every answer.

Times are reported at a reference speed.  A fixed pure-Python loop that
does not touch gemkit (``reference``) is timed before and after every op
and every set-up; each wall time is multiplied by ``REFERENCE_S`` over
the mean of the two reference times around it.  On a shared machine
whose speed swings by more than half within a minute, this keeps the
numbers of two runs comparable; the summary also prints raw wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run adds one
traced pass and reports per-layer metrics instead (see spans.py), and
writes the spans to ``perfbench/out/``.  ``--quick`` makes one short pass
of a reduced op list with every check on, for the benchmark's own tests.
The exit code is 0 only when every op passed its check.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("search", "topology", "session")
# Set-up is repeated at least MIN_SETUPS times and until MIN_SETUP_SECONDS
# have gone into it, so that a cheap set-up is a median of many.
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 1.0
MIN_PASSES = 2
# Nominal time of one reference() call: the speed times are scaled to.
REFERENCE_S = 0.016
_REFERENCE_WALK = random.Random(0).sample(range(2000), 2000)
MODULES = ("core", "embedding", "complexes", "generators", "search", "io", "cli")


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_gemkit() -> SimpleNamespace:
    """Import gemkit afresh from src/, as a new process would."""
    for key in [k for k in sys.modules if k == "gemkit" or k.startswith("gemkit.")]:
        del sys.modules[key]
    pkg = importlib.import_module("gemkit")
    if not Path(pkg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"gemkit was imported from {pkg.__file__}, not from src/")
    return SimpleNamespace(
        **{m: importlib.import_module(f"gemkit.{m}") for m in MODULES}
    )


def reference() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    start = perf_counter()
    walk, seen = _REFERENCE_WALK, {}
    for v in walk * 9:
        for step in range(8):
            v = walk[v]
            seen[v] = seen.get(v, 0) + step
    return perf_counter() - start


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """Wall time at the reference speed."""
    return wall * REFERENCE_S * 2 / (ref_before + ref_after)


class Pass:
    """Outcome of running every op once; times at the reference speed."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.wall_seconds = 0.0
        self.op_ms: list[float] = []
        self.failures: list[str] = []


def run_pass(ops, tracer=None) -> Pass:
    out = Pass()
    walls, refs = [], []
    for i, op in enumerate(ops):
        if op.before is not None:
            op.before()
        # Each op starts from an empty young generation, so the collector
        # work an op pays does not depend on which op ran before it.
        gc.collect()
        refs.append(reference())
        error = None
        if tracer is not None:
            tracer.op = i
            root = tracer.begin(op.name)
            tracer.active = True
        start = perf_counter()
        try:
            result = op.run()
        except Exception:
            error = "raised " + traceback.format_exc(limit=-3)
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
            tracer.end(root, raised=error is not None)
        if error is None:
            try:
                error = op.check(result)
            except Exception:
                error = "check could not read the answer: " + traceback.format_exc(limit=-2)
        if error is not None:
            out.failures.append(f"{op.name}: {error}")
        walls.append(elapsed)
    refs.append(reference())
    for i, wall in enumerate(walls):
        op_s = scaled(wall, refs[i], refs[i + 1])
        out.seconds += op_s
        out.wall_seconds += wall
        out.op_ms.append(op_s * 1e3)
    return out


def measure(ops, seconds: float, min_passes: int) -> list[Pass]:
    passes: list[Pass] = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        passes.append(run_pass(ops))
    return passes


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between the samples around it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one pass of a reduced op list, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gemkit" / "__init__.py").is_file():
        print(f"error: no gemkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        rest = list(sys.argv[1:] if argv is None else argv)
        codes = [
            subprocess.run([sys.executable, __file__, *rest, "--workload", w]).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}"
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    if args.quick:
        min_setups, min_setup_seconds, seconds, min_passes = 1, 0.0, 0.0, 1
    else:
        min_setups, min_setup_seconds = MIN_SETUPS, MIN_SETUP_SECONDS
        seconds, min_passes = args.seconds, MIN_PASSES
    setup_s: list[float] = []
    setup_wall = 0.0
    while len(setup_s) < min_setups or setup_wall < min_setup_seconds:
        gc.collect()
        ref_before = reference()
        start = perf_counter()
        gk = load_gemkit()
        ops = workloads.build(args.workload, gk, args.seed, args.quick, workdir)
        wall = perf_counter() - start
        setup_wall += wall
        setup_s.append(scaled(wall, ref_before, reference()))

    passes = measure(ops, seconds, min_passes)
    pass_s = statistics.median(p.seconds for p in passes)
    op_ms = [ms for p in passes for ms in p.op_ms]
    measured = {
        "setup_s": statistics.median(setup_s),
        "pass_s": pass_s,
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": quantile(op_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = declared_metrics("end_to_end")
    metrics = {name: measured[name] for name in units}
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        traced = run_pass(ops, tracer)
        passes.append(traced)
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = (traced.seconds - pass_s) / pass_s
        units = declared_metrics("per_layer")
        metrics = {name: layers.get(name, 0) for name in units}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")

    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.op_ms) for p in passes)
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  ops/pass {len(ops)}  "
          f"passes {len(passes)}  op samples {len(op_ms)}  setups {len(setup_s)}  "
          f"failed {len(failures)}/{attempted}")
    print("  pass seconds at reference speed " + " ".join(f"{p.seconds:.3f}" for p in passes))
    print("  pass seconds of wall time       " + " ".join(f"{p.wall_seconds:.3f}" for p in passes))
    print(f"  {'fail_frac':<42} {len(failures) / attempted:>14.6g} ratio")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
