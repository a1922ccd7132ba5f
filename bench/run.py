"""compdepth benchmark: times the CLI pipeline on seeded synthetic workloads.

    python3 bench/run.py --workload dense_pipeline --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from a source checkout; the package is imported from ./src. Each run
generates its workload's inputs from --seed, then runs passes of the
workload's ops (see workloads.py) back to back until --seconds have elapsed,
checking every op's output. Every line but the last is a readable report
with the machine's details; the last line is one JSON object:

  --trace 0: the end-to-end metrics (see measure).
  --trace 1: per-layer metrics from a traced run. Untraced and traced
             passes alternate; the tracer wraps every public compdepth
             function from outside (tracing.py).

Reported times are calibrated. On a shared host the speed of the whole
machine drifts: on a 2-vCPU Xeon VM the same pass ran 1.8x faster at the
end of a ten-minute stretch than at its start. A fixed reference task that does not
use compdepth is timed right before and after every pass and set-up, and
every time a run reports is scaled by REF_SECONDS over the run's median
reference time: a time that reads 1.0 s took 1.0 s on a machine on which
the reference task takes REF_SECONDS. The result file under bench/out/
keeps the raw wall times and the reference times.

`--workload all` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5

#: Seconds the reference task takes on the machine calibrated times are
#: quoted for (a 2-vCPU Xeon VM in a quiet moment).
REF_SECONDS = 0.011

#: Per-command times printed in the report and reported by the traced run.
COMMAND_METRICS = ("oracle", "eval", "lab_flip", "plane", "plane_heatmap",
                   "horizon_fit", "lab_multiflip", "lab_disturb")


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    """Interpreter, numpy, CPU and BLAS details recorded with every result."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def _reference_task() -> None:
    """Fixed work without compdepth: Python objects, JSON and numpy, like
    the workloads."""
    rows = [{"i": i, "x": math.sqrt(i), "s": str(i)} for i in range(5000)]
    json.loads(json.dumps(rows))
    np.sort(np.arange(50_000.0)[::-1] * 1.0001)


def reference_seconds() -> float:
    """Fastest of three runs of the reference task."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_task()
        times.append(time.perf_counter() - start)
    return min(times)


def between_references(fn):
    """fn() run between two reference measurements: (result, their mean)."""
    before = reference_seconds()
    result = fn()
    return result, (before + reference_seconds()) / 2.0


def time_scale(refs) -> float:
    """Factor from this run's wall seconds to calibrated seconds."""
    return REF_SECONDS / statistics.median(refs)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def _time_import() -> float:
    """Seconds for a fresh interpreter to import the CLI, as each
    `compdepth` invocation does before any work."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import compdepth.cli"], env=env, check=True)
    return time.perf_counter() - start


def _setup_once(workload) -> float:
    """One set-up: import the package in a fresh interpreter, then generate
    and write the workload's inputs."""
    seconds = _time_import()
    start = time.perf_counter()
    workload.setup()
    return seconds + time.perf_counter() - start


def _run_pass(workload, digests):
    """One pass between reference measurements: (op results, reference s)."""
    from workloads import run_op

    return between_references(lambda: [run_op(op, digests) for op in workload.ops()])


def _pass_seconds(results) -> float:
    """Summed wall time of the pass's successful ops."""
    return sum(r.seconds for r in results if r.ok)


def _command_times(passes, scale: float) -> dict[str, float]:
    """Median seconds per op name over its successful runs, times scale; 0
    where none ran."""
    out = {}
    for name in COMMAND_METRICS:
        times = [r.seconds for results, _ in passes for r in results
                 if r.name == name and r.ok]
        out[f"{name}_s"] = statistics.median(times) * scale if times else 0.0
    return out


def measure(workload, seconds: float) -> tuple[list, dict, dict]:
    """Untraced passes for `seconds`; returns the passes (with their
    reference times), the end-to-end metrics and the run's samples.

    One set-up runs before each of the first SETUP_REPEATS passes, so the
    set-up samples are spread over the run like the passes are.
    """
    digests: dict[str, str] = {}
    setups, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if len(setups) < SETUP_REPEATS:
            setups.append(between_references(lambda: _setup_once(workload)))
        passes.append(_run_pass(workload, digests))
    scale = time_scale([ref for _, ref in setups + passes])
    pass_s = statistics.median(_pass_seconds(results) for results, _ in passes) * scale
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups) * scale, "s"),
        "objects_per_s": (workload.objects / pass_s if pass_s else 0.0, "objects/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return passes, metrics, {"scale": scale, "setups": setups}


def measure_traced(workload, seconds: float, spans_path: Path) -> tuple[list, dict, dict]:
    """Alternate untraced and traced passes for `seconds`; returns all passes
    (with their reference times), the per-layer metrics and the run's
    samples.

    Times are medians over the traced passes; counts are the same in every
    pass. make_scene is traced in one set-up of its own. The spans of the
    last traced pass are written to spans_path.
    """
    from tracing import LAYER_UNITS, Tracer, layer_metrics, write_spans
    from workloads import run_op

    tracer = Tracer()
    digests: dict[str, str] = {}

    def traced_setup():
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                workload.setup()
        finally:
            tracer.uninstall()
        return layer_metrics(tracer.spans, tracer.counts)

    def traced_pass():
        tracer.reset()
        tracer.install()
        try:
            return [run_op(op, digests, wrap=tracer.span) for op in workload.ops()]
        finally:
            tracer.uninstall()

    setup, setup_ref = between_references(traced_setup)
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(_run_pass(workload, digests))
        traced.append(between_references(traced_pass))
        per_pass.append(layer_metrics(tracer.spans, tracer.counts))
    write_spans(tracer.spans, spans_path)

    scale = time_scale([setup_ref] + [ref for _, ref in untraced + traced])
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name.startswith("synthetic.make_scene"):
            value = setup[name]
        elif unit == "s":
            value = statistics.median(p[name] for p in per_pass)
        else:
            value = per_pass[0][name]
        metrics[name] = (value * scale if unit == "s" else value, unit)
    # Each traced pass runs right after an untraced one; pairing them keeps
    # drift in the machine's speed out of the difference.
    overhead = statistics.median(_pass_seconds(t) - _pass_seconds(u)
                                 for (u, _), (t, _) in zip(untraced, traced)) * scale
    metrics["trace_overhead_s"] = (overhead, "s")
    for name, value in _command_times(untraced, scale).items():
        metrics[name] = (value, "s")
    return untraced + traced, metrics, {"scale": scale}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _report(args, env, passes, metrics, scale: float) -> dict:
    results = [r for p, _ in passes for r in p]
    failed = [r for r in results if not r.ok]
    checks_ok = not any(r.error.startswith(("check:", "uncaught")) for r in failed)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  passes {len(passes)}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# times are calibrated: wall seconds x {scale:.4f} (reference task "
          f"{REF_SECONDS / scale * 1e3:.3f} ms here, {REF_SECONDS * 1e3:g} ms calibrated)")
    if not args.trace:
        for name, value in _command_times(passes, scale).items():
            if value:
                print(f"# {name:<40} {value:14.6f} s  (median)")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<40} {value:14.6f} {unit}" if isinstance(value, float)
              else f"# {name:<40} {value:14d} {unit}")
    print(f"# {'failed_ops_frac':<40} {len(failed) / len(results):14.6f} ratio  "
          f"({len(failed)} of {len(results)} ops)")
    for error in sorted({f"{r.name}: {r.error}" for r in failed}):
        print(f"# failed op  {error}")
    return {
        "correct": checks_ok,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_one(args) -> int:
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}' "
              f"(expected one of {', '.join(WORKLOADS)} or all)", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"{tag}-{os.getpid()}"
    workload = WORKLOADS[args.workload](workdir, args.seed)
    try:
        if args.trace:
            passes, metrics, samples = measure_traced(workload, args.seconds,
                                                      OUT_DIR / f"spans-{tag}.jsonl")
        else:
            passes, metrics, samples = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    result = _report(args, env, passes, metrics, samples["scale"])
    samples["passes"] = [{"ref": ref, "ops": [[r.name, r.seconds, r.ok] for r in results]}
                         for results, ref in passes]
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "ref_seconds": REF_SECONDS, **result,
                    "samples": samples}) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "compdepth" / "__init__.py").is_file():
        print(f"error: no compdepth sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # workloads.py and tracing.py import compdepth, so they are imported
    # only once ./src is on the path.
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
