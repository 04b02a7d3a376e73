"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-paper --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the workload's end-to-end metrics, measured with
no probes installed. With --trace 1 the command first runs the same
workload untraced in a child process, then runs it again with every layer
wrapped, and reports every per-layer metric, 0 for a layer the workload
does not reach, plus the tracing overhead: how much lower the traced run's
ops_per_s was. For the training workloads a shorter pass under tracemalloc
comes before the traced run and gives the live bytes at each backward
pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_runtime_env() -> None:
    """Cap BLAS threads at the cores this process may use, and keep numpy
    from asking for transparent huge pages. Takes effect only before numpy
    loads; the benchmark itself starts no threads.

    With huge pages granted on request, a large array's speed depends on
    how fragmented the machine's memory is when it is allocated: the
    8-second separations ran 5-25% faster or slower from run to run as
    the kernel had huge pages to give or not. Small pages are slower, but
    the same on every run."""
    for var in BLAS_VARS:
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, specs=None):
    """Run one workload in this process; with `trace`, under the probes,
    which are removed again before this returns."""
    from bench import workloads

    fn = workloads.WORKLOADS[name]
    spec = (specs or workloads.SPECS)[name]
    if not trace:
        return fn(seed, seconds, workdir, spec)
    from bench.layers import LayerProbes, sample_live_bytes
    from bench.tracer import Tracer

    live_bytes = []
    if name in workloads.SAMPLES_LIVE_BYTES:
        # the fewest repetitions the workload allows
        sample_spec = dataclasses.replace(
            spec, **workloads.SAMPLES_LIVE_BYTES[name])
        sample_dir = os.path.join(workdir, "live-bytes")
        live_bytes = sample_live_bytes(
            Tracer(), lambda: fn(seed, 0, sample_dir, sample_spec))
    tracer = Tracer()
    probes = LayerProbes(tracer)
    try:
        probes.install()
        root = tracer.begin("bench." + name)
        result = fn(seed, seconds, workdir, spec)
        tracer.end(root)
    finally:
        tracer.restore()
    result.layer_metrics = probes.metrics(live_bytes)
    result.tracer = tracer
    return result


def tracing_overhead_pct(untraced: dict, traced: dict) -> float:
    """Percent by which tracing lowered the workload's ops_per_s."""
    return 100.0 * (untraced["ops_per_s"][0] / traced["ops_per_s"][0] - 1.0)


def _untraced_child(args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"untraced run exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_report(args, result, metrics: dict) -> None:
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"blas_threads={os.environ.get(BLAS_VARS[0], 'default')}")
    for name, passed in sorted(result.checks.items()):
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    print(f"operations attempted={result.attempted} failed={result.failed}")
    for name, value in sorted(result.notes.items()):
        print(f"note {name} = {value}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value:.6g} {unit}")


def main(argv=None, specs=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "voicesep", "__init__.py")):
        sys.stderr.write(f"bench: no voicesep sources under {SRC}; run "
                         "from the root of a source checkout\n")
        return 2
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from bench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}\n")
        return 2

    untraced = _untraced_child(args) if args.trace else None
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), workdir, specs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        result.checks["untraced_run"] = untraced["correct"]
        metrics = dict(result.layer_metrics)
        base = {k: (v["value"], v["unit"])
                for k, v in untraced["metrics"].items()}
        metrics["trace.overhead_pct"] = (
            tracing_overhead_pct(base, result.metrics), "%")
    else:
        metrics = result.metrics
    _print_report(args, result, metrics)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    set_runtime_env()
    sys.exit(main())
