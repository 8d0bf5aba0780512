"""mixent benchmark: one workload per process, end-to-end or layer metrics.

Run from the root of a checkout (the program is imported from ``./src``)::

    python3 bench/run.py --workload presets --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``presets`` -- all 13 figure presets via ``mixent preset run`` (4261 rows).
* ``validate_all`` -- the five validation grids in ``mixent validate all``
  order (1104 points).
* ``validated_sweep`` -- seeded ``mixent sweep --validate`` d-sweeps of the
  ``kerr_micro_thermal`` and ``bs`` schemes (60 rows per pass).
* ``point_calls`` -- seeded single-point calls to the five public
  constructors over their whole domain (2100 calls per pass).

The run is single-process and single-threaded: ``MIXENT_THREADS`` is removed
from the environment and the BLAS/OpenMP thread counts are set to 1 before
numpy is imported.  The workload runs in passes until ``--seconds`` have
passed; every pass starts with all of the program's function caches cleared,
as in a fresh CLI process, and every pass's outputs go through the
correctness gate (see ``workloads.py``).

End-to-end metrics (``--trace 0``).  Every time is scaled to the reference
host speed by the calibration that runs between the public calls (see
``hostspeed.py``); the same times as measured are printed as comments and
kept in the run record.

* ``rows_per_s`` -- work units per second spent in the public calls of a
  pass, median over passes.
* ``call_us.p50``, ``call_us.p99`` -- percentiles of the latency of one
  public call within a pass, median over passes: a constructor call for
  ``point_calls`` (2100 per pass); one ``cli.main`` preset or sweep call, or
  one ``cli.validate_grid`` call, for the other workloads (4 to 13 per pass,
  so there p99 is the slowest call of the pass).
* ``peak_rss_mb`` -- peak resident set of this process.
* ``setup_s`` -- median time to import ``mixent`` and ``mixent.cli`` in a
  fresh interpreter, over several interpreters started before the first pass.

The fraction of units that failed the gate is ``failed / attempted`` of the
result line; it is not a metric because it is 0 on a correct program.

With ``--trace 1`` the first half of the time runs untraced and the second
half runs with the layer tracer installed (``layertrace.py``); the result
holds the per-pass layer metrics and ``trace.overhead``, the traced
``rows_per_s`` over the untraced one.

The last line of standard output is the result as one JSON object.  A run
record (machine, versions, commit, sample counts, the metrics as measured,
the median host speed and ratio of CPU to wall time of the passes) is printed
before it and written with the result and each pass's host speed, wall and
CPU seconds to ``.bench_out/``.  Exit code 0 when every unit passed the gate,
1 when some failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 9
SETUP_CODE = (
    "import time; t = time.perf_counter(); import mixent, mixent.cli; "
    "print(repr(time.perf_counter() - t))"
)
WORKLOADS = ("presets", "validate_all", "validated_sweep", "point_calls")


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def measure_setup(root: str, src: str) -> list[tuple[float, float]]:
    """Import times of mixent in fresh interpreters, as measured and at the
    reference host speed; the first (cold) one is dropped."""
    import hostspeed

    env = dict(os.environ, PYTHONPATH=src)
    clock = hostspeed.Clock()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import mixent from {src}:\n{proc.stderr.strip()}")
        if i:
            clock.add(float(proc.stdout))
    speed = clock.speed()
    return [(seconds, seconds * speed) for seconds in clock.latencies]


def import_program(src: str) -> dict:
    """Import mixent from ``src`` (and from nowhere else); its layer modules by name."""
    sys.path.insert(0, src)
    try:
        import mixent
        from mixent import cli, oracle, qlinalg, schemes, states
    except ImportError as exc:
        raise BenchError(f"cannot import mixent from {src}: {exc}") from None
    where = os.path.dirname(os.path.abspath(mixent.__file__))
    if where != os.path.join(src, "mixent"):
        raise BenchError(f"imported mixent from {where}, not from {src}")
    return {"cli": cli, "schemes": schemes, "states": states, "qlinalg": qlinalg, "oracle": oracle}


def clear_caches(modules: dict) -> None:
    """Empty every functools cache of the program, as in a fresh process."""
    for module in modules.values():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def measure(workload, modules: dict, rng, seconds: float, tracer=None) -> dict:
    """Run passes for ``seconds``.  Per pass: the rate in units per second of
    call time and the call latencies, both at the reference host speed and as
    measured, the host speed, wall and CPU seconds; and the gate counts over
    all passes."""
    import hostspeed

    clock = hostspeed.Clock()
    keys = ("rates", "raw_rates", "latencies", "raw_latencies", "speeds", "wall_s", "cpu_s")
    stats = {key: [] for key in keys}
    attempted, failures = 0, []
    deadline = time.perf_counter() + seconds
    while True:
        clear_caches(modules)
        inputs = workload.inputs(rng)
        clock.reset()
        if tracer:
            tracer.install()
        cpu = time.process_time()
        start = time.perf_counter()
        calls = workload.run(inputs, clock)
        speed = clock.speed()
        stats["wall_s"].append(time.perf_counter() - start)
        stats["cpu_s"].append(time.process_time() - cpu)
        busy = sum(clock.latencies)
        if tracer:
            tracer.uninstall()
            tracer.end_pass(busy)
        units, pass_failures = workload.check(inputs, [outcome for _, outcome in calls])
        attempted += units
        failures += pass_failures
        stats["rates"].append(units / (busy * speed))
        stats["raw_rates"].append(units / busy)
        stats["latencies"].append([latency * speed for latency in clock.latencies])
        stats["raw_latencies"].append(clock.latencies)
        stats["speeds"].append(speed)
        if time.perf_counter() >= deadline:
            return {**stats, "attempted": attempted, "failures": failures}


def percentiles(values: list[float]) -> tuple[float, float]:
    """p50 and p99 of one pass's call latencies; p99 is the slowest call below 100 calls."""
    if len(values) < 100:
        return statistics.median(values), max(values)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[98]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str) -> str | None:
    """The checkout's git commit, or None when it is not a git repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args, root: str, samples: dict) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "processes": 1,
        "threads": 1,
        "thread_env": {**THREAD_ENV, "MIXENT_THREADS": None},
        "samples": samples,
    }


def end_to_end(stats: dict, setup: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """End-to-end metrics with times at the reference host speed, the times as
    measured, and the metrics' sample counts."""
    metrics, raw = {}, {}
    for out, rates, latencies, setup_s in (
        (metrics, stats["rates"], stats["latencies"], [t for _, t in setup]),
        (raw, stats["raw_rates"], stats["raw_latencies"], [t for t, _ in setup]),
    ):
        p50s, p99s = zip(*map(percentiles, latencies))
        out["rows_per_s"] = (statistics.median(rates), "1/s")
        out["call_us.p50"] = (statistics.median(p50s) * 1e6, "us")
        out["call_us.p99"] = (statistics.median(p99s) * 1e6, "us")
        out["setup_s"] = (statistics.median(setup_s), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    calls = {"passes": len(stats["rates"]), "calls_per_pass": len(stats["latencies"][0])}
    samples = {
        "rows_per_s": {"passes": len(stats["rates"])},
        "call_us.p50": calls,
        "call_us.p99": calls,
        "peak_rss_mb": {"processes": 1},
        "setup_s": {"interpreters": len(setup)},
    }
    return metrics, raw, samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mixent benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("MIXENT_THREADS", None)
    os.environ.update(THREAD_ENV)
    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        setup = [] if args.trace else measure_setup(root, src)
        modules = import_program(src)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    import layertrace
    import workloads

    out_dir = os.path.join(root, ".bench_out")
    work_dir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_dir)
    try:
        workload = workloads.make(args.workload, work_dir)
        rng = random.Random(f"{args.workload}/{args.seed}")
        if args.trace:
            tracer = layertrace.Tracer(modules)
            plain = measure(workload, modules, rng, args.seconds / 2.0)
            traced = measure(workload, modules, rng, args.seconds / 2.0, tracer)
            metrics = layertrace.layer_metrics(tracer)
            overhead = statistics.median(traced["rates"]) / statistics.median(plain["rates"])
            metrics["trace.overhead"] = (overhead, "ratio")
            metrics["trace.passes"] = (tracer.passes, "count")
            raw = {}
            samples = {"untraced_passes": len(plain["rates"]), "traced_passes": tracer.passes}
            stats = {key: plain[key] + traced[key] for key in plain}
            tracer.write(os.path.join(out_dir, f"{args.workload}.spans.jsonl.gz"))
        else:
            stats = measure(workload, modules, rng, args.seconds)
            metrics, raw, samples = end_to_end(stats, setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failures = stats["attempted"], stats["failures"]
    record = run_record(args, root, samples)
    # CPU over wall time of a pass: near 1 when the process is not held off
    # the CPU, so a slow pass with a ratio near 1 ran on a slower CPU.
    passes = {key: stats[key] for key in ("rates", "raw_rates", "speeds", "wall_s", "cpu_s")}
    record["cpu_over_wall"] = statistics.median(
        cpu / wall for cpu, wall in zip(passes["cpu_s"], passes["wall_s"])
    )
    record["host_speed"] = statistics.median(passes["speeds"])
    record["raw_metrics"] = {name: value for name, (value, _) in raw.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_dir, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(
            {"record": record, "result": result, "passes": passes, "failures": failures[:100]},
            fh,
            indent=1,
        )

    for message in failures[:20]:
        print(f"bench: FAILED {message}", file=sys.stderr)
    if failures:
        print(f"bench: {len(failures)} of {attempted} units failed the gate", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"# {name} as measured = {value:.6g} {unit}")
    print(f"# failed_frac = {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    print(f"# run record: {json.dumps(record)}")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
