"""Self-test of the benchmark: tiny runs pass the gate, perturbed inputs fail it.

Run from the root of a checkout (about 10 s; not part of the test suite)::

    python3 bench/selftest.py

Checks that one tiny pass of each workload completes with no failure, that
the gate reports a perturbed presets reference and each other kind of wrong
output, and that the tracer skips a function or cache the program no longer
has instead of crashing.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import os
import random
import sys
import tempfile

import hostspeed
import run

PROBLEMS: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        PROBLEMS.append(what)


def one_pass(workload, modules, tracer=None) -> dict:
    return run.measure(workload, modules, random.Random(f"selftest/{workload.name}"), 0.0, tracer)


def tiny_workloads(workloads, tmp, reference):
    return [
        workloads.Presets(tmp, reference, names=["fig1a", "fig3a", "fig5"]),
        workloads.ValidateAll(grids=["jc-grid", "direct-grid"]),
        workloads.ValidatedSweep(tmp, sweeps_per_scheme=1, rows=3),
        workloads.PointCalls(per_variant=5),
    ]


def check_tiny_runs(workloads, modules, tmp, reference) -> None:
    for workload in tiny_workloads(workloads, tmp, reference):
        stats = one_pass(workload, modules)
        expect(
            stats["attempted"] > 0 and not stats["failures"],
            f"tiny {workload.name}: {len(stats['failures'])} of {stats['attempted']} failed",
        )


def check_preset_gate(workloads, modules, tmp, reference) -> None:
    row_fails = workloads.preset_row_failure
    ref = [0.5, 0.25, 1e-3]
    expect(row_fails(ref, [0.5, 0.25 + 5e-13, 1e-3]) is None, "npt within 1e-12 passes")
    expect(row_fails(ref, [0.5, 0.25 + 2e-12, 1e-3]) is not None, "npt off by 2e-12 fails")
    expect(row_fails(ref, [0.5, 0.25, 1e-3 * (1 + 2e-12)]) is not None, "trace off by 2e-12 fails")
    expect(row_fails(ref, [0.5, math.nan, 1e-3]) is not None, "NaN npt fails")
    expect(row_fails([0.5, math.nan, 1e-3], [0.5, 0.25, 1e-3]) is not None, "lost NaN fails")
    expect(row_fails([0.5, 0.0, 1e-3], [0.5, 1e-300, 1e-3]) is not None, "inexact zero fails")

    perturbed = copy.deepcopy(reference)
    perturbed["fig1a"][100][1] += 1e-9
    stats = one_pass(workloads.Presets(tmp, perturbed, names=["fig1a"]), modules)
    expect(len(stats["failures"]) == 1, f"perturbed reference: {stats['failures'][:1]}")


def check_other_gates(workloads, modules, tmp) -> None:
    saved = dict(workloads.SCHEME_TOL)
    try:
        workloads.SCHEME_TOL["direct_kerr"] = -1.0
        stats = one_pass(workloads.ValidateAll(grids=["direct-grid"]), modules)
        expect(len(stats["failures"]) == 60, "validate_all gate: failing grid counts its points")
        workloads.SCHEME_TOL["bs"] = -1.0
        stats = one_pass(workloads.ValidatedSweep(tmp, sweeps_per_scheme=1, rows=3), modules)
        expect(len(stats["failures"]) == 3, "validated_sweep gate: rows above tolerance fail")
    finally:
        workloads.SCHEME_TOL.update(saved)

    # A raising oracle on the second pass: the first pass's CSVs must not pass
    # the gate for it.
    oracle = modules["oracle"]
    quadrature = oracle.quadrature_projected

    def unstable(*args, **kwargs):
        raise oracle.OracleUnstableError("self-test")

    sweep = workloads.ValidatedSweep(tmp, sweeps_per_scheme=1, rows=3)
    rng = random.Random("selftest/unstable")
    first = run.measure(sweep, modules, rng, 0.0)
    oracle.quadrature_projected = unstable
    try:
        second = run.measure(sweep, modules, rng, 0.0)
    finally:
        oracle.quadrature_projected = quadrature
    expect(
        not first["failures"] and len(second["failures"]) == second["attempted"] == 6,
        f"validated_sweep gate: a raising oracle fails every row ({second['failures'][:1]})",
    )

    # A CSV whose swept column is not the one asked for fails.
    sweeps = sweep.inputs(rng)
    outcomes = [outcome for _, outcome in sweep.run(sweeps, hostspeed.Clock())]
    sweeps[0][2][1] += 1e-6
    attempted, failures = sweep.check(sweeps, outcomes)
    expect(len(failures) == 1, f"validated_sweep gate: a wrong swept value fails ({failures[:1]})")

    schemes, states = modules["schemes"], modules["states"]
    out = schemes.kerr_micro_thermal_projected(
        states.MicroState(1.0), states.ThermalParams(10.0, 3.0), states.CatBasis(2.0)
    )
    expect(workloads.point_failure(out) is None, "point gate passes a correct output")
    bad = dataclasses.replace(out, npt_normalized=out.npt_normalized + 1e-9)
    expect(workloads.point_failure(bad) is not None, "point gate: npt off by 1e-9 fails")
    zero = dataclasses.replace(out, matrix=out.matrix.scaled(0.0))
    expect(workloads.point_failure(zero) is None, "point gate: NPT in [0, 1] at zero trace passes")
    expect(
        workloads.point_failure(dataclasses.replace(zero, npt_normalized=math.nan)) is not None,
        "point gate: NaN at zero trace fails",
    )
    one_ulp = dataclasses.replace(zero, npt_normalized=1.0000000000000002)
    expect(workloads.point_failure(one_ulp) is None, "point gate: NPT 1 ulp above 1 passes")
    above = dataclasses.replace(zero, npt_normalized=1.0 + 5e-11)
    expect(workloads.point_failure(above) is not None, "point gate: NPT 1 + 5e-11 fails")
    expect(workloads.point_failure("ValueError: x") is not None, "point gate: a raise fails")

    clock = hostspeed.Clock()
    latency, outcome = clock.call(math.sqrt, 4.0)
    speed = clock.speed()
    expect(
        outcome == 2.0 and clock.latencies == [latency] and 0.01 < speed < 100.0,
        f"clock: one call timed, host speed {speed:.3f}",
    )


def check_tracer(workloads, modules, tmp, reference) -> None:
    import layertrace

    original_main = modules["cli"].main
    presets = workloads.Presets(tmp, reference, names=["fig1a", "fig3a"])
    tracer = layertrace.Tracer(modules)
    one_pass(presets, modules, tracer)
    metrics = layertrace.layer_metrics(tracer)
    expect(metrics["layer.oracle.self_s"][0] == 0.0, "presets: no oracle time")
    share = metrics["layer.schemes.share"][0] + metrics["layer.qlinalg.share"][0]
    expect(share > 0.5, f"presets: schemes+qlinalg share {share:.2f} > 0.5")
    expect(modules["cli"].main is original_main, "tracer restores the wrapped functions")

    tracer = layertrace.Tracer(modules)
    one_pass(workloads.ValidateAll(grids=["kerr-grid", "tt-grid"]), modules, tracer)
    metrics = layertrace.layer_metrics(tracer)
    expect(metrics["layer.oracle.share"][0] > 0.5, "validate_all: oracle share > 0.5")
    expect(metrics["oracle.sandwich_block.hit_ratio"][0] > 0.5, "validate_all: node reuse")

    oracle, schemes = modules["oracle"], modules["schemes"]
    cache, kernel = oracle._bs_term_matrices, schemes.tt_projected_kernel
    del oracle._bs_term_matrices, schemes.tt_projected_kernel
    try:
        tracer = layertrace.Tracer(modules)
        one_pass(workloads.Presets(tmp, reference, names=["fig1a"]), modules, tracer)
        metrics = layertrace.layer_metrics(tracer)
    finally:
        oracle._bs_term_matrices, schemes.tt_projected_kernel = cache, kernel
    expect(
        "oracle.bs_term_matrices.hit_ratio" not in metrics
        and "schemes.tt_projected_kernel.calls" not in metrics
        and "schemes.jc_projected.calls" in metrics,
        "tracer omits metrics of missing functions and caches",
    )


def main() -> int:
    root = os.getcwd()
    modules = run.import_program(os.path.join(root, "src"))
    import workloads

    reference = workloads.load_reference()
    work = os.path.join(root, ".bench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        check_tiny_runs(workloads, modules, tmp, reference)
        check_preset_gate(workloads, modules, tmp, reference)
        check_other_gates(workloads, modules, tmp)
        check_tracer(workloads, modules, tmp, reference)
    print(f"{len(PROBLEMS)} problem(s)" if PROBLEMS else "self-test passed")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
