"""The four benchmark workloads: their inputs, one timed pass, and the gate.

Each workload runs in passes.  ``inputs(rng)`` builds a pass's inputs outside
the timed region (seeded workloads draw new inputs for every pass) and removes
the previous pass's output files, so that a call which writes nothing cannot
pass the gate on stale output.  ``run(inputs, clock)`` is the timed pass: it
times each public call with ``clock.call`` (see ``hostspeed.py``) and returns
``(seconds, outcome)`` for each.  ``check(inputs, outcomes)`` returns the
number of work units attempted and the failure messages.  A unit is a CSV row
(``presets``, ``validated_sweep``), a grid point (``validate_all``) or a
constructor call (``point_calls``).

Every public call is resolved through its module attribute at call time, so
the tracer's wrappers see it.  Calls that raise are caught at this boundary,
counted as failures and the pass goes on.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from mixent import cli, schemes
from mixent.states import AtomFieldParams, CatBasis, MicroState, ThermalParams

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", "presets.json")

# Gate tolerances, fixed here rather than read from the program so that a
# change to the program cannot loosen them.
PRESET_NPT_TOL = 1e-12
PRESET_TRACE_RTOL = 1e-12
SWEPT_RTOL = 1e-12  # swept value of a row against the one asked for
POINT_NPT_TOL = 1e-10
NPT_RANGE_SLACK = 4 * np.finfo(float).eps  # NPT bounds when the trace underflows
CSV_SCHEMA = "# mixent-csv v1"
SCHEME_TOL = {
    "jc": 1e-10,
    "kerr_micro_thermal": 1e-8,
    "bs": 1e-8,
    "tt": 1e-8,
    "direct_kerr": 1e-8,
}

# `mixent validate all` order, with the number of points in each grid.
GRIDS = {
    "jc-grid": ("jc", 144),
    "kerr-grid": ("kerr_micro_thermal", 180),
    "bs-grid": ("bs", 360),
    "tt-grid": ("tt", 360),
    "direct-grid": ("direct_kerr", 60),
}


def read_csv(path: str) -> list[list[float]]:
    """The float rows of a ``# mixent-csv v1`` file, below its header line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or lines[0] != CSV_SCHEMA:
        raise ValueError(f"{path}: missing schema or header line")
    return [[float(x) for x in line.split(",")] for line in lines[2:]]


def remove_outputs(paths) -> None:
    """Delete output files of an earlier pass; absent files are fine."""
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


def read_rows(path: str, columns: int) -> list[list[float]] | None:
    """The float rows of a CSV the program wrote, or None if it is unreadable or malformed."""
    try:
        rows = read_csv(path)
    except (OSError, ValueError):
        return None
    return rows if all(len(row) == columns for row in rows) else None


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)["presets"]


def preset_row_failure(ref: list, row: list) -> str | None:
    """Why an observed preset row ``[x, npt, trace]`` fails against the reference."""
    rx, rnpt, rtrace = ref
    x, npt, trace = row
    if not abs(x - rx) <= SWEPT_RTOL * max(1.0, abs(rx)):
        return f"swept value {x!r} vs reference {rx!r}"
    if math.isnan(rnpt) != math.isnan(npt):
        return f"npt {npt!r} vs reference {rnpt!r} (NaN mismatch)"
    if rnpt == 0.0 and npt != 0.0:
        return f"npt {npt!r} where the reference is exactly 0"
    if not math.isnan(rnpt) and not abs(npt - rnpt) <= PRESET_NPT_TOL:
        return f"npt {npt!r} vs reference {rnpt!r}"
    if math.isnan(rtrace) != math.isnan(trace):
        return f"trace {trace!r} vs reference {rtrace!r} (NaN mismatch)"
    if not math.isnan(rtrace) and not abs(trace - rtrace) <= PRESET_TRACE_RTOL * abs(rtrace):
        return f"trace {trace!r} vs reference {rtrace!r}"
    return None


class Presets:
    """Every figure preset through ``mixent preset run``; no oracle."""

    name = "presets"

    def __init__(self, workdir: str, reference: dict, names=None):
        self.workdir = workdir
        self.reference = reference
        self.names = list(names or reference)

    def inputs(self, rng):
        remove_outputs(self._csv(name) for name in self.names)
        return self.names

    def run(self, names, clock):
        return [
            clock.call(cli.main, ["preset", "run", name, "--out", self._csv(name)])
            for name in names
        ]

    def _csv(self, name):
        return os.path.join(self.workdir, f"{name}.csv")

    def check(self, names, outcomes):
        attempted, failures = 0, []
        for name, outcome in zip(names, outcomes):
            ref_rows = self.reference[name]
            attempted += len(ref_rows)
            if outcome != 0:
                failures += [f"{name}: exit {outcome}"] * len(ref_rows)
                continue
            rows = read_rows(self._csv(name), 3)
            if rows is None or len(rows) != len(ref_rows):
                failures += [f"{name}: CSV unreadable or not {len(ref_rows)} rows"] * len(ref_rows)
                continue
            for i, (ref, row) in enumerate(zip(ref_rows, rows)):
                why = preset_row_failure(ref, row)
                if why:
                    failures.append(f"{name} row {i}: {why}")
        return attempted, failures


class ValidateAll:
    """The five validation grids with the oracle caches cold at pass start."""

    name = "validate_all"

    def __init__(self, grids=None):
        self.grids = list(grids or GRIDS)

    def inputs(self, rng):
        return self.grids

    def run(self, grids, clock):
        return [clock.call(cli.validate_grid, grid) for grid in grids]

    def check(self, grids, outcomes):
        # validate_grid reports only its worst point, so a grid that fails
        # counts all of its points as failed.
        attempted, failures = 0, []
        for grid, outcome in zip(grids, outcomes):
            scheme, points = GRIDS[grid]
            attempted += points
            if isinstance(outcome, str):
                failures += [f"{grid}: {outcome}"] * points
                continue
            dev, worst, _ = outcome
            if not dev <= SCHEME_TOL[scheme]:
                failures += [f"{grid}: max deviation {dev:.3e} at {worst}"] * points
        return attempted, failures


class ValidatedSweep:
    """Seeded ``mixent sweep --validate`` d-sweeps; every row is a new (V, d)."""

    name = "validated_sweep"

    def __init__(self, workdir: str, sweeps_per_scheme: int = 2, rows: int = 15):
        self.workdir = workdir
        self.sweeps_per_scheme = sweeps_per_scheme
        self.rows = rows

    def inputs(self, rng):
        # Parameters span the envelope of the validation grids: V in
        # [1, 1000], d from 0 to 5 sqrt(V), gamma in [1, 3], r in [0, 1].
        sweeps = []
        for scheme in ("kerr_micro_thermal", "bs"):
            for _ in range(self.sweeps_per_scheme):
                v = 10.0 ** rng.uniform(0.0, 3.0)
                d_stop = rng.uniform(1.0, 5.0) * math.sqrt(v)
                argv = [
                    "sweep",
                    "--scheme",
                    scheme,
                    "--set",
                    f"r={rng.uniform(0.0, 1.0)!r}",
                    "--set",
                    f"V={v!r}",
                    "--set",
                    f"gamma={rng.uniform(1.0, 3.0)!r}",
                    "--sweep",
                    f"d:0:{d_stop!r}:{self.rows}",
                    "--validate",
                ]
                if scheme == "bs":
                    argv += ["--set", f"sign={rng.choice(('+', '-'))}"]
                sweeps.append((scheme, argv, np.linspace(0.0, d_stop, self.rows)))
        remove_outputs(self._csv(i) for i in range(len(sweeps)))
        return sweeps

    def run(self, sweeps, clock):
        return [
            clock.call(cli.main, argv + ["--out", self._csv(i)])
            for i, (_, argv, _) in enumerate(sweeps)
        ]

    def _csv(self, i):
        return os.path.join(self.workdir, f"sweep{i}.csv")

    def check(self, sweeps, outcomes):
        attempted, failures = 0, []
        for i, ((scheme, argv, ds), outcome) in enumerate(zip(sweeps, outcomes)):
            attempted += self.rows
            if outcome not in (0, 3):  # 3: some row above tolerance, CSV written
                failures += [f"sweep {argv}: exit {outcome}"] * self.rows
                continue
            rows = read_rows(self._csv(i), 5)
            if rows is None or len(rows) != self.rows:
                failures += [f"sweep {argv}: CSV unreadable or not {self.rows} rows"] * self.rows
                continue
            for row, d in zip(rows, ds):
                if not abs(row[0] - d) <= SWEPT_RTOL * max(1.0, d):
                    failures.append(f"sweep {argv}: d={row[0]!r} where {float(d)!r} was asked")
                elif not row[-1] <= SCHEME_TOL[scheme]:
                    failures.append(f"sweep {argv}: d={row[0]!r} deviation {row[-1]!r}")
        return attempted, failures


POINT_VARIANTS = ("jc", "kerr", "bs+", "bs-", "tt+", "tt-", "direct")


def _draw_point(variant: str, rng):
    """Constructor name and arguments drawn over the scheme's whole domain."""
    if variant == "jc":
        params = AtomFieldParams(
            p=rng.uniform(0.0, 1.0),
            lam=1.0 - 10.0 ** rng.uniform(-4.0, 0.0),
            gt=rng.uniform(0.0, 8.0 * math.pi),
            n=rng.randint(0, 20),
        )
        return "jc_projected", (params,)
    thermal = ThermalParams(
        10.0 ** rng.uniform(0.0, 6.0), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 3.0)
    )
    basis = CatBasis(10.0 ** rng.uniform(-0.5, 0.7))
    if variant == "direct":
        return "direct_kerr_projected", (thermal, basis)
    micro = MicroState(rng.uniform(0.0, 1.0))
    if variant == "kerr":
        return "kerr_micro_thermal_projected", (micro, thermal, basis)
    sign = 1 if variant.endswith("+") else -1
    name = "bs_scheme_projected" if variant.startswith("bs") else "tt_scheme_projected"
    return name, (micro, thermal, basis, sign)


def reference_npt(entries: np.ndarray) -> float:
    """NPT of the trace-normalised partial transpose by ``np.linalg.eigvalsh``."""
    pt = entries.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    pt = pt / np.trace(pt).real
    eps = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)[0]
    return -2.0 * eps if eps < 0.0 else 0.0


def point_failure(output) -> str | None:
    """Why one constructor output fails the point_calls gate, if it does."""
    if isinstance(output, str):
        return output
    npt = output.npt_normalized
    trace = output.trace
    if trace >= np.finfo(float).tiny:  # a normal double: the state can be normalised
        ref = reference_npt(output.matrix.entries)
        if not abs(npt - ref) <= POINT_NPT_TOL:
            return f"npt {npt!r} vs eigvalsh {ref!r} (trace {trace!r})"
        return None
    # A few ulps of rounding at the ends of [0, 1] are allowed, no more.
    if not -NPT_RANGE_SLACK <= npt <= 1.0 + NPT_RANGE_SLACK:
        return f"npt {npt!r} outside [0, 1] with unrepresentable trace {trace!r}"
    return None


class PointCalls:
    """Seeded single-point calls to the five public constructors."""

    name = "point_calls"

    def __init__(self, per_variant: int = 300):
        self.per_variant = per_variant

    def inputs(self, rng):
        calls = [_draw_point(v, rng) for v in POINT_VARIANTS for _ in range(self.per_variant)]
        rng.shuffle(calls)
        return calls

    def run(self, calls, clock):
        funcs = {name: getattr(schemes, name) for name, _ in calls}
        return [clock.call(funcs[name], *args) for name, args in calls]

    def check(self, calls, outputs):
        failures = []
        for (name, args), output in zip(calls, outputs):
            why = point_failure(output)
            if why:
                failures.append(f"{name}{args}: {why}")
        return len(calls), failures


def make(name: str, workdir: str):
    if name == "presets":
        return Presets(workdir, load_reference())
    if name == "validate_all":
        return ValidateAll()
    if name == "validated_sweep":
        return ValidatedSweep(workdir)
    if name == "point_calls":
        return PointCalls()
    raise ValueError(f"unknown workload {name!r}")
