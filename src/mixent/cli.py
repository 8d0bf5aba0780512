"""Command-line reproduction harness: parameter sweeps, validation, CSV output.

Subcommands::

    mixent sweep --scheme jc --set p=1 --set lam=0.999 --set n=0 \\
                 --sweep gt:0:6.2832:400 --out curve.csv [--validate[=tol]]
    mixent validate {jc-grid,kerr-grid,bs-grid,tt-grid,direct-grid,all}
    mixent preset list
    mixent preset run fig2a [--out path] [--set key=value] [--validate[=tol]]

A tolerance (``--validate=TOL``, a config file's ``validate=TOL``,
``validate --tol TOL``) must be a finite number >= 0; 0 fails every check.
Bare ``--validate`` uses the scheme's own tolerance.

A config file (``sweep --config PATH``) holds flat ``key=value`` lines: the
keys ``scheme``, ``sweep``, ``out`` and ``validate`` plus scheme parameters.
Each command-line flag overrides the file's key of the same name.

A row whose conditioning outcome has zero probability (``bs`` or ``tt`` with
sign -, e.g. r=1, V=1, d=0) has no state: it is written with ``npt`` and
``trace`` both ``nan`` and the sweep goes on.  A ``jc`` projection with zero
probability is written the same way except that its trace, the projection
probability, is 0.  Under ``--validate`` such rows still carry the oracle
columns, from the unnormalized kernel.  The library constructors raise
:class:`~mixent.qlinalg.DegenerateStateError` for these points instead.

A sweep runs in blocks of ``SWEEP_BLOCK`` rows.  Each block builds the
parameters of its first and last row (every parameter rule is an interval in
the swept value, so two good ends make a good block), calls the scheme's block
function once and scores the states of its result with one stacked NPT.  Under
``--validate`` the kernels of the same result are compared with the block's
oracle matrices, which come from one call of the oracle's block function; a
validation grid is one block.  A block that raises runs again one row at a
time, and the first faulty row's error is raised, whatever its kind (a bad
parameter, a non-finite state, an unstable oracle); so the error does not
depend on where the blocks split.  Only a failing sweep pays for this: a
validated 256-row block whose last row is bad fails after about 0.1 s instead
of 0.01 s.
The ``--out`` path is checked before the first row without opening or
creating anything, and opened once, to write the CSV, when the rows are done;
a run that fails before that write creates nothing and leaves what was there
as it was.

Exit codes: 0 success, 2 invalid specification or unwritable ``--out``, 3
oracle deviation above tolerance or an unstable oracle.  CSV files start with the schema comment
``# mixent-csv v1``, use 17 significant digits and ``\\n`` line endings, and
are byte-identical across runs of the same binary.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import math
import numbers
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import oracle, qlinalg, schemes
from .states import AtomFieldParams, CatBasis, MicroState, ThermalParams

__all__ = ["SweepSpec", "main", "run_sweep", "run_validation", "PRESETS"]

CSV_SCHEMA = "# mixent-csv v1"

_JC_TOL = 1e-10
_KERR_TOL = 1e-8


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a scheme, fixed parameters, one linearly swept parameter."""

    scheme: str
    fixed: dict
    sweep: tuple  # (name, start, stop, count)
    out: str | None = None
    validate_tol: float | str | None = None  # None: no oracle check; else as _parse_tol reads it


class SpecError(ValueError):
    """Invalid sweep/validation specification (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# scheme registry


def _as_int(value, name):
    x = float(value)
    if not x.is_integer():
        raise SpecError(f"{name} must be an integer, got {value}")
    return int(x)


def _as_sign(value):
    if value in (1, -1):
        return int(value)
    text = str(value).strip()
    if text in ("+", "+1", "1", "plus"):
        return 1
    if text in ("-", "-1", "minus"):
        return -1
    raise SpecError(f"sign must be + or -, got {value!r}")


# An argument builder turns a parameter dict into the keyword arguments of the
# scheme's public one-row oracle, in the order of its constructor's positional
# arguments; the parameter dataclasses it builds check the values.  Sweeps build
# them only to check their rows.


def _jc_args(v):
    return {"params": AtomFieldParams(p=v["p"], lam=v["lam"], gt=v["gt"], n=v["n"])}


def _cat_args(v):
    args = {"micro": MicroState(v["r"])} if "r" in v else {}
    args.update(thermal=ThermalParams(v["V"], v["d"]), basis=CatBasis(v["gamma"]))
    if "sign" in v:
        args["sign"] = v["sign"]
    return args


@dataclass(frozen=True)
class _SchemeDef:
    """How the CLI evaluates and validates one scheme.

    ``block`` is the scheme's block function in :mod:`mixent.schemes`,
    resolved at call time: from one column of values per parameter, in the
    order of ``params``, it returns the one result of N rows that
    ``schemes.block_states`` turns into states and ``schemes.block_kernels``
    into the kernels that the oracle reproduces.  ``oracle`` is the oracle's
    block function over the same columns (``oracle.jc_fock_block`` or
    ``oracle.quadrature_block``), resolved at call time; it returns the
    (N, 4, 4) stack of those kernels.
    """

    params: tuple
    args: callable
    block: callable
    oracle: callable
    tolerance: float

    @property
    def sweepable(self) -> tuple:
        return tuple(k for k in self.params if k not in ("n", "sign"))


SCHEMES = {
    "jc": _SchemeDef(
        ("p", "lam", "gt", "n"),
        _jc_args,
        lambda *columns: schemes.jc_block(*columns),
        lambda *columns: oracle.jc_fock_block(*columns),
        _JC_TOL,
    ),
    "kerr_micro_thermal": _SchemeDef(
        ("r", "V", "d", "gamma"),
        _cat_args,
        lambda *columns: schemes.kerr_micro_thermal_block(*columns),
        lambda r, V, d, gamma: oracle.quadrature_block("kerr_micro_thermal", r, V, d, gamma, None),
        _KERR_TOL,
    ),
    "bs": _SchemeDef(
        ("r", "V", "d", "gamma", "sign"),
        _cat_args,
        lambda *columns: schemes.bs_scheme_block(*columns),
        lambda *columns: oracle.quadrature_block("bs", *columns),
        _KERR_TOL,
    ),
    "tt": _SchemeDef(
        ("r", "V", "d", "gamma", "sign"),
        _cat_args,
        lambda *columns: schemes.tt_scheme_block(*columns),
        lambda *columns: oracle.quadrature_block("tt", *columns),
        _KERR_TOL,
    ),
    "direct_kerr": _SchemeDef(
        ("V", "d", "gamma"),
        _cat_args,
        lambda *columns: schemes.direct_kerr_block(*columns),
        lambda V, d, gamma: oracle.quadrature_block("direct_kerr", None, V, d, gamma, None),
        _KERR_TOL,
    ),
}


# ---------------------------------------------------------------------------
# figure presets: one representative curve each, gamma = 2 for every
# cross-Kerr panel

# 401 points over a full period put sample points exactly on gt = k pi/2,
# where the n = 0 curve has its exact zeros
_FIG1_SWEEP = ("gt", 0.0, 2.0 * math.pi, 401)

PRESETS = {
    "fig1a": SweepSpec("jc", {"p": 1.0, "lam": 0.999, "n": 0}, _FIG1_SWEEP),
    "fig1b": SweepSpec("jc", {"p": 0.9, "lam": 0.999, "n": 0}, _FIG1_SWEEP),
    "fig1c": SweepSpec("jc", {"p": 0.8, "lam": 0.999, "n": 0}, _FIG1_SWEEP),
    "fig1d": SweepSpec("jc", {"p": 0.5, "lam": 0.0, "n": 0}, _FIG1_SWEEP),
    "fig1e": SweepSpec("jc", {"p": 0.5, "lam": 0.1, "n": 0}, _FIG1_SWEEP),
    "fig1f": SweepSpec("jc", {"p": 0.5, "lam": 0.2, "n": 0}, _FIG1_SWEEP),
    "fig2a": SweepSpec(
        "kerr_micro_thermal", {"gamma": 2.0, "r": 1.0, "V": 10.0}, ("d", 0.0, 40.0, 201)
    ),
    "fig2b": SweepSpec(
        "kerr_micro_thermal", {"gamma": 2.0, "r": 0.1, "V": 10.0}, ("d", 0.0, 40.0, 201)
    ),
    "fig3a": SweepSpec(
        "bs", {"gamma": 2.0, "r": 1.0, "d": 0.0, "sign": 1}, ("V", 1.0, 1000.0, 400)
    ),
    "fig3b": SweepSpec(
        "bs", {"gamma": 2.0, "r": 0.1, "d": 0.0, "sign": 1}, ("V", 1.0, 1000.0, 400)
    ),
    "fig4a": SweepSpec(
        "tt", {"gamma": 2.0, "r": 1.0, "V": 10.0, "sign": 1}, ("d", 0.0, 100.0, 201)
    ),
    "fig4b": SweepSpec(
        "tt", {"gamma": 2.0, "r": 0.1, "V": 10.0, "sign": 1}, ("d", 0.0, 100.0, 201)
    ),
    "fig5": SweepSpec("direct_kerr", {"gamma": 2.0, "V": 1000.0}, ("d", 0.0, 500.0, 251)),
}


# ---------------------------------------------------------------------------
# sweep machinery


def _check_spec(spec: SweepSpec) -> SweepSpec:
    if spec.scheme not in SCHEMES:
        raise SpecError(f"unknown scheme {spec.scheme!r}; choose from {sorted(SCHEMES)}")
    sdef = SCHEMES[spec.scheme]
    name, start, stop, count = spec.sweep
    if name not in sdef.sweepable:
        raise SpecError(
            f"cannot sweep {name!r} for scheme {spec.scheme}; sweepable: {sdef.sweepable}"
        )
    integral = isinstance(count, numbers.Integral) or (
        isinstance(count, numbers.Real) and float(count).is_integer()
    )
    if not integral or count < 2:
        raise SpecError(f"sweep count must be an integer >= 2, got {count!r}")
    if not all(isinstance(x, numbers.Real) and math.isfinite(x) for x in (start, stop)):
        raise SpecError(f"sweep bounds must be finite real numbers, got {start!r} .. {stop!r}")
    if not start < stop:
        raise SpecError(f"sweep needs start < stop, got {start} .. {stop}")
    if not math.isfinite(float(stop) - float(start)):
        raise SpecError(f"sweep span {start} .. {stop} overflows: stop - start is not finite")
    given = set(spec.fixed) | {name}
    missing = [k for k in sdef.params if k not in given]
    if missing:
        raise SpecError(f"missing parameters for {spec.scheme}: {missing}")
    extra = [k for k in spec.fixed if k not in sdef.params]
    if extra:
        raise SpecError(f"unknown parameters for {spec.scheme}: {extra}")
    if name in spec.fixed:
        raise SpecError(f"{name!r} is both fixed and swept")
    convert = {"sign": _as_sign, "n": lambda v: _as_int(v, "n")}
    fixed = {k: convert[k](v) if k in convert else v for k, v in spec.fixed.items()}
    return replace(spec, fixed=fixed, validate_tol=_parse_tol(spec.validate_tol, sdef.tolerance))


def _closed_vs_oracle(sdef: _SchemeDef, columns: list, result):
    """The oracle matrices of N rows and each closed kernel's largest deviation from its row's.

    ``columns`` holds the rows' parameter columns and ``result`` what the
    scheme's block function returned for them; the oracle matrices come from
    one block call.
    """
    refs = sdef.oracle(*columns)
    return refs, np.abs(schemes.block_kernels(*result) - refs).max(axis=(1, 2))


# Rows evaluated together: one stacked NPT per block, and memory bounded by
# the block rather than by the sweep.
SWEEP_BLOCK = 256


def _sweep_block(spec: SweepSpec, sdef: _SchemeDef, xs: list, first: int):
    """CSV lines of the rows ``first, first + 1, ...`` at ``xs``, and their failures.

    The parameters of the first and last row are built first, so a bad one
    raises before any evaluation.  A row with no state (a zero-probability
    conditioning outcome) is the zero matrix at scale NaN: its ``npt`` and
    ``trace`` are NaN, its kernel is still checked by the oracle.  The real
    parameters are converted as the parameter dataclasses store them;
    ``_check_spec`` has converted ``n`` and ``sign``.
    """
    name = spec.sweep[0]
    for x in (xs[0], xs[-1]):
        sdef.args({**spec.fixed, name: x})
    fixed = {k: v if k in ("n", "sign") else complex(v).real for k, v in spec.fixed.items()}
    params = [xs if k == name else [fixed[k]] * len(xs) for k in sdef.params]
    result = sdef.block(*params)
    normalized, factors = schemes.block_states(*result)
    npts = qlinalg._npt_stack(normalized).tolist()  # first, so a non-finite row raises before inf * 0
    traces = np.trace(normalized * factors[:, None, None], axis1=1, axis2=2).real
    columns = [xs, npts, traces.tolist()]
    failed = []
    if spec.validate_tol is not None:
        refs, deviations = _closed_vs_oracle(sdef, params, result)
        deviations = deviations.tolist()
        columns += [qlinalg._npt_stack(refs).tolist(), deviations]
        failed = [(i, d) for i, d in enumerate(deviations, first) if d > spec.validate_tol]
    template = ",".join(["%.17g"] * len(columns))
    return [template % row for row in zip(*columns)], failed


def run_sweep(spec: SweepSpec):
    """Execute a sweep; returns (exit_code, csv_text, failures).

    ``failures`` lists (row_index, deviation) for validated rows above
    tolerance; the CSV is complete either way.  An ``out`` path that cannot
    be written raises :class:`SpecError`: before any row is computed where
    :func:`_check_out` sees it, else when the CSV is written.  Nothing is
    opened or created at ``out`` before that write.
    """
    spec = _check_spec(spec)
    sdef = SCHEMES[spec.scheme]
    name, start, stop, count = spec.sweep
    header = [name, "npt", "trace"]
    if spec.validate_tol is not None:
        header += ["oracle_npt", "max_dev"]
    lines = [CSV_SCHEMA, ",".join(header)]
    failures = []
    try:
        xs = np.linspace(float(start), float(stop), int(count)).tolist()
    except (MemoryError, ValueError):  # numpy refuses a size past intp with ValueError
        raise SpecError(f"sweep count {count} is too large: its rows cannot be allocated") from None
    if spec.out:
        _check_out(spec.out)
    for first in range(0, len(xs), SWEEP_BLOCK):
        rows = xs[first : first + SWEEP_BLOCK]
        try:
            block, failed = _sweep_block(spec, sdef, rows, first)
        except (ValueError, oracle.OracleUnstableError):
            for k, x in enumerate(rows, first):
                _sweep_block(spec, sdef, [x], k)  # the first faulty row raises
            raise
        lines += block
        failures += failed
    csv_text = "\n".join(lines) + "\n"
    if spec.out:
        try:
            with open(spec.out, "w", newline="\n") as fh:
                fh.write(csv_text)
        except OSError as exc:
            raise SpecError(f"cannot write {spec.out}: {exc.strerror or exc}") from None
    return (3 if failures else 0), csv_text, failures


def _check_out(path: str) -> None:
    """Fail early if ``path`` plainly cannot be written, without opening or creating it.

    A directory, a missing parent directory (for a dangling symlink, its
    target's) and an existing path or new path's parent that ``os.access``
    refuses fail; the write itself decides the rest.
    """
    parent = os.path.dirname(os.path.realpath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise SpecError(f"cannot write {path}: {os.strerror(code)}")


# ---------------------------------------------------------------------------
# validation grids


def _kerr_family_grid():
    """The (V, d, gamma) points shared by the four cross-Kerr grids, in grid order."""
    for v in (1.0, 2.0, 10.0, 100.0, 1000.0):
        for d in (0.0, 1.0, math.sqrt(v), 5.0 * math.sqrt(v)):
            for gamma in (1.0, 2.0, 3.0):
                yield v, d, gamma


def _grid_columns(name: str) -> dict:
    """A validation grid's parameter columns, keyed by parameter name, one entry per point."""
    if name == "jc-grid":
        keys = ("p", "lam", "gt", "n")
        rows = itertools.product((0.0, 0.5, 1.0), (0.0, 0.5, 0.9, 0.99), (0.1, 0.7, 1.3, 2.9), (0, 3, 10))
    else:
        keys, tails = ("V", "d", "gamma"), [()]
        if name != "direct-grid":
            keys, tails = (*keys, "r"), [(r,) for r in (0.0, 0.1, 1.0)]
        if name in ("bs-grid", "tt-grid"):
            keys, tails = (*keys, "sign"), [(*tail, sign) for tail in tails for sign in (1, -1)]
        rows = [base + tail for base in _kerr_family_grid() for tail in tails]
    return dict(zip(keys, map(list, zip(*rows))))


VALIDATION_GRIDS = {
    "jc-grid": "jc",
    "kerr-grid": "kerr_micro_thermal",
    "bs-grid": "bs",
    "tt-grid": "tt",
    "direct-grid": "direct_kerr",
}


def validate_grid(name: str):
    """Closed form vs oracle over one named grid; returns (max_dev, worst, the scheme's tolerance)."""
    sdef = SCHEMES[VALIDATION_GRIDS[name]]
    grid = _grid_columns(name)
    columns = [grid[k] for k in sdef.params]
    deviations = _closed_vs_oracle(sdef, columns, sdef.block(*columns))[1]
    worst = int(np.argmax(deviations))  # the first of equal maxima
    return float(deviations[worst]), {k: column[worst] for k, column in grid.items()}, sdef.tolerance


def run_validation(preset: str, tol: float | str | None = None, out=None) -> int:
    """Check one named grid or ``all``, at ``tol`` as :func:`_parse_tol` reads it; the exit code."""
    out = out if out is not None else sys.stdout
    names = list(VALIDATION_GRIDS) if preset == "all" else [preset]
    for name in names:
        if name not in VALIDATION_GRIDS:
            raise SpecError(f"unknown validation preset {name!r}")
    tol = _parse_tol(tol)
    code = 0
    for name in names:
        dev, at, scheme_tol = validate_grid(name)
        used_tol = scheme_tol if tol is None else tol
        status = "PASS" if dev <= used_tol else "FAIL"  # a NaN deviation fails
        print(f"{name}: max deviation {dev:.3e} (tol {used_tol:.0e}) {status}", file=out)
        if status == "FAIL":
            print(f"  worst case: {at}", file=out)
            code = 3
    return code


# ---------------------------------------------------------------------------
# argument parsing


def _parse_set(items) -> dict:
    values = {}
    for item in items or ():
        if "=" not in item:
            raise SpecError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key == "sign":
            values[key] = _as_sign(raw)
            continue
        try:
            values[key] = float(raw)
        except ValueError:
            raise SpecError(f"cannot parse value for {key!r}: {raw!r}") from None
    return values


def _parse_sweep(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 4:
        raise SpecError(f"--sweep expects name:start:stop:count, got {text!r}")
    name = parts[0].strip()
    try:
        start, stop = float(parts[1]), float(parts[2])
        count = int(parts[3])
    except ValueError:
        raise SpecError(f"cannot parse sweep range {text!r}") from None
    return (name, start, stop, count)


def _read_config(path: str) -> dict:
    options = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise SpecError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                options[key.strip()] = value.strip()
    except OSError as exc:
        raise SpecError(f"cannot read config {path}: {exc}") from None
    return options


def _parse_tol(value, default=None) -> float | None:
    """A validation tolerance from the command line, a config file or a :class:`SweepSpec`.

    ``None`` (no validation asked for) stays None and "default" (bare
    ``--validate``) gives ``default``.  Anything else must be a finite number
    >= 0; 0 fails every check.
    """
    if value is None:
        return None
    if value == "default":
        return default
    try:
        tol = float(value)
    except (TypeError, ValueError):
        raise SpecError(f"tolerance must be a number, got {value!r}") from None
    if not 0.0 <= tol < math.inf:
        raise SpecError(f"tolerance must be finite and >= 0, got {value!r}")
    return tol


def _spec_from_args(args) -> SweepSpec:
    config = _read_config(args.config) if args.config else {}
    options = {}
    for key in ("scheme", "sweep", "out", "validate"):
        from_file = config.pop(key, None)
        flag = getattr(args, key)
        options[key] = from_file if flag is None else flag  # the flag wins
    fixed = _parse_set(f"{k}={v}" for k, v in config.items())
    fixed.update(_parse_set(args.set))
    if options["scheme"] is None:
        raise SpecError("no scheme given (use --scheme or a config file)")
    if options["sweep"] is None:
        raise SpecError("no sweep given (use --sweep name:start:stop:count)")
    sweep = _parse_sweep(options["sweep"])
    return SweepSpec(options["scheme"], fixed, sweep, options["out"], options["validate"])


@functools.cache  # one parser per process, built on first use so that import stays cheap
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixent", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and emit CSV")
    sweep.add_argument("--scheme", choices=sorted(SCHEMES), help="interaction scheme")
    sweep.add_argument("--set", action="append", metavar="KEY=VALUE", help="fix a parameter")
    sweep.add_argument("--sweep", metavar="NAME:START:STOP:COUNT", help="swept parameter")
    sweep.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    sweep.add_argument(
        "--validate",
        nargs="?",
        const="default",
        metavar="TOL",
        help="oracle check per row, one oracle call per block; optional tolerance override",
    )
    sweep.add_argument("--config", metavar="PATH", help="flat key=value config file")

    val = sub.add_parser("validate", help="closed form vs oracle on a named grid")
    val.add_argument("grid", choices=sorted(VALIDATION_GRIDS) + ["all"])
    val.add_argument("--tol", default=None, help="tolerance override")

    preset = sub.add_parser("preset", help="list or run figure presets")
    psub = preset.add_subparsers(dest="preset_command", required=True)
    psub.add_parser("list", help="list available presets")
    prun = psub.add_parser("run", help="run a preset sweep")
    prun.add_argument("name", choices=sorted(PRESETS))
    prun.add_argument("--set", action="append", metavar="KEY=VALUE")
    prun.add_argument("--out", metavar="PATH")
    prun.add_argument("--validate", nargs="?", const="default", metavar="TOL")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return run_validation(args.grid, args.tol)
        if args.command == "preset" and args.preset_command == "list":
            for name in sorted(PRESETS):
                spec = PRESETS[name]
                swept, start, stop, count = spec.sweep
                fixed = " ".join(f"{k}={v}" for k, v in sorted(spec.fixed.items()))
                print(
                    f"{name}: scheme={spec.scheme} {fixed} "
                    f"sweep {swept}:{start:.17g}..{stop:.17g} x{count}"
                )
            return 0
        if args.command == "sweep":
            spec = _spec_from_args(args)
        else:
            base = PRESETS[args.name]
            spec = replace(
                base,
                fixed={**base.fixed, **_parse_set(args.set)},
                out=args.out or f"{args.name}.csv",
                validate_tol=args.validate,
            )
        code, csv_text, failures = run_sweep(spec)
        if not spec.out:
            sys.stdout.write(csv_text)
        for index, dev in failures[:5]:
            print(f"validation failure at row {index}: deviation {dev:.3e}", file=sys.stderr)
        return code
    except ValueError as exc:  # SpecError and DegenerateStateError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except oracle.OracleUnstableError as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
