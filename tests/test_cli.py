"""CLI: sweeps, CSV format, presets, validation, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mixent as mx
from mixent import cli, oracle, schemes
from mixent.qlinalg import DegenerateStateError

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "presets.json"
SRC = Path(__file__).resolve().parents[1] / "src"


def make_spec(**kw):
    base = dict(
        scheme="kerr_micro_thermal",
        fixed={"r": 1.0, "V": 10.0, "gamma": 2.0},
        sweep=("d", 0.0, 10.0, 5),
        out=None,
        validate_tol=None,
    )
    base.update(kw)
    return cli.SweepSpec(**base)


CONSTRUCTORS = {
    "jc": schemes.jc_projected,
    "kerr_micro_thermal": schemes.kerr_micro_thermal_projected,
    "bs": schemes.bs_scheme_projected,
    "tt": schemes.tt_scheme_projected,
    "direct_kerr": schemes.direct_kerr_projected,
}

# the closed forms that the oracle reproduces where they are not the states
KERNELS = {"bs": schemes.bs_projected_kernel, "tt": schemes.tt_projected_kernel}


def one_row_oracle(scheme, args):
    """The public one-row oracle of a scheme, called with its argument builder's output."""
    if scheme == "jc":
        return mx.jc_fock_projected(**args)
    return mx.quadrature_projected(scheme, **args)


def reference_grid_points(name):
    """A validation grid as a list of point dicts, written out loop by loop."""
    if name == "jc-grid":
        return [
            {"p": p, "lam": lam, "gt": gt, "n": n}
            for p in (0.0, 0.5, 1.0)
            for lam in (0.0, 0.5, 0.9, 0.99)
            for gt in (0.1, 0.7, 1.3, 2.9)
            for n in (0, 3, 10)
        ]
    points = []
    for v in (1.0, 2.0, 10.0, 100.0, 1000.0):
        for d in (0.0, 1.0, math.sqrt(v), 5.0 * math.sqrt(v)):
            for gamma in (1.0, 2.0, 3.0):
                base = {"V": v, "d": d, "gamma": gamma}
                if name == "direct-grid":
                    points.append(base)
                    continue
                for r in (0.0, 0.1, 1.0):
                    if name == "kerr-grid":
                        points.append({**base, "r": r})
                    else:
                        for sign in (1, -1):
                            points.append({**base, "r": r, "sign": sign})
    return points


VALIDATED_SWEEPS = {
    "jc": ({"p": 0.7, "lam": 0.9, "n": 3}, ("gt", 0.0, 3.0, 4)),
    "kerr_micro_thermal": ({"r": 0.6, "V": 7.0, "gamma": 2.0}, ("d", 0.0, 9.0, 4)),
    # bs and tt at sign -1, r > 0, V > 1: the conditioned state the
    # constructor returns differs from the kernel the oracle reproduces
    "bs": ({"r": 0.8, "V": 5.0, "gamma": 1.5, "sign": -1}, ("d", 0.0, 6.0, 4)),
    "tt": ({"r": 0.8, "V": 5.0, "gamma": 1.5, "sign": -1}, ("d", 0.0, 6.0, 4)),
    "direct_kerr": ({"V": 20.0, "gamma": 2.0}, ("d", 0.0, 15.0, 4)),
}


class TestSweep:
    def test_row_count_and_schema(self):
        code, text, failures = cli.run_sweep(make_spec())
        lines = text.splitlines()
        assert code == 0 and not failures
        assert lines[0] == "# mixent-csv v1"
        assert lines[1] == "d,npt,trace"
        assert len(lines) == 2 + 5
        assert text.endswith("\n")

    def test_deterministic_text(self):
        a = cli.run_sweep(make_spec())[1]
        b = cli.run_sweep(make_spec())[1]
        assert a == b

    def test_validation_columns(self):
        code, text, failures = cli.run_sweep(make_spec(validate_tol=1e-8, sweep=("d", 0.0, 4.0, 3)))
        assert code == 0 and not failures
        assert text.splitlines()[1] == "d,npt,trace,oracle_npt,max_dev"
        last = text.splitlines()[-1].split(",")
        assert float(last[4]) <= 1e-8

    def test_validation_failure_exit_code(self):
        # an impossible tolerance flags every row and returns 3
        code, text, failures = cli.run_sweep(make_spec(validate_tol=0.0, sweep=("d", 1.0, 2.0, 2)))
        assert code == 3
        assert failures

    def test_degenerate_r_sweep_rows_are_zero(self):
        spec = cli.SweepSpec(
            scheme="kerr_micro_thermal",
            fixed={"V": 10.0, "gamma": 2.0, "d": 0.0},
            sweep=("r", 0.0, 1.0, 2),
        )
        _, text, _ = cli.run_sweep(spec)
        rows = [line.split(",") for line in text.splitlines()[2:]]
        assert [float(r[1]) for r in rows] == [0.0, 0.0]

    @pytest.mark.parametrize("scheme", ["bs", "tt"])
    @pytest.mark.parametrize("validate", [False, True])
    def test_zero_probability_row_is_nan_and_sweep_goes_on(self, scheme, validate, capsys):
        # sign -1, r = 1 has zero probability at V = 1, d = 0 (the first row)
        argv = ["sweep", "--scheme", scheme, "--set", "sign=-", "--set", "r=1"]
        argv += ["--set", "gamma=2", "--set", "d=0", "--sweep", "V:1:2:3"]
        assert cli.main(argv + (["--validate"] if validate else [])) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 3
        assert rows[0][1:3] == ["nan", "nan"]
        assert all(math.isfinite(float(x)) for row in rows[1:] for x in row)
        if validate:
            # the oracle columns come from the kernel, which is defined there
            assert rows[0][3] == "nan" and float(rows[0][4]) <= 1e-8
        # the library call still raises
        args = cli._cat_args({"r": 1.0, "V": 1.0, "d": 0.0, "gamma": 2.0, "sign": -1})
        with pytest.raises(DegenerateStateError):
            CONSTRUCTORS[scheme](*args.values())

    def test_zero_probability_jc_row(self, capsys):
        argv = ["sweep", "--scheme", "jc", "--set", "p=0", "--set", "lam=0", "--set", "n=3"]
        assert cli.main(argv + ["--sweep", "gt:0:1:2", "--validate"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert [row[1:4] for row in rows] == [["nan", "0", "nan"]] * 2

    def test_file_output_newlines(self, tmp_path):
        out = tmp_path / "curve.csv"
        cli.run_sweep(make_spec(out=str(out)))
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.decode().startswith("# mixent-csv v1\n")

    @pytest.mark.parametrize("scheme", sorted(VALIDATED_SWEEPS))
    def test_validated_sweep_every_scheme(self, scheme):
        fixed, sweep = VALIDATED_SWEEPS[scheme]
        tol = cli.SCHEMES[scheme].tolerance
        spec = make_spec(scheme=scheme, fixed=fixed, sweep=sweep, validate_tol=tol)
        code, text, failures = cli.run_sweep(spec)
        assert code == 0 and not failures
        devs = [float(line.split(",")[4]) for line in text.splitlines()[2:]]
        assert len(devs) == 4 and max(devs) <= tol

    @staticmethod
    def per_row_csv(spec):
        """The sweep's CSV built one row at a time from the public constructors.

        A row where the constructor raises DegenerateStateError reads nan, nan.
        """
        sdef = cli.SCHEMES[spec.scheme]
        name, start, stop, count = spec.sweep
        validate = spec.validate_tol is not None
        header = [name, "npt", "trace"] + (["oracle_npt", "max_dev"] if validate else [])
        lines = ["# mixent-csv v1", ",".join(header)]
        for x in np.linspace(start, stop, count):
            args = sdef.args({**spec.fixed, name: float(x)})
            try:
                out = CONSTRUCTORS[spec.scheme](*args.values())
            except DegenerateStateError:
                lines.append(f"{float(x):.17g},nan,nan")
                continue
            row = [x, out.npt_normalized, out.trace]
            if validate:
                ref = one_row_oracle(spec.scheme, args)
                closed = out.matrix
                if spec.scheme in KERNELS:
                    closed = KERNELS[spec.scheme](*args.values())
                row += [mx.npt(ref), mx.max_abs_deviation(closed, ref)]
            lines.append(",".join(f"{float(v):.17g}" for v in row))
        return "\n".join(lines) + "\n"

    # one sweep per scheme and sign, each over three blocks; the last two
    # cross d = 0 at V = 1, r = 1, sign -, a zero-probability row in the
    # middle of the first block
    BLOCK_SWEEPS = [
        ("jc", {"p": 0.7, "lam": 0.9, "n": 3}, ("gt", 0.0, 40.0)),
        ("kerr_micro_thermal", {"r": 0.6, "V": 7.0, "gamma": 2.0}, ("d", -20.0, 40.0)),
        ("bs", {"r": 0.8, "d": 3.0, "gamma": 1.5, "sign": 1}, ("V", 1.0, 1000.0)),
        ("bs", {"r": 0.8, "V": 5.0, "gamma": 1.5, "sign": -1}, ("d", -10.0, 30.0)),
        ("tt", {"r": 0.8, "V": 5.0, "gamma": 1.5, "sign": 1}, ("d", -10.0, 30.0)),
        ("tt", {"r": 0.3, "V": 5.0, "d": 2.0, "sign": -1}, ("gamma", 0.5, 4.0)),
        ("direct_kerr", {"V": 30.0, "gamma": 2.0}, ("d", 0.0, 40.0)),
        ("bs", {"r": 1.0, "V": 1.0, "gamma": 2.0, "sign": -1}, ("d", -1.0, 3.0)),
        ("tt", {"r": 1.0, "V": 1.0, "gamma": 2.0, "sign": -1}, ("d", -1.0, 3.0)),
    ]

    def test_block_boundaries_match_per_row_reference(self):
        count = 2 * cli.SWEEP_BLOCK + 1
        for scheme, fixed, sweep in self.BLOCK_SWEEPS:
            spec = cli.SweepSpec(scheme, fixed, (*sweep, count))
            text = cli.run_sweep(spec)[1]
            assert len(text.splitlines()) == 2 + count
            assert text == self.per_row_csv(spec), (scheme, fixed)
            nan_rows = [line for line in text.splitlines() if "nan" in line]
            assert nan_rows == (["0,nan,nan"] if fixed.get("V") == 1.0 else []), (scheme, fixed)

    def test_row_template_matches_per_value_format(self):
        # a sweep formats each row with one "%.17g,..." template
        values = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, -2.5e-300)
        template = ",".join(["%.17g"] * len(values))
        assert template % values == ",".join(f"{x:.17g}" for x in values)

    @pytest.mark.parametrize(
        "scheme, sign",
        [
            pytest.param("jc", None, id="jc"),
            pytest.param("kerr_micro_thermal", None, id="kerr_micro_thermal"),
            pytest.param("bs", 1, id="bs+"),
            pytest.param("bs", -1, id="bs-"),
            pytest.param("tt", 1, id="tt+"),
            pytest.param("tt", -1, id="tt-"),
            pytest.param("direct_kerr", None, id="direct_kerr"),
        ],
    )
    def test_validated_blocks_match_per_row_reference(self, scheme, sign, monkeypatch):
        # the block closed forms and deviations, byte for byte against the
        # per-row public kernels, oracle and max_abs_deviation
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 3)
        fixed, (name, start, stop, _) = VALIDATED_SWEEPS[scheme]
        if sign is not None:
            fixed = {**fixed, "sign": sign}
        spec = make_spec(scheme=scheme, fixed=fixed, sweep=(name, start, stop, 7), validate_tol=1.0)
        text = cli.run_sweep(spec)[1]
        assert text == self.per_row_csv(spec)

    @pytest.mark.parametrize("grid", sorted(cli.VALIDATION_GRIDS))
    def test_validate_grid_matches_per_point_loop(self, grid):
        # the grid's deviation and its first worst point, as a loop over the
        # public closed forms, the oracle and max_abs_deviation finds them
        scheme = cli.VALIDATION_GRIDS[grid]
        sdef = cli.SCHEMES[scheme]
        worst_dev, worst_at = -1.0, None
        for values in reference_grid_points(grid):
            args = sdef.args(values)
            if scheme in KERNELS:
                closed = KERNELS[scheme](*args.values())
            else:
                closed = CONSTRUCTORS[scheme](*args.values()).matrix
            dev = mx.max_abs_deviation(closed, one_row_oracle(scheme, args))
            if dev > worst_dev:
                worst_dev, worst_at = dev, values
        assert cli.validate_grid(grid) == (worst_dev, worst_at, sdef.tolerance)

    @pytest.mark.parametrize("grid", sorted(cli.VALIDATION_GRIDS))
    def test_grid_columns_match_point_dicts(self, grid, monkeypatch):
        # the columns are those of the point dicts, values and types alike, and
        # the worst point is the dict at the worst row, keys in the same order
        points = reference_grid_points(grid)
        columns = cli._grid_columns(grid)
        assert list(columns) == list(points[0])
        for key, column in columns.items():
            assert repr(column) == repr([p[key] for p in points]), key
        for worst in (0, len(points) // 3, len(points) - 1):
            deviations = np.zeros(len(points))
            deviations[worst] = 1.0
            monkeypatch.setattr(cli, "_closed_vs_oracle", lambda *args, dev=deviations: (None, dev))
            assert repr(cli.validate_grid(grid)[1]) == repr(points[worst])


class TestSpecValidation:
    def test_unknown_scheme(self):
        with pytest.raises(cli.SpecError):
            cli.run_sweep(make_spec(scheme="qq"))

    def test_unsweepable_parameter(self):
        with pytest.raises(cli.SpecError):
            cli.run_sweep(
                cli.SweepSpec("bs", {"r": 1.0, "V": 2.0, "d": 0.0, "gamma": 2.0}, ("sign", -1, 1, 3))
            )

    def test_count_and_range(self):
        with pytest.raises(cli.SpecError):
            cli.run_sweep(make_spec(sweep=("d", 0.0, 1.0, 1)))
        with pytest.raises(cli.SpecError):
            cli.run_sweep(make_spec(sweep=("d", 1.0, 1.0, 4)))
        with pytest.raises(cli.SpecError, match="sweep bounds must be finite"):
            cli.run_sweep(make_spec(sweep=("d", 0.0, math.inf, 3)))

    def test_overflowing_span_exit_2(self, capsys):
        # stop - start overflows for finite bounds of opposite sign; the span is
        # refused before numpy's linspace warns and makes NaN rows of it
        argv = ["sweep", "--scheme", "jc", "--set", "p=1", "--set", "lam=0.5", "--set", "n=0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + ["--sweep", "gt:-1.7e308:1.7e308:3"]) == 2
        message = "sweep span -1.7e+308 .. 1.7e+308 overflows: stop - start is not finite"
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("count", [10**15, 10**30])
    def test_unallocatable_count_exit_2(self, count, tmp_path, capsys):
        # 8 PB of rows at 10**15 is past any 64-bit address space, so the
        # allocation fails at once; 10**30 is past numpy's largest array size
        out = tmp_path / "curve.csv"
        argv = ["sweep", "--scheme", "direct_kerr", "--set", "V=2", "--set", "gamma=2"]
        assert cli.main(argv + ["--sweep", f"d:0:1:{count}", "--out", str(out)]) == 2
        message = f"sweep count {count} is too large: its rows cannot be allocated"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_library_sweep_non_integral_count(self, tmp_path):
        # the CLI parses an int count; a library spec is checked the same way
        out = tmp_path / "curve.csv"
        spec = cli.SweepSpec("jc", {"p": 1.0, "lam": 0.5, "n": 0}, ("gt", 0.0, 1.0, 2.5), str(out))
        with pytest.raises(cli.SpecError, match="sweep count must be an integer >= 2, got 2.5"):
            cli.run_sweep(spec)
        assert not out.exists()
        for count in (3.0, np.int64(3), np.float64(3.0)):
            code, csv_text, _ = cli.run_sweep(replace(spec, sweep=("gt", 0.0, 1.0, count), out=None))
            assert code == 0 and len(csv_text.splitlines()) == 5, count

    @pytest.mark.parametrize("bounds", [("0", 1.0), (0.0, "1"), (None, 1.0), (0.0, 1j)])
    def test_library_sweep_bound_not_a_real_number(self, bounds):
        spec = cli.SweepSpec("jc", {"p": 1.0, "lam": 0.5, "n": 0}, ("gt", *bounds, 3))
        with pytest.raises(cli.SpecError, match="sweep bounds must be finite real numbers"):
            cli.run_sweep(spec)

    def test_missing_and_unknown_parameters(self):
        with pytest.raises(cli.SpecError):
            cli.run_sweep(make_spec(fixed={"r": 1.0, "V": 10.0}))
        with pytest.raises(cli.SpecError):
            cli.run_sweep(make_spec(fixed={"r": 1.0, "V": 10.0, "gamma": 2.0, "zeta": 1.0}))

    def test_fixed_and_swept_clash(self):
        with pytest.raises(cli.SpecError):
            cli.run_sweep(make_spec(fixed={"r": 1.0, "V": 10.0, "gamma": 2.0, "d": 1.0}))


class TestMain:
    def test_sweep_stdout(self, capsys):
        code = cli.main(
            [
                "sweep",
                "--scheme",
                "direct_kerr",
                "--set",
                "gamma=2",
                "--set",
                "V=10",
                "--sweep",
                "d:0:20:4",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("# mixent-csv v1\n")
        assert len(captured.out.splitlines()) == 6

    def test_usage_error_exit_2(self, capsys):
        code = cli.main(["sweep", "--scheme", "jc", "--set", "p=1", "--sweep", "gt:0:1:5"])
        assert code == 2
        assert "missing parameters" in capsys.readouterr().err

    def test_bad_set_syntax(self, capsys):
        code = cli.main(["sweep", "--scheme", "jc", "--set", "p", "--sweep", "gt:0:1:5"])
        assert code == 2

    DIRECT = ["sweep", "--scheme", "direct_kerr", "--set", "gamma=2"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--scheme", "tt", "--set", "sign=x"], "sign must be + or -, got 'x'"),
            pytest.param(
                DIRECT + ["--set", "V=2", "--sweep", "d:0:1:3", "--out", "/dev/full"],
                "cannot write /dev/full: No space left on device",
                marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full"),
            ),
            (DIRECT + ["--set", "V=abc", "--sweep", "d:0:1:3"], "cannot parse value for 'V': 'abc'"),
            (DIRECT + ["--set", "V=2", "--sweep", "d:0:1"], "--sweep expects name:start:stop:count, got 'd:0:1'"),
            (DIRECT + ["--set", "V=2", "--sweep", "d:a:1:3"], "cannot parse sweep range 'd:a:1:3'"),
            (["sweep", "--config", "{dir}/bare.cfg"], "{dir}/bare.cfg:2: expected key=value, got 'V 2'"),
            (["sweep", "--config", "{dir}/missing.cfg"], "cannot read config {dir}/missing.cfg: "),
            (["sweep", "--set", "V=2", "--sweep", "d:0:1:3"], "no scheme given (use --scheme or a config file)"),
            (DIRECT + ["--set", "V=2"], "no sweep given (use --sweep name:start:stop:count)"),
            (DIRECT + ["--set", "V=inf", "--sweep", "d:0:1:3"], "variance must be finite, got inf"),
        ],
        ids=[
            "sign", "dev-full", "set-value", "sweep-fields", "sweep-range", "config-line",
            "config-missing", "no-scheme", "no-sweep", "infinite-variance",
        ],
    )
    def test_input_error_exit_2(self, argv, message, tmp_path, capsys):
        (tmp_path / "bare.cfg").write_text("scheme=direct_kerr\nV 2\n")
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: " + message.format(dir=tmp_path)), captured.err
        assert captured.err.count("\n") == 1 and captured.out == "", captured

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: cli.run_validation("nope"), cli.SpecError, "unknown validation preset 'nope'"),
            (lambda: oracle.thermal_fock_matrix(1.0, 5), ValueError, r"lam must lie in \[0, 1\)"),
            (lambda: mx.BipartiteMatrix(0, 2, np.eye(2)), mx.InvalidShapeError, "factor dimensions"),
            (lambda: mx.hermitian_eigensystem(np.ones((2, 3))), mx.InvalidShapeError, "square matrix"),
            (
                lambda: mx.max_abs_deviation(mx.BipartiteMatrix(2, 2, np.eye(4)), mx.BipartiteMatrix(1, 4, np.eye(4))),
                mx.InvalidShapeError,
                "different factors",
            ),
        ],
        ids=["validation-name", "fock-lam", "factor-dims", "non-square", "different-factors"],
    )
    def test_library_input_error(self, call, error, message):
        with pytest.raises(error, match=message):
            call()

    def test_argparse_usage_exit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["validate", "not-a-grid"])
        assert err.value.code == 2

    def test_preset_list(self, capsys):
        assert cli.main(["preset", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out and "fig5" in out

    def test_config_file_with_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# comment\nscheme=kerr_micro_thermal\nr=1\nV=10\ngamma=2\nsweep=d:0:10:5\n"
        )
        code = cli.main(["sweep", "--config", str(cfg), "--set", "r=0.5", "--sweep", "d:0:10:3"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 5  # override wins

    def test_scheme_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("scheme=direct_kerr\nV=10\ngamma=2\nsweep=d:0:20:3\n")
        argv = ["sweep", "--config", str(cfg), "--scheme", "kerr_micro_thermal", "--set", "r=1"]
        assert cli.main(argv) == 0
        spec = cli.SweepSpec("kerr_micro_thermal", {"V": 10.0, "gamma": 2.0, "r": 1.0}, ("d", 0.0, 20.0, 3))
        assert capsys.readouterr().out == cli.run_sweep(spec)[1]

    def test_out_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        from_file, from_flag = tmp_path / "cfg.csv", tmp_path / "flag.csv"
        cfg.write_text(f"scheme=direct_kerr\nV=10\ngamma=2\nsweep=d:0:20:3\nout={from_file}\n")
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(from_flag)]) == 0
        assert from_flag.read_text().startswith("# mixent-csv v1\n")
        assert not from_file.exists()

    def test_validate_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("scheme=direct_kerr\nV=10\ngamma=2\nsweep=d:0:20:3\nvalidate=0\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == 3  # tolerance 0 fails every row
        assert cli.main(["sweep", "--config", str(cfg), "--validate"]) == 0
        assert cli.main(["sweep", "--config", str(cfg), "--validate=1e-3"]) == 0

    def test_validate_jc_grid(self, capsys):
        assert cli.main(["validate", "jc-grid"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_failure_exit_3(self, capsys):
        assert cli.main(["validate", "direct-grid", "--tol", "0"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "worst case" in out

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance_exit_2(self, tol, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"scheme=direct_kerr\ngamma=2\nV=10\nsweep=d:0:20:2\nvalidate={tol}\n")
        for argv in (
            ["sweep", "--config", str(cfg)],
            ["sweep", "--scheme", "direct_kerr", "--set", "gamma=2", "--set", "V=10"]
            + ["--sweep", "d:0:20:2", f"--validate={tol}"],
            ["preset", "run", "fig5", "--out", str(tmp_path / "fig5.csv"), f"--validate={tol}"],
            ["validate", "jc-grid", "--tol", tol],
        ):
            assert cli.main(argv) == 2, argv
            assert "tolerance must be finite and >= 0" in capsys.readouterr().err

    def test_validate_tol_is_read_as_validate_reads_it(self, capsys):
        # one error line and exit 2, as for --validate=TOL, not argparse's usage error
        assert cli.main(["validate", "jc-grid", "--tol", "abc"]) == 2
        assert capsys.readouterr().err == "error: tolerance must be a number, got 'abc'\n"
        assert cli.main(["validate", "jc-grid", "--tol", "-1"]) == 2
        assert capsys.readouterr().err == "error: tolerance must be finite and >= 0, got '-1'\n"

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_library_sweep_bad_tolerance(self, tol):
        # a NaN tolerance passed every row: d > nan is false
        fixed, sweep = {"V": 10.0, "gamma": 2.0}, ("d", 0.0, 20.0, 3)
        spec = make_spec(scheme="direct_kerr", fixed=fixed, sweep=sweep, validate_tol=tol)
        with pytest.raises(cli.SpecError, match="tolerance must be finite and >= 0"):
            cli.run_sweep(spec)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_library_validation_bad_tolerance(self, tol):
        # a NaN tolerance printed FAIL but returned 0
        out = io.StringIO()
        with pytest.raises(cli.SpecError, match="tolerance must be finite and >= 0"):
            cli.run_validation("direct-grid", tol, out=out)
        assert out.getvalue() == ""

    def test_validated_jc_sweep_at_lam_one_tenth(self, capsys):
        # at lam = 10^-k the thermal tail of a budgeted truncation lands on
        # the budget itself; the oracle must need no budget
        argv = ["sweep", "--scheme", "jc", "--set", "p=0.5", "--set", "lam=0.1", "--set", "n=0"]
        assert cli.main(argv + ["--sweep", "gt:0:1:3", "--validate"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert len(rows) == 3
        assert all(float(row[4]) <= 1e-10 for row in rows)

    def test_validated_jc_sweep_at_huge_n(self, capsys):
        # the Fock oracle evolves four levels around n, so any n the
        # parameters accept is validated; an evolution on all levels 0..n+2
        # could not even be allocated
        argv = ["sweep", "--scheme", "jc", "--set", "p=0.5", "--set", "lam=0.999"]
        argv += ["--set", "n=1e300", "--sweep", "gt:0:1e-150:3"]
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out.splitlines()[2:]
        assert cli.main(argv + ["--validate"]) == 0
        validated = capsys.readouterr()
        assert validated.err == ""
        rows = [line.split(",") for line in validated.out.splitlines()[2:]]
        assert len(rows) == 3
        assert [",".join(row[:3]) for row in rows] == plain

    def test_unwritable_out_exit_2(self, tmp_path, capsys, monkeypatch):
        calls = []
        for name in ("direct_kerr_block", "kerr_micro_thermal_block"):
            state = getattr(schemes, name)
            monkeypatch.setattr(schemes, name, lambda *a, f=state: calls.append(1) or f(*a))
        missing = tmp_path / "nonexistent" / "x.csv"
        sweep = ["sweep", "--scheme", "direct_kerr", "--set", "gamma=2", "--set", "V=10"]
        for argv, path in (
            (sweep + ["--sweep", "d:0:20:3", "--out", str(missing)], missing),
            (["preset", "run", "fig2a", "--out", str(tmp_path)], tmp_path),
        ):
            assert cli.main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err
        assert not missing.parent.exists()
        assert list(tmp_path.iterdir()) == []
        # a new file's parent or an existing file that os.access refuses
        old = tmp_path / "old.csv"
        old.write_text("old\n")
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        for path in (tmp_path / "new.csv", old):
            assert cli.main(sweep + ["--sweep", "d:0:20:3", "--out", str(path)]) == 2
            assert capsys.readouterr().err == f"error: cannot write {path}: Permission denied\n"
        assert list(tmp_path.iterdir()) == [old] and old.read_text() == "old\n"
        assert not calls  # the path is checked before the first row is computed

    def test_out_to_a_device(self, capsys):
        # a character device takes the CSV like a file; nothing is truncated or removed
        argv = ["sweep", "--scheme", "direct_kerr", "--set", "gamma=2", "--set", "V=10"]
        assert cli.main(argv + ["--sweep", "d:0:20:3", "--out", os.devnull]) == 0
        assert capsys.readouterr().err == ""
        assert cli.main(["preset", "run", "fig2a", "--out", os.devnull]) == 0
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_out_to_a_fifo(self, tmp_path, capsys):
        # checking the path must not open the pipe: that hands the reader an
        # end of file, and the real write then blocks with no reader
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        argv = ["sweep", "--scheme", "direct_kerr", "--set", "gamma=2", "--set", "V=10"]
        argv += ["--sweep", "d:0:20:3"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        received = []

        def read():
            with open(fifo) as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        command = [sys.executable, "-m", "mixent.cli", *argv, "--out", str(fifo)]
        try:
            done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        finally:
            if reader.is_alive():  # no writer came: give the reader its end of file
                try:
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                except OSError:
                    pass
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert done.returncode == 0, done.stderr
        assert received == [expected]

    def test_failing_run_creates_nothing_and_keeps_existing_files(self, tmp_path, capsys):
        # p, r and lam leave their ranges in the middle of the second block of
        # rows, V < 1 in the middle of the first: a run that fails after its
        # --out check creates no file, and a file or a symlink that was there
        # is neither emptied nor removed
        target = tmp_path / "old.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        jc = ["--scheme", "jc", "--set", "gt=1", "--set", "n=0"]
        kerr = ["--scheme", "kerr_micro_thermal", "--set", "gamma=2", "--set", "d=3"]
        rules = [
            (jc + ["--set", "lam=0.5"], "p:0:1.9", lambda x: x > 1.0, "p must lie in [0, 1]"),
            (jc + ["--set", "p=0.5"], "lam:0:1.5", lambda x: x >= 1.0, "lam must lie in [0, 1)"),
            (kerr + ["--set", "V=10"], "r:0:1.5", lambda x: x > 1.0, "r must lie in [0, 1]"),
            (kerr + ["--set", "r=1"], "V:0:4", lambda x: x < 1.0, "variance must be >= 1"),
        ]
        for fixed, sweep, bad, message in rules:
            sweep, first = self.crossing(sweep, bad)
            for out in (tmp_path / "new.csv", target, link):
                assert cli.main(["sweep", *fixed, "--sweep", sweep, "--out", str(out)]) == 2
                assert capsys.readouterr().err == f"error: {message}, got {first}\n", sweep
            assert not (tmp_path / "new.csv").exists()
            assert target.read_text() == "old\n" and link.is_symlink()

    def test_out_through_a_dangling_symlink(self, tmp_path, capsys):
        # a failing run creates neither the missing target nor anything else;
        # a run that succeeds writes the CSV through the link
        target = tmp_path / "target.csv"
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        argv = ["sweep", "--scheme", "kerr_micro_thermal", "--set", "gamma=2", "--set", "d=3"]
        argv += ["--set", "r=1", "--out", str(link)]
        assert cli.main(argv + ["--sweep", "V:0:4:5"]) == 2
        assert capsys.readouterr().err == "error: variance must be >= 1, got 0.0\n"
        assert sorted(tmp_path.iterdir()) == [link] and not target.exists()
        assert cli.main(argv + ["--sweep", "V:1:4:5"]) == 0
        assert cli.main(argv[:-2] + ["--sweep", "V:1:4:5"]) == 0
        assert target.read_text() == capsys.readouterr().out and link.is_symlink()
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_validated_error_precedence(self, capsys):
        # under --validate the rows of a block with a bad parameter are built in
        # order with their oracle: at V = 1000, gamma = 12 the oracle fails its
        # doubling check, so the first of the two faults decides the exit code
        argv = ["sweep", "--scheme", "kerr_micro_thermal", "--set", "V=1000", "--set", "gamma=12"]
        argv += ["--set", "d=0", "--validate"]
        assert cli.main(argv + ["--sweep", "r:0:1.5:5"]) == 3  # unstable at r = 0, bad at r = 1.125
        err = capsys.readouterr().err
        assert err.startswith("oracle error: kerr_micro_thermal: quadrature self-convergence")
        assert err.endswith("(V=1000.0, d=0.0, gamma=12.0)\n") and err.count("\n") == 1
        assert cli.main(argv + ["--sweep", "r:-0.5:1:5"]) == 2  # bad at r = -0.5, unstable after
        assert capsys.readouterr().err == "error: r must lie in [0, 1], got -0.5\n"

    @pytest.mark.parametrize("block", [256, 4])
    def test_first_faulty_row_decides_wherever_blocks_split(self, block, monkeypatch, capsys):
        # rows with d > 1e153 get a non-Hermitian state and the last row's d
        # has no finite square: the earlier fault decides, whether the sweep is
        # one block or the bad row's block is split from the faulty rows
        block_function = schemes.direct_kerr_block

        def non_hermitian_past_1e153(V, d, gamma):
            normalized, log_scales, probs = block_function(V, d, gamma)
            normalized[np.asarray(d) > 1e153, 0, 1] += 1.0
            return normalized, log_scales, probs

        monkeypatch.setattr(schemes, "direct_kerr_block", non_hermitian_past_1e153)
        monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
        argv = ["sweep", "--scheme", "direct_kerr", "--set", "V=10", "--set", "gamma=2"]
        assert cli.main(argv + ["--sweep", "d:0:1.5e154:10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hermiticity defect") and err.count("\n") == 1, err

    @pytest.mark.parametrize("block", [256, 4, 2, 1])
    def test_oracle_fault_before_a_state_fault_decides(self, block, monkeypatch, capsys):
        # at gamma = 1e-100 the oracle fails its doubling check at every row and
        # the states of rows 1 and 2 are not finite: row 0's oracle fault decides
        monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
        argv = ["sweep", "--scheme", "direct_kerr", "--set", "gamma=1e-100", "--set", "V=1"]
        assert cli.main(argv + ["--sweep", "d:0.5:1e150:3", "--validate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("oracle error: direct_kerr: quadrature self-convergence failed")
        assert err.endswith("(V=1.0, d=0.5, gamma=1e-100)\n") and err.count("\n") == 1, err

    @pytest.mark.parametrize("block", [256, 2, 1])
    def test_state_fault_before_an_oracle_fault_decides(self, block, monkeypatch, capsys):
        # at V = 10, gamma = 12 the oracle fails its doubling check at d = 10
        # (row 2) only; a patched block function makes row 0's state non-Hermitian
        block_function = schemes.direct_kerr_block

        def non_hermitian_below_1(V, d, gamma):
            normalized, log_scales, probs = block_function(V, d, gamma)
            normalized[np.asarray(d) < 1.0, 0, 1] += 1.0
            return normalized, log_scales, probs

        monkeypatch.setattr(schemes, "direct_kerr_block", non_hermitian_below_1)
        monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
        argv = ["sweep", "--scheme", "direct_kerr", "--set", "V=10", "--set", "gamma=12"]
        assert cli.main(argv + ["--sweep", "d:0:20:5", "--validate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hermiticity defect") and err.count("\n") == 1, err

    def test_validated_sweep_memory_is_bounded(self, monkeypatch):
        # a validated sweep's peak memory is set by its block, not by its
        # length, and every oracle cache is bounded; 64-row blocks keep it short
        caches = (oracle._thermal_nodes, oracle._sandwich_block, oracle._bs_term_matrices)
        monkeypatch.setattr(cli, "SWEEP_BLOCK", 64)

        def peak(scheme, blocks):
            for cache in caches:
                cache.cache_clear()
            fixed = {"r": 0.5, "V": 10.0, "gamma": 2.0, "sign": 1}
            sweep = ("d", 0.0, 30.0, 64 * blocks)
            spec = make_spec(scheme=scheme, fixed=fixed, sweep=sweep, validate_tol=1e-8)
            tracemalloc.start()
            try:
                assert cli.run_sweep(spec)[0] == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for scheme in ("bs", "tt"):
            short, long = peak(scheme, 2), peak(scheme, 12)
            assert long <= 1.5 * short, (scheme, short, long)
            for cache in caches:
                info = cache.cache_info()
                assert info.maxsize is not None and info.currsize <= info.maxsize, info

    def test_sweep_to_the_largest_variance(self, capsys):
        # near V = 1e308 the partial transpose has entries below 2^-1024
        argv = ["sweep", "--scheme", "kerr_micro_thermal", "--set", "r=1", "--set", "gamma=2"]
        assert cli.main(argv + ["--set", "d=1", "--sweep", "V:1:1e308:3"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
        assert [float(row[1]) for row in rows[1:]] == [0.0, 0.0]

    @pytest.mark.parametrize("scheme", ["kerr_micro_thermal", "bs", "tt", "direct_kerr"])
    @pytest.mark.parametrize("variance", ["6e307", "1.7e308"])
    def test_validated_sweep_at_huge_variance(self, scheme, variance, capsys):
        # pi (V - 1) overflows here; the oracle's thermal normalization took
        # its log and the validated sweep exited 2 with "math domain error"
        argv = ["sweep", "--scheme", scheme, "--set", f"V={variance}", "--set", "gamma=2"]
        argv += ["--sweep", "d:0:3:2"]
        argv += {"direct_kerr": [], "kerr_micro_thermal": ["--set", "r=1"]}.get(
            scheme, ["--set", "r=1", "--set", "sign=+"]
        )
        code = cli.main(argv)
        plain = capsys.readouterr()
        assert cli.main(argv + ["--validate"]) == code
        validated = capsys.readouterr()
        assert validated.err == plain.err
        rows = [line.split(",")[:3] for line in validated.out.splitlines()[2:]]
        assert rows == [line.split(",") for line in plain.out.splitlines()[2:]]

    @staticmethod
    def crossing(sweep, bad):
        """A sweep "name:start:stop" over two blocks of rows, and its first value where ``bad`` holds.

        A sweep checks the parameters of each block at its smallest and largest
        value; these sweeps put the first bad row inside a block.
        """
        name, start, stop = sweep.split(":")
        count = 2 * cli.SWEEP_BLOCK
        xs = np.linspace(float(start), float(stop), count)
        return f"{sweep}:{count}", float(next(x for x in xs if bad(float(x))))

    # each scheme's sweep reaches a value whose square (gt sqrt(2) for jc) overflows
    OVERFLOWING = {
        "jc": (["p=1", "lam=0.5", "n=0"], "gt:0:1.7e308:3", "gt * sqrt(n + 2) must be finite"),
        "kerr_micro_thermal": (["r=1", "V=10", "d=1"], "gamma:1:1e200:3", "gamma must have"),
        "bs": (["r=1", "V=10", "gamma=2", "sign=+"], "d:0:1e200:3", "displacement must have"),
        "tt": (["r=1", "V=10", "gamma=2", "sign=+"], "d:0:1e160:3", "displacement must have"),
        "direct_kerr": (["V=10", "gamma=2"], "d:0:1e160:3", "displacement must have"),
    }

    @pytest.mark.parametrize("scheme,fixed", [("direct_kerr", []), ("tt", ["r=0.5", "sign=1"])])
    def test_non_finite_state_exit_2_without_warning(self, scheme, fixed, tmp_path, capsys):
        # K (x) K leaves the double range at gamma = 1e-100, V = 1, d near 1e150, where the
        # state's factor underflows to 0: the row is refused before inf * 0 can warn
        out = tmp_path / "out.csv"
        argv = ["sweep", "--scheme", scheme, "--sweep", "d:1e149:1e150:2", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv + [f"--set={item}" for item in ["gamma=1e-100", "V=1", *fixed]]) == 2
        assert capsys.readouterr().err == "error: matrix has non-finite entries\n"
        assert not out.exists()

    @pytest.mark.parametrize("scheme", sorted(OVERFLOWING))
    def test_overflowing_parameter_exit_2(self, scheme, tmp_path, capsys):
        fixed, sweep, message = self.OVERFLOWING[scheme]
        # the same overflow, first reached in the middle of the second block
        name, start, stop, _ = sweep.split(":")
        if scheme == "jc":
            long_sweep, first = self.crossing(
                f"{name}:{start}:{stop}", lambda x: not math.isfinite(x * math.sqrt(2.0))
            )
        else:
            long_sweep, first = self.crossing(f"{name}:{start}:2e154", lambda x: not math.isfinite(x * x))
        out = tmp_path / "out.csv"
        for sweep, value in ((sweep, None), (long_sweep, first)):
            argv = ["sweep", "--scheme", scheme, "--sweep", sweep, "--out", str(out)]
            assert cli.main(argv + [f"--set={item}" for item in fixed]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err and err.count("\n") == 1, err
            assert value is None or f"got {'gt=' * (scheme == 'jc')}{value!r}" in err, (value, err)
            assert not out.exists()

    @pytest.mark.parametrize("scheme", ["kerr_micro_thermal", "bs", "tt", "direct_kerr"])
    @pytest.mark.parametrize("gammas", ["1e-170:2e-170:2", "1e-158:2e-158:2"])
    def test_tiny_gamma_exit_2(self, scheme, gammas, tmp_path, capsys):
        # gamma^2 underflows (1e-170) or N_-^2 overflows (1e-158); the long
        # sweep leaves the refused range in the middle of its first block
        fixed = {"kerr_micro_thermal": ["r=1", "V=10", "d=3"], "direct_kerr": ["V=10", "d=3"]}
        start = gammas.split(":")[0]
        out = tmp_path / "out.csv"
        for sweep in (f"gamma:{gammas}", self.crossing(f"gamma:{start}:1.5e-154", bool)[0]):
            argv = ["sweep", "--scheme", scheme, "--sweep", sweep, "--out", str(out)]
            argv += [f"--set={item}" for item in fixed.get(scheme, ["r=1", "V=10", "d=3", "sign=+"])]
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: gamma must give a finite N_-^2, got {float(start)!r}\n", err
            assert not out.exists()

    @pytest.mark.parametrize("validate", [[], ["--validate"]])
    def test_bs_gamma_below_floor_exit_2(self, validate, tmp_path, capsys):
        # the sweep starts at the zero-probability point of sign -, which must
        # not turn the refused gamma into a NaN row
        # the long sweep crosses the floor in the middle of its first block
        out = tmp_path / "out.csv"
        for sweep in ("gamma:1e-6:1:5", self.crossing("gamma:1e-6:0.04", bool)[0]):
            argv = ["sweep", "--scheme", "bs", "--sweep", sweep, "--out", str(out), *validate]
            argv += ["--set=r=1", "--set=V=1", "--set=d=0", "--set=sign=-"]
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err == "error: bs needs gamma >= 0.01, got 1e-06\n", err
            assert not out.exists()

    @pytest.mark.parametrize("scheme", ["kerr_micro_thermal", "bs", "tt", "direct_kerr"])
    def test_large_gamma_times_d_exit_0(self, scheme, capsys):
        # terms of size gamma d that cancel in log c and in the bs log scale
        # rounded to a log c of about +1e8 here, and math.exp raised OverflowError
        argv = ["sweep", "--scheme", scheme, "--set", "V=10", "--set", "gamma=1e12"]
        argv += ["--sweep", "d:1e12:1.000000000002e12:3"]
        argv += {"direct_kerr": [], "kerr_micro_thermal": ["--set", "r=1"]}.get(
            scheme, ["--set", "r=1", "--set", "sign=+"]
        )
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[2:]
        rows = [[float(x) for x in line.split(",")] for line in lines]
        assert len(rows) == 3
        for _, npt, trace in rows:
            assert 0.0 <= npt <= 1.0 + 4 * np.finfo(float).eps and 0.0 <= trace <= 1.0

    # one sweep per scheme at extreme values: --set items, the sweep, and the
    # rows whose npt is NaN
    EXTREME_SWEEPS = {
        # lam^(n - 1) at lam = 0 and n = 0 is 1/0; at n = 3 every row has zero probability
        "jc n=0": (["lam=0", "gt=1", "n=0"], "p:0:1:3", []),
        "jc n=3": (["lam=0", "gt=1", "n=3"], "p:0:1:3", [0, 1, 2]),
        # 4 gamma d is past the double range, y = 4 gamma d/(V + 1) is O(1) at the end
        "kerr_micro_thermal": (["r=1", "gamma=1e154", "d=1e154"], "V:1:1.7e308:5", []),
        "bs": (["r=1", f"gamma={schemes.BS_GAMMA_FLOOR!r}", "d=1e154", "sign=-"], "V:1:1.7e308:5", []),
        # the grid's exponents and gamma^2 are past the double range near V = 1
        "bs gamma=d=1e154": (["r=1", "gamma=1e154", "d=1e154", "sign=-"], "V:1:2:2", []),
        "bs gamma=-d=1.3e154": (["r=0.5", "gamma=1.3e154", "d=-1.3e154", "sign=+"], "V:1:2:2", []),
        "tt": (["r=1", "gamma=2", "d=1e150", "sign=-"], "V:1:1.7e308:5", []),
        "direct_kerr": (["gamma=2", "d=1e150"], "V:1:1.7e308:5", []),
    }

    @pytest.mark.parametrize("case", sorted(EXTREME_SWEEPS))
    def test_extreme_sweep_nan_pattern(self, case, capsys):
        # overflows to inf and 0 here are values past the double range: no
        # numpy warning may reach stderr, and only zero-probability rows are NaN
        fixed, sweep, nan_rows = self.EXTREME_SWEEPS[case]
        argv = ["sweep", "--scheme", case.split()[0], "--sweep", sweep]
        assert cli.main(argv + [f"--set={item}" for item in fixed]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [[float(x) for x in line.split(",")] for line in captured.out.splitlines()[2:]]
        assert len(rows) == int(sweep.split(":")[-1])
        assert [i for i, row in enumerate(rows) if math.isnan(row[1])] == nan_rows
        for _, npt, trace in rows:
            assert math.isnan(npt) or 0.0 <= npt <= 1.0
            assert 0.0 <= trace <= 1.0

    @pytest.mark.parametrize("n", ["inf", "1e400", "nan", "0.5"])
    def test_non_integer_n_exit_2(self, n, capsys):
        argv = ["sweep", "--scheme", "jc", "--sweep", "gt:0:1:2"]
        argv += ["--set", "p=1", "--set", "lam=0.5", "--set", f"n={n}"]
        assert cli.main(argv) == 2
        assert "n must be an integer" in capsys.readouterr().err


class TestDomainAudit:
    """Each sweepable parameter at 10^k, k = -300, -292, ..., 300, and at 1.7e308.

    The others stay at jc p=1, lam=0.5, gt=1, n=0 and cat r=1, V=10, d=3,
    gamma=2, sign +.  ``cli.main`` turns a ``ValueError`` into one ``error:``
    line and exit 2 and lets anything else through (exit 1 with a traceback);
    the runs call ``cli.run_sweep`` directly, which keeps the whole grid well
    under 3 s, and apply the same rule.
    """

    FIXED = {"p": 1.0, "lam": 0.5, "gt": 1.0, "n": 0}
    FIXED.update({"r": 1.0, "V": 10.0, "d": 3.0, "gamma": 2.0, "sign": 1})
    # the name each parameter's error message uses
    WORDS = {"V": "variance", "d": "displacement"}
    VALUES = [10.0**k for k in range(-300, 301, 8)] + [1.7e308]

    def test_no_run_exits_1(self):
        outcomes = {0: 0, 2: 0}
        for scheme, sdef in cli.SCHEMES.items():
            for name in sdef.sweepable:
                fixed = {k: self.FIXED[k] for k in sdef.params if k != name}
                for x in self.VALUES:
                    sweep = (name, x, math.nextafter(x, math.inf), 2)
                    spec = make_spec(scheme=scheme, fixed=fixed, sweep=sweep)
                    at = (scheme, name, x)
                    try:
                        code, text, _ = cli.run_sweep(spec)
                    except ValueError as exc:
                        message = str(exc)
                        assert "\n" not in message, (at, message)
                        assert self.WORDS.get(name, name) in message, (at, message)
                        outcomes[2] += 1
                        continue
                    assert code == 0, at
                    outcomes[0] += 1
                    for line in text.splitlines()[2:]:
                        npt, trace = (float(v) for v in line.split(",")[1:])
                        assert 0.0 <= npt <= 1.0 + 4 * np.finfo(float).eps, (at, line)
                        assert 0.0 <= trace <= 1.0, (at, line)
        assert outcomes[0] > 700 and outcomes[2] > 500, outcomes


class TestPresets:
    def test_all_presets_well_formed(self):
        for name, spec in cli.PRESETS.items():
            checked = cli._check_spec(spec)
            assert checked.scheme in cli.SCHEMES, name

    def test_preset_fixed_parameters(self):
        assert cli.PRESETS["fig1a"].fixed["p"] == 1.0
        assert cli.PRESETS["fig1b"].fixed["p"] == 0.9
        assert cli.PRESETS["fig1c"].fixed["p"] == 0.8
        for name in ("fig1d", "fig1e", "fig1f"):
            assert cli.PRESETS[name].fixed["p"] == 0.5
        assert [cli.PRESETS[k].fixed["lam"] for k in ("fig1d", "fig1e", "fig1f")] == [0.0, 0.1, 0.2]
        for name in ("fig2a", "fig2b", "fig3a", "fig3b", "fig4a", "fig4b", "fig5"):
            assert cli.PRESETS[name].fixed["gamma"] == 2.0

    def test_preset_override_of_swept_parameter(self, tmp_path, capsys):
        out = tmp_path / "fig2a.csv"
        assert cli.main(["preset", "run", "fig2a", "--set", "d=5", "--out", str(out)]) == 2
        assert "'d' is both fixed and swept" in capsys.readouterr().err
        assert not out.exists()

    def test_preset_run_writes_file(self, tmp_path, monkeypatch):
        out = tmp_path / "fig2a.csv"
        assert cli.main(["preset", "run", "fig2a", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 201

    def test_fig1a_zeros_on_quarter_periods(self, tmp_path):
        out = tmp_path / "fig1a.csv"
        assert cli.main(["preset", "run", "fig1a", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 401
        for gt_text, npt_text, _ in rows:
            gt, value = float(gt_text), float(npt_text)
            k = round(gt / (math.pi / 2))
            if abs(gt - k * math.pi / 2) < 1e-9:
                assert value <= 1e-10, gt
            else:
                assert value > 0.0, gt

    @pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f"])
    def test_fig1_matches_x_state_formula(self, name):
        # the jc partial transpose is an X-state: its smallest eigenvalue is
        # (m00 + m33)/2 - sqrt(((m00 - m33)/2)^2 + |m12|^2) of the
        # trace-normalized state (Yu & Eberly, Quantum Inf. Comput. 7:459, 2007)
        spec = cli.PRESETS[name]
        rows = [line.split(",") for line in cli.run_sweep(spec)[1].splitlines()[2:]]
        assert len(rows) == 401
        for gt_text, npt_text, _ in rows:
            params = mx.AtomFieldParams(gt=float(gt_text), **spec.fixed)
            m = schemes.jc_projected(params).matrix.entries
            m = m / np.trace(m).real
            m00, m33, m12 = m[0, 0].real, m[3, 3].real, abs(m[1, 2])
            low = (m00 + m33) / 2 - math.sqrt(((m00 - m33) / 2) ** 2 + m12**2)
            value = float(npt_text)
            assert abs(value - 2.0 * max(0.0, -low)) <= 1e-12, gt_text
            if m12**2 <= m00 * m33:
                assert value == 0.0, gt_text

    @pytest.mark.parametrize("name", ["fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f"])
    def test_validated_fig1(self, name, tmp_path):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["preset", "run", name, "--out", str(out), "--validate"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 401
        assert all(float(row[4]) <= 1e-10 for row in rows)

    def test_fig3a_rises_with_mixture(self, tmp_path):
        out = tmp_path / "fig3a.csv"
        assert cli.main(["preset", "run", "fig3a", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        first, last = float(rows[0][1]), float(rows[-1][1])
        assert first <= 1e-10  # V = 1, d = 0: vacuum, no entanglement
        assert last > 0.0

    @pytest.mark.parametrize("name", ["fig2a", "fig4a", "fig5"])
    def test_displacement_onset_shape(self, name, tmp_path):
        # qualitative regression: flat zero at d = 0, then a rise to strong
        # entanglement once d is well past sqrt(V)
        out = tmp_path / f"{name}.csv"
        assert cli.main(["preset", "run", name, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        npts = np.array([float(r[1]) for r in rows])
        assert npts[0] <= 1e-10
        assert npts.max() > 0.5
        assert np.all(npts >= 0.0)
        # once the curve has risen past half maximum it does not fall back to zero
        risen = np.flatnonzero(npts > 0.5 * npts.max())[0]
        assert np.all(npts[risen:] > 0.0)

    def test_presets_match_reference(self):
        # the benchmark gate's rules: |dnpt| <= 1e-12, exact zeros stay exact,
        # NaN parity, trace within 1e-12 relative
        reference = json.loads(REFERENCE.read_text())["presets"]
        assert sorted(reference) == sorted(cli.PRESETS)
        for name, spec in cli.PRESETS.items():
            code, text, _ = cli.run_sweep(spec)
            assert code == 0
            rows = [[float(x) for x in line.split(",")] for line in text.splitlines()[2:]]
            assert len(rows) == len(reference[name]), name
            for (x, npt, trace), (rx, rnpt, rtrace) in zip(rows, reference[name]):
                at = (name, x)
                assert abs(x - rx) <= 1e-12 * max(1.0, abs(rx)), at
                assert math.isnan(npt) == math.isnan(rnpt), at
                if rnpt == 0.0:
                    assert npt == 0.0, at
                elif not math.isnan(rnpt):
                    assert abs(npt - rnpt) <= 1e-12, at
                assert math.isnan(trace) == math.isnan(rtrace), at
                if not math.isnan(rtrace):
                    assert abs(trace - rtrace) <= 1e-12 * abs(rtrace), at
