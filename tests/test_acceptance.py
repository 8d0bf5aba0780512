"""Acceptance suite: one check per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import math
import time

import numpy as np

import mixent as mx
from mixent import cli
from mixent.schemes import (
    bs_scheme_projected,
    direct_kerr_projected,
    jc_projected,
    kerr_micro_thermal_projected,
    tt_scheme_projected,
)

G2 = mx.CatBasis(2.0)


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_1_jc_oracle_equivalence():
    start = time.monotonic()
    dev, _, _ = cli.validate_grid("jc-grid")
    elapsed = time.monotonic() - start
    report(
        "criterion-1 JC closed form vs Fock oracle <= 1e-10",
        dev <= 1e-10 and elapsed < 30.0,
        f"max deviation {dev:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_kerr_oracle_equivalence():
    start = time.monotonic()
    devs = {}
    for grid in ("kerr-grid", "bs-grid", "tt-grid", "direct-grid"):
        devs[grid], _, _ = cli.validate_grid(grid)
    elapsed = time.monotonic() - start
    worst = max(devs.values())
    report(
        "criterion-2 Kerr closed forms vs quadrature oracle <= 1e-8",
        worst <= 1e-8 and elapsed < 120.0,
        ", ".join(f"{k} {v:.2e}" for k, v in devs.items()) + f", {elapsed:.1f}s",
    )


def test_criterion_3_exact_separability_zeros():
    values = []
    values.append(jc_projected(mx.AtomFieldParams(p=0.8, lam=0.6, gt=0.0, n=1)).npt_normalized)
    for v in (2.0, 10.0, 1000.0):
        values.append(
            kerr_micro_thermal_projected(mx.MicroState(1.0), mx.ThermalParams(v, 0.0), G2).npt_normalized
        )
    mixed = mx.MicroState(0.0)
    values.append(kerr_micro_thermal_projected(mixed, mx.ThermalParams(10.0, 7.0), G2).npt_normalized)
    for sign in (1, -1):
        values.append(bs_scheme_projected(mixed, mx.ThermalParams(50.0, 3.0), G2, sign).npt_normalized)
        values.append(tt_scheme_projected(mixed, mx.ThermalParams(50.0, 3.0), G2, sign).npt_normalized)
    values.append(direct_kerr_projected(mx.ThermalParams(100.0, 0.0), G2).npt_normalized)
    for k in (1, 2, 3, 4):
        values.append(
            jc_projected(mx.AtomFieldParams(p=1.0, lam=0.999, gt=k * math.pi / 2, n=0)).npt_normalized
        )
    worst = max(values)
    report("criterion-3 separability zeros <= 1e-10", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_4_figure1_regression():
    zeros_ok, positive_ok = True, True
    for k in range(1, 201):
        gt = k * math.pi / 200.0
        value = jc_projected(mx.AtomFieldParams(p=1.0, lam=0.999, gt=gt, n=0)).npt_normalized
        if k in (100, 200):
            zeros_ok &= value <= 1e-10
        else:
            positive_ok &= value > 0.0
    curve = [
        jc_projected(mx.AtomFieldParams(p=p, lam=0.999, gt=0.7, n=0)).npt_normalized
        for p in (1.0, 0.9, 0.8)
    ]
    monotone = curve[0] > curve[1] > curve[2]
    report(
        "criterion-4 figure-1 regression",
        zeros_ok and positive_ok and monotone,
        f"zeros at pi/2, pi; NPT(p=1,0.9,0.8)={', '.join(f'{x:.3f}' for x in curve)}",
    )


def test_criterion_5_onset_at_large_displacement():
    ok = True
    details = []
    for v in (10.0, 100.0, 1000.0):
        d5 = 5.0 * math.sqrt(v)
        at_zero = mx.ThermalParams(v, 0.0)
        at_d5 = mx.ThermalParams(v, d5)
        micro = mx.MicroState(1.0)
        triples = {
            "eq4": (
                kerr_micro_thermal_projected(micro, at_zero, G2).npt_normalized,
                kerr_micro_thermal_projected(micro, at_d5, G2).npt_normalized,
            ),
            "tt+": (
                tt_scheme_projected(micro, at_zero, G2, 1).npt_normalized,
                tt_scheme_projected(micro, at_d5, G2, 1).npt_normalized,
            ),
            "psi": (
                direct_kerr_projected(at_zero, G2).npt_normalized,
                direct_kerr_projected(at_d5, G2).npt_normalized,
            ),
        }
        for name, (zero, far) in triples.items():
            ok &= zero <= 1e-10 and far > 0.0
            details.append(f"{name}@V={v:g}: {far:.3f}")
    report("criterion-5 onset for d = 5 sqrt(V)", ok, "; ".join(details))


def test_criterion_6_high_mixture_beam_splitter():
    value = bs_scheme_projected(
        mx.MicroState(0.1), mx.ThermalParams(1000.0, 0.0), G2, 1
    ).npt_normalized
    report("criterion-6 beam-splitter entanglement at d=0, V=1000", value > 0.0, f"NPT {value:.4f}")


def test_criterion_7_qlinalg_unit_suite():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2.0)
    bell = mx.BipartiteMatrix(2, 2, np.outer(psi, psi.conj()))
    bell_ok = abs(mx.npt(bell) - 1.0) <= 1e-12

    rng = np.random.default_rng(100)
    involution_ok = True
    for _ in range(50):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = mx.BipartiteMatrix(2, 2, a)
        twice = mx.partial_transpose(mx.partial_transpose(m, "B"), "B")
        involution_ok &= np.array_equal(twice.entries, m.entries)

    werner = mx.BipartiteMatrix(2, 2, 0.5 * bell.entries + 0.5 * np.eye(4) / 4)
    pt = mx.partial_transpose(werner, "B").entries
    derived = -2.0 * min(0.0, float(np.linalg.eigvalsh(pt).min()))
    werner_ok = abs(mx.npt(werner) - derived) <= 1e-10 and abs(derived - 0.25) <= 1e-10

    trace_ok = True
    for _ in range(1000):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (a + a.conj().T) / 2
        w, _ = mx.hermitian_eigensystem(h)
        trace_ok &= abs(w.sum() - np.trace(h).real) <= 1e-10

    report(
        "criterion-7 qlinalg unit suite",
        bell_ok and involution_ok and werner_ok and trace_ok,
        f"bell npt {mx.npt(bell):.12f}, werner npt {mx.npt(werner):.12f}",
    )


def test_criterion_8_purity_formulas():
    ok = True
    for p in np.linspace(0.0, 1.0, 11):
        explicit = mx.purity(mx.BipartiteMatrix(2, 1, np.diag([p, 1.0 - p])))
        ok &= abs(mx.atom_purity(p) - explicit) <= 1e-10
    for lam in (0.0, 0.5, 0.9):
        space = mx.fock_space_for(lam)
        explicit = mx.purity(mx.thermal_fock_matrix(lam, space))
        ok &= abs(mx.field_purity(lam) - explicit) <= 1e-10
    for r in np.linspace(0.0, 1.0, 11):
        micro = mx.MicroState(r)
        ok &= abs(micro.purity - mx.purity(mx.micro_state_matrix(micro))) <= 1e-10
    # displaced thermal purity: 1/V, via the Fock matrix of the same variance
    thermal = mx.ThermalParams(4.0, 3.0)
    lam_eq = thermal.boltzmann_ratio
    explicit = mx.purity(mx.thermal_fock_matrix(lam_eq, mx.fock_space_for(lam_eq)))
    ok &= abs(thermal.purity - explicit) <= 1e-6 and abs(thermal.purity - 0.25) <= 1e-12
    report("criterion-8 purity formulas vs explicit matrices", ok)


def test_criterion_9_preset_determinism(tmp_path):
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    assert cli.main(["preset", "run", "fig2a", "--out", str(first)]) == 0
    assert cli.main(["preset", "run", "fig2a", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report("criterion-9 preset fig2a byte-identical", identical, f"{first.stat().st_size} bytes")


def test_criterion_10_purity_ladder():
    # the paper's claim: entanglement survives as the purity of the mixed
    # inputs goes to zero; d has to scale with V, since at fixed d the NPT
    # decays with V
    ok = True
    details = []
    for lam in (0.9, 0.999, 0.999999):
        grid = [
            mx.AtomFieldParams(p=1.0, lam=lam, gt=float(gt), n=0)
            for gt in np.linspace(0.0, 2.0 * math.pi, 2001)
        ]
        values = [jc_projected(params).npt_normalized for params in grid]
        best, at = max(values), grid[int(np.argmax(values))]
        dev = mx.max_abs_deviation(jc_projected(at).matrix, mx.jc_fock_projected(at))
        ok &= best >= 0.995 and dev <= 1e-10
        details.append(f"jc purity {mx.field_purity(lam):.1e}: {best:.5f}")
    for v in (1e3, 1e6, 1e9, 1e12, 1e15):
        best = max(
            direct_kerr_projected(mx.ThermalParams(v, float(d)), G2).npt_normalized
            for d in np.linspace(1.9 * v, 2.2 * v, 61)
        )
        ok &= best >= 0.9999
        details.append(f"direct purity {1.0 / v:.0e}: {best:.5f}")
    report("criterion-10 NPT at vanishing purity", ok, "; ".join(details))
