"""Parameter types, coherent overlaps, cat kernels and purity formulas."""

import math
import re

import numpy as np
import pytest

import mixent as mx
from mixent import states
from mixent.states import atom_purity, field_purity, thermal_cat_kernels


def fock_overlap(a, b, n_max=80):
    """Independent <a|b> through the truncated number-basis expansion."""
    ca = np.zeros(n_max + 1, dtype=complex)
    cb = np.zeros(n_max + 1, dtype=complex)
    ca[0] = math.exp(-abs(a) ** 2 / 2)
    cb[0] = math.exp(-abs(b) ** 2 / 2)
    for m in range(1, n_max + 1):
        ca[m] = ca[m - 1] * a / math.sqrt(m)
        cb[m] = cb[m - 1] * b / math.sqrt(m)
    return np.vdot(ca, cb)


class TestCoherentOverlap:
    def test_vacuum(self):
        assert mx.coherent_overlap(0.0, 0.0) == pytest.approx(1.0)

    def test_opposite_amplitudes(self):
        assert mx.coherent_overlap(2.0, -2.0) == pytest.approx(math.exp(-8.0), abs=1e-15)

    def test_self_overlap_and_bound(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            assert mx.coherent_overlap(a, a) == pytest.approx(1.0, abs=1e-14)
            assert abs(mx.coherent_overlap(a, b)) <= 1.0 + 1e-14

    def test_against_fock_expansion(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert abs(mx.coherent_overlap(a, b) - fock_overlap(a, b)) < 1e-10

    def test_array_input(self):
        alphas = np.array([0.0, 1.0, 2.0 + 1j])
        out = mx.coherent_overlap(1.0, alphas)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(1.0)


class TestCatBasis:
    def test_normalizations_ordering(self):
        for g in (0.5, 1.0, 2.0, 3.0):
            basis = mx.CatBasis(g)
            assert basis.n_minus > basis.n_plus > 0.0
        # beyond gamma ~ 4 the overlap exp(-2 g^2) is below double-precision
        # resolution and the two normalizations coincide
        big = mx.CatBasis(5.0)
        assert big.n_minus >= big.n_plus > 0.0

    @pytest.mark.parametrize("gamma", np.linspace(0.5, 5.0, 10).tolist())
    def test_orthonormality(self, gamma):
        basis = mx.CatBasis(gamma)
        ov = mx.coherent_overlap(gamma, -gamma).real
        plus_plus = basis.n_plus**2 * (2 + 2 * ov)
        minus_minus = basis.n_minus**2 * (2 - 2 * ov)
        plus_minus = basis.n_plus * basis.n_minus * (ov - ov)
        assert plus_plus == pytest.approx(1.0, abs=1e-12)
        assert minus_minus == pytest.approx(1.0, abs=1e-12)
        assert abs(plus_minus) < 1e-12

    def test_coherent_projection_vacuum(self):
        basis = mx.CatBasis(2.0)
        plus, minus = basis.coherent_projection(0.0)
        # the odd cat has no vacuum component
        assert abs(minus) < 1e-15
        assert plus == pytest.approx(2 * basis.n_plus * math.exp(-2.0), abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            mx.CatBasis(0.0)
        with pytest.raises(ValueError):
            mx.CatBasis(-1.0)

    def test_gamma_square_must_be_finite(self):
        # gamma**2 would raise OverflowError in n_plus; the basis refuses it
        largest = float(np.nextafter(2.0**512, 0.0))  # 1.34e154
        for bad in (2.0**512, 1e200):
            with pytest.raises(ValueError, match="gamma must have a finite square"):
                mx.CatBasis(bad)
        assert math.isfinite(mx.CatBasis(largest).n_plus)

    def test_tiny_gamma_must_give_finite_n_minus_square(self):
        # N_-^2 = 1/(2(1 - exp(-2 gamma^2))): at 1e-170 gamma^2 underflows and
        # N_- divides by zero; at 1e-158 N_-**2 raised OverflowError
        smallest = 3.729170365600107e-155
        for bad in (1e-170, 1e-158, 1e-155, float(np.nextafter(smallest, 0.0))):
            with pytest.raises(ValueError, match="gamma must give a finite N_-\\^2"):
                mx.CatBasis(bad)
        for gamma in (smallest, 1e-154):
            assert math.isfinite(mx.CatBasis(gamma).n_minus**2)

    def test_norms_computed_once(self, monkeypatch):
        # the norms are computed at construction; repr, == and hash see gamma alone
        calls = []
        norms = states._cat_norms
        monkeypatch.setattr(states, "_cat_norms", lambda g: calls.append(g) or norms(g))
        basis = mx.CatBasis(2.0)
        assert (basis.n_plus, basis.n_minus, basis.n_plus, basis.n_minus) == norms(2.0) * 2
        assert calls == [2.0]
        assert repr(basis) == "CatBasis(gamma=2.0)"
        assert basis == mx.CatBasis(2.0) != mx.CatBasis(3.0)
        assert hash(basis) == hash(mx.CatBasis(2.0))


class TestThermalParams:
    def test_mean_photon_number(self):
        assert mx.ThermalParams(1.0, 0.0).mean_photon_number == 0.0
        t = mx.ThermalParams(5.0, 2.0)
        assert t.mean_photon_number == pytest.approx((5 - 1) / 2 + 4)

    def test_mean_photon_number_monotone(self):
        base = mx.ThermalParams(2.0, 1.0).mean_photon_number
        assert mx.ThermalParams(3.0, 1.0).mean_photon_number > base
        assert mx.ThermalParams(2.0, 1.5).mean_photon_number > base
        assert mx.ThermalParams(2.0, -1.5).mean_photon_number > base

    def test_purity_times_variance_is_one(self):
        for v in (1.0, 2.0, 7.5, 1000.0):
            for d in (0.0, 3.0, -40.0):
                assert mx.ThermalParams(v, d).purity * v == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            mx.ThermalParams(0.5, 0.0)
        with pytest.raises(ValueError):
            mx.ThermalParams(2.0, 1.0 + 1.0j)

    def test_displacement_square_must_be_finite(self):
        # d**2 would raise OverflowError in mean_photon_number and the kernels
        largest = float(np.nextafter(2.0**512, 0.0))  # 1.34e154
        for bad in (2.0**512, -(2.0**512), 1e200):
            with pytest.raises(ValueError, match="displacement must have a finite square"):
                mx.ThermalParams(10.0, bad)
        for d in (largest, -largest):
            assert math.isfinite(mx.ThermalParams(10.0, d).mean_photon_number)


class TestMicroState:
    def test_purity_formula(self):
        assert mx.MicroState(1.0).purity == 1.0
        assert mx.MicroState(0.0).purity == 0.5
        assert mx.MicroState(0.6).purity == pytest.approx(0.68)

    def test_matrix(self):
        m = mx.micro_state_matrix(mx.MicroState(1.0))
        assert m.trace() == pytest.approx(1.0)
        assert mx.purity(m) == pytest.approx(1.0, abs=1e-12)
        assert mx.min_eigenvalue(m) >= -1e-12
        half = mx.micro_state_matrix(mx.MicroState(0.0))
        assert np.allclose(half.entries, np.eye(2) / 2)

    def test_domain(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                mx.MicroState(bad)


class TestAtomFieldParams:
    def test_purities(self):
        assert atom_purity(1.0) == 1.0
        assert atom_purity(0.5) == 0.5
        assert field_purity(0.0) == 1.0
        assert field_purity(1.0 - 1e-3) == pytest.approx(1e-3 / (2 - 1e-3))

    def test_photon_weights_sum_to_one(self):
        params = mx.AtomFieldParams(p=1.0, lam=0.7, gt=0.0, n=0)
        total = sum(params.photon_weight(k) for k in range(400))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert params.photon_weight(-1) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            mx.AtomFieldParams(p=1.2, lam=0.0, gt=0.0)
        with pytest.raises(ValueError):
            mx.AtomFieldParams(p=0.5, lam=1.0, gt=0.0)
        with pytest.raises(ValueError):
            mx.AtomFieldParams(p=0.5, lam=0.0, gt=-1.0)
        with pytest.raises(ValueError):
            mx.AtomFieldParams(p=0.5, lam=0.0, gt=0.0, n=-1)

    def test_coupling_phase_must_be_finite(self):
        # the state takes cos(gt sqrt(n + 2)); an infinite argument has no cosine
        for gt, n in ((1.7e308, 0), (1e308, 2), (1e306, 10**5)):
            with pytest.raises(ValueError, match=re.escape(f"gt={gt!r} and n={n}")):
                mx.AtomFieldParams(p=1.0, lam=0.5, gt=gt, n=n)
        assert mx.AtomFieldParams(p=1.0, lam=0.5, gt=1e308, n=1).gt == 1e308


class TestCatKernels:
    def test_coherent_limit(self):
        for g in (1.0, 2.0, 3.0):
            k = thermal_cat_kernels(mx.ThermalParams(1.0, 0.0), mx.CatBasis(g))
            assert k.c == pytest.approx(2 * math.exp(-g * g), rel=1e-14)
            assert k.s == 0.0
            assert k.r == pytest.approx(2 * math.exp(-g * g), rel=1e-14)

    def test_s_vanishes_at_zero_displacement(self):
        for v in (1.0, 3.0, 100.0):
            k = thermal_cat_kernels(mx.ThermalParams(v, 0.0), mx.CatBasis(2.0))
            assert k.s == 0.0

    def test_symmetries_and_bound(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            v = rng.uniform(1.0, 500.0)
            d = rng.uniform(0.1, 50.0)
            g = rng.uniform(0.5, 3.0)
            plus = thermal_cat_kernels(mx.ThermalParams(v, d), mx.CatBasis(g))
            minus = thermal_cat_kernels(mx.ThermalParams(v, -d), mx.CatBasis(g))
            assert plus.c == pytest.approx(minus.c, rel=1e-12)
            assert plus.r == pytest.approx(minus.r, rel=1e-12)
            assert plus.s == pytest.approx(-minus.s, rel=1e-12)
            assert plus.c >= abs(plus.s)
            assert plus.c > 0 and plus.s > 0 and plus.r > 0

    def test_extreme_displacement_is_finite(self):
        # naive exp * cosh would overflow here
        k = thermal_cat_kernels(mx.ThermalParams(1.0, 1000.0), mx.CatBasis(3.0))
        assert all(math.isfinite(x) for x in k)
        assert k.c >= 0.0
        big = thermal_cat_kernels(mx.ThermalParams(1000.0, 500.0), mx.CatBasis(3.0))
        assert all(math.isfinite(x) for x in big)
        assert big.c > 0.0  # representable, far below 1

    def test_explicit_value(self):
        v, d, g = 10.0, 5.0, 2.0
        k = thermal_cat_kernels(mx.ThermalParams(v, d), mx.CatBasis(g))
        pref = 4.0 / (v + 1)
        arg = -2.0 * (g * g + d * d) / (v + 1)
        assert k.c == pytest.approx(pref * math.exp(arg) * math.cosh(4 * g * d / (v + 1)), rel=1e-13)
        assert k.s == pytest.approx(pref * math.exp(arg) * math.sinh(4 * g * d / (v + 1)), rel=1e-13)
        assert k.r == pytest.approx(pref * math.exp(-2 * (v * g * g + d * d) / (v + 1)), rel=1e-13)
