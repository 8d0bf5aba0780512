"""Closed-form projected states: structure, zeros, pure-state limits."""

import math
import warnings
from itertools import product

import numpy as np
import pytest

import mixent as mx
from mixent import qlinalg, schemes
from mixent.qlinalg import DegenerateStateError, NumericInputError
from mixent.schemes import (
    bs_projected_kernel,
    bs_scheme_projected,
    direct_kerr_projected,
    jc_projected,
    kerr_micro_thermal_projected,
    tt_projected_kernel,
    tt_scheme_projected,
)

from coherent import coherent_projection

G2 = mx.CatBasis(2.0)


def assert_state_invariants(out):
    """Hermitian, PSD within tolerance, trace in (0, 1]."""
    m = out.matrix
    assert np.max(np.abs(m.entries - m.entries.conj().T)) < 1e-12
    tr = out.trace
    assert 0.0 < tr <= 1.0 + 1e-10
    assert mx.min_eigenvalue(m.scaled(1.0 / tr)) >= -1e-10


def one_state(result):
    """(kernel-normalized state, factor) of a one-row block result; the factor is NaN where degenerate."""
    return tuple(x[0] for x in schemes.block_states(*result))


def fock_coherent(alpha, dim):
    vec = np.zeros(dim, dtype=complex)
    vec[0] = math.exp(-abs(alpha) ** 2 / 2)
    for m in range(1, dim):
        vec[m] = vec[m - 1] * alpha / math.sqrt(m)
    return vec


class TestJcProjected:
    def test_no_interaction_is_diagonal(self):
        out = jc_projected(mx.AtomFieldParams(p=0.8, lam=0.4, gt=0.0, n=1))
        off = out.matrix.entries - np.diag(np.diag(out.matrix.entries))
        assert np.max(np.abs(off)) == 0.0
        assert out.npt_normalized == 0.0
        assert_state_invariants(out)

    def test_quarter_period_zero(self):
        out = jc_projected(mx.AtomFieldParams(p=1.0, lam=0.999, gt=math.pi / 2, n=0))
        assert out.npt_normalized <= 1e-12

    @pytest.mark.parametrize("n,gt", [(0, 0.7), (10, 1.0), (100, 0.7)])
    def test_generic_entanglement(self, n, gt):
        # for n > 0 the curve touches zero at isolated gt (the coherence
        # |C_n S_n| must beat |S_{n-1} C_{n+1}|), so generic points are used
        out = jc_projected(mx.AtomFieldParams(p=1.0, lam=0.999, gt=gt, n=n))
        assert out.npt_normalized > 0.0
        assert_state_invariants(out)

    def test_single_doublet_periodicity(self):
        # lam = 0, p = 1, n = 0 involves only the first doublet, so the full
        # matrix is periodic in gt with period 2 pi / sqrt(n+1)
        a = jc_projected(mx.AtomFieldParams(p=1.0, lam=0.0, gt=0.9, n=0)).matrix
        b = jc_projected(mx.AtomFieldParams(p=1.0, lam=0.0, gt=0.9 + 2 * math.pi, n=0)).matrix
        assert mx.max_abs_deviation(a, b) < 1e-12

    def test_overflowing_coupling_time_raises_value_error(self):
        # gt sqrt(2) overflows to inf, which has no cosine: the parameters
        # refuse it, as they refuse a d or gamma whose square overflows
        with pytest.raises(ValueError):
            jc_projected(mx.AtomFieldParams(p=1.0, lam=0.5, gt=1.7e308, n=0))

    def test_zero_probability_projection_is_nan(self):
        out = jc_projected(mx.AtomFieldParams(p=0.0, lam=0.0, gt=0.3, n=3))
        assert math.isnan(out.npt_normalized)
        assert np.max(np.abs(out.matrix.entries)) == 0.0

    @staticmethod
    def tail_draws(rng, count):
        """p, lam, gt, n with n from 2 to 20 and log-uniform up to 1e300, lam in (0, 1), p and gt uniform.

        lam is uniform, log-uniform down to 1e-300 or within 1e-12 of 1, a third each.
        """
        p = [rng.uniform() for _ in range(count)]
        lam = [
            float(rng.choice([rng.uniform(), 10.0 ** -rng.uniform(0.0, 300.0), 1.0 - 10.0 ** -rng.uniform(0.0, 12.0)]))
            for _ in range(count)
        ]
        gt = [rng.uniform(0.0, 8.0 * math.pi) for _ in range(count)]
        n = [int(rng.integers(2, 21)) if i % 2 else int(10.0 ** rng.uniform(math.log10(2.0), 300.0)) for i in range(count)]
        return p, lam, gt, n

    def test_npt_over_the_whole_n_domain(self):
        # lam^(n-1) leaves the double range from n near 1000 at lam = 0.5, and sooner at
        # smaller lam; NaN is allowed only at an exact zero state, here the rows at lam = 0
        p, lam, gt, n = self.tail_draws(np.random.default_rng(3401), 2000)
        lam[::10] = [0.0] * len(lam[::10])
        normalized, factors = schemes.block_states(*schemes.jc_block(p, lam, gt, n))
        npts = qlinalg._npt_stack(normalized)
        zero = np.array(lam) == 0.0
        assert np.isnan(npts[zero]).all() and not np.isnan(npts[~zero]).any()
        assert (normalized[zero] == 0.0).all()
        assert ((npts[~zero] >= 0.0) & (npts[~zero] <= 1.0)).all(), (npts.min(), npts.max())
        kernel_traces = np.trace(normalized[~zero], axis1=1, axis2=2).real
        traces = kernel_traces * factors[~zero]
        assert ((traces >= 0.0) & (traces <= 1.0)).all(), (traces.min(), traces.max())
        lowest = np.linalg.eigvalsh(normalized[~zero] / kernel_traces[:, None, None])[:, 0]
        assert lowest.min() >= -1e-12, lowest.min()

    @pytest.mark.parametrize(
        "n,expected", [(3, 0.0638408826048279), (1000, 0.0042949023794906), (2000, 0.0064075720547501)]
    )
    def test_far_tail_against_mpmath(self, n, expected):
        # the trace is 7.1e-302 at n = 1000 and underflows to 0 at n = 2000
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            ref = mpmath_npt(mpmath, mpmath_jc_state(mpmath, 1.0, 0.5, 0.5, n))
        assert ref == pytest.approx(expected, abs=1e-15)
        out = jc_projected(mx.AtomFieldParams(1.0, 0.5, 0.5, n))
        assert abs(out.npt_normalized - ref) <= 1e-12, (n, out.npt_normalized, ref)

    @pytest.mark.parametrize("lam", [0.5, 0.9, 0.999999])
    def test_ppt_boundary_in_excited_population(self, lam):
        # The partial transpose of the n = 0 state is an X-state, NPT iff
        # |m12|^2 > m00 m33.  Above p = 1/2, p* is the excited population
        # where that first holds at some gt of a period; the NPT is exactly
        # 0 at every gt just below it and positive at some gt just above.
        # At lam = 0.999999 the field purity (1 - lam)/(1 + lam) is 5e-7.
        gt = np.linspace(2.0 * math.pi / 400, 2.0 * math.pi, 400).tolist()

        def entangled(p):
            m = schemes.jc_block([p] * len(gt), [lam] * len(gt), gt, [0] * len(gt))[0]
            return (np.abs(m[:, 1, 2]) ** 2 > m[:, 0, 0].real * m[:, 3, 3].real).any()

        lo, hi = 0.5, 1.0
        assert not entangled(lo) and entangled(hi)
        for _ in range(40):
            mid = (lo + hi) / 2.0
            lo, hi = (lo, mid) if entangled(mid) else (mid, hi)
        below = [jc_projected(mx.AtomFieldParams(hi - 1e-3, lam, x, 0)).npt_normalized for x in gt]
        above = [jc_projected(mx.AtomFieldParams(hi + 1e-3, lam, x, 0)).npt_normalized for x in gt]
        assert all(value == 0.0 for value in below), (lam, hi)
        assert max(above) > 0.0, (lam, hi)


class TestKerrMicroThermal:
    def test_zero_displacement_separable(self):
        for v in (1.0, 2.0, 10.0, 1000.0):
            out = kerr_micro_thermal_projected(
                mx.MicroState(1.0), mx.ThermalParams(v, 0.0), G2
            )
            assert out.npt_normalized <= 1e-12

    def test_mixed_micro_separable(self):
        out = kerr_micro_thermal_projected(mx.MicroState(0.0), mx.ThermalParams(10.0, 7.0), G2)
        assert out.npt_normalized <= 1e-12

    def test_large_displacement_entangled(self):
        out = kerr_micro_thermal_projected(mx.MicroState(1.0), mx.ThermalParams(10.0, 10.0), G2)
        assert out.npt_normalized > 0.0
        assert_state_invariants(out)

    def test_npt_even_in_displacement(self):
        for d in (3.0, 12.0):
            a = kerr_micro_thermal_projected(mx.MicroState(0.7), mx.ThermalParams(8.0, d), G2)
            b = kerr_micro_thermal_projected(mx.MicroState(0.7), mx.ThermalParams(8.0, -d), G2)
            assert a.npt_normalized == pytest.approx(b.npt_normalized, abs=1e-12)

    def test_coherent_limit_matches_pure_state_algebra(self):
        # at V = 1 the field is the coherent state |d>, so every entry reduces
        # to products of coherent overlaps
        r, d = 0.7, 1.3
        out = kerr_micro_thermal_projected(mx.MicroState(r), mx.ThermalParams(1.0, d), G2)
        kets = {0: d, 1: -d}
        weights = {(0, 0): 1.0, (1, 1): 1.0, (0, 1): r, (1, 0): r}
        expected = np.zeros((4, 4), dtype=complex)
        for (i, j), w in weights.items():
            bra_side = coherent_projection(G2, kets[i])
            ket_side = coherent_projection(G2, kets[j])
            for s in range(2):
                for sp in range(2):
                    expected[2 * i + s, 2 * j + sp] = (
                        0.5 * w * bra_side[s] * np.conj(ket_side[sp])
                    )
        assert np.max(np.abs(out.matrix.entries - expected)) < 1e-14


class TestBeamSplitterScheme:
    def test_mixed_micro_separable(self):
        for sign in (1, -1):
            out = bs_scheme_projected(mx.MicroState(0.0), mx.ThermalParams(50.0, 3.0), G2, sign)
            assert out.npt_normalized <= 1e-12

    def test_high_mixture_entangles_at_zero_displacement(self):
        out = bs_scheme_projected(mx.MicroState(0.1), mx.ThermalParams(1000.0, 0.0), G2, 1)
        assert out.npt_normalized > 0.0
        out = bs_scheme_projected(mx.MicroState(1.0), mx.ThermalParams(1000.0, 0.0), G2, 1)
        assert out.npt_normalized > 0.0
        assert_state_invariants(out)

    def test_kernel_scales_to_state(self):
        m, t = mx.MicroState(0.4), mx.ThermalParams(20.0, 2.0)
        kernel = bs_projected_kernel(m, t, G2, -1)
        out = bs_scheme_projected(m, t, G2, -1)
        denom = 2.0 - 2.0 * 0.4 * math.exp(-2 * 4.0 / 20.0) / 20.0
        assert np.allclose(out.matrix.entries, kernel.entries / denom, atol=1e-15)

    def test_zero_probability_outcome_raises(self):
        with pytest.raises(DegenerateStateError):
            bs_scheme_projected(mx.MicroState(1.0), mx.ThermalParams(1.0, 0.0), G2, -1)
        # the kernel itself is the zero matrix there
        k = bs_projected_kernel(mx.MicroState(1.0), mx.ThermalParams(1.0, 0.0), G2, -1)
        assert np.max(np.abs(k.entries)) < 1e-15

    @pytest.mark.parametrize("block", [schemes.bs_scheme_block, schemes.tt_scheme_block])
    def test_degenerate_row_zeroed_in_a_copy(self, block):
        # at d = 1e-7 the outcome probability is below the floor but the
        # kernel is not zero; the block result, whose kernels the oracle
        # checks, keeps it
        result = block([1.0, 1.0], [1.0, 3.0], [1e-7, 1.0], [2.0, 2.0], [-1, -1])
        before = result[0].copy()
        normalized, factors = schemes.block_states(*result)
        assert math.isnan(factors[0]) and math.isfinite(factors[1])
        assert not normalized[0].any() and before[0].any()
        assert np.array_equal(normalized[1], before[1])
        assert np.array_equal(result[0], before)
        assert np.array_equal(schemes.block_kernels(*result)[0], before[0] * math.exp(result[1][0]))

    def test_coherent_limit_matches_pure_state_algebra(self):
        r, d, sign = 0.6, 1.8, 1
        kernel = bs_projected_kernel(mx.MicroState(r), mx.ThermalParams(1.0, d), G2, sign)
        delta = d / math.sqrt(2.0)
        plus = coherent_projection(G2, delta)
        minus = coherent_projection(G2, -delta)
        terms = [
            (1.0, plus, plus, minus, minus),
            (1.0, minus, minus, plus, plus),
            (sign * r, plus, minus, minus, plus),
            (sign * r, minus, plus, plus, minus),
        ]
        expected = np.zeros((4, 4), dtype=complex)
        for w, k1, b1, k2, b2 in terms:
            for s1 in range(2):
                for s2 in range(2):
                    for s1p in range(2):
                        for s2p in range(2):
                            expected[2 * s1 + s2, 2 * s1p + s2p] += (
                                w * k1[s1] * np.conj(b1[s1p]) * k2[s2] * np.conj(b2[s2p])
                            )
        assert np.max(np.abs(kernel.entries - expected)) < 1e-13

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            bs_scheme_projected(mx.MicroState(0.5), mx.ThermalParams(2.0, 0.0), G2, 0)

    @pytest.mark.parametrize("d", [1e16, 1e17, 1e50, 1e100, 1e150])
    def test_huge_displacement_keeps_its_d_term(self, d):
        # -2 d^2/V is common to all nine exponents; folded in before the
        # shift it swamped d (a + b)/V from d ~ 1e17 on and the NPT read 0
        m, t = mx.MicroState(1.0), mx.ThermalParams(10.0, d)
        bs = bs_scheme_projected(m, t, G2, 1).npt_normalized
        assert bs == pytest.approx(tt_scheme_projected(m, t, G2, 1).npt_normalized, abs=1e-12)
        assert bs == pytest.approx(0.99999977493, abs=1e-10)

    @pytest.mark.parametrize("v", [1e300, 1e306, 1e308, 1.7e308])
    def test_largest_variances_stay_finite(self, v):
        # a b (v_eff - 1) overflowed from V ~ 1e308 on and gave NaN rows
        out = bs_scheme_projected(mx.MicroState(1.0), mx.ThermalParams(v, 3.0), G2, 1)
        assert out.npt_normalized == pytest.approx(0.99865972302022, abs=1e-12)
        assert 0.0 < out.trace < 1e-299

    @pytest.mark.parametrize("gamma", [9.99e-3, 1e-4, 1e-20, 1e-150])
    def test_gamma_below_floor_raises_value_error(self, gamma):
        basis = mx.CatBasis(gamma)
        # also at the zero-probability point of sign -1: the floor is checked first
        for t, sign in ((mx.ThermalParams(10.0, 3.0), 1), (mx.ThermalParams(1.0, 0.0), -1)):
            for build in (bs_scheme_projected, bs_projected_kernel):
                with pytest.raises(ValueError, match=r"gamma >= 0\.01"):
                    build(mx.MicroState(1.0), t, basis, sign)
        # the floor itself is accepted
        bs_projected_kernel(mx.MicroState(1.0), t, mx.CatBasis(schemes.BS_GAMMA_FLOOR), -1)

    def test_small_gamma_matches_high_precision_sum(self):
        # The odd-cat entries carry N_-^4 ~ 1/(16 gamma^4), so roundoff grows
        # like eps/gamma^4 toward the floor; the NPT must still be within
        # 1e-8 of the sixteen-component sum evaluated with 50 digits.
        mpmath = pytest.importorskip("mpmath")
        for gamma, v, d, r, sign in product((0.1, 0.01), (1.0, 10.0), (0.5, 3.0), (0.1, 1.0), (1, -1)):
            got = bs_scheme_projected(
                mx.MicroState(r), mx.ThermalParams(v, d), mx.CatBasis(gamma), sign
            ).npt_normalized
            ref = mpmath_bs_npt(mpmath, r, v, d, gamma, sign)
            assert abs(got - ref) <= 1e-8, (gamma, v, d, r, sign, got, ref)

    @pytest.mark.parametrize("gamma, npt_bound", [(0.03, 2e-10), (0.1, 2e-12)])
    def test_seeded_draws_match_high_precision_sum(self, gamma, npt_bound):
        # The 50-digit sums vanish between the parity sectors of pi, where the
        # heralding weights W are zero, and so must the closed form's entries.
        # The NPT bounds are over 3x the largest errors seen on these draws,
        # 6.4e-11 at gamma = 0.03 and 5.8e-13 at 0.1.
        mpmath = pytest.importorskip("mpmath")
        off_sector = schemes._PI[:, None] != schemes._PI
        rng = np.random.default_rng(7)
        for _ in range(40):
            r, v, d = rng.uniform(0.0, 1.0), 1.0 + 10.0 ** rng.uniform(-3.0, 2.0), 3.0 * rng.normal()
            for sign in (1, -1):
                normalized, log_scales, _ = schemes.bs_scheme_block([r], [v], [d], [gamma], [sign])
                with mpmath.workdps(50):
                    ref = mpmath_bs_kernel(mpmath, r, v, d, gamma, sign)
                    ref_npt = mpmath_npt(mpmath, ref)
                    ref = np.array(ref.tolist(), dtype=float) / math.exp(log_scales[0])
                at = (r, v, d, gamma, sign)
                scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
                assert (abs(normalized[0] - ref)[off_sector] <= 1e-30 * scale[off_sector]).all(), at
                got = qlinalg._npt_stack(normalized)[0]
                assert abs(got - ref_npt) <= npt_bound, (at, got, ref_npt)


# Mode sandwich sign patterns (u1, u2, u3, u4) of the four beam-splitter terms
# |u1 b><u2 b| (x) |u3 b><u4 b|, weighted 1, 1, +-r, +-r.
BS_TERMS = ((1, 1, -1, -1), (-1, -1, 1, 1), (1, -1, -1, 1), (-1, 1, 1, -1))


def bs_exponents(t, basis):
    """The parts of the nine Gaussian exponents that differ, keyed by (a, b) in {-2g, 0, 2g}^2."""
    v_eff = (t.variance + 1.0) / 2.0
    d_eff = t.displacement / math.sqrt(2.0)
    grid = (-2.0 * basis.gamma, 0.0, 2.0 * basis.gamma)
    return {(a, b): d_eff / v_eff * (a + b) + a * b * (v_eff - 1.0) / (2.0 * v_eff) for a in grid for b in grid}


def reference_bs_kernel(m, t, basis, sign):
    """The direct beam-splitter kernel: one Gaussian integral per coherent component.

    Each of the sixteen components (i1, i2, i3, i4) of an entry integrates to
    (1/v) exp[(-2 d'^2 + d' (a+b))/v + a b (v-1)/(2v) - 2 g^2] at
    a = u1 e1 + u3 e3, b = u2 e2 + u4 e4 (e = +-g), with v = (V+1)/2 and
    d' = d/sqrt(2).  The parts that differ between components
    (:func:`bs_exponents`) are exponentiated relative to their largest value,
    which comes back in the log scale with the common part.  Returns
    (4x4 kernel, log scale).
    """
    g = basis.gamma
    v_eff = (t.variance + 1.0) / 2.0
    d_eff = t.displacement / math.sqrt(2.0)
    norms = (basis.n_plus, basis.n_minus)
    weights = (1.0, 1.0, sign * m.r, sign * m.r)
    eps = (g, -g)
    csign = ((1.0, 1.0), (1.0, -1.0))
    exponents = bs_exponents(t, basis)
    top = max(exponents.values())
    out = np.zeros((4, 4), dtype=np.complex128)
    for s1, s2, s1p, s2p in product(range(2), repeat=4):
        total = 0.0
        for w_t, (u1, u2, u3, u4) in zip(weights, BS_TERMS):
            acc = 0.0
            for i1, i2, i3, i4 in product(range(2), repeat=4):
                a = u1 * eps[i1] + u3 * eps[i3]
                b = u2 * eps[i2] + u4 * eps[i4]
                coeff = csign[s1][i1] * csign[s1p][i2] * csign[s2][i3] * csign[s2p][i4]
                acc += coeff * math.exp(exponents[a, b] - top)
            total += w_t * acc
        out[2 * s1 + s2, 2 * s1p + s2p] = norms[s1] * norms[s1p] * norms[s2] * norms[s2p] * total
    return out, top - math.log(v_eff) - 2.0 * d_eff**2 / v_eff - 2.0 * g * g


def mpmath_bs_kernel(mpmath, r, v, d, gamma, sign):
    """The beam-splitter kernel from the sixteen-component sum, at the caller's precision.

    The integrals are taken at their true scale,
    (1/v) exp[(-2 d'^2 + d' (a+b))/v + a b (v-1)/(2v) - 2 g^2].
    """
    r, v, d, g = (mpmath.mpf(x) for x in (r, v, d, gamma))
    v_eff, d_eff = (v + 1) / 2, d / mpmath.sqrt(2)

    def integral(a, b):
        return mpmath.exp(
            (-2 * d_eff**2 + d_eff * (a + b)) / v_eff
            + a * b * (v_eff - 1) / (2 * v_eff)
            - 2 * g * g
        ) / v_eff

    return mpmath_bs_sum(mpmath, r, g, integral, sign)


def mpmath_bs_sum(mpmath, r, g, integral, sign):
    """The beam-splitter kernel as the sixteen-component sum of the nine Gaussian integrals.

    ``integral(a, b)`` is the integral at a, b in {-2g, 0, 2g}.
    """
    grid = (-2 * g, 0, 2 * g)
    gauss = {(i, j): integral(a, b) for i, a in enumerate(grid) for j, b in enumerate(grid)}
    norms = [1 / mpmath.sqrt(2 * (1 + s * mpmath.exp(-2 * g * g))) for s in (1, -1)]
    weights = (1, 1, sign * r, sign * r)
    e = (1, -1)  # components |gamma>, |-gamma> as multiples of gamma
    csign = ((1, 1), (1, -1))
    state = mpmath.matrix(4, 4)
    for s1, s2, s1p, s2p in product(range(2), repeat=4):
        total = mpmath.mpf(0)
        for w_t, (u1, u2, u3, u4) in zip(weights, BS_TERMS):
            for i1, i2, i3, i4 in product(range(2), repeat=4):
                coeff = csign[s1][i1] * csign[s1p][i2] * csign[s2][i3] * csign[s2p][i4]
                ia = (u1 * e[i1] + u3 * e[i3]) // 2 + 1
                ib = (u2 * e[i2] + u4 * e[i4]) // 2 + 1
                total += w_t * coeff * gauss[ia, ib]
        state[2 * s1 + s2, 2 * s1p + s2p] = norms[s1] * norms[s1p] * norms[s2] * norms[s2p] * total
    return state


def mpmath_jc_state(mpmath, p, lam, gt, n):
    """The ``jc`` state of ``jc_projected``'s docstring at its true scale, in ``mpmath`` arithmetic."""
    p, lam, gt = (mpmath.mpf(x) for x in (p, lam, gt))
    q = 1 - p

    def weight(k):
        return (1 - lam) * lam**k if k >= 0 else mpmath.mpf(0)

    def cos(k):
        return mpmath.cos(gt * mpmath.sqrt(k + 1))

    def sin(k):
        return mpmath.sin(gt * mpmath.sqrt(k + 1))

    state = mpmath.matrix(4, 4)
    state[0, 0] = p * weight(n - 1) * sin(n - 1) ** 2 + q * weight(n) * cos(n - 1) ** 2
    state[1, 1] = p * weight(n) * cos(n) ** 2 + q * weight(n + 1) * sin(n) ** 2
    state[2, 2] = p * weight(n) * sin(n) ** 2 + q * weight(n + 1) * cos(n) ** 2
    state[3, 3] = p * weight(n + 1) * cos(n + 1) ** 2 + q * weight(n + 2) * sin(n + 1) ** 2
    state[1, 2] = 1j * (p * weight(n) - q * weight(n + 1)) * cos(n) * sin(n)
    state[2, 1] = -state[1, 2]
    return state


def mpmath_npt(mpmath, state):
    """NPT of a 4x4 Hermitian ``mpmath`` matrix by ``eighe`` of its trace-normalized partial transpose."""
    pt = mpmath.matrix(4, 4)
    for i1, i2, j1, j2 in product(range(2), repeat=4):
        pt[2 * i1 + i2, 2 * j1 + j2] = state[2 * i1 + j2, 2 * j1 + i2]
    trace = sum(pt[i, i] for i in range(4))
    lowest = min(mpmath.eighe(pt / trace, eigvals_only=True))
    return float(-2 * lowest) if lowest < 0 else 0.0


def mpmath_bs_npt(mpmath, r, v, d, gamma, sign, digits=50):
    """NPT of the beam-splitter state from the sixteen-component sum in ``digits`` digits."""
    with mpmath.workdps(digits):
        return mpmath_npt(mpmath, mpmath_bs_kernel(mpmath, r, v, d, gamma, sign))


def mpmath_cat_state(mpmath, scheme, r, v, d, gamma, sign=1):
    """The projected state of a cat-block scheme at its true scale, in ``mpmath`` arithmetic.

    c, s and r are the sandwich kernels of :class:`~mixent.states.CatKernels`
    in their direct form, and c - r is a plain difference: with enough
    digits nothing is lost to cancellation.
    """
    r, v, d, g = (mpmath.mpf(x) for x in (r, v, d, gamma))
    scale = 4 / (v + 1)
    y = 4 * g * d / (v + 1)
    c = scale * mpmath.exp(-2 * (g * g + d * d) / (v + 1)) * mpmath.cosh(y)
    s = scale * mpmath.exp(-2 * (g * g + d * d) / (v + 1)) * mpmath.sinh(y)
    rk = scale * mpmath.exp(-2 * (v * g * g + d * d) / (v + 1))
    state = mpmath_sandwich(mpmath, scheme, mpmath_cat_block(mpmath, g, c, s, rk), r, sign)
    if scheme == "tt":
        sigma = mpmath.exp(-2 * d * d / v) / v
        state /= 2 + sign * 2 * r * sigma**2
    return state


def mpmath_cat_block(mpmath, g, c, s, rk):
    """The 2x2 cat block K of amplitude ``g`` from its kernels c, s and r."""
    n_plus = 1 / mpmath.sqrt(2 * (1 + mpmath.exp(-2 * g * g)))
    n_minus = 1 / mpmath.sqrt(2 * (1 - mpmath.exp(-2 * g * g)))
    return mpmath.matrix([[n_plus**2 * (c + rk), n_plus * n_minus * s],
                          [n_plus * n_minus * s, n_minus**2 * (c - rk)]])


def mpmath_sandwich(mpmath, scheme, k, r, sign=1):
    """A cat-block scheme's state from its 2x2 cat block ``k``; ``tt``'s is not yet conditioned."""
    if scheme == "kerr_micro_thermal":
        first = mpmath.matrix([[0.5, r / 2], [r / 2, 0.5]])
    else:
        first = k
    state = mpmath.matrix(4, 4)
    pi = (1, -1, -1, 1)
    for i, j in product(range(4), repeat=2):
        entry = first[i // 2, j // 2] * k[i % 2, j % 2]
        if scheme == "tt":
            entry *= 1 + pi[i] * pi[j] + sign * r * (pi[i] + pi[j])
        else:  # the controlled sign Z = diag(1, 1, 1, -1) on both sides
            entry *= (-1 if i == 3 else 1) * (-1 if j == 3 else 1)
        state[i, j] = entry
    return state


def mpmath_trace(mpmath, scheme, r, v, d, gamma, sign):
    """The trace of a cat scheme's projected state, with digits for exponents of size g d."""
    digits = 40 + 2 * int(math.log10(max(1.0, gamma, abs(d))))
    with mpmath.workdps(digits):
        if scheme == "bs":
            sigma = mpmath.exp(-2 * mpmath.mpf(d) ** 2 / v) / v
            # bs works in d' = d/sqrt(2), rounded to a double; near d' = gamma
            # the trace is so sensitive to d' that this one rounding moves it
            # by far more than 1e-12, so the reference takes d' as rounded
            d = mpmath.sqrt(2) * (d / math.sqrt(2.0))
            state = mpmath_bs_kernel(mpmath, r, v, d, gamma, sign) / (2 + sign * 2 * r * sigma)
        else:
            state = mpmath_cat_state(mpmath, scheme, r, v, d, gamma, sign)
        return sum(state[i, i] for i in range(4))


def npt_or_nan(entries):
    try:
        return mx.npt(mx.BipartiteMatrix(2, 2, entries))
    except DegenerateStateError:
        return math.nan


class TestBeamSplitterKernelBits:
    """The sandwich kernel against the direct sixteen-component loop."""

    @staticmethod
    def draws():
        rng = np.random.default_rng(31)
        corners = [
            (0.0, 1.0, 0.0),  # r = 0, V = 1, d = 0
            (1.0, 1.0, 0.0),  # the zero-probability point of sign -1
            (1.0, 1000.0, 0.0),
            (0.0, 50.0, 3.0),
            (1.0, 2.0, 80.0),  # d^2 / V far past exp underflow
            (0.3, 1.0, 500.0),
        ]
        for r, v, d in corners:
            for gamma in (0.4, 2.0, 4.5):
                for sign in (1, -1):
                    yield r, v, d, gamma, sign
        for _ in range(240):
            r = float(rng.choice([0.0, 1.0, rng.uniform()]))
            v = float(rng.choice([1.0, 10.0 ** rng.uniform(0.0, 6.0)]))
            d = float(rng.choice([0.0, 10.0 ** rng.uniform(-2.0, 3.5)]))
            gamma = float(10.0 ** rng.uniform(-0.5, 0.7))
            yield r, v, d, gamma, int(rng.choice([1, -1]))

    def test_matches_direct_loop_bit_for_bit(self):
        # Entries within 1e-11 of the largest, the log scale within 1e-13
        # relative, and the same draws with an NPT of exactly 0.  (Until the
        # NPT had an error-bound zero rule this pinned every bit.)
        covered = dict.fromkeys(("r=0", "r=1", "sign+", "sign-", "d=0", "V=1", "underflow"), 0)
        zeros = 0
        for r, v, d, gamma, sign in self.draws():
            args = (mx.MicroState(r), mx.ThermalParams(v, d), mx.CatBasis(gamma), sign)
            at = (r, v, d, gamma, sign)
            result = schemes.bs_scheme_block([r], [v], [d], [gamma], [sign])
            out, log_shift = (x[0] for x in result[:2])
            ref, ref_shift = reference_bs_kernel(*args)
            assert np.abs(out - ref).max() <= 1e-11 * np.abs(ref).max(), at
            assert abs(log_shift - ref_shift) <= 1e-13 * max(1.0, abs(ref_shift)), at
            npt, ref_npt = npt_or_nan(out), npt_or_nan(ref)
            assert (npt == 0.0) == (ref_npt == 0.0), (at, npt, ref_npt)
            zeros += ref_npt == 0.0
            covered["r=0"] += r == 0.0
            covered["r=1"] += r == 1.0
            covered["sign+"] += sign == 1
            covered["sign-"] += sign == -1
            covered["d=0"] += d == 0.0
            covered["V=1"] += v == 1.0
            exponents = bs_exponents(args[1], args[2]).values()
            covered["underflow"] += min(exponents) - max(exponents) < -745.0
        assert covered["sign+"] + covered["sign-"] >= 270
        assert zeros >= 50, zeros
        assert min(covered.values()) >= 10, covered


EPS = np.finfo(float).eps


class TestCatBlockRange:
    """The four cat schemes toward gamma -> 0 and at large gamma d, against ``mpmath``."""

    @staticmethod
    def outputs(m, t, basis):
        """(scheme, sign, output) of every cat scheme; bs only above its gamma floor."""
        yield "kerr_micro_thermal", 1, kerr_micro_thermal_projected(m, t, basis)
        yield "direct_kerr", 1, direct_kerr_projected(t, basis)
        for sign in (1, -1):
            yield "tt", sign, tt_scheme_projected(m, t, basis, sign)
            if basis.gamma >= schemes.BS_GAMMA_FLOOR:
                yield "bs", sign, bs_scheme_projected(m, t, basis, sign)

    @pytest.mark.parametrize("r, v, d", [(1.0, 10.0, 3.0), (0.4, 2.0, 0.7)])
    def test_small_gamma_matches_60_digits(self, r, v, d):
        # c - r is O(gamma^2) next to N-^2 ~ 1/(4 gamma^2); formed as 1 - r/c it
        # lost everything below gamma ~ 1e-8 (NPT 1.09 or NaN)
        mpmath = pytest.importorskip("mpmath")
        m, t = mx.MicroState(r), mx.ThermalParams(v, d)
        for gamma in (10.0**-k for k in range(1, 13)):
            for scheme, sign, out in self.outputs(m, t, mx.CatBasis(gamma)):
                if scheme == "bs":
                    continue
                with mpmath.workdps(60):
                    state = mpmath_cat_state(mpmath, scheme, r, v, d, gamma, sign)
                    ref = mpmath_npt(mpmath, state)
                at = (scheme, sign, gamma, out.npt_normalized, ref)
                assert abs(out.npt_normalized - ref) <= 1e-12, at
                assert 0.0 <= out.npt_normalized <= 1.0 + 4 * EPS, at

    @pytest.mark.parametrize("gamma", [1e4, 1e8, 1e12, 1e100])
    def test_trace_at_large_gamma_times_d(self, gamma):
        # log c and the bs log scale carried g d-sized terms that cancel: at
        # d = gamma the kerr trace read 0.22 at 1e8 and 1.0 from 1e10 on
        mpmath = pytest.importorskip("mpmath")
        m = mx.MicroState(1.0)
        for d in (gamma, math.sqrt(2.0) * gamma):
            t, basis = mx.ThermalParams(10.0, d), mx.CatBasis(gamma)
            for scheme, sign, out in self.outputs(m, t, basis):
                ref = float(mpmath_trace(mpmath, scheme, 1.0, 10.0, d, gamma, sign))
                at = (scheme, sign, d, out.trace, ref)
                assert abs(out.trace - ref) <= 1e-12 * ref, at
                assert 0.0 <= out.npt_normalized <= 1.0 + 4 * EPS, at

    def test_trace_where_four_gamma_d_overflows(self):
        # 4 g d = 4e308 overflows while 4 g d/(V+1) = 4: y read inf, so s/c
        # read 1 for tanh(4) and log c lost its log1p(exp(-8))
        mpmath = pytest.importorskip("mpmath")
        v, d, gamma = 1e308, 1e154, 1e154
        out = kerr_micro_thermal_projected(
            mx.MicroState(1.0), mx.ThermalParams(v, d), mx.CatBasis(gamma)
        )
        ref = float(mpmath_trace(mpmath, "kerr_micro_thermal", 1.0, v, d, gamma, 1))
        assert abs(out.trace - ref) <= 1e-12 * ref, (out.trace, ref)


class TestTwoThermalScheme:
    def test_mixed_micro_separable(self):
        out = tt_scheme_projected(mx.MicroState(0.0), mx.ThermalParams(50.0, 3.0), G2, 1)
        assert out.npt_normalized <= 1e-12

    def test_zero_displacement_separable(self):
        out = tt_scheme_projected(mx.MicroState(1.0), mx.ThermalParams(10.0, 0.0), G2, 1)
        assert out.npt_normalized <= 1e-10

    def test_large_displacement_entangled(self):
        out = tt_scheme_projected(mx.MicroState(1.0), mx.ThermalParams(10.0, 30.0), G2, 1)
        assert out.npt_normalized > 0.0
        assert_state_invariants(out)

    def test_kernel_scales_to_state(self):
        m, t = mx.MicroState(0.8), mx.ThermalParams(5.0, 1.0)
        kernel = tt_projected_kernel(m, t, G2, 1)
        out = tt_scheme_projected(m, t, G2, 1)
        sig = math.exp(-2.0 / 5.0) / 5.0
        denom = 2.0 + 2.0 * 0.8 * sig**2
        assert np.allclose(out.matrix.entries, kernel.entries / denom, atol=1e-15)


class TestDirectKerrScheme:
    def test_zero_displacement_diagonal_and_separable(self):
        out = direct_kerr_projected(mx.ThermalParams(100.0, 0.0), G2)
        off = out.matrix.entries - np.diag(np.diag(out.matrix.entries))
        assert np.max(np.abs(off)) == 0.0
        assert out.npt_normalized == 0.0

    def test_high_mixture_with_displacement_entangled(self):
        out = direct_kerr_projected(mx.ThermalParams(1000.0, 200.0), G2)
        assert out.npt_normalized > 0.0
        assert_state_invariants(out)

    def test_npt_even_in_displacement(self):
        a = direct_kerr_projected(mx.ThermalParams(30.0, 11.0), G2)
        b = direct_kerr_projected(mx.ThermalParams(30.0, -11.0), G2)
        assert a.npt_normalized == pytest.approx(b.npt_normalized, abs=1e-12)

    def test_coherent_limit_matches_pure_state_algebra(self):
        # V = 1, d = 2: the input is |d>|d> and the evolved state is pure
        d = 2.0
        out = direct_kerr_projected(mx.ThermalParams(1.0, d), G2)
        up = coherent_projection(G2, d)
        dn = coherent_projection(G2, -d)
        amp = np.zeros(4, dtype=complex)
        for s1 in range(2):
            for s2 in range(2):
                amp[2 * s1 + s2] = 0.5 * (
                    up[s1] * up[s2] + dn[s1] * up[s2] + up[s1] * dn[s2] - dn[s1] * dn[s2]
                )
        expected = np.outer(amp, amp.conj())
        assert np.max(np.abs(out.matrix.entries - expected)) < 1e-14

    def test_controlled_phase_action_on_cat_basis(self):
        # exact gate identities in a truncated number basis: the even cat is
        # left alone, the odd cat picks up the parity of the partner mode
        dim, g = 40, 2.0
        basis = mx.CatBasis(g)
        plus = basis.n_plus * (fock_coherent(g, dim) + fock_coherent(-g, dim))
        minus = basis.n_minus * (fock_coherent(g, dim) - fock_coherent(-g, dim))
        numbers = np.arange(dim)
        gate = ((-1.0) ** np.outer(numbers, numbers)).ravel()
        for partner, parity in ((plus, 1.0), (minus, -1.0)):
            assert np.allclose(gate * np.kron(plus, partner), np.kron(plus, partner), atol=1e-12)
            assert np.allclose(
                gate * np.kron(minus, partner), parity * np.kron(minus, partner), atol=1e-12
            )


class TestSchemeOutputInvariants:
    def test_random_parameter_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            v = rng.uniform(1.0, 200.0)
            d = rng.uniform(0.0, 2.0 * math.sqrt(v))
            g = rng.uniform(0.8, 3.0)
            r = rng.uniform(0.0, 1.0)
            micro, thermal, basis = mx.MicroState(r), mx.ThermalParams(v, d), mx.CatBasis(g)
            assert_state_invariants(kerr_micro_thermal_projected(micro, thermal, basis))
            assert_state_invariants(bs_scheme_projected(micro, thermal, basis, 1))
            assert_state_invariants(tt_scheme_projected(micro, thermal, basis, 1))
            assert_state_invariants(direct_kerr_projected(thermal, basis))
            params = mx.AtomFieldParams(
                p=rng.uniform(0, 1), lam=rng.uniform(0, 0.95), gt=rng.uniform(0, 6), n=int(rng.integers(0, 6))
            )
            assert_state_invariants(jc_projected(params))

    # Seeded draws over the whole cat-scheme domain: V in [1, 1e4] (log-uniform),
    # d in [0, 5 sqrt(V)], gamma in [10^-0.5, 10^0.7], r in [0, 1].
    DOMAIN_DRAWS = 1000

    @classmethod
    def domain_draws(cls, seed):
        rng = np.random.default_rng(seed)
        for _ in range(cls.DOMAIN_DRAWS):
            v = 10.0 ** rng.uniform(0.0, 4.0)
            d = rng.uniform(0.0, 5.0 * math.sqrt(v))
            basis = mx.CatBasis(10.0 ** rng.uniform(-0.5, 0.7))
            yield mx.MicroState(rng.uniform(0.0, 1.0)), v, d, basis

    @staticmethod
    def npt_in_range(out):
        value = out.npt_normalized
        assert 0.0 <= value <= 1.0, value
        return value

    def test_npt_even_in_displacement_over_domain(self):
        for micro, v, d, basis in self.domain_draws(41):
            at = (micro.r, v, d, basis.gamma)
            pair = [mx.ThermalParams(v, d), mx.ThermalParams(v, -d)]
            a, b = (self.npt_in_range(kerr_micro_thermal_projected(micro, t, basis)) for t in pair)
            assert a == b, at
            a, b = (self.npt_in_range(direct_kerr_projected(t, basis)) for t in pair)
            assert a == b, at
            for sign in (1, -1):
                a, b = (self.npt_in_range(tt_scheme_projected(micro, t, basis, sign)) for t in pair)
                assert a == b, (sign, at)
                a, b = (self.npt_in_range(bs_scheme_projected(micro, t, basis, sign)) for t in pair)
                assert abs(a - b) <= 2e-15, (sign, at)

    def test_npt_exactly_zero_at_zero_displacement(self):
        for micro, v, _, basis in self.domain_draws(42):
            t = mx.ThermalParams(v, 0.0)
            at = (micro.r, v, basis.gamma)
            assert self.npt_in_range(kerr_micro_thermal_projected(micro, t, basis)) == 0.0, at
            assert self.npt_in_range(direct_kerr_projected(t, basis)) == 0.0, at
            for sign in (1, -1):
                assert self.npt_in_range(tt_scheme_projected(micro, t, basis, sign)) == 0.0, at

    # The point_calls benchmark's domain: V in [1, 1e6] and |d| in [1e-2, 1e3]
    # (log-uniform), gamma in [10^-0.5, 10^0.7], r in [0, 1]; for jc, lam =
    # 1 - 10^u with u in [-4, 0], gt in [0, 8 pi], n in 0..20.
    POINT_VARIANTS = ("jc", "kerr", "bs+", "bs-", "tt+", "tt-", "direct")

    @staticmethod
    def point_state(variant, rng):
        """(kernel-normalized state, factor) of one draw; the factor is NaN where degenerate."""
        if variant == "jc":
            params = mx.AtomFieldParams(
                p=rng.uniform(0.0, 1.0),
                lam=1.0 - 10.0 ** rng.uniform(-4.0, 0.0),
                gt=rng.uniform(0.0, 8.0 * math.pi),
                n=int(rng.integers(0, 21)),
            )
            columns = [params.p], [params.lam], [params.gt], [params.n]
            return one_state(schemes.jc_block(*columns))
        d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 3.0)
        thermal = mx.ThermalParams(10.0 ** rng.uniform(0.0, 6.0), d)
        basis = mx.CatBasis(10.0 ** rng.uniform(-0.5, 0.7))
        cat = [thermal.variance], [thermal.displacement], [basis.gamma]
        if variant == "direct":
            return one_state(schemes.direct_kerr_block(*cat))
        micro = mx.MicroState(rng.uniform(0.0, 1.0))
        if variant == "kerr":
            return one_state(schemes.kerr_micro_thermal_block([micro.r], *cat))
        block = schemes.bs_scheme_block if variant[:2] == "bs" else schemes.tt_scheme_block
        return one_state(block([micro.r], *cat, [1 if variant[2] == "+" else -1]))

    def test_states_are_positive_semidefinite(self):
        rng = np.random.default_rng(47)
        for variant in self.POINT_VARIANTS:
            stack = []
            for _ in range(1000):
                state, factor = self.point_state(variant, rng)
                if not math.isnan(factor):
                    stack.append(state)
            stack = np.array(stack)
            assert len(stack) >= 990, variant
            traces = np.trace(stack, axis1=1, axis2=2).real
            assert (traces > 0.0).all(), variant
            lowest = np.linalg.eigvalsh(stack / traces[:, None, None])[:, 0]
            assert lowest.min() >= -1e-14, (variant, lowest.min())

    def test_closed_forms_match_oracle_at_low_photon_draws(self):
        # V in [1, 100], d in [0, 3 sqrt(V)], gamma in [1, 3], r in [0, 1]
        rng = np.random.default_rng(48)
        for _ in range(8):
            v = rng.uniform(1.0, 100.0)
            thermal = mx.ThermalParams(v, rng.uniform(0.0, 3.0 * math.sqrt(v)))
            basis, micro = mx.CatBasis(rng.uniform(1.0, 3.0)), mx.MicroState(rng.uniform(0.0, 1.0))
            at = (micro.r, thermal.variance, thermal.displacement, basis.gamma)
            pairs = [
                ("kerr_micro_thermal", None, kerr_micro_thermal_projected(micro, thermal, basis).matrix),
                ("direct_kerr", None, direct_kerr_projected(thermal, basis).matrix),
            ]
            for sign in (1, -1):
                pairs.append(("bs", sign, bs_projected_kernel(micro, thermal, basis, sign)))
                pairs.append(("tt", sign, tt_projected_kernel(micro, thermal, basis, sign)))
            for scheme, sign, closed in pairs:
                ref = mx.quadrature_projected(scheme, thermal=thermal, basis=basis, micro=micro, sign=sign)
                assert mx.max_abs_deviation(closed, ref) <= 1e-8, (scheme, sign, at)

    def test_npt_capped_at_one(self):
        # the smallest eigenvalue of this state's partial transpose is -1/2
        # less roundoff, which read 1.000000000000001 before the cap
        out = direct_kerr_projected(
            mx.ThermalParams(2.2517528079403712, 155.6804340716053), mx.CatBasis(3.6569327158151372)
        )
        assert out.npt_normalized == 1.0
        assert out.trace == 0.0

    @staticmethod
    def joint_draws(rng, count):
        """Seeded joint draws of r, V, d, gamma, sign: V - 1 in [1e-12, 1e308], |d| in
        [1e-12, 1e150] of both signs, gamma in [1e-2, 1e150] (all log-uniform), r in
        {0, 1, uniform} and both outcome signs."""
        v = [1.0 + 10.0 ** rng.uniform(-12.0, 308.0) for _ in range(count)]
        d = [float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 150.0)) for _ in range(count)]
        g = [10.0 ** rng.uniform(-2.0, 150.0) for _ in range(count)]
        r = [float(rng.choice([0.0, 1.0, rng.uniform()])) for _ in range(count)]
        sign = [int(rng.choice([1, -1])) for _ in range(count)]
        return r, v, d, g, sign

    def test_cat_blocks_over_joint_domain(self):
        # the joint draws through the four cat block functions at once
        r, v, d, g, sign = self.joint_draws(np.random.default_rng(2406), 400)
        results = {
            "kerr_micro_thermal": schemes.kerr_micro_thermal_block(r, v, d, g),
            "bs": schemes.bs_scheme_block(r, v, d, g, sign),
            "tt": schemes.tt_scheme_block(r, v, d, g, sign),
            "direct_kerr": schemes.direct_kerr_block(v, d, g),
        }
        for name, result in results.items():
            normalized, factors = schemes.block_states(*result)
            usable = ~np.isnan(factors)
            assert usable.tolist() == [p >= schemes._DEGENERATE_PROB for p in result[2]], name
            normalized, factors = normalized[usable], factors[usable]
            kernel_traces = np.trace(normalized, axis1=1, axis2=2).real
            traces = kernel_traces * factors
            assert ((traces >= 0.0) & (traces <= 1.0)).all(), (name, traces.min(), traces.max())
            lowest = np.linalg.eigvalsh(normalized / kernel_traces[:, None, None])[:, 0]
            assert lowest.min() >= -1e-12, (name, lowest.min())
            npts = qlinalg._npt_stack(normalized)
            assert ((npts >= 0.0) & (npts <= 1.0)).all(), (name, npts.min(), npts.max())

    def test_tt_and_direct_kerr_over_joint_domain_without_warnings(self):
        # K (x) K leaves the double range at a tiny gamma with a huge d; such a
        # call raises, and tt's inf times a zero weight of W must not warn
        rng = np.random.default_rng(5)
        for _ in range(3000):
            v = 10.0 ** rng.uniform(0.0, 300.0) if rng.uniform() < 0.7 else 1.0 + 10.0 ** rng.uniform(-6.0, 1.0)
            d = 10.0 ** rng.uniform(-3.0, 153.5) * rng.choice([1.0, -1.0])
            gamma, r, sign = 10.0 ** rng.uniform(-154.0, 3.0), rng.uniform(0.0, 1.0), int(rng.choice([1, -1]))
            t, basis = mx.ThermalParams(v, d), mx.CatBasis(gamma)
            calls = (
                lambda: tt_scheme_projected(mx.MicroState(r), t, basis, sign),
                lambda: direct_kerr_projected(t, basis),
            )
            for call in calls:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        npt = call().npt_normalized
                    except (NumericInputError, DegenerateStateError):
                        continue
                assert 0.0 <= npt <= 1.0, (r, v, d, gamma, sign, npt)

    def test_npt_vanishes_without_micro_coherence(self):
        # r = 0 makes the state separable: its NPT is an exact zero, also near
        # V = 1 with large d gamma, where roundoff reaches the eigenvalues
        zero = mx.MicroState(0.0)
        for _, v, d, basis in self.domain_draws(43):
            t = mx.ThermalParams(v, d)
            at = (v, d, basis.gamma)
            assert self.npt_in_range(kerr_micro_thermal_projected(zero, t, basis)) == 0.0, at
            for sign in (1, -1):
                assert self.npt_in_range(bs_scheme_projected(zero, t, basis, sign)) == 0.0, at
                assert self.npt_in_range(tt_scheme_projected(zero, t, basis, sign)) == 0.0, at


class TestBlockCarriers:
    """A block of rows against the same rows one at a time, byte for byte.

    A block function carries its columns as 1-D arrays, and at one row (every
    public constructor) as Python floats; the two must give the same bits.
    """

    BLOCKS = {
        "jc": schemes.jc_block,
        "kerr_micro_thermal": schemes.kerr_micro_thermal_block,
        "bs": schemes.bs_scheme_block,
        "tt": schemes.tt_scheme_block,
        "direct_kerr": schemes.direct_kerr_block,
    }

    @staticmethod
    def jc_draws(rng, count):
        """p, lam, gt, n over the point_calls domain with n up to 60, lam = 0 and p in {0, 1} mixed in."""
        p = [float(rng.choice([0.0, 1.0, rng.uniform()])) for _ in range(count)]
        lam = [0.0 if rng.uniform() < 0.1 else 1.0 - 10.0 ** rng.uniform(-4.0, 0.0) for _ in range(count)]
        gt = [rng.uniform(0.0, 8.0 * math.pi) for _ in range(count)]
        n = [int(rng.integers(0, 61)) for _ in range(count)]
        return p, lam, gt, n

    @staticmethod
    def point_draws(rng, count):
        """r, V, d, gamma, sign over the point_calls domain."""
        v = [10.0 ** rng.uniform(0.0, 6.0) for _ in range(count)]
        d = [float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 3.0)) for _ in range(count)]
        g = [10.0 ** rng.uniform(-0.5, 0.7) for _ in range(count)]
        r = [rng.uniform(0.0, 1.0) for _ in range(count)]
        sign = [int(rng.choice([1, -1])) for _ in range(count)]
        return r, v, d, g, sign

    @staticmethod
    def columns(name, cat):
        """The columns of a cat scheme's block function from r, V, d, gamma, sign."""
        r, v, d, g, sign = cat
        return {"kerr_micro_thermal": (r, v, d, g), "direct_kerr": (v, d, g)}.get(name, cat)

    def assert_rows_match(self, name, columns):
        block = self.BLOCKS[name]
        whole = block(*columns)
        rows = [block(*([column[i]] for column in columns)) for i in range(len(columns[0]))]
        for part, what in enumerate(("normalized stack", "log scales", "probabilities")):
            # a numpy sum's order follows the layout, so the block's must be the rows'
            assert whole[part].flags.c_contiguous, (name, what)
            one_at_a_time = np.concatenate([row[part] for row in rows])
            if whole[part].tobytes() != one_at_a_time.tobytes():
                differ = (whole[part] != one_at_a_time).reshape(len(rows), -1).any(axis=1)
                first = int(np.argmax(differ))
                at = [column[first] for column in columns]
                raise AssertionError(f"{name} {what}: {differ.sum()} rows differ, first at {at}")

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_point_domain(self, name):
        rng = np.random.default_rng(2701)
        if name == "jc":
            columns = self.jc_draws(rng, 4000)
        else:
            columns = self.columns(name, self.point_draws(rng, 4000))
        self.assert_rows_match(name, columns)

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_joint_extreme_domain(self, name):
        rng = np.random.default_rng(2702)
        if name == "jc":
            columns = TestJcProjected.tail_draws(rng, 4000)
        else:
            columns = self.columns(name, TestSchemeOutputInvariants.joint_draws(rng, 4000))
        self.assert_rows_match(name, columns)


class TestVanishingPurity:
    """The paper's claim as the purity 1/V of the thermal field goes to zero."""

    @staticmethod
    def limit_npt(mpmath, scheme, r, gamma, t, sign=1):
        """50-digit NPT of a scheme's state at lam = (V - 1)/(V + 1) = 1 with d = t (V + 1).

        K depends on V and d only through y = 4 gamma d/(V + 1) and
        r/c = exp(-2 gamma^2 (V - 1)/(V + 1))/cosh y, so it tends to
        K_oo = [[N+^2 (1 + rho), N+ N- tanh y], [N+ N- tanh y, N-^2 (1 - rho)]]
        with y = 4 gamma t and rho = exp(-2 gamma^2)/cosh y, up to the factor c.
        ``bs`` depends on them only through d'/v and (v - 1)/v, with v = (V + 1)/2
        and d' = d/sqrt(2), which tend to sqrt(2) t and 1; so up to a common
        factor its nine integrals tend to exp(sqrt(2) t (a + b) + a b/2 - 2 gamma^2).
        """
        with mpmath.workdps(50):
            g, t, r = (mpmath.mpf(x) for x in (gamma, t, r))
            if scheme == "bs":
                def integral(a, b):
                    return mpmath.exp(mpmath.sqrt(2) * t * (a + b) + a * b / 2 - 2 * g * g)

                return mpmath_npt(mpmath, mpmath_bs_sum(mpmath, r, g, integral, sign))
            y = 4 * g * t
            rho = mpmath.exp(-2 * g * g) / mpmath.cosh(y)
            k = mpmath_cat_block(mpmath, g, 1, mpmath.tanh(y), rho)
            return mpmath_npt(mpmath, mpmath_sandwich(mpmath, scheme, k, r, sign))

    def test_npt_tends_to_the_limit_state(self):
        # at d = t (V + 1) the NPT converges like 1/V to that of the limit
        # state; V stops near 1e150, where d^2 is still finite.  bs comes
        # within 0.105/V at worst, the others within 0.1/V
        mpmath = pytest.importorskip("mpmath")
        build = {
            ("kerr_micro_thermal", 1): kerr_micro_thermal_projected,
            ("bs", 1): lambda m, t, b: bs_scheme_projected(m, t, b, 1),
            ("bs", -1): lambda m, t, b: bs_scheme_projected(m, t, b, -1),
            ("tt", 1): lambda m, t, b: tt_scheme_projected(m, t, b, 1),
            ("tt", -1): lambda m, t, b: tt_scheme_projected(m, t, b, -1),
            ("direct_kerr", 1): lambda m, t, b: direct_kerr_projected(t, b),
        }
        for (scheme, sign), gamma, r, t in product(build, (1.0, 2.0), (0.5, 1.0), (0.5, 1.0, 2.0)):
            ref = self.limit_npt(mpmath, scheme, r, gamma, t, sign)
            bound = 0.2 if scheme == "bs" else 0.1
            for v in (10.0**k for k in range(2, 151, 2)):
                basis, thermal = mx.CatBasis(gamma), mx.ThermalParams(v, t * (v + 1.0))
                got = build[scheme, sign](mx.MicroState(r), thermal, basis).npt_normalized
                assert abs(got - ref) <= bound / v + 1e-12, (scheme, sign, gamma, r, t, v, got, ref)
        kerr = self.limit_npt(mpmath, "kerr_micro_thermal", 1.0, 2.0, 2.0)
        assert kerr == pytest.approx(0.99999994373, abs=1e-11)

    def test_bs_entanglement_and_its_price(self):
        # at d = 0 the bs NPT stays near 1 while the purity 1/V goes to zero,
        # and the heralding probability falls only like 4/V; at V = 1e3,
        # V trace is still 1.8% below its limit
        micro = mx.MicroState(1.0)
        at = {k: bs_scheme_projected(micro, mx.ThermalParams(10.0**k), G2, 1) for k in range(4, 301)}
        limit = 1e100 * at[100].trace
        assert limit == pytest.approx(4.0026819, abs=1e-7)
        for k, out in at.items():
            assert out.npt_normalized >= 0.998, (k, out.npt_normalized)
            assert abs(10.0**k * out.trace / limit - 1.0) <= 0.01, (k, out.trace)
