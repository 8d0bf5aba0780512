"""Closed-form projected states: structure, zeros, pure-state limits."""

import math
from itertools import product

import numpy as np
import pytest

import mixent as mx
from mixent import schemes
from mixent.qlinalg import DegenerateStateError
from mixent.schemes import (
    bs_projected_kernel,
    bs_scheme_projected,
    direct_kerr_projected,
    jc_projected,
    kerr_micro_thermal_projected,
    tt_projected_kernel,
    tt_scheme_projected,
)

G2 = mx.CatBasis(2.0)


def assert_state_invariants(out):
    """Hermitian, PSD within tolerance, trace in (0, 1]."""
    m = out.matrix
    assert m.hermiticity_defect() < 1e-12
    tr = out.trace
    assert 0.0 < tr <= 1.0 + 1e-10
    assert mx.min_eigenvalue(m.scaled(1.0 / tr)) >= -1e-10


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
            bra_side = G2.coherent_projection(kets[i])
            ket_side = G2.coherent_projection(kets[j])
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

    def test_coherent_limit_matches_pure_state_algebra(self):
        r, d, sign = 0.6, 1.8, 1
        kernel = bs_projected_kernel(mx.MicroState(r), mx.ThermalParams(1.0, d), G2, sign)
        delta = d / math.sqrt(2.0)
        plus = G2.coherent_projection(delta)
        minus = G2.coherent_projection(-delta)
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
    norms = [1 / mpmath.sqrt(2 * (1 + s * mpmath.exp(-2 * g * g))) for s in (1, -1)]
    grid = (-2 * g, 0, 2 * g)
    gauss = {
        (i, j): mpmath.exp(
            (-2 * d_eff**2 + d_eff * (a + b)) / v_eff
            + a * b * (v_eff - 1) / (2 * v_eff)
            - 2 * g * g
        ) / v_eff
        for i, a in enumerate(grid)
        for j, b in enumerate(grid)
    }
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


def mpmath_npt(mpmath, state):
    """NPT of a 4x4 ``mpmath`` matrix by ``eigsy`` of its trace-normalized partial transpose."""
    pt = mpmath.matrix(4, 4)
    for i1, i2, j1, j2 in product(range(2), repeat=4):
        pt[2 * i1 + i2, 2 * j1 + j2] = state[2 * i1 + j2, 2 * j1 + i2]
    trace = sum(pt[i, i] for i in range(4))
    lowest = min(mpmath.eigsy(pt / trace, eigvals_only=True))
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
    n_plus = 1 / mpmath.sqrt(2 * (1 + mpmath.exp(-2 * g * g)))
    n_minus = 1 / mpmath.sqrt(2 * (1 - mpmath.exp(-2 * g * g)))
    k = mpmath.matrix([[n_plus**2 * (c + rk), n_plus * n_minus * s],
                       [n_plus * n_minus * s, n_minus**2 * (c - rk)]])
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
    if scheme == "tt":
        sigma = mpmath.exp(-2 * d * d / v) / v
        state /= 2 + sign * 2 * r * sigma**2
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
            out, log_shift = (x[0] for x in schemes._bs_kernels([r], [v], [d], [gamma], [sign]))
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
        up = G2.coherent_projection(d)
        dn = G2.coherent_projection(-d)
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
        assert 0.0 <= value <= 1.0 + 4.0 * np.finfo(float).eps, value
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
            return tuple(x[0] for x in schemes.jc_block(*columns))
        d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 3.0)
        thermal = mx.ThermalParams(10.0 ** rng.uniform(0.0, 6.0), d)
        basis = mx.CatBasis(10.0 ** rng.uniform(-0.5, 0.7))
        cat = [thermal.variance], [thermal.displacement], [basis.gamma]
        if variant == "direct":
            return tuple(x[0] for x in schemes.direct_kerr_block(*cat))
        micro = mx.MicroState(rng.uniform(0.0, 1.0))
        if variant == "kerr":
            return tuple(x[0] for x in schemes.kerr_micro_thermal_block([micro.r], *cat))
        block = schemes.bs_scheme_block if variant[:2] == "bs" else schemes.tt_scheme_block
        return tuple(x[0] for x in block([micro.r], *cat, [1 if variant[2] == "+" else -1]))

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
