"""Partial transpose, eigensolver, NPT with its zero rule, and purity."""

import numpy as np
import pytest

import mixent as mx
from mixent import cli, qlinalg, schemes
from mixent.qlinalg import (
    DegenerateStateError,
    HermiticityError,
    InvalidShapeError,
    NumericInputError,
)


def bell_projector():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return mx.BipartiteMatrix(2, 2, np.outer(psi, psi.conj()))


def random_hermitian(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_state(rng, n):
    """Random full-rank density matrix."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def charpoly_roots(a):
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion roots.

    Deliberately avoids any Hermitian eigensolver: the coefficients come from
    traces of matrix powers, the roots from numpy.roots.
    """
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.sort(np.roots(coeffs).real)


class TestPartialTranspose:
    def test_identity_is_fixed_point(self):
        m = mx.BipartiteMatrix(2, 2, np.eye(4))
        out = mx.partial_transpose(m, "B")
        assert np.array_equal(out.entries, m.entries)

    def test_bell_min_eigenvalue(self):
        pt = mx.partial_transpose(bell_projector(), "B")
        assert abs(mx.min_eigenvalue(pt) + 0.5) < 1e-12

    def test_involution_is_bit_exact(self):
        rng = np.random.default_rng(7)
        for da, db in ((2, 2), (2, 3), (3, 2)):
            a = rng.normal(size=(da * db, da * db)) + 1j * rng.normal(size=(da * db, da * db))
            m = mx.BipartiteMatrix(da, db, a)
            for which in ("A", "B"):
                twice = mx.partial_transpose(mx.partial_transpose(m, which), which)
                assert np.array_equal(twice.entries, m.entries)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            m = mx.BipartiteMatrix(2, 2, random_hermitian(rng))
            pt = mx.partial_transpose(m, "B")
            assert pt.trace() == m.trace()
            assert pt.hermiticity_defect() == 0.0

    def test_transpose_on_a_is_global_transpose_of_b(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = mx.BipartiteMatrix(2, 3, a)
        via_a = mx.partial_transpose(m, "A").entries
        via_b = mx.partial_transpose(m, "B").entries.T
        assert np.array_equal(via_a, via_b)

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            mx.partial_transpose(bell_projector(), "C")


class TestEigensolver:
    def test_diagonal(self):
        m = mx.BipartiteMatrix(2, 2, np.diag([0.1, 0.2, 0.3, 0.4]))
        assert mx.min_eigenvalue(m) == pytest.approx(0.1, abs=1e-14)

    def test_against_charpoly_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            h = random_hermitian(rng)
            w, _ = mx.hermitian_eigensystem(h)
            assert np.max(np.abs(np.sort(w) - charpoly_roots(h))) < 1e-10

    def test_eigenpair_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            h = random_hermitian(rng)
            m = mx.BipartiteMatrix(2, 2, h)
            val, vec = mx.min_eigenpair(m)
            resid = np.linalg.norm(h @ vec - val * vec)
            assert resid <= 1e-10 * np.linalg.norm(h)

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            h = random_hermitian(rng)
            w, _ = mx.hermitian_eigensystem(h)
            assert abs(w.sum() - np.trace(h).real) < 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            h = random_hermitian(rng)
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            w1, _ = mx.hermitian_eigensystem(h)
            w2, _ = mx.hermitian_eigensystem(q @ h @ q.conj().T)
            assert np.max(np.abs(np.sort(w1) - np.sort(w2))) < 1e-9

    def test_larger_matrices(self):
        rng = np.random.default_rng(14)
        h = random_hermitian(rng, n=24)
        w, v = mx.hermitian_eigensystem(h)
        assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(h))) < 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(24))) < 1e-12


class TestComplexEigensystem:
    """Accuracy on genuinely complex Hermitian 4x4 matrices, against LAPACK."""

    @staticmethod
    def matrices():
        rng = np.random.default_rng(43)
        for i in range(400):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            if i % 4 == 1:
                a = a * (rng.random((4, 4)) < 0.5)  # exact zeros
            elif i % 4 == 2:
                a = 1j * a.real  # purely imaginary off the diagonal
            elif i % 4 == 3:
                a = a * 10.0 ** rng.uniform(-100.0, 100.0)
            yield (a + a.conj().T) / 2

    def test_eigenvalues_match_eigvalsh(self):
        for h in self.matrices():
            w, _ = mx.hermitian_eigensystem(h)
            norm = np.linalg.norm(h)
            assert np.max(np.abs(w - np.linalg.eigvalsh(h))) <= 1e-12 * norm
            assert np.all(np.diff(w) >= 0.0)

    def test_eigenvectors(self):
        for h in self.matrices():
            w, v = mx.hermitian_eigensystem(h)
            norm = np.linalg.norm(h)
            assert np.max(np.abs(h @ v - v * w)) <= 1e-12 * norm
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= 1e-12


class TestNpt:
    def test_bell(self):
        assert abs(mx.npt(bell_projector()) - 1.0) < 1e-12

    def test_product_states_have_zero_npt(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            rho = np.kron(random_state(rng, 2), random_state(rng, 2))
            assert mx.npt(mx.BipartiteMatrix(2, 2, rho)) <= 1e-12

    def test_separable_mixtures_have_zero_npt(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            weights = rng.random(5)
            weights /= weights.sum()
            rho = sum(
                w * np.kron(random_state(rng, 2), random_state(rng, 2)) for w in weights
            )
            assert mx.npt(mx.BipartiteMatrix(2, 2, rho)) <= 1e-12

    def test_werner_state(self):
        # PT minimum eigenvalue of p|Phi+><Phi+| + (1-p) I/4 is (1-3p)/4;
        # the expected NPT is recomputed here with an independent eigensolver.
        p = 0.5
        rho = p * bell_projector().entries + (1 - p) * np.eye(4) / 4
        m = mx.BipartiteMatrix(2, 2, rho)
        pt = mx.partial_transpose(m, "B").entries
        expected = -2.0 * min(0.0, np.linalg.eigvalsh(pt).min())
        assert expected == pytest.approx(0.25, abs=1e-12)
        assert mx.npt(m) == pytest.approx(0.25, abs=1e-10)

    def test_npt_nonnegative_and_scale_free(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rho = random_state(rng, 4)
            m = mx.BipartiteMatrix(2, 2, rho)
            value = mx.npt(m)
            assert value >= 0.0
            assert mx.npt(m.scaled(0.37)) == pytest.approx(value, abs=1e-12)

    def test_zero_trace_rejected(self):
        with pytest.raises(DegenerateStateError):
            mx.npt(mx.BipartiteMatrix(2, 2, np.zeros((4, 4))))

    def test_werner_family_detection_boundary(self):
        # for two qubits NPT > 0 iff entangled; the Werner family crosses the
        # boundary at p = 1/3
        for p, entangled in ((0.2, False), (1.0 / 3.0 + 0.01, True), (0.8, True)):
            rho = p * bell_projector().entries + (1 - p) * np.eye(4) / 4
            value = mx.npt(mx.BipartiteMatrix(2, 2, rho))
            assert (value > 1e-12) == entangled


def reference_npt(entries, dim_a=2, dim_b=2):
    """The NPT by the definition, one matrix at a time: the scorer's reference.

    The partial transpose is built entry by entry, scaled by the reciprocal of
    its trace (as the scorer does, so the bits agree), symmetrized and solved
    by a 2-D ``eigvalsh``; then the zero rule.  NaN where the trace fails the
    floor.
    """
    size = dim_a * dim_b
    pt = np.empty((size, size), dtype=complex)
    for a, b, a2, b2 in np.ndindex(dim_a, dim_b, dim_a, dim_b):
        pt[a * dim_b + b, a2 * dim_b + b2] = entries[a * dim_b + b2, a2 * dim_b + b]
    tr = np.trace(pt).real
    if not tr > 1e-300:
        return float("nan")
    scaled = pt * (1.0 / tr)
    w = np.linalg.eigvalsh((scaled + scaled.conj().T) / 2.0)
    return -2.0 * w[0] if -w[0] > qlinalg.NPT_ZERO_BOUND * np.abs(w).max() else 0.0


def scalar_npts(stack):
    """:func:`reference_npt` of each matrix of a stack."""
    return np.array([reference_npt(entries) for entries in stack])


def preset_states():
    """The kernel-normalized states of every preset row, as ``cli.run_sweep`` computes them."""
    for spec in cli.PRESETS.values():
        sdef = cli.SCHEMES[spec.scheme]
        name, start, stop, count = spec.sweep
        xs = np.linspace(start, stop, count).tolist()
        yield from sdef.block(*(xs if k == name else [spec.fixed[k]] * count for k in sdef.params))[0]


def drawn_states(rng, count):
    """Kernel-normalized states and public outputs of seeded draws from all five constructors."""
    for i in range(count):
        v = 10.0 ** rng.uniform(0.0, 4.0)
        thermal = mx.ThermalParams(v, rng.choice([0.0, rng.uniform(0.0, 5.0 * v**0.5)]))
        basis = mx.CatBasis(10.0 ** rng.uniform(-0.5, 0.7))
        micro = mx.MicroState(rng.choice([0.0, 1.0, rng.uniform()]))
        sign = int(rng.choice([1, -1]))
        name, args = [
            ("jc", (mx.AtomFieldParams(rng.uniform(), 1.0 - 10.0 ** rng.uniform(-4.0, 0.0),
                                       rng.uniform(0.0, 8.0 * np.pi), int(rng.integers(0, 20))),)),
            ("kerr_micro_thermal", (micro, thermal, basis)),
            ("bs_scheme", (micro, thermal, basis, sign)),
            ("tt_scheme", (micro, thermal, basis, sign)),
            ("direct_kerr", (thermal, basis)),
        ][i % 5]
        try:
            output = getattr(schemes, f"{name}_projected")(*args)
        except DegenerateStateError:
            continue
        yield one_row(name, *args)[0][0], output


def one_row(name, *args):
    """The block function of the constructor ``name`` at the one row of its arguments."""
    columns = []
    for arg in args:
        if isinstance(arg, mx.AtomFieldParams):
            columns += [[arg.p], [arg.lam], [arg.gt], [arg.n]]
        elif isinstance(arg, mx.ThermalParams):
            columns += [[arg.variance], [arg.displacement]]
        elif isinstance(arg, mx.MicroState):
            columns.append([arg.r])
        elif isinstance(arg, mx.CatBasis):
            columns.append([arg.gamma])
        else:  # sign
            columns.append([arg])
    return getattr(schemes, f"{name}_block")(*columns)


class TestKron:
    """The broadcast Kronecker product of the oracle and the scheme blocks, against ``np.kron``."""

    def test_broadcast_kron_equals_np_kron(self):
        rng = np.random.default_rng(37)
        for shape_a, shape_b in (((2, 2), (2, 2)), ((2, 2), (7, 7)), ((3, 2), (2, 5))):
            a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
            b = rng.normal(size=shape_b)
            assert np.array_equal(qlinalg._kron(a, b), np.kron(a, b))
        stack = rng.normal(size=(5, 2, 2))
        got = qlinalg._kron(stack, stack[::-1])
        assert np.array_equal(got, np.array([np.kron(x, y) for x, y in zip(stack, stack[::-1])]))


class TestNptStack:
    """The one scorer, ``_npt_stack``, against the one-matrix reference bit for bit."""

    def test_preset_sources(self):
        stack = np.array(list(preset_states()))
        assert stack.shape == (4261, 4, 4)
        expected = scalar_npts(stack)
        assert qlinalg._npt_stack(stack).tobytes() == expected.tobytes()

    def test_constructor_draws(self):
        states, outputs = zip(*drawn_states(np.random.default_rng(44), 1500))
        assert len(states) >= 1400
        expected = np.array([out.npt_normalized for out in outputs])
        assert qlinalg._npt_stack(np.array(states)).tobytes() == expected.tobytes()
        assert scalar_npts(states).tobytes() == expected.tobytes()

    def test_npt_is_the_scorer_on_one_matrix(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            entries = random_state(rng, 4)
            entries *= rng.choice([1.0, 1e-200, 1e200])
            value = mx.npt(mx.BipartiteMatrix(2, 2, entries))
            assert type(value) is float
            assert value == reference_npt(entries) == qlinalg._npt_stack(entries[None])[0]
        with pytest.raises(DegenerateStateError, match=r"cannot normalize matrix with trace 0\.0"):
            mx.npt(mx.BipartiteMatrix(2, 2, np.zeros((4, 4))))
        with pytest.raises(DegenerateStateError, match=r"with trace -4\.0"):
            mx.npt(mx.BipartiteMatrix(2, 2, -np.eye(4)))
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1e-6
        with pytest.raises(HermiticityError):
            mx.npt(mx.BipartiteMatrix(2, 2, bad))
        bad[0, 1] = np.inf
        with pytest.raises(NumericInputError):
            mx.npt(mx.BipartiteMatrix(2, 2, bad))

    def test_mixed_real_phased_and_complex_rows(self):
        rng = np.random.default_rng(45)
        phase = np.diag([1.0, 1.0, 1.0, 1j])
        rows = []
        for i in range(600):
            real = rng.normal(size=(4, 4)) * (rng.random((4, 4)) < 0.7)
            source = (real + real.T) / 2 + np.eye(4) * rng.uniform(0.0, 3.0)
            if i % 3 == 1:
                source = phase @ source @ phase.conj().T  # real under D^dagger . D
            elif i % 3 == 2:
                source = source + 1j * rng.normal(size=(4, 4))
                source = (source + source.conj().T) / 2
            rows.append(mx.partial_transpose(mx.BipartiteMatrix(2, 2, source)).entries)
        stack = np.array(rows)
        expected = scalar_npts(stack)
        assert np.count_nonzero(expected > 0.0) > 100 and np.count_nonzero(expected == 0.0) > 100
        assert qlinalg._npt_stack(stack).tobytes() == expected.tobytes()

    def test_unusable_trace_gives_nan(self):
        stack = np.array([np.eye(4), np.zeros((4, 4)), bell_projector().entries])
        stack = np.concatenate([stack, np.diag([np.nan, 1, 1, 1])[None]])
        values = qlinalg._npt_stack(stack)
        assert values[0] == 0.0 and abs(values[2] - 1.0) < 1e-12
        assert np.isnan(values[1]) and np.isnan(values[3])
        assert np.isnan(qlinalg._npt_stack(-np.eye(4)[None])[0])  # negative trace

    def test_non_hermitian_row_raises(self):
        stack = np.array([np.eye(4)] * 3, dtype=complex)
        stack[1, 0, 1] = 1e-6
        stack[2, 0, 1] = np.nan  # a later bad row does not take precedence
        with pytest.raises(HermiticityError):
            qlinalg._npt_stack(stack)

    def test_separable_states_at_the_largest_variances_give_exact_zero(self):
        # near V = 1e308 the partial transpose has entries of 1e-308, next to
        # ones of order 1; their NPT is exactly 0, not NaN or roundoff
        for v in (1e307, 3e307, 1e308, 1.7e308):
            args = (mx.MicroState(1.0), mx.ThermalParams(v, 1.0), mx.CatBasis(2.0))
            state = one_row("kerr_micro_thermal", *args)[0][0]
            assert mx.npt(mx.BipartiteMatrix(2, 2, state)) == 0.0, v
            assert schemes.kerr_micro_thermal_projected(*args).npt_normalized == 0.0, v
            assert qlinalg._npt_stack(np.array([state, state.T])).tolist() == [0.0, 0.0], v

    def test_non_finite_row_raises(self):
        stack = np.array([np.eye(4)] * 3, dtype=complex)
        stack[1, 1, 2] = np.nan  # the trace stays 4
        stack[2, 0, 1] = 1e-6
        with pytest.raises(NumericInputError):
            qlinalg._npt_stack(stack)
        with pytest.raises(InvalidShapeError):
            qlinalg._npt_stack(np.eye(4))


class TestGeneralDims:
    """``npt`` and the scorer on a qubit (x) qutrit."""

    def test_separable_product_is_zero(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            rho = np.kron(random_state(rng, 2), random_state(rng, 3))
            assert mx.npt(mx.BipartiteMatrix(2, 3, rho)) == 0.0

    def test_entangled_pure_state_matches_reference(self):
        # (|0,0> + |1,1> + |1,2>)/sqrt(3): the smallest eigenvalue of the
        # partial transpose is -sqrt(2)/3
        psi = np.zeros(6, dtype=complex)
        psi[[0, 4, 5]] = 1.0
        rho = np.outer(psi, psi.conj()) / 3.0
        value = mx.npt(mx.BipartiteMatrix(2, 3, rho))
        assert value == pytest.approx(2.0 * np.sqrt(2.0) / 3.0, abs=1e-15)
        assert value == reference_npt(rho, 2, 3)
        assert qlinalg._npt_stack(rho[None], 2, 3)[0] == value
        with pytest.raises(InvalidShapeError):
            qlinalg._npt_stack(rho[None])  # the default factors are (2, 2)


class TestZeroRule:
    """A smallest eigenvalue inside NPT_ZERO_BOUND times the largest |eigenvalue| reads as 0."""

    @staticmethod
    def diagonal_state(low):
        # the partial transpose of a diagonal state is itself; every partial
        # sum of this diagonal is a multiple of 2^-53 below 1, so its trace is
        # exactly 1 and normalizing changes no bit
        return np.diag([low, 0.5, 0.25 - low, 0.25])

    def test_edge_of_the_bound(self):
        bound = qlinalg.NPT_ZERO_BOUND * 0.5  # the largest eigenvalue is 0.5
        assert bound == 2.0**-51
        inside, outside = -bound, -1.25 * bound  # the next multiple of 2^-53
        stack = np.array([self.diagonal_state(inside), self.diagonal_state(outside)])
        for low, expected in ((inside, 0.0), (outside, -2.0 * outside)):
            assert mx.npt(mx.BipartiteMatrix(2, 2, self.diagonal_state(low))) == expected
        assert qlinalg._npt_stack(stack).tolist() == [0.0, -2.0 * outside]


class TestPurity:
    def test_pure_projector(self):
        assert mx.purity(bell_projector()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        m = mx.BipartiteMatrix(2, 2, np.eye(4) / 4)
        assert mx.purity(m) == pytest.approx(0.25, abs=1e-12)

    def test_thermal_qubit(self):
        p = 0.9
        m = mx.BipartiteMatrix(2, 1, np.diag([p, 1 - p]))
        assert mx.purity(m) == pytest.approx(0.82, abs=1e-12)
        assert mx.purity(m) == pytest.approx(2 * (p - 0.5) ** 2 + 0.5, abs=1e-12)

    def test_zero_trace_rejected(self):
        with pytest.raises(DegenerateStateError):
            mx.purity(mx.BipartiteMatrix(2, 1, np.zeros((2, 2))))


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(InvalidShapeError):
            mx.BipartiteMatrix(2, 2, np.eye(3))

    def test_nonfinite_entries(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(NumericInputError):
            mx.min_eigenvalue(mx.BipartiteMatrix(2, 2, bad))

    def test_hermiticity_rejection(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1e-6
        with pytest.raises(HermiticityError):
            mx.min_eigenvalue(mx.BipartiteMatrix(2, 2, bad))

    def test_small_defect_symmetrized(self):
        noisy = np.eye(4, dtype=complex)
        noisy[0, 1] = 1e-13
        assert mx.min_eigenvalue(mx.BipartiteMatrix(2, 2, noisy)) == pytest.approx(1.0)

    def test_entries_immutable(self):
        m = mx.BipartiteMatrix(2, 2, np.eye(4))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 2.0
