"""Fock-space and quadrature oracles: exactness, unitarity, self-convergence."""

import math

import numpy as np
import pytest

import mixent as mx
from mixent import cli, oracle, qlinalg
from mixent.oracle import (
    OracleUnstableError,
    TruncationTailError,
    fock_space_for,
    jc_fock_projected,
    jc_propagator,
    quadrature_projected,
    thermal_fock_matrix,
)
from mixent.states import thermal_cat_kernels

G2 = mx.CatBasis(2.0)
EPS = np.finfo(float).eps


def one_set(blocks, v, d, g, order):
    """The blocks of a single node set from the stacked cache function ``blocks``."""
    return {key: block[0] for key, block in blocks((v,), (d,), (g,), order).items()}


def one_set_nodes(v, d, order):
    return [axis[0] for axis in oracle._thermal_nodes((v,), (d,), order)]


def one_set_factors(re, im, g, kappa):
    return [f[0] for f in oracle._projection_factors(re[None], im[None], np.array([g]), kappa)]


class TestFockSpace:
    def test_adaptive_choice_meets_tail(self):
        n_max = fock_space_for(0.9, n=0)
        assert 0.9 ** (n_max + 1) <= 1e-12 < 0.9**n_max
        assert fock_space_for(0.0, n=5) >= 7

    def test_choice_passes_thermal_matrix_check(self):
        # at lam = 10^-k the exact tail of one candidate truncation equals the
        # 1e-12 budget, and its floating-point value rounds just above it
        for lam in (1e-4, 1e-3, 0.01, 0.1, 0.2, 0.5, 0.9):
            thermal_fock_matrix(lam, fock_space_for(lam))

    def test_cap_rejects_hot_fields(self):
        with pytest.raises(TruncationTailError):
            fock_space_for(0.999, n=0)

    def test_thermal_matrix_purity(self):
        for lam in (0.0, 0.5, 0.9):
            m = thermal_fock_matrix(lam, fock_space_for(lam))
            assert mx.purity(m) == pytest.approx((1 - lam) / (1 + lam), abs=1e-10)

    def test_thermal_matrix_tail_guard(self):
        with pytest.raises(TruncationTailError):
            thermal_fock_matrix(0.9, 10)


def dense_evolution(params, n_max):
    """U rho0 U^dagger on Fock levels 0..n_max, projected onto field levels {n, n+1}."""
    dim = n_max + 1
    weights = (1 - params.lam) * params.lam ** np.arange(dim)
    rho0 = np.kron(np.diag([1 - params.p, params.p]), np.diag(weights))
    u = jc_propagator(params, n_max)
    rho1 = u @ rho0 @ u.conj().T
    idx = [params.n, dim + params.n, params.n + 1, dim + params.n + 1]
    return rho1[np.ix_(idx, idx)]


class TestJcFockOracle:
    def test_vacuum_single_doublet(self):
        # pure excited atom, zero-temperature field: support is {|e,0>, |g,1>}
        params = mx.AtomFieldParams(p=1.0, lam=0.0, gt=0.83, n=0)
        out = jc_fock_projected(params).entries
        support = np.zeros((4, 4), dtype=bool)
        support[1:3, 1:3] = True
        assert np.all(out[~support] == 0.0)
        assert abs(out[1, 1] - math.cos(0.83) ** 2) < 1e-15
        assert abs(out[2, 2] - math.sin(0.83) ** 2) < 1e-15

    def test_no_interaction_diagonal_product(self):
        params = mx.AtomFieldParams(p=0.7, lam=0.5, gt=0.0, n=2)
        out = jc_fock_projected(params).entries
        w = lambda k: 0.5 * 0.5**k  # noqa: E731
        expected = np.diag([0.3 * w(2), 0.7 * w(2), 0.3 * w(3), 0.7 * w(3)])
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_propagator_unitary(self):
        params = mx.AtomFieldParams(p=1.0, lam=0.5, gt=1.37, n=0)
        n_max = 120
        u = jc_propagator(params, n_max)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 * (n_max + 1)))) <= 1e-12

    def test_excitation_conservation(self):
        params = mx.AtomFieldParams(p=1.0, lam=0.5, gt=2.1, n=0)
        n_max = 60
        u = jc_propagator(params, n_max)
        numbers = np.arange(n_max + 1, dtype=float)
        ones = np.ones(n_max + 1)
        excitation = np.diag(np.kron([0.0, 1.0], ones) + np.kron([1.0, 1.0], numbers))
        assert np.max(np.abs(u.conj().T @ excitation @ u - excitation)) <= 1e-12

    def test_equals_evolution_on_larger_truncation(self):
        # the block only involves doublets n-1, n, n+1: levels above n+2
        # must not change it
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = mx.AtomFieldParams(
                p=rng.uniform(),
                lam=rng.uniform(0.0, 0.999),
                gt=rng.uniform(0.0, 7.0),
                n=int(rng.integers(0, 12)),
            )
            wide = dense_evolution(params, params.n + 40)
            assert np.max(np.abs(jc_fock_projected(params).entries - wide)) <= 1e-15

    def test_matches_closed_form_near_infinite_temperature(self):
        # lam -> 1 is the paper's zero-purity limit; no truncation budget
        # could hold the thermal tail there, and none is needed
        rng = np.random.default_rng(12)
        lams = np.concatenate([1.0 - 10.0 ** -rng.uniform(0.0, 6.0, 300), [0.999999]])
        for lam in lams:
            params = mx.AtomFieldParams(
                p=rng.uniform(), lam=lam, gt=rng.uniform(0.0, 7.0), n=int(rng.integers(0, 12))
            )
            closed = mx.jc_projected(params).matrix
            assert mx.max_abs_deviation(closed, jc_fock_projected(params)) <= 1e-10


def grid_thermal_nodes(variance, displacement, order):
    """The order^2 quadrature nodes alpha and weights as one flat 2-D grid.

    The node placement of the oracle (module docstring), each weight one
    exponential of the summed logs; the oracle's per-axis nodes must give the
    same integrals summed in another order.
    """
    if variance == 1.0:
        return np.array([displacement + 0.0j]), np.array([1.0])
    u = 2.0 / (variance - 1.0)
    scale = 1.0 / math.sqrt(u + 1.0)
    center = u * displacement / (u + 1.0)
    x, w = np.polynomial.hermite.hermgauss(order)
    logw = np.log(w) + x * x
    alpha = center + scale * (x[:, None] + 1j * x[None, :])
    log_norm = math.log(2.0 / math.pi) - math.log(variance - 1.0)
    log_pth = log_norm - u * np.abs(alpha - displacement) ** 2
    logw2 = logw[:, None] + logw[None, :] + 2.0 * math.log(scale) + log_pth
    return alpha.ravel(), np.exp(logw2.ravel())


def reference_sandwich_block(variance, displacement, gamma, order, w, wp):
    """One 2x2 block <s| integral[P |w a><w' a|] |s'> as a literal sum over the 2-D grid."""
    alpha, weight = grid_thermal_nodes(variance, displacement, order)
    basis = mx.CatBasis(gamma)
    left = np.vstack(basis.coherent_projection(w * alpha))  # rows: <+|, <-|
    right = np.vstack(basis.coherent_projection(wp * alpha))
    return (left * weight) @ right.conj().T


class TestSandwichBlocks:
    def test_four_blocks_match_single_block_grid_sums(self):
        # the same order^2 node terms summed as products of 1-D sums: within
        # 2 order eps of the largest entry, the bound of the beam-splitter test
        rng = np.random.default_rng(17)
        points = [(1.0, rng.uniform(0.0, 5.0), 10.0 ** rng.uniform(-0.5, 0.7)) for _ in range(4)]
        for _ in range(16):
            v = 10.0 ** rng.uniform(0.0, 4.0)
            points.append((v, rng.uniform(-5.0, 5.0) * math.sqrt(v), 10.0 ** rng.uniform(-0.5, 0.7)))
        for v, d, g in points:
            for order in (80, 160):
                blocks = one_set(oracle._sandwich_block, v, d, g, order)
                assert sorted(blocks) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
                refs = {key: reference_sandwich_block(v, d, g, order, *key) for key in blocks}
                scale = max(np.abs(ref).max() for ref in refs.values())
                for key, block in blocks.items():
                    dev = np.abs(block - refs[key]).max()
                    assert dev <= 2 * order * EPS * scale, (v, d, g, order, key, dev / scale)


def einsum_bs_terms(variance, displacement, gamma, order):
    """The beam-splitter term integrals as a five-operand einsum per term.

    Term order: direct (delta, -delta), its mirror, coherence, coherence
    mirrored; each entry sums <s1|x><y|s1'><s2|v><w|s2'> over the nodes with
    (x, y, v, w) the term's coherent arguments at delta = alpha/sqrt(2).
    """
    alpha, weight = grid_thermal_nodes(variance, displacement, order)
    basis = mx.CatBasis(gamma)
    delta = alpha / math.sqrt(2.0)
    op = np.vstack(basis.coherent_projection(delta))
    om = np.vstack(basis.coherent_projection(-delta))
    combos = ((op, op, om, om), (om, om, op, op), (op, om, om, op), (om, op, op, om))
    return [
        np.einsum("n,an,bn,cn,dn->abcd", weight, a, b, c.conj(), d.conj()).reshape(4, 4)
        for a, c, b, d in combos
    ]


class TestAxisFactors:
    @pytest.mark.parametrize("order", [80, 160])
    def test_factors_multiply_to_coherent_overlaps(self, order):
        # the oracle's overlaps must be the public ones at every node of the
        # 2-D grid, whichever closed form the axis factors take
        rng = np.random.default_rng(23)
        points = [(1.0, 1.5, 2.0), (1.0, -0.3, 0.4)]
        for _ in range(6):
            v = 10.0 ** rng.uniform(0.0, 4.0)
            points.append((v, rng.uniform(-5.0, 5.0) * math.sqrt(v), 10.0 ** rng.uniform(-0.5, 0.7)))
        for v, d, g in points:
            re, a, im, b = one_set_nodes(v, d, order)
            alpha, weight = grid_thermal_nodes(v, d, order)
            assert np.array_equal((re[:, None] + 1j * im[None, :]).ravel(), alpha)
            # each weight is the exponential of logs that reach several hundred,
            # whose rounding alone moves it by up to about 3e-13 relative
            np.testing.assert_allclose(np.outer(a, b).ravel(), weight, rtol=1e-11, atol=0.0)
            for kappa in (1.0, 1.0 / math.sqrt(2.0)):
                fx, fy = one_set_factors(re, im, g, kappa)
                # the factors of -kappa alpha are the rows reversed
                for w, (fx, fy) in ((1, (fx, fy)), (-1, (fx[::-1], fy[::-1]))):
                    for row, sigma in enumerate((1, -1)):
                        got = fx[row][:, None] * fy[row][None, :]
                        ref = mx.coherent_overlap(sigma * g, w * kappa * alpha).reshape(got.shape)
                        dev = np.abs(got - ref).max()
                        assert dev <= 1e-12, (v, d, g, order, kappa, w, sigma, dev)


class TestBeamSplitterBlocks:
    def test_blocks_match_per_term_einsum(self):
        # the same order^2 node terms summed in another order: each sum's
        # rounding grows like sqrt(order^2) eps, so two of them differ by
        # at most about 2 order eps of the largest entry
        rng = np.random.default_rng(19)
        points = [(p["V"], p["d"], p["gamma"]) for p in cli._kerr_family_grid()]
        for _ in range(20):
            v = 10.0 ** rng.uniform(0.0, 4.0)
            points.append((v, rng.uniform(-5.0, 5.0) * math.sqrt(v), 10.0 ** rng.uniform(-0.5, 0.7)))
        for v, d, g in points:
            for order in (80, 160):
                blocks = one_set(oracle._bs_term_matrices, v, d, g, order)
                terms = einsum_bs_terms(v, d, g, order)
                scale = max(np.abs(t).max() for t in terms)
                for key, ref in zip(((1, 1), (-1, -1), (1, -1), (-1, 1)), terms):
                    dev = np.abs(blocks[key] - ref).max()
                    assert dev <= 2 * order * EPS * scale, (v, d, g, order, key, dev / scale)


def kron_reference(scheme, b, r, sign):
    """A scheme's 4x4 from its blocks, written literally with np.kron and np.block."""
    if scheme == "kerr_micro_thermal":
        return 0.5 * np.block([[b[1, 1], r * b[1, -1]], [r * b[-1, 1], b[-1, -1]]])
    if scheme == "bs":
        return b[1, 1] + b[-1, -1] + sign * r * (b[1, -1] + b[-1, 1])
    if scheme == "tt":
        return (
            np.kron(b[1, 1], b[1, 1])
            + np.kron(b[-1, -1], b[-1, -1])
            + sign * r * (np.kron(b[1, -1], b[1, -1]) + np.kron(b[-1, 1], b[-1, 1]))
        )
    signs = {(1, 1): 0.5, (-1, 1): 0.5, (1, -1): 0.5, (-1, -1): -0.5}
    out = np.zeros((4, 4), dtype=np.complex128)
    for (w1, w2), s_ket in signs.items():
        for (w1p, w2p), s_bra in signs.items():
            out += s_ket * s_bra * np.kron(b[w1, w1p], b[w2, w2p])
    return out


def quad_once(scheme, r, sign, v, d, g, order):
    """One row's matrix from the oracle's assembly at one order."""
    return oracle._quad_once(scheme, [r], [sign], ((v,), (d,), (g,)), np.array([0]), order)[0]


def per_pair_node_blocks(c, fx, fy, a, b):
    """The four node sums, one explicit x and y product per (w, w') pair."""
    rows = {1: (fx, fy), -1: (fx[::-1], fy[::-1])}
    return {
        (w, wp): c @ (((fx_w * a) @ fx_wp.T) * ((fy_w * b) @ fy_wp.conj().T)) @ c.T
        for w, (fx_w, fy_w) in rows.items()
        for wp, (fx_wp, fy_wp) in rows.items()
    }


class TestAssembly:
    # each entry of the oracle's broadcast kron is one product, as in np.kron,
    # and every sum keeps the order of the literal form: equal on any BLAS
    SCHEMES = ("kerr_micro_thermal", "bs", "tt", "direct_kerr")

    def test_assemblies_equal_kron_reference_on_node_blocks(self):
        rng = np.random.default_rng(29)
        points = [(p["V"], p["d"], p["gamma"]) for p in cli._kerr_family_grid()][::7]
        for _ in range(6):
            v = 10.0 ** rng.uniform(0.0, 4.0)
            points.append((v, rng.uniform(-5.0, 5.0) * math.sqrt(v), 10.0 ** rng.uniform(-0.5, 0.7)))
        for v, d, g in points:
            for order in (80, 160):
                for scheme in self.SCHEMES:
                    blocks = oracle._bs_term_matrices if scheme == "bs" else oracle._sandwich_block
                    b = one_set(blocks, v, d, g, order)
                    for r, sign in ((0.0, 1), (0.3, -1), (1.0, 1), (rng.uniform(), -1)):
                        got = quad_once(scheme, r, sign, v, d, g, order)
                        ref = kron_reference(scheme, b, r, sign)
                        assert np.array_equal(got, ref), (scheme, v, d, g, order, r, sign)

    def test_assemblies_equal_kron_reference_on_random_blocks(self, monkeypatch):
        rng = np.random.default_rng(31)
        for _ in range(50):
            size = {"sandwich": 2, "bs": 4}
            blocks = {
                kind: {
                    key: rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                    for key in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                }
                for kind, n in size.items()
            }
            # exact zeros and huge and tiny magnitudes too
            blocks["sandwich"][1, -1][0, 1] = 0.0
            blocks["sandwich"][-1, 1] *= 10.0 ** rng.uniform(-150, 150)
            for name, kind in (("_sandwich_block", "sandwich"), ("_bs_term_matrices", "bs")):
                stacks = {key: block[None] for key, block in blocks[kind].items()}
                monkeypatch.setattr(oracle, name, lambda *a, b=stacks: b)
            r, sign = rng.uniform(), int(rng.choice([1, -1]))
            for scheme in self.SCHEMES:
                b = blocks["bs" if scheme == "bs" else "sandwich"]
                got = quad_once(scheme, r, sign, 10.0, 1.0, 2.0, 80)
                assert np.array_equal(got, kron_reference(scheme, b, r, sign)), scheme

    def test_node_blocks_match_per_pair_products(self):
        # one x and one y product with reversed rows against a product per
        # pair: the same sums, up to the order a matrix product adds in
        rng = np.random.default_rng(41)
        cases = []
        for v, d, g in ((1.0, 1.5, 2.0), (10.0, 3.0, 1.0), (1000.0, -40.0, 3.0), (2.0, 0.0, 0.4)):
            for order in (80, 160):
                re, a, im, b = one_set_nodes(v, d, order)
                c = oracle._cat_rows([g])[0]
                fx, fy = one_set_factors(re, im, g, 1.0)
                cases.append((c, fx, fy, a, b))
                fx, fy = one_set_factors(re, im, g, 1.0 / math.sqrt(2.0))
                pair = [(f[:, None] * f[::-1][None, :]).reshape(4, -1) for f in (fx, fy)]
                cases.append((qlinalg._kron(c, c), *pair, a, b))
        for rows in (2, 4):
            n = 80
            fx = rng.uniform(size=(rows, n))
            fy = np.exp(1j * rng.uniform(0.0, 6.3, size=(rows, n))) * rng.uniform(size=(rows, n))
            c = rng.normal(size=(rows, rows))
            cases.append((c, fx, fy, rng.uniform(size=n), rng.uniform(size=n)))
        for c, fx, fy, a, b in cases:
            stacks = oracle._node_blocks(*(x[None] for x in (c, fx, fy, a, b)))
            got = {key: block[0] for key, block in stacks.items()}
            refs = per_pair_node_blocks(c, fx, fy, a, b)
            assert sorted(got) == sorted(refs)
            scale = max(np.abs(ref).max() for ref in refs.values())
            for key, ref in refs.items():
                assert np.abs(got[key] - ref).max() <= 4 * EPS * scale, key


def bits(a):
    """The bit patterns of a complex array: equal only if every bit is, -0.0 and NaN included."""
    return np.ascontiguousarray(a).view(np.int64)


class TestBlockOracle:
    # a block's rows must be the one-row calls whatever else is in the block:
    # shared node sets, V = 1 next to V > 1, rows in any order, node sets
    # over more than one chunk
    def random_block(self, rng, count):
        sets = []
        for _ in range(count):
            v = 1.0 if rng.uniform() < 0.3 else 10.0 ** rng.uniform(0.0, 3.0)
            sets.append((v, rng.uniform(-5.0, 5.0) * math.sqrt(v), 10.0 ** rng.uniform(-0.5, 0.6)))
        size = int(rng.integers(1, 3 * len(sets) + 2))
        rows = [sets[i] for i in rng.integers(len(sets), size=size)]
        r = [float(rng.choice([0.0, 0.1, 1.0])) for _ in rows]
        sign = [int(rng.choice([1, -1])) for _ in rows]
        return r, *(list(column) for column in zip(*rows)), sign

    @pytest.mark.parametrize("scheme", oracle.KERR_SCHEMES)
    def test_quadrature_block_equals_one_row_calls(self, scheme):
        rng = np.random.default_rng(43)
        for count in [*rng.integers(1, 8, size=11), 2 * oracle._NODE_CHUNK + 5]:
            r, v, d, g, sign = self.random_block(rng, int(count))
            if scheme == "direct_kerr":
                r = None
            if scheme in ("kerr_micro_thermal", "direct_kerr"):
                sign = None
            got = oracle.quadrature_block(scheme, r, v, d, g, sign)
            for k in range(len(v)):
                kw = {"thermal": mx.ThermalParams(v[k], d[k]), "basis": mx.CatBasis(g[k])}
                if r is not None:
                    kw["micro"] = mx.MicroState(r[k])
                if sign is not None:
                    kw["sign"] = sign[k]
                one = quadrature_projected(scheme, **kw).entries
                assert np.array_equal(bits(got[k]), bits(one)), (scheme, v[k], d[k], g[k])

    def test_jc_block_equals_one_row_calls(self):
        rng = np.random.default_rng(47)
        for n in (0, 3, 10):
            rows = [
                (rng.uniform(), rng.uniform(0.0, 0.99), rng.uniform(0.0, 10.0), n) for _ in range(20)
            ]
            got = oracle.jc_fock_block(*(list(column) for column in zip(*rows)))
            for k, row in enumerate(rows):
                one = jc_fock_projected(mx.AtomFieldParams(*row)).entries
                assert np.array_equal(bits(got[k]), bits(one)), row

    def test_first_unstable_row_is_named(self):
        # at V = 1000, gamma = 12 the order-80 rule is too coarse; rows 2 and 4
        # fail the doubling check, and the block raises what row 2 alone raises
        v = [10.0, 1.0, 1000.0, 10.0, 1000.0]
        d = [1.0, 2.0, 3.0, 1.0, 0.0]
        g = [2.0, 2.0, 12.0, 2.0, 12.0]
        r = [0.5] * 5
        t, basis, micro = mx.ThermalParams(1000.0, 3.0), mx.CatBasis(12.0), mx.MicroState(0.5)
        with pytest.raises(OracleUnstableError) as one:
            quadrature_projected("kerr_micro_thermal", thermal=t, basis=basis, micro=micro)
        assert "(V=1000.0, d=3.0, gamma=12.0)" in str(one.value)
        with pytest.raises(OracleUnstableError) as block:
            oracle.quadrature_block("kerr_micro_thermal", r, v, d, g, None)
        assert str(block.value) == str(one.value)


class TestQuadratureOracle:
    def test_coherent_limit_is_exact(self):
        # V = 1 collapses the integral to a point evaluation
        t = mx.ThermalParams(1.0, 1.5)
        m = mx.MicroState(0.8)
        q = quadrature_projected("kerr_micro_thermal", thermal=t, basis=G2, micro=m)
        closed = mx.kerr_micro_thermal_projected(m, t, G2).matrix
        assert mx.max_abs_deviation(q, closed) < 1e-12

    def test_parity_flip_block_symmetric_at_zero_displacement(self):
        # the coherence operator at d = 0 equals its own transpose, the root
        # of the zero-displacement separability
        block = one_set(oracle._sandwich_block, 10.0, 0.0, 2.0, 80)[1, -1]
        assert np.max(np.abs(block - block.T)) < 1e-14
        assert np.max(np.abs(block.imag)) < 1e-14

    def test_kernel_reconstruction(self):
        v, d, g = 10.0, 5.0, 2.0
        basis = mx.CatBasis(g)
        block = one_set(oracle._sandwich_block, v, d, g, 160)[1, 1]
        hi = block[0, 0].real / basis.n_plus**2
        lo = block[1, 1].real / basis.n_minus**2
        s = block[0, 1].real / (basis.n_plus * basis.n_minus)
        k = thermal_cat_kernels(mx.ThermalParams(v, d), basis)
        assert hi == pytest.approx(k.c + k.r, rel=1e-8)
        assert lo == pytest.approx(k.c - k.r, rel=1e-8)
        assert s == pytest.approx(k.s, rel=1e-8)

    def test_self_convergence_default_grid(self):
        # every call compares order 80 vs 160; no raise means the entries
        # moved by less than the doubling tolerance
        t = mx.ThermalParams(1000.0, 5.0)
        quadrature_projected("direct_kerr", thermal=t, basis=G2)

    def test_direct_scheme_pure_state_points_exact(self):
        # V = 1 quadrature degenerates to pure-state overlap products and must
        # match the closed form at full double precision
        for g in (1.0, 2.0, 3.0):
            for d in (0.0, 1.0, 5.0):
                t = mx.ThermalParams(1.0, d)
                basis = mx.CatBasis(g)
                q = quadrature_projected("direct_kerr", thermal=t, basis=basis)
                closed = mx.direct_kerr_projected(t, basis).matrix
                assert mx.max_abs_deviation(closed, q) <= 1e-12

    def test_unstable_grid_detected(self, monkeypatch):
        monkeypatch.setattr(oracle, "QUADRATURE_ORDER", 1)
        t = mx.ThermalParams(1000.0, 1.0)
        with pytest.raises(OracleUnstableError):
            quadrature_projected("direct_kerr", thermal=t, basis=G2)

    def test_non_finite_entries_are_unstable(self, monkeypatch):
        # NaN - NaN is NaN, which no "greater than" comparison catches
        monkeypatch.setattr(oracle, "_quad_once", lambda *args: np.full((1, 4, 4), np.nan))
        t = mx.ThermalParams(10.0, 1.0)
        with pytest.raises(OracleUnstableError, match="nan"):
            quadrature_projected("direct_kerr", thermal=t, basis=G2)

    def test_missing_parameters_rejected(self):
        t = mx.ThermalParams(2.0, 0.0)
        with pytest.raises(ValueError):
            quadrature_projected("bs", thermal=t, basis=G2, micro=mx.MicroState(1.0))
        with pytest.raises(ValueError):
            quadrature_projected("kerr_micro_thermal", thermal=t, basis=G2)
        with pytest.raises(ValueError):
            quadrature_projected("nope", thermal=t, basis=G2)

    def test_deterministic(self):
        t = mx.ThermalParams(7.0, 2.0)
        m = mx.MicroState(0.5)
        a = quadrature_projected("tt", thermal=t, basis=G2, micro=m, sign=1)
        b = quadrature_projected("tt", thermal=t, basis=G2, micro=m, sign=1)
        assert np.array_equal(a.entries, b.entries)
