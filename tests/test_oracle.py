"""Fock-space and quadrature oracles: exactness, unitarity, self-convergence."""

import io
import math
import tracemalloc

import numpy as np
import pytest

import mixent as mx
from mixent import cli, oracle, qlinalg, states
from mixent.oracle import (
    OracleUnstableError,
    TruncationTailError,
    fock_space_for,
    jc_fock_projected,
    quadrature_projected,
    thermal_fock_matrix,
)

from coherent import coherent_overlap, coherent_projection

G2 = mx.CatBasis(2.0)
EPS = np.finfo(float).eps


def one_set(blocks, v, d, g, order):
    """The blocks of a single node set from the stacked cache function ``blocks``."""
    return {key: block[0] for key, block in blocks((v,), (d,), (g,), order).items()}


def stored_rule(order):
    """The raw x and w of a stored Gauss-Hermite rule, read from the oracle's file."""
    start = 2 * sum(oracle._STORED_ORDERS[: oracle._STORED_ORDERS.index(order)])
    return np.load(oracle._STORED_RULES)[start : start + 2 * order].reshape(2, order)


def one_set_nodes(v, d, order):
    return [axis[0] for axis in oracle._thermal_nodes((v,), (d,), order)]


def one_set_factors(re, im, g, kappa):
    """The oracle's x factors of one node set and its complex y factors, rebuilt from im.

    Rows sigma = +1, -1; the y factor of <sigma g|kappa alpha> is
    exp(-(kappa im)^2/2 + i sigma g kappa im).
    """
    fx = oracle._x_factors(re[None], np.array([g]), kappa)[0]
    ky = kappa * im
    fy = np.exp(-0.5 * ky**2 + 1j * np.array([[1.0], [-1.0]]) * g * ky)
    return fx, fy


def split_rows(f):
    """The rows (s1, s2) of the split kets: f[s1] o f[-s2], as the beam-splitter blocks take them."""
    return (f[:, None] * f[::-1][None, :]).reshape(4, -1)


def one_set_y_sums(im, b, g, kappa):
    """The oracle's folded y sums of one node set: the single-mode rows at kappa = 1, the split rows else."""
    phases = oracle._SIGMA_PHASES if kappa == 1.0 else oracle._SPLIT_PHASES
    return oracle._y_sums(im[None], b[None], np.array([g]), kappa, phases)[0]


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


def loop_propagator(gt, n_max, base=0):
    """The exchange propagator on Fock levels base..n_max, one doublet {|e,k>, |g,k+1>} at a time.

    |g,base> and |e,n_max>, whose partners lie outside the levels, stay 1.
    """
    dim = n_max - base + 1
    u = np.eye(2 * dim, dtype=np.complex128)
    for j in range(dim - 1):
        theta = gt * math.sqrt(base + j + 1.0)
        c, s = math.cos(theta), math.sin(theta)
        ie, ig = dim + j, j + 1
        u[ie, ie] = u[ig, ig] = c
        u[ie, ig] = u[ig, ie] = -1j * s
    return u


def dense_evolution(params, n_max, base=0):
    """U rho0 U^dagger on Fock levels base..n_max, projected onto field levels {n, n+1}."""
    dim = n_max - base + 1
    weights = (1 - params.lam) * params.lam ** np.arange(base, n_max + 1.0)
    rho0 = np.kron(np.diag([1 - params.p, params.p]), np.diag(weights))
    u = loop_propagator(params.gt, n_max, base)
    rho1 = u @ rho0 @ u.conj().T
    k = params.n - base
    idx = [k, dim + k, k + 1, dim + k + 1]
    return rho1[np.ix_(idx, idx)]


def window_evolution(params):
    """``dense_evolution`` on the oracle's window: Fock levels b..b+3, b = max(n-1, 0)."""
    base = max(params.n - 1, 0)
    return dense_evolution(params, base + 3, base)


def propagator(gt, n_max):
    """The oracle's propagator of one row on Fock levels 0..n_max."""
    return oracle._jc_unitaries(np.array([gt]), np.zeros(1), n_max + 1)[0]


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
        n_max = 120
        u = propagator(1.37, n_max)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2 * (n_max + 1)))) <= 1e-12

    def test_propagator_equals_loop_reference(self):
        for gt in (0.0, 0.83, 2.1, 9.7):
            for n_max in (0, 1, 2, 7, 63):
                u = propagator(gt, n_max)
                assert np.array_equal(bits(u), bits(loop_propagator(gt, n_max))), (gt, n_max)

    def test_excitation_conservation(self):
        n_max = 60
        u = propagator(2.1, n_max)
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
        # one block over n up to 300 with the edge values p in {0, 1}, lam = 0
        rows = [
            (p, lam, rng.uniform(0.0, 7.0), n)
            for n in (0, 1, 2, 3, 10, 60, 300)
            for p, lam in ((0.0, rng.uniform(0.0, 0.999)), (1.0, 0.0), (rng.uniform(), 0.0))
        ]
        got = oracle.jc_fock_block(*(list(column) for column in zip(*rows)))
        for k, row in enumerate(rows):
            wide = dense_evolution(mx.AtomFieldParams(*row), row[3] + 40)
            assert np.max(np.abs(got[k] - wide)) <= 1e-15, row

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
        # n up to 1e6, with lam close enough to 1 that the weights at n do not
        # underflow: the oracle's four-level window costs the same at any n
        for _ in range(300):
            n = int(10.0 ** rng.uniform(0.0, 6.0))
            params = mx.AtomFieldParams(
                p=rng.uniform(),
                lam=1.0 - 10.0 ** -rng.uniform(0.0, 7.0),
                gt=rng.uniform(0.0, 7.0) / math.sqrt(n + 1.0),
                n=n,
            )
            closed = mx.jc_projected(params).matrix
            assert mx.max_abs_deviation(closed, jc_fock_projected(params)) <= 1e-15, params


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
    left = np.vstack(coherent_projection(basis, w * alpha))  # rows: <+|, <-|
    right = np.vstack(coherent_projection(basis, wp * alpha))
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
    op = np.vstack(coherent_projection(basis, delta))
    om = np.vstack(coherent_projection(basis, -delta))
    combos = ((op, op, om, om), (om, om, op, op), (op, om, om, op), (om, op, op, om))
    return [
        np.einsum("n,an,bn,cn,dn->abcd", weight, a, b, c.conj(), d.conj()).reshape(4, 4)
        for a, c, b, d in combos
    ]


def axis_points(rng):
    """Two V = 1 node sets and six seeded ones with V up to 1e4."""
    points = [(1.0, 1.5, 2.0), (1.0, -0.3, 0.4)]
    for _ in range(6):
        v = 10.0 ** rng.uniform(0.0, 4.0)
        points.append((v, rng.uniform(-5.0, 5.0) * math.sqrt(v), 10.0 ** rng.uniform(-0.5, 0.7)))
    return points


class TestAxisFactors:
    @pytest.mark.parametrize("order", [80, 160])
    def test_factors_multiply_to_coherent_overlaps(self, order):
        # the oracle's x factors times the y factors its sums fold must be the
        # public overlaps at every node of the 2-D grid
        for v, d, g in axis_points(np.random.default_rng(23)):
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
                        ref = coherent_overlap(sigma * g, w * kappa * alpha).reshape(got.shape)
                        dev = np.abs(got - ref).max()
                        assert dev <= 1e-12, (v, d, g, order, kappa, w, sigma, dev)

    @pytest.mark.parametrize("order", [80, 160])
    def test_y_sums_are_the_real_part_of_the_complex_products(self, order):
        # the rule's mirror symmetry cancels the sines in pairs: the real
        # cosine sums are the literal complex y products up to rounding, and
        # those products' imaginary parts are rounding alone
        for v, d, g in axis_points(np.random.default_rng(37)):
            re, a, im, b = one_set_nodes(v, d, order)
            for kappa in (1.0, 1.0 / math.sqrt(2.0)):
                fy = one_set_factors(re, im, g, kappa)[1]
                if kappa != 1.0:
                    fy = split_rows(fy)
                literal = (fy * b) @ fy.conj().T
                got = one_set_y_sums(im, b, g, kappa)
                assert got.dtype == np.float64 and got.shape == literal.shape
                scale = np.abs(literal).max()
                dev = np.abs(got - literal.real).max()
                assert dev <= 4 * EPS * scale, (v, d, g, order, kappa, dev / scale)
                assert np.abs(literal.imag).max() <= order * EPS * scale, (v, d, g, order, kappa)


class TestBeamSplitterBlocks:
    def test_blocks_match_per_term_einsum(self):
        # the same order^2 node terms summed in another order: each sum's
        # rounding grows like sqrt(order^2) eps, so two of them differ by
        # at most about 2 order eps of the largest entry
        rng = np.random.default_rng(19)
        points = list(cli._kerr_family_grid())
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


def per_pair_node_blocks(c, fx, a, im, b, g, kappa, phases):
    """The four node sums, one explicit x product and one cosine y sum per (w, w') pair.

    Ket row r has the y phase phases[r] g kappa im at w = +1 and its negative
    at w = -1, where the rows are reversed; the y sum of the pair (w, w') is
    sum_j b_j e^{-im_j^2} cos((w phases[r] - w' phases[r']) g kappa im_j).
    """
    rows = {1: fx, -1: fx[::-1]}
    weight = b * np.exp(-im * im)

    def y_sum(w, wp):
        steps = np.subtract.outer(w * phases, wp * phases)
        return (np.cos((steps[..., None] * g) * (kappa * im)) * weight).sum(axis=-1)

    return {(w, wp): c @ (((rows[w] * a) @ rows[wp].T) * y_sum(w, wp)) @ c.T for w in rows for wp in rows}


class TestAssembly:
    # each entry of the oracle's broadcast kron is one product, as in np.kron,
    # and every sum keeps the order of the literal form: equal on any BLAS
    SCHEMES = ("kerr_micro_thermal", "bs", "tt", "direct_kerr")

    def test_assemblies_equal_kron_reference_on_node_blocks(self):
        rng = np.random.default_rng(29)
        points = list(cli._kerr_family_grid())[::7]
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
        # one x product and one set of cosine sums with reversed rows against
        # an x product and a cosine sum per pair: the same sums, up to the
        # order a matrix product adds in
        rng = np.random.default_rng(41)
        cases = []
        for v, d, g in ((1.0, 1.5, 2.0), (10.0, 3.0, 1.0), (1000.0, -40.0, 3.0), (2.0, 0.0, 0.4)):
            for order in (80, 160):
                re, a, im, b = one_set_nodes(v, d, order)
                cases.append((oracle._cat_rows([g])[0], re, a, im, b, g))
        for _ in range(4):
            # any real x nodes, and y nodes and weights with the rule's mirror symmetry
            half, weight = rng.uniform(0.0, 3.0, size=40), rng.uniform(size=40)
            im, b = np.concatenate([-half[::-1], half]), np.concatenate([weight[::-1], weight])
            c = rng.normal(size=(2, 2))
            cases.append((c, rng.normal(size=80), rng.uniform(size=80), im, b, rng.uniform(0.3, 5.0)))
        for c, re, a, im, b, g in cases:
            for kappa, phases in ((1.0, oracle._SIGMA_PHASES), (1.0 / math.sqrt(2.0), oracle._SPLIT_PHASES)):
                fx = one_set_factors(re, im, g, kappa)[0]
                cat = c
                if kappa != 1.0:
                    fx, cat = split_rows(fx), qlinalg._kron(c, c)
                y = one_set_y_sums(im, b, g, kappa)
                stacks = oracle._node_blocks(*(x[None] for x in (cat, fx, y, a)))
                got = {key: block[0] for key, block in stacks.items()}
                refs = per_pair_node_blocks(cat, fx, a, im, b, g, kappa, phases)
                assert sorted(got) == sorted(refs)
                scale = max(np.abs(ref).max() for ref in refs.values())
                for key, ref in refs.items():
                    assert got[key].dtype == np.float64
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

    @pytest.mark.parametrize("scheme", oracle.KERR_SCHEMES)
    def test_column_types_give_the_same_bits(self, scheme):
        # the node sets are keyed by Python floats, whatever carries the columns
        v, d, g = [1.0, 10.0, 1.0, 100.0, 10.0], [2.0, 0.0, 3.0, -7.0, 0.0], [2.0, 1.0, 2.0, 3.0, 1.0]
        r = None if scheme == "direct_kerr" else [0.5, 1.0, 0.0, 0.1, 0.5]
        sign = None if scheme in ("kerr_micro_thermal", "direct_kerr") else [1, -1, 1, 1, -1]
        floats = oracle.quadrature_block(scheme, r, v, d, g, sign)
        numpy = oracle.quadrature_block(scheme, r, *(np.array(c) for c in (v, d, g)), sign)
        ints = oracle.quadrature_block(scheme, r, *([int(x) for x in c] for c in (v, d, g)), sign)
        assert np.array_equal(bits(numpy), bits(floats)) and np.array_equal(bits(ints), bits(floats))

    @pytest.mark.parametrize("scheme", oracle.KERR_SCHEMES)
    def test_signed_zero_displacements_share_a_node_set(self, scheme):
        # d = -0.0 and 0.0 are one key, whichever comes first, and give the same
        # nodes: the caches are cleared, as they too take -0.0 for 0.0
        v, g = [10.0, 1.0, 10.0, 1.0], [2.0, 2.0, 2.0, 2.0]
        r = None if scheme == "direct_kerr" else [0.5] * 4
        sign = None if scheme in ("kerr_micro_thermal", "direct_kerr") else [1] * 4
        got = []
        for d in ([-0.0, -0.0, 0.0, 0.0], [0.0, 0.0, -0.0, -0.0]):
            for cache in (oracle._thermal_nodes, oracle._sandwich_block, oracle._bs_term_matrices):
                cache.cache_clear()
            got.append(oracle.quadrature_block(scheme, r, v, d, g, sign))
        assert np.array_equal(bits(got[0][:2]), bits(got[0][2:]))
        assert np.array_equal(bits(got[0]), bits(got[1]))

    def test_validate_all_reuses_the_node_sets_of_kerr_grid(self):
        # the four cross-Kerr grids list the same node sets in the same order,
        # so their chunks are the same cache keys from grid to grid
        caches = (oracle._thermal_nodes, oracle._sandwich_block, oracle._bs_term_matrices)
        for cache in caches:
            cache.cache_clear()
        misses = {}
        for name in cli.VALIDATION_GRIDS:
            assert cli.run_validation(name, out=io.StringIO()) == 0
            misses[name] = [cache.cache_info().misses for cache in caches]
        assert misses["kerr-grid"][0] > 0
        assert misses["bs-grid"][0] == misses["kerr-grid"][0]  # no _thermal_nodes miss
        assert misses["direct-grid"][1] == misses["kerr-grid"][1]  # no _sandwich_block miss

    def test_kerr_grid_evaluates_its_v1_node_sets_once(self):
        # a V = 1 node set is a one-node point mass at every order: its chunk
        # is one _sandwich_block miss for both orders, the others one per order
        grid = cli._grid_columns("kerr-grid")
        sets = list(dict.fromkeys(zip(grid["V"], grid["d"], grid["gamma"])))
        ones = [row for row in sets if row[0] == 1.0]
        assert 0 < len(ones) <= oracle._NODE_CHUNK < len(sets) - len(ones) <= 2 * oracle._NODE_CHUNK
        caches = (oracle._thermal_nodes, oracle._sandwich_block, oracle._bs_term_matrices)
        for cache in caches:
            cache.cache_clear()
        v, d, g = (list(column) for column in zip(*ones))
        oracle.quadrature_block("kerr_micro_thermal", [1.0] * len(v), v, d, g, None)
        assert oracle._sandwich_block.cache_info().misses == 1
        for cache in caches:
            cache.cache_clear()
        cli.validate_grid("kerr-grid")
        assert oracle._sandwich_block.cache_info().misses == 1 + 2 * 2

    @pytest.mark.parametrize("scheme", oracle.KERR_SCHEMES)
    def test_v1_rows_are_the_same_bits_at_both_orders(self, scheme):
        # so their doubling deviation is exactly 0
        v, d, g = [1.0] * 4, [0.0, 1.5, -2.0, 1.5], [2.0, 1.0, 0.4, 3.0]
        r, sign = [0.0, 1.0, 0.3, 1.0], [1, -1, -1, 1]
        nodes = ((1.0,) * 4, tuple(d), tuple(g))
        coarse, fine = (
            oracle._quad_once(scheme, r, sign, nodes, np.arange(4), order) for order in oracle._STORED_ORDERS
        )
        assert np.array_equal(bits(coarse), bits(fine))

    def test_signed_zeros_survive_the_row_step(self):
        # at d = 0 the odd blocks hold exact zeros; rows sharing that node set
        # with r in {0, 1} and both signs take their set's parts at the end and
        # must be their one-row calls bit for bit, -0.0 included
        negative_zeros = 0
        for v in (1.0, 10.0):
            r, sign = [0.0, 0.0, 1.0, 1.0], [1, -1, 1, -1]
            for scheme in oracle.KERR_SCHEMES:
                rows_r = None if scheme == "direct_kerr" else r
                rows_sign = None if scheme in ("kerr_micro_thermal", "direct_kerr") else sign
                got = oracle.quadrature_block(scheme, rows_r, [v] * 4, [0.0] * 4, [2.0] * 4, rows_sign)
                for k in range(4):
                    kw = {"thermal": mx.ThermalParams(v, 0.0), "basis": mx.CatBasis(2.0)}
                    if rows_r is not None:
                        kw["micro"] = mx.MicroState(r[k])
                    if rows_sign is not None:
                        kw["sign"] = sign[k]
                    one = quadrature_projected(scheme, **kw).entries
                    assert np.array_equal(bits(got[k]), bits(one)), (scheme, v, r[k], sign[k])
                negative_zeros += int(np.sum((got.real == 0.0) & np.signbit(got.real)))
        assert negative_zeros > 0

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

    def test_jc_block_of_mixed_n_equals_dense_evolution(self):
        # one shuffled block over several n, repeated rows and the edge values
        # p in {0, 1}, lam = 0: every row must be the 2-D kron and matmul of
        # its own parameters on its own window, wherever it sits in the stack
        rng = np.random.default_rng(53)
        rows = []
        for n in (0, 1, 2, 3, 10, 60):
            for _ in range(12):
                p = float(rng.choice([0.0, 1.0, rng.uniform()]))
                lam = float(rng.choice([0.0, rng.uniform(0.0, 0.99)]))
                rows.append((p, lam, rng.uniform(0.0, 10.0), n))
        rows += rows[:5] + rows[-2:]
        order = rng.permutation(len(rows))
        rows = [rows[k] for k in order]
        got = oracle.jc_fock_block(*(list(column) for column in zip(*rows)))
        for k, row in enumerate(rows):
            params = mx.AtomFieldParams(*row)
            assert np.array_equal(bits(got[k]), bits(window_evolution(params))), row

    def test_jc_block_memory_is_bounded(self):
        # a row's evolution on all Fock levels 0..n+2 would hold 4 (n+3)^2
        # complex entries: about 300 MB for 256 rows at n = 60, and 23 MB
        # per row at n = 600
        for rows, n, bound in ((256, 60, 16e6), (8, 600, 1e6)):
            args = [0.5] * rows, [0.9] * rows, list(np.linspace(0.0, 3.0, rows)), [n] * rows
            tracemalloc.start()
            try:
                oracle.jc_fock_block(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (rows, n, peak)

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
        assert np.all(block.imag == 0.0)

    def test_kernel_reconstruction(self):
        v, d, g = 10.0, 5.0, 2.0
        basis = mx.CatBasis(g)
        block = one_set(oracle._sandwich_block, v, d, g, 160)[1, 1]
        hi = block[0, 0].real / basis.n_plus**2
        lo = block[1, 1].real / basis.n_minus**2
        s = block[0, 1].real / (basis.n_plus * basis.n_minus)
        s_c, r_c, _, log_c = states._scaled_kernels(*np.array([v, d, g]))
        c = math.exp(log_c)  # the kernels at their true scale
        assert hi == pytest.approx(c + float(r_c) * c, rel=1e-8)
        assert lo == pytest.approx(c - float(r_c) * c, rel=1e-8)
        assert s == pytest.approx(float(s_c) * c, rel=1e-8)

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

    @pytest.mark.parametrize("order", oracle._STORED_ORDERS)
    def test_stored_rules_are_hermgauss(self, order):
        x, w = stored_rule(order)
        ref_x, ref_w = np.polynomial.hermite.hermgauss(order)
        np.testing.assert_array_max_ulp(x, ref_x, maxulp=2)
        np.testing.assert_array_max_ulp(w, ref_w, maxulp=2)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("order", [*oracle._STORED_ORDERS, 81, 100])
    def test_rules_are_mirror_symmetric(self, order):
        # the y sums drop the sines on this symmetry: im odd and b even over the nodes
        if order in oracle._STORED_ORDERS:
            x, w = stored_rule(order)
        else:
            x, w = np.polynomial.hermite.hermgauss(order)
        assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
        if order not in oracle._STORED_ORDERS:
            return  # the oracle has no rule of another order
        x, logw = oracle._gh_rule(order)
        assert np.array_equal(x[::-1], -x) and np.array_equal(logw[::-1], logw)
        for v, d in ((2.0, 0.0), (10.0, 3.0), (1000.0, -40.0)):
            re, a, im, b = one_set_nodes(v, d, order)
            assert np.array_equal(im[::-1], -im) and np.array_equal(b[::-1], b)

    def test_blocks_are_real_and_the_result_complex(self):
        # float64 from the nodes to the doubling check, complex128 on return
        nodes = (1.0, 10.0, 1000.0), (1.5, 3.0, -40.0), (2.0, 1.0, 3.0)
        for blocks in (oracle._sandwich_block, oracle._bs_term_matrices):
            for block in blocks(*nodes, 80).values():
                assert block.dtype == np.float64 and block.shape[0] == 3
        for scheme in oracle.KERR_SCHEMES:
            r = None if scheme == "direct_kerr" else [0.3] * 3
            sign = None if scheme in ("kerr_micro_thermal", "direct_kerr") else [1, -1, 1]
            out = oracle.quadrature_block(scheme, r, *nodes, sign)
            assert out.dtype == np.complex128 and np.all(out.imag == 0.0), scheme

    def test_stored_orders_build_no_rule(self, monkeypatch):
        def refuse(order):
            raise AssertionError(f"hermgauss({order}) called")

        oracle._gh_rule.cache_clear()
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", refuse)
        try:
            for order in oracle._STORED_ORDERS:
                x, logw = oracle._gh_rule(order)
                stored_x, stored_w = stored_rule(order)
                assert np.array_equal(x, stored_x)
                assert np.array_equal(logw, np.log(stored_w) + stored_x * stored_x)
        finally:
            oracle._gh_rule.cache_clear()

    def test_unstable_grid_detected(self):
        # the doubling check at the shipped orders: at V = 1000, d = 0, gamma = 12
        # order 80 is too coarse for direct_kerr
        t = mx.ThermalParams(1000.0, 0.0)
        with pytest.raises(OracleUnstableError) as error:
            quadrature_projected("direct_kerr", thermal=t, basis=mx.CatBasis(12.0))
        assert str(error.value).startswith("direct_kerr: quadrature self-convergence failed")
        assert str(error.value).endswith("(V=1000.0, d=0.0, gamma=12.0)")

    def test_non_finite_entries_are_unstable(self, monkeypatch):
        # NaN - NaN is NaN, which no "greater than" comparison catches
        monkeypatch.setattr(oracle, "_quad_once", lambda *args: np.full((1, 4, 4), np.nan))
        t = mx.ThermalParams(10.0, 1.0)
        with pytest.raises(OracleUnstableError, match="nan"):
            quadrature_projected("direct_kerr", thermal=t, basis=G2)

    @pytest.mark.parametrize("scheme", ["bs", "tt", "direct_kerr"])
    @pytest.mark.parametrize("variance", [1.0, 10.0])
    def test_tiny_gamma_is_unstable_without_warning(self, scheme, variance):
        # at gamma = 1e-100 the odd-cat norm squared is about 1/(4 gamma^2): the
        # Kronecker products and the sums overflow, which must not warn (the
        # suite turns RuntimeWarning into an error); the doubling check fails them
        r, sign = (None, None) if scheme == "direct_kerr" else ([0.5], [1])
        with pytest.raises(OracleUnstableError) as error:
            oracle.quadrature_block(scheme, r, [variance], [0.5], [1e-100], sign)
        assert str(error.value).startswith(f"{scheme}: quadrature self-convergence failed")
        assert str(error.value).endswith(f"(V={variance}, d=0.5, gamma=1e-100)")

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
