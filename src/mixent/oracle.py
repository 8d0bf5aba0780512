"""Independent brute-force validators for the closed-form projected states.

Two routes, deliberately different from the constructors in
:mod:`mixent.schemes`:

* :func:`jc_fock_projected` builds the atom (x) thermal-field product state
  on the Fock window b..b+3, b = max(n-1, 0), and evolves it literally with
  a dense exchange propagator: the projected 4x4 block is (P U) rho (P U)^dagger
  with P U the four rows of U on the projected levels, never touching the
  closed-form entries.  The
  propagator is block diagonal over the doublets {|e,k>, |g,k+1>}, and the
  block involves only the doublets n-1, n and n+1, which the window holds
  whole; the two edge states, whose partners lie outside it, are frozen.  So
  the block is exact for every n and no thermal tail budget is needed.
* :func:`quadrature_projected` evaluates every matrix element of the four
  cross-Kerr schemes by two-dimensional Gauss-Hermite quadrature over the
  thermal coherent-state weight, using nothing but coherent-overlap values at
  the nodes.  Two-mode schemes tensor two 2D quadratures.

Node placement: the integrands are products of a wide thermal Gaussian
(precision u = 2/(V-1) per axis) and coherent overlaps that decay like
exp(-|alpha|^2).  Nodes are therefore centered at u d/(u+1) and scaled by
1/sqrt(u+1) -- the precision of the *product* -- which keeps every factor of
the integrand resolved for any V; scaling by the thermal width alone misses
the overlap peaks entirely once V >> 1.  In these coordinates each integrand
term reduces to exp(2 zeta x) with |zeta| <= 2 gamma, for which
``QUADRATURE_ORDER`` = 80 points per axis are accurate to far below the
validation tolerances.  The only rules are those of orders 80 and 160,
``hermgauss``'s output stored bit for bit in ``_gauss_hermite.npy``, so no
process builds one.  The grid is the product of one set of nodes per
real axis: node (i, j) is alpha = re_i + i im_j with weight a_i b_j.  As d
and gamma are real, the thermal weight and every coherent overlap
<sigma gamma|kappa alpha> split into a real x factor and the y factor
exp(-(kappa im)^2/2 + i sigma gamma kappa im), each of modulus <= 1.  Every
block is one node sum over the cat projections of two kets, keyed by
(w, w') in {+-1}^2: single-mode |w alpha> for the 2x2 sandwich blocks, the
split |w delta>|-w delta> (delta = alpha/sqrt(2)) for the 4x4 beam-splitter
blocks.  Each entry of that sum over the order^2 nodes is evaluated as
products of two 1-D sums over order nodes.  The x sum is one real product
(fx a) fx^T per node set.  The y sum (fy b) fy^dagger is never formed in
complex: its entry depends only on the difference of the two rows' phases,
and the rule is mirror-symmetric (x[::-1] == -x, w[::-1] == w), so its sines
cancel in pairs and it is the real cosine sum
T_t = sum_j b_j e^{-im_j^2} cos(t gamma kappa im_j) -- T_0 and T_2 for the
sandwich blocks, T_0, T_2 and T_4 for the beam-splitter blocks.  The kets at
w = -1 have the rows of the w = +1 kets reversed, so the four (w, w') blocks
are slices of one x product and one set of cosine sums.  The schemes' 4x4
matrices are assembled from the blocks with a broadcast Kronecker product,
one product per entry as in ``np.kron``, and sums in the order of their
formulas.  Everything from the nodes to the doubling check is float64;
:func:`quadrature_block` casts its result to complex128 once, on return.

Each oracle is a block function over N rows, like the constructors:
:func:`jc_fock_block` and :func:`quadrature_block` take one column per
parameter (those of the schemes' block functions) and return the (N, 4, 4)
stack; the public one-row oracles are the same functions at one row, so both
give the same bits.  The ``jc`` block evolves all its rows as one stacked
product (P U) rho0 (P U)^dagger of 4x8, 8x8 and 8x4 matrices.  The quadrature
block dedupes its rows' (V, d, gamma) node sets with a dict keyed by the
Python floats, in the order they first occur with the V = 1 sets first, and
evaluates the M distinct ones in chunks of at most ``_NODE_CHUNK``: the
nodes, x factors and cosines as (M, ..., order) arrays, the x sums as stacked
matmuls and the cosine sums as stacked reductions.  The cosines are taken on
half the nodes and mirrored, as im is odd over them; every sum still runs
over all nodes in node order.  A V = 1 set is a point mass, one node at any
order, so its chunks are evaluated once, at order 1, for both orders.  The
assembly forms per node set everything that does not depend on r or sign:
for ``bs`` and ``tt`` the even and odd parts, for ``direct_kerr`` the whole
matrix.  Each row takes its set's parts and adds its r sign terms last, in
the order of the formulas above.  Every per-node-set value is a numpy column.

Every quadrature result is re-evaluated at twice the order; entries that move
by more than ``DOUBLING_TOLERANCE`` raise :class:`OracleUnstableError`, which
names the first such row of the block.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

from .qlinalg import BipartiteMatrix, _kron
from .states import AtomFieldParams, CatBasis, MicroState, ThermalParams, _cat_norms

__all__ = [
    "OracleUnstableError",
    "TruncationTailError",
    "fock_space_for",
    "jc_fock_projected",
    "quadrature_projected",
    "thermal_fock_matrix",
]

KERR_SCHEMES = ("kerr_micro_thermal", "bs", "tt", "direct_kerr")


class TruncationTailError(ValueError):
    """Thermal weight beyond the Fock truncation exceeds the allowed tail."""


class OracleUnstableError(RuntimeError):
    """Doubling the quadrature order moved a validated entry too much."""


# Thermal probability weight allowed above an explicit Fock truncation, and
# the largest truncation fock_space_for will choose.
TAIL_TOLERANCE = 1e-12
N_MAX_CAP = 2000

# Gauss-Hermite points per real axis, and the largest entry change allowed
# when the order is doubled.
QUADRATURE_ORDER = 80
DOUBLING_TOLERANCE = 1e-10


def fock_space_for(lam: float, n: int = 0) -> int:
    """Smallest n_max >= n + 2 whose thermal tail lam^(n_max+1) is within budget.

    The test is the one :func:`thermal_fock_matrix` applies, so the truncation
    returned here always passes it.
    """
    n_max = n + 2
    while n_max <= N_MAX_CAP and lam ** (n_max + 1) > TAIL_TOLERANCE:
        n_max += 1
    if n_max > N_MAX_CAP:
        raise TruncationTailError(
            f"lam={lam}, n={n} needs n_max > cap {N_MAX_CAP} for tail {TAIL_TOLERANCE:.0e}"
        )
    return n_max


def _thermal_weights(lam, levels: np.ndarray) -> np.ndarray:
    """Photon weights (1-lam) lam^k at the Fock levels k."""
    return (1.0 - lam) * lam**levels


def thermal_fock_matrix(lam: float, n_max: int) -> BipartiteMatrix:
    """Thermal state diag((1-lam) lam^k), k = 0..n_max, as a (1, n_max+1) bipartite matrix."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam}")
    tail = lam ** (n_max + 1)
    if tail > TAIL_TOLERANCE:
        raise TruncationTailError(f"tail {tail:.3e} exceeds budget {TAIL_TOLERANCE:.0e}")
    return BipartiteMatrix(1, n_max + 1, np.diag(_thermal_weights(lam, np.arange(n_max + 1.0))))


def _jc_unitaries(gt: np.ndarray, base: np.ndarray, levels: int) -> np.ndarray:
    """Dense exchange propagators of M rows on atom (x) Fock levels base..base+levels-1.

    An (M, 2 levels, 2 levels) stack; row atom * levels + j is |atom, base + j>
    with atom 0 = ground, 1 = excited.  U is block diagonal over the doublets
    {|e,k>, |g,k+1>}, rotating each by the angle gt sqrt(k+1).  The edge states
    |g,base> and |e,base+levels-1> have their partners outside the levels, so
    they are frozen and U stays exactly unitary; every doublet inside the
    levels is evolved exactly.
    """
    theta = gt[:, None] * np.sqrt(base[:, None] + np.arange(1.0, levels))  # doublet base+j-1
    u = np.zeros((len(gt), 2 * levels, 2 * levels), dtype=np.complex128)
    diagonal = np.arange(2 * levels)
    u[:, diagonal, diagonal] = 1.0  # kept at |g,base> and |e,base+levels-1>, overwritten below
    g, e = np.arange(1, levels), np.arange(levels, 2 * levels - 1)  # |g,k+1> and |e,k>
    u[:, g, g] = u[:, e, e] = np.cos(theta)
    # -i sin between |e,k> and |g,k+1>, with real part +0.0
    u.imag[:, g, e] = u.imag[:, e, g] = -np.sin(theta)
    return u


def jc_fock_projected(params: AtomFieldParams) -> BipartiteMatrix:
    """Evolve the atom-thermal product state as U rho U^dagger, project the field.

    The initial state diag(1-p, p) (x) diag(P_b, ..., P_{b+3}), with photon
    weights P_k = (1-lam) lam^k on the Fock window b..b+3, b = max(n-1, 0), is
    evolved with the dense exchange propagator of that window, and the
    submatrix on field levels {n, n+1} is returned in the basis
    {|g,n>, |e,n>, |g,n+1>, |e,n+1>}.  That block only involves the doublets
    n-1, n and n+1, which the window holds whole, so it is exact for every
    n and every lam < 1: no thermal tail budget applies.  It is
    :func:`jc_fock_block` at one row.
    """
    row = jc_fock_block([params.p], [params.lam], [params.gt], [params.n])[0]
    return BipartiteMatrix(2, 2, row)


# the projected block in the window's layout: |g,o>, |e,o>, |g,o+1>, |e,o+1>
_JC_BLOCK = np.array([0, 4, 1, 5])


def jc_fock_block(p, lam, gt, n) -> np.ndarray:
    """``jc_fock_projected`` of N rows, from one column per parameter: an (N, 4, 4) stack.

    The columns are those of ``schemes.jc_block``; they are not checked.  n
    is carried as floats, so any n the parameters accept is evaluated.  Every
    row is an evolution on its own four-level window, and the block is one
    stacked dense product (P U) rho0 (P U)^dagger of the four rows P U of each
    8x8 propagator that land on the projected levels.
    """
    p, lam, gt, n = (np.asarray(column, dtype=float) for column in (p, lam, gt, n))
    base = np.maximum(n - 1.0, 0.0)
    weights = _thermal_weights(lam[:, None], base[:, None] + np.arange(4.0))
    rho0 = np.zeros((len(p), 8, 8), dtype=np.complex128)
    diagonal = np.arange(8)
    # diag(1-p, p) (x) diag(weights): the products on np.kron's diagonal
    rho0[:, diagonal, diagonal] = np.concatenate([(1.0 - p)[:, None] * weights, p[:, None] * weights], 1)
    # the projected rows P U of each propagator: field level n sits at window offset min(n, 1)
    idx = np.minimum(n, 1.0).astype(int)[:, None] + _JC_BLOCK
    pu = _jc_unitaries(gt, base, 4)[np.arange(len(p))[:, None], idx]
    return pu @ rho0 @ np.conjugate(pu).transpose(0, 2, 1)


# The Gauss-Hermite orders of the oracle, QUADRATURE_ORDER and its double,
# and the file that stores their rules.
_STORED_ORDERS = (QUADRATURE_ORDER, 2 * QUADRATURE_ORDER)
_STORED_RULES = os.path.join(os.path.dirname(__file__), "_gauss_hermite.npy")


@lru_cache(maxsize=2)
def _gh_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and log(w) + x^2 of the Gauss-Hermite rule of an order in ``_STORED_ORDERS``.

    The file holds the x then the w of each stored order, in the order of
    ``_STORED_ORDERS``, bit for bit as ``hermgauss`` returned them, so no
    process builds a rule.  It is made by::

        np.save(path, np.concatenate([np.concatenate(hermgauss(n)) for n in _STORED_ORDERS]))
    """
    start = 2 * sum(_STORED_ORDERS[: _STORED_ORDERS.index(order)])
    x, w = np.load(_STORED_RULES)[start : start + 2 * order].reshape(2, order)
    # log(w) + x^2 stays O(1) where w reaches 1.8e-129 (order 160)
    return x, np.log(w) + x * x


# The node caches are keyed by a chunk of at most _NODE_CHUNK node sets and the
# order; one order-160 entry of _thermal_nodes is at most about 160 KB.  The
# kerr-, tt- and direct-grid of ``mixent validate all`` have the same node
# sets: one V = 1 chunk for both orders and two chunks per order, which eight
# entries keep from grid to grid.
@lru_cache(maxsize=8)
def _thermal_nodes(variances: tuple, displacements: tuple, order: int):
    """Per-axis quadrature nodes and positive weights of M node sets, each an (M, n) array.

    Returns (re, a, im, b): node (i, j) of set m is alpha = re[m, i] + 1j im[m, j]
    with weight a[m, i] b[m, j].  The thermal Gaussian is a product over the
    two axes, so each axis weight folds its Gauss-Hermite weight, its
    Jacobian, its thermal factor and half the normalization into a single
    exponential; f is evaluated as is.  Every V is 1, where the thermal weight
    is a point mass at d (n = 1), or every V is above 1 (n = order).
    """
    d = np.array(displacements)[:, None]
    if variances[0] == 1.0:
        ones = np.ones_like(d)
        return d, ones, np.zeros_like(d), ones
    v = np.array(variances)[:, None]
    u = 2.0 / (v - 1.0)
    scale = 1.0 / np.sqrt(u + 1.0)
    center = u * d / (u + 1.0)
    # log(2/(pi (V-1))) as a difference: pi (V-1) overflows near V = 5.7e307
    log_axis = 0.5 * (math.log(2.0 / math.pi) - np.log(v - 1.0)) + np.log(scale)
    x, logw = _gh_rule(order)
    re = center + scale * x
    im = scale * x
    a = np.exp(logw + log_axis - u * (re - d) ** 2)
    b = np.exp(logw + log_axis - u * im**2)
    return re, a, im, b


# the single-mode ket rows sigma = +1, -1; sigma is also their y phase in
# units of gamma kappa im, and s1 - s2 that of the split rows (s1, s2)
_SIGMA_PHASES = np.array([1, -1])
_SPLIT_PHASES = np.array([0, 2, -2, 0])


def _x_factors(re: np.ndarray, gammas: np.ndarray, kappa: float) -> np.ndarray:
    """x factors fx = exp(-(kappa re - sigma gamma)^2/2) of <sigma gamma|kappa alpha>, (M, 2, n).

    Rows sigma = +1, -1 of M node sets.  At alpha = re + i im the overlap is
    fx[m, sigma, i] times the y factor exp(-(kappa im)^2/2 + i sigma gamma kappa im),
    each of modulus <= 1 for any gamma.  The factors of -kappa alpha are the
    rows reversed, as <sigma g|-b> = <-sigma g|b>.
    """
    return np.exp(-0.5 * (kappa * re[:, None, :] - _SIGMA_PHASES[:, None] * gammas[:, None, None]) ** 2)


def _y_sums(im: np.ndarray, b: np.ndarray, gammas: np.ndarray, kappa: float, phases: np.ndarray) -> np.ndarray:
    """The y node sums of M node sets, (M, k, k) for the k rows of ``phases``.

    Ket row r has the y factor exp(-im^2/2 + i phases[r] gamma kappa im): the
    single-mode rows sigma at kappa = 1 and the split rows (s1, s2), with
    phase s1 - s2, at kappa = 1/sqrt(2), which keep |alpha|^2.  So entry
    (r, r') of sum_j b_j y_r(j) y_r'(j)^* is
    sum_j b_j e^{-im_j^2} e^{i (phases[r] - phases[r']) gamma kappa im_j}.  The
    rule is mirror-symmetric (x[::-1] == -x and w[::-1] == w), so im is odd and
    b even over the nodes, and the sines cancel in pairs: the entry is the
    real cosine sum T_t = sum_j b_j e^{-im_j^2} cos(t gamma kappa im_j) at
    t = |phases[r] - phases[r']|, one sum per even t.
    """
    steps = np.abs(np.subtract.outer(phases, phases)) // 2
    weight = b * np.exp(-im * im)
    t = np.arange(2.0, 2.0 * steps.max() + 1.0, 2.0)  # T_0 takes no cosine
    # im is odd over the nodes, so the cosines of the last n - half nodes are
    # those of the first n - half reversed: only half are evaluated
    n = im.shape[-1]
    half = (n + 1) // 2
    cos = np.cos((t * gammas[:, None])[:, :, None] * (kappa * im[:, None, :half]))
    cos = np.concatenate([cos, cos[:, :, : n - half][:, :, ::-1]], axis=-1)
    sums = [weight.sum(axis=-1)[:, None], (cos * weight[:, None, :]).sum(axis=-1)]
    return np.concatenate(sums, axis=1)[:, steps]


def _cat_rows(gammas) -> np.ndarray:
    """C = [[N+, N+], [N-, -N-]] of each gamma, (M, 2, 2).

    The cat projections (<+|, <-|) of the overlaps with (|gamma>, |-gamma>).
    """
    p, m = _cat_norms(np.array(gammas, dtype=float))
    return np.stack([p, p, m, -m], axis=-1).reshape(-1, 2, 2)


# rows of the kets at w = +1 and w = -1: the w = -1 factors are the w = +1 rows reversed
_ROWS = {1: slice(None), -1: slice(None, None, -1)}


def _node_blocks(c: np.ndarray, fx: np.ndarray, y: np.ndarray, a) -> dict:
    """Node sums sum_ij a_i b_j k_w(i, j) k_w'(i, j)^dagger of M node sets, keyed by (w, w').

    The ket at w = +1 is k(i, j) = c (fx[:, i] o fy[:, j]) and the ket at
    w = -1 has the rows of fx and fy reversed.  So one x sum (fx a) fx^T and
    the y sums y = (fy b) fy^dagger of :func:`_y_sums` per node set serve all
    four blocks: the (w, w') block is c (x[p][:, q] o y[p][:, q]) c^T, with p
    and q the rows of w and w'.  Every product is a stacked real matmul over
    the leading axis of node sets.
    """
    x = (fx * a[:, None, :]) @ fx.transpose(0, 2, 1)
    ct = c.transpose(0, 2, 1)
    return {
        (w, wp): c @ (x[:, p][:, :, q] * y[:, p][:, :, q]) @ ct
        for w, p in _ROWS.items()
        for wp, q in _ROWS.items()
    }


@lru_cache(maxsize=8)
def _sandwich_block(variances: tuple, displacements: tuple, gammas: tuple, order: int) -> dict:
    """Quadrature values of the 2x2 cat blocks <s| integral[P |w a><w' a|] |s'> of M node sets.

    All four blocks, keyed by (w, w'), as float64 (M, 2, 2) stacks from one pair of
    projections at +-alpha.  Every V is 1 or every V is above 1.
    """
    re, a, im, b = _thermal_nodes(variances, displacements, order)
    g = np.array(gammas)
    y = _y_sums(im, b, g, 1.0, _SIGMA_PHASES)
    return _node_blocks(_cat_rows(gammas), _x_factors(re, g, 1.0), y, a)


@lru_cache(maxsize=8)
def _bs_term_matrices(variances: tuple, displacements: tuple, gammas: tuple, order: int) -> dict:
    """Quadrature values of the 4x4 cat blocks <s1 s2| integral[P |k_w><k_w'|] |s1' s2'>.

    All four blocks of M node sets, keyed by (w, w'), as float64 (M, 4, 4) stacks.  The 50:50 splitter sends |w a> to k_w = |w delta>|-w delta>, delta = a/sqrt(2);
    rows (s1, s2) of its projections take C (x) C over the products of the
    single-mode axis factors at w delta and -w delta.  (1, 1) is the direct
    term, (-1, -1) its mirror, the mixed pairs the coherences.  Every V is 1
    or every V is above 1.
    """
    re, a, im, b = _thermal_nodes(variances, displacements, order)
    g, kappa = np.array(gammas), 1.0 / math.sqrt(2.0)
    # row (s1, s2) is f[s1] o f_-[s2], with f_- = f[::-1]; at w = -1 it is row
    # (-s1, -s2) of w = +1, so reversing all four rows gives w = -1 again
    f = _x_factors(re, g, kappa)
    fx = (f[:, :, None] * f[:, ::-1][:, None, :]).reshape(len(f), 4, -1)
    c = _cat_rows(gammas)
    return _node_blocks(_kron(c, c), fx, _y_sums(im, b, g, kappa, _SPLIT_PHASES), a)


# Node sets per call of a node cache: this bounds the (sets, order) arrays that
# one call holds, whatever the block size.  It buys memory, not speed: over 55
# cold `validate all` passes in one process (2 vCPU, numpy 2.4.6) the median
# pass took 4.9-5.1 ms at 32 and 4.75-4.9 ms unchunked, about 3% less; at 8 it
# took 9.9 ms, as a grid's chunks then outnumber a node cache's eight entries.
_NODE_CHUNK = 32


def _set_blocks(blocks, nodes: tuple, order: int) -> dict:
    """The blocks of each distinct node set, (M, n, n) per key, in the order of ``nodes``.

    ``blocks`` runs on chunks of at most ``_NODE_CHUNK`` node sets, first of
    those at V = 1 and then of the rest, which ``quadrature_block`` lists after
    them.  A V = 1 set is a one-node point mass at every order, so its chunks
    are evaluated, and cached, at order 1 and serve both orders.
    """
    variances, displacements, gammas = nodes
    ones = variances.count(1.0)
    parts = [
        blocks(variances[i:j], displacements[i:j], gammas[i:j], chunk_order)
        for start, stop, chunk_order in ((0, ones, 1), (ones, len(variances), order))
        for i in range(start, stop, _NODE_CHUNK)
        for j in [min(i + _NODE_CHUNK, stop)]
    ]
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


# Each assembly takes the blocks of the M node sets, (M, n, n) per key, and
# forms per node set whatever does not depend on r or sign; row k takes the
# parts of node set inverse[k] and applies its r and sign last, with the
# operations of the formula in its order.


def _quad_kerr_micro_thermal(b, r, sign, inverse):
    r = np.array(r)[:, None, None]
    top = np.stack([b[1, 1][inverse], r * b[1, -1][inverse]], axis=1)
    bottom = np.stack([r * b[-1, 1][inverse], b[-1, -1][inverse]], axis=1)
    blocks = np.stack([top, bottom], axis=1)
    return 0.5 * blocks.transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)


def _signed_rows(even, odd, r, sign, inverse) -> np.ndarray:
    """even + sign r odd of each row, from the even and odd parts of its node set."""
    signed_r = np.multiply(sign, r)[:, None, None]
    return even[inverse] + signed_r * odd[inverse]


def _quad_bs(b, r, sign, inverse):
    return _signed_rows(b[1, 1] + b[-1, -1], b[1, -1] + b[-1, 1], r, sign, inverse)


def _quad_tt(b, r, sign, inverse):
    blocks = np.stack([b[1, 1], b[-1, -1], b[1, -1], b[-1, 1]], axis=1)
    k = _kron(blocks, blocks)
    return _signed_rows(k[:, 0] + k[:, 1], k[:, 2] + k[:, 3], r, sign, inverse)


# U|a>|b> spreads into the four parity combinations (+,+), (-,+), (+,-) with
# weight 1/2 and (-,-) with weight -1/2; the projected state is the signed sum
# of tensor products of single-mode sandwich blocks, over (ket, bra) pairs.
_DIRECT_SIGNS = {(1, 1): 0.5, (-1, 1): 0.5, (1, -1): 0.5, (-1, -1): -0.5}
_DIRECT_TERMS = [(ket, bra) for ket in _DIRECT_SIGNS for bra in _DIRECT_SIGNS]
_DIRECT_WEIGHTS = np.array([_DIRECT_SIGNS[ket] * _DIRECT_SIGNS[bra] for ket, bra in _DIRECT_TERMS])


def _quad_direct_kerr(b, r, sign, inverse):
    first = np.stack([b[w1, w1p] for (w1, _), (w1p, _) in _DIRECT_TERMS], axis=1)
    second = np.stack([b[w2, w2p] for (_, w2), (_, w2p) in _DIRECT_TERMS], axis=1)
    terms = _DIRECT_WEIGHTS[:, None, None] * _kron(first, second)
    out = np.zeros((len(terms), 4, 4), dtype=terms.dtype)
    for t in range(len(_DIRECT_TERMS)):  # summed from zero in term order, one rounding per term
        out += terms[:, t]
    return out[inverse]


_ASSEMBLY = {
    "kerr_micro_thermal": _quad_kerr_micro_thermal,
    "bs": _quad_bs,
    "tt": _quad_tt,
    "direct_kerr": _quad_direct_kerr,
}


def _quad_once(scheme, r, sign, nodes, inverse, order):
    """A scheme's (N, 4, 4) matrices at one order; row k integrates over node set inverse[k]."""
    blocks = _bs_term_matrices if scheme == "bs" else _sandwich_block
    return _ASSEMBLY[scheme](_set_blocks(blocks, nodes, order), r, sign, inverse)


@np.errstate(over="ignore", invalid="ignore")  # the doubling check fails every non-finite entry
def quadrature_block(scheme: str, r, V, d, gamma, sign) -> np.ndarray:
    """``quadrature_projected`` of N rows, from one column per parameter: an (N, 4, 4) stack.

    The columns are those of the scheme's block function in
    :mod:`mixent.schemes` (r, V, d, gamma, sign); ``r`` is None for
    ``direct_kerr`` and ``sign`` None for ``kerr_micro_thermal`` and
    ``direct_kerr``.  They are not checked.  Rows with equal (V, d, gamma)
    share one node set (d = -0.0 and 0.0 give the same nodes and are merged).
    Each row is evaluated at ``QUADRATURE_ORDER`` and at twice that order; if
    any row's entries move by more than ``DOUBLING_TOLERANCE``,
    :class:`OracleUnstableError` names the first such row.
    """
    if scheme not in KERR_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {KERR_SCHEMES}")
    order = QUADRATURE_ORDER
    rows = list(zip(*(np.asarray(column, dtype=float).tolist() for column in (V, d, gamma))))
    # the distinct (V, d, gamma) in first-occurrence order, stably sorted to put V = 1 first
    sets = sorted(dict.fromkeys(rows), key=lambda row: row[0] != 1.0)
    index = {row: k for k, row in enumerate(sets)}
    inverse = np.array([index[row] for row in rows])
    nodes = tuple(zip(*sets))
    fine = _quad_once(scheme, r, sign, nodes, inverse, 2 * order)
    coarse = _quad_once(scheme, r, sign, nodes, inverse, order)
    dev = np.abs(coarse - fine)
    worst = dev.max(axis=(1, 2))
    unstable = np.flatnonzero(~(worst <= DOUBLING_TOLERANCE))  # NaN fails too
    if unstable.size:
        k = int(unstable[0])
        i, j = np.unravel_index(int(dev[k].argmax()), dev[k].shape)
        raise OracleUnstableError(
            f"{scheme}: quadrature self-convergence failed at entry ({i},{j}): "
            f"|order {order} - order {2 * order}| = {worst[k]:.3e} "
            f"> {DOUBLING_TOLERANCE:.0e} "
            f"(V={float(V[k])}, d={float(d[k])}, gamma={float(gamma[k])})"
        )
    return fine.astype(np.complex128)


def quadrature_projected(
    scheme: str,
    *,
    thermal: ThermalParams,
    basis: CatBasis,
    micro: MicroState | None = None,
    sign: int | None = None,
) -> BipartiteMatrix:
    """Projected 4x4 matrix of a cross-Kerr scheme by brute-force quadrature.

    Scale conventions match the closed forms they validate: the
    micro-thermal scheme carries the 1/2 of its trace-one pre-projection
    state, ``bs``/``tt`` return the unnormalized conditional kernel (term
    weights 1, 1, +-r, +-r) and ``direct_kerr`` the projection of the
    trace-one evolved state.

    The integral is evaluated at ``QUADRATURE_ORDER`` and at twice that
    order; entries must agree within ``DOUBLING_TOLERANCE`` or
    :class:`OracleUnstableError` is raised.  It is :func:`quadrature_block`
    at one row.
    """
    if scheme in ("kerr_micro_thermal", "bs", "tt") and micro is None:
        raise ValueError(f"scheme {scheme!r} needs the micro-state parameters")
    if scheme in ("bs", "tt"):
        if sign not in (1, -1):
            raise ValueError(f"scheme {scheme!r} needs sign=+1 or -1, got {sign!r}")
    r = None if micro is None else [micro.r]
    columns = [thermal.variance], [thermal.displacement], [basis.gamma]
    return BipartiteMatrix(2, 2, quadrature_block(scheme, r, *columns, [sign])[0])
