"""Independent brute-force validators for the closed-form projected states.

Two routes, deliberately different from the constructors in
:mod:`mixent.schemes`:

* :func:`jc_fock_projected` builds the atom (x) thermal-field product state
  on Fock levels 0..n+2, evolves it literally as U rho U^dagger with the
  dense :func:`jc_propagator` and slices out the projected 4x4 block, never
  touching the closed-form entries.  The propagator is block diagonal over
  the doublets {|e,k>, |g,k+1>}, so the block is exact for any truncation
  that holds level n+2 and no thermal tail budget is needed.
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
validation tolerances.  The grid is the product of one set of nodes per
real axis: node (i, j) is alpha = re_i + i im_j with weight a_i b_j.  As d
and gamma are real, the thermal weight and every coherent overlap
<sigma gamma|kappa alpha> split into an x factor and a y factor, each of
modulus <= 1.  Every block is one node sum over the cat projections of two
kets, keyed by (w, w') in {+-1}^2: single-mode |w alpha> for the 2x2
sandwich blocks, the split |w delta>|-w delta> (delta = alpha/sqrt(2)) for
the 4x4 beam-splitter blocks.  Each entry of that sum over the order^2
nodes is evaluated as products of two 1-D sums over order nodes.  The kets
at w = -1 have the rows of the w = +1 kets reversed, so each node set takes
one x product and one y product, and the four (w, w') blocks are slices of
them.  The schemes' 4x4 matrices are assembled from the blocks with a
broadcast Kronecker product, one product per entry as in ``np.kron``, and
sums in the order of their formulas.

Each oracle is a block function over N rows, like the constructors:
:func:`jc_fock_block` and :func:`quadrature_block` take one column per
parameter (those of the schemes' block functions) and return the (N, 4, 4)
stack; the public one-row oracles are the same functions at one row, so both
give the same bits.  The quadrature block dedupes its rows' (V, d, gamma)
node sets with ``np.unique`` and evaluates the M distinct ones in chunks of
at most ``_NODE_CHUNK``: the nodes and axis factors as (M, order) arrays and
the node sums as stacked matmuls.  The assembly runs over all N rows as
stacked sums in the order above.  Each set's scalars
(u, the scale, the center, the log normalization, N+-) are Python floats from
``math``, as at one row; only the (M, order) arrays use numpy's ufuncs.

Every quadrature result is re-evaluated at twice the order; entries that move
by more than ``DOUBLING_TOLERANCE`` raise :class:`OracleUnstableError`, which
names the first such row of the block.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .qlinalg import BipartiteMatrix, _kron
from .states import AtomFieldParams, CatBasis, MicroState, ThermalParams, _cat_norms

__all__ = [
    "OracleUnstableError",
    "TruncationTailError",
    "fock_space_for",
    "jc_fock_projected",
    "jc_propagator",
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


def _thermal_weights(lam: float, n_max: int) -> np.ndarray:
    return (1.0 - lam) * lam ** np.arange(n_max + 1, dtype=float)


def thermal_fock_matrix(lam: float, n_max: int) -> BipartiteMatrix:
    """Thermal state diag((1-lam) lam^k), k = 0..n_max, as a (1, n_max+1) bipartite matrix."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"lam must lie in [0, 1), got {lam}")
    tail = lam ** (n_max + 1)
    if tail > TAIL_TOLERANCE:
        raise TruncationTailError(f"tail {tail:.3e} exceeds budget {TAIL_TOLERANCE:.0e}")
    return BipartiteMatrix(1, n_max + 1, np.diag(_thermal_weights(lam, n_max)))


def jc_propagator(params: AtomFieldParams, n_max: int) -> np.ndarray:
    """Dense exchange-interaction propagator on atom (x) Fock levels 0..n_max.

    Index layout: row = atom * (n_max+1) + k with atom 0 = ground, 1 = excited.
    The propagator is block diagonal over the doublets {|e,k>, |g,k+1>},
    rotating each by the angle gt sqrt(k+1); |g,0> is stationary and the top
    excited level |e,n_max> is frozen so the construction stays exactly
    unitary.  Every doublet below the top level is therefore evolved exactly,
    whatever n_max is.
    """
    return _jc_unitary(params.gt, n_max)


def _jc_unitary(gt: float, n_max: int) -> np.ndarray:
    dim = n_max + 1
    u = np.eye(2 * dim, dtype=np.complex128)
    for k in range(n_max):
        theta = gt * math.sqrt(k + 1.0)
        c, s = math.cos(theta), math.sin(theta)
        ie = dim + k  # |e, k>
        ig = k + 1  # |g, k+1>
        u[ie, ie] = c
        u[ig, ig] = c
        u[ie, ig] = -1j * s
        u[ig, ie] = -1j * s
    return u


def jc_fock_projected(params: AtomFieldParams) -> BipartiteMatrix:
    """Evolve the atom-thermal product state as U rho U^dagger, project the field.

    The initial state diag(1-p, p) (x) diag(P_0, ..., P_{n+2}), with photon
    weights P_k = (1-lam) lam^k, lives on Fock levels 0..n+2; it is evolved
    with the dense :func:`jc_propagator` and the submatrix on field levels
    {n, n+1} is returned in the basis {|g,n>, |e,n>, |g,n+1>, |e,n+1>}.
    That block only involves the doublets n-1, n and n+1, which the
    truncation holds whole, so it is exact for every lam < 1: no thermal tail
    budget applies.  It is :func:`jc_fock_block` at one row.
    """
    row = jc_fock_block([params.p], [params.lam], [params.gt], [params.n])[0]
    return BipartiteMatrix(2, 2, row)


def jc_fock_block(p, lam, gt, n) -> np.ndarray:
    """``jc_fock_projected`` of N rows, from one column per parameter: an (N, 4, 4) stack.

    The columns are those of ``schemes.jc_block``; they are not checked.
    """
    return np.array([_jc_fock_row(*row) for row in zip(p, lam, gt, n)])


def _jc_fock_row(p: float, lam: float, gt: float, n: int) -> np.ndarray:
    n_max = n + 2
    dim = n_max + 1
    field = np.diag(_thermal_weights(lam, n_max))
    rho0 = _kron(np.diag([1.0 - p, p]), field)
    u = _jc_unitary(gt, n_max)
    rho1 = u @ rho0 @ u.conj().T
    idx = [n, dim + n, n + 1, dim + n + 1]
    return rho1[np.ix_(idx, idx)]


@lru_cache(maxsize=32)
def _gh_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(order)
    # log(w) + x^2 stays O(1); exponentiating w and exp(x^2) separately would
    # overflow near order 320.  Edge weights may underflow to 0 at very high
    # orders; their -inf log just drops the node.
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    return x, logw + x * x


# The node caches are keyed by a chunk of at most _NODE_CHUNK node sets and the
# order; one order-160 entry of _thermal_nodes is at most about 160 KB.  The
# kerr-, tt- and direct-grid of ``mixent validate all`` have the same node
# sets: three chunks per order, which eight entries keep from grid to grid.
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
    rows = map(_axis_row, variances, displacements)
    u, scale, center, log_axis = (np.array(column)[:, None] for column in zip(*rows))
    x, logw = _gh_rule(order)
    re = center + scale * x
    im = scale * x
    a = np.exp(logw + log_axis - u * (re - d) ** 2)
    b = np.exp(logw + log_axis - u * im**2)
    return re, a, im, b


def _axis_row(variance: float, displacement: float) -> tuple:
    """u, scale, center and the log axis weight of one node set, in Python floats with ``math``."""
    u = 2.0 / (variance - 1.0)
    scale = 1.0 / math.sqrt(u + 1.0)
    center = u * displacement / (u + 1.0)
    # log(2/(pi (V-1))) as a difference: pi (V-1) overflows near V = 5.7e307
    log_axis = 0.5 * (math.log(2.0 / math.pi) - math.log(variance - 1.0)) + math.log(scale)
    return u, scale, center, log_axis


_SIGMA = np.array([[1.0], [-1.0]])


def _projection_factors(re: np.ndarray, im: np.ndarray, gammas: np.ndarray, kappa: float) -> tuple:
    """Axis factors (fx, fy) of <sigma gamma|kappa alpha> of M node sets, (M, 2, n) each.

    Rows sigma = +1, -1.  At alpha = re + i im the overlap is
    fx[m, sigma, i] fy[m, sigma, j] with fx = exp(-(kappa re - sigma gamma)^2/2)
    and fy = exp(-(kappa im)^2/2 + i sigma gamma kappa im), each of modulus
    <= 1 for any gamma.  The factors of -kappa alpha are the rows reversed, as
    <sigma g|-b> = <-sigma g|b>.
    """
    sigma_gamma = _SIGMA * gammas[:, None, None]
    fx = np.exp(-0.5 * (kappa * re[:, None, :] - sigma_gamma) ** 2)
    ky = kappa * im[:, None, :]
    fy = np.exp(-0.5 * ky**2 + 1j * sigma_gamma * ky)
    return fx, fy


def _cat_rows(gammas) -> np.ndarray:
    """C = [[N+, N+], [N-, -N-]] of each gamma, (M, 2, 2).

    The cat projections (<+|, <-|) of the overlaps with (|gamma>, |-gamma>).
    """
    return np.array([((p, p), (m, -m)) for p, m in map(_cat_norms, gammas)])


# rows of the kets at w = +1 and w = -1: the w = -1 factors are the w = +1 rows reversed
_ROWS = {1: slice(None), -1: slice(None, None, -1)}


def _node_blocks(c: np.ndarray, fx: np.ndarray, fy: np.ndarray, a, b) -> dict:
    """Node sums sum_ij a_i b_j k_w(i, j) k_w'(i, j)^dagger of M node sets, keyed by (w, w').

    The ket at w = +1 is k(i, j) = c (fx[:, i] o fy[:, j]) and the ket at
    w = -1 has the rows of fx and fy reversed.  So one x sum (fx a) fx^T and
    one y sum (fy b) fy^dagger per node set serve all four blocks: the (w, w')
    block is c (x[p][:, q] o y[p][:, q]) c^T, with p and q the rows of w and
    w'.  Every product is a stacked matmul over the leading axis of node sets.
    """
    x = (fx * a[:, None, :]) @ fx.transpose(0, 2, 1)
    y = (fy * b[:, None, :]) @ fy.conj().transpose(0, 2, 1)
    ct = c.transpose(0, 2, 1)
    return {
        (w, wp): c @ (x[:, p][:, :, q] * y[:, p][:, :, q]) @ ct
        for w, p in _ROWS.items()
        for wp, q in _ROWS.items()
    }


@lru_cache(maxsize=8)
def _sandwich_block(variances: tuple, displacements: tuple, gammas: tuple, order: int) -> dict:
    """Quadrature values of the 2x2 cat blocks <s| integral[P |w a><w' a|] |s'> of M node sets.

    All four blocks, keyed by (w, w'), as (M, 2, 2) stacks from one pair of
    projections at +-alpha.  Every V is 1 or every V is above 1.
    """
    re, a, im, b = _thermal_nodes(variances, displacements, order)
    fx, fy = _projection_factors(re, im, np.array(gammas), 1.0)
    return _node_blocks(_cat_rows(gammas), fx, fy, a, b)


@lru_cache(maxsize=8)
def _bs_term_matrices(variances: tuple, displacements: tuple, gammas: tuple, order: int) -> dict:
    """Quadrature values of the 4x4 cat blocks <s1 s2| integral[P |k_w><k_w'|] |s1' s2'>.

    All four blocks of M node sets, keyed by (w, w'), as (M, 4, 4) stacks.  The 50:50 splitter sends |w a> to k_w = |w delta>|-w delta>, delta = a/sqrt(2);
    rows (s1, s2) of its projections take C (x) C over the products of the
    single-mode axis factors at w delta and -w delta.  (1, 1) is the direct
    term, (-1, -1) its mirror, the mixed pairs the coherences.  Every V is 1
    or every V is above 1.
    """
    re, a, im, b = _thermal_nodes(variances, displacements, order)
    fx, fy = _projection_factors(re, im, np.array(gammas), 1.0 / math.sqrt(2.0))
    # row (s1, s2) is f[s1] o f_-[s2], with f_- = f[::-1]; at w = -1 it is row
    # (-s1, -s2) of w = +1, so reversing all four rows gives w = -1 again
    fx, fy = ((f[:, :, None] * f[:, ::-1][:, None, :]).reshape(len(f), 4, -1) for f in (fx, fy))
    c = _cat_rows(gammas)
    return _node_blocks(_kron(c, c), fx, fy, a, b)


# Node sets per call of a node cache: this bounds the (sets, order) arrays that
# one call holds, whatever the block size.
_NODE_CHUNK = 32


def _row_blocks(blocks, nodes: tuple, inverse: np.ndarray, order: int) -> dict:
    """The blocks of each row, (N, n, n) per key: row k takes node set inverse[k].

    ``blocks`` runs on chunks of at most ``_NODE_CHUNK`` node sets, first of
    those at V = 1 and then of the rest, which ``np.unique`` sorts after them.
    """
    variances, displacements, gammas = nodes
    ones = variances.count(1.0)
    parts = [
        blocks(variances[i:j], displacements[i:j], gammas[i:j], order)
        for start, stop in ((0, ones), (ones, len(variances)))
        for i in range(start, stop, _NODE_CHUNK)
        for j in [min(i + _NODE_CHUNK, stop)]
    ]
    return {key: np.concatenate([part[key] for part in parts])[inverse] for key in parts[0]}


def _quad_kerr_micro_thermal(b, r, sign):
    r = np.array(r)[:, None, None]
    top = np.stack([b[1, 1], r * b[1, -1]], axis=1)
    bottom = np.stack([r * b[-1, 1], b[-1, -1]], axis=1)
    blocks = np.stack([top, bottom], axis=1)
    return 0.5 * blocks.transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)


def _signed_r(r, sign) -> np.ndarray:
    return np.array([s * x for s, x in zip(sign, r)])[:, None, None]


def _quad_bs(b, r, sign):
    return b[1, 1] + b[-1, -1] + _signed_r(r, sign) * (b[1, -1] + b[-1, 1])


def _quad_tt(b, r, sign):
    blocks = np.stack([b[1, 1], b[-1, -1], b[1, -1], b[-1, 1]], axis=1)
    k = _kron(blocks, blocks)
    return k[:, 0] + k[:, 1] + _signed_r(r, sign) * (k[:, 2] + k[:, 3])


# U|a>|b> spreads into the four parity combinations (+,+), (-,+), (+,-) with
# weight 1/2 and (-,-) with weight -1/2; the projected state is the signed sum
# of tensor products of single-mode sandwich blocks, over (ket, bra) pairs.
_DIRECT_SIGNS = {(1, 1): 0.5, (-1, 1): 0.5, (1, -1): 0.5, (-1, -1): -0.5}
_DIRECT_TERMS = [(ket, bra) for ket in _DIRECT_SIGNS for bra in _DIRECT_SIGNS]
_DIRECT_WEIGHTS = np.array([_DIRECT_SIGNS[ket] * _DIRECT_SIGNS[bra] for ket, bra in _DIRECT_TERMS])


def _quad_direct_kerr(b, r, sign):
    first = np.stack([b[w1, w1p] for (w1, _), (w1p, _) in _DIRECT_TERMS], axis=1)
    second = np.stack([b[w2, w2p] for (_, w2), (_, w2p) in _DIRECT_TERMS], axis=1)
    terms = _DIRECT_WEIGHTS[:, None, None] * _kron(first, second)
    out = np.zeros((len(terms), 4, 4), dtype=np.complex128)
    for t in range(len(_DIRECT_TERMS)):  # summed from zero in term order, one rounding per term
        out += terms[:, t]
    return out


_ASSEMBLY = {
    "kerr_micro_thermal": _quad_kerr_micro_thermal,
    "bs": _quad_bs,
    "tt": _quad_tt,
    "direct_kerr": _quad_direct_kerr,
}


def _quad_once(scheme, r, sign, nodes, inverse, order):
    """A scheme's (N, 4, 4) matrices at one order; row k integrates over node set inverse[k]."""
    blocks = _bs_term_matrices if scheme == "bs" else _sandwich_block
    return _ASSEMBLY[scheme](_row_blocks(blocks, nodes, inverse, order), r, sign)


def quadrature_block(scheme: str, r, V, d, gamma, sign) -> np.ndarray:
    """``quadrature_projected`` of N rows, from one column per parameter: an (N, 4, 4) stack.

    The columns are those of the scheme's block function in
    :mod:`mixent.schemes` (r, V, d, gamma, sign); ``r`` is None for
    ``direct_kerr`` and ``sign`` None for ``kerr_micro_thermal`` and
    ``direct_kerr``.  They are not checked.  Rows with equal (V, d, gamma)
    share one node set (d = -0.0 and 0.0 give the same nodes, so ``np.unique``
    may merge them).  Each row is evaluated at ``QUADRATURE_ORDER`` and at twice
    that order; if any row's entries move by more than ``DOUBLING_TOLERANCE``,
    :class:`OracleUnstableError` names the first such row.
    """
    if scheme not in KERR_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {KERR_SCHEMES}")
    order = QUADRATURE_ORDER
    sets, inverse = np.unique(np.array([V, d, gamma], dtype=float).T, axis=0, return_inverse=True)
    nodes = tuple(map(tuple, sets.T.tolist()))
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
    return fine


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
