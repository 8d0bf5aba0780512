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

Every quadrature result is re-evaluated at twice the order; entries that move
by more than ``DOUBLING_TOLERANCE`` raise :class:`OracleUnstableError`.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .qlinalg import BipartiteMatrix, _kron
from .states import AtomFieldParams, CatBasis, MicroState, ThermalParams

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
    dim = n_max + 1
    gt = params.gt
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
    budget applies.
    """
    n_max = params.n + 2
    dim = n_max + 1
    field = np.diag(_thermal_weights(params.lam, n_max))
    rho0 = _kron(np.diag([1.0 - params.p, params.p]), field)
    u = jc_propagator(params, n_max)
    rho1 = u @ rho0 @ u.conj().T
    idx = [params.n, dim + params.n, params.n + 1, dim + params.n + 1]
    return BipartiteMatrix(2, 2, rho1[np.ix_(idx, idx)])


@lru_cache(maxsize=32)
def _gh_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(order)
    # log(w) + x^2 stays O(1); exponentiating w and exp(x^2) separately would
    # overflow near order 320.  Edge weights may underflow to 0 at very high
    # orders; their -inf log just drops the node.
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    return x, logw + x * x


@lru_cache(maxsize=256)
def _thermal_nodes(variance: float, displacement: float, order: int):
    """Per-axis quadrature nodes and positive weights for integral[P_th(V,d) f] d^2 alpha.

    Returns (re, a, im, b): node (i, j) is alpha = re[i] + 1j im[j] with
    weight a[i] b[j].  The thermal Gaussian is a product over the two axes,
    so each axis weight folds its Gauss-Hermite weight, its Jacobian, its
    thermal factor and half the normalization into a single exponential; f
    is evaluated as is.  At V = 1 the thermal weight is a point mass at d.
    """
    if variance == 1.0:
        return np.array([displacement]), np.array([1.0]), np.array([0.0]), np.array([1.0])
    u = 2.0 / (variance - 1.0)
    scale = 1.0 / math.sqrt(u + 1.0)
    center = u * displacement / (u + 1.0)
    x, logw = _gh_rule(order)
    # log(2/(pi (V-1))) as a difference: pi (V-1) overflows near V = 5.7e307
    log_axis = 0.5 * (math.log(2.0 / math.pi) - math.log(variance - 1.0)) + math.log(scale)
    re = center + scale * x
    im = scale * x
    a = np.exp(logw + log_axis - u * (re - displacement) ** 2)
    b = np.exp(logw + log_axis - u * im**2)
    return re, a, im, b


def _projection_factors(re: np.ndarray, im: np.ndarray, gamma: float, kappa: float) -> tuple:
    """Axis factors (fx, fy) of <sigma gamma|kappa alpha>, rows sigma = +1, -1.

    At alpha = re + i im the overlap is fx[sigma, i] fy[sigma, j] with
    fx = exp(-(kappa re - sigma gamma)^2/2) and
    fy = exp(-(kappa im)^2/2 + i sigma gamma kappa im), each of modulus <= 1
    for any gamma.  The factors of -kappa alpha are the rows reversed, as
    <sigma g|-b> = <-sigma g|b>.
    """
    sigma = np.array([[1.0], [-1.0]])
    fx = np.exp(-0.5 * (kappa * re - sigma * gamma) ** 2)
    ky = kappa * im
    fy = np.exp(-0.5 * ky**2 + 1j * (sigma * gamma) * ky)
    return fx, fy


def _cat_rows(basis: CatBasis) -> np.ndarray:
    """C = [[N+, N+], [N-, -N-]]: cat projections (<+|, <-|) of (|gamma>, |-gamma>) overlaps."""
    return np.array([[basis.n_plus, basis.n_plus], [basis.n_minus, -basis.n_minus]])


# rows of the kets at w = +1 and w = -1: the w = -1 factors are the w = +1 rows reversed
_ROWS = {1: slice(None), -1: slice(None, None, -1)}


def _node_blocks(c: np.ndarray, fx: np.ndarray, fy: np.ndarray, a, b) -> dict:
    """Node sums sum_ij a_i b_j k_w(i, j) k_w'(i, j)^dagger, keyed by (w, w').

    The ket at w = +1 is k(i, j) = c (fx[:, i] o fy[:, j]) and the ket at
    w = -1 has the rows of fx and fy reversed.  So one x sum (fx a) fx^T and
    one y sum (fy b) fy^dagger serve all four blocks: the (w, w') block is
    c (x[p][:, q] o y[p][:, q]) c^T, with p and q the rows of w and w'.
    """
    x = (fx * a) @ fx.T
    y = (fy * b) @ fy.conj().T
    return {
        (w, wp): c @ (x[p][:, q] * y[p][:, q]) @ c.T
        for w, p in _ROWS.items()
        for wp, q in _ROWS.items()
    }


@lru_cache(maxsize=128)
def _sandwich_block(variance: float, displacement: float, gamma: float, order: int) -> dict:
    """Quadrature values of the 2x2 cat blocks <s| integral[P |w a><w' a|] |s'>.

    All four blocks, keyed by (w, w'), from one pair of projections at +-alpha.
    """
    re, a, im, b = _thermal_nodes(variance, displacement, order)
    basis = CatBasis(gamma)
    return _node_blocks(_cat_rows(basis), *_projection_factors(re, im, gamma, 1.0), a, b)


@lru_cache(maxsize=256)
def _bs_term_matrices(variance: float, displacement: float, gamma: float, order: int) -> dict:
    """Quadrature values of the 4x4 cat blocks <s1 s2| integral[P |k_w><k_w'|] |s1' s2'>.

    The 50:50 splitter sends |w a> to k_w = |w delta>|-w delta>, delta = a/sqrt(2);
    rows (s1, s2) of its projections take C (x) C over the products of the
    single-mode axis factors at w delta and -w delta.  (1, 1) is the direct
    term, (-1, -1) its mirror, the mixed pairs the coherences.
    """
    re, a, im, b = _thermal_nodes(variance, displacement, order)
    basis = CatBasis(gamma)
    fx, fy = _projection_factors(re, im, gamma, 1.0 / math.sqrt(2.0))
    # row (s1, s2) is f[s1] o f_-[s2], with f_- = f[::-1]; at w = -1 it is row
    # (-s1, -s2) of w = +1, so reversing all four rows gives w = -1 again
    fx, fy = ((f[:, None] * f[::-1][None, :]).reshape(4, -1) for f in (fx, fy))
    c = _cat_rows(basis)
    return _node_blocks(_kron(c, c), fx, fy, a, b)


def _quad_kerr_micro_thermal(micro, thermal, basis, order):
    r = micro.r
    b = _sandwich_block(thermal.variance, thermal.displacement, basis.gamma, order)
    blocks = np.array([[b[1, 1], r * b[1, -1]], [r * b[-1, 1], b[-1, -1]]])
    return 0.5 * blocks.transpose(0, 2, 1, 3).reshape(4, 4)


def _quad_bs(micro, thermal, basis, sign, order):
    b = _bs_term_matrices(thermal.variance, thermal.displacement, basis.gamma, order)
    return b[1, 1] + b[-1, -1] + sign * micro.r * (b[1, -1] + b[-1, 1])


def _quad_tt(micro, thermal, basis, sign, order):
    b = _sandwich_block(thermal.variance, thermal.displacement, basis.gamma, order)
    blocks = np.array([b[1, 1], b[-1, -1], b[1, -1], b[-1, 1]])
    k = _kron(blocks, blocks)
    return k[0] + k[1] + sign * micro.r * (k[2] + k[3])


# U|a>|b> spreads into the four parity combinations (+,+), (-,+), (+,-) with
# weight 1/2 and (-,-) with weight -1/2; the projected state is the signed sum
# of tensor products of single-mode sandwich blocks, over (ket, bra) pairs.
_DIRECT_SIGNS = {(1, 1): 0.5, (-1, 1): 0.5, (1, -1): 0.5, (-1, -1): -0.5}
_DIRECT_TERMS = [(ket, bra) for ket in _DIRECT_SIGNS for bra in _DIRECT_SIGNS]
_DIRECT_WEIGHTS = np.array([_DIRECT_SIGNS[ket] * _DIRECT_SIGNS[bra] for ket, bra in _DIRECT_TERMS])


def _quad_direct_kerr(thermal, basis, order):
    b = _sandwich_block(thermal.variance, thermal.displacement, basis.gamma, order)
    first = np.array([b[w1, w1p] for (w1, _), (w1p, _) in _DIRECT_TERMS])
    second = np.array([b[w2, w2p] for (_, w2), (_, w2p) in _DIRECT_TERMS])
    terms = _DIRECT_WEIGHTS[:, None, None] * _kron(first, second)
    out = np.zeros((4, 4), dtype=np.complex128)
    for term in terms:  # summed from zero in term order, one rounding per term
        out += term
    return out


def _quad_once(scheme, micro, thermal, basis, sign, order):
    if scheme == "kerr_micro_thermal":
        return _quad_kerr_micro_thermal(micro, thermal, basis, order)
    if scheme == "bs":
        return _quad_bs(micro, thermal, basis, sign, order)
    if scheme == "tt":
        return _quad_tt(micro, thermal, basis, sign, order)
    if scheme == "direct_kerr":
        return _quad_direct_kerr(thermal, basis, order)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {KERR_SCHEMES}")


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
    :class:`OracleUnstableError` is raised.
    """
    order = QUADRATURE_ORDER
    if scheme in ("kerr_micro_thermal", "bs", "tt") and micro is None:
        raise ValueError(f"scheme {scheme!r} needs the micro-state parameters")
    if scheme in ("bs", "tt"):
        if sign not in (1, -1):
            raise ValueError(f"scheme {scheme!r} needs sign=+1 or -1, got {sign!r}")
    fine = _quad_once(scheme, micro, thermal, basis, sign, 2 * order)
    coarse = _quad_once(scheme, micro, thermal, basis, sign, order)
    dev = np.abs(coarse - fine)
    worst = float(dev.max())
    if not worst <= DOUBLING_TOLERANCE:  # NaN fails too
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise OracleUnstableError(
            f"{scheme}: quadrature self-convergence failed at entry ({i},{j}): "
            f"|order {order} - order {2 * order}| = {worst:.3e} "
            f"> {DOUBLING_TOLERANCE:.0e} "
            f"(V={thermal.variance}, d={thermal.displacement}, gamma={basis.gamma})"
        )
    return BipartiteMatrix(2, 2, fine)
