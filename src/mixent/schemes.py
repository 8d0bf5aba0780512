"""Closed-form locally projected states for five entanglement-generation schemes.

Each constructor returns a Hermitian 4x4 :class:`~mixent.qlinalg.BipartiteMatrix`
together with the NPT of its trace-normalized version, from the one NPT scorer
(``qlinalg._npt_stack``) that sweeps call on whole blocks.  Each constructor is
its scheme's block function (``jc_block``, ``kerr_micro_thermal_block``,
``bs_scheme_block``, ``tt_scheme_block``, ``direct_kerr_block``) at one row; a
sweep calls the same function on a block of rows, so both give the same bits.
The five schemes:

* ``jc_projected`` -- resonant atom-field interaction, field projected onto
  two adjacent number states.
* ``kerr_micro_thermal_projected`` -- cross-Kerr coupling of a
  vacuum/single-photon mixture to a displaced thermal field, projected onto
  {|0>,|1>} (x) {|+>,|->}.
* ``bs_scheme_projected`` -- the conditioned single-mode state split on a
  50:50 beam splitter, both outputs projected onto the cat basis.
* ``tt_scheme_projected`` -- two thermal modes conditioned through successive
  cross-Kerr couplings, both projected onto the cat basis.
* ``direct_kerr_projected`` -- two displaced thermal states coupled directly
  by a controlled-phase cross-Kerr interaction.

Basis orderings (fixed module-wide):

* JC scheme: {|g,n>, |e,n>, |g,n+1>, |e,n+1>} -- the middle pair carries the
  coherence created by the |e,n> <-> |g,n+1> exchange.
* single-Kerr scheme: {|0,+>, |0,->, |1,+>, |1,->}.
* two-mode cat schemes: {|++>, |+->, |-+>, |-->}.

The four cat schemes are built from one 2x2 block, K, the displaced thermal
state in the cat basis (``_cat_kernel``).  The parity flip |a> -> |-a> fixes
|+> and negates |->, so every Gaussian sandwich block <s| integral
|w a><w' a| |s'> is B(w, w') = P_w K P_w' with P_+ = 1 and P_- = diag(1, -1),
and each scheme is a fixed sandwich of K, written once over a leading axis of rows:

* ``kerr_micro_thermal``: Z (mu (x) K) Z, with mu = 1/2 [[1, r], [r, 1]] and
  Z = diag(1, 1, 1, -1) the controlled parity;
* ``direct_kerr``: Z (K (x) K) Z;
* ``tt``: (K (x) K) o W(+-r), with the heralding weights
  W(x) = 1 + pi pi^T + x (pi 1^T + 1 pi^T), pi = (1, -1, -1, 1);
* ``bs``: (D A X A^T D) o W(+-r), the same weights, with X the nine Gaussian
  integrals of the split state, D = diag(N (x) N) and A a fixed 4x3 matrix.

A block function takes one list per parameter, in the CLI's parameter order,
holding N rows of Python floats (ints for ``n`` and ``sign``); it does not check
them, except that ``bs_scheme_block`` raises ``ValueError`` for a gamma below
``BS_GAMMA_FLOOR``.  It returns one result, ``(normalized, log_scales, probs)``:
the kernel-normalized (N, 4, 4) stack and 1-D arrays of the N log scales and the N
probabilities of the measurement outcome, 2 +- 2 r sigma^m for ``bs`` (m = 1)
and ``tt`` (m = 2) and 1 for the other three.  Everything else is derived from it here:
``block_kernels`` gives the kernels normalized * exp(log_scale), which the
oracle reproduces for every scheme, and ``block_states`` the states' factors
exp(log_scale) / prob; a degenerate row (an outcome probability below
``_DEGENERATE_PROB``) is the zero matrix at factor NaN.  As exp(x) / 1 is
exp(x), the factors of ``jc``, ``kerr_micro_thermal`` and ``direct_kerr`` are
their kernels' scales.  A block function evaluates its rows as numpy
columns from one kernel source, carried (``_carriers``) as Python floats at
one row (every constructor) and as 1-D arrays at more.  Arithmetic gives the
same bits on both, and each numpy ufunc the same on a scalar as on an array;
numpy's powers do not, so ``jc``'s lam^k is a power of an array on both and
squares are products.  Stacks are C-contiguous, so sums over them run in one
order.  An overflow (a value past the double range) is not warned (``_PAST_RANGE``),
nor in ``tt`` the NaN of an overflowed entry times a zero weight.

Nothing cancels in K or the ``bs`` grid: c - r, O(gamma^2) at small gamma, is a
sum of two terms >= 0; log c and the ``bs`` log scale are completed squares.

All projected matrices are built from trace-one pre-projection states, so
their traces lie in (0, 1] (local projections are not unitary).  The
``*_kernel`` variants of the beam-splitter and two-thermal schemes return the
conditional state *before* its measurement normalization, ``block_kernels`` at
one row; they exist so that oracle comparisons stay meaningful even where the
conditioning probability vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qlinalg
from .qlinalg import BipartiteMatrix, DegenerateStateError
# scaled_cat_kernels is not called here: bench/layertrace.py wraps it by this module's name
from .states import (  # noqa: F401
    AtomFieldParams,
    CatBasis,
    MicroState,
    ThermalParams,
    _cat_norms,
    _scaled_kernels,
    scaled_cat_kernels,
)

__all__ = [
    "SchemeOutput",
    "bs_projected_kernel",
    "bs_scheme_projected",
    "direct_kerr_projected",
    "jc_projected",
    "kerr_micro_thermal_projected",
    "tt_projected_kernel",
    "tt_scheme_projected",
]

# Conditioning probabilities below this are treated as an impossible
# measurement outcome rather than a state.
_DEGENERATE_PROB = 1e-12


@dataclass(frozen=True)
class SchemeOutput:
    """A projected 4x4 state and the NPT of its trace-normalized version.

    ``npt_normalized`` is the NPT of the trace-normalized state.  Being
    invariant under a common positive rescaling, it is computed from a
    kernel-normalized copy of the matrix, so it stays well defined even when
    the absolute projection probability (the reported ``trace``) underflows
    double precision at extreme displacements.  It is NaN only when the
    projection probability is *exactly* zero (e.g. a zero-temperature field
    projected onto empty number states): there is no post-projection state,
    though the zero matrix is still returned for oracle comparisons.
    """

    matrix: BipartiteMatrix
    npt_normalized: float

    @property
    def trace(self) -> float:
        return self.matrix.trace().real


def block_kernels(normalized, log_scales, probs) -> np.ndarray:
    """The kernels normalized * exp(log_scale) of a block function's result.

    They are what the oracle reproduces, for every scheme.
    """
    return normalized * np.exp(log_scales)[:, None, None]


def block_states(normalized, log_scales, probs) -> tuple:
    """The states of a block function's result: a normalized (N, 4, 4) stack and (N,) factors.

    A row's factor is exp(log_scale) / prob.  A row whose outcome probability
    is below ``_DEGENERATE_PROB`` has no state: it is the zero matrix (in a
    copy; ``normalized`` is left as it is) at factor NaN.
    """
    if not probs[probs.argmin()] < _DEGENERATE_PROB:  # NaN passes, to a NaN factor
        return normalized, np.exp(log_scales) / probs
    degenerate = probs < _DEGENERATE_PROB
    factors = np.exp(log_scales) / np.where(degenerate, 1.0, probs)
    factors[degenerate] = math.nan
    return np.where(degenerate[:, None, None], 0.0, normalized), factors


# A value past the double range overflows to inf; the block functions do not warn of it.
_PAST_RANGE = np.errstate(over="ignore")


def _carriers(*columns) -> list:
    """The columns as Python floats at one row (cheaper than 1-element arrays), arrays at more."""
    if len(columns[0]) == 1:
        return [float(column[0]) for column in columns]
    return [np.array(column, dtype=float) for column in columns]


def _stack(entries, shape) -> np.ndarray:
    """The C-contiguous (N, *shape) stack of a row-major list of entries of one carrier."""
    return np.array(entries, order="F").T.reshape(-1, *shape)


def _output(*result) -> SchemeOutput:
    """The one row of a block function's result; a degenerate row raises."""
    normalized, factors = block_states(*result)
    factor = float(factors[0])
    if math.isnan(factor):
        message = "conditioning outcome has vanishing probability for these parameters"
        raise DegenerateStateError(message)
    value = float(qlinalg._npt_stack(normalized)[0])
    return SchemeOutput(matrix=BipartiteMatrix(2, 2, normalized[0] * factor), npt_normalized=value)


def jc_projected(params: AtomFieldParams) -> SchemeOutput:
    """Atom-field state after a resonant exchange interaction, field projected.

    With C_k = cos(gt sqrt(k+1)), S_k = sin(gt sqrt(k+1)) and photon weights
    P_k = (1-lam) lam^k, the projection onto field states {|n>, |n+1>} gives
    a 4x4 matrix whose only off-diagonal entries couple |e,n> and |g,n+1>
    (one exchange quantum).  For n = 0 the |g,n> population from below
    vanishes because S_{-1} = sin(0) = 0.
    """
    return _output(*jc_block([params.p], [params.lam], [params.gt], [params.n]))


@_PAST_RANGE
def jc_block(p, lam, gt, n):
    """``jc_projected`` for N rows: the normalized (N, 4, 4) states, log scales and probabilities 1."""
    p, lam, gt, n = _carriers(p, lam, gt, n)
    q = 1.0 - p
    # C_k, S_k at gt sqrt(k + 1) for k = n - 1, n, n + 1
    a0, a1, a2 = gt * np.sqrt(n), gt * np.sqrt(n + 1.0), gt * np.sqrt(n + 2.0)
    c0, c1, c2 = np.cos(a0), np.cos(a1), np.cos(a2)
    s0, s1, s2 = np.sin(a0), np.sin(a1), np.sin(a2)
    # P_k = (1-lam) lam^k, k = n - 1 .. n + 2, as (1-lam) lam^(k-b) at the log scale b log(lam),
    # b = n - e, which stays finite however far lam^b underflows: e = min(n, 1), as n - (n - 1.0)
    # is not 1 past 2^53, and at lam = 0, e = min(n, 2) and log(0 + 1) = 0 leave n > 1 every
    # weight 0^(k-b) = 0.  At n = 0, P_{-1} = P_0 meets S_{-1} = 0
    at_zero = 1.0 * (lam == 0.0)
    e = np.minimum(n, 1.0 + at_zero)
    k = np.maximum(np.array([e - 1.0, e, e + 1.0, e + 2.0]), 0.0)
    w0, w1, w2, w3 = (1.0 - lam) * np.power(np.array([lam] * 4), k)
    log_scales = (n - e) * np.log(lam + at_zero) + 0.0  # + 0.0: b = 0 gives 0.0, not -0.0
    # excited branch weight p, ground branch weight q; |e,n> <-> |g,n+1> coherence
    coherence = p * w1 * c1 * s1 - q * w2 * c1 * s1
    d0, d1 = p * w0 * (s0 * s0) + q * w1 * (c0 * c0), p * w1 * (c1 * c1) + q * w2 * (s1 * s1)
    d2, d3 = p * w1 * (s1 * s1) + q * w2 * (c1 * c1), p * w2 * (c2 * c2) + q * w3 * (s2 * s2)
    # the 16 entries on the first axis, transposed into a C-contiguous (N, 4, 4) stack
    entries = np.zeros((16, *k.shape[1:]), dtype=np.complex128)
    entries.real[::5] = d0, d1, d2, d3
    entries.imag[6], entries.imag[9] = coherence, -coherence
    states = np.ascontiguousarray(entries.T).reshape(-1, 4, 4)
    return states, np.array(log_scales, ndmin=1), np.ones(len(states))


def _cat_kernel(V, d, gamma):
    """K of each row, (N, 2, 2): N+^2 (c + r), N+N- s, N-^2 (c - r) over c; and log c."""
    s, r, odd, log_c = _scaled_kernels(V, d, gamma)
    n_plus, n_minus = _cat_norms(gamma)
    off = n_plus * n_minus * s
    return _stack([n_plus * n_plus * (1.0 + r), off, off, n_minus * n_minus * odd], (2, 2)), log_c


# Z = diag(1, 1, 1, -1): the controlled parity on {|0,+>, |0,->, |1,+>, |1,->}
# and the controlled phase on {|++>, |+->, |-+>, |-->}.
_Z = np.array([1.0, 1.0, 1.0, -1.0])
# pi: the parity flip of both cat modes, diag(1, -1) (x) diag(1, -1).
_PI = np.array([1.0, -1.0, -1.0, 1.0])
# Z . Z as one product (flipping a sign twice or once is exact either way), and its half
_ZZ, _HALF_ZZ = _Z[:, None] * _Z, 0.5 * (_Z[:, None] * _Z)
# the heralding weights W(+-r) = 1 + pi pi^T +- r (pi 1^T + 1 pi^T) of bs and tt (_heralded)
_HERALD_EVEN = 1.0 + _PI[:, None] * _PI
_HERALD_ODD = _PI[:, None] + _PI
# [[1, x], [x, 1]] = _EYE + x _SWAP
_EYE, _SWAP = np.eye(2), np.eye(2)[::-1]


def kerr_micro_thermal_projected(
    m: MicroState, t: ThermalParams, basis: CatBasis
) -> SchemeOutput:
    """Cross-Kerr coupled micro-thermal pair, both modes locally projected.

    The controlled-parity interaction maps |1><1| to the mirrored thermal
    state and the |0><1| coherence to the parity-flip sandwich operator, so
    in block form over the micro index the projected state is

        1/2 [[ B(+,+),  r B(+,-) ],
             [ r B(-,+), B(-,-) ]]

    with B(w, w') = P_w K P_w' the 2x2 cat-basis blocks of the Gaussian
    sandwich operators integral |w a><w' a| against the thermal weight of
    ``t`` (module docstring): the fixed sandwich Z (mu (x) K) Z of the micro
    state mu under the controlled parity Z.  The state is separable whenever
    d = 0 (the coherence operator is then transpose invariant) or r = 0, and
    its NPT vanishes there exactly.  Entries are linear in the sandwich
    kernels, so the NPT is computed from the kernel-normalized matrix and
    survives underflow of the absolute scale.
    """
    return _output(*kerr_micro_thermal_block([m.r], [t.variance], [t.displacement], [basis.gamma]))


@_PAST_RANGE
def kerr_micro_thermal_block(r, V, d, gamma):
    """``kerr_micro_thermal_projected`` for N rows: Z (mu (x) K) Z, log c and probabilities 1."""
    r, V, d, gamma = _carriers(r, V, d, gamma)
    k, log_c = _cat_kernel(V, d, gamma)
    # mu (x) K = ([[1, r], [r, 1]] (x) K)/2, the 1/2 exact in Z/2
    mu = _EYE + np.multiply.outer(r, _SWAP)
    kernels = (qlinalg._kron(mu, k) * _HALF_ZZ).astype(np.complex128)
    return kernels, np.array(log_c, ndmin=1), np.ones(len(kernels))


# A = (C (x) C) R of the beam-splitter kernel (D A X A^T D) o W (bs_scheme_block):
# C = [[1, 1], [1, -1]] holds the cat coefficients of (|g>, |-g>) and R sums the
# coherent components (i1, i3) onto their grid point a = g (e1 - e3).
_BS_A = np.array([[1.0, 2.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 0.0, 1.0], [-1.0, 2.0, -1.0]])
# alpha + beta and 1 - alpha beta at the grid points (a, b) = 2 g (alpha, beta), (9, 1) columns
_BS_SUM = np.array([-2.0, -1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 1.0, 2.0])[:, None]
_BS_FLIP = np.array([0.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 0.0])[:, None]
# The odd-cat entries carry N-^4 ~ 1/(16 gamma^4), which amplifies the roundoff
# of the signed sums; below this gamma they miss the oracle tolerance.
BS_GAMMA_FLOOR = 1e-2


@_PAST_RANGE
def bs_scheme_block(r, V, d, gamma, sign):
    """``bs_scheme_projected`` for N rows: normalized kernels, log scales and outcome probabilities.

    Splitting halves the amplitude, which is absorbed by rescaling the
    thermal weight to effective variance v = (V+1)/2 and displacement
    d' = d/sqrt(2).  The sixteen coherent components of the four projectors
    then give Gaussian integrals
    (1/v) exp[(-2 d'^2 + d' (a+b))/v + a b (v-1)/(2v) - 2 g^2] at only nine
    points (a, b) = 2 g (alpha, beta) in {-2 g, 0, 2 g}^2, the grid X.  With
    D = diag(N (x) N) the cat norms and A (``_BS_A``) the cat coefficients of
    the components summed onto their grid points, the four terms (weights 1,
    1, +-r, +-r) are M, Pi M Pi, +-r M Pi and +-r Pi M, with M = A X A^T and
    Pi = diag(pi): on the flipped grid of the other output the rows of A are
    pi o A.  So the kernel is (D A X A^T D) o W(+-r), with the weights W of
    ``tt`` (``_heralded``), and the outcome probability is 2 +- 2 r sigma.

    The largest exponent, at a = b = 2 g sgn(d'), is the completed square
    -2 (|d'| - g)^2/v - log v, the log scale; each other one lies below it by
    2 g [|d'| (2 - sgn(d') (alpha + beta)) + g (1 - alpha beta)(v-1)] / v, a
    sum of terms >= 0.  Nothing cancels at any displacement and variance.
    Raises ``ValueError`` for gamma below ``BS_GAMMA_FLOOR``.
    """
    if min(gamma) < BS_GAMMA_FLOOR:
        raise ValueError(f"bs needs gamma >= {BS_GAMMA_FLOOR:g}, got {min(gamma)!r}")
    r, V, d, gamma, sign = _carriers(r, V, d, gamma, sign)
    v, u, scale = (V + 1.0) / 2.0, abs(d) / math.sqrt(2.0), -2.0 * gamma
    sgn, flip = np.copysign(1.0, d), gamma * ((v - 1.0) / v)
    n_plus, n_minus = _cat_norms(gamma)
    # X's nine exponents, grid points on the first axis: -2 g times a sum of two terms
    # >= 0, so an exponent past the double range is -inf, never inf - inf
    x = np.exp(scale * ((u / v) * (2.0 - sgn * _BS_SUM) + flip * _BS_FLIP))
    log_scales = -2.0 * ((u - gamma) * (u - gamma) / v) - np.log(v)
    dd = _stack([n_plus * n_plus, n_plus * n_minus, n_minus * n_plus, n_minus * n_minus], (4,))
    kernels = dd[:, :, None] * (_BS_A @ x.T.reshape(-1, 3, 3) @ _BS_A.T) * dd[:, None, :]
    return _heralded(kernels, log_scales, r, V, d, sign, 1)


def bs_projected_kernel(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> BipartiteMatrix:
    """Unnormalized cat-projected beam-splitter state (term weights 1,1,+-r,+-r).

    Raises ``ValueError`` for gamma below ``BS_GAMMA_FLOOR``.
    """
    result = bs_scheme_block(*_pair_columns(m, t, basis, sign))
    return BipartiteMatrix(2, 2, block_kernels(*result)[0])


def bs_scheme_projected(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> SchemeOutput:
    """Beam-splitter scheme with the conditioning normalization applied.

    The measurement normalizer is 1/(2 +- 2 r exp(-2 d^2/V)/V); the outcome
    with the minus sign has zero probability at (V=1, d=0, r=1) and raises
    :class:`~mixent.qlinalg.DegenerateStateError` there.  Gamma below
    ``BS_GAMMA_FLOOR`` raises ``ValueError``.
    """
    return _output(*bs_scheme_block(*_pair_columns(m, t, basis, sign)))


def _heralded(kernels, log_scales, r, V, d, sign, modes):
    """The result of ``bs`` (modes 1) or ``tt`` (modes 2): kernels o W(sign r), log scales, probs.

    The outcome probabilities are 2 +- 2 r sigma^modes, sigma = exp(-2 d^2/V)/V.
    """
    weights = _HERALD_EVEN + np.multiply.outer(sign * r, _HERALD_ODD)
    sigma = np.exp(-2.0 * (d * d) / V) / V
    probs = np.array(2.0 + sign * 2.0 * r * (sigma * sigma if modes == 2 else sigma), ndmin=1)
    return (kernels * weights).astype(np.complex128), np.array(log_scales, ndmin=1), probs


def tt_projected_kernel(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> BipartiteMatrix:
    """Unnormalized cat-projected two-thermal state (term weights 1,1,+-r,+-r).

    Both thermal factors are independent, so every entry is a product of
    single-mode cat sandwich blocks: B(+,+) (x) B(+,+) + B(-,-) (x) B(-,-)
    +- r (B(+,-) (x) B(+,-) + B(-,+) (x) B(-,+)).  With B(w, w') = P_w K P_w'
    every term is K (x) K with the signs of pi on its rows, its columns or
    both, so the kernel is (K (x) K) o W(+-r) (module docstring).
    """
    result = tt_scheme_block(*_pair_columns(m, t, basis, sign))
    return BipartiteMatrix(2, 2, block_kernels(*result)[0])


def tt_scheme_projected(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> SchemeOutput:
    """Two-thermal scheme with the conditioning normalization applied.

    The conditional state before projection has trace 2 +- 2 r (exp(-2 d^2/V)/V)^2,
    the squared single-mode factor appearing once per thermal mode.
    """
    return _output(*tt_scheme_block(*_pair_columns(m, t, basis, sign)))


# inf times a zero of W is NaN where K (x) K overflows (tiny gamma, huge d): the scorer refuses it
@np.errstate(over="ignore", invalid="ignore")
def tt_scheme_block(r, V, d, gamma, sign):
    """``tt_scheme_projected`` for N rows: (K (x) K) o W, 2 log c, outcome probabilities."""
    r, V, d, gamma, sign = _carriers(r, V, d, gamma, sign)
    k, log_c = _cat_kernel(V, d, gamma)
    return _heralded(qlinalg._kron(k, k), 2.0 * log_c, r, V, d, sign, 2)


def direct_kerr_projected(t: ThermalParams, basis: CatBasis) -> SchemeOutput:
    """Two identical displaced thermal states after a controlled-phase coupling.

    On the cat basis the full-period cross-Kerr unitary acts as a controlled
    phase, so each coherent pair |a>|b> spreads into the four parity
    combinations with a single minus sign, on |-->.  The projection is the
    product state K (x) K of the single-mode cat block (:func:`_cat_kernel`)
    under that phase: Z (K (x) K) Z with Z = diag(1, 1, 1, -1), which flips
    the sign of the six off-diagonal entries that touch |-->.
    """
    return _output(*direct_kerr_block([t.variance], [t.displacement], [basis.gamma]))


@_PAST_RANGE
def direct_kerr_block(V, d, gamma):
    """``direct_kerr_projected`` for N rows: Z (K (x) K) Z, 2 log c and probabilities 1."""
    V, d, gamma = _carriers(V, d, gamma)
    k, log_c = _cat_kernel(V, d, gamma)
    kernels = (qlinalg._kron(k, k) * _ZZ).astype(np.complex128)
    return kernels, np.array(2.0 * log_c, ndmin=1), np.ones(len(kernels))


def _pair_columns(m: MicroState, t: ThermalParams, basis: CatBasis, sign: int) -> tuple:
    """The one-row columns of a cat-pair scheme's arguments; sign must be +1 or -1."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return [m.r], [t.variance], [t.displacement], [basis.gamma], [int(sign)]
