"""Closed-form locally projected states for five entanglement-generation schemes.

Each constructor returns a Hermitian 4x4 :class:`~mixent.qlinalg.BipartiteMatrix`
together with the NPT of its trace-normalized version, from the one NPT scorer
(``qlinalg._npt_stack``) that sweeps call on whole blocks.  The five schemes:

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
state in the cat basis (``_cat_block``).  The parity flip |a> -> |-a> fixes
|+> and negates |->, so every Gaussian sandwich block <s| integral
|w a><w' a| |s'> is B(w, w') = P_w K P_w' with P_+ = 1 and P_- = diag(1, -1),
and each scheme is a fixed sandwich of K:

* ``kerr_micro_thermal``: Z (mu (x) K) Z, with mu = 1/2 [[1, r], [r, 1]] and
  Z = diag(1, 1, 1, -1) the controlled parity;
* ``direct_kerr``: Z (K (x) K) Z;
* ``tt``: (K (x) K) o (1 + pi pi^T +- r (pi 1^T + 1 pi^T)), pi = (1, -1, -1, 1);
* ``bs``: D S (c (x) X) S^T D, with X the nine Gaussian integrals of the split
  state, c = [[1, +-r], [+-r, 1]], D = diag(N (x) N) and S a fixed 4x6 matrix.

Nothing cancels in K or the ``bs`` grid: c - r, O(gamma^2) at small gamma, is a
sum of two terms >= 0; log c and the ``bs`` log scale are completed squares.

All projected matrices are built from trace-one pre-projection states, so
their traces lie in (0, 1] (local projections are not unitary).  The
``*_kernel`` variants of the beam-splitter and two-thermal schemes return the
conditional state *before* its measurement normalization; they exist so that
oracle comparisons stay meaningful even where the conditioning probability
vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import qlinalg
from .qlinalg import BipartiteMatrix, DegenerateStateError
from .states import (
    AtomFieldParams,
    CatBasis,
    MicroState,
    ThermalParams,
    _cat_exponents,
    _log_cosh,
    scaled_cat_kernels,
)

__all__ = [
    "JC_BASIS_LABELS",
    "KERR_BASIS_LABELS",
    "CAT_PAIR_LABELS",
    "SchemeOutput",
    "bs_projected_kernel",
    "bs_scheme_projected",
    "direct_kerr_projected",
    "jc_projected",
    "kerr_micro_thermal_projected",
    "tt_projected_kernel",
    "tt_scheme_projected",
]

JC_BASIS_LABELS = ("g,n", "e,n", "g,n+1", "e,n+1")
KERR_BASIS_LABELS = ("0,+", "0,-", "1,+", "1,-")
CAT_PAIR_LABELS = ("+,+", "+,-", "-,+", "-,-")

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


def _output(normalized: np.ndarray, factor: float) -> SchemeOutput:
    """The state normalized * factor, with the NPT of ``normalized`` (NaN below the trace floor).

    Each constructor is ``_output(*state)`` of its ``_*_state`` function, which sweeps call.
    """
    value = float(qlinalg._npt_stack(normalized[None])[0])
    return SchemeOutput(matrix=BipartiteMatrix(2, 2, normalized * factor), npt_normalized=value)


def jc_projected(params: AtomFieldParams) -> SchemeOutput:
    """Atom-field state after a resonant exchange interaction, field projected.

    With C_k = cos(gt sqrt(k+1)), S_k = sin(gt sqrt(k+1)) and photon weights
    P_k = (1-lam) lam^k, the projection onto field states {|n>, |n+1>} gives
    a 4x4 matrix whose only off-diagonal entries couple |e,n> and |g,n+1>
    (one exchange quantum).  For n = 0 the |g,n> population from below
    vanishes because S_{-1} = sin(0) = 0.
    """
    return _output(*_jc_state(params))


def _jc_state(params: AtomFieldParams):
    p, q, gt, n = params.p, 1.0 - params.p, params.gt, params.n
    # C_k, S_k for k = n - 1, n, n + 1 and P_k for k = n - 1 .. n + 2
    angles = [gt * math.sqrt(k + 1.0) for k in (n - 1, n, n + 1)]
    c0, c1, c2 = map(math.cos, angles)
    s0, s1, s2 = map(math.sin, angles)
    w0, w1, w2, w3 = map(params.photon_weight, (n - 1, n, n + 1, n + 2))
    # excited branch weight p, ground branch weight q; |e,n> <-> |g,n+1> coherence
    coherence = 1j * (p * w1 * c1 * s1 - q * w2 * c1 * s1)
    m = np.diag([
        p * w0 * s0**2 + q * w1 * c0**2,
        p * w1 * c1**2 + q * w2 * s1**2,
        p * w1 * s1**2 + q * w2 * c1**2,
        p * w2 * c2**2 + q * w3 * s2**2,
    ]).astype(np.complex128)
    m[1, 2], m[2, 1] = coherence, -coherence
    return m, 1.0


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b by one broadcast product: np.kron's bits, at a quarter of its cost."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _cat_block(t: ThermalParams, basis: CatBasis):
    """K, the displaced thermal state in the cat basis (kernel-normalized), and log c.

    K = [[N+^2 (c + r), N+N- s], [N+N- s, N-^2 (c - r)]]: the one place c - r is formed.
    """
    hat, log_c = scaled_cat_kernels(t, basis)
    y, a = _cat_exponents(t, basis)
    # c - r = 1 - exp(-a) sech(y), O(g^2) at small g, as a sum of two terms >= 0
    odd = hat.s * math.tanh(y / 2.0) - math.expm1(-a) * math.exp(-_log_cosh(y))
    s = basis.n_plus * basis.n_minus * hat.s
    hi = basis.n_plus**2 * (hat.c + hat.r)
    return np.array([[hi, s], [s, basis.n_minus**2 * odd]]), log_c


# Z = diag(1, 1, 1, -1): the controlled parity on {|0,+>, |0,->, |1,+>, |1,->}
# and the controlled phase on {|++>, |+->, |-+>, |-->}.
_Z = np.array([1.0, 1.0, 1.0, -1.0])
# pi: the parity flip of both cat modes, diag(1, -1) (x) diag(1, -1).
_PI = np.array([1.0, -1.0, -1.0, 1.0])


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
    return _output(*_kerr_micro_thermal_state(m, t, basis))


def _kerr_micro_thermal_state(m: MicroState, t: ThermalParams, basis: CatBasis):
    k, log_c = _cat_block(t, basis)
    mu = np.array([[0.5, 0.5 * m.r], [0.5 * m.r, 0.5]])
    return (_Z[:, None] * _kron(mu, k) * _Z).astype(np.complex128), math.exp(log_c)


# S = (C (x) C)[R, R J] of the beam-splitter kernel D S (c (x) X) S^T D
# (_bs_kernel_scaled): C = [[1, 1], [1, -1]] holds the cat coefficients of
# (|g>, |-g>), R sums the coherent components (i1, i3) onto their grid point
# a = g (e1 - e3), and J flips the grid.
_BS_S = np.array(
    [
        [1.0, 2.0, 1.0, 1.0, 2.0, 1.0],
        [1.0, 0.0, -1.0, -1.0, 0.0, 1.0],
        [-1.0, 0.0, 1.0, 1.0, 0.0, -1.0],
        [-1.0, 2.0, -1.0, -1.0, 2.0, -1.0],
    ]
)
# alpha + beta and 1 - alpha beta at the grid points (a, b) = 2 g (alpha, beta)
_BS_SUM = np.array([[-2.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
_BS_FLIP = np.array([[0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [2.0, 1.0, 0.0]])
# The odd-cat entries carry N-^4 ~ 1/(16 gamma^4), which amplifies the roundoff
# of the signed sums; below this gamma they miss the oracle tolerance.
BS_GAMMA_FLOOR = 1e-2


def _bs_kernel_scaled(m: MicroState, t: ThermalParams, basis: CatBasis, sign: int):
    """Cat-projected beam-splitter kernel, returned as (normalized 4x4, log scale).

    Splitting halves the amplitude, which is absorbed by rescaling the
    thermal weight to effective variance v = (V+1)/2 and displacement
    d' = d/sqrt(2).  The sixteen coherent components of the four projectors
    then give Gaussian integrals
    (1/v) exp[(-2 d'^2 + d' (a+b))/v + a b (v-1)/(2v) - 2 g^2] at only nine
    points (a, b) = 2 g (alpha, beta) in {-2 g, 0, 2 g}^2, the grid X.  With
    c = [[1, +-r], [+-r, 1]] the term weights and D = diag(N (x) N) the cat
    norms, the kernel is D S (c (x) X) S^T D (``_BS_S``).

    The largest exponent, at a = b = 2 g sgn(d'), is the completed square
    -2 (|d'| - g)^2/v - log v, the log scale; each other one lies below it by
    2 g [|d'| (2 - sgn(d') (alpha + beta)) + g (1 - alpha beta)(v-1)] / v, a
    sum of terms >= 0.  Nothing cancels at any displacement and variance.
    """
    g = basis.gamma
    if g < BS_GAMMA_FLOOR:
        raise ValueError(f"bs needs gamma >= {BS_GAMMA_FLOOR:g}, got {g!r}")
    v = (t.variance + 1.0) / 2.0
    u = abs(t.displacement) / math.sqrt(2.0)
    spread = 2.0 - math.copysign(1.0, t.displacement) * _BS_SUM
    with np.errstate(over="ignore"):  # an offset past the double range gives exp(-inf) = 0
        x = np.exp(-2.0 * g * (u / v * spread + g * ((v - 1.0) / v) * _BS_FLIP))
    c = np.array([[1.0, sign * m.r], [sign * m.r, 1.0]])
    norms = np.array([basis.n_plus, basis.n_minus])
    dd = (norms[:, None] * norms).reshape(4, 1)
    out = dd * (_BS_S @ _kron(c, x) @ _BS_S.T) * dd.T
    return out.astype(np.complex128), -2.0 * ((u - g) * (u - g) / v) - math.log(v)


def bs_projected_kernel(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> BipartiteMatrix:
    """Unnormalized cat-projected beam-splitter state (term weights 1,1,+-r,+-r).

    Raises ``ValueError`` for gamma below ``BS_GAMMA_FLOOR``.
    """
    normalized, log_shift = _bs_kernel_scaled(m, t, basis, _check_sign(sign))
    return BipartiteMatrix(2, 2, normalized * math.exp(log_shift))


def _sigma_trace(t: ThermalParams) -> float:
    """Trace of the parity-flip sandwich operator: exp(-2 d^2 / V) / V."""
    return math.exp(-2.0 * t.displacement**2 / t.variance) / t.variance


def _conditioned(kernel, power: int, m, t, basis, sign):
    """State of a cat-pair scheme conditioned on a kernel of trace 2 +- 2 r sigma^power.

    sigma = exp(-2 d^2/V)/V is the trace of one mode's parity-flip sandwich
    operator (:func:`_sigma_trace`).  The kernel runs first, so parameters it
    refuses raise ``ValueError`` even at a degenerate point.  An outcome whose
    probability falls below the degeneracy floor raises
    :class:`~mixent.qlinalg.DegenerateStateError`.
    """
    sign = _check_sign(sign)
    normalized, log_scale = kernel(m, t, basis, sign)
    denom = 2.0 + sign * 2.0 * m.r * _sigma_trace(t) ** power
    if denom < _DEGENERATE_PROB:
        raise DegenerateStateError(
            "conditioning outcome has vanishing probability for these parameters"
        )
    return normalized, math.exp(log_scale) / denom


def bs_scheme_projected(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> SchemeOutput:
    """Beam-splitter scheme with the conditioning normalization applied.

    The measurement normalizer is 1/(2 +- 2 r exp(-2 d^2/V)/V); the outcome
    with the minus sign has zero probability at (V=1, d=0, r=1) and raises
    :class:`~mixent.qlinalg.DegenerateStateError` there.  Gamma below
    ``BS_GAMMA_FLOOR`` raises ``ValueError``.
    """
    return _output(*_bs_scheme_state(m, t, basis, sign))


def _tt_kernel_scaled(m: MicroState, t: ThermalParams, basis: CatBasis, sign: int):
    k, log_c = _cat_block(t, basis)
    weights = 1.0 + _PI[:, None] * _PI + sign * m.r * (_PI[:, None] + _PI)
    return (_kron(k, k) * weights).astype(np.complex128), 2.0 * log_c


_bs_scheme_state = partial(_conditioned, _bs_kernel_scaled, 1)
_tt_scheme_state = partial(_conditioned, _tt_kernel_scaled, 2)


def tt_projected_kernel(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> BipartiteMatrix:
    """Unnormalized cat-projected two-thermal state (term weights 1,1,+-r,+-r).

    Both thermal factors are independent, so every entry is a product of
    single-mode cat sandwich blocks: B(+,+) (x) B(+,+) + B(-,-) (x) B(-,-)
    +- r (B(+,-) (x) B(+,-) + B(-,+) (x) B(-,+)).  With B(w, w') = P_w K P_w'
    every term is K (x) K with the signs of pi on its rows, its columns or
    both, so the kernel is (K (x) K) o (1 + pi pi^T +- r (pi 1^T + 1 pi^T)),
    pi = (1, -1, -1, 1).
    """
    normalized, log_scale = _tt_kernel_scaled(m, t, basis, _check_sign(sign))
    return BipartiteMatrix(2, 2, normalized * math.exp(log_scale))


def tt_scheme_projected(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> SchemeOutput:
    """Two-thermal scheme with the conditioning normalization applied.

    The conditional state before projection has trace 2 +- 2 r (exp(-2 d^2/V)/V)^2,
    the squared single-mode factor appearing once per thermal mode.
    """
    return _output(*_tt_scheme_state(m, t, basis, sign))


def direct_kerr_projected(t: ThermalParams, basis: CatBasis) -> SchemeOutput:
    """Two identical displaced thermal states after a controlled-phase coupling.

    On the cat basis the full-period cross-Kerr unitary acts as a controlled
    phase, so each coherent pair |a>|b> spreads into the four parity
    combinations with a single minus sign, on |-->.  The projection is the
    product state K (x) K of the single-mode cat block (:func:`_cat_block`)
    under that phase: Z (K (x) K) Z with Z = diag(1, 1, 1, -1), which flips
    the sign of the six off-diagonal entries that touch |-->.
    """
    return _output(*_direct_kerr_state(t, basis))


def _direct_kerr_state(t: ThermalParams, basis: CatBasis):
    k, log_c = _cat_block(t, basis)
    return (_Z[:, None] * _kron(k, k) * _Z).astype(np.complex128), math.exp(2.0 * log_c)


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return int(sign)
