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
state in the cat basis (``_cat_row``).  The parity flip |a> -> |-a> fixes
|+> and negates |->, so every Gaussian sandwich block <s| integral
|w a><w' a| |s'> is B(w, w') = P_w K P_w' with P_+ = 1 and P_- = diag(1, -1),
and each scheme is a fixed sandwich of K, written once over a leading axis of rows:

* ``kerr_micro_thermal``: Z (mu (x) K) Z, with mu = 1/2 [[1, r], [r, 1]] and
  Z = diag(1, 1, 1, -1) the controlled parity;
* ``direct_kerr``: Z (K (x) K) Z;
* ``tt``: (K (x) K) o (1 + pi pi^T +- r (pi 1^T + 1 pi^T)), pi = (1, -1, -1, 1);
* ``bs``: D S (c (x) X) S^T D, with X the nine Gaussian integrals of the split
  state, c = [[1, +-r], [+-r, 1]], D = diag(N (x) N) and S a fixed 4x6 matrix.

A block function takes one list per parameter, in the CLI's parameter order,
holding N rows of Python floats (ints for ``n`` and ``sign``); it does not check
them.  It returns one result, ``(normalized, log_scales, probs)``: the
kernel-normalized (N, 4, 4) stack, the N log scales and the N probabilities of
the measurement outcome, 2 +- 2 r sigma^power for ``bs`` and ``tt`` and 1 for
the other three.  Everything else is derived from it here:
``block_kernels`` gives the kernels normalized * exp(log_scale), which the
oracle reproduces for every scheme, and ``block_states`` the states' factors
exp(log_scale) / prob; a degenerate row (an outcome probability below
``_DEGENERATE_PROB``) is the zero matrix at factor NaN.  As exp(x) / 1 is
exp(x), the factors of ``jc``, ``kerr_micro_thermal`` and ``direct_kerr`` are
their kernels' scales.  A row's own arithmetic runs on Python floats with
``math``: numpy's ``exp``, ``log`` and powers can differ from it in the last
bit, and floats beat arrays at one row.  The sandwiches and the ``bs`` grid's
``exp`` run on arrays.

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
from .qlinalg import BipartiteMatrix, DegenerateStateError, _kron
# scaled_cat_kernels is not called here: bench/layertrace.py wraps it by this module's name
from .states import (  # noqa: F401
    AtomFieldParams,
    CatBasis,
    MicroState,
    ThermalParams,
    _cat_norms,
    _scaled_row,
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


def block_kernels(normalized, log_scales, probs) -> np.ndarray:
    """The kernels normalized * exp(log_scale) of a block function's result.

    They are what the oracle reproduces, for every scheme.
    """
    return normalized * np.array([math.exp(s) for s in log_scales])[:, None, None]


def block_states(normalized, log_scales, probs) -> tuple:
    """The states of a block function's result: a normalized (N, 4, 4) stack and (N,) factors.

    A row's factor is exp(log_scale) / prob.  A row whose outcome probability
    is below ``_DEGENERATE_PROB`` has no state: it is the zero matrix (in a
    copy; ``normalized`` is left as it is) at factor NaN.
    """
    factors = [
        math.exp(s) / p if p >= _DEGENERATE_PROB else math.nan for s, p in zip(log_scales, probs)
    ]
    if math.isnan(sum(factors)):  # the other factors are finite and >= 0
        normalized = normalized.copy()
        normalized[[i for i, f in enumerate(factors) if math.isnan(f)]] = 0.0
    return normalized, np.array(factors)


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


def jc_block(p, lam, gt, n):
    """``jc_projected`` for N rows: the (N, 4, 4) states, log scales 0 and probabilities 1."""
    states = np.array([_jc_row(*row) for row in zip(p, lam, gt, n)], dtype=np.complex128)
    return states, [0.0] * len(p), [1.0] * len(p)


def _jc_row(p: float, lam: float, gt: float, n: int) -> tuple:
    """The 4x4 state of one row as nested tuples of Python floats."""
    q = 1.0 - p
    # C_k, S_k at gt sqrt(k + 1) for k = n - 1, n, n + 1; P_k = (1-lam) lam^k, k = n - 1 .. n + 2
    a0, a1, a2 = gt * math.sqrt(n), gt * math.sqrt(n + 1.0), gt * math.sqrt(n + 2.0)
    c0, c1, c2 = math.cos(a0), math.cos(a1), math.cos(a2)
    s0, s1, s2 = math.sin(a0), math.sin(a1), math.sin(a2)
    w = 1.0 - lam
    w0 = w * lam ** (n - 1) if n > 0 else 0.0
    w1, w2, w3 = w * lam**n, w * lam ** (n + 1), w * lam ** (n + 2)
    # excited branch weight p, ground branch weight q; |e,n> <-> |g,n+1> coherence
    coherence = 1j * (p * w1 * c1 * s1 - q * w2 * c1 * s1)
    return (
        (p * w0 * s0**2 + q * w1 * c0**2, 0.0, 0.0, 0.0),
        (0.0, p * w1 * c1**2 + q * w2 * s1**2, coherence, 0.0),
        (0.0, -coherence, p * w1 * s1**2 + q * w2 * c1**2, 0.0),
        (0.0, 0.0, 0.0, p * w2 * c2**2 + q * w3 * s2**2),
    )


def _cat_row(v: float, d: float, g: float) -> tuple[float, float, float, float]:
    """K's entries N+^2 (c + r), N+N- s, N-^2 (c - r) (kernel-normalized) and log c at one row."""
    s, r, odd, log_c = _scaled_row(v, d, g)
    n_plus, n_minus = _cat_norms(g)
    return n_plus**2 * (1.0 + r), n_plus * n_minus * s, n_minus**2 * odd, log_c


def _cat_stack(V, d, gamma):
    """K of each row as an (N, 2, 2) stack, and the list of log c."""
    rows = [_cat_row(*row) for row in zip(V, d, gamma)]
    return np.array([((hi, s), (s, lo)) for hi, s, lo, _ in rows]), [row[3] for row in rows]


# Z = diag(1, 1, 1, -1): the controlled parity on {|0,+>, |0,->, |1,+>, |1,->}
# and the controlled phase on {|++>, |+->, |-+>, |-->}.
_Z = np.array([1.0, 1.0, 1.0, -1.0])
# pi: the parity flip of both cat modes, diag(1, -1) (x) diag(1, -1).
_PI = np.array([1.0, -1.0, -1.0, 1.0])
# Z . Z as one product: flipping a sign twice or once is exact either way
_ZZ = _Z[:, None] * _Z
# the tt weights 1 + pi pi^T +- r (pi 1^T + 1 pi^T)
_TT_EVEN = 1.0 + _PI[:, None] * _PI
_TT_ODD = _PI[:, None] + _PI


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


def kerr_micro_thermal_block(r, V, d, gamma):
    """``kerr_micro_thermal_projected`` for N rows: Z (mu (x) K) Z, log c and probabilities 1."""
    k, log_c = _cat_stack(V, d, gamma)
    mu = np.array([((0.5, 0.5 * x), (0.5 * x, 0.5)) for x in r])
    return (_kron(mu, k) * _ZZ).astype(np.complex128), log_c, [1.0] * len(r)


# S = (C (x) C)[R, R J] of the beam-splitter kernel D S (c (x) X) S^T D
# (bs_scheme_block): C = [[1, 1], [1, -1]] holds the cat coefficients of
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
_BS_SUM = (-2.0, -1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 1.0, 2.0)
_BS_FLIP = (0.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0, 0.0)
# The odd-cat entries carry N-^4 ~ 1/(16 gamma^4), which amplifies the roundoff
# of the signed sums; below this gamma they miss the oracle tolerance.
BS_GAMMA_FLOOR = 1e-2


def _check_bs_gamma(g: float) -> float:
    if g < BS_GAMMA_FLOOR:
        raise ValueError(f"bs needs gamma >= {BS_GAMMA_FLOOR:g}, got {g!r}")
    return g


def bs_scheme_block(r, V, d, gamma, sign):
    """``bs_scheme_projected`` for N rows: normalized kernels, log scales and outcome probabilities.

    Splitting halves the amplitude, which is absorbed by rescaling the
    thermal weight to effective variance v = (V+1)/2 and displacement
    d' = d/sqrt(2).  The sixteen coherent components of the four projectors
    then give Gaussian integrals
    (1/v) exp[(-2 d'^2 + d' (a+b))/v + a b (v-1)/(2v) - 2 g^2] at only nine
    points (a, b) = 2 g (alpha, beta) in {-2 g, 0, 2 g}^2, the grid X.  With
    c = [[1, +-r], [+-r, 1]] the term weights and D = diag(N (x) N) the cat
    norms, the kernel is D S (c (x) X) S^T D (``_BS_S``).  The outcome
    probability is 2 +- 2 r sigma (``_outcome_probs``).

    The largest exponent, at a = b = 2 g sgn(d'), is the completed square
    -2 (|d'| - g)^2/v - log v, the log scale; each other one lies below it by
    2 g [|d'| (2 - sgn(d') (alpha + beta)) + g (1 - alpha beta)(v-1)] / v, a
    sum of terms >= 0.  Nothing cancels at any displacement and variance.
    Raises ``ValueError`` for gamma below ``BS_GAMMA_FLOOR``.
    """
    rows = np.array([_bs_row(*row) for row in zip(r, V, d, gamma, sign)])
    x = np.exp(rows[:, :9]).reshape(-1, 3, 3)  # an exponent past the double range is -inf
    c, dd = rows[:, 9:13].reshape(-1, 2, 2), rows[:, 13:17]
    out = dd[:, :, None] * (_BS_S @ _kron(c, x) @ _BS_S.T) * dd[:, None, :]
    return out.astype(np.complex128), rows[:, 17].tolist(), _outcome_probs(r, V, d, sign, 1)


def _bs_row(r: float, v: float, d: float, g: float, sign: int) -> list:
    """One row of the bs kernel in Python floats: X's nine exponents, c, diag D, log scale."""
    n_plus, n_minus = _cat_norms(_check_bs_gamma(g))
    v = (v + 1.0) / 2.0
    u = abs(d) / math.sqrt(2.0)
    sgn, scale, flip = math.copysign(1.0, d), -2.0 * g, g * ((v - 1.0) / v)
    row = [scale * (u / v * (2.0 - sgn * a) + flip * b) for a, b in zip(_BS_SUM, _BS_FLIP)]
    row += [1.0, sign * r, sign * r, 1.0]
    row += [n_plus * n_plus, n_plus * n_minus, n_minus * n_plus, n_minus * n_minus]
    row.append(-2.0 * ((u - g) * (u - g) / v) - math.log(v))
    return row


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


def _outcome_probs(r, V, d, sign, power):
    """The traces 2 +- 2 r sigma^power of a cat-pair scheme's kernels before projection.

    sigma = exp(-2 d^2/V)/V is the trace of one mode's parity-flip sandwich
    operator; the power counts the thermal modes.
    """
    return [
        2.0 + s * 2.0 * r_ * (math.exp(-2.0 * x**2 / v) / v) ** power
        for r_, v, x, s in zip(r, V, d, sign)
    ]


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


def tt_scheme_block(r, V, d, gamma, sign):
    """``tt_scheme_projected`` for N rows: (K (x) K) o weights, 2 log c, outcome probabilities."""
    k, log_c = _cat_stack(V, d, gamma)
    weights = _TT_EVEN + np.array([s * x for s, x in zip(sign, r)])[:, None, None] * _TT_ODD
    kernels = (_kron(k, k) * weights).astype(np.complex128)
    return kernels, [2.0 * x for x in log_c], _outcome_probs(r, V, d, sign, 2)


def direct_kerr_projected(t: ThermalParams, basis: CatBasis) -> SchemeOutput:
    """Two identical displaced thermal states after a controlled-phase coupling.

    On the cat basis the full-period cross-Kerr unitary acts as a controlled
    phase, so each coherent pair |a>|b> spreads into the four parity
    combinations with a single minus sign, on |-->.  The projection is the
    product state K (x) K of the single-mode cat block (:func:`_cat_row`)
    under that phase: Z (K (x) K) Z with Z = diag(1, 1, 1, -1), which flips
    the sign of the six off-diagonal entries that touch |-->.
    """
    return _output(*direct_kerr_block([t.variance], [t.displacement], [basis.gamma]))


def direct_kerr_block(V, d, gamma):
    """``direct_kerr_projected`` for N rows: Z (K (x) K) Z, 2 log c and probabilities 1."""
    k, log_c = _cat_stack(V, d, gamma)
    return (_kron(k, k) * _ZZ).astype(np.complex128), [2.0 * x for x in log_c], [1.0] * len(V)


def _pair_columns(m: MicroState, t: ThermalParams, basis: CatBasis, sign: int) -> tuple:
    """The one-row columns of a cat-pair scheme's arguments; sign must be +1 or -1."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return [m.r], [t.variance], [t.displacement], [basis.gamma], [int(sign)]
