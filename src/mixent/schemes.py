"""Closed-form locally projected states for five entanglement-generation schemes.

Each constructor returns a Hermitian 4x4 :class:`~mixent.qlinalg.BipartiteMatrix`
together with the NPT of its trace-normalized version.  The five schemes:

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
from itertools import product

import numpy as np

from . import qlinalg
from .qlinalg import BipartiteMatrix, DegenerateStateError
from .states import (
    AtomFieldParams,
    CatBasis,
    MicroState,
    ThermalParams,
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
    """The state normalized * factor, with the NPT of ``normalized``.

    Each constructor is ``_output(*state)`` of its ``_*_state`` function, which sweeps call.
    """
    try:
        value = qlinalg.npt(BipartiteMatrix(2, 2, normalized))
    except DegenerateStateError:
        value = float("nan")
    return SchemeOutput(matrix=BipartiteMatrix(2, 2, normalized * factor), npt_normalized=value)


def _exp_or_zero(log_value: float) -> float:
    return math.exp(log_value) if log_value > -745.0 else 0.0


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
    p, gt, n = params.p, params.gt, params.n
    q = 1.0 - p

    def c(k: int) -> float:
        return math.cos(gt * math.sqrt(k + 1.0))

    def s(k: int) -> float:
        return math.sin(gt * math.sqrt(k + 1.0)) if k >= -1 else 0.0

    pw = params.photon_weight
    m = np.zeros((4, 4), dtype=np.complex128)
    # excited branch, weight p
    m[0, 0] += p * pw(n - 1) * s(n - 1) ** 2
    m[1, 1] += p * pw(n) * c(n) ** 2
    m[1, 2] += 1j * p * pw(n) * c(n) * s(n)
    m[2, 1] += -1j * p * pw(n) * c(n) * s(n)
    m[2, 2] += p * pw(n) * s(n) ** 2
    m[3, 3] += p * pw(n + 1) * c(n + 1) ** 2
    # ground branch, weight q
    m[0, 0] += q * pw(n) * c(n - 1) ** 2
    m[1, 1] += q * pw(n + 1) * s(n) ** 2
    m[1, 2] += -1j * q * pw(n + 1) * c(n) * s(n)
    m[2, 1] += 1j * q * pw(n + 1) * c(n) * s(n)
    m[2, 2] += q * pw(n + 1) * c(n) ** 2
    m[3, 3] += q * pw(n + 2) * s(n + 1) ** 2
    return m, 1.0


def _blocks_from_kernels(k, basis: CatBasis) -> dict:
    np2 = basis.n_plus**2
    nm2 = basis.n_minus**2
    npm = basis.n_plus * basis.n_minus
    hi = np2 * (k.c + k.r)
    lo = nm2 * (k.c - k.r)
    s = npm * k.s
    return {
        (1, 1): np.array([[hi, s], [s, lo]]),
        (-1, -1): np.array([[hi, -s], [-s, lo]]),
        (1, -1): np.array([[hi, -s], [s, -lo]]),
        (-1, 1): np.array([[hi, s], [-s, -lo]]),
    }


def _assemble_micro_blocks(blocks: dict, r: float) -> np.ndarray:
    out = np.zeros((4, 4), dtype=np.complex128)
    out[:2, :2] = blocks[(1, 1)]
    out[2:, 2:] = blocks[(-1, -1)]
    out[:2, 2:] = r * blocks[(1, -1)]
    out[2:, :2] = r * blocks[(-1, 1)]
    return 0.5 * out


def kerr_micro_thermal_projected(
    m: MicroState, t: ThermalParams, basis: CatBasis
) -> SchemeOutput:
    """Cross-Kerr coupled micro-thermal pair, both modes locally projected.

    The controlled-parity interaction maps |1><1| to the mirrored thermal
    state and the |0><1| coherence to the parity-flip sandwich operator, so
    in block form over the micro index the projected state is

        1/2 [[ B(+,+),  r B(+,-) ],
             [ r B(-,+), B(-,-) ]]

    with B(w, w') the 2x2 cat-basis blocks <s| O |s'> of the Gaussian sandwich
    operators O = integral of |w a><w' a| against the thermal weight of ``t``:
    B(+,+) is the displaced thermal state itself, B(-,-) its mirror image, and
    the mixed pairs are the coherence operators created by a parity flip on
    one side (:func:`mixent.states.thermal_cat_kernels`).  The state is
    separable whenever d = 0 (the coherence operator is then transpose
    invariant) or r = 0, and its NPT vanishes there exactly.  Entries are
    linear in the sandwich kernels, so the NPT is computed from the
    kernel-normalized matrix and survives underflow of the absolute scale.
    """
    return _output(*_kerr_micro_thermal_state(m, t, basis))


def _kerr_micro_thermal_state(m: MicroState, t: ThermalParams, basis: CatBasis):
    hat, log_c = scaled_cat_kernels(t, basis)
    return _assemble_micro_blocks(_blocks_from_kernels(hat, basis), m.r), _exp_or_zero(log_c)


# Mode sandwich sign patterns (u1, u2, u3, u4) of the four beam-splitter
# terms |u1 b><u2 b| (x) |u3 b><u4 b|, in the order they appear in the state.
_BS_TERMS = ((1, 1, -1, -1), (-1, -1, 1, 1), (1, -1, -1, 1), (-1, 1, 1, -1))


def _bs_gaussian_log(a: float, b: float, v_eff: float, d_eff: float) -> float:
    """log of integral[ P_th(v_eff, d_eff; beta) exp(-2|beta|^2 + a beta + b beta*) ].

    Closed Gaussian form: (1/v_eff) exp[(-2 d_eff^2 + d_eff (a+b))/v_eff
    + a b (v_eff - 1)/(2 v_eff)], continuous down to the point-mass limit
    v_eff = 1.
    """
    return (
        -math.log(v_eff)
        + (-2.0 * d_eff**2 + d_eff * (a + b)) / v_eff
        + a * b * (v_eff - 1.0) / (2.0 * v_eff)
    )


def _bs_table():
    """Signed contraction of the nine beam-splitter exponentials, per entry and term.

    The sixteen coherent components (i1, i2, i3, i4) of an entry give Gaussian
    integrals at a = u1 e[i1] + u3 e[i3], b = u2 e[i2] + u4 e[i4] with
    e = (gamma, -gamma), so (a, b) takes one of nine values in
    {-2 gamma, 0, 2 gamma}^2.  For each output entry (s1, s2, s1', s2') and
    each term of ``_BS_TERMS`` the table lists, in component order, the
    sixteen indices 3 i_a + i_b into the nine exponentials followed by their
    negatives (+9 where the cat signs multiply to -1).
    """
    csign = ((1.0, 1.0), (1.0, -1.0))  # cat coefficients of (|gamma>, |-gamma>)
    e = (1, -1)
    table = []
    for s1, s2, s1p, s2p in product(range(2), repeat=4):
        terms = []
        for u1, u2, u3, u4 in _BS_TERMS:
            indices = []
            for i1, i2, i3, i4 in product(range(2), repeat=4):
                coeff = csign[s1][i1] * csign[s1p][i2] * csign[s2][i3] * csign[s2p][i4]
                ia = (u1 * e[i1] + u3 * e[i3]) // 2 + 1
                ib = (u2 * e[i2] + u4 * e[i4]) // 2 + 1
                indices.append(3 * ia + ib + (9 if coeff < 0.0 else 0))
            terms.append(tuple(indices))
        table.append(((s1, s2, s1p, s2p), tuple(terms)))
    return tuple(table)


_BS_TABLE = _bs_table()


def _bs_kernel_scaled(m: MicroState, t: ThermalParams, basis: CatBasis, sign: int):
    """Cat-projected beam-splitter kernel, returned as (normalized 4x4, log scale).

    Splitting halves the amplitude, which is absorbed by rescaling the
    thermal weight to effective variance (V+1)/2 and displacement d/sqrt(2);
    every entry then closes as a finite signed sum of Gaussian integrals over
    the sixteen coherent components of the four projectors.  All exponentials
    are shifted by the largest exponent so the entries stay representable at
    any displacement; the shift comes back as the log scale.

    Only nine distinct exponentials occur; they are evaluated once and summed
    through ``_BS_TABLE`` one component at a time, then term by term, in the
    order of the direct sixteen-component loop and with zero-weight terms
    skipped.  That keeps every entry's rounding, so the structurally zero NPT
    of a separable state stays exactly zero; a reordered sum (``einsum``,
    ``np.sum``, ``math.fsum``) turns some of those zeros into roundoff.
    """
    g = basis.gamma
    v_eff = (t.variance + 1.0) / 2.0
    d_eff = t.displacement / math.sqrt(2.0)
    norms = (basis.n_plus, basis.n_minus)
    weights = (1.0, 1.0, sign * m.r, sign * m.r)
    shifts = (-2.0 * g, 0.0, 2.0 * g)

    logs = [_bs_gaussian_log(a, b, v_eff, d_eff) for a in shifts for b in shifts]
    log_shift = max(logs) - 2.0 * g * g
    exps = [_exp_or_zero(x - 2.0 * g * g - log_shift) for x in logs]
    signed = exps + [-x for x in exps]  # -x is exactly (-1.0) * x

    out = np.zeros((4, 4), dtype=np.complex128)
    for (s1, s2, s1p, s2p), terms in _BS_TABLE:
        total = 0.0
        for w_t, indices in zip(weights, terms):
            if w_t == 0.0:
                continue
            acc = 0.0
            for k in indices:
                acc += signed[k]
            total += w_t * acc
        out[2 * s1 + s2, 2 * s1p + s2p] = (
            norms[s1] * norms[s1p] * norms[s2] * norms[s2p] * total
        )
    return out, log_shift


def bs_projected_kernel(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> BipartiteMatrix:
    """Unnormalized cat-projected beam-splitter state (term weights 1,1,+-r,+-r)."""
    sign = _check_sign(sign)
    normalized, log_shift = _bs_kernel_scaled(m, t, basis, sign)
    return BipartiteMatrix(2, 2, normalized * _exp_or_zero(log_shift))


def _sigma_trace(t: ThermalParams) -> float:
    """Trace of the parity-flip sandwich operator: exp(-2 d^2 / V) / V."""
    ex = -2.0 * t.displacement**2 / t.variance
    return (math.exp(ex) if ex > -745.0 else 0.0) / t.variance


def _conditioned(kernel, power: int, m, t, basis, sign):
    """State of a cat-pair scheme conditioned on a kernel of trace 2 +- 2 r sigma^power.

    sigma = exp(-2 d^2/V)/V is the trace of one mode's parity-flip sandwich
    operator (:func:`_sigma_trace`).  An outcome whose probability falls below
    the degeneracy floor raises :class:`~mixent.qlinalg.DegenerateStateError`.
    """
    sign = _check_sign(sign)
    denom = 2.0 + sign * 2.0 * m.r * _sigma_trace(t) ** power
    if denom < _DEGENERATE_PROB:
        raise DegenerateStateError(
            "conditioning outcome has vanishing probability for these parameters"
        )
    normalized, log_scale = kernel(m, t, basis, sign)
    return normalized, _exp_or_zero(log_scale) / denom


def bs_scheme_projected(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> SchemeOutput:
    """Beam-splitter scheme with the conditioning normalization applied.

    The measurement normalizer is 1/(2 +- 2 r exp(-2 d^2/V)/V); the outcome
    with the minus sign has zero probability at (V=1, d=0, r=1) and raises
    :class:`~mixent.qlinalg.DegenerateStateError` there.
    """
    return _output(*_bs_scheme_state(m, t, basis, sign))


def _tt_kernel_scaled(m: MicroState, t: ThermalParams, basis: CatBasis, sign: int):
    hat, log_c = scaled_cat_kernels(t, basis)
    blocks = _blocks_from_kernels(hat, basis)
    k = (
        np.kron(blocks[(1, 1)], blocks[(1, 1)])
        + np.kron(blocks[(-1, -1)], blocks[(-1, -1)])
        + sign * m.r * np.kron(blocks[(1, -1)], blocks[(1, -1)])
        + sign * m.r * np.kron(blocks[(-1, 1)], blocks[(-1, 1)])
    )
    return k.astype(np.complex128), 2.0 * log_c


_bs_scheme_state = partial(_conditioned, _bs_kernel_scaled, 1)
_tt_scheme_state = partial(_conditioned, _tt_kernel_scaled, 2)


def tt_projected_kernel(
    m: MicroState, t: ThermalParams, basis: CatBasis, sign: int
) -> BipartiteMatrix:
    """Unnormalized cat-projected two-thermal state (term weights 1,1,+-r,+-r).

    Both thermal factors are independent, so every entry is a product of
    single-mode cat sandwich blocks: thermal (x) thermal for the two direct
    terms and parity-flip (x) parity-flip for the two coherence terms.
    """
    sign = _check_sign(sign)
    normalized, log_scale = _tt_kernel_scaled(m, t, basis, sign)
    return BipartiteMatrix(2, 2, normalized * _exp_or_zero(log_scale))


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
    combinations with a single minus sign.  With X = c + r, Y = c - r and the
    kernels of :func:`~mixent.states.thermal_cat_kernels`, the projection is
    the congruence D P D of the sign-patterned polynomial matrix

        P = [[ X^2,  X s,  s X, -s^2],
             [ X s,  X Y,  s^2, -s Y],
             [ s X,  s^2,  Y X, -Y s],
             [-s^2, -s Y, -Y s,  Y^2]]

    by the cat normalization D = diag(N+^2, N+N-, N+N-, N-^2).
    """
    return _output(*_direct_kerr_state(t, basis))


def _direct_kerr_state(t: ThermalParams, basis: CatBasis):
    hat, log_c = scaled_cat_kernels(t, basis)
    x = hat.c + hat.r
    y = hat.c - hat.r
    s = hat.s
    p = np.array(
        [
            [x * x, x * s, s * x, -s * s],
            [x * s, x * y, s * s, -s * y],
            [s * x, s * s, y * x, -y * s],
            [-s * s, -s * y, -y * s, y * y],
        ]
    )
    d = np.diag(
        [
            basis.n_plus**2,
            basis.n_plus * basis.n_minus,
            basis.n_plus * basis.n_minus,
            basis.n_minus**2,
        ]
    )
    return (d @ p @ d).astype(np.complex128), _exp_or_zero(2.0 * log_c)


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return int(sign)
