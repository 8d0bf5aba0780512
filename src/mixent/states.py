"""Physical parameter sets and overlap kernels.

Displaced thermal fields, even/odd cat-state projection bases, the
vacuum/single-photon mixture, thermal atom-field parameters, and the
closed-form purities of all of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qlinalg import BipartiteMatrix

__all__ = [
    "AtomFieldParams",
    "CatBasis",
    "CatKernels",
    "MicroState",
    "ThermalParams",
    "atom_purity",
    "field_purity",
    "micro_state_matrix",
    "scaled_cat_kernels",
]


def _real_scalar(value, name: str) -> float:
    x = complex(value)
    if x.imag != 0.0:
        raise ValueError(f"{name} must be real, got {value!r}")
    if not math.isfinite(x.real):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x.real


def _squarable(x: float, name: str) -> float:
    # the kernels square d and gamma; past 1.34e154 that overflows
    if not math.isfinite(x * x):
        raise ValueError(f"{name} must have a finite square, got {x!r}")
    return x


@dataclass(frozen=True)
class ThermalParams:
    """Displaced thermal field with quadrature variance V >= 1.

    The coherent-state weight function is a Gaussian of variance (V-1)/4 per
    quadrature centered at the real displacement d; V = 1 is the pure
    coherent (or vacuum) limit.  Mean photon number: (V-1)/2 + d^2.
    """

    variance: float
    displacement: float = 0.0

    def __post_init__(self) -> None:
        v = _real_scalar(self.variance, "variance")
        d = _squarable(_real_scalar(self.displacement, "displacement"), "displacement")
        if v < 1.0:
            raise ValueError(f"variance must be >= 1, got {v}")
        object.__setattr__(self, "variance", v)
        object.__setattr__(self, "displacement", d)

    @property
    def mean_photon_number(self) -> float:
        return (self.variance - 1.0) / 2.0 + self.displacement**2

    @property
    def purity(self) -> float:
        """1/V, independent of the displacement (displacing is unitary)."""
        return 1.0 / self.variance

    @property
    def boltzmann_ratio(self) -> float:
        """The lambda of the undisplaced thermal state with the same V."""
        return (self.variance - 1.0) / (self.variance + 1.0)


def _cat_norms(g):
    """N+ and N- of the cat basis of amplitude g, a float or array; 1 - exp(-2 g^2) via expm1."""
    x = -2.0 * (g * g)
    return 1.0 / np.sqrt(2.0 * (1.0 + np.exp(x))), 1.0 / np.sqrt(2.0 * -np.expm1(x))


@dataclass(frozen=True)
class CatBasis:
    """Orthonormal even/odd superpositions of |gamma> and |-gamma>.

    |+-> = N_pm (|gamma> +- |-gamma>), N_pm = 1/sqrt(2(1 +- exp(-2 gamma^2))).
    gamma is restricted to real positive values.
    """

    gamma: float

    def __post_init__(self) -> None:
        g = _squarable(_real_scalar(self.gamma, "gamma"), "gamma")
        if g <= 0.0:
            raise ValueError(f"gamma must be > 0, got {g}")
        object.__setattr__(self, "gamma", g)
        # below gamma ~ 3.7e-155, 1 - exp(-2 gamma^2) is 0 or so small that N_-^2 overflows
        norms = tuple(map(float, _cat_norms(g))) if math.expm1(-2.0 * g**2) < 0 else (math.nan,) * 2
        if not math.isfinite(norms[1] * norms[1]):
            raise ValueError(f"gamma must give a finite N_-^2, got {g!r}")
        # computed once; an attribute, not a field, so repr, == and hash see gamma alone
        object.__setattr__(self, "_norms", norms)

    @property
    def n_plus(self) -> float:
        return self._norms[0]

    @property
    def n_minus(self) -> float:
        return self._norms[1]


@dataclass(frozen=True)
class MicroState:
    """Vacuum/single-photon mixture with coherence r in [0, 1].

    As a 2x2 matrix: [[1, r], [r, 1]] / 2, with purity (1 + r^2)/2.
    """

    r: float

    def __post_init__(self) -> None:
        r = _real_scalar(self.r, "r")
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {r}")
        object.__setattr__(self, "r", r)

    @property
    def purity(self) -> float:
        return (1.0 + self.r**2) / 2.0


def micro_state_matrix(m: MicroState) -> BipartiteMatrix:
    """The 2x2 density matrix of the vacuum/single-photon mixture."""
    r = m.r
    entries = np.array([[0.5, 0.5 * r], [0.5 * r, 0.5]], dtype=np.complex128)
    return BipartiteMatrix(2, 1, entries)


@dataclass(frozen=True)
class AtomFieldParams:
    """Two-level atom mixed with weight p on |e>, thermal field ratio lam.

    ``lam`` in [0, 1) is the Boltzmann weight ratio of the field (photon
    number k carries weight (1 - lam) lam^k); the infinite-temperature limit
    is probed with lam close to 1, never stored exactly.  ``gt`` is the
    coupling-time product in radians and ``n`` the field projection index.
    """

    p: float
    lam: float
    gt: float
    n: int = 0

    def __post_init__(self) -> None:
        p = _real_scalar(self.p, "p")
        lam = _real_scalar(self.lam, "lam")
        gt = _real_scalar(self.gt, "gt")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        if not 0.0 <= lam < 1.0:
            raise ValueError(f"lam must lie in [0, 1), got {lam}")
        if gt < 0.0:
            raise ValueError(f"gt must be >= 0, got {gt}")
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {self.n!r}")
        # n is converted to a double below; a larger int has no double value
        if self.n > sys.float_info.max:
            raise ValueError(f"n must lie within the double range, got an int of {int(self.n).bit_length()} bits")
        # the state takes cos(gt sqrt(k + 1)) up to k = n + 1
        if not math.isfinite(gt * math.sqrt(self.n + 2.0)):
            raise ValueError(f"gt * sqrt(n + 2) must be finite, got gt={gt!r} and n={self.n}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gt", gt)
        object.__setattr__(self, "n", int(self.n))

    @property
    def atom_purity(self) -> float:
        return atom_purity(self.p)

    @property
    def field_purity(self) -> float:
        return field_purity(self.lam)


def atom_purity(p: float) -> float:
    """2 (p - 1/2)^2 + 1/2: 1 for a pure atom, 1/2 when maximally mixed."""
    return 2.0 * (p - 0.5) ** 2 + 0.5


def field_purity(lam: float) -> float:
    """(1 - lam)/(1 + lam): 1 at zero temperature, -> 0 as lam -> 1."""
    return (1.0 - lam) / (1.0 + lam)


class CatKernels(NamedTuple):
    """Gaussian sandwich kernels of a displaced thermal state in a cat basis.

    With V the variance, d the displacement and g the cat amplitude:

      c = (4/(V+1)) exp[-2(g^2 + d^2)/(V+1)] cosh[4 g d/(V+1)]
      s = (4/(V+1)) exp[-2(g^2 + d^2)/(V+1)] sinh[4 g d/(V+1)]
      r = (4/(V+1)) exp[-2(V g^2 + d^2)/(V+1)]

    c and r are even in d, s is odd; c >= |s| always; s = 0 exactly at d = 0.
    """

    c: float
    s: float
    r: float


def _scaled_kernels(v, d, g):
    """s/c, r/c, (c - r)/c and log c of rows of V, d, gamma (floats or 1-D arrays).

    With y = 4 g d/(V+1) and a = 2 g^2 (V-1)/(V+1), s/c = tanh(y) and
    r/c = exp(-a)/cosh(y), log cosh(y) = |y| - log 2 + log1p(exp(-2|y|)).  y is
    infinite only past the double range (g d is finite), never NaN; callers
    ignore overflow warnings.  (c - r)/c = 1 - exp(-a) sech(y), O(g^2) at small
    g, is a sum of two terms >= 0, and log c is a completed square: nothing cancels.
    """
    y = 4.0 * (g * d / (v + 1.0))
    a = 2.0 * ((v - 1.0) / (v + 1.0)) * (g * g)
    tail = np.log1p(np.exp(-2.0 * abs(y)))
    log_cosh = abs(y) - math.log(2.0) + tail
    s = np.tanh(y)
    odd = s * np.tanh(y / 2.0) - np.expm1(-a) * np.exp(-log_cosh)
    # log(4/(V+1)) - 2 (g^2 + d^2)/(V+1) + log cosh(y), its 4 g |d|/(V+1) terms cancelled
    gap = g - abs(d)
    log_c = np.log(2.0 / (v + 1.0)) - 2.0 * (gap * gap / (v + 1.0)) + tail
    return s, np.exp(-a - log_cosh), odd, log_c


def scaled_cat_kernels(t: ThermalParams, basis: CatBasis) -> tuple[CatKernels, float]:
    """Kernels normalized to c = 1, plus log(c) carried separately.

    s/c and r/c (:func:`_scaled_kernels` at one row) are representable for any parameters,
    while c itself underflows once 2 (g - |d|)^2/(V+1) passes the exponent
    range.  Quantities that are invariant under a common positive rescaling
    (NPT of the trace-normalized state, most prominently) should be computed
    from the normalized kernels; absolute scales are recovered from the
    returned log.
    """
    with np.errstate(over="ignore"):
        s, r, _, log_c = _scaled_kernels(*np.array([t.variance, t.displacement, basis.gamma]))
    return CatKernels(c=1.0, s=float(s), r=float(r)), float(log_c)

