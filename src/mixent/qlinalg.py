"""Dense complex linear algebra for small bipartite operators.

Partial transposition, Hermitian eigensystems, negativity of partial
transpose (NPT) and purity utilities.  Everything here is a pure function of
its inputs; :class:`BipartiteMatrix` instances are immutable after
construction.

Eigenvalues come from LAPACK (``np.linalg.eigvalsh``).  Where a separable
state's partial transpose has a smallest eigenvalue of exactly 0, LAPACK
returns roundoff of either sign; one zero rule (``NPT_ZERO_BOUND``) turns every
smallest eigenvalue inside the solver's error bound into an NPT of exactly 0.
Its mirror caps the NPT at 1: the partial transpose of a unit-trace PSD state
has no eigenvalue below -1/2, so a larger value is roundoff as well.
One scorer, ``_npt_stack``, computes every NPT with one ``eigvalsh`` call
over a stack: sweeps pass it a block of rows, the scheme constructors one
state, and :func:`npt` one matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BipartiteMatrix",
    "DegenerateStateError",
    "HermiticityError",
    "InvalidShapeError",
    "NumericInputError",
    "hermitian_eigensystem",
    "max_abs_deviation",
    "min_eigenvalue",
    "npt",
    "partial_transpose",
    "purity",
]

# Hermiticity defects below this are treated as float noise and symmetrized
# away; anything larger is a construction bug and is rejected.
HERMITICITY_TOL = 1e-10

# A backward-stable eigensolver is off by a small multiple of eps ||A||, so a
# smallest eigenvalue within this bound of 0 cannot be told from 0.
NPT_ZERO_BOUND = 4.0 * np.finfo(float).eps


class InvalidShapeError(ValueError):
    """Matrix shape inconsistent with the declared factor dimensions."""


class NumericInputError(ValueError):
    """Non-finite entries where finite numbers are required."""


class HermiticityError(ValueError):
    """Hermiticity defect too large to be float noise."""


class DegenerateStateError(ValueError):
    """Operation needs a positive trace but the matrix has (near) zero trace."""


@dataclass(frozen=True, eq=False)
class BipartiteMatrix:
    """Square complex matrix on a tensor product H_A (x) H_B.

    Row-major logical indexing: the product basis vector ``(a, b)`` maps to
    row ``a * dim_b + b``.  Projected states stored in this container are
    Hermitian but generally have trace < 1 (local projections are not
    unitary), so nothing here assumes unit trace.
    """

    dim_a: int
    dim_b: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise InvalidShapeError("factor dimensions must be positive")
        size = self.dim_a * self.dim_b
        arr = np.array(self.entries, dtype=np.complex128, order="C")
        if arr.shape != (size, size):
            raise InvalidShapeError(
                f"expected a {size}x{size} matrix for factors "
                f"({self.dim_a}, {self.dim_b}), got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def scaled(self, factor: float) -> "BipartiteMatrix":
        return BipartiteMatrix(self.dim_a, self.dim_b, self.entries * factor)


def partial_transpose(m: BipartiteMatrix, which: str = "B") -> BipartiteMatrix:
    """Transpose one tensor factor of a bipartite matrix.

    For ``which="B"``: out[(a,b),(a',b')] = m[(a,b'),(a',b)].  The operation
    is a pure reindexing, so applying it twice returns the input bit-exactly;
    trace and Hermiticity are preserved.
    """
    pt = _partial_transposes(m.entries[None], m.dim_a, m.dim_b, which)
    return BipartiteMatrix(m.dim_a, m.dim_b, pt[0])


def _partial_transposes(stack: np.ndarray, dim_a: int, dim_b: int, which: str = "B") -> np.ndarray:
    """The partial transpose on factor ``which`` of each matrix of a stack: the one reindexing."""
    if which not in ("A", "B"):
        raise ValueError(f"factor selector must be 'A' or 'B', got {which!r}")
    pt = stack.reshape(-1, dim_a, dim_b, dim_a, dim_b).transpose(0, 1, 4, 3, 2).reshape(stack.shape)
    return pt if which == "B" else pt.swapaxes(1, 2)  # on A: the transpose of that on B


def hermitian_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in ascending order and eigenvectors (columns) of a Hermitian matrix.

    A thin wrapper of LAPACK's ``np.linalg.eigh`` that rejects non-square input.
    """
    arr = np.array(matrix, dtype=np.complex128)
    n = arr.shape[0]
    if arr.ndim != 2 or arr.shape != (n, n):
        raise InvalidShapeError(f"expected a square matrix, got shape {arr.shape}")
    return np.linalg.eigh(arr)


def _hermitian_parts(stack: np.ndarray) -> np.ndarray:
    """(a + a^dagger)/2 of each matrix a of a stack, the one Hermiticity check: the first matrix
    that is not finite or has a defect >= ``HERMITICITY_TOL`` raises (callers ignore inf - inf).
    """
    adjoint = stack.conj().swapaxes(1, 2)
    defects = np.abs(stack - adjoint)
    if not defects.max(initial=0.0) < HERMITICITY_TOL:  # NaN fails too
        worst = defects.max(axis=(1, 2))
        bad = int(np.argmax(~(worst < HERMITICITY_TOL)))
        if not np.isfinite(stack[bad]).all():
            raise NumericInputError("matrix has non-finite entries")
        raise HermiticityError(
            f"hermiticity defect {worst[bad]:.3e} exceeds tolerance {HERMITICITY_TOL:.0e}"
        )
    return (stack + adjoint) / 2.0


@np.errstate(invalid="ignore")
def min_eigenvalue(m: BipartiteMatrix) -> float:
    """Smallest eigenvalue, after silent symmetrization."""
    return float(hermitian_eigensystem(_hermitian_parts(m.entries[None])[0])[0][0])


def npt(m: BipartiteMatrix) -> float:
    """Negativity of partial transpose, -2 min(0, eps): :func:`_npt_stack` of one matrix.

    ``eps`` is the smallest eigenvalue of the partial transpose on factor B.
    The matrix is first normalized by its trace, which is the convention used
    for every projected state in this package (the absolute scale carries no
    information).  An ``eps`` within ``NPT_ZERO_BOUND`` times the largest
    |eigenvalue| of 0 gives exactly 0, and an ``eps`` below -1/2 gives 1 (it
    is roundoff for a PSD matrix; a matrix that is not PSD reads at most 1 too).
    """
    value = float(_npt_stack(m.entries[None], m.dim_a, m.dim_b)[0])
    if math.isnan(value):
        raise DegenerateStateError(f"cannot normalize matrix with trace {m.trace().real}")
    return value


@np.errstate(invalid="ignore")  # inf * 0, inf - inf: a non-finite row is bad either way
def _npt_stack(entries, dim_a: int = 2, dim_b: int = 2) -> np.ndarray:
    """NPT of each matrix of an (N, dim_a dim_b, dim_a dim_b) stack: the one NPT scorer.

    A row with a trace not above 1e-300 (the floor keeps 1/tr finite) gives
    NaN; among the others the first non-finite or non-Hermitian one raises.
    """
    stack = np.asarray(entries, dtype=np.complex128)
    size = dim_a * dim_b
    if stack.ndim != 3 or stack.shape[1:] != (size, size):
        raise InvalidShapeError(f"expected an (N, {size}, {size}) stack, got shape {stack.shape}")
    pt = _partial_transposes(stack, dim_a, dim_b)
    tr = pt.trace(axis1=1, axis2=2).real
    whole = np.minimum.reduce(tr, initial=math.inf) > 1e-300  # NaN fails too
    if not whole:
        usable = tr > 1e-300
        pt, tr = pt[usable], tr[usable]
    w = np.linalg.eigvalsh(_hermitian_parts(pt * (1.0 / tr)[:, None, None]))
    # w ascends and sums to 1, so max |w| = max(-w[0], w[-1]) with w[-1] > 0, and the
    # bound (a power of 2 below 1) times it is below -w[0] iff the bound times w[-1] is,
    # or, doubled exactly, 2 bound w[-1] below -2 w[0]; w[0] >= -1/2 for a unit-trace
    # PSD state, so an NPT above 1 is roundoff
    doubled, bound = -2.0 * w[:, 0], (2.0 * NPT_ZERO_BOUND) * w[:, -1]
    values = np.minimum(doubled, 1.0, out=np.zeros(len(w)), where=doubled > bound)
    if whole:
        return values
    out = np.full(len(stack), np.nan)
    out[usable] = values
    return out


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b over the last two axes, with any leading axes, by one broadcast product.

    Each entry is one product, as in ``np.kron``, so the bits are the same.
    """
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


@np.errstate(invalid="ignore")
def purity(m: BipartiteMatrix) -> float:
    """Tr[(m / Tr m)^2] of a Hermitian matrix with positive trace."""
    a = _hermitian_parts(m.entries[None])[0]
    tr = float(np.trace(a).real)
    if not tr > 1e-300:
        raise DegenerateStateError(f"purity needs a positive trace, got {tr}")
    rho = a / tr
    return float(np.trace(rho @ rho).real)


def max_abs_deviation(a: BipartiteMatrix, b: BipartiteMatrix) -> float:
    """Largest entrywise |a - b| of two matrices, the metric that the oracle checks apply to each row."""
    if (a.dim_a, a.dim_b) != (b.dim_a, b.dim_b):
        raise InvalidShapeError("cannot compare matrices with different factors")
    return float(np.max(np.abs(a.entries - b.entries)))
