"""Dense complex linear algebra for small bipartite operators.

Partial transposition, Hermitian eigensystems, negativity of partial
transpose (NPT) and purity utilities.  Everything here is a pure function of
its inputs; :class:`BipartiteMatrix` instances are immutable after
construction.

Eigenvalues come from LAPACK (``np.linalg.eigvalsh``).  Where a separable
state's partial transpose has a smallest eigenvalue of exactly 0, LAPACK
returns roundoff of either sign; one zero rule (``NPT_ZERO_BOUND``) turns every
smallest eigenvalue inside the solver's error bound into an NPT of exactly 0.
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
    "min_eigenpair",
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

    def hermiticity_defect(self) -> float:
        """Largest entrywise deviation from m == m^dagger."""
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def scaled(self, factor: float) -> "BipartiteMatrix":
        return BipartiteMatrix(self.dim_a, self.dim_b, self.entries * factor)


def partial_transpose(m: BipartiteMatrix, which: str = "B") -> BipartiteMatrix:
    """Transpose one tensor factor of a bipartite matrix.

    For ``which="B"``: out[(a,b),(a',b')] = m[(a,b'),(a',b)].  The operation
    is a pure reindexing, so applying it twice returns the input bit-exactly;
    trace and Hermiticity are preserved.
    """
    da, db = m.dim_a, m.dim_b
    blocks = m.entries.reshape(da, db, da, db)
    if which == "B":
        out = blocks.transpose(0, 3, 2, 1)
    elif which == "A":
        out = blocks.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"factor selector must be 'A' or 'B', got {which!r}")
    return BipartiteMatrix(da, db, out.reshape(da * db, da * db))


def hermitian_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in ascending order and eigenvectors (columns) of a Hermitian matrix.

    A thin wrapper of LAPACK's ``np.linalg.eigh`` that rejects non-square input.
    """
    arr = np.array(matrix, dtype=np.complex128)
    n = arr.shape[0]
    if arr.ndim != 2 or arr.shape != (n, n):
        raise InvalidShapeError(f"expected a square matrix, got shape {arr.shape}")
    return np.linalg.eigh(arr)


def _symmetrized_entries(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericInputError("matrix has non-finite entries")
    adjoint = a.conj().T
    defect = float(np.max(np.abs(a - adjoint)))
    if defect >= HERMITICITY_TOL:
        raise HermiticityError(
            f"hermiticity defect {defect:.3e} exceeds tolerance {HERMITICITY_TOL:.0e}"
        )
    return (a + adjoint) / 2.0


def min_eigenpair(m: BipartiteMatrix) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and its eigenvector, after silent symmetrization."""
    w, v = hermitian_eigensystem(_symmetrized_entries(m.entries))
    return float(w[0]), v[:, 0]


def min_eigenvalue(m: BipartiteMatrix) -> float:
    return min_eigenpair(m)[0]


def npt(m: BipartiteMatrix) -> float:
    """Negativity of partial transpose, -2 min(0, eps): :func:`_npt_stack` of one matrix.

    ``eps`` is the smallest eigenvalue of the partial transpose on factor B.
    The matrix is first normalized by its trace, which is the convention used
    for every projected state in this package (the absolute scale carries no
    information).  An ``eps`` within ``NPT_ZERO_BOUND`` times the largest
    |eigenvalue| of 0 gives exactly 0.
    """
    value = float(_npt_stack(m.entries[None], m.dim_a, m.dim_b)[0])
    if math.isnan(value):
        raise DegenerateStateError(f"cannot normalize matrix with trace {m.trace().real}")
    return value


def _npt_stack(entries, dim_a: int = 2, dim_b: int = 2) -> np.ndarray:
    """NPT of each matrix of an (N, dim_a dim_b, dim_a dim_b) stack: the one NPT scorer.

    A row with a trace not above 1e-300 (the floor keeps 1/tr finite) gives
    NaN; among the others the first non-finite or non-Hermitian one raises.
    """
    stack = np.asarray(entries, dtype=np.complex128)
    size = dim_a * dim_b
    if stack.ndim != 3 or stack.shape[1:] != (size, size):
        raise InvalidShapeError(f"expected an (N, {size}, {size}) stack, got shape {stack.shape}")
    pt = stack.reshape(-1, dim_a, dim_b, dim_a, dim_b).transpose(0, 1, 4, 3, 2)
    pt = pt.reshape(stack.shape)
    tr = np.trace(pt, axis1=1, axis2=2).real
    whole = tr.min(initial=math.inf) > 1e-300  # NaN fails too
    if not whole:
        usable = tr > 1e-300
        pt, tr = pt[usable], tr[usable]
    with np.errstate(invalid="ignore"):  # inf * 0, inf - inf: a non-finite row is bad either way
        scaled = pt * (1.0 / tr)[:, None, None]
        adjoint = scaled.conj().swapaxes(1, 2)
        defects = np.abs(scaled - adjoint)
    if not defects.max(initial=0.0) < HERMITICITY_TOL:  # the first bad row raises
        _symmetrized_entries(scaled[np.argmax(~(defects.max(axis=(1, 2)) < HERMITICITY_TOL))])
    w = np.linalg.eigvalsh((scaled + adjoint) / 2.0)
    # w ascends and sums to 1, so max |w| = max(-w[0], w[-1]) with w[-1] > 0, and the
    # bound (a power of 2 below 1) times it is below -w[0] iff the bound times w[-1] is
    values = np.where(-w[:, 0] > NPT_ZERO_BOUND * w[:, -1], -2.0 * w[:, 0], 0.0)
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


def purity(m: BipartiteMatrix) -> float:
    """Tr[(m / Tr m)^2] of a Hermitian matrix with positive trace."""
    a = _symmetrized_entries(m.entries)
    tr = float(np.trace(a).real)
    if not tr > 1e-300:
        raise DegenerateStateError(f"purity needs a positive trace, got {tr}")
    rho = a / tr
    return float(np.trace(rho @ rho).real)


def max_abs_deviation(a: BipartiteMatrix, b: BipartiteMatrix) -> float:
    """Largest entrywise |a - b|, the metric used by every oracle check."""
    if (a.dim_a, a.dim_b) != (b.dim_a, b.dim_b):
        raise InvalidShapeError("cannot compare matrices with different factors")
    return float(np.max(np.abs(a.entries - b.entries)))
