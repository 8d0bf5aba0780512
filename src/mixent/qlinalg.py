"""Dense complex linear algebra for small bipartite operators.

Partial transposition, a cyclic Jacobi eigensolver for Hermitian matrices,
negativity of partial transpose (NPT) and purity utilities.  Everything here
is a pure function of its inputs; :class:`BipartiteMatrix` instances are
immutable after construction.

:func:`npt` solves one matrix with the scalar solver.  Sweeps score a whole
stack of two-qubit states at once (``_npt_stack``): partial transposes that
are real, or exactly real under a diagonal phase, go through one batched real
Jacobi that rounds as the scalar solver does, so both give the same bits.
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

# Jacobi stops once the off-diagonal Frobenius norm drops below this fraction
# of the input's Frobenius norm, and gives up after this many sweeps.
JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60


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


def _pairwise_sum(values: list) -> float:
    """Sum of floats in numpy's pairwise order, so that it rounds as ``np.sum`` does."""
    n = len(values)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    acc = values[:8]
    cut = n - n % 8
    for i in range(8, cut, 8):
        for j in range(8):
            acc[j] += values[i + j]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for x in values[cut:]:
        total += x
    return total


def hermitian_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Each complex off-diagonal entry a[p,q] = |g| e^{i phi} is eliminated by
    the unitary U = diag(1, e^{-i phi}) R(theta), where R is the classic real
    Jacobi rotation for the phase-stripped 2x2 block.  Convergence: the
    off-diagonal Frobenius norm falls below ``JACOBI_TOL`` times the input
    norm.  An entry so small that 1/|g| overflows is skipped, as a zero is.

    The rotations run on Python complex scalars and round as numpy array
    arithmetic does, operation for operation: the phase is g * (1/|g|), as
    numpy divides a complex by a real; hypot comes from libm, as in np.hypot
    (math.hypot rounds differently); the norms are summed in numpy's pairwise
    order.  The rounding is pinned because the NPT of a separable state must
    stay an exact zero, where a LAPACK solver returns roundoff of either sign.
    One exception: numpy's vectorized complex-by-complex product fuses its
    multiply-adds on CPUs with FMA, so where rotations mix genuinely complex
    entries the last bit can differ from a numpy-slice solver.  Real matrices
    and every matrix the constructors of :mod:`mixent.schemes` build are not
    affected.

    Returns eigenvalues in ascending order and the matching eigenvectors as
    columns of a unitary matrix.
    """
    arr = np.array(matrix, dtype=np.complex128)
    n = arr.shape[0]
    if arr.ndim != 2 or arr.shape != (n, n):
        raise InvalidShapeError(f"expected a square matrix, got shape {arr.shape}")
    a = arr.tolist()
    scale = math.sqrt(_pairwise_sum([h * h for row in a for h in map(abs, row)]))
    if scale == 0.0 or n == 1:
        return arr.diagonal().real.copy(), np.eye(n, dtype=np.complex128)

    v = np.eye(n, dtype=np.complex128).tolist()
    threshold = JACOBI_TOL * scale
    for _ in range(JACOBI_MAX_SWEEPS):
        absq = [h * h for row in a for h in map(abs, row)]
        absq[:: n + 1] = [0.0] * n
        if math.sqrt(_pairwise_sum(absq)) <= threshold:
            w = np.array([row[i].real for i, row in enumerate(a)])
            order = np.argsort(w, kind="stable")
            return w[order], np.array(v)[:, order]
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p][q]
                h = abs(g)
                inv = 1.0 / h if h else math.inf
                if inv == math.inf:  # h == 0 or below 2^-1024: no rotation
                    continue
                # g / h as numpy computes it (Smith's division by h + 0j)
                phase = complex((g.real + g.imag * 0.0) * inv, (g.imag - g.real * 0.0) * inv)
                theta = (a[p][p].real - a[q][q].real) / (2.0 * h)
                if theta == 0.0:
                    t = 1.0
                else:
                    # abs(complex) is libm hypot, as np.hypot; math.hypot rounds differently
                    t = (-1.0 if theta > 0.0 else 1.0) / (abs(theta) + abs(complex(1.0, theta)))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # column block of U at (p, q): [[c, s], [uqp, uqq]]
                uqp = -s * phase.conjugate()
                uqq = c * phase.conjugate()
                for row in a:
                    row[p], row[q] = row[p] * c + row[q] * uqp, row[p] * s + row[q] * uqq
                row_p, row_q = a[p], a[q]
                cqp, cqq = uqp.conjugate(), uqq.conjugate()
                for k in range(n):
                    row_p[k], row_q[k] = c * row_p[k] + cqp * row_q[k], s * row_p[k] + cqq * row_q[k]
                # the rotation zeroes (p, q) analytically; kill the roundoff
                row_p[q] = row_q[p] = 0j
                row_p[p] = complex(row_p[p].real)
                row_q[q] = complex(row_q[q].real)
                for row in v:
                    row[p], row[q] = row[p] * c + row[q] * uqp, row[p] * s + row[q] * uqq
    raise ArithmeticError("Jacobi eigensolver did not converge")


def _real_jacobi_min(a: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each real symmetric matrix of an (N, n, n) stack.

    :func:`hermitian_eigensystem` vectorized over the stack on real arrays,
    with its rotation order, skips, phase, hypot, clean-up and norm sums: on
    a real matrix the scalar solver's products carry zero imaginary parts, so
    its eigenvalues are these bit for bit.  Converged matrices leave the stack.
    """
    n = a.shape[-1]
    out = np.empty(len(a))
    active = np.arange(len(a))
    threshold = JACOBI_TOL * np.sqrt(np.sum((a * a).reshape(len(a), n * n), axis=-1))
    for _ in range(JACOBI_MAX_SWEEPS):
        off = (a * a).reshape(len(a), n * n)
        off[:, :: n + 1] = 0.0
        done = np.sqrt(np.sum(off, axis=-1)) <= threshold
        out[active[done]] = np.diagonal(a[done], axis1=1, axis2=2).min(axis=-1)
        a, active, threshold = a[~done], active[~done], threshold[~done]
        if not len(a):
            return out
        for p in range(n - 1):
            for q in range(p + 1, n):
                with np.errstate(divide="ignore", over="ignore"):
                    # no rotation where 1/h is infinite: h == 0 or below 2^-1024
                    rows = np.flatnonzero(1.0 / np.abs(a[:, p, q]) < math.inf)
                b = a[rows] if len(rows) < len(a) else a
                g = b[:, p, q, None]
                h = np.abs(g)
                theta = (b[:, p, p, None] - b[:, q, q, None]) / (2.0 * h)
                # at theta == 0 this is 1 / (0 + 1), the scalar solver's t = 1
                t = np.where(theta > 0.0, -1.0, 1.0) / (np.abs(theta) + np.hypot(1.0, theta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                uqp, uqq = -s * (g * (1.0 / h)), c * (g * (1.0 / h))
                col_p, col_q = b[:, :, p], b[:, :, q]
                b[:, :, p], b[:, :, q] = col_p * c + col_q * uqp, col_p * s + col_q * uqq
                row_p, row_q = b[:, p, :], b[:, q, :]
                b[:, p, :], b[:, q, :] = c * row_p + uqp * row_q, s * row_p + uqq * row_q
                b[:, p, q] = b[:, q, p] = 0.0
                if b is not a:
                    a[rows] = b
    raise ArithmeticError("Jacobi eigensolver did not converge")


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
    """Negativity of partial transpose, -2 min(0, eps).

    ``eps`` is the smallest eigenvalue of the partial transpose on factor B.
    The matrix is first normalized by its trace, which is the convention used
    for every projected state in this package (the absolute scale carries no
    information).
    """
    pt = partial_transpose(m, "B").entries
    tr = np.trace(pt).real
    # the floor keeps 1/tr finite; anything smaller is not a usable state
    if not tr > 1e-300:
        raise DegenerateStateError(f"cannot normalize matrix with trace {tr}")
    w, _ = hermitian_eigensystem(_symmetrized_entries(pt * (1.0 / tr)))
    eps = float(w[0])
    return -2.0 * eps if eps < 0.0 else 0.0


# D^dagger A D for D = diag(1, 1, 1, i), entrywise; a product with 1 or +-i rounds nothing
_X_PHASE = np.array([1, 1, 1, -1j])[:, None] * np.array([1, 1, 1, 1j])


def _npt_stack(entries) -> np.ndarray:
    """NPT of each matrix of an (N, 4, 4) stack, bit for bit as :func:`npt` gives it.

    A row that fails ``npt``'s trace floor gives NaN; among the others the
    first non-finite or non-Hermitian one raises as ``npt`` does.  Sources that
    are real, or real under D = diag(1, 1, 1, i) (the X-shaped ``jc`` states),
    go through one batched real Jacobi; any other row, such as an oracle
    matrix with imaginary roundoff, takes the scalar solver.
    """
    stack = np.asarray(entries, dtype=np.complex128)
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise InvalidShapeError(f"expected an (N, 4, 4) stack, got shape {stack.shape}")
    pt = stack.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(stack.shape)
    tr = np.trace(pt, axis1=1, axis2=2).real
    usable = tr > 1e-300
    scaled = pt[usable] * (1.0 / tr[usable])[:, None, None]
    adjoint = scaled.conj().swapaxes(1, 2)
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite row is bad either way
        bad = ~(np.abs(scaled - adjoint).max(axis=(1, 2)) < HERMITICITY_TOL)
    if bad.any():
        _symmetrized_entries(scaled[np.flatnonzero(bad)[0]])  # raises as npt does
    sources = (scaled + adjoint) / 2.0
    real = ~sources.imag.any(axis=(1, 2))
    phased = sources * _X_PHASE
    realified = np.where(real[:, None, None], sources.real, phased.real)
    solvable = real | ~phased.imag.any(axis=(1, 2))
    eps = np.empty(len(sources))
    eps[solvable] = _real_jacobi_min(realified[solvable])
    for i in np.flatnonzero(~solvable):
        eps[i] = hermitian_eigensystem(sources[i])[0][0]
    values = np.full(len(stack), np.nan)
    values[usable] = np.where(eps < 0.0, -2.0 * eps, 0.0)
    return values


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
