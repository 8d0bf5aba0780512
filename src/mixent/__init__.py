"""mixent: entanglement of highly mixed states via locally projected matrices.

Closed-form 4x4 projected density matrices for five interaction schemes,
negativity of partial transpose as the entanglement quantifier, and
brute-force oracles (truncated Fock-space evolution, Gauss-Hermite
quadrature) that cross-validate every closed form.
"""

from .oracle import (
    OracleUnstableError,
    TruncationTailError,
    fock_space_for,
    jc_fock_projected,
    quadrature_projected,
    thermal_fock_matrix,
)
from .qlinalg import (
    BipartiteMatrix,
    DegenerateStateError,
    HermiticityError,
    InvalidShapeError,
    NumericInputError,
    hermitian_eigensystem,
    max_abs_deviation,
    min_eigenvalue,
    npt,
    partial_transpose,
    purity,
)
from .schemes import (
    SchemeOutput,
    bs_projected_kernel,
    bs_scheme_projected,
    direct_kerr_projected,
    jc_projected,
    kerr_micro_thermal_projected,
    tt_projected_kernel,
    tt_scheme_projected,
)
from .states import (
    AtomFieldParams,
    CatBasis,
    CatKernels,
    MicroState,
    ThermalParams,
    atom_purity,
    field_purity,
    micro_state_matrix,
)

__version__ = "0.1.0"
