"""Couplings and liftings of sub-distributions and quantum states.

The classical side decides, by max-flow or exhaustive search, whether two
weight-matched sub-distributions admit a joint distribution supported
inside a relation. The quantum side poses the same question for two
partial density operators and a subspace of the tensor product, and
decides it with a primal-dual interior-point SDP solver that returns
either a coupling witness or a separating dual certificate. A diagonal
embedding connects the two, and the CLI exposes checkers, verifiers, and
worked demos over JSON.
"""

from .classical import (
    ClassicalVerdict,
    Relation,
    check_lifting_maxflow,
    check_statement_2prime,
    check_strassen_exhaustive,
    is_lifting_witness_classical,
    level_set_decomposition,
    relation_image,
    y2_min,
)
from .errors import InputError, NumericalError, SolverFailure
from .linalg import Spectrum, Subspace, hermitian_eig, partial_trace, support, tensor
from .quantum import (
    CouplingProblem,
    DensityOperator,
    coupling_identity_basis,
    coupling_tensor,
    coupling_unitary,
    couplings_imply_equal_trace,
    is_coupling,
    is_lifting_witness,
    uniform_density,
)
from .reduction import (
    EmbeddingReport,
    cross_check,
    embed_distribution,
    embed_joint,
    embed_relation,
    extract_joint,
)
from .sdp import (
    LiftingVerdict,
    SdpSolution,
    check_quantum_lifting,
    condition_a_transform,
    shift_positive,
    solve_coupling_sdp,
    verify_dual_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "ClassicalVerdict",
    "CouplingProblem",
    "DensityOperator",
    "EmbeddingReport",
    "InputError",
    "LiftingVerdict",
    "NumericalError",
    "Relation",
    "SdpSolution",
    "SolverFailure",
    "Spectrum",
    "Subspace",
    "check_lifting_maxflow",
    "check_quantum_lifting",
    "check_statement_2prime",
    "check_strassen_exhaustive",
    "condition_a_transform",
    "coupling_identity_basis",
    "coupling_tensor",
    "coupling_unitary",
    "couplings_imply_equal_trace",
    "cross_check",
    "embed_distribution",
    "embed_joint",
    "embed_relation",
    "extract_joint",
    "hermitian_eig",
    "is_coupling",
    "is_lifting_witness",
    "is_lifting_witness_classical",
    "level_set_decomposition",
    "partial_trace",
    "relation_image",
    "shift_positive",
    "solve_coupling_sdp",
    "support",
    "tensor",
    "uniform_density",
    "verify_dual_certificate",
    "y2_min",
]
