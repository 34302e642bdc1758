"""Uncertainty-relation certificates of bipartite entanglement for NPT states."""

from .errors import (
    CertificationError,
    ConditionNotMet,
    ConvergenceFailure,
    DegenerateCoefficients,
    DimensionMismatch,
    InvalidBipartition,
    NonNegativeEigenvalue,
    NotHermitian,
    NotOrthogonal,
    ParameterOutOfRange,
    TruncationUnreliable,
    UnnormalizedState,
)
from .hermitian import (
    Bipartition,
    HermitianOperator,
    expectation,
    matrix_payload,
    operator_from_payload,
    partial_transpose,
    projector,
    save_operator,
    tensor_product,
    validate_hermitian,
)
from .spectral import NptVerdict, Spectrum, eig_hermitian, pt_spectrum
from .certificates import (
    PseudoSpinPair,
    SRReport,
    build_pseudospin,
    ghz_correlators,
    ghz_inequality,
    hur_weak_test,
    orthogonal_pair_construct,
    sr_pt_test,
    two_qubit_equivalence,
    variance_positivity,
    witness_from_eigvec,
)
from .states import (
    make_bell,
    make_ghz_mixed,
    make_single_photon_entangled,
    make_werner,
    random_density,
    random_separable,
)

__version__ = "0.1.0"
