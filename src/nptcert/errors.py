"""Exception types raised by the certification library."""


class CertificationError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CertificationError):
    """Operands act on incompatible spaces."""


class NotHermitian(CertificationError):
    """Matrix fails the Hermiticity (or finiteness) check."""


class InvalidBipartition(CertificationError):
    """Bipartition does not describe a proper split of the subsystems."""


class UnnormalizedState(CertificationError):
    """Trace differs from 1 by more than spectral.TRACE_TOL (1e-9)."""


class ConvergenceFailure(CertificationError):
    """The LAPACK Hermitian eigensolver (eigh) failed to converge."""


class NotOrthogonal(CertificationError):
    """Vectors supplied to an observable constructor are not orthonormal."""


class DegenerateCoefficients(CertificationError):
    """Coefficient pair has Im(alpha1 * conj(alpha2)) == 0; the certificate is vacuous."""


class NonNegativeEigenvalue(CertificationError):
    """Witness construction requires a negative source eigenvalue."""


class ConditionNotMet(CertificationError):
    """Diagonal-sign conditions for an orthogonal-pair certificate fail."""


class ParameterOutOfRange(CertificationError):
    """State-family or sweep parameter outside its documented range."""


class TruncationUnreliable(CertificationError):
    """Fock-space population too close to the cutoff for the requested operator order."""
