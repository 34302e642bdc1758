"""Dense complex-matrix algebra over multipartite tensor-product spaces.

Basis ordering is row-major lexicographic over subsystem indices: the
composite basis state |i1 i2 ... ik> sits at flat index
i1*(d2*...*dk) + i2*(d3*...*dk) + ... + ik, i.e. the last subsystem index
runs fastest.  This matches numpy.kron and is a format contract for the
JSON matrix files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidBipartition, NotHermitian, ParameterOutOfRange

HERMITICITY_TOL = 1e-9


def spec_int(value, name: str) -> int:
    """A spec's or matrix file's size or count as an int; an integral string
    such as "5" reads as 5.  A bool, a non-integral number such as 4.7 or a
    value int() refuses, such as [1, 2] or "x", is a ParameterOutOfRange."""
    if not (isinstance(value, bool) or isinstance(value, float) and not value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):  # a list, a dict, text that is no integer
            pass
    raise ParameterOutOfRange(f"{name} = {value!r} is not an integer")


def check_profile(dims, n: int) -> tuple:
    """dims as a tuple of ints >= 1 with product n, else DimensionMismatch."""
    dims = tuple(spec_int(d, "dims entry") for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise DimensionMismatch(f"invalid dimension profile {dims}")
    if math.prod(dims) != n:
        raise DimensionMismatch(f"profile {dims} has total {math.prod(dims)}, matrix is {n}x{n}")
    return dims


@dataclass(frozen=True)
class Bipartition:
    """Split of subsystem indices {0..k-1} into party one and its complement.

    party_one must be a non-empty proper subset; party_two is derived.
    """

    party_one: frozenset
    num_subsystems: int

    def __post_init__(self):
        ids = frozenset(int(i) for i in self.party_one)
        object.__setattr__(self, "party_one", ids)
        if not ids:
            raise InvalidBipartition("party one is empty")
        if not ids < set(range(self.num_subsystems)):
            raise InvalidBipartition(
                f"party one {sorted(ids)} is not a proper subset of "
                f"0..{self.num_subsystems - 1}"
            )

    @property
    def party_two(self) -> frozenset:
        return frozenset(range(self.num_subsystems)) - self.party_one

    @classmethod
    def parse(cls, text: str, num_subsystems: int) -> "Bipartition":
        """Parse a string such as "0,1|2" and validate it against k subsystems."""
        try:
            left, right = text.split("|")
            one = frozenset(int(t) for t in left.split(",") if t.strip() != "")
            two = frozenset(int(t) for t in right.split(",") if t.strip() != "")
        except ValueError as exc:
            raise InvalidBipartition(f"cannot parse bipartition {text!r}") from exc
        bip = cls(one, num_subsystems)
        if two != bip.party_two:
            raise InvalidBipartition(
                f"declared party two {sorted(two)} is not the complement of "
                f"{sorted(one)} in 0..{num_subsystems - 1}"
            )
        return bip

    def __str__(self) -> str:
        one = ",".join(str(i) for i in sorted(self.party_one))
        two = ",".join(str(i) for i in sorted(self.party_two))
        return f"{one}|{two}"


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Exactly Hermitian matrix with declared subsystem dimensions.

    validate_hermitian symmetrizes outside input and records in ``deviation``
    its max-norm distance from Hermitian; library code that builds an exactly
    Hermitian matrix constructs the operator directly.  Unit trace is *not*
    part of the type; it is checked where an operation requires a state.
    """

    matrix: np.ndarray
    dims: tuple
    deviation: float = 0.0

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def validate_hermitian(matrix, dims, tol: float = HERMITICITY_TOL) -> HermitianOperator:
    """Validate and symmetrize a matrix into a HermitianOperator.

    The returned operator stores (M + M†)/2 and the max-norm deviation of
    the input from Hermiticity.  Raises DimensionMismatch for a non-square
    matrix or an inconsistent dimension profile, NotHermitian when the
    deviation exceeds tol * max(1, max-norm) or entries are not finite.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix shape {m.shape} is not square")
    dims = check_profile(dims, m.shape[0])
    if not np.isfinite(m).all():
        raise NotHermitian("matrix has non-finite entries")
    deviation = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    if deviation > tol * scale:
        raise NotHermitian(
            f"max |M - M^dag| = {deviation:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    sym = (m + m.conj().T) / 2.0
    return HermitianOperator(sym, dims, deviation)


def projector(vector, dims=None) -> HermitianOperator:
    """Rank-one projector |v><v| (the vector is normalized first), stored as
    validate_hermitian stores M = v v^dag: (M + M^dag)/2, exactly Hermitian.
    Raises NotHermitian unless the normalized vector is finite."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    v = v / np.linalg.norm(v)
    dims = check_profile((len(v),) if dims is None else dims, len(v))
    if not np.isfinite(v).all():
        raise NotHermitian("projector vector is zero or not finite")
    m = np.outer(v, v.conj())
    return HermitianOperator((m + m.conj().T) / 2.0, dims)


def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; the profile is the concatenation of the factors'."""
    return HermitianOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims)


def partial_transpose(rho: HermitianOperator, bip: Bipartition) -> HermitianOperator:
    """rho^PT: the row and column indices of each party-two subsystem swapped.
    An index permutation keeps the trace exactly, returns the input
    bit-for-bit when applied twice and keeps an exactly Hermitian matrix
    exactly Hermitian, so it is not re-validated."""
    dims, k = rho.dims, len(rho.dims)
    if bip.num_subsystems != k:
        raise InvalidBipartition(
            f"bipartition is over {bip.num_subsystems} subsystems, operator has {k}"
        )
    perm = list(range(2 * k))
    for s in bip.party_two:
        perm[s], perm[k + s] = perm[k + s], perm[s]
    out = rho.matrix.reshape(dims + dims).transpose(perm).reshape(rho.matrix.shape)
    return HermitianOperator(np.ascontiguousarray(out), dims)


def trace_product(a, b) -> complex:
    """Tr{AB} for two equally sized square arrays, without forming AB."""
    return complex(np.einsum("ij,ji->", a, b))


def expectation(op: HermitianOperator, rho: HermitianOperator) -> float:
    """Re Tr{O rho}.  Both arguments Hermitian, so the imaginary part of the
    trace is rounding (<= 1e-9 by contract); trace_product returns it."""
    if op.dim != rho.dim:
        raise DimensionMismatch(f"operator dim {op.dim} vs state dim {rho.dim}")
    return float(trace_product(op.matrix, rho.matrix).real)


# ---------------------------------------------------------------------------
# JSON matrix file format:
#   {"dims": [d1, ..., dk], "matrix": [[re, im], ...]}
# with the matrix flattened row-major, length (d1*...*dk)^2.
# ---------------------------------------------------------------------------

def complex_pairs(z) -> list:
    """[re, im] of a complex scalar, or [[re, im], ...] of a complex vector:
    the JSON form of complex numbers in matrix files and reports."""
    z = np.asarray(z, dtype=np.complex128)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def matrix_payload(op: HermitianOperator) -> dict:
    return {"dims": list(op.dims), "matrix": complex_pairs(op.matrix.reshape(-1))}


def operator_from_payload(payload: dict) -> HermitianOperator:
    try:
        dims = tuple(spec_int(d, "dims entry") for d in payload["dims"])
        entries = payload["matrix"]
        n = math.prod(dims)
        if len(entries) != n * n:  # a matrix without len() is malformed too
            raise DimensionMismatch(
                f"matrix payload has {len(entries)} entries, expected {n * n} for dims {dims}"
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed matrix payload: {exc}") from exc
    try:
        flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed matrix entry: {exc}") from exc
    return validate_hermitian(flat.reshape(n, n), dims)


def save_operator(op: HermitianOperator, path) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_payload(op), fh)
