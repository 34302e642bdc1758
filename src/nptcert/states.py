"""Factories for the benchmark states used by tests and the CLI.

Random generation uses numpy's default_rng (PCG64), which is seedable and
produces the same stream on every platform, so fixtures built from a fixed
seed reproduce bit-exactly.  Every factory builds an exactly Hermitian
matrix and returns it as a HermitianOperator without validating it again.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterOutOfRange
from .hermitian import HermitianOperator, check_profile, read_dims, spec_int, tensor_product

# Size caps, checked before anything is allocated: a dim-1024 state is a
# 16 MB matrix, four times the north star's largest (256).
MAX_DIM = 1024      # total dimension of a random or product state
MAX_TERMS = 1024    # product terms in a random_separable mixture


def make_ghz_mixed(p: float) -> HermitianOperator:
    """p |GHZ><GHZ| + (1-p) I/8 on three qubits, GHZ = (|000> + |111>)/sqrt(2)."""
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRange(f"p = {p!r} outside [0, 1]")
    ghz = np.zeros(8, dtype=np.complex128)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    rho = p * np.outer(ghz, ghz.conj()) + (1.0 - p) * np.eye(8) / 8.0
    return HermitianOperator(rho, (2, 2, 2))


def make_bell() -> HermitianOperator:
    """|Phi+><Phi+| with Phi+ = (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return HermitianOperator(np.outer(v, v.conj()), (2, 2))


def make_single_photon_entangled() -> HermitianOperator:
    """(|01> + |10>)/sqrt(2) as a two-qubit density operator."""
    v = np.zeros(4, dtype=np.complex128)
    v[1] = v[2] = 1.0 / np.sqrt(2.0)
    return HermitianOperator(np.outer(v, v.conj()), (2, 2))


def make_werner(p: float) -> HermitianOperator:
    """p |Psi-><Psi-| + (1-p) I/4.

    Standard two-qubit soundness fixture; not part of the source material
    for this library, included as an extra benchmark family.
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterOutOfRange(f"p = {p!r} outside [0, 1]")
    v = np.zeros(4, dtype=np.complex128)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    rho = p * np.outer(v, v.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return HermitianOperator(rho, (2, 2))


def random_density(dim: int, seed, dims=None) -> HermitianOperator:
    """G G^dag / Tr with G complex Gaussian: a full-rank unit-trace state."""
    if not 2 <= dim <= MAX_DIM:
        raise ParameterOutOfRange(f"dim = {dim} outside 2..{MAX_DIM}")
    dims = (dim,) if dims is None else check_profile(dims, dim)
    return _random_density_from(np.random.default_rng(seed), dims)


def _random_density_from(rng, dims: tuple) -> HermitianOperator:
    dim = math.prod(dims)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    # G G^dag is Hermitian only to rounding
    return HermitianOperator((rho + rho.conj().T) / 2.0, dims)


def random_separable(dims, terms: int, seed) -> HermitianOperator:
    """Convex mixture of random product states with Dirichlet-uniform weights."""
    dims = tuple(spec_int(d, "dims entry") for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise ParameterOutOfRange(f"need one or more subsystem dims, all >= 2, got {dims}")
    total = math.prod(dims)
    if total > MAX_DIM:
        raise ParameterOutOfRange(f"total dim {total} of {dims} exceeds {MAX_DIM}")
    if not 1 <= terms <= MAX_TERMS:
        raise ParameterOutOfRange(f"terms = {terms} outside 1..{MAX_TERMS}")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((total, total), dtype=np.complex128)
    for w in weights:
        factor = _random_density_from(rng, dims[:1])
        for d in dims[1:]:
            factor = tensor_product(factor, _random_density_from(rng, (d,)))
        rho += w * factor.matrix
    return HermitianOperator(rho, dims)


_REQUIRED = object()


def spec_value(spec: dict, key: str, default=_REQUIRED):
    """spec[key], else default.  A missing key without a default, a JSON null
    or a bool (JSON true or false, which Python would read as 1 or 0) is a
    ParameterOutOfRange naming the family and the key."""
    value = spec.get(key, default)
    if value is _REQUIRED:
        raise ParameterOutOfRange(f"spec for family {spec.get('family')!r} is missing {key!r}")
    if value is None:
        raise ParameterOutOfRange(f"spec for family {spec.get('family')!r} has a null {key!r}")
    if isinstance(value, bool):
        raise ParameterOutOfRange(
            f"spec for family {spec.get('family')!r} has a bool {key!r} = {value!r}")
    return value


def spec_number(spec: dict, key: str, cast=float, default=_REQUIRED):
    """spec_value(spec, key, default) read by cast, float or complex.  A value
    cast refuses, such as "abc", [1] or an integer too large for a float, is a
    ParameterOutOfRange naming the key, as spec_int's is."""
    value = spec_value(spec, key, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "float" if cast is float else "complex number"
        raise ParameterOutOfRange(f"{key} = {value!r} is not a {kind}") from None


def check_spec_keys(spec: dict, allowed: set) -> None:
    """A key other than "family" and `allowed` is a ParameterOutOfRange
    naming the family and the key, so a misspelt parameter is not ignored."""
    unknown = sorted(set(spec) - allowed - {"family"})
    if unknown:
        raise ParameterOutOfRange(
            f"spec for family {spec.get('family')!r} has unknown key "
            + ", ".join(map(repr, unknown)))


# Each family's keys besides "seed", and its factory on (spec, seed).
_FAMILIES = {
    "ghz_mixed": ({"p"}, lambda s, seed: make_ghz_mixed(spec_number(s, "p"))),
    "bell": (set(), lambda s, seed: make_bell()),
    "werner": ({"p"}, lambda s, seed: make_werner(spec_number(s, "p"))),
    "single_photon_entangled": (set(), lambda s, seed: make_single_photon_entangled()),
    "random_density": ({"dim", "dims"}, lambda s, seed: random_density(
        spec_int(spec_value(s, "dim"), "dim"), seed,
        dims=None if s.get("dims") is None else read_dims(spec_value(s, "dims")))),
    "random_separable": ({"dims", "terms"}, lambda s, seed: random_separable(
        read_dims(spec_value(s, "dims")), spec_int(spec_value(s, "terms", 4), "terms"), seed)),
    "product": ({"dims"}, lambda s, seed: random_separable(
        read_dims(spec_value(s, "dims")), 1, seed)),
}


def state_from_spec(spec: dict) -> HermitianOperator:
    """Build a finite-dimensional state from a StateSpec mapping.

    Examples: {"family": "ghz_mixed", "p": 0.5},
    {"family": "random_separable", "dims": [2, 2], "terms": 4, "seed": 7}.
    """
    family = spec.get("family")
    if family not in _FAMILIES:
        raise ParameterOutOfRange(f"unknown state family {family!r}")
    keys, build = _FAMILIES[family]
    check_spec_keys(spec, keys | {"seed"})
    return build(spec, spec_int(spec_value(spec, "seed", 0), "seed"))
