"""Arithmetic in the extended Neron-Severi lattice Z + NS(X) + Z*omega.

The pairing is <(a,b,c), (a',b',c')> = b.b' - a*c' - a'*c; as an abstract
lattice this is NS(X) + U.  Everything here is the lattice shadow of moduli
of sheaves: pairings, the fine-moduli gcd criterion, dimension and top
self-intersection bookkeeping, and the discriminant comparison for the
orthogonal complement of a Mukai vector.

Gram matrices are integral throughout; a quadratic form with fractional
values must be pre-scaled by the caller before it can be modeled here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, prod

from . import matrices as mx
from .errors import InvalidInputError, LatticeError, NotIsotropicError, RankMismatchError
from .intlat import IntegralLattice, is_primitive_vector, orthogonal_complement


@dataclass(frozen=True)
class NeronSeveriData:
    """Gram matrix of NS(X) with a distinguished polarization column."""

    gram: mx.Matrix
    h_index: int = 0
    degree: int = field(init=False)

    def __post_init__(self):
        g = mx.freeze(self.gram)
        object.__setattr__(self, "gram", g)
        if not mx.is_symmetric(g):
            raise LatticeError("NS Gram matrix must be symmetric")
        if any(g[i][i] % 2 for i in range(len(g))):
            raise LatticeError("NS Gram matrix must be even")
        if not 0 <= self.h_index < len(g):
            raise LatticeError("polarization index out of range")
        deg = g[self.h_index][self.h_index]
        if deg <= 0:
            raise LatticeError("polarization must have positive self-intersection")
        object.__setattr__(self, "degree", deg)

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def lattice(self) -> IntegralLattice:
        return IntegralLattice(self.gram)


@dataclass(frozen=True)
class MukaiVector:
    """Triple (a, D, c): rank component, NS component, omega coefficient."""

    a: int
    d: tuple[int, ...]
    c: int

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))

    @property
    def rank(self) -> int:
        return self.a

    def components(self) -> tuple[int, ...]:
        return (self.a,) + self.d + (self.c,)

    def is_primitive(self) -> bool:
        return is_primitive_vector(self.components())

    def to_json_dict(self) -> dict:
        return {"a": self.a, "d": list(self.d), "c": self.c}


def mukai_pairing(v: MukaiVector, w: MukaiVector, ns: NeronSeveriData) -> int:
    """<(a,b,c), (a',b',c')> = b.b' - a*c' - a'*c."""
    if len(v.d) != ns.rank or len(w.d) != ns.rank:
        raise RankMismatchError("Mukai vector NS component does not match NS rank")
    bb = sum(v.d[i] * ns.gram[i][j] * w.d[j] for i in range(ns.rank) for j in range(ns.rank))
    return bb - v.a * w.c - w.a * v.c


def mukai_square(v: MukaiVector, ns: NeronSeveriData) -> int:
    return mukai_pairing(v, v, ns)


def euler_characteristic(v: MukaiVector, w: MukaiVector, ns: NeronSeveriData) -> int:
    """chi = -<v, w>."""
    return -mukai_pairing(v, w, ns)


@dataclass(frozen=True)
class ConditionCVerdict:
    """Outcome of the fine-moduli criterion, with each failed clause named."""

    passed: bool
    failures: tuple[str, ...]
    square: int
    gcd_value: int

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "square": self.square,
            "gcd": self.gcd_value,
        }


def check_condition_C(v: MukaiVector, ns: NeronSeveriData) -> ConditionCVerdict:
    """Primitivity, positive rank, positive square, gcd(rk, H.c1, lambda) = 1."""
    failures = []
    square = mukai_square(v, ns)
    h_dot = sum(ns.gram[ns.h_index][j] * v.d[j] for j in range(ns.rank))
    g = gcd(gcd(abs(v.a), abs(h_dot)), abs(v.c))
    if not v.is_primitive():
        failures.append("primitive")
    if v.a <= 0:
        failures.append("positive_rank")
    if square <= 0:
        failures.append("positive_square")
    if g != 1:
        failures.append("gcd")
    return ConditionCVerdict(not failures, tuple(failures), square, g)


def moduli_dimension(v: MukaiVector, ns: NeronSeveriData) -> int:
    """v^2 + 2; requires v^2 nonnegative and even."""
    square = mukai_square(v, ns)
    if square % 2 != 0:
        raise LatticeError("Mukai square is odd; the input lattice is not even")
    if square < 0:
        raise LatticeError("moduli dimension requires a nonnegative Mukai square")
    return square + 2


def fujiki_degree(q: int, n: int) -> int:
    """Top self-intersection (2n)! q^n / (n! 2^n) = (2n-1)!! * q^n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return prod(range(1, 2 * n, 2)) * q**n


def full_mukai_lattice(ns: NeronSeveriData) -> IntegralLattice:
    """Gram of Z + NS + Z*omega in the basis (NS basis, (1,0,0), omega)."""
    r = ns.rank
    rows = [list(row) + [0, 0] for row in ns.gram]
    rows.append([0] * r + [0, -1])
    rows.append([0] * r + [-1, 0])
    return IntegralLattice(mx.freeze(rows))


def _full_coords(v: MukaiVector, ns: NeronSeveriData) -> tuple[int, ...]:
    if len(v.d) != ns.rank:
        raise RankMismatchError("Mukai vector NS component does not match NS rank")
    return v.d + (v.a, v.c)


@dataclass(frozen=True)
class DiscChainReport:
    """Exact discriminant comparison for the complement of a Mukai vector."""

    v_square: int
    disc_full: int
    disc_full_abs: int
    disc_perp: int
    disc_perp_abs: int
    index: int
    identity_lhs: int
    identity_rhs: int
    identity_holds: bool
    inequality_holds: bool
    lambda_ratio: Fraction
    partner_residual: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "v_square": self.v_square,
            "disc_full": self.disc_full,
            "disc_full_abs": self.disc_full_abs,
            "disc_perp": self.disc_perp,
            "disc_perp_abs": self.disc_perp_abs,
            "index": self.index,
            "identity_lhs": self.identity_lhs,
            "identity_rhs": self.identity_rhs,
            "identity_holds": self.identity_holds,
            "inequality_holds": self.inequality_holds,
            "lambda_ratio": str(self.lambda_ratio),
            "partner_residual": None
            if self.partner_residual is None
            else str(self.partner_residual),
        }


def disc_comparison_chain(
    ns: NeronSeveriData, v: MukaiVector, partner_disc: int | None = None
) -> DiscChainReport:
    """Verify v^2 |disc(v_perp)| = index^2 |disc(full)| and the <= inequality.

    The residual ratio |disc(v_perp)| / partner_disc is reported only when a
    partner discriminant is supplied; it is never inferred.
    """
    if partner_disc == 0:
        raise InvalidInputError("partner discriminant must be nonzero")
    full = full_mukai_lattice(ns)
    coords = _full_coords(v, ns)
    if not is_primitive_vector(coords):
        raise NotIsotropicError("Mukai vector must be primitive")
    square = full.norm(coords)
    if square == 0:
        raise NotIsotropicError("Mukai vector must be non-isotropic")
    perp = orthogonal_complement(full, [coords])
    idx = abs(mx.det(mx.freeze([coords] + perp.columns())))
    # Signed form of the identity; taking absolute values on both sides gives
    # |v^2| |disc(v_perp)| = i^2 |disc(full)|.
    signed_ok = square * perp.source.det == idx * idx * full.det
    lhs = abs(square) * abs(perp.source.det)
    rhs = idx * idx * full.disc_abs
    residual = None
    if partner_disc is not None:
        residual = Fraction(abs(perp.source.det), abs(partner_disc))
    return DiscChainReport(
        v_square=square,
        disc_full=full.det,
        disc_full_abs=full.disc_abs,
        disc_perp=perp.source.det,
        disc_perp_abs=abs(perp.source.det),
        index=idx,
        identity_lhs=lhs,
        identity_rhs=rhs,
        identity_holds=signed_ok and lhs == rhs,
        inequality_holds=full.disc_abs <= lhs,
        lambda_ratio=Fraction(abs(square), idx * idx),
        partner_residual=residual,
    )
