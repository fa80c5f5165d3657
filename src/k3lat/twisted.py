"""Index-r twists of the extended Neron-Severi lattice, their discriminants,
the divisibility invariant n_v, and the discriminant-growth witness sequences.

The twist of order r is spanned by (r, alpha, 0), omega and the NS classes;
coordinates below are always (a, c, D_1, ..., D_s) with respect to that basis,
so the vector (a*r, D + a*alpha, c*omega) has coordinates (a, c, D).  The
class alpha is the transcendental class gamma, orthogonal to NS; only the
integer gamma^2 enters any Gram matrix, so a twist is the triple
(NS, gamma^2, r).  Torsion phenomena at the residue characteristic are not
modeled: reports carry p_t_exponent = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from . import matrices as mx
from .errors import InvalidInputError, LatticeError, NotIsotropicError, NotPrimeError
from .intlat import (
    IntegralLattice,
    is_primitive_vector,
    quotient_by_isotropic,
)
from .modarith import is_prime
from .mukai import NeronSeveriData


@dataclass(frozen=True)
class TwistedMukaiLattice:
    """Lattice spanned by (r, alpha, 0), omega and the NS basis classes."""

    ns: NeronSeveriData
    gamma_square: int
    r: int

    def __post_init__(self):
        if self.gamma_square >= 0 or self.gamma_square % 2:
            raise LatticeError("gamma^2 must be a negative even integer")
        if self.r < 1:
            raise LatticeError("twist order r must be a positive integer")
        if self.lattice.disc_abs != self.r**2 * abs(self.ns.lattice.det):
            raise LatticeError("twisted lattice determinant identity failed")

    @cached_property
    def lattice(self) -> IntegralLattice:
        s = self.ns.rank
        rows = [[self.gamma_square, -self.r] + [0] * s, [-self.r, 0] + [0] * s]
        for i in range(s):
            rows.append([0, 0] + list(self.ns.gram[i]))
        return IntegralLattice(mx.freeze(rows))

    @property
    def rank(self) -> int:
        return 2 + self.ns.rank

    def vector(self, a: int, c: int, d=None) -> tuple[int, ...]:
        """Coordinates of (a*r, D + a*alpha, c*omega)."""
        d = tuple(d) if d is not None else (0,) * self.ns.rank
        if len(d) != self.ns.rank:
            raise LatticeError("NS component has the wrong length")
        return (a, c) + d

    def pairing(self, x, y) -> int:
        return self.lattice.pairing(tuple(x), tuple(y))

    def norm(self, x) -> int:
        return self.lattice.norm(tuple(x))


def divisibility_nv(twist: TwistedMukaiLattice, v) -> int:
    """Positive generator of the pairing ideal v . (twisted lattice)."""
    v = tuple(v)
    if not any(v):
        raise LatticeError("divisibility of the zero vector is undefined")
    return gcd(*mx.mat_vec(twist.lattice.gram, v))


@dataclass(frozen=True)
class PartnerDiscReport:
    """Exact discriminant comparison for the partner lattice v_perp / Zv."""

    r: int
    n_v: int
    disc_ns: int
    disc_ns_abs: int
    disc_quotient: int
    disc_quotient_abs: int
    identity_lhs: int
    identity_rhs: int
    identity_holds: bool
    ell: int | None
    ell_valuation: int | None
    p_t_exponent: int = 0


def _valuation(n: int, ell: int) -> int:
    """ell-adic valuation: divide out ell^(2^i) for i from the largest down.

    Raises `InvalidInputError` for ell < 2: every power of 1 or -1 divides n,
    so the squaring would never stop, and 0 divides nothing.
    """
    if ell < 2:
        raise InvalidInputError(f"valuation needs a base of at least 2, got {ell}")
    if n == 0:
        raise ValueError("valuation of zero")
    n, powers = abs(n), [ell]
    while n % powers[-1] == 0:
        powers.append(powers[-1] ** 2)
    v = 0
    for i in reversed(range(len(powers))):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def partner_disc(
    twist: TwistedMukaiLattice, v, ell: int | None = None
) -> PartnerDiscReport:
    """Verify n_v^2 |disc(v_perp/Zv)| = r^2 |disc NS| for primitive isotropic v."""
    v = tuple(v)
    if twist.norm(v) != 0:
        raise NotIsotropicError("partner discriminant needs an isotropic vector")
    if not is_primitive_vector(v):
        raise NotIsotropicError("partner discriminant needs a primitive vector")
    quotient = quotient_by_isotropic(twist.lattice, v)
    n_v = divisibility_nv(twist, v)
    disc_ns = ns_det = twist.ns.lattice.det
    q_abs = quotient.disc_abs
    lhs = n_v**2 * q_abs
    rhs = twist.r**2 * abs(ns_det)
    val = None
    if ell is not None:
        val = _valuation(q_abs, ell)
    return PartnerDiscReport(
        r=twist.r,
        n_v=n_v,
        disc_ns=disc_ns,
        disc_ns_abs=abs(disc_ns),
        disc_quotient=quotient.det,
        disc_quotient_abs=q_abs,
        identity_lhs=lhs,
        identity_rhs=rhs,
        identity_holds=lhs == rhs,
        ell=ell,
        ell_valuation=val,
    )


@dataclass(frozen=True)
class WitnessRecord:
    """Per-n data of the discriminant-growth sequence."""

    n: int
    r: int
    v_n: tuple[int, ...]
    h_n: tuple[int, ...]
    b_n: tuple[int, ...] | None
    identities: dict
    n_v: int
    partner_disc_abs: int
    ell_valuation: int
    p_t_exponent: int = 0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "v_n": list(self.v_n),
            "h_n": list(self.h_n),
            "b_n": None if self.b_n is None else list(self.b_n),
            "identities": self.identities,
            "n_v": self.n_v,
            "partner_disc_abs": self.partner_disc_abs,
            "ell_valuation": self.ell_valuation,
            "p_t_exponent": self.p_t_exponent,
        }


def witness_sequence(d: int, ell: int, n_max: int, e: int | None = None) -> list[WitnessRecord]:
    """Records for v_n = (ell^n, gamma + D, 0) and h_n = (ell^2n, ell^n gamma, -2d)
    in the twists by gamma^2 = -2d of NS = <D> = <2d>, or of NS = <D> + <B> =
    <2d> + <2e> when e is given.

    Every identity (v_n^2 = 0, h_n.v_n = 0, h_n^2 = 2d ell^2n, b_n.v_n = 0,
    b_n^2 = 2e, n_v^2 <= 4d^2) is verified by exact lattice arithmetic, and the
    ell-valuations of the partner discriminants must be strictly increasing.
    """
    if not is_prime(ell):
        raise NotPrimeError(f"{ell} is not prime")
    if n_max < 1:
        raise LatticeError("n_max must be a positive integer")
    if d < 1:
        raise LatticeError("d must be a positive integer")
    if e is None:
        ns = NeronSeveriData(((2 * d,),))
        d_coeffs: tuple[int, ...] = (1,)
    else:
        if e < 1:
            raise LatticeError("e must be a positive integer")
        ns = NeronSeveriData(((2 * d, 0), (0, 2 * e)))
        d_coeffs = (1, 0)

    records = []
    prev_val = None
    for n in range(1, n_max + 1):
        r = ell**n
        twist = TwistedMukaiLattice(ns, -2 * d, r)
        v_n = twist.vector(1, 0, d_coeffs)
        h_n = twist.vector(ell**n, -2 * d)
        h_sq = twist.norm(h_n)
        identities = {
            "v_sq_zero": twist.norm(v_n) == 0,
            "h_dot_v_zero": twist.pairing(h_n, v_n) == 0,
            "h_sq": h_sq,
            "h_sq_expected": h_sq == 2 * d * ell ** (2 * n),
        }
        b_n = None
        if e is not None:
            b_n = twist.vector(0, 0, (0, 1))
            identities["b_dot_v_zero"] = twist.pairing(b_n, v_n) == 0
            identities["b_sq_expected"] = twist.norm(b_n) == 2 * e
        report = partner_disc(twist, v_n, ell)
        identities["partner_identity"] = report.identity_holds
        n_v = report.n_v
        identities["n_v_bound"] = n_v**2 <= 4 * d * d
        if not all(v for k, v in identities.items() if k != "h_sq"):
            raise LatticeError(f"witness identities failed at n = {n}: {identities}")
        val = report.ell_valuation
        if prev_val is not None and val <= prev_val:
            raise LatticeError(
                f"partner discriminant valuation is not strictly increasing at n = {n}"
            )
        prev_val = val
        records.append(
            WitnessRecord(
                n=n,
                r=r,
                v_n=v_n,
                h_n=h_n,
                b_n=b_n,
                identities=identities,
                n_v=n_v,
                partner_disc_abs=report.disc_quotient_abs,
                ell_valuation=val,
            )
        )
    return records
