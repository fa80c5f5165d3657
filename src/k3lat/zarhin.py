"""Degree-multiplication pipeline: seed a rank-2 sublattice of <2d> + U, extend
it to <2md> + U along an admissible prime, and certify the resulting Mukai
vector and line-bundle class.

The ambient <2n> + U is identified with Z + Z*H + Z*omega by e -> H,
f -> (1, 0, 0) and g -> -omega; the sign on g reconciles f.g = +1 with the
Mukai convention <(1,0,0), omega> = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import matrices as mx
from .errors import InternalConsistencyError, LatticeError, SearchExhaustedError
from .intlat import (
    IntegralLattice,
    SublatticeEmbedding,
    polarization_lattice,
    sublattice,
)
from .mukai import (
    MukaiVector,
    NeronSeveriData,
    check_condition_C,
    fujiki_degree,
    moduli_dimension,
    mukai_pairing,
    mukai_square,
)
from .nikulin import (
    ExtensionCertificate,
    GluingData,
    embedding_to_glue,
    embedding_witnesses,
    extend_glue,
    extension_constants,
)

# Top Chern degrees killing the Brauer obstruction for descent of the class.
DESCENT_MULTIPLIER_DIM4 = 324    # 2^2 * 3^4
DESCENT_MULTIPLIER_DIM6 = 3200   # 2^7 * 5^2


@dataclass(frozen=True)
class SeedData:
    """Rank-2 positive-definite sublattice of <2d> + U with marked vectors."""

    lattice: IntegralLattice
    embedding: SublatticeEmbedding
    v: tuple[int, ...]
    w: tuple[int, ...]
    l: tuple[int, ...]


def build_seed(d: int, lsq: int | None = None, search_bound: int = 24) -> SeedData:
    """Seed diag(2, lsq) inside <2d> + U: v = f + g (norm 2), l orthogonal to v
    of norm lsq, and w = g pairing to 1 with v.

    The default lsq = 2d is realized by l = e.  Other values are found by a
    bounded scan over l = (le, lf, -lf), which satisfies l.v = 0 identically.
    """
    if d < 1:
        raise LatticeError("d must be a positive integer")
    if lsq is None:
        lsq = 2 * d
    if lsq <= 0 or lsq % 2 != 0:
        raise LatticeError("l^2 must be a positive even integer")
    ambient = polarization_lattice(d)
    v = (0, 1, 1)
    w = (0, 0, 1)
    for le in range(0, search_bound + 1):
        rem = d * le * le - lsq // 2  # lf^2 = d*le^2 - lsq/2
        if rem < 0:
            continue
        lf = isqrt(rem)
        if lf * lf != rem:
            continue
        for cand in ((le, lf, -lf), (le, -lf, lf)):
            matrix = mx.freeze([[v[i], cand[i]] for i in range(3)])
            invariants = mx.smith_invariants(matrix)
            if len(invariants) == 2 and all(x == 1 for x in invariants):
                emb = sublattice(ambient, [v, cand])
                if emb.source.gram != ((2, 0), (0, lsq)):
                    raise InternalConsistencyError("seed Gram is not diag(2, lsq)")
                return SeedData(emb.source, emb, v, w, cand)
            if lf == 0:
                break
    raise SearchExhaustedError(
        f"no primitive seed with l^2 = {lsq} inside degree-2*{d} within bound {search_bound}"
    )


@dataclass(frozen=True)
class ZarhinConstants:
    """Degree r = 3*lsq^2 plus the extension congruence data."""

    r: int
    modulus: int
    a: int
    b: int


def zarhin_constants(d: int, lsq: int | None = None) -> ZarhinConstants:
    seed = build_seed(d, lsq)
    actual_lsq = seed.lattice.gram[1][1]
    glue = embedding_to_glue(seed.embedding)
    consts = extension_constants(glue)
    return ZarhinConstants(3 * actual_lsq**2, consts.modulus, consts.a, consts.b)


def positive_rank_isometry(v: MukaiVector) -> str:
    """Name of the hyperbolic-factor isometry sending v to positive rank."""
    if v.a > 0:
        return "identity"
    if v.a < 0:
        return "negate"
    if v.c > 0:
        return "swap"
    if v.c < 0:
        return "swap_negate"
    raise LatticeError("rank and omega components are both zero")


def apply_isometry(name: str, v: MukaiVector) -> MukaiVector:
    if name == "identity":
        return v
    if name == "negate":
        return v.negated()
    if name == "swap":
        return MukaiVector(v.c, v.d, v.a)
    if name == "swap_negate":
        return MukaiVector(-v.c, tuple(-x for x in v.d), -v.a)
    raise ValueError(f"unknown isometry {name!r}")


def ensure_positive_rank(v: MukaiVector) -> MukaiVector:
    """Apply negation and/or the hyperbolic swap (a,D,c) -> (c,D,a) until rank > 0."""
    return apply_isometry(positive_rank_isometry(v), v)


def ambient_vector_to_mukai(x: tuple[int, ...]) -> MukaiVector:
    """Interpret (e, f, g)-coordinates in <2n> + U as a Mukai vector."""
    return MukaiVector(x[1], (x[0],), -x[2])


@dataclass(frozen=True)
class ZarhinCertificate:
    """Re-verified output of the construction: v, l, and all checked clauses."""

    d: int
    m: int
    lsq: int
    status: str  # "witness" or "certificate_only"
    ns: NeronSeveriData
    v: MukaiVector | None
    l: MukaiVector | None
    r: int
    q_l: int
    glue: GluingData
    extension: ExtensionCertificate
    checks: dict

    @property
    def realized(self) -> bool:
        return self.status == "witness"

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "m": self.m,
            "lsq": self.lsq,
            "status": self.status,
            "ns_gram": [list(r) for r in self.ns.gram],
            "v": None if self.v is None else self.v.to_json_dict(),
            "l": None if self.l is None else self.l.to_json_dict(),
            "r": self.r,
            "q_l": self.q_l,
            "glue": self.glue.to_json_dict(),
            "extension": self.extension.to_json_dict(),
            "checks": self.checks,
        }


def zarhin_construct(
    d: int,
    m: int,
    lsq: int | None = None,
    search_bound: int = 12,
) -> ZarhinCertificate:
    """Run the full pipeline for degree 2md and re-verify every clause.

    v is the first embedding witness whose positive-rank Mukai vector passes
    condition C.  Raises InadmissibleError for a bad m.  When no witness
    within the search bound passes, the certificate is returned with status
    "certificate_only" and no explicit vectors.
    """
    seed = build_seed(d, lsq)
    actual_lsq = seed.lattice.gram[1][1]
    glue = embedding_to_glue(seed.embedding)
    extended, cert = extend_glue(glue, m)
    ns = NeronSeveriData(((2 * extended.ambient_n,),))
    r = 3 * actual_lsq**2
    for emb in embedding_witnesses(seed.lattice, extended, search_bound):
        v_raw = ambient_vector_to_mukai(emb.column(0))
        iso = positive_rank_isometry(v_raw)
        v = apply_isometry(iso, v_raw)
        verdict = check_condition_C(v, ns)
        if verdict.passed:
            break
    else:
        checks = {
            "witness_realized": False,
            "glue_valid": True,
            "new_t": extended.t,
        }
        return ZarhinCertificate(
            d, m, actual_lsq, "certificate_only", ns, None, None, r, actual_lsq,
            extended, cert, checks,
        )
    l = apply_isometry(iso, ambient_vector_to_mukai(emb.column(1)))
    q_l = mukai_square(l, ns)
    pairing = mukai_pairing(v, l, ns)
    dim = moduli_dimension(v, ns)
    checks = {
        "witness_realized": True,
        "condition_C": verdict.to_json_dict(),
        "v_square": verdict.square,
        "pairing_v_l": pairing,
        "q_l": q_l,
        "dimension": dim,
        "r_equals_fujiki": r == fujiki_degree(q_l, 2),
        "new_t": extended.t,
    }
    if pairing != 0:
        raise InternalConsistencyError("constructed l is not orthogonal to v")
    if q_l != actual_lsq or q_l <= 0:
        raise InternalConsistencyError("constructed l has the wrong square")
    if dim != 4:
        raise InternalConsistencyError("constructed moduli dimension is not 4")
    if r != fujiki_degree(q_l, 2):
        raise InternalConsistencyError("degree r does not match the Fujiki value")
    return ZarhinCertificate(
        d, m, actual_lsq, "witness", ns, v, l, r, q_l, extended, cert, checks
    )


def brauer_multiplier(l: MukaiVector, dimension: int = 4) -> MukaiVector:
    """Scale by the descent multiplier (324 in dimension 4, 3200 in dimension 6)."""
    if dimension == 4:
        return l.scaled(DESCENT_MULTIPLIER_DIM4)
    if dimension == 6:
        return l.scaled(DESCENT_MULTIPLIER_DIM6)
    raise ValueError("descent multiplier is only recorded for dimensions 4 and 6")
