"""Gluing maps gamma: V -> W classifying primitive embeddings of a rank-2
positive-definite even lattice into <2n> + U, following Nikulin's criterion,
plus the congruence-driven extension from ambient degree 2d to degree 2md.

A gluing map is valid when the quadratic form induced on the orthogonal
complement of the graph of gamma, modulo the graph, is cyclic of some even
order 2t with a generator of q-value 1/(2t) up to unit squares.  That
quotient is the discriminant form of the complement <-2t> with q negated, so
-1/(2t) never arises: it would need lambda^2 = -1 mod 4t.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

from . import matrices as mx
from .discform import (
    DiscriminantForm,
    FiniteSubgroup,
    GlueQuotient,
    SubgroupMap,
    _lattice_coordinates,
    all_subgroups,
    discriminant_data,
    discriminant_form,
    glue_perp_quotient,
    subgroup_isometries,
)
from .errors import (
    InadmissibleError,
    InternalConsistencyError,
    LatticeError,
)
from .intlat import (
    IntegralLattice,
    SublatticeEmbedding,
    enumerate_vectors,
    is_primitive_sublattice,
    orthogonal_complement,
    polarization_lattice,
    rank_one,
)
from .modarith import crt, is_prime, legendre, sqrt_mod_prime


def _polarization_degree(lattice: IntegralLattice) -> int:
    """n such that the lattice is <2n> + U in the basis (e, f, g)."""
    if lattice.rank == 3 and lattice.gram[0][0] > 0 and lattice.gram[0][0] % 2 == 0:
        n = lattice.gram[0][0] // 2
        if lattice.gram == polarization_lattice(n).gram:
            return n
    raise LatticeError("ambient lattice must be <2n> + U in the basis (e, f, g)")


def _check_source(source: IntegralLattice) -> None:
    if source.rank != 2 or source.gram[0][0] <= 0 or source.det <= 0:
        raise LatticeError("source must be a rank-2 positive-definite lattice")


def _matches_reference(q_val: Fraction, two_t: int) -> bool:
    """True when some unit multiple lambda^2 * q_val hits 1/(2t)."""
    target = Fraction(1, two_t)
    for lam in range(1, two_t + 1):
        if gcd(lam, two_t) != 1:
            continue
        if (lam * lam * q_val) % 2 == target:
            return True
    return False


@dataclass(frozen=True)
class GluingData:
    """Nikulin's gluing map gamma: V -> W for an embedding into <2n> + U.

    V and W are gamma's domain and codomain; the complement <-2t> is read off
    the glue quotient.
    """

    gamma: SubgroupMap

    def __post_init__(self):
        amb = self.gamma.codomain.ambient
        if amb.ngens != 1 or amb.orders[0] % 2 != 0:
            raise LatticeError("ambient discriminant group must be cyclic of even order")
        if amb.q[0] != Fraction(1, amb.orders[0]):
            raise LatticeError("ambient form must be the standard one on Z/2n")

    @property
    def source_form(self) -> DiscriminantForm:
        return self.gamma.domain.ambient

    @property
    def ambient_n(self) -> int:
        return self.gamma.codomain.ambient.orders[0] // 2

    @property
    def t(self) -> int:
        """Half the order of the glue quotient; raises unless the glue is valid."""
        self.validate()
        return self.quotient_result.quotient.orders[0] // 2

    @cached_property
    def quotient_result(self) -> GlueQuotient:
        return glue_perp_quotient(self.gamma)

    @cached_property
    def _q_generator(self) -> tuple[tuple[int, ...], int]:
        """(x0, y0 in [1, 2n]) of the lexicographically first perp element that
        generates the quotient with q_src(x0) - y0^2/(2n) = 1/(2t).  For each x0,
        reducing (x0, 0) against the perp's Hermite rows but the last leaves the
        y with (x0, y) in the perp as one class modulo the last pivot."""
        res = self.quotient_result
        two_t = 2 * self.t
        two_n = 2 * self.ambient_n
        *rows, last = res.gamma_perp._relations
        target = Fraction(1, two_t)
        for x0 in itertools.product(*(range(o) for o in self.source_form.orders)):
            coeffs = _lattice_coordinates(rows, x0 + (0,))
            if coeffs is None:
                continue
            start = sum(c * row[-1] for c, row in zip(coeffs, rows)) % last[-1]
            for y in range(start, two_n, last[-1]):
                elem = x0 + (y,)
                cls = res.project(elem)
                if len(cls) != 1 or gcd(cls[0], two_t) != 1:
                    continue
                if res.product.q_of(elem) == target:
                    return x0, (y if y >= 1 else two_n)
        raise InternalConsistencyError(
            "no quotient generator satisfies the q-normalization; glue data is inconsistent"
        )

    def is_valid(self) -> bool:
        try:
            self.validate()
        except (LatticeError, InternalConsistencyError):
            return False
        return True

    def validate(self) -> None:
        """Raise unless the glue is valid; a glue that passes is not checked again."""
        self._validated

    @cached_property
    def _validated(self) -> bool:
        q = self.quotient_result.quotient
        if len(q.orders) != 1 or q.orders[0] % 2 != 0:
            raise LatticeError(
                f"glue quotient has generator orders {q.orders}, expected one even order"
            )
        if not _matches_reference(q.q[0], q.orders[0]):
            raise LatticeError(
                f"glue quotient generator has q = {q.q[0]}, which never matches 1/{q.orders[0]}"
            )
        return True

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "ambient_n": self.ambient_n,
            "v_generators": [list(g) for g in self.gamma.domain.gens],
            "w_generators": [list(g) for g in self.gamma.codomain.gens],
            "gamma_images": [list(g) for g in self.gamma.images],
            "source_form": self.source_form.to_json_dict(),
        }


@dataclass(frozen=True)
class ExtensionCertificate:
    """Witness data for one extension step from degree 2d to degree 2md."""

    x0: tuple[int, ...]
    y0: int
    lam: int
    m: int
    new_t: int

    def to_json_dict(self) -> dict:
        return {
            "x0": list(self.x0),
            "y0": self.y0,
            "lambda": self.lam,
            "m": self.m,
            "new_t": self.new_t,
        }


def embedding_to_glue(emb: SublatticeEmbedding) -> GluingData:
    """The gluing map classifying a primitive embedding into <2n> + U.

    The source components of the ambient basis vectors generate the source
    glue; their classes are read off the rows of G_T*M, their integer pairing
    vectors with the source basis.  V is the orthogonal complement of the
    source glue; gamma pushes a class of V along M into the ambient
    discriminant group.  The t of the glue quotient is checked against the
    rank-1 orthogonal complement <-2t>.  No step leaves the integers.
    """
    src = emb.source
    _check_source(src)
    if not is_primitive_sublattice(emb):
        raise LatticeError("embedding is not primitive")
    target = emb.target
    _polarization_degree(target)

    comp = orthogonal_complement(target, emb.columns())
    if comp.source.rank != 1 or comp.source.gram[0][0] >= 0:
        raise LatticeError("complement is not negative definite of rank 1")
    norm = -comp.source.gram[0][0]
    if norm % 2 != 0:
        raise InternalConsistencyError("complement of an even lattice must be even")

    src_data = discriminant_data(src)
    amb_data = discriminant_data(target)

    # Row i of G_T*M pairs e_i with the source basis; the complement is
    # orthogonal to the source, so this is the pairing vector of the source
    # component of e_i, whose class is a source glue generator.
    pairings = mx.mat_mul(target.gram, emb.matrix)
    source_glue = FiniteSubgroup.generated_by(
        src_data.form, [src_data.class_of(row) for row in pairings]
    )

    v_group = source_glue.perp()

    # A class of V with dual vector x goes to the class of M*x, whose pairing
    # vector is G_T*M*x = G_T*M*(level*x) / level.
    level = src_data.level
    images = []
    for g in v_group.structure_gens:
        pushed = mx.mat_vec(pairings, src_data.dual_representative(g))
        if any(z % level for z in pushed):
            raise LatticeError("vector does not lie in the dual lattice")
        images.append(amb_data.class_of(tuple(z // level for z in pushed)))
    w_group = FiniteSubgroup.generated_by(amb_data.form, images)
    gamma = SubgroupMap(v_group, w_group, tuple(images))
    if not (gamma.is_bijective and gamma.preserves_q):
        raise InternalConsistencyError("extracted gluing map is not a form isometry")

    glue = GluingData(gamma)
    if glue.t != norm // 2:
        raise InternalConsistencyError(
            f"glue quotient gives t = {glue.t}, but the complement has norm {-norm}"
        )
    return glue


@dataclass(frozen=True)
class ExtensionConstants:
    """Congruence modulus and the two quadratic-residue constraints."""

    modulus: int
    a: int
    b: int


def extension_constants(glue: GluingData) -> ExtensionConstants:
    """(N, a, b): admissible m satisfy m = 1 mod N with a, b residues mod m.

    N = lcm(4dt, |A_source|), a = -d, b = t, with d the glue's ambient degree.
    Admissibility additionally requires gcd(m, 24) = 1: the relevant moduli
    space has dimension 4, so the factorial bound (2n)! is 24.
    """
    d = glue.ambient_n
    modulus = lcm(4 * d * glue.t, max(glue.source_form.order, 1))
    return ExtensionConstants(modulus, -d, glue.t)


def admissible_m(glue: GluingData, m: int) -> tuple[bool, list[str]]:
    """Check the extension congruences for m; m = 1 is trivially admissible."""
    if m < 1:
        return False, ["m must be a positive integer"]
    if m == 1:
        return True, []
    reasons = []
    consts = extension_constants(glue)
    if not is_prime(m):
        reasons.append(f"{m} is not prime")
        return False, reasons
    if m % consts.modulus != 1:
        reasons.append(f"{m} is not 1 modulo {consts.modulus}")
    if gcd(m, 24) != 1:
        reasons.append(f"{m} shares a factor with 24")
    if m > 2:
        if legendre(consts.a, m) != 1:
            reasons.append(f"{consts.a} is not a quadratic residue modulo {m}")
        if legendre(consts.b, m) != 1:
            reasons.append(f"{consts.b} is not a quadratic residue modulo {m}")
    _, y0 = glue._q_generator
    if gcd(m, y0) != 1:
        reasons.append(f"{m} divides the quotient generator lift y0 = {y0}")
    return (not reasons), reasons


def extend_glue(glue: GluingData, m: int) -> tuple[GluingData, ExtensionCertificate]:
    """Extend a glue for <2d> + U to one for <2md> + U along an admissible prime m.

    Multiplication by m embeds Z/2d into Z/2md compatibly with the forms; the
    congruence lambda^2 t y0^2 + d = 0 mod m, lambda = 1 mod 4dt renormalizes
    the quotient generator to q-value 1/(2tm).  The returned glue is
    re-validated from scratch.
    """
    d = glue.ambient_n
    t = glue.t
    x0, y0 = glue._q_generator
    if m == 1:
        cert = ExtensionCertificate(x0, y0, 1, 1, t)
        return glue, cert
    ok, reasons = admissible_m(glue, m)
    if not ok:
        raise InadmissibleError("; ".join(reasons))

    rhs = (-d) * pow(t * y0 * y0 % m, -1, m) % m
    if legendre(rhs, m) == -1:
        raise InadmissibleError(
            f"lambda congruence unsolvable: {rhs} is not a square modulo {m}"
        )
    root = sqrt_mod_prime(rhs, m)
    lam = crt([(1, 4 * d * t), (root, m)])
    if gcd(lam, 2 * m * t) != 1:
        raise InternalConsistencyError("lambda is not prime to 2mt")

    amb_new = discriminant_form(rank_one(2 * m * d))
    images = tuple(((m * img[0]) % (2 * m * d),) for img in glue.gamma.images)
    w_new = FiniteSubgroup.generated_by(amb_new, images)
    gamma_new = SubgroupMap(glue.gamma.domain, w_new, images)
    if not (gamma_new.is_bijective and gamma_new.preserves_q):
        raise InternalConsistencyError("extended gluing map is not a form isometry")
    extended = GluingData(gamma_new)
    if extended.t != t * m:
        raise InternalConsistencyError(
            f"extended glue has t = {extended.t}, expected t * m = {t * m}"
        )

    # The certificate generator must land on q = 1/(2tm) after scaling by lambda.
    res = extended.quotient_result
    elem = x0 + (y0 % (2 * m * d),)
    cls = res.project(elem)
    order = res.quotient.element_order(cls)
    if order != 2 * t * m:
        raise InternalConsistencyError(
            f"certificate element has order {order} in the new quotient, expected {2 * t * m}"
        )
    scaled = res.quotient.scale(lam, cls)
    if res.quotient.q_of(scaled) != Fraction(1, 2 * t * m) % 2:
        raise InternalConsistencyError(
            "scaled generator does not have q = 1/(2tm); lambda congruence failed"
        )
    cert = ExtensionCertificate(x0, y0, lam, m, t * m)
    return extended, cert


@dataclass(frozen=True)
class EmbeddingSearchResult:
    """Outcome of realize_embedding: a witness, or None when the glue is the
    only certificate."""

    embedding: SublatticeEmbedding | None

    @property
    def found(self) -> bool:
        return self.embedding is not None

    @property
    def status(self) -> str:
        return "witness" if self.found else "certificate_only"


def _signed_range(bound: int):
    yield 0
    for k in range(1, bound + 1):
        yield k
        yield -k


def _divisor_pairs(p: int, bound: int):
    """Ordered integer pairs (f, g) with f*g = p; for p = 0 the free coordinate
    is limited by `bound`."""
    if p == 0:
        yield (0, 0)
        for k in range(1, bound + 1):
            yield (k, 0)
            yield (-k, 0)
            yield (0, k)
            yield (0, -k)
        return
    # Divisors up to sqrt|p|, then their cofactors, give every divisor in ascending order.
    small = [d for d in range(1, isqrt(abs(p)) + 1) if p % d == 0]
    large = [abs(p) // d for d in reversed(small) if d * d != abs(p)]
    for d in small + large:
        yield (d, p // d)
        yield (-d, -(p // d))


def _y_candidates(x, q12, q22, n, bound):
    """Integer vectors y with <x, y> = q12 and y^2 = q22, scanning y_e."""
    xe, xf, xg = x
    for ye in _signed_range(bound):
        r = q12 - 2 * n * xe * ye
        s = q22 - 2 * n * ye * ye  # needs 2*yf*yg = s
        if xf == 0 and xg == 0:
            if r != 0 or s % 2 != 0:
                continue
            for yf, yg in _divisor_pairs(s // 2, bound):
                yield (ye, yf, yg)
        elif xf == 0:
            if r % xg != 0:
                continue
            yf = r // xg
            if yf == 0:
                if s == 0:
                    for yg in _signed_range(bound):
                        yield (ye, yf, yg)
            elif s % (2 * yf) == 0:
                yield (ye, yf, s // (2 * yf))
        elif xg == 0:
            if r % xf != 0:
                continue
            yg = r // xf
            if yg == 0:
                if s == 0:
                    for yf in _signed_range(bound):
                        yield (ye, yf, yg)
            elif s % (2 * yg) == 0:
                yield (ye, s // (2 * yg), yg)
        else:
            disc = r * r - 2 * xf * xg * s
            if disc < 0:
                continue
            rt = isqrt(disc)
            if rt * rt != disc:
                continue
            roots = [r + rt] if rt == 0 else [r + rt, r - rt]
            for num in roots:
                if num % (2 * xg) != 0:
                    continue
                yf = num // (2 * xg)
                if (r - xg * yf) % xf != 0:
                    continue
                yield (ye, yf, (r - xg * yf) // xf)


def embedding_witnesses(source: IntegralLattice, glue: GluingData, search_bound: int):
    """Explicit primitive embeddings realizing a valid glue inside <2n> + U, lazily.

    The first branch fixes the image of the first basis vector to
    (0, 1, q11/2) and scans the hyperbolic coordinate; later branches run the
    same scan over the other norm-q11 divisor shapes (x_e, x_f, x_g).
    """
    glue.validate()
    if discriminant_form(source) != glue.source_form:
        raise LatticeError("glue source form does not match the given lattice")
    if search_bound < 0:
        raise LatticeError("search bound must be nonnegative")
    if search_bound == 0:
        return
    n = glue.ambient_n
    target = polarization_lattice(n)
    q11 = source.gram[0][0]
    q12 = source.gram[0][1]
    q22 = source.gram[1][1]
    for xe in _signed_range(search_bound):
        p = q11 // 2 - n * xe * xe
        for xf, xg in _divisor_pairs(p, search_bound):
            x = (xe, xf, xg)
            if target.norm(x) != q11:
                raise InternalConsistencyError("x candidate has wrong norm")
            for y in _y_candidates(x, q12, q22, n, search_bound):
                matrix = mx.freeze([[x[i], y[i]] for i in range(3)])
                invariants = mx.smith_invariants(matrix)
                if len(invariants) != 2 or any(v != 1 for v in invariants):
                    continue
                yield SublatticeEmbedding(source, target, matrix)


def realize_embedding(
    source: IntegralLattice, glue: GluingData, search_bound: int
) -> EmbeddingSearchResult:
    """The first of `embedding_witnesses`; on exhaustion the glue itself is the
    (existence-only) certificate."""
    return EmbeddingSearchResult(next(embedding_witnesses(source, glue, search_bound), None))


def brute_force_embeddings(
    source: IntegralLattice, n: int, coeff_bound: int
) -> list[SublatticeEmbedding]:
    """All primitive isometric embeddings of a rank-2 lattice into <2n> + U
    whose column coordinates lie in the coefficient box."""
    if source.rank != 2:
        raise LatticeError("brute force is implemented for rank-2 sources")
    target = polarization_lattice(n)
    q11 = source.gram[0][0]
    q12 = source.gram[0][1]
    q22 = source.gram[1][1]
    first = enumerate_vectors(target, q11, coeff_bound)
    second = enumerate_vectors(target, q22, coeff_bound)
    out = []
    for x in first:
        g0, g1, g2 = mx.mat_vec(target.gram, x)
        for y in second:
            if g0 * y[0] + g1 * y[1] + g2 * y[2] != q12:
                continue
            matrix = mx.freeze([[x[i], y[i]] for i in range(3)])
            invariants = mx.smith_invariants(matrix)
            if len(invariants) != 2 or any(v != 1 for v in invariants):
                continue
            out.append(SublatticeEmbedding(source, target, matrix))
    return out


def enumerate_valid_glues(source: IntegralLattice, n: int) -> list[GluingData]:
    """All valid gluing maps for embeddings of `source` into <2n> + U."""
    _check_source(source)
    a_src = discriminant_form(source)
    a_amb = discriminant_form(rank_one(2 * n))
    w_groups = all_subgroups(a_amb)
    out = []
    for v in all_subgroups(a_src):
        for w in w_groups:
            if v.order != w.order:
                continue
            for gamma in subgroup_isometries(v, w):
                candidate = GluingData(gamma)
                if candidate.is_valid():
                    out.append(candidate)
    return out
