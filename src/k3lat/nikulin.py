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
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm

from . import matrices as mx
from .discform import (
    DiscriminantForm,
    Element,
    FiniteSubgroup,
    GlueQuotient,
    SubgroupMap,
    _lattice_coordinates,
    all_subgroups,
    discriminant_data,
    discriminant_form,
    glue_perp_quotient,
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
    is_primitive_pair,
    polarization_lattice,
    rank_one,
)
from .modarith import crt, is_prime, legendre, sqrt_mod_prime


def _polarization_degree(lattice: IntegralLattice) -> int:
    """n such that the lattice is <2n> + U in the basis (e, f, g)."""
    if lattice.rank == 3 and lattice.gram[0][0] > 0 and lattice.gram[0][0] % 2 == 0:
        n = lattice.gram[0][0] // 2
        if lattice.gram == ((2 * n, 0, 0), (0, 0, 1), (0, 1, 0)):
            return n
    raise LatticeError("ambient lattice must be <2n> + U in the basis (e, f, g)")


def _check_source(source: IntegralLattice) -> None:
    if source.rank != 2 or source.gram[0][0] <= 0 or source.det <= 0:
        raise LatticeError("source must be a rank-2 positive-definite lattice")


def _matches_reference(q_num: int, two_t: int) -> bool:
    """True when some unit multiple lambda^2 * q hits 1/(2t), for q = q_num/(2t):
    that is, lambda^2 * q_num = 1 mod 4t."""
    return any(
        gcd(lam, two_t) == 1 and lam * lam * q_num % (2 * two_t) == 1
        for lam in range(1, two_t + 1)
    )


@dataclass(frozen=True)
class GluingData:
    """Nikulin's gluing map gamma: V -> W for an embedding into <2n> + U.

    V and W are gamma's domain and codomain.  A GluingData is valid by
    construction: the constructor raises LatticeError unless the glue is
    valid, so the complement <-2t> can be read off the quotient of any
    instance.
    """

    gamma: SubgroupMap

    def __post_init__(self):
        amb = self.gamma.codomain.ambient
        if amb.ngens != 1 or amb.orders[0] % 2 != 0:
            raise LatticeError("ambient discriminant group must be cyclic of even order")
        if amb.q[0] != 1:
            raise LatticeError("ambient form must be the standard one on Z/2n")
        q = self.quotient_result.quotient
        if len(q.orders) != 1 or q.orders[0] % 2 != 0:
            raise LatticeError(
                f"glue quotient has generator orders {q.orders}, expected one even order"
            )
        if not _matches_reference(q.q[0], q.orders[0]):
            raise LatticeError(
                f"glue quotient generator has q = {Fraction(q.q[0], q.level)},"
                f" which never matches 1/{q.orders[0]}"
            )

    @property
    def source_form(self) -> DiscriminantForm:
        return self.gamma.domain.ambient

    @property
    def ambient_n(self) -> int:
        return self.gamma.codomain.ambient.orders[0] // 2

    @property
    def t(self) -> int:
        """Half the order of the glue quotient."""
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
        # q = 1/(2t) is the numerator level/(2t), which exists only when 2t divides the level.
        level = res.product.level
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
                if res.product.q_of(elem) * two_t == level:
                    return x0, (y if y >= 1 else two_n)
        raise InternalConsistencyError(
            "no quotient generator satisfies the q-normalization; glue data is inconsistent"
        )

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

    The shapes are fixed: M is 3 x 2, so it is primitive exactly when the gcd
    of its 2 x 2 minors is 1 (`is_primitive_pair`), and the complement is
    spanned by the cross product of M's two pairing columns, made primitive
    (`_complement_generator`).  Only its norm -2t is read, so its sign does
    not matter.

    Embeddings with the same V and images share one glue: V and the
    glue are memoised per process, like `discriminant_data`, while every check
    on the embedding itself runs on each call.
    """
    src = emb.source
    _check_source(src)
    if not is_primitive_pair(emb.matrix):
        raise LatticeError("embedding is not primitive")
    target = emb.target
    _polarization_degree(target)

    # Row i of G_T*M pairs e_i with the source basis; the complement is
    # orthogonal to the source, so this is the pairing vector of the source
    # component of e_i, whose class is a source glue generator.
    pairings = mx.mat_mul(target.gram, emb.matrix)
    norm = -target.norm(_complement_generator(pairings))
    if norm <= 0:
        raise LatticeError("complement is not negative definite of rank 1")
    if norm % 2 != 0:
        raise InternalConsistencyError("complement of an even lattice must be even")

    src_data = discriminant_data(src)
    amb_data = discriminant_data(target)
    v_group = _glue_domain(src_data.form, tuple(src_data.class_of(row) for row in pairings))

    # A class of V with dual vector x goes to the class of M*x, whose pairing
    # vector is G_T*M*x = G_T*M*(level*x) / level.
    level = src_data.form.level
    images = []
    for g in v_group.structure_gens:
        pushed = mx.mat_vec(pairings, src_data.dual_representative(g))
        if any(z % level for z in pushed):
            raise LatticeError("vector does not lie in the dual lattice")
        images.append(amb_data.class_of(tuple(z // level for z in pushed)))

    glue = _glue_from_images(v_group, amb_data.form, tuple(images))
    if glue.t != norm // 2:
        raise InternalConsistencyError(
            f"glue quotient gives t = {glue.t}, but the complement has norm {-norm}"
        )
    return glue


def _complement_generator(pairings: mx.Matrix) -> tuple[int, ...]:
    """c = w / gcd(w) for the cross product w of the two columns of the 3 x 2
    `pairings`: the primitive generator, up to sign, of the vectors of
    <2n> + U orthogonal to a rank-2 sublattice whose columns pair with the
    basis as `pairings` says.  The columns are independent, so w != 0."""
    (a0, b0), (a1, b1), (a2, b2) = pairings
    w = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    g = gcd(*w)
    return tuple(x // g for x in w)


@lru_cache(maxsize=None)
def _glue_domain(
    source_form: DiscriminantForm, glue_classes: tuple[Element, ...]
) -> FiniteSubgroup:
    """V, the orthogonal complement of the source glue these classes generate."""
    return FiniteSubgroup.generated_by(source_form, glue_classes).perp()


def _glue(
    v_group: FiniteSubgroup, ambient_form: DiscriminantForm, images: tuple[Element, ...]
) -> GluingData:
    """The glue sending V's structure generators to `images` in the ambient form."""
    w_group = FiniteSubgroup.generated_by(ambient_form, images)
    gamma = SubgroupMap(v_group, w_group, images)
    if not (gamma.is_bijective and gamma.preserves_q):
        raise InternalConsistencyError("gluing map is not a form isometry")
    return GluingData(gamma)


# Extraction's memo; a failed check raises and so is never cached.
_glue_from_images = lru_cache(maxsize=None)(_glue)


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
    modulus = lcm(4 * d * glue.t, glue.source_form.order)
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
    the quotient generator to q-value 1/(2tm).  The returned glue is built
    afresh, so it is valid by construction, and it stays out of extraction's
    memo.
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
    extended = _glue(glue.gamma.domain, amb_new, images)
    if extended.t != t * m:
        raise InternalConsistencyError(
            f"extended glue has t = {extended.t}, expected t * m = {t * m}"
        )

    # The certificate generator must land on q = 1/(2tm), numerator 1, after scaling by lambda.
    res = extended.quotient_result
    elem = x0 + (y0 % (2 * m * d),)
    cls = res.project(elem)
    order = res.quotient.element_order(cls)
    if order != 2 * t * m:
        raise InternalConsistencyError(
            f"certificate element has order {order} in the new quotient, expected {2 * t * m}"
        )
    scaled = res.quotient.scale(lam, cls)
    if res.quotient.q_of(scaled) != 1:
        raise InternalConsistencyError(
            "scaled generator does not have q = 1/(2tm); lambda congruence failed"
        )
    cert = ExtensionCertificate(x0, y0, lam, m, t * m)
    return extended, cert


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
                if is_primitive_pair(matrix):
                    yield SublatticeEmbedding(source, target, matrix)


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
            if is_primitive_pair(matrix):
                out.append(SublatticeEmbedding(source, target, matrix))
    return out


def enumerate_valid_glues(source: IntegralLattice, n: int) -> list[GluingData]:
    """All valid gluing maps for embeddings of `source` into <2n> + U.

    The ambient group is the cyclic Z/2n, whose one subgroup of order k, for
    each k dividing 2n, is W = <w0> with w0 = 2n/k.  So a subgroup V of A_S
    can match only when it is cyclic (or trivial) of such an order, and an
    isometry V -> W sends V's generator g to some c*w0 with gcd(c, k) = 1 and
    q(c*w0) = q(g).  V runs over `all_subgroups(A_S)` in its order and c
    ascends, so each V's glues come sorted by the image of its generator.
    """
    _check_source(source)
    if n < 1:
        raise LatticeError("polarization degree parameter must be positive")
    a_src = discriminant_form(source)
    two_n = 2 * n
    a_amb = discriminant_form(rank_one(two_n))
    out = []
    for v in all_subgroups(a_src):
        k = v.order
        if two_n % k or len(v.invariant_factors) > 1:
            continue
        w0 = two_n // k
        w = FiniteSubgroup.generated_by(a_amb, [(w0,)])
        if k == 1:
            candidates = [()]
        else:
            # q(c*w0) = c^2 q(w0); the levels differ, so the q numerators are
            # compared cross-multiplied.
            q_g = a_src.q_of(v.structure_gens[0]) * two_n
            q_w0, mod = a_amb.q_of((w0,)), 2 * two_n
            candidates = [
                ((c * w0,),)
                for c in range(1, k)
                if gcd(c, k) == 1 and c * c * q_w0 % mod * a_src.level == q_g
            ]
        for images in candidates:
            try:
                out.append(GluingData(SubgroupMap(v, w, images)))
            except LatticeError:
                pass
    return out
