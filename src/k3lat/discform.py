"""Finite quadratic forms on discriminant groups and their glue arithmetic.

A discriminant form is presented by cyclic generators: a tuple of generator
orders, the Q/2Z values of the quadratic form on the generators, and the
Q/Z matrix of the bilinear form on generator pairs.  Every value lies in
(1/N)Z for N the exponent of the group, and is held as its integer numerator
over N.  Elements are coordinate tuples reduced modulo the generator orders.

A subgroup is held by its relation lattice, its preimage in Z^k: order,
membership, structure, orthogonal complements and glue quotients are integer
linear algebra on that lattice.  Coordinates in a quotient of two relation
lattices are read off one Smith form.  Maps between subgroups are checked on
generators.  Nothing lists the elements of a group: `all_subgroups` enumerates
relation lattices by their Hermite forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from . import matrices as mx
from .errors import InternalConsistencyError, LatticeError, OddLatticeError
from .intlat import IntegralLattice

Element = tuple[int, ...]


@dataclass(frozen=True)
class DiscriminantForm:
    """Finite abelian group with a Q/2Z quadratic form and its Q/Z bilinear form.

    `orders` lists the orders of the cyclic generators (invariant factors for
    forms coming from a lattice).  Every value lies in (1/N)Z for N = `level`,
    the exponent of the group, and is held as its integer numerator over N:
    `q[i]` is N*q(g_i) in [0, 2N) and `b[i][j]` is N*b(g_i, g_j) in [0, N).
    """

    orders: tuple[int, ...]
    q: tuple[int, ...]
    b: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        orders, q, b = self.orders, self.q, self.b
        k = len(orders)
        if len(q) != k or len(b) != k or any(len(row) != k for row in b):
            raise LatticeError("inconsistent generator data")
        if any(o < 2 for o in orders):
            raise LatticeError("generator orders must be at least 2")
        n = self.level
        for i, o in enumerate(orders):
            if q[i] != q[i] % (2 * n):
                raise LatticeError("q values must be canonical representatives in [0, 2)")
            if (o * q[i]) % n or (o * o * q[i]) % (2 * n):
                raise LatticeError("q value is not well defined on a generator of this order")
            if (b[i][i] - q[i]) % n:
                raise LatticeError("b(g, g) must agree with q(g) modulo 1")
            for j in range(k):
                if b[i][j] != b[i][j] % n or b[i][j] != b[j][i]:
                    raise LatticeError("b must be a symmetric matrix of representatives in [0, 1)")
                if (o * b[i][j]) % n:
                    raise LatticeError("b value is not well defined on generators of these orders")

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @cached_property
    def order(self) -> int:
        total = 1
        for o in self.orders:
            total *= o
        return total

    @cached_property
    def level(self) -> int:
        """Exponent of the group: the common denominator of the form values."""
        return lcm(*self.orders)

    def reduce(self, x) -> Element:
        return tuple(int(c) % o for c, o in zip(x, self.orders, strict=True))

    def scale(self, n: int, x: Element) -> Element:
        return tuple((n * a) % o for a, o in zip(x, self.orders, strict=True))

    def element_order(self, x: Element) -> int:
        return lcm(*(o // gcd(c, o) for c, o in zip(self.reduce(x), self.orders)))

    def q_of(self, x) -> int:
        """level * q(x), canonical representative in [0, 2 * level)."""
        x = self.reduce(x)
        total = 0
        for i, xi in enumerate(x):
            if xi:
                total += xi * xi * self.q[i]
                for j in range(i + 1, self.ngens):
                    if x[j]:
                        total += 2 * xi * x[j] * self.b[i][j]
        return total % (2 * self.level)

    def b_of(self, x, y) -> int:
        """level * b(x, y), canonical representative in [0, level)."""
        x = self.reduce(x)
        y = self.reduce(y)
        total = 0
        for i, xi in enumerate(x):
            if xi:
                total += xi * sum(self.b[i][j] * yj for j, yj in enumerate(y) if yj)
        return total % self.level

    def product_with_negated(self, other: "DiscriminantForm") -> "DiscriminantForm":
        """The form q_self + (-q_other) on the direct sum, coordinates concatenated.

        Its level is the lcm of the two levels, so each numerator is rescaled."""
        n = lcm(self.level, other.level)
        s, t = n // self.level, n // other.level
        q = tuple(s * v for v in self.q) + tuple(-t * v % (2 * n) for v in other.q)
        rows = [tuple(s * v for v in row) + (0,) * other.ngens for row in self.b]
        for row in other.b:
            rows.append((0,) * self.ngens + tuple(-t * v % n for v in row))
        return DiscriminantForm(self.orders + other.orders, q, tuple(rows))

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "q": [str(Fraction(v, self.level)) for v in self.q],
            "b": [[str(Fraction(v, self.level)) for v in row] for row in self.b],
        }


TRIVIAL_FORM = DiscriminantForm((), (), ())


@dataclass(frozen=True)
class LatticeDiscriminantData:
    """Discriminant form of a lattice plus the change-of-coordinates data.

    A dual vector x is handled through its integer pairing vector z = G*x with
    the lattice basis.  With N = `form.level`, the exponent of the discriminant
    group, N*x is an integer vector for every dual x; `dual_gens[i]` is N
    times a dual vector of the i-th generator, and the form holds the
    numerators N*q and N*b of the pairings of these dual vectors.
    """

    lattice: IntegralLattice
    form: DiscriminantForm
    dual_gens: tuple[mx.Vector, ...]
    _u: mx.Matrix
    _snf_diag: tuple[int, ...]
    _kept: tuple[int, ...]

    def class_of(self, pairing) -> Element:
        """Class of the dual vector whose pairings with the lattice basis are `pairing`."""
        if len(pairing) != self.lattice.rank:
            raise LatticeError("pairing vector has wrong length")
        w = mx.mat_vec(self._u, tuple(pairing))
        return tuple(w[i] % self._snf_diag[i] for i in self._kept)

    def dual_representative(self, x: Element) -> mx.Vector:
        """form.level times a dual-lattice vector representing the class x."""
        out = (0,) * self.lattice.rank
        for c, gen in zip(self.form.reduce(x), self.dual_gens, strict=True):
            if c:
                out = tuple(acc + c * g for acc, g in zip(out, gen))
        return out


@lru_cache(maxsize=None)
def discriminant_data(lattice: IntegralLattice) -> LatticeDiscriminantData:
    """Discriminant group of an even nondegenerate lattice, with coordinates."""
    if not lattice.is_even:
        raise OddLatticeError("discriminant form requires an even lattice")
    if not lattice.is_nondegenerate:
        raise LatticeError("discriminant form requires a nondegenerate lattice")
    n = lattice.rank
    if n == 0:
        return LatticeDiscriminantData(lattice, TRIVIAL_FORM, (), (), (), ())
    u, s, v = mx.smith_normal_form(lattice.gram)
    # Smith diagonal entries of a nondegenerate Gram are positive, and
    # U*G*V = S gives G^-1 * U^-1 = V * S^-1: the dual vector x_i of class e_i
    # is column i of V divided by s_i, with pairing vector G*x_i = U^-1 * e_i.
    diag = tuple(s[i][i] for i in range(n))
    kept = tuple(i for i in range(n) if diag[i] > 1)
    level = diag[-1]
    cols = [tuple(v[r][i] for r in range(n)) for i in kept]
    dual_gens = tuple(tuple(level // diag[i] * x for x in col) for i, col in zip(kept, cols))
    # G*col_i = s_i * U^-1 * e_i, so the division is exact.
    pairings = [
        tuple(z // diag[i] for z in mx.mat_vec(lattice.gram, col)) for i, col in zip(kept, cols)
    ]

    def pair(i: int, j: int) -> int:
        """level * <x_i, x_j>."""
        return sum(a * b for a, b in zip(dual_gens[i], pairings[j]))

    k = len(kept)
    q = tuple(pair(i, i) % (2 * level) for i in range(k))
    b = tuple(tuple(pair(i, j) % level for j in range(k)) for i in range(k))
    form = DiscriminantForm(tuple(diag[i] for i in kept), q, b)
    if form.order != lattice.disc_abs:
        raise InternalConsistencyError("discriminant group order does not match |det|")
    return LatticeDiscriminantData(lattice, form, dual_gens, u, diag, kept)


def discriminant_form(lattice: IntegralLattice) -> DiscriminantForm:
    return discriminant_data(lattice).form


@dataclass(frozen=True)
class FiniteSubgroup:
    """Subgroup of a discriminant group, stored by canonical HNF generators.

    `_relations` is the HNF row basis of its relation lattice (a k x k
    upper-triangular matrix); order, membership, structure and orthogonal
    complement are read off it.
    """

    ambient: DiscriminantForm
    gens: tuple[Element, ...]
    _relations: mx.Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        relations = _relation_basis(
            self.ambient.orders, tuple(self.ambient.reduce(g) for g in self.gens)
        )
        object.__setattr__(self, "_relations", relations)
        reduced = (self.ambient.reduce(row) for row in relations)
        object.__setattr__(self, "gens", tuple(g for g in reduced if any(g)))

    @staticmethod
    def generated_by(ambient: DiscriminantForm, gens) -> "FiniteSubgroup":
        return FiniteSubgroup(ambient, tuple(tuple(g) for g in gens))

    @staticmethod
    def full(ambient: DiscriminantForm) -> "FiniteSubgroup":
        k = ambient.ngens
        return FiniteSubgroup(
            ambient, tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        )

    @cached_property
    def order(self) -> int:
        """|ambient| / (product of the pivots): the pivot product is the index of
        the relation lattice in Z^k."""
        index = 1
        for i, row in enumerate(self._relations):
            index *= row[i]
        return self.ambient.order // index

    def __contains__(self, x) -> bool:
        return _lattice_coordinates(self._relations, self.ambient.reduce(x)) is not None

    def perp(self) -> "FiniteSubgroup":
        """Orthogonal complement {x : b(x, g) = 0 for every g in the subgroup}.

        With N the level of the ambient form, x lies in the complement iff
        c_g . x = 0 mod N for every generator g, where c_g = N*b*g is read off
        the integer numerators of b.  The solutions are the first k coordinates
        of the integer kernel of [C | N*I].
        """
        form = self.ambient
        k, r = form.ngens, len(self.gens)
        if r == 0:
            return FiniteSubgroup.full(form)
        n, nb = form.level, form.b
        rows = [
            [sum(nb[i][j] * g[j] for j in range(k)) for i in range(k)]
            + [n if t == s else 0 for t in range(r)]
            for s, g in enumerate(self.gens)
        ]
        kernel = mx.kernel_basis(mx.freeze(rows))
        return FiniteSubgroup.generated_by(form, mx.transpose(kernel[:k]))

    @cached_property
    def _structure(self) -> "_SmithQuotient":
        # The subgroup is its relation lattice modulo the one of the trivial subgroup.
        return _smith_quotient(
            self.ambient, self._relations, _relation_basis(self.ambient.orders, ())
        )

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self._structure.orders

    @property
    def structure_gens(self) -> tuple[Element, ...]:
        """Independent generators of orders `invariant_factors`."""
        return self._structure.lifts


def _relation_basis(orders: tuple[int, ...], gens) -> mx.Matrix:
    """HNF row basis of the lattice spanned by gens and the relations orders[i]*e_i.

    This is the preimage in Z^k of the subgroup the gens generate; it has full
    rank k, so the basis is a k x k upper-triangular matrix.
    """
    k = len(orders)
    relations = [[orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    if not gens:
        return mx.freeze(relations)  # diag(orders) is already in Hermite form
    return mx.hermite_row_form(mx.freeze([list(g) for g in gens] + relations))


def _lattice_coordinates(upper: mx.Matrix, x) -> mx.Vector | None:
    """Integer y with x = sum y_i * upper[i] by forward reduction against the
    upper-triangular row basis; None when x is not in its row lattice."""
    rest = list(x)
    y = []
    for i, row in enumerate(upper):
        q, r = divmod(rest[i], row[i])
        if r:
            return None
        if q:
            rest = [a - q * c for a, c in zip(rest, row)]
        y.append(q)
    return tuple(y)


@dataclass(frozen=True)
class _SmithQuotient:
    """Cyclic decomposition of upper/lower (see `_smith_quotient`): `orders` are
    the Smith diagonal entries above 1 and `lifts` generators of those orders."""

    upper: mx.Matrix
    uc: mx.Matrix
    diag: tuple[int, ...]
    orders: tuple[int, ...]
    lifts: tuple[Element, ...]

    def coordinates(self, x) -> Element | None:
        """Quotient coordinates of x, or None when x does not lie in upper."""
        y = _lattice_coordinates(self.upper, x)
        if y is None:
            return None
        w = mx.mat_vec(self.uc, y)
        return tuple(c % d for c, d in zip(w, self.diag) if d > 1)


def _smith_quotient(form: DiscriminantForm, upper: mx.Matrix, lower: mx.Matrix) -> _SmithQuotient:
    """Quotient of relation lattices lower <= upper in form, given by k x k row bases.

    With C the coordinates of lower in the rows of upper and uc*C*vc = sc,
    y -> uc*y maps C*Z^k onto sc*Z^k, and generator i lifts to upper^T * (column
    i of uc^-1) = lower^T * (column i of vc) / sc_ii.
    """
    k = len(lower)
    if len(upper) != k:
        raise InternalConsistencyError("relation lattice is not of full rank")
    coords = [_lattice_coordinates(upper, row) for row in lower]
    if None in coords:
        raise InternalConsistencyError("relation lattice is not inside the larger one")
    uc, sc, vc = mx.smith_normal_form(mx.transpose(mx.freeze(coords)))
    diag = tuple(sc[i][i] for i in range(k))
    spanned = mx.mat_mul(mx.transpose(lower), vc)
    lifts = []
    for i in range(k):
        col = [row[i] for row in spanned]
        if any(x % diag[i] for x in col):
            raise InternalConsistencyError("quotient generator lift is not integral")
        if diag[i] > 1:
            lifts.append(form.reduce(x // diag[i] for x in col))
    return _SmithQuotient(upper, uc, diag, tuple(d for d in diag if d > 1), tuple(lifts))


@dataclass(frozen=True)
class SubgroupMap:
    """Group homomorphism between subgroups, given on structure generators."""

    domain: FiniteSubgroup
    codomain: FiniteSubgroup
    images: tuple[Element, ...]

    @cached_property
    def is_bijective(self) -> bool:
        """Well defined (s_i * images[i] = 0), onto the codomain, and of equal order."""
        amb = self.codomain.ambient
        pairs = zip(self.domain.invariant_factors, self.images, strict=True)
        return (
            self.domain.order == self.codomain.order
            and all(not any(amb.scale(s, img)) for s, img in pairs)
            and FiniteSubgroup.generated_by(amb, self.images) == self.codomain
        )

    @cached_property
    def preserves_q(self) -> bool:
        """q agrees on each structure generator and b on each pair of them,
        which makes q agree on every element.  The two forms may have different
        levels, so their numerators are compared cross-multiplied."""
        src, dst = self.domain.ambient, self.codomain.ambient
        m, n = src.level, dst.level
        pairs = tuple(zip(self.domain.structure_gens, self.images, strict=True))
        return all(dst.q_of(h) * m == src.q_of(g) * n for g, h in pairs) and all(
            dst.b_of(h1, h2) * m == src.b_of(g1, g2) * n
            for (g1, h1), (g2, h2) in itertools.combinations(pairs, 2)
        )


@dataclass(frozen=True)
class GlueQuotient:
    """Graph, orthogonal complement and induced quotient form of a gluing map.

    Lives in the product form q_src + (-q_amb); `reps` are product-group
    representatives of the quotient generators.
    """

    product: DiscriminantForm
    gamma: FiniteSubgroup
    gamma_perp: FiniteSubgroup
    quotient: DiscriminantForm
    reps: tuple[Element, ...]
    _smith: _SmithQuotient

    def project(self, x) -> Element:
        """Quotient coordinates of an element of gamma_perp."""
        coords = self._smith.coordinates(self.product.reduce(x))
        if coords is None:
            raise LatticeError("element does not lie in the orthogonal complement")
        return coords


def glue_perp_quotient(gamma: SubgroupMap) -> GlueQuotient:
    """Graph of gamma, its orthogonal complement, and the induced quotient form,
    in the product of the forms of gamma's domain and codomain."""
    if not (gamma.is_bijective and gamma.preserves_q):
        raise LatticeError("gluing map must be a form-respecting isomorphism")
    product = gamma.domain.ambient.product_with_negated(gamma.codomain.ambient)
    graph = FiniteSubgroup.generated_by(
        product,
        [g + tuple(img) for g, img in zip(gamma.domain.structure_gens, gamma.images, strict=True)],
    )
    # q vanishes on the generators and, by the perp check below, b on every
    # pair of them: together they make q vanish on the whole graph.
    if any(product.q_of(g) for g in graph.gens):
        raise InternalConsistencyError("graph of a form-respecting map must be isotropic")
    perp = graph.perp()
    if any(g not in perp for g in graph.gens):
        raise InternalConsistencyError("graph is not contained in its own perp")
    smith = _smith_quotient(product, perp._relations, graph._relations)
    reps = smith.lifts
    # The quotient's exponent divides the product's, and its values lie in
    # 1/(its exponent) Z, so rescaling the numerators down is exact.
    scale = product.level // lcm(*smith.orders)
    q = tuple(product.q_of(r) // scale for r in reps)
    b = tuple(tuple(product.b_of(r1, r2) // scale for r2 in reps) for r1 in reps)
    return GlueQuotient(product, graph, perp, DiscriminantForm(smith.orders, q, b), reps, smith)


def all_subgroups(form: DiscriminantForm) -> list[FiniteSubgroup]:
    """Every subgroup, one per relation lattice M with diag(orders)*Z^k <= M <= Z^k.

    Each M has exactly one Hermite row basis (Cohen, GTM 138, 2.4.3): pivots
    h_i dividing orders[i] and entries above pivot j in [0, h_j).  Every such
    upper-triangular matrix whose rows span the relations orders[i]*e_i is the
    basis of one subgroup.  Sorted by canonical generators.
    """
    k = form.ngens
    relations = _relation_basis(form.orders, ())
    above = [(i, j) for j in range(k) for i in range(j)]
    divisors = ([h for h in range(1, o + 1) if o % h == 0] for o in form.orders)
    found = []
    for pivots in itertools.product(*divisors):
        for entries in itertools.product(*(range(pivots[j]) for _, j in above)):
            basis = [[pivots[i] if i == j else 0 for j in range(k)] for i in range(k)]
            for (i, j), a in zip(above, entries):
                basis[i][j] = a
            if all(_lattice_coordinates(basis, rel) is not None for rel in relations):
                found.append(FiniteSubgroup.generated_by(form, basis))
    return sorted(found, key=lambda sub: sub.gens)
