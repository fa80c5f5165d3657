"""Finite quadratic forms on discriminant groups and their glue arithmetic.

A discriminant form is presented by cyclic generators: a tuple of generator
orders, the Q/2Z values of the quadratic form on the generators, and the
Q/Z matrix of the bilinear form on generator pairs.  Elements are coordinate
tuples reduced modulo the generator orders.

A subgroup is held by its relation lattice, its preimage in Z^k: order,
membership and orthogonal complements are integer linear algebra on that
lattice and never list elements.  Only element listings (`elements`,
`all_subgroups`, `subgroup_isometries`) enumerate, and SIZE_LIMIT guards them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from . import matrices as mx
from .errors import (
    InternalConsistencyError,
    LatticeError,
    OddLatticeError,
    SizeLimitError,
)
from .intlat import IntegralLattice

SIZE_LIMIT = 10_000

Element = tuple[int, ...]


def _mod2(x: Fraction) -> Fraction:
    return x % 2


def _mod1(x: Fraction) -> Fraction:
    return x % 1


@dataclass(frozen=True)
class DiscriminantForm:
    """Finite abelian group with a Q/2Z quadratic form and its Q/Z bilinear form.

    `orders` lists the orders of the cyclic generators (invariant factors for
    forms coming from a lattice); `q` holds q(g_i) in [0, 2); `b` holds
    b(g_i, g_j) in [0, 1).
    """

    orders: tuple[int, ...]
    q: tuple[Fraction, ...]
    b: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        orders = tuple(int(o) for o in self.orders)
        q = tuple(Fraction(v) for v in self.q)
        b = tuple(tuple(Fraction(v) for v in row) for row in self.b)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "b", b)
        k = len(orders)
        if len(q) != k or len(b) != k or any(len(row) != k for row in b):
            raise LatticeError("inconsistent generator data")
        for i, o in enumerate(orders):
            if o < 2:
                raise LatticeError("generator orders must be at least 2")
            if q[i] != _mod2(q[i]):
                raise LatticeError("q values must be canonical representatives in [0, 2)")
            if (o * q[i]).denominator != 1 or (o * o * q[i]) % 2 != 0:
                raise LatticeError("q value is not well defined on a generator of this order")
            if _mod1(b[i][i]) != _mod1(q[i]):
                raise LatticeError("b(g, g) must agree with q(g) modulo 1")
            for j in range(k):
                if b[i][j] != _mod1(b[i][j]) or b[i][j] != b[j][i]:
                    raise LatticeError("b must be a symmetric matrix of representatives in [0, 1)")
                if (o * b[i][j]).denominator != 1:
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

    def zero(self) -> Element:
        return (0,) * self.ngens

    def reduce(self, x) -> Element:
        return tuple(int(c) % o for c, o in zip(x, self.orders, strict=True))

    def add(self, x: Element, y: Element) -> Element:
        return tuple((a + b) % o for a, b, o in zip(x, y, self.orders, strict=True))

    def scale(self, n: int, x: Element) -> Element:
        return tuple((n * a) % o for a, o in zip(x, self.orders, strict=True))

    def element_order(self, x: Element) -> int:
        return lcm(*(o // gcd(c, o) for c, o in zip(self.reduce(x), self.orders)))

    def q_of(self, x) -> Fraction:
        """Value of the quadratic form, canonical representative in [0, 2)."""
        x = self.reduce(x)
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                total += xi * xi * self.q[i]
                for j in range(i + 1, self.ngens):
                    if x[j]:
                        total += 2 * xi * x[j] * self.b[i][j]
        return _mod2(total)

    def b_of(self, x, y) -> Fraction:
        """Value of the bilinear form, canonical representative in [0, 1)."""
        x = self.reduce(x)
        y = self.reduce(y)
        total = Fraction(0)
        for i, xi in enumerate(x):
            if xi:
                total += xi * sum(self.b[i][j] * yj for j, yj in enumerate(y) if yj)
        return _mod1(total)

    def elements(self) -> list[Element]:
        if self.order > SIZE_LIMIT:
            raise SizeLimitError(
                f"group of order {self.order} exceeds the enumeration limit {SIZE_LIMIT}"
            )
        return list(itertools.product(*(range(o) for o in self.orders)))

    def product_with_negated(self, other: "DiscriminantForm") -> "DiscriminantForm":
        """The form q_self + (-q_other) on the direct sum, coordinates concatenated."""
        orders = self.orders + other.orders
        q = self.q + tuple(_mod2(-v) for v in other.q)
        n, m = self.ngens, other.ngens
        rows = []
        for i in range(n):
            rows.append(self.b[i] + (Fraction(0),) * m)
        for i in range(m):
            rows.append((Fraction(0),) * n + tuple(_mod1(-v) for v in other.b[i]))
        return DiscriminantForm(orders, q, tuple(rows))

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "q": [str(v) for v in self.q],
            "b": [[str(v) for v in row] for row in self.b],
        }


TRIVIAL_FORM = DiscriminantForm((), (), ())


@dataclass(frozen=True)
class LatticeDiscriminantData:
    """Discriminant form of a lattice plus the change-of-coordinates data.

    `dual_gens[i]` is a representative of the i-th generator as a rational
    vector in the lattice basis.
    """

    lattice: IntegralLattice
    form: DiscriminantForm
    dual_gens: tuple[tuple[Fraction, ...], ...]
    _u: mx.Matrix
    _snf_diag: tuple[int, ...]
    _kept: tuple[int, ...]

    def class_of(self, dual_vector) -> Element:
        """Class in the discriminant group of a rational vector lying in the dual."""
        xs = tuple(Fraction(v) for v in dual_vector)
        n = self.lattice.rank
        if len(xs) != n:
            raise LatticeError("dual vector has wrong length")
        z = []
        for row in self.lattice.gram:
            val = sum(Fraction(r) * x for r, x in zip(row, xs))
            if val.denominator != 1:
                raise LatticeError("vector does not lie in the dual lattice")
            z.append(int(val))
        w = mx.mat_vec(self._u, tuple(z))
        full = [w[i] % self._snf_diag[i] for i in range(n)]
        return tuple(full[i] for i in self._kept)

    def dual_representative(self, x: Element) -> tuple[Fraction, ...]:
        """A dual-lattice vector representing the class x."""
        x = self.form.reduce(x)
        n = self.lattice.rank
        out = [Fraction(0)] * n
        for c, gen in zip(x, self.dual_gens, strict=True):
            if c:
                out = [acc + c * g for acc, g in zip(out, gen)]
        return tuple(out)


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
    # U*G*V = S gives G^-1 * U^-1 = V * S^-1: the dual vector of class e_i is
    # column i of V divided by s_ii.
    diag = tuple(s[i][i] for i in range(n))
    kept = tuple(i for i in range(n) if diag[i] > 1)
    dual_gens = [tuple(Fraction(v[r][i], diag[i]) for r in range(n)) for i in kept]

    def pair(i: int, j: int) -> Fraction:
        return sum(
            dual_gens[i][r] * Fraction(lattice.gram[r][c]) * dual_gens[j][c]
            for r in range(n)
            for c in range(n)
        )

    k = len(kept)
    q = tuple(_mod2(pair(i, i)) for i in range(k))
    b = tuple(tuple(_mod1(pair(i, j)) for j in range(k)) for i in range(k))
    form = DiscriminantForm(tuple(diag[i] for i in kept), q, b)
    if form.order != lattice.disc_abs:
        raise InternalConsistencyError("discriminant group order does not match |det|")
    return LatticeDiscriminantData(
        lattice, form, tuple(dual_gens), u, diag, kept
    )


def discriminant_form(lattice: IntegralLattice) -> DiscriminantForm:
    return discriminant_data(lattice).form


def q_value(form: DiscriminantForm, x) -> Fraction:
    return form.q_of(x)


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
    def trivial(ambient: DiscriminantForm) -> "FiniteSubgroup":
        return FiniteSubgroup(ambient, ())

    @staticmethod
    def full(ambient: DiscriminantForm) -> "FiniteSubgroup":
        k = ambient.ngens
        return FiniteSubgroup(
            ambient, tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        )

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """All elements, sorted; computed by closure under addition."""
        seen = {self.ambient.zero()}
        frontier = [self.ambient.zero()]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.gens:
                    y = self.ambient.add(x, g)
                    if y not in seen:
                        if len(seen) >= SIZE_LIMIT:
                            raise SizeLimitError("subgroup enumeration limit exceeded")
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    @cached_property
    def order(self) -> int:
        """|ambient| / (product of the pivots): the pivot product is the index of
        the relation lattice in Z^k."""
        index = 1
        for i, row in enumerate(self._relations):
            index *= row[i]
        return self.ambient.order // index

    def __contains__(self, x) -> bool:
        """Reduce x against the upper-triangular relation basis; members reach zero."""
        y = list(self.ambient.reduce(x))
        for i, row in enumerate(self._relations):
            q, r = divmod(y[i], row[i])
            if r:
                return False
            if q:
                y = [a - q * c for a, c in zip(y, row)]
        return True

    def perp(self) -> "FiniteSubgroup":
        """Orthogonal complement {x : b(x, g) = 0 for every g in the subgroup}.

        With N the exponent of the ambient group, N*b is an integer matrix and
        x lies in the complement iff c_g . x = 0 mod N for every generator g,
        where c_g = N*b*g.  The solutions are the first k coordinates of the
        integer kernel of [C | N*I].
        """
        form = self.ambient
        k, r = form.ngens, len(self.gens)
        if r == 0:
            return FiniteSubgroup.full(form)
        n = lcm(*form.orders)
        nb = [[int(n * v) for v in row] for row in form.b]
        rows = [
            [sum(nb[i][j] * g[j] for j in range(k)) for i in range(k)]
            + [n if t == s else 0 for t in range(r)]
            for s, g in enumerate(self.gens)
        ]
        kernel = mx.kernel_basis(mx.freeze(rows))
        return FiniteSubgroup.generated_by(form, mx.transpose(kernel[:k]))

    @cached_property
    def _structure(self) -> tuple[tuple[int, ...], tuple[Element, ...]]:
        """Invariant factors and an independent generating set realizing them."""
        k = self.ambient.ngens
        if k == 0:
            return ((), ())
        orders = self.ambient.orders
        # The subgroup is its relation lattice modulo the one of the trivial subgroup.
        _, _, diag, lifts = _smith_quotient(self._relations, _relation_basis(orders, ()))
        kept = [i for i in range(k) if diag[i] > 1]
        return (
            tuple(diag[i] for i in kept),
            tuple(self.ambient.reduce(lifts[i]) for i in kept),
        )

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self._structure[0]

    @property
    def structure_gens(self) -> tuple[Element, ...]:
        return self._structure[1]

    @cached_property
    def _coords(self) -> dict[Element, tuple[int, ...]]:
        invariants, sgens = self._structure
        table: dict[Element, tuple[int, ...]] = {}
        for combo in itertools.product(*(range(s) for s in invariants)):
            x = self.ambient.zero()
            for c, g in zip(combo, sgens):
                if c:
                    x = self.ambient.add(x, self.ambient.scale(c, g))
            table[x] = combo
        if len(table) != self.order:
            raise InternalConsistencyError("independent generators do not span the subgroup")
        return table

    def coordinates(self, x) -> tuple[int, ...]:
        return self._coords[self.ambient.reduce(x)]


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


def _smith_quotient(upper: mx.Matrix, lower: mx.Matrix):
    """Cyclic decomposition of upper/lower, for k x k row bases of lattices lower <= upper.

    Returns (basis, uc, diag, lifts): basis = transpose(upper); uc and diag are
    the left Smith transform and the Smith diagonal of the coordinates C of
    lower in basis; lifts[i] = basis * (column i of uc^-1) lifts a generator
    of the quotient of order diag[i] (trivial where diag[i] == 1).
    """
    k = len(lower)
    if len(upper) != k:
        raise InternalConsistencyError("relation lattice is not of full rank")
    basis = mx.transpose(upper)
    coords = mx.transpose(mx.freeze(_exact_coordinates(basis, row) for row in lower))
    uc, sc, vc = mx.smith_normal_form(coords)
    diag = tuple(sc[i][i] for i in range(k))
    # uc*C*vc = sc and basis*C = lower^T give basis * uc^-1 = lower^T * vc * sc^-1.
    spanned = mx.mat_mul(mx.transpose(lower), vc)
    lifts = []
    for i in range(k):
        col = [row[i] for row in spanned]
        if any(x % diag[i] for x in col):
            raise InternalConsistencyError("quotient generator lift is not integral")
        lifts.append(tuple(x // diag[i] for x in col))
    return basis, uc, diag, tuple(lifts)


def _exact_coordinates(basis: mx.Matrix, x) -> mx.Vector:
    """Integer y with basis * y = x, for x in the lattice the columns of basis span."""
    sol = mx.solve_rational(basis, x)
    if any(v.denominator != 1 for v in sol):
        raise InternalConsistencyError("relation lattice is not inside the larger one")
    return tuple(int(v) for v in sol)


@dataclass(frozen=True)
class SubgroupMap:
    """Group homomorphism between subgroups, given on structure generators."""

    domain: FiniteSubgroup
    codomain: FiniteSubgroup
    images: tuple[Element, ...]

    def __call__(self, x) -> Element:
        coords = self.domain.coordinates(x)
        out = self.codomain.ambient.zero()
        for c, img in zip(coords, self.images, strict=True):
            if c:
                out = self.codomain.ambient.add(out, self.codomain.ambient.scale(c, img))
        return out

    @cached_property
    def is_bijective(self) -> bool:
        image = {self(x) for x in self.domain.elements}
        return len(image) == self.domain.order and self.domain.order == self.codomain.order

    @cached_property
    def preserves_q(self) -> bool:
        aq = self.domain.ambient.q_of
        bq = self.codomain.ambient.q_of
        return all(bq(self(x)) == aq(x) for x in self.domain.elements)


def subgroup_isometries(v: FiniteSubgroup, w: FiniteSubgroup) -> list[SubgroupMap]:
    """All group isomorphisms V -> W preserving the restricted quadratic forms."""
    if v.order != w.order:
        return []
    if v.invariant_factors != w.invariant_factors:
        return []
    invariants, _ = v._structure
    if not invariants:
        return [SubgroupMap(v, w, ())]
    candidates = []
    for s in invariants:
        cands = [x for x in w.elements if not any(w.ambient.scale(s, x))]
        candidates.append(cands)
    out = []
    for images in itertools.product(*candidates):
        gamma = SubgroupMap(v, w, images)
        if gamma.is_bijective and gamma.preserves_q:
            out.append(gamma)
    out.sort(key=lambda g: g.images)
    return out


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
    _basis: mx.Matrix
    _uc: mx.Matrix
    _sc_diag: tuple[int, ...]
    _kept: tuple[int, ...]

    def project(self, x) -> Element:
        """Quotient coordinates of an element of gamma_perp."""
        if x not in self.gamma_perp:
            raise LatticeError("element does not lie in the orthogonal complement")
        # Every integer lift of a perp element lies in the perp relation lattice.
        y = _exact_coordinates(self._basis, self.product.reduce(x))
        w = mx.mat_vec(self._uc, y)
        return tuple(w[i] % self._sc_diag[i] for i in self._kept)


def glue_perp_quotient(
    a_src: DiscriminantForm, a_amb: DiscriminantForm, gamma: SubgroupMap
) -> GlueQuotient:
    """Graph of gamma, its orthogonal complement, and the induced quotient form."""
    if gamma.domain.ambient != a_src or gamma.codomain.ambient != a_amb:
        raise LatticeError("gluing map does not match the given forms")
    if not (gamma.is_bijective and gamma.preserves_q):
        raise LatticeError("gluing map must be a form-respecting isomorphism")
    product = a_src.product_with_negated(a_amb)
    graph_gens = []
    for g in gamma.domain.structure_gens:
        img = gamma(g)
        graph_gens.append(tuple(g) + tuple(img))
    graph = FiniteSubgroup.generated_by(product, graph_gens)
    for x in graph.elements:
        if product.q_of(x) != 0:
            raise InternalConsistencyError("graph of a form-respecting map must be isotropic")
    perp = graph.perp()
    for g in graph.gens:
        if g not in perp:
            raise InternalConsistencyError("graph is not contained in its own perp")
    return _quotient_form(product, perp, graph)


def _quotient_form(
    product: DiscriminantForm, perp: FiniteSubgroup, graph: FiniteSubgroup
) -> GlueQuotient:
    k = product.ngens
    if k == 0:
        return GlueQuotient(
            product, graph, perp, TRIVIAL_FORM, (), (), (), (), ()
        )
    basis, uc, diag, lifts = _smith_quotient(perp._relations, graph._relations)
    kept = tuple(i for i in range(k) if diag[i] > 1)
    reps = [product.reduce(lifts[i]) for i in kept]
    orders = tuple(diag[i] for i in kept)
    q = tuple(product.q_of(r) for r in reps)
    b = tuple(tuple(product.b_of(r1, r2) for r2 in reps) for r1 in reps)
    quotient = DiscriminantForm(orders, q, b)
    return GlueQuotient(
        product, graph, perp, quotient, tuple(reps), basis, uc, diag, kept
    )


def all_subgroups(form: DiscriminantForm) -> list[FiniteSubgroup]:
    """Every subgroup, by exhaustive closure of small generating sets."""
    elems = form.elements()
    max_gens = max(1, form.ngens)
    seen: dict[tuple[Element, ...], FiniteSubgroup] = {}
    trivial = FiniteSubgroup.trivial(form)
    seen[trivial.gens] = trivial
    for size in range(1, max_gens + 1):
        for combo in itertools.combinations(elems, size):
            sub = FiniteSubgroup.generated_by(form, combo)
            seen.setdefault(sub.gens, sub)
    return [seen[key] for key in sorted(seen)]
