"""Element listings, rational arithmetic and older lattice routes, kept as
oracles for the package.

The package never lists the elements of a group, and holds form values as
integer numerators; these helpers list elements, on groups small enough for a
test, and compute values in Fractions, to check its results by a second route.
The isotropic quotient is also built here the long way, through the saturated
orthogonal complement and an integer solve by Smith normal form, and the
integer kernel through the transform V of a Smith normal form.  Primitivity
of a column pair is read off Smith invariants, and the valid glues come from
the general-form search over every pair of subgroups, on the isometries found
from W's element list.  The QR-prime search tests primality first and the
residues by Euler's criterion after.
"""

import itertools
from fractions import Fraction
from functools import cache
from math import gcd

from k3lat import discform
from k3lat import matrices as mx
from k3lat.discform import FiniteSubgroup, SubgroupMap, discriminant_data, discriminant_form
from k3lat.errors import InvalidInputError, LatticeError, ScanCeilingError
from k3lat.intlat import IntegralLattice, orthogonal_complement, rank_one
from k3lat.modarith import is_prime
from k3lat.nikulin import GluingData


def elements(form):
    """Every element of a discriminant form, in lexicographic order."""
    return list(itertools.product(*(range(o) for o in form.orders)))


def zero(form):
    """The identity element of a discriminant form."""
    return (0,) * form.ngens


def add(form, x, y):
    """x + y in a discriminant form, coordinatewise modulo the generator orders."""
    return tuple((a + b) % o for a, b, o in zip(x, y, form.orders, strict=True))


def closure(form, gens):
    """Element set generated by gens, by closure under addition."""
    seen = {zero(form)}
    frontier = [zero(form)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add(form, x, form.reduce(g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def subgroup_elements(sub):
    """Every element of a subgroup, sorted."""
    return tuple(sorted(closure(sub.ambient, sub.gens)))


@cache
def _coordinate_table(sub):
    """Each sum c_i * structure_gens[i] over the box prod [0, invariant_factors[i]),
    mapped to the first c that reaches it."""
    form = sub.ambient
    table = {}
    for c in itertools.product(*(range(s) for s in sub.invariant_factors)):
        total = zero(form)
        for ci, g in zip(c, sub.structure_gens):
            total = add(form, total, form.scale(ci, g))
        table.setdefault(total, c)
    return table


def coordinates(sub, x):
    """The first c in the box prod [0, invariant_factors[i]) with
    x = sum c_i * structure_gens[i], by a scan of the box; None when there is none."""
    return _coordinate_table(sub).get(sub.ambient.reduce(x))


def solve_fraction(a, b):
    """Unique rational solution of a*x = b for square nonsingular a, by
    Gauss-Jordan elimination over Fractions."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def smith_invariants(m):
    """Nonzero diagonal entries of the Smith normal form of m: its invariant
    factors d1 | d2 | ..., one for each unit of rank."""
    _, s, _ = mx.smith_normal_form(m)
    return tuple(s[i][i] for i in range(min(mx.shape(s))) if s[i][i])


def solve_integer(a, b):
    """One integer solution x of a*x = b, or None when unsolvable, read off
    the Smith normal form U*a*V = S."""
    rows, cols = mx.shape(a)
    if len(b) != rows:
        raise ValueError("dimension mismatch in solve_integer")
    u, s, v = mx.smith_normal_form(a)
    c = mx.mat_vec(u, b)
    y = [0] * cols
    for i in range(rows):
        d = s[i][i] if i < min(rows, cols) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return mx.mat_vec(v, tuple(y))


def kernel_basis_smith(m):
    """Canonical kernel basis (as columns) read off the Smith normal form
    U*m*V = S: the columns of V past the nonzero diagonal span the kernel,
    and their row HNF makes the basis canonical."""
    rows, cols = mx.shape(m)
    _, s, v = mx.smith_normal_form(m)
    nonzero = min(rows, cols)
    free = [j for j in range(cols) if j >= nonzero or s[j][j] == 0]
    gens = [tuple(v[i][j] for i in range(cols)) for j in free]
    if not gens:
        return tuple(() for _ in range(cols))
    return mx.transpose(mx.hermite_row_form(mx.freeze(gens)))


def is_primitive_pair_smith(matrix):
    """True when the two columns of `matrix` span a primitive rank-2
    sublattice: both Smith invariants exist and equal 1."""
    invariants = smith_invariants(matrix)
    return len(invariants) == 2 and all(x == 1 for x in invariants)


def quotient_by_isotropic_hnf(lattice, v):
    """v_perp / Z*v for primitive isotropic v in a nondegenerate lattice, by
    the saturated complement: solve for v in the complement's basis, complete
    those coordinates to a unimodular basis of it and drop the first column."""
    v = tuple(v)
    assert gcd(*v) == 1 and lattice.norm(v) == 0
    perp = orthogonal_complement(lattice, [v])
    coords = solve_integer(perp.matrix, v)
    assert coords is not None
    t = mx.complete_primitive_column(coords)
    rest = mx.mat_mul(perp.matrix, t)
    cols = [
        tuple(rest[i][j] for i in range(lattice.rank))
        for j in range(1, perp.source.rank)
    ]
    return IntegralLattice(tuple(tuple(lattice.pairing(x, y) for y in cols) for x in cols))


def dual_pairing(gram, z, w):
    """<G^-1 z, G^-1 w> = z . G^-1 w, the pairing of the dual vectors whose
    pairing vectors with the lattice basis are z and w."""
    return sum(a * b for a, b in zip(z, solve_fraction(gram, w)))


def value(form, numerator):
    """A form value held as a numerator over the form's level, as a Fraction."""
    return Fraction(numerator, form.level)


def matches_reference(q_val, two_t):
    """True when some unit multiple lambda^2 * q_val (a Fraction) hits 1/(2t)."""
    target = Fraction(1, two_t)
    for lam in range(1, two_t + 1):
        if gcd(lam, two_t) != 1:
            continue
        if (lam * lam * q_val) % 2 == target:
            return True
    return False


def all_subgroups(form):
    """Every subgroup, by closing combinations of elements; sorted by gens.

    A subgroup of a group on k cyclic generators is generated by k elements,
    so it is a sum of at most k cyclic subgroups: close each element, then add
    one cyclic subgroup at a time.
    """
    cyclic = {}
    for x in elements(form):
        sub = FiniteSubgroup.generated_by(form, [x])
        cyclic.setdefault(sub.gens, sub)
    found, level = dict(cyclic), cyclic
    for _ in range(form.ngens - 1):
        nxt = {}
        for h in level.values():
            for c in cyclic.values():
                sub = FiniteSubgroup.generated_by(form, h.gens + c.gens)
                nxt.setdefault(sub.gens, sub)
        found.update(nxt)
        level = nxt
    return [found[key] for key in sorted(found)]


def subgroup_isometries(v, w):
    """Form isometries V -> W, with each generator's candidate images drawn from
    W's element list; sorted by images."""
    if v.invariant_factors != w.invariant_factors:
        return []
    members = subgroup_elements(w)
    candidates = [
        [x for x in members if not any(w.ambient.scale(s, x))] for s in v.invariant_factors
    ]
    maps = (SubgroupMap(v, w, images) for images in itertools.product(*candidates))
    return [g for g in maps if g.is_bijective and g.preserves_q]


def q_generator(glue):
    """(x0, y0 in [1, 2n]) of the first element of the sorted perp listing that
    generates the glue quotient with q = 1/(2t); None when none does."""
    res = glue.quotient_result
    two_t = 2 * glue.t
    k = glue.source_form.ngens
    for elem in subgroup_elements(res.gamma_perp):
        cls = res.project(elem)
        if len(cls) != 1 or gcd(cls[0], two_t) != 1:
            continue
        if value(res.product, res.product.q_of(elem)) == Fraction(1, two_t):
            return elem[:k], (elem[k] or 2 * glue.ambient_n)
    return None


def extract_glue(emb):
    """The glue of a primitive embedding into <2n> + U, extracted afresh with
    nothing memoised: V is the perp of the source glue, then W, gamma and a
    new `GluingData`."""
    src_data = discriminant_data(emb.source)
    amb_data = discriminant_data(emb.target)
    pairings = mx.mat_mul(emb.target.gram, emb.matrix)
    source_glue = FiniteSubgroup.generated_by(
        src_data.form, [src_data.class_of(row) for row in pairings]
    )
    v_group = source_glue.perp()
    level = src_data.form.level
    images = []
    for g in v_group.structure_gens:
        pushed = mx.mat_vec(pairings, src_data.dual_representative(g))
        assert not any(z % level for z in pushed)
        images.append(amb_data.class_of(tuple(z // level for z in pushed)))
    w_group = FiniteSubgroup.generated_by(amb_data.form, images)
    gamma = SubgroupMap(v_group, w_group, tuple(images))
    assert gamma.is_bijective and gamma.preserves_q
    return GluingData(gamma)


def enumerate_valid_glues_generic(source, n):
    """Every valid glue of `source` into <2n> + U by the general-form search:
    each subgroup V of A_S against every subgroup W of Z/2n of its order,
    through the listing `subgroup_isometries` above."""
    a_src = discriminant_form(source)
    a_amb = discriminant_form(rank_one(2 * n))
    w_groups = discform.all_subgroups(a_amb)
    out = []
    for v in discform.all_subgroups(a_src):
        for w in w_groups:
            if v.order != w.order:
                continue
            for gamma in subgroup_isometries(v, w):
                try:
                    out.append(GluingData(gamma))
                except LatticeError:
                    pass
    return out


def prime_search_bpsw_first(constraint, minimum, count, scan_ceiling=None):
    """First `count` primes p >= minimum with p = 1 mod 8 and (x|p) = 1 for
    every constraint value x: each candidate is tested for primality (BPSW)
    first, then each x by Euler's criterion x^((p-1)/2) = 1 mod p."""
    if count < 1:
        raise InvalidInputError("count must be at least 1")
    out = []
    start = max(minimum, 3)
    p = start + ((1 - start) % 8)
    while len(out) < count:
        if scan_ceiling is not None and p > scan_ceiling:
            raise ScanCeilingError(
                f"no further primes below the scan ceiling {scan_ceiling}; found {out}"
            )
        if is_prime(p) and all(pow(x, (p - 1) // 2, p) == 1 for x in constraint.values):
            out.append(p)
        p += 8
    return out
