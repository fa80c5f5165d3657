import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from k3lat import matrices as mx
from k3lat.discform import (
    DiscriminantForm,
    FiniteSubgroup,
    SubgroupMap,
    all_subgroups,
    discriminant_data,
    discriminant_form,
    glue_perp_quotient,
)
from k3lat.errors import LatticeError, OddLatticeError
from k3lat.intlat import IntegralLattice, polarization_lattice, rank_one

import oracles

U = IntegralLattice(((0, 1), (1, 0)))


def test_discriminant_form_rank_one():
    for n in (1, 2, 3, 5):
        a = discriminant_form(rank_one(2 * n))
        assert a.orders == (2 * n,)
        assert a.level == 2 * n
        assert a.q == (1,)


def test_discriminant_form_hyperbolic_and_diag22():
    assert discriminant_form(U).orders == ()

    a = discriminant_form(IntegralLattice(((2, 0), (0, 2))))
    assert a.orders == (2, 2)
    assert a.level == 2
    assert set(a.q) == {1}
    assert a.b[0][1] == 0


def test_discriminant_form_errors():
    with pytest.raises(OddLatticeError):
        discriminant_form(IntegralLattice(((1,),)))
    with pytest.raises(LatticeError):
        discriminant_form(IntegralLattice(((2, 0), (0, 0))))


def test_q_value_examples():
    a = discriminant_form(rank_one(10))
    # Numerators over the level 10: q(1) = 1/10, q(3) = 9/10.
    assert a.q_of((1,)) == 1
    assert a.q_of((0,)) == 0
    assert a.q_of((3,)) == 9


def test_group_order_matches_det():
    for lattice in (
        rank_one(4),
        rank_one(12),
        IntegralLattice(((2, 1), (1, 2))),
        IntegralLattice(((4, 1), (1, 4))),
        polarization_lattice(3),
    ):
        a = discriminant_form(lattice)
        assert a.order == lattice.disc_abs


def test_polarization_identity_exhaustive():
    # q(x + y) - q(x) - q(y) = 2 b(x, y) mod 2 on groups of order <= 200.
    lattices = [
        rank_one(2),
        rank_one(10),
        rank_one(14),
        IntegralLattice(((2, 0), (0, 8))),
        IntegralLattice(((4, 1), (1, 4))),
        IntegralLattice(((6, 2), (2, 6))),
        IntegralLattice(((2, 1, 0), (1, 2, 1), (0, 1, 4))),
    ]
    for lattice in lattices:
        a = discriminant_form(lattice)
        assert a.order <= 200
        elems = oracles.elements(a)
        two_n = 2 * a.level
        for x, y in itertools.product(elems, repeat=2):
            lhs = (a.q_of(oracles.add(a, x, y)) - a.q_of(x) - a.q_of(y)) % two_n
            assert lhs == (2 * a.b_of(x, y)) % two_n


def _scaled_pairing(data, scaled):
    """Pairing vector G*x of the dual vector x = scaled / level; None when x is
    not in the dual lattice."""
    z = mx.mat_vec(data.lattice.gram, scaled)
    if any(v % data.form.level for v in z):
        return None
    return tuple(v // data.form.level for v in z)


def test_class_of_and_dual_representative_roundtrip():
    lattice = IntegralLattice(((2, 0), (0, 8)))
    data = discriminant_data(lattice)
    assert data.form.level == 8
    for x in oracles.elements(data.form):
        rep = data.dual_representative(x)
        z = _scaled_pairing(data, rep)
        assert z is not None
        assert data.class_of(z) == x
    # Lattice vectors, whose pairing vectors are the Gram rows, are in class 0.
    for row in lattice.gram:
        assert data.class_of(row) == oracles.zero(data.form)


def test_subgroup_structure():
    a = discriminant_form(IntegralLattice(((2, 0), (0, 8))))
    full = FiniteSubgroup.full(a)
    assert full.order == 16
    assert full.invariant_factors == (2, 8)
    sub = FiniteSubgroup.generated_by(a, [(1, 4)])
    assert sub.order == 2
    assert (1, 4) in sub
    assert (0, 4) not in sub


def _random_even_lattice(rng, max_rank=3, max_disc=200):
    """A random even nondegenerate lattice with 2 <= |disc| <= max_disc."""
    while True:
        n = rng.randint(1, max_rank)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.randint(-6, 6)
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-4, 4)
        lattice = IntegralLattice(tuple(map(tuple, gram)))
        if 2 <= lattice.disc_abs <= max_disc:
            return lattice


def test_dual_gens_property():
    # dual_gens[i] is level * x_i: x_i lies in L^*, s_i * x_i lies in L, x_i is
    # its own unit class, and the form values are the rational pairings of the x_i.
    rng = random.Random(11)
    for _ in range(60):
        lattice = _random_even_lattice(rng, max_rank=4, max_disc=400)
        data = discriminant_data(lattice)
        form = data.form
        k = form.ngens
        assert form.level == max(form.orders, default=1) == lcm(*form.orders)
        for i, gen in enumerate(data.dual_gens):
            z = _scaled_pairing(data, gen)
            assert z is not None
            assert all(form.orders[i] * x % form.level == 0 for x in gen)
            assert data.class_of(z) == tuple(1 if j == i else 0 for j in range(k))
            for j, other in enumerate(data.dual_gens):
                value = Fraction(sum(a * b for a, b in zip(gen, mx.mat_vec(lattice.gram, other))))
                value /= form.level**2
                assert value % 1 == oracles.value(form, form.b[i][j])
                if i == j:
                    assert value % 2 == oracles.value(form, form.q[i])


def test_form_values_match_dual_vector_oracle():
    # q_of, b_of and product_with_negated against z . G^-1 . w in Fractions,
    # for the dual vectors of random pairing vectors z and w, on pairs of
    # lattices whose levels often differ.
    rng = random.Random(23)
    levels_differ = 0
    for _ in range(40):
        l1 = _random_even_lattice(rng)
        l2 = _random_even_lattice(rng, max_rank=2, max_disc=24)
        d1, d2 = discriminant_data(l1), discriminant_data(l2)
        product = d1.form.product_with_negated(d2.form)
        assert product.level == lcm(d1.form.level, d2.form.level)
        levels_differ += d1.form.level != d2.form.level
        for _ in range(5):
            z1, w1 = ([rng.randint(-9, 9) for _ in range(l1.rank)] for _ in range(2))
            z2, w2 = ([rng.randint(-9, 9) for _ in range(l2.rank)] for _ in range(2))
            x1, y1 = d1.class_of(z1), d1.class_of(w1)
            x2, y2 = d2.class_of(z2), d2.class_of(w2)
            q1, q2 = oracles.dual_pairing(l1.gram, z1, z1), oracles.dual_pairing(l2.gram, z2, z2)
            b1, b2 = oracles.dual_pairing(l1.gram, z1, w1), oracles.dual_pairing(l2.gram, z2, w2)
            assert oracles.value(d1.form, d1.form.q_of(x1)) == q1 % 2
            assert oracles.value(d1.form, d1.form.b_of(x1, y1)) == b1 % 1
            assert oracles.value(product, product.q_of(x1 + x2)) == (q1 - q2) % 2
            assert oracles.value(product, product.b_of(x1 + x2, y1 + y2)) == (b1 - b2) % 1
    assert levels_differ > 10


def test_element_order_matches_repeated_addition():
    rng = random.Random(12)
    for _ in range(8):
        form = discriminant_form(_random_even_lattice(rng))
        for x in oracles.elements(form):
            n, cur = 1, x
            while any(cur):
                cur = oracles.add(form, cur, x)
                n += 1
            assert form.element_order(x) == n


def test_subgroup_structure_oracle():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        form = discriminant_form(_random_even_lattice(rng))
        elems = oracles.elements(form)
        gens = [rng.choice(elems) for _ in range(rng.randint(1, 3))]
        sub = FiniteSubgroup.generated_by(form, gens)
        order = 1
        for d in sub.invariant_factors:
            order *= d
        members = oracles.closure(form, gens)
        assert order == len(members)
        assert oracles.closure(form, sub.gens) == members
        assert oracles.closure(form, sub.structure_gens) == members
        checked += 1


def test_relation_lattice_oracle():
    # perp, order and membership come from the relation lattice; enumeration checks them.
    rng = random.Random(13)
    for trial in range(40):
        form = discriminant_form(_random_even_lattice(rng))
        if trial % 2:
            # A product form: generator orders that need not divide one another.
            other = discriminant_form(_random_even_lattice(rng, max_disc=24))
            form = form.product_with_negated(other)
            if form.order > 2000:
                continue
        elems = oracles.elements(form)
        gens = [rng.choice(elems) for _ in range(rng.randint(0, 3))]
        sub = FiniteSubgroup.generated_by(form, gens)
        members = oracles.closure(form, gens)
        assert sub.order == len(members)
        assert all((x in sub) == (x in members) for x in elems)
        expected = {x for x in elems if all(form.b_of(x, g) == 0 for g in gens)}
        perp = sub.perp()
        assert oracles.closure(form, perp.gens) == expected
        assert perp.order == len(expected)


def test_subgroup_isometries_examples():
    trivial_l = discriminant_form(U)
    t = FiniteSubgroup.generated_by(trivial_l, ())
    maps = oracles.subgroup_isometries(t, t)
    assert len(maps) == 1

    a2 = discriminant_form(rank_one(2))     # Z/2 with q(1) = 1/2
    am2 = discriminant_form(rank_one(-2))   # Z/2 with q(1) = 3/2
    v = FiniteSubgroup.full(a2)
    assert len(oracles.subgroup_isometries(v, v)) == 1
    assert oracles.subgroup_isometries(v, FiniteSubgroup.full(am2)) == []


def test_subgroup_map_generator_checks():
    # (1,) has order 8 in A_<8> and lies outside W = <(4,)>, though |V| = |W| = 2.
    v = FiniteSubgroup.full(discriminant_form(rank_one(2)))
    w = FiniteSubgroup.generated_by(discriminant_form(rank_one(8)), [(4,)])
    assert not SubgroupMap(v, w, ((1,),)).is_bijective
    assert SubgroupMap(v, w, ((4,),)).is_bijective

    # Z/2 + Z/4 -> Z/8 sending the generators to 1 and 2: onto, equal orders,
    # but 2 * 1 != 0 in Z/8, so no homomorphism has these images.
    v = FiniteSubgroup.full(discriminant_form(IntegralLattice(((2, 0), (0, 4)))))
    w = FiniteSubgroup.full(discriminant_form(rank_one(8)))
    assert v.invariant_factors == (2, 4)
    assert not SubgroupMap(v, w, ((1,), (2,))).is_bijective

    # q agrees on both generators of (Z/2)^2, b does not on the pair: q(e1 + e2) is 1 vs 0.
    # Numerators over the level 2: every value is 1/2.
    tilted = DiscriminantForm((2, 2), (1, 1), ((1, 1), (1, 1)))
    v = FiniteSubgroup.full(discriminant_form(IntegralLattice(((2, 0), (0, 2)))))
    gamma = SubgroupMap(v, FiniteSubgroup.full(tilted), ((1, 0), (0, 1)))
    assert gamma.is_bijective
    assert not gamma.preserves_q


def test_subgroup_map_oracle():
    # Generator checks against the map on every coefficient tuple c in prod range(2 s_i):
    # two tuples naming one source element must agree, which tests well-definedness.
    rng = random.Random(17)
    seen = set()
    for _ in range(150):
        a = discriminant_form(_random_even_lattice(rng, max_disc=48))
        b = a if rng.random() < 0.5 else discriminant_form(_random_even_lattice(rng, max_disc=48))
        a_elems, b_elems = oracles.elements(a), oracles.elements(b)
        v = FiniteSubgroup.generated_by(a, [rng.choice(a_elems) for _ in range(rng.randint(1, 2))])
        same = [s for s in all_subgroups(b) if s.order == v.order]
        w = rng.choice(same) if same else FiniteSubgroup.generated_by(b, [rng.choice(b_elems)])
        w_elems = oracles.subgroup_elements(w)
        images = tuple(
            rng.choice(w_elems if rng.random() < 0.7 else b_elems) for _ in v.structure_gens
        )
        gamma = SubgroupMap(v, w, images)
        graph = {}
        well_defined = True
        for c in itertools.product(*(range(2 * s) for s in v.invariant_factors)):
            x, y = oracles.zero(a), oracles.zero(b)
            for ci, g, img in zip(c, v.structure_gens, images):
                x = oracles.add(a, x, a.scale(ci, g))
                y = oracles.add(b, y, b.scale(ci, img))
            well_defined &= graph.setdefault(x, y) == y
        image = set(graph.values())
        expected = (
            well_defined
            and image == set(w_elems)
            and len(image) == v.order
            and all(
                oracles.value(b, b.q_of(y)) == oracles.value(a, a.q_of(x))
                for x, y in graph.items()
            )
        )
        assert (gamma.is_bijective and gamma.preserves_q) == expected
        seen.add(expected)
    assert seen == {True, False}


def test_glue_trivial():
    a = discriminant_form(IntegralLattice(((2, 0), (0, 2))))
    b = discriminant_form(rank_one(2))
    trivial_a, trivial_b = FiniteSubgroup.generated_by(a, ()), FiniteSubgroup.generated_by(b, ())
    gamma = oracles.subgroup_isometries(trivial_a, trivial_b)[0]
    res = glue_perp_quotient(gamma)
    assert res.gamma.order == 1
    assert res.gamma_perp.order == a.order * b.order
    assert res.quotient.order == a.order * b.order
    # q_src + (-q_amb) on the generators of the full product: 1/2, 1/2, 3/2.
    assert res.product.level == 2
    assert res.product.q == (1, 1, 3)


def test_glue_diag22_into_degree2():
    # The primitive embedding of diag(2,2) into <2> + U glues to Z/2 with q = 1/2.
    a_src = discriminant_form(IntegralLattice(((2, 0), (0, 2))))
    a_amb = discriminant_form(rank_one(2))
    v = FiniteSubgroup.generated_by(a_src, [(0, 1)])
    w = FiniteSubgroup.full(a_amb)
    isos = oracles.subgroup_isometries(v, w)
    assert len(isos) == 1
    res = glue_perp_quotient(isos[0])
    assert res.quotient.orders == (2,)
    assert res.quotient.q == (1,)  # q = 1/2 over the level 2


def _glue_cases():
    a_src = discriminant_form(IntegralLattice(((2, 0), (0, 2))))
    a_amb = discriminant_form(rank_one(2))
    v = FiniteSubgroup.generated_by(a_src, [(1, 0)])
    t = FiniteSubgroup.generated_by(a_src, ())
    return [
        (a_src, a_amb, oracles.subgroup_isometries(v, FiniteSubgroup.full(a_amb))[0]),
        (a_src, a_amb, oracles.subgroup_isometries(t, FiniteSubgroup.generated_by(a_amb, ()))[0]),
    ]


def test_glue_counting_identity():
    # |quotient| * |graph|^2 = |A_src| * |A_amb| for nondegenerate ambient pairing.
    for src, amb, gamma in _glue_cases():
        res = glue_perp_quotient(gamma)
        assert res.quotient.order * res.gamma.order**2 == src.order * amb.order


def test_glue_project():
    a_src = discriminant_form(IntegralLattice(((2, 0), (0, 2))))
    a_amb = discriminant_form(rank_one(2))
    v = FiniteSubgroup.generated_by(a_src, [(0, 1)])
    gamma = oracles.subgroup_isometries(v, FiniteSubgroup.full(a_amb))[0]
    res = glue_perp_quotient(gamma)
    # Graph elements project to zero; a generator rep projects to a generator.
    for x in oracles.subgroup_elements(res.gamma):
        assert res.project(x) == (0,)
    rep = res.reps[0]
    assert res.project(rep) == (1,)
    assert oracles.value(res.quotient, res.quotient.q_of(res.project(rep))) == oracles.value(
        res.product, res.product.q_of(rep)
    )

    # On every glue case, project is a surjective homomorphism with kernel gamma.
    for _, _, gamma in _glue_cases():
        res = glue_perp_quotient(gamma)
        perp = oracles.subgroup_elements(res.gamma_perp)
        zero = oracles.zero(res.quotient)
        for x in perp:
            assert (res.project(x) == zero) == (x in res.gamma)
            for y in perp:
                expected = oracles.add(res.quotient, res.project(x), res.project(y))
                assert res.project(oracles.add(res.product, x, y)) == expected
        assert {res.project(x) for x in perp} == set(oracles.elements(res.quotient))


def test_all_subgroups():
    a = discriminant_form(IntegralLattice(((2, 0), (0, 2))))
    subs = all_subgroups(a)
    # (Z/2)^2 has 5 subgroups: 1, three Z/2, full.
    assert len(subs) == 5
    orders = sorted(s.order for s in subs)
    assert orders == [1, 2, 2, 2, 4]

    c6 = discriminant_form(rank_one(6))
    assert sorted(s.order for s in all_subgroups(c6)) == [1, 2, 3, 6]


def test_all_subgroups_match_combination_oracle():
    # Discriminant forms, and product forms whose generator orders need not
    # divide one another, of order up to 600.
    rng = random.Random(19)
    checked = 0
    while checked < 40:
        form = discriminant_form(_random_even_lattice(rng, max_disc=600))
        if rng.random() < 0.5:
            other = discriminant_form(_random_even_lattice(rng, max_rank=2, max_disc=24))
            form = form.product_with_negated(other)
        if form.order > 600:
            continue
        expected = [s.gens for s in oracles.all_subgroups(form)]
        assert [s.gens for s in all_subgroups(form)] == expected
        checked += 1


def _divisors(k):
    return [a for a in range(1, k + 1) if k % a == 0]


@pytest.mark.parametrize(
    "m, n, count", [(4, 24, 44), (24, 24, 222), (12, 36, 150), (16, 16, 83), (60, 60, 720)]
)
def test_all_subgroups_count_is_gcd_sum(m, n, count):
    # Z/m x Z/n has sum over a | m, b | n of gcd(a, b) subgroups
    # (Hampejs, Holighaus, Toth, Wiesmeyr 2014).
    form = discriminant_form(IntegralLattice(((m, 0), (0, n))))
    assert form.orders == (m, n)
    assert sum(gcd(a, b) for a in _divisors(m) for b in _divisors(n)) == count
    subs = all_subgroups(form)
    assert len(subs) == len({s.gens for s in subs}) == count
