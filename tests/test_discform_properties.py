"""Relation-lattice order, membership and structure against element listings."""

from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from k3lat.discform import (  # noqa: E402
    FiniteSubgroup,
    all_subgroups,
    discriminant_form,
    glue_perp_quotient,
    subgroup_isometries,
)
from k3lat.intlat import IntegralLattice  # noqa: E402

import oracles  # noqa: E402


# Small even blocks: <2a> and rank-2 forms of |det| 1 (U) to 12.
BLOCKS = tuple(((2 * a,),) for a in range(-6, 7) if a) + (
    ((0, 1), (1, 0)),
    ((2, 1), (1, 2)),
    ((2, 1), (1, -2)),
    ((2, 1), (1, 4)),
    ((4, 2), (2, 4)),
    ((2, 0), (0, -2)),
)


def _disc(block) -> int:
    if len(block) == 1:
        return abs(block[0][0])
    return abs(block[0][0] * block[1][1] - block[0][1] * block[1][0])


@st.composite
def even_lattices(draw, max_rank=3, max_disc=200):
    """An orthogonal sum of BLOCKS with 2 <= |disc| <= max_disc, in a sheared basis."""
    blocks, rank, disc = [], 0, 1
    while True:
        fits = [
            g for g in BLOCKS
            if rank + len(g) <= max_rank and 2 <= disc * _disc(g) <= max_disc
        ]
        if not fits:
            break
        block = draw(st.sampled_from(fits))
        blocks.append(block)
        rank, disc = rank + len(block), disc * _disc(block)
        if not draw(st.booleans()):
            break
    gram = [[0] * rank for _ in range(rank)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            gram[at + i][at : at + len(row)] = row
        at += len(block)
    # Basis change e_i += k * e_j keeps the lattice, and so its discriminant form.
    for _ in range(draw(st.integers(0, 2 * rank))):
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        k = draw(st.integers(-2, 2))
        if i != j:
            gram[i] = [a + k * b for a, b in zip(gram[i], gram[j])]
            for row in gram:
                row[i] += k * row[j]
    return IntegralLattice(tuple(map(tuple, gram)))


@st.composite
def forms(draw):
    """Discriminant forms of even lattices, and product forms whose generator
    orders need not divide one another."""
    form = discriminant_form(draw(even_lattices()))
    if form.order <= 1000 and draw(st.booleans()):
        other = draw(even_lattices(max_disc=min(24, 2000 // form.order)))
        form = form.product_with_negated(discriminant_form(other))
    return form


def elements_of(form):
    return st.tuples(*(st.integers(0, o - 1) for o in form.orders))


@st.composite
def subgroups(draw):
    form = draw(forms())
    gens = draw(st.lists(elements_of(form), max_size=3))
    return FiniteSubgroup.generated_by(form, gens)


@hypothesis.settings(max_examples=60)
@hypothesis.given(subgroups())
def test_order_membership_and_coordinates(sub):
    form = sub.ambient
    members = oracles.closure(form, sub.gens)
    assert sub.order == len(members) == prod(sub.invariant_factors)
    # The structure generators reach exactly the members from the box of
    # coordinates, whose size is the order: each member has one coordinate tuple.
    for x in oracles.elements(form):
        assert (x in sub) == (x in members)
        assert (oracles.coordinates(sub, x) is not None) == (x in members)


@hypothesis.settings(max_examples=40)
@hypothesis.given(st.data())
def test_project_is_quotient_by_graph(data):
    # The _glue_cases of test_discform, widened: an isometry from a subgroup V
    # of a small form onto a subgroup of a second form, or of the same form
    # (where the identity of V always qualifies).
    src = discriminant_form(data.draw(even_lattices(max_rank=2, max_disc=12)))
    same = data.draw(st.booleans())
    amb = src if same else discriminant_form(data.draw(even_lattices(max_rank=2, max_disc=12)))
    v = FiniteSubgroup.generated_by(src, data.draw(st.lists(elements_of(src), min_size=1, max_size=2)))
    isos = [g for w in all_subgroups(amb) for g in subgroup_isometries(v, w)]
    hypothesis.assume(isos)
    res = glue_perp_quotient(data.draw(st.sampled_from(isos)))
    perp = res.gamma_perp
    members = oracles.subgroup_elements(perp)
    zero = res.quotient.zero()
    for x in members:
        assert (res.project(x) == zero) == (x in res.gamma)
        # Additive on x + g for every generator g makes project a homomorphism.
        for g in perp.gens:
            expected = res.quotient.add(res.project(x), res.project(g))
            assert res.project(res.product.add(x, g)) == expected
    assert {res.project(x) for x in members} == set(oracles.elements(res.quotient))
