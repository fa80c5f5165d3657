from fractions import Fraction
from math import gcd

import pytest

from k3lat.errors import InadmissibleError, LatticeError
from k3lat.intlat import IntegralLattice, polarization_lattice, sublattice
from k3lat.discform import SIZE_LIMIT
from k3lat.nikulin import (
    _divisor_pairs,
    admissible_m,
    brute_force_embeddings,
    embedding_to_glue,
    enumerate_valid_glues,
    extend_glue,
    extension_constants,
    realize_embedding,
)

DIAG22 = IntegralLattice(((2, 0), (0, 2)))
DIAG24 = IntegralLattice(((2, 0), (0, 4)))


def seed_embedding(d):
    # diag(2, 2d) inside <2d> + U via (f+g, e).
    lam = polarization_lattice(d)
    return sublattice(lam, [(0, 1, 1), (1, 0, 0)])


def test_embedding_to_glue_diag22():
    glue = embedding_to_glue(seed_embedding(1))
    assert glue.t == 1
    assert glue.v_group.order == 2
    assert glue.w_group.order == 2
    glue.validate()
    # The quotient generator has q = lambda^2 / (2t) for a unit lambda: the
    # positive normalization, not only +-1/(2t).
    q = glue.quotient_result.quotient
    two_t = 2 * glue.t
    assert q.orders == (two_t,)
    assert q.q[0] in {
        Fraction(lam * lam, two_t) % 2 for lam in range(1, two_t + 1) if gcd(lam, two_t) == 1
    }


def test_embedding_to_glue_general_degree_complement():
    # The (f+g, e) seed has complement f-g of norm -2 for every d, hence t = 1,
    # and the glue subgroups have order 2d.
    for d in (1, 2, 3, 5):
        glue = embedding_to_glue(seed_embedding(d))
        assert glue.t == 1
        assert glue.v_group.order == 2 * d
        glue.validate()


def test_embedding_to_glue_errors():
    lam2 = polarization_lattice(1)
    non_primitive = sublattice(lam2, [(0, 2, 2), (1, 0, 0)])
    with pytest.raises(LatticeError):
        embedding_to_glue(non_primitive)
    # Wrong signature: a rank-2 sublattice that is not positive definite.
    indefinite = sublattice(lam2, [(0, 1, 0), (0, 0, 1)])
    with pytest.raises(LatticeError):
        embedding_to_glue(indefinite)


def test_extension_constants():
    glue = embedding_to_glue(seed_embedding(1))
    consts = extension_constants(glue, 1)
    assert (consts.modulus, consts.a, consts.b) == (4, -1, 1)

    ok, _ = admissible_m(glue, 1, 5)
    assert ok
    ok, reasons = admissible_m(glue, 1, 3)
    assert not ok and any("-1" in r for r in reasons)
    ok, reasons = admissible_m(glue, 1, 9)
    assert not ok


def test_admissible_first_primes():
    expected = {1: [5, 13, 17], 2: [17, 41, 73], 3: [13, 37, 61]}
    for d, primes in expected.items():
        glue = embedding_to_glue(seed_embedding(d))
        found = []
        m = 2
        while len(found) < 3:
            ok, _ = admissible_m(glue, d, m)
            if ok:
                found.append(m)
            m += 1
        assert found == primes


def test_extend_glue_worked_example():
    glue = embedding_to_glue(seed_embedding(1))
    extended, cert = extend_glue(glue, 1, 5)
    assert extended.t == 5
    assert extended.ambient_n == 5
    assert cert.m == 5
    assert cert.new_t == 5
    assert cert.lam % 4 == 1
    assert (cert.lam**2 * glue.t * cert.y0**2 + 1) % 5 == 0
    extended.validate()
    # The extended quotient is cyclic of order 2tm = 10.
    assert extended.quotient_result.quotient.orders == (10,)


def test_extend_glue_identity_and_failure():
    glue = embedding_to_glue(seed_embedding(1))
    same, cert = extend_glue(glue, 1, 1)
    assert same is glue
    assert cert.lam == 1
    with pytest.raises(InadmissibleError):
        extend_glue(glue, 1, 3)


def test_extend_glue_chained():
    # Extend the t = 5 glue for <10> + U once more with d = 5, m = 101.
    lam10 = polarization_lattice(5)
    emb = sublattice(lam10, [(0, 1, 1), (1, 2, -2)])
    glue = embedding_to_glue(emb)
    assert glue.t == 5
    ok, _ = admissible_m(glue, 5, 101)
    assert ok
    extended, cert = extend_glue(glue, 5, 101)
    assert extended.t == 505
    assert extended.ambient_n == 505


def test_extend_glue_past_enumeration_limit():
    # The product group A_src + A_amb of the extended glue has order 8m = 71528.
    glue = embedding_to_glue(seed_embedding(1))
    extended, cert = extend_glue(glue, 1, 8941)
    assert extended.quotient_result.product.order == 8 * 8941 > SIZE_LIMIT
    assert extended.t == cert.new_t == 8941
    assert extended.quotient_result.quotient.orders == (2 * 8941,)
    extended.validate()


def test_divisor_pairs_matches_full_scan():
    for p in range(-5000, 5001):
        if p == 0:
            continue
        expected = []
        for d in range(1, abs(p) + 1):
            if p % d == 0:
                expected += [(d, p // d), (-d, -(p // d))]
        assert list(_divisor_pairs(p, 3)) == expected


def test_realize_embedding_examples():
    glue5 = embedding_to_glue(sublattice(polarization_lattice(5), [(0, 1, 1), (1, 2, -2)]))
    res = realize_embedding(DIAG22, 5, glue5, 8)
    assert res.found
    assert res.embedding.columns() == [(0, 1, 1), (1, 2, -2)]

    glue1 = embedding_to_glue(seed_embedding(1))
    res1 = realize_embedding(DIAG22, 1, glue1, 8)
    assert res1.found
    assert res1.embedding.columns() == [(0, 1, 1), (1, 0, 0)]

    res0 = realize_embedding(DIAG22, 5, glue5, 0)
    assert res0.status == "certificate_only"
    assert res0.embedding is None


def test_realize_via_extension_pipeline():
    glue = embedding_to_glue(seed_embedding(1))
    extended, _ = extend_glue(glue, 1, 5)
    res = realize_embedding(DIAG22, 5, extended, 8)
    assert res.found
    emb = res.embedding
    # Exact isometric, primitive image.
    assert emb.source.gram == DIAG22.gram
    assert embedding_to_glue(emb).t == 5


def test_realize_needs_divisor_branch():
    # d = 2, m = 17: there is no witness with first column (0, 1, 1); the
    # divisor branch finds one with larger hyperbolic coordinates.
    glue = embedding_to_glue(seed_embedding(2))
    extended, _ = extend_glue(glue, 2, 17)
    res = realize_embedding(DIAG24, 34, extended, 12)
    assert res.found
    cols = res.embedding.columns()
    assert cols[0] != (0, 1, 1)
    assert embedding_to_glue(res.embedding).t == 17


def test_realize_non_diagonal_source():
    # Source Gram ((2,1),(1,2)) embeds into <2> + U via (0,1,1),(1,0,1); the
    # witness scan must handle the off-diagonal pairing constraint.
    source = IntegralLattice(((2, 1), (1, 2)))
    emb = sublattice(polarization_lattice(1), [(0, 1, 1), (1, 0, 1)])
    glue = embedding_to_glue(emb)
    res = realize_embedding(source, 1, glue, 8)
    assert res.found
    found = res.embedding
    assert found.source.gram == source.gram
    assert embedding_to_glue(found).t == glue.t


def test_extend_glue_deterministic():
    glue = embedding_to_glue(seed_embedding(1))
    first = extend_glue(glue, 1, 13)
    second = extend_glue(glue, 1, 13)
    assert first[1] == second[1]
    assert first[0].gamma.images == second[0].gamma.images
    assert first[0].t == second[0].t


def test_round_trip_small():
    # Brute-force embeddings for a few (source, n); glue extraction always
    # validates, and every valid glue's t is hit by some brute-force witness.
    for source, ns in ((DIAG22, (1, 2, 5)), (DIAG24, (1, 3))):
        for n in ns:
            embeddings = brute_force_embeddings(source, n, 12)
            ts = set()
            for emb in embeddings:
                glue = embedding_to_glue(emb)
                glue.validate()
                ts.add(glue.t)
            glues = enumerate_valid_glues(source, n)
            for glue in glues:
                assert glue.t in ts
            if embeddings:
                assert {g.t for g in glues} == ts
