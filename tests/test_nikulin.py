import itertools
from fractions import Fraction
from functools import cache
from math import gcd

import pytest

from k3lat import matrices as mx
from k3lat import nikulin
from k3lat.cli import run
from k3lat.errors import InadmissibleError, LatticeError
from k3lat.intlat import (
    IntegralLattice,
    orthogonal_complement,
    polarization_lattice,
    rank_one,
    sublattice,
)
from k3lat.discform import FiniteSubgroup, SubgroupMap, discriminant_data, discriminant_form
from k3lat.nikulin import (
    GluingData,
    _divisor_pairs,
    admissible_m,
    brute_force_embeddings,
    embedding_to_glue,
    enumerate_valid_glues,
    extend_glue,
    extension_constants,
    realize_embedding,
)

import oracles

DIAG22 = IntegralLattice(((2, 0), (0, 2)))
DIAG24 = IntegralLattice(((2, 0), (0, 4)))


def seed_embedding(d):
    # diag(2, 2d) inside <2d> + U via (f+g, e).
    lam = polarization_lattice(d)
    return sublattice(lam, [(0, 1, 1), (1, 0, 0)])


def _solve_fraction(a, b):
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


def _class_of_rational(data, x):
    """Class of a rational vector x of the dual lattice, via its pairing vector G*x."""
    z = [sum(Fraction(g) * v for g, v in zip(row, x)) for row in data.lattice.gram]
    assert all(v.denominator == 1 for v in z)
    return data.class_of(tuple(int(v) for v in z))


def _oracle_glue(emb, v_group):
    """Source glue classes and gamma images on v_group's structure generators,
    through the rational splitting of <2n> + U into source + complement."""
    src_data = discriminant_data(emb.source)
    amb_data = discriminant_data(emb.target)
    comp = orthogonal_complement(emb.target, emb.columns())
    basis = [[emb.matrix[i][0], emb.matrix[i][1], comp.matrix[i][0]] for i in range(3)]
    classes = []
    for i in range(3):
        e_i = tuple(1 if r == i else 0 for r in range(3))
        classes.append(_class_of_rational(src_data, _solve_fraction(basis, e_i)[:2]))
    images = []
    for g in v_group.structure_gens:
        dual = [Fraction(v, src_data.level) for v in src_data.dual_representative(g)]
        pushed = [sum(emb.matrix[r][c] * dual[c] for c in range(2)) for r in range(3)]
        images.append(_class_of_rational(amb_data, pushed))
    return classes, tuple(images)


def _assert_matches_oracle(emb):
    glue = embedding_to_glue(emb)
    classes, images = _oracle_glue(emb, glue.gamma.domain)
    src_data = discriminant_data(emb.source)
    pairings = mx.mat_mul(emb.target.gram, emb.matrix)
    assert [src_data.class_of(z) for z in pairings] == classes
    # V is the perp of the source glue, and the perp of a perp is the subgroup.
    assert glue.gamma.domain.perp() == FiniteSubgroup.generated_by(src_data.form, classes)
    assert glue.gamma.images == images


def test_glue_extraction_matches_rational_oracle_on_seeds():
    for d in range(1, 6):
        _assert_matches_oracle(seed_embedding(d))


def test_glue_extraction_matches_rational_oracle_on_brute_force():
    sources = (
        DIAG22,
        DIAG24,
        IntegralLattice(((4, 2), (2, 4))),
        IntegralLattice(((2, 1), (1, 4))),
    )
    checked = 0
    for source in sources:
        for n in (1, 2, 3):
            for emb in brute_force_embeddings(source, n, 6):
                _assert_matches_oracle(emb)
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("command", ["embed", "zarhin"])
def test_each_glue_validated_once(monkeypatch, command):
    # The seed glue (2t = 2) and the extended glue (2t = 2554) are each checked once.
    calls = []
    real = nikulin._matches_reference

    def counting(q_val, two_t):
        calls.append(two_t)
        return real(q_val, two_t)

    monkeypatch.setattr(nikulin, "_matches_reference", counting)
    code, _ = run([command, "--d", "1", "--m", "1277"])
    assert code == 0
    assert calls == [2, 2554]


def test_embedding_to_glue_diag22():
    glue = embedding_to_glue(seed_embedding(1))
    assert glue.t == 1
    assert glue.gamma.domain.order == 2
    assert glue.gamma.codomain.order == 2
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
        assert glue.gamma.domain.order == 2 * d
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
    consts = extension_constants(glue)
    assert (consts.modulus, consts.a, consts.b) == (4, -1, 1)

    ok, _ = admissible_m(glue, 5)
    assert ok
    ok, reasons = admissible_m(glue, 3)
    assert not ok and any("-1" in r for r in reasons)
    ok, reasons = admissible_m(glue, 9)
    assert not ok


def test_admissible_first_primes():
    expected = {1: [5, 13, 17], 2: [17, 41, 73], 3: [13, 37, 61]}
    for d, primes in expected.items():
        glue = embedding_to_glue(seed_embedding(d))
        found = []
        m = 2
        while len(found) < 3:
            ok, _ = admissible_m(glue, m)
            if ok:
                found.append(m)
            m += 1
        assert found == primes


def test_extend_glue_worked_example():
    glue = embedding_to_glue(seed_embedding(1))
    extended, cert = extend_glue(glue, 5)
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
    same, cert = extend_glue(glue, 1)
    assert same is glue
    assert cert.lam == 1
    with pytest.raises(InadmissibleError):
        extend_glue(glue, 3)


def test_extend_glue_chained():
    # Extend the t = 5 glue for <10> + U once more with d = 5, m = 101.
    lam10 = polarization_lattice(5)
    emb = sublattice(lam10, [(0, 1, 1), (1, 2, -2)])
    glue = embedding_to_glue(emb)
    assert glue.t == 5
    ok, _ = admissible_m(glue, 101)
    assert ok
    extended, cert = extend_glue(glue, 101)
    assert extended.t == 505
    assert extended.ambient_n == 505


def test_extend_glue_past_enumeration_limit():
    # The product group A_src + A_amb of the extended glue has order 8m = 71528,
    # past the 10^4 elements a listing of it could afford.
    glue = embedding_to_glue(seed_embedding(1))
    extended, cert = extend_glue(glue, 8941)
    assert extended.quotient_result.product.order == 8 * 8941
    assert extended.t == cert.new_t == 8941
    assert extended.quotient_result.quotient.orders == (2 * 8941,)
    extended.validate()


def test_q_generator_matches_perp_listing_on_seeds():
    for d in range(1, 61):
        glue = embedding_to_glue(seed_embedding(d))
        assert glue._q_generator == oracles.q_generator(glue)


def test_q_generator_matches_perp_listing_on_extended_glues():
    checked = 0
    for d in range(1, 5):
        glue = embedding_to_glue(seed_embedding(d))
        for m in range(5, 400):
            if not admissible_m(glue, m)[0]:
                continue
            extended, _ = extend_glue(glue, m)
            assert extended._q_generator == oracles.q_generator(extended)
            checked += 1
    assert checked > 30


def test_glue_validity_rejects_negative_target():
    # ((2,3),(3,2)) is indefinite; with trivial V and W into <2> + U its glue
    # quotient is Z/10 with q = 19/10 = -1/10, which no unit square carries to 1/10.
    a_src = discriminant_form(IntegralLattice(((2, 3), (3, 2))))
    trivial = FiniteSubgroup.trivial(a_src)
    w = FiniteSubgroup.trivial(discriminant_form(rank_one(2)))
    glue = GluingData(SubgroupMap(trivial, w, ()))
    q = glue.quotient_result.quotient
    assert (q.orders, q.q) == ((10,), (Fraction(19, 10),))
    assert not glue.is_valid()
    with pytest.raises(LatticeError):
        glue.validate()


def test_glue_t_needs_a_cyclic_quotient():
    # diag(2,2) with trivial V and W into <2> + U leaves the whole product
    # (Z/2)^3 as the quotient: no t, and reading it raises the validation error.
    trivial = FiniteSubgroup.trivial(discriminant_form(DIAG22))
    w = FiniteSubgroup.trivial(discriminant_form(rank_one(2)))
    glue = GluingData(SubgroupMap(trivial, w, ()))
    assert glue.quotient_result.quotient.orders == (2, 2, 2)
    assert not glue.is_valid()
    with pytest.raises(LatticeError, match="generator orders"):
        glue.t


@pytest.mark.parametrize("gram", [((2, 3), (3, 2)), ((-2, 0), (0, -2)), ((2,),)])
def test_enumerate_valid_glues_rejects_non_positive_definite_source(gram):
    with pytest.raises(LatticeError, match="rank-2 positive-definite"):
        enumerate_valid_glues(IntegralLattice(gram), 1)


def test_enumerate_valid_glues_past_enumeration_limit():
    # A_L = Z/10084 is past the 10^4 elements a listing could afford.  At
    # n = 71^2 + 1 the witness (0, 1, 1), (1, 71, -71) realizes the only glue.
    n = 71 * 71 + 1
    emb = sublattice(polarization_lattice(n), [(0, 1, 1), (1, 71, -71)])
    expected = [embedding_to_glue(emb).to_json_dict()]
    assert [g.to_json_dict() for g in enumerate_valid_glues(DIAG22, n)] == expected


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
    res = realize_embedding(DIAG22, glue5, 8)
    assert res.found
    assert res.embedding.columns() == [(0, 1, 1), (1, 2, -2)]

    glue1 = embedding_to_glue(seed_embedding(1))
    res1 = realize_embedding(DIAG22, glue1, 8)
    assert res1.found
    assert res1.embedding.columns() == [(0, 1, 1), (1, 0, 0)]

    assert res.status == res1.status == "witness"

    res0 = realize_embedding(DIAG22, glue5, 0)
    assert res0.status == "certificate_only"
    assert not res0.found
    assert res0.embedding is None


def test_realize_via_extension_pipeline():
    glue = embedding_to_glue(seed_embedding(1))
    extended, _ = extend_glue(glue, 5)
    res = realize_embedding(DIAG22, extended, 8)
    assert res.found
    emb = res.embedding
    # Exact isometric, primitive image.
    assert emb.source.gram == DIAG22.gram
    assert embedding_to_glue(emb).t == 5


def test_realize_needs_divisor_branch():
    # d = 2, m = 17: there is no witness with first column (0, 1, 1); the
    # divisor branch finds one with larger hyperbolic coordinates.
    glue = embedding_to_glue(seed_embedding(2))
    extended, _ = extend_glue(glue, 17)
    res = realize_embedding(DIAG24, extended, 12)
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
    res = realize_embedding(source, glue, 8)
    assert res.found
    found = res.embedding
    assert found.source.gram == source.gram
    assert embedding_to_glue(found).t == glue.t


def test_extend_glue_deterministic():
    glue = embedding_to_glue(seed_embedding(1))
    first = extend_glue(glue, 13)
    second = extend_glue(glue, 13)
    assert first[1] == second[1]
    assert first[0].gamma.images == second[0].gamma.images
    assert first[0].t == second[0].t


@cache
def _box_vectors(n, norm, coeff_bound):
    target = polarization_lattice(n)
    box = itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=3)
    return [x for x in box if target.norm(x) == norm]


def _pairing_loop_embeddings(source, n, coeff_bound):
    """Oracle for brute_force_embeddings: full box scans for both columns and
    target.pairing on every (x, y)."""
    target = polarization_lattice(n)
    out = []
    for x in _box_vectors(n, source.gram[0][0], coeff_bound):
        for y in _box_vectors(n, source.gram[1][1], coeff_bound):
            if target.pairing(x, y) != source.gram[0][1]:
                continue
            matrix = mx.freeze([[x[i], y[i]] for i in range(3)])
            if mx.smith_invariants(matrix) == (1, 1):
                out.append(matrix)
    return out


@pytest.mark.parametrize(
    "gram", [((2, 0), (0, 2)), ((2, 0), (0, 4)), ((2, 1), (1, 2)), ((2, 1), (1, 4)), ((4, 2), (2, 4))]
)
def test_brute_force_embeddings_match_pairing_loop(gram):
    source = IntegralLattice(gram)
    total = 0
    for n in range(1, 7):
        found = [emb.matrix for emb in brute_force_embeddings(source, n, 8)]
        assert found == _pairing_loop_embeddings(source, n, 8)
        total += len(found)
    assert total > 0


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
