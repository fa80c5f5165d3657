import itertools
import random
from fractions import Fraction
from functools import cache
from math import gcd

import pytest

from k3lat import matrices as mx
from k3lat import nikulin
from k3lat.cli import run
from k3lat.errors import InadmissibleError, InternalConsistencyError, LatticeError
from k3lat.intlat import (
    IntegralLattice,
    orthogonal_complement,
    polarization_lattice,
    rank_one,
    sublattice,
)
from k3lat.discform import (
    FiniteSubgroup,
    SubgroupMap,
    discriminant_data,
    discriminant_form,
    glue_perp_quotient,
)
from k3lat.nikulin import (
    GluingData,
    _divisor_pairs,
    admissible_m,
    brute_force_embeddings,
    embedding_to_glue,
    embedding_witnesses,
    enumerate_valid_glues,
    extend_glue,
    extension_constants,
)

import oracles

DIAG22 = IntegralLattice(((2, 0), (0, 2)))
DIAG24 = IntegralLattice(((2, 0), (0, 4)))


# The nikulin-roundtrip benchmark's sources, each with its three n.
ROUNDTRIP_PAIRS = (
    (((2, 0), (0, 2)), (5, 6, 10)),
    (((2, 0), (0, 4)), (4, 5, 8)),
    (((2, 0), (0, 6)), (3, 6, 9)),
    (((2, 0), (0, 8)), (6, 7, 12)),
    (((2, 1), (1, 2)), (1, 2, 5)),
    (((2, 1), (1, 4)), (1, 3, 11)),
    (((2, 1), (1, 6)), (4, 5, 12)),
    (((2, 1), (1, 8)), (8, 9, 11)),
    (((4, 2), (2, 4)), (1, 9, 10)),
)


def _orientations(gram):
    """The source in the bases (e1, e2), (e2, e1), (e1, -e2) and (e2, -e1)."""
    (a, b), (_, c) = gram
    return (((a, b), (b, c)), ((c, b), (b, a)), ((a, -b), (-b, c)), ((c, -b), (-b, a)))


@cache
def _roundtrip_embeddings():
    """Every brute-force embedding (box 12) of the benchmark pairs, with each
    source in all four orientations."""
    out = []
    for gram, ns in ROUNDTRIP_PAIRS:
        for oriented in _orientations(gram):
            source = IntegralLattice(oriented)
            for n in ns:
                out += brute_force_embeddings(source, n, 12)
    return tuple(out)


def _clear_glue_caches():
    nikulin._glue_domain.cache_clear()
    nikulin._glue_from_images.cache_clear()


def seed_embedding(d):
    # diag(2, 2d) inside <2d> + U via (f+g, e).
    lam = polarization_lattice(d)
    return sublattice(lam, [(0, 1, 1), (1, 0, 0)])


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
        classes.append(_class_of_rational(src_data, oracles.solve_fraction(basis, e_i)[:2]))
    images = []
    for g in v_group.structure_gens:
        dual = [Fraction(v, src_data.form.level) for v in src_data.dual_representative(g)]
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
def test_each_glue_checked_once(monkeypatch, command):
    # The seed glue (2t = 2) and the extended glue (2t = 2554) are each checked
    # once; earlier tests may have memoised the seed glue, so start afresh.
    _clear_glue_caches()
    calls = []
    real = nikulin._matches_reference

    def counting(q_val, two_t):
        calls.append(two_t)
        return real(q_val, two_t)

    monkeypatch.setattr(nikulin, "_matches_reference", counting)
    code, _ = run([command, "--d", "1", "--m", "1277"])
    assert code == 0
    assert calls == [2, 2554]


def test_memoised_extraction_matches_uncached_oracle():
    # The memoised glue equals a fresh one.
    embeddings = _roundtrip_embeddings()
    for emb in embeddings:
        glue, fresh = embedding_to_glue(emb), oracles.extract_glue(emb)
        assert glue.to_json_dict() == fresh.to_json_dict()
        assert glue._q_generator == fresh._q_generator
    assert len(embeddings) > 2000


def test_complement_generator_matches_orthogonal_complement():
    # The primitive cross product of the pairing columns spans the saturated
    # complement: it equals its one basis column up to sign, with its norm.
    for emb in _roundtrip_embeddings():
        c = nikulin._complement_generator(mx.mat_mul(emb.target.gram, emb.matrix))
        comp = orthogonal_complement(emb.target, emb.columns())
        assert c in (comp.column(0), tuple(-x for x in comp.column(0)))
        assert emb.target.norm(c) == comp.source.gram[0][0] < 0


def test_roundtrip_complement_kernels_match_smith_oracle():
    # The 2 x 3 constraint matrices (G x, G y) of every brute-force embedding
    # of the benchmark pairs: the Hermite kernel equals the Smith route.
    checked = 0
    for gram, ns in ROUNDTRIP_PAIRS:
        source = IntegralLattice(gram)
        for n in ns:
            target = polarization_lattice(n)
            for emb in brute_force_embeddings(source, n, 12):
                constraints = mx.freeze(mx.mat_vec(target.gram, x) for x in emb.columns())
                assert mx.kernel_basis(constraints) == oracles.kernel_basis_smith(constraints)
                checked += 1
    assert checked > 500


def test_embeddings_with_one_glue_build_one_quotient(monkeypatch):
    calls = []
    real = nikulin.glue_perp_quotient

    def counting(gamma):
        calls.append(gamma)
        return real(gamma)

    monkeypatch.setattr(nikulin, "glue_perp_quotient", counting)
    _clear_glue_caches()
    embeddings = brute_force_embeddings(IntegralLattice(((2, 1), (1, 2))), 1, 12)
    assert len(embeddings) == 200
    assert {embedding_to_glue(emb).t for emb in embeddings} == {3}
    assert len(calls) == 1


def test_embedding_to_glue_diag22():
    glue = embedding_to_glue(seed_embedding(1))
    assert glue.t == 1
    assert glue.gamma.domain.order == 2
    assert glue.gamma.codomain.order == 2
    # The quotient generator has q = lambda^2 / (2t) for a unit lambda: the
    # positive normalization, not only +-1/(2t).  q[0] is its numerator over 2t.
    q = glue.quotient_result.quotient
    two_t = 2 * glue.t
    assert q.orders == (two_t,)
    assert q.q[0] in {
        lam * lam % (2 * two_t) for lam in range(1, two_t + 1) if gcd(lam, two_t) == 1
    }


def test_matches_reference_agrees_with_fraction_oracle():
    # The integer test lambda^2 * a = 1 mod 4t against the Fraction test
    # lambda^2 * (a/2t) = 1/(2t) mod 2, on every numerator a in [0, 4t) for
    # t <= 40.  Both scan the units, so for 40 < t <= 300 only a = 1, a = 4t - 1
    # (the value -1/(2t), never matched) and three seeded numerators are compared.
    rng = random.Random(31)
    for t in range(1, 301):
        two_t = 2 * t
        numerators = range(2 * two_t) if t <= 40 else {1, 2 * two_t - 1} | {
            rng.randrange(2 * two_t) for _ in range(3)
        }
        for a in numerators:
            expected = oracles.matches_reference(Fraction(a, two_t), two_t)
            assert nikulin._matches_reference(a, two_t) == expected
        assert nikulin._matches_reference(1, two_t)
        assert not nikulin._matches_reference(2 * two_t - 1, two_t)


def test_embedding_to_glue_general_degree_complement():
    # The (f+g, e) seed has complement f-g of norm -2 for every d, hence t = 1,
    # and the glue subgroups have order 2d.
    for d in (1, 2, 3, 5):
        glue = embedding_to_glue(seed_embedding(d))
        assert glue.t == 1
        assert glue.gamma.domain.order == 2 * d


def test_embedding_to_glue_errors():
    lam2 = polarization_lattice(1)
    non_primitive = sublattice(lam2, [(0, 2, 2), (1, 0, 0)])
    # Wrong signature: a rank-2 sublattice that is not positive definite.
    indefinite = sublattice(lam2, [(0, 1, 0), (0, 0, 1)])
    # <2> + U with a norm-2 g: diag(2, 4) embeds primitively, but the Gram is
    # not the ambient one in the basis (e, f, g).
    wrong_ambient = sublattice(
        IntegralLattice(((2, 0, 0), (0, 0, 1), (0, 1, 2))), [(1, 0, 0), (0, 1, 1)]
    )
    assert wrong_ambient.source.gram == DIAG24.gram
    cases = (
        (non_primitive, "embedding is not primitive"),
        (indefinite, "rank-2 positive-definite"),
        (wrong_ambient, "ambient lattice must be <2n> \\+ U"),
    )
    # A failure is not memoised: the second call raises as the first did.
    for emb, message in cases + cases:
        with pytest.raises(LatticeError, match=message):
            embedding_to_glue(emb)


def test_non_isometric_images_raise_on_every_call():
    # (1, 0) has q = 1/2 in diag(2, 4), but its image 2 in Z/4 has q = 1 mod 2.
    v = FiniteSubgroup.generated_by(discriminant_form(DIAG24), [(1, 0)])
    ambient = discriminant_form(polarization_lattice(2))
    for _ in range(2):
        with pytest.raises(InternalConsistencyError):
            nikulin._glue_from_images(v, ambient, ((2,),))


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
    gamma = SubgroupMap(trivial, w, ())
    q = glue_perp_quotient(gamma).quotient
    assert (q.orders, q.q) == ((10,), (19,))
    with pytest.raises(LatticeError):
        GluingData(gamma)


def test_glue_t_needs_a_cyclic_quotient():
    # diag(2,2) with trivial V and W into <2> + U leaves the whole product
    # (Z/2)^3 as the quotient: no t, so no glue can be built.
    trivial = FiniteSubgroup.trivial(discriminant_form(DIAG22))
    w = FiniteSubgroup.trivial(discriminant_form(rank_one(2)))
    gamma = SubgroupMap(trivial, w, ())
    assert glue_perp_quotient(gamma).quotient.orders == (2, 2, 2)
    with pytest.raises(LatticeError, match="generator orders"):
        GluingData(gamma)


@pytest.mark.parametrize("gram", [((2, 3), (3, 2)), ((-2, 0), (0, -2)), ((2,),)])
def test_enumerate_valid_glues_rejects_non_positive_definite_source(gram):
    with pytest.raises(LatticeError, match="rank-2 positive-definite"):
        enumerate_valid_glues(IntegralLattice(gram), 1)


@pytest.mark.parametrize("n", [0, -1])
def test_enumerate_valid_glues_rejects_non_positive_degree(n):
    with pytest.raises(LatticeError, match="^polarization degree parameter must be positive$"):
        enumerate_valid_glues(DIAG22, n)


def test_enumerate_valid_glues_lets_internal_errors_through(monkeypatch):
    # An invalid glue is a LatticeError; an inconsistent quotient is a bug and
    # must not be dropped as one more invalid candidate.
    def broken(gamma):
        raise InternalConsistencyError("graph of gamma is not isotropic")

    monkeypatch.setattr(nikulin, "glue_perp_quotient", broken)
    with pytest.raises(InternalConsistencyError):
        enumerate_valid_glues(DIAG22, 1)


def test_enumerate_valid_glues_past_enumeration_limit():
    # A_L = Z/10084 is past the 10^4 elements a listing could afford.  At
    # n = 71^2 + 1 the witness (0, 1, 1), (1, 71, -71) realizes the only glue.
    n = 71 * 71 + 1
    emb = sublattice(polarization_lattice(n), [(0, 1, 1), (1, 71, -71)])
    expected = [embedding_to_glue(emb).to_json_dict()]
    assert [g.to_json_dict() for g in enumerate_valid_glues(DIAG22, n)] == expected


def _glue_json(glues):
    return [g.to_json_dict() for g in glues]


def test_cyclic_walk_matches_generic_oracle():
    # The benchmark sources in all four orientations for every n <= 12, and
    # A_L = Z/2 + Z/2018 into <2018> + U, against the search over every W.
    for gram, _ in ROUNDTRIP_PAIRS:
        for oriented in _orientations(gram):
            source = IntegralLattice(oriented)
            for n in range(1, 13):
                expected = _glue_json(oracles.enumerate_valid_glues_generic(source, n))
                assert _glue_json(enumerate_valid_glues(source, n)) == expected
    source = IntegralLattice(((2, 0), (0, 2018)))
    expected = _glue_json(oracles.enumerate_valid_glues_generic(source, 1009))
    assert expected
    assert _glue_json(enumerate_valid_glues(source, 1009)) == expected


def test_divisor_pairs_matches_full_scan():
    for p in range(-5000, 5001):
        if p == 0:
            continue
        expected = []
        for d in range(1, abs(p) + 1):
            if p % d == 0:
                expected += [(d, p // d), (-d, -(p // d))]
        assert list(_divisor_pairs(p, 3)) == expected


def test_embedding_witnesses_examples():
    glue5 = embedding_to_glue(sublattice(polarization_lattice(5), [(0, 1, 1), (1, 2, -2)]))
    emb = next(embedding_witnesses(DIAG22, glue5, 8))
    assert emb.columns() == [(0, 1, 1), (1, 2, -2)]

    glue1 = embedding_to_glue(seed_embedding(1))
    emb1 = next(embedding_witnesses(DIAG22, glue1, 8))
    assert emb1.columns() == [(0, 1, 1), (1, 0, 0)]

    assert next(embedding_witnesses(DIAG22, glue5, 0), None) is None


def test_realize_via_extension_pipeline():
    glue = embedding_to_glue(seed_embedding(1))
    extended, _ = extend_glue(glue, 5)
    emb = next(embedding_witnesses(DIAG22, extended, 8))
    # Exact isometric, primitive image.
    assert emb.source.gram == DIAG22.gram
    assert embedding_to_glue(emb).t == 5


def test_realize_needs_divisor_branch():
    # d = 2, m = 17: there is no witness with first column (0, 1, 1); the
    # divisor branch finds one with larger hyperbolic coordinates.
    glue = embedding_to_glue(seed_embedding(2))
    extended, _ = extend_glue(glue, 17)
    emb = next(embedding_witnesses(DIAG24, extended, 12))
    cols = emb.columns()
    assert cols[0] != (0, 1, 1)
    assert embedding_to_glue(emb).t == 17


def test_realize_non_diagonal_source():
    # Source Gram ((2,1),(1,2)) embeds into <2> + U via (0,1,1),(1,0,1); the
    # witness scan must handle the off-diagonal pairing constraint.
    source = IntegralLattice(((2, 1), (1, 2)))
    emb = sublattice(polarization_lattice(1), [(0, 1, 1), (1, 0, 1)])
    glue = embedding_to_glue(emb)
    found = next(embedding_witnesses(source, glue, 8))
    assert found.source.gram == source.gram
    assert embedding_to_glue(found).t == glue.t


def test_extend_glue_deterministic():
    glue = embedding_to_glue(seed_embedding(1))
    first = extend_glue(glue, 13)
    second = extend_glue(glue, 13)
    assert first[1] == second[1]
    assert first[0].gamma.images == second[0].gamma.images
    assert first[0].t == second[0].t


@pytest.mark.parametrize("m", [5, 13, 8941])
def test_extended_glues_stay_out_of_extraction_memo(m):
    glue = embedding_to_glue(seed_embedding(1))
    before = nikulin._glue_from_images.cache_info().currsize
    first, _ = extend_glue(glue, m)
    assert nikulin._glue_from_images.cache_info().currsize == before
    second, _ = extend_glue(glue, m)
    assert first == second
    assert first is not second


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
            if oracles.smith_invariants(matrix) == (1, 1):
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
                ts.add(embedding_to_glue(emb).t)
            glues = enumerate_valid_glues(source, n)
            for glue in glues:
                assert glue.t in ts
            if embeddings:
                assert {g.t for g in glues} == ts
