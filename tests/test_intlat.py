import itertools
import random
from math import gcd, isqrt

import pytest

from k3lat import intlat
from k3lat import matrices as mx
from k3lat.errors import DegenerateEmbeddingError, LatticeError, NotIsotropicError, RankMismatchError
from k3lat.intlat import (
    IntegralLattice,
    direct_sum,
    enumerate_vectors,
    hyperbolic_plane,
    identity_embedding,
    index_of_sublattice,
    is_primitive_sublattice,
    orthogonal_complement,
    polarization_lattice,
    quotient_by_isotropic,
    rank_one,
    saturation,
    sublattice,
)
from k3lat.mukai import NeronSeveriData
from k3lat.twisted import TwistedMukaiLattice, partner_disc, witness_sequence

import oracles


def test_lattice_basics():
    u = hyperbolic_plane()
    assert u.det == -1
    assert u.is_even
    lam2 = polarization_lattice(1)
    assert lam2.det == -2
    assert lam2.norm((0, 1, 1)) == 2
    assert lam2.pairing((0, 1, 1), (1, 0, 0)) == 0
    with pytest.raises(LatticeError):
        IntegralLattice(((0, 1), (2, 0)))


def test_is_primitive_sublattice():
    lam10 = polarization_lattice(5)
    e = sublattice(lam10, [(0, 1, 1), (1, 2, -2)])
    assert e.source.gram == ((2, 0), (0, 2))
    assert is_primitive_sublattice(e)

    lam2 = polarization_lattice(1)
    e2 = sublattice(lam2, [(0, 2, 0)])
    assert not is_primitive_sublattice(e2)

    assert is_primitive_sublattice(identity_embedding(lam2))

    degenerate = intlat.SublatticeEmbedding(
        IntegralLattice(((0,),)), hyperbolic_plane(), ((0,), (0,))
    )
    with pytest.raises(DegenerateEmbeddingError):
        is_primitive_sublattice(degenerate)


def test_rank_below_source_rank_is_degenerate():
    # A rank-2 source onto a rank-1 target: the Smith form is 1 x 2, with
    # one diagonal entry for the two source vectors.
    source = IntegralLattice(((2, 2), (2, 2)))
    emb = intlat.SublatticeEmbedding(source, rank_one(2), ((1, 1),))
    with pytest.raises(DegenerateEmbeddingError, match="rank-deficient"):
        is_primitive_sublattice(emb)
    with pytest.raises(DegenerateEmbeddingError, match="^embedding matrix is rank-deficient$"):
        saturation(emb)


def _pair_matrices():
    """Seeded k x 2 matrices for k = 0..5 with entries in [-9, 9] (a third of
    them sparse, and every fifth with its second column a multiple of the
    first), the zero ones, and 3 x 2 ones with 1000-bit entries, raw, with the
    second column doubled, and of rank 1."""
    rng = random.Random(2718)
    out = [tuple((0, 0) for _ in range(k)) for k in range(6)]
    for i in range(2400):
        k = i % 6
        sparse = rng.random() < 1 / 3
        rows = [
            tuple(0 if sparse and rng.random() < 0.6 else rng.randint(-9, 9) for _ in range(2))
            for _ in range(k)
        ]
        if i % 5 == 0:
            f = rng.randint(-3, 3)
            rows = [(a, f * a) for a, _ in rows]
        out.append(tuple(rows))
    for _ in range(100):
        rows = [(rng.getrandbits(1000) - 2**999, rng.getrandbits(1000) - 2**999) for _ in range(3)]
        out.append(tuple(rows))
        out.append(tuple((a, 2 * b) for a, b in rows))
        out.append(tuple((a, 3 * a) for a, _ in rows))
    return out


def test_is_primitive_pair_matches_smith_oracle():
    seen = set()
    for matrix in _pair_matrices():
        expected = oracles.is_primitive_pair_smith(matrix)
        assert intlat.is_primitive_pair(matrix) == expected, matrix
        seen.add((expected, oracles.smith_invariants(matrix)[1:2]))
    # Primitive pairs, pairs with d2 = 2 and pairs of rank below 2 all occur.
    assert {(True, (1,)), (False, (2,)), (False, ())} <= seen


def test_is_primitive_pair_needs_two_columns():
    assert intlat.is_primitive_pair(((1, 0), (0, 1), (5, 7)))
    assert not intlat.is_primitive_pair(())
    for matrix in (((1,), (0,)), ((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1, 0))):
        with pytest.raises(ValueError, match="two columns"):
            intlat.is_primitive_pair(matrix)


def test_orthogonal_complement_examples():
    lam2 = polarization_lattice(1)
    c = orthogonal_complement(lam2, [(0, 1, 1), (1, 0, 0)])
    assert c.source.gram == ((-2,),)
    assert c.columns() == [(0, 1, -1)]

    u = hyperbolic_plane()
    c2 = orthogonal_complement(u, [(1, 0)])
    assert c2.source.gram == ((0,),)
    assert c2.columns() == [(1, 0)]

    c3 = orthogonal_complement(lam2, [])
    assert c3.matrix == mx.identity(3)


def test_saturation():
    lam2 = polarization_lattice(1)
    e = sublattice(lam2, [(0, 2, 0)])
    s = saturation(e)
    assert s.columns() == [(0, 1, 0)]
    assert is_primitive_sublattice(s)

    prim = sublattice(lam2, [(0, 1, 1), (1, 0, 0)])
    assert saturation(prim) is prim

    e2 = sublattice(lam2, [(2, 0, 0), (0, 2, 0)])
    s2 = saturation(e2)
    assert s2.columns() == [(1, 0, 0), (0, 1, 0)]
    assert saturation(s2) is s2

    # Full rank: no vector annihilates the span, so it saturates to the target.
    a2 = IntegralLattice(((2, 1), (1, 2)))
    s3 = saturation(sublattice(a2, [(2, 0), (0, 2)]))
    assert s3.matrix == mx.identity(2)
    assert s3.source == a2
    s4 = saturation(sublattice(lam2, [(2, 0, 0), (0, 1, 1), (0, 0, 3)]))
    assert s4.matrix == mx.identity(3)
    assert s4.source == lam2


def test_index_of_sublattice():
    # Zv + v_perp inside N(X) for NS = [[2]], v = (1, 0, -1) in Mukai coords.
    n_lattice = IntegralLattice(((2, 0, 0), (0, 0, -1), (0, -1, 0)))
    v = (0, 1, -1)
    perp = orthogonal_complement(n_lattice, [v])
    cols = [v] + perp.columns()
    full = sublattice(n_lattice, cols)
    assert index_of_sublattice(n_lattice, full) == 2

    lam2 = polarization_lattice(1)
    assert index_of_sublattice(lam2, identity_embedding(lam2)) == 1

    doubled = sublattice(lam2, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    assert index_of_sublattice(lam2, doubled) == 8

    with pytest.raises(RankMismatchError):
        index_of_sublattice(lam2, sublattice(lam2, [(1, 0, 0)]))


def test_quotient_by_isotropic_examples():
    l1 = direct_sum(hyperbolic_plane(), rank_one(2))
    q = quotient_by_isotropic(l1, (1, 0, 0))
    assert q.gram == ((2,),)

    u = hyperbolic_plane()
    q2 = quotient_by_isotropic(u, (1, 0))
    assert q2.rank == 0
    assert q2.det == 1

    with pytest.raises(NotIsotropicError):
        quotient_by_isotropic(u, (2, 0))
    with pytest.raises(NotIsotropicError):
        quotient_by_isotropic(u, (1, 1))


def test_quotient_by_isotropic_errors():
    u = hyperbolic_plane()
    with pytest.raises(NotIsotropicError, match="primitive"):
        quotient_by_isotropic(u, (0, 3))
    with pytest.raises(NotIsotropicError, match="isotropic"):
        quotient_by_isotropic(u, (1, 1))
    degenerate = IntegralLattice(((0, 0), (0, 2)))
    with pytest.raises(LatticeError, match="nondegenerate") as info:
        quotient_by_isotropic(degenerate, (1, 0))
    assert info.type is LatticeError
    # Each check runs in turn: primitive, isotropic, nondegenerate.
    with pytest.raises(NotIsotropicError, match="primitive"):
        quotient_by_isotropic(u, (2, 2))
    with pytest.raises(NotIsotropicError, match="isotropic"):
        quotient_by_isotropic(degenerate, (0, 1))
    with pytest.raises(NotIsotropicError, match="primitive"):
        quotient_by_isotropic(degenerate, (2, 0))


def test_quotient_matches_hnf_oracle():
    """Completion and one-row kernel against the saturated-complement route,
    on random even nondegenerate lattices with an isotropic v from a box."""
    rng = random.Random(24)
    cases = non_unit = 0
    while cases < 320:
        rank = rng.randint(2, 6)
        scale = rng.choice((1, 1, 2, 3))
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1):
                val = 2 * rng.randint(-2, 2) if i == j else rng.randint(-3, 3)
                gram[i][j] = gram[j][i] = scale * val
        lattice = IntegralLattice(mx.freeze(gram))
        if not lattice.is_nondegenerate:
            continue
        box = enumerate_vectors(lattice, 0, 1 if rank == 6 else 2)
        found = [x for x in box if gcd(*x) == 1]
        if not found:
            continue
        v = rng.choice(found)
        q = quotient_by_isotropic(lattice, v)
        expected = oracles.quotient_by_isotropic_hnf(lattice, v)
        assert q.rank == expected.rank == rank - 2
        assert q.det == expected.det
        assert q.is_even == expected.is_even
        if q.rank <= 1:
            assert q.gram == expected.gram
        non_unit += gcd(*mx.mat_vec(lattice.gram, v)) > 1
        cases += 1
    assert non_unit >= 50


@pytest.mark.parametrize("d, ell, e", [(1, 5, None), (3, 7, 2), (6, 997, None), (2, 101, 4)])
def test_witness_quotients_match_hnf_oracle(d, ell, e):
    ns = NeronSeveriData(((2 * d,),) if e is None else ((2 * d, 0), (0, 2 * e)))
    for rec in witness_sequence(d, ell, 40, e):
        twist = TwistedMukaiLattice(ns, -2 * d, rec.r)
        report = partner_disc(twist, rec.v_n, ell)
        expected = oracles.quotient_by_isotropic_hnf(twist.lattice, rec.v_n)
        n_v_sq, rem = divmod(rec.r**2 * ns.lattice.disc_abs, expected.disc_abs)
        n_v = isqrt(n_v_sq)
        assert rem == 0 and n_v * n_v == n_v_sq
        val, rest = 0, expected.disc_abs
        while rest % ell == 0:
            rest //= ell
            val += 1
        assert report.disc_quotient == expected.det
        assert rec.partner_disc_abs == expected.disc_abs
        assert rec.n_v == report.n_v == n_v
        assert rec.ell_valuation == report.ell_valuation == val


def test_quotient_determinant_basis_independent():
    # Twisted-shape lattice: NS = [[2]], alpha^2 = -2, r = 5.
    twisted = IntegralLattice(((-2, -5, 0), (-5, 0, 0), (0, 0, 2)))
    v = (1, 0, 1)
    assert twisted.norm(v) == 0
    q = quotient_by_isotropic(twisted, v)
    assert q.rank == 1
    assert q.disc_abs == 50

    # Second, independently chosen basis: permute the ambient basis first.
    perm = IntegralLattice(((2, 0, 0), (0, -2, -5), (0, -5, 0)))
    q2 = quotient_by_isotropic(perm, (1, 1, 0))
    assert q2.disc_abs == 50


def _box_scan(lattice, norm, coeff_bound):
    """Oracle for enumerate_vectors: every point of the coefficient box, in order."""
    box = itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=lattice.rank)
    return [x for x in box if lattice.norm(x) == norm]


def test_enumerate_vectors_examples():
    l2 = rank_one(2)
    assert enumerate_vectors(l2, 2, 1) == [(-1,), (1,)]

    u = hyperbolic_plane()
    assert enumerate_vectors(u, 0, 1) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    lam10 = polarization_lattice(5)
    assert enumerate_vectors(lam10, 2, 2) == [
        (-1, -2, 2), (-1, 2, -2), (0, -1, -1), (0, 1, 1), (1, -2, 2), (1, 2, -2),
    ]


def test_enumerate_vectors_last_coordinate_branches():
    # g_rr > 0: two roots, one root, or none per prefix.
    pos = IntegralLattice(((2, 1), (1, 2)))
    assert enumerate_vectors(pos, 2, 2) == [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]
    # g_rr < 0: dividing by a negative leading coefficient flips the roots.
    assert enumerate_vectors(rank_one(-2), -2, 1) == [(-1,), (1,)]
    neg = IntegralLattice(((2, 1), (1, -4)))
    assert enumerate_vectors(neg, -4, 3) == [(-1, 1), (0, -1), (0, 1), (1, -1)]
    # g_rr = 0 with l != 0: the norm is linear in the last coordinate.
    for n in (1, 5, 12):
        lam = polarization_lattice(n)
        for norm in (0, 2, 4, -6):
            assert enumerate_vectors(lam, norm, 5) == _box_scan(lam, norm, 5)
    # g_rr = 0 with l = 0: the whole column of the box when c = 0.
    u = hyperbolic_plane()
    assert enumerate_vectors(u, 0, 2) == _box_scan(u, 0, 2)
    assert [x for x in enumerate_vectors(u, 0, 2) if x[0] == 0] == [(0, z) for z in range(-2, 3)]
    degenerate = IntegralLattice(((2, 0), (0, 0)))
    assert enumerate_vectors(degenerate, 2, 1) == [
        (-1, -1), (-1, 0), (-1, 1), (1, -1), (1, 0), (1, 1),
    ]
    assert enumerate_vectors(degenerate, 4, 1) == []
    assert enumerate_vectors(IntegralLattice(()), 0, 1) == [()]
    assert enumerate_vectors(IntegralLattice(()), 2, 1) == []


def test_enumerate_vectors_matches_box_scan():
    rng = random.Random(16)
    for _ in range(300):
        rank = rng.randint(0, 4)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1):
                gram[i][j] = gram[j][i] = rng.randint(-4, 4)
        lattice = IntegralLattice(mx.freeze(gram))
        bound = rng.randint(1, 3 if rank == 4 else 4)
        norm = rng.randint(-12, 12)
        assert enumerate_vectors(lattice, norm, bound) == _box_scan(lattice, norm, bound)


def test_enumerate_vectors_matches_box_scan_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        rank = draw(st.integers(0, 4))
        entries = iter(draw(st.lists(
            st.integers(-6, 6), min_size=rank * (rank + 1) // 2, max_size=rank * (rank + 1) // 2
        )))
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1):
                gram[i][j] = gram[j][i] = next(entries)
        bound = draw(st.integers(1, 3 if rank == 4 else 4))
        return IntegralLattice(mx.freeze(gram)), draw(st.integers(-12, 12)), bound

    @hypothesis.given(cases())
    def check(case):
        lattice, norm, bound = case
        assert enumerate_vectors(lattice, norm, bound) == _box_scan(lattice, norm, bound)

    check()


def test_enumerate_vectors_closed_under_negation():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 3)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                val = rng.randint(-3, 3)
                if i == j:
                    val = 2 * rng.randint(-2, 2)
                gram[i][j] = gram[j][i] = val
        lattice = IntegralLattice(mx.freeze(gram))
        vecs = enumerate_vectors(lattice, 2 * rng.randint(0, 3), 2)
        s = set(vecs)
        assert all(tuple(-c for c in v) in s for v in vecs)
        assert vecs == sorted(vecs)


def test_embedding_invariants_random():
    rng = random.Random(8)
    lam6 = polarization_lattice(3)
    for _ in range(40):
        cols = []
        for _ in range(2):
            cols.append(tuple(rng.randint(-3, 3) for _ in range(3)))
        m = mx.transpose(mx.freeze(cols))
        if len(oracles.smith_invariants(m)) < 2:
            continue
        e = sublattice(lam6, cols)
        lhs = mx.mat_mul(mx.mat_mul(mx.transpose(e.matrix), lam6.gram), e.matrix)
        assert lhs == e.source.gram
        s = saturation(e)
        assert is_primitive_sublattice(s)
        assert saturation(s) is s


def test_index_disc_identity():
    # index^2 * |det L| = |det induced| for random full-rank sublattices.
    rng = random.Random(9)
    lam4 = polarization_lattice(2)
    for _ in range(30):
        cols = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
        m = mx.transpose(mx.freeze(cols))
        if mx.det(m) == 0:
            continue
        e = sublattice(lam4, cols)
        idx = index_of_sublattice(lam4, e)
        assert idx * idx * lam4.disc_abs == abs(e.source.det)
