import pytest

from k3lat.errors import InadmissibleError, LatticeError
from k3lat.mukai import MukaiVector, NeronSeveriData, mukai_pairing
from k3lat.nikulin import embedding_to_glue, extension_constants
from k3lat.zarhin import (
    apply_isometry,
    build_seed,
    positive_rank_isometry,
    zarhin_construct,
)


def test_build_seed_examples():
    seed = build_seed(1, 2)
    assert seed.lattice.gram == ((2, 0), (0, 2))
    assert seed.embedding.columns() == [(0, 1, 1), (1, 0, 0)]
    assert seed.w == (0, 0, 1)
    amb = seed.embedding.target
    assert amb.norm(seed.v) == 2
    assert amb.pairing(seed.v, seed.l) == 0
    assert amb.pairing(seed.v, seed.w) == 1

    seed2 = build_seed(2, 4)
    assert seed2.lattice.gram == ((2, 0), (0, 4))
    assert seed2.embedding.columns() == [(0, 1, 1), (1, 0, 0)]

    with pytest.raises(LatticeError):
        build_seed(1, 3)


def test_zarhin_constants():
    c = extension_constants(embedding_to_glue(build_seed(1, 2).embedding))
    assert (zarhin_construct(1, 1, 2).r, c.modulus, c.a, c.b) == (12, 4, -1, 1)
    assert zarhin_construct(2, 1, 4).r == 48
    assert zarhin_construct(3, 1, 4).r == 48
    # q_L = lsq, so choosing lsq coprime to an odd n keeps q_L coprime to n.
    assert zarhin_construct(5, 1, 2).r == 12


def test_build_seed_unrealizable_lsq():
    # With v = f + g fixed, any orthogonal l has l^2 = 2*le^2 - 2*lf^2, so
    # lsq = 4 is not realizable in degree 2 (le^2 - lf^2 = 2 has no solutions),
    # and lsq = 6 only yields imprimitive spans; the bounded search says so.
    from k3lat.errors import SearchExhaustedError

    with pytest.raises(SearchExhaustedError):
        build_seed(1, 4)
    with pytest.raises(SearchExhaustedError):
        build_seed(1, 6)
    # Degree 2 does admit lsq = 10 via l = (3, 2, -2).
    seed = build_seed(1, 10)
    assert seed.lattice.gram == ((2, 0), (0, 10))
    assert seed.embedding.columns()[1] == (3, 2, -2)
    assert zarhin_construct(1, 1, 10).r == 300


def test_ensure_positive_rank():
    def positive(v):
        return apply_isometry(positive_rank_isometry(v), v)

    assert positive(MukaiVector(-1, (0,), 1)) == MukaiVector(1, (0,), -1)
    assert positive(MukaiVector(0, (3,), 2)) == MukaiVector(2, (3,), 0)
    v = MukaiVector(1, (5,), 7)
    assert positive(v) is v
    assert positive(MukaiVector(0, (1,), -2)) == MukaiVector(2, (-1,), 0)
    with pytest.raises(LatticeError):
        positive(MukaiVector(0, (1,), 0))


def test_isometry_preserves_pairings():
    ns = NeronSeveriData(((4,),))
    vs = [MukaiVector(-1, (2,), 3), MukaiVector(0, (1,), 2), MukaiVector(2, (0,), -5)]
    for name in ("identity", "negate", "swap", "swap_negate"):
        for x in vs:
            for y in vs:
                assert mukai_pairing(
                    apply_isometry(name, x), apply_isometry(name, y), ns
                ) == mukai_pairing(x, y, ns)


def test_zarhin_construct_worked_example():
    cert = zarhin_construct(1, 5, 2)
    assert cert.realized
    assert cert.v == MukaiVector(1, (0,), -1)
    assert cert.checks["v_square"] == 2
    assert cert.checks["dimension"] == 4
    assert cert.r == 12
    assert cert.q_l == 2
    assert cert.checks["pairing_v_l"] == 0
    assert cert.extension.m == 5
    assert cert.glue.t == 5


def test_zarhin_construct_identity_and_errors():
    cert = zarhin_construct(1, 1, 2)
    assert cert.realized
    assert cert.glue.t == 1
    assert cert.r == 12

    with pytest.raises(InadmissibleError):
        zarhin_construct(1, 3, 2)


def test_zarhin_construct_certificate_only():
    cert = zarhin_construct(1, 5, 2, search_bound=0)
    assert not cert.realized
    assert cert.status == "certificate_only"
    assert cert.v is None
    assert cert.checks["witness_realized"] is False
    assert cert.r == 12


def test_zarhin_orthogonality_in_ambient():
    # The realized images of v and l stay orthogonal in <2md> + U.
    for d, m in ((1, 5), (1, 13), (3, 13)):
        cert = zarhin_construct(d, m)
        assert cert.realized
        assert mukai_pairing(cert.v, cert.l, cert.ns) == 0
        assert cert.checks["r_equals_fujiki"]
