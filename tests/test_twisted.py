import random

import pytest

from k3lat.errors import InvalidInputError, LatticeError, NotIsotropicError, NotPrimeError
from k3lat.matrices import freeze
from k3lat.mukai import NeronSeveriData
from k3lat.twisted import (
    TwistedMukaiLattice,
    _valuation,
    divisibility_nv,
    partner_disc,
    witness_sequence,
)

NS2 = NeronSeveriData(((2,),))


def test_twisted_lattice_gram():
    twist = TwistedMukaiLattice(NS2, -2, 5)
    assert twist.lattice.gram == ((-2, -5, 0), (-5, 0, 0), (0, 0, 2))
    assert twist.lattice.disc_abs == 50

    untwisted = TwistedMukaiLattice(NS2, -2, 1)
    assert untwisted.lattice.disc_abs == 2

    assert TwistedMukaiLattice(NS2, -2, 3).lattice.det == -9 * 2


def test_twisted_disc_identity_examples():
    ns = NeronSeveriData(((2, 1), (1, 2)))
    for r in (1, 5, 7, 25):
        assert TwistedMukaiLattice(ns, -2, r).lattice.disc_abs == r**2 * 3


@pytest.mark.parametrize("gamma_square", [0, 2, -3])
def test_twist_rejects_gamma_square(gamma_square):
    with pytest.raises(LatticeError):
        TwistedMukaiLattice(NS2, gamma_square, 5)


def test_twisted_disc_identity_fuzz():
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        rank = rng.randint(1, 4)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1):
                val = rng.randint(-10, 10)
                if i == j:
                    val = 2 * rng.randint(-10, 10)
                gram[i][j] = gram[j][i] = val
        gram[0][0] = 2 * rng.randint(1, 10)
        from k3lat.matrices import det

        if det(freeze(gram)) == 0:
            continue
        ns = NeronSeveriData(freeze(gram))
        ell = rng.choice([5, 7])
        n = rng.randint(1, 3)
        r = ell**n
        twist = TwistedMukaiLattice(ns, -gram[0][0], r)
        assert twist.lattice.disc_abs == r**2 * ns.lattice.disc_abs
        checked += 1


def test_divisibility_nv():
    twist = TwistedMukaiLattice(NS2, -2, 5)
    v1 = twist.vector(1, 0, (1,))
    assert divisibility_nv(twist, v1) == 1

    omega = twist.vector(0, 1)
    assert divisibility_nv(twist, omega) == 5

    with pytest.raises(LatticeError):
        divisibility_nv(twist, (0, 0, 0))


def test_partner_disc_examples():
    twist = TwistedMukaiLattice(NS2, -2, 5)
    v1 = twist.vector(1, 0, (1,))
    report = partner_disc(twist, v1, ell=5)
    assert report.disc_quotient_abs == 50
    assert report.ell_valuation == 2
    assert report.identity_holds
    assert report.p_t_exponent == 0

    twist2 = TwistedMukaiLattice(NS2, -2, 25)
    v2 = twist2.vector(1, 0, (1,))
    report2 = partner_disc(twist2, v2, ell=5)
    assert report2.ell_valuation == 4
    assert report2.identity_holds

    # r = 1, v = omega: the quotient is NS itself.
    untwisted = TwistedMukaiLattice(NS2, -2, 1)
    omega = untwisted.vector(0, 1)
    report3 = partner_disc(untwisted, omega)
    assert report3.n_v == 1
    assert report3.disc_quotient_abs == NS2.lattice.disc_abs
    assert report3.identity_holds

    with pytest.raises(NotIsotropicError):
        partner_disc(twist, twist.vector(1, 1, (1,)))


def test_witness_sequence_d1_ell5():
    records = witness_sequence(1, 5, 3)
    assert [r.identities["h_sq"] for r in records] == [50, 1250, 31250]
    assert [r.ell_valuation for r in records] == [2, 4, 6]
    for rec in records:
        assert rec.identities["v_sq_zero"]
        assert rec.identities["h_dot_v_zero"]
        assert rec.identities["h_sq_expected"]
        assert rec.identities["partner_identity"]
        assert rec.n_v**2 <= 4
        assert rec.p_t_exponent == 0


def test_witness_sequence_with_b():
    records = witness_sequence(1, 5, 2, e=3)
    for rec in records:
        assert rec.b_n is not None
        assert rec.identities["b_dot_v_zero"]
        assert rec.identities["b_sq_expected"]


def test_witness_sequence_valuation_growth():
    for ell in (5, 17):
        records = witness_sequence(1, ell, 5)
        vals = [r.ell_valuation for r in records]
        assert vals == [2 * n for n in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_witness_sequence_errors():
    with pytest.raises(NotPrimeError):
        witness_sequence(1, 4, 2)
    with pytest.raises(LatticeError, match="d must be"):
        witness_sequence(0, 5, 2)
    with pytest.raises(LatticeError, match="e must be"):
        witness_sequence(1, 5, 2, e=0)
    # With every input bad, the checks fire in the order ell, n_max, d, e.
    with pytest.raises(NotPrimeError):
        witness_sequence(0, 4, 0, e=0)
    with pytest.raises(LatticeError, match="n_max must be"):
        witness_sequence(0, 5, 0, e=0)
    with pytest.raises(LatticeError, match="d must be"):
        witness_sequence(0, 5, 1, e=0)


def test_valuation_matches_repeated_division():
    def by_division(n, ell):
        n, v = abs(n), 0
        while n % ell == 0:
            n //= ell
            v += 1
        return v

    rng = random.Random(16)
    for ell in (2, 3, 101, 2**61 - 1):
        for e in [0, 1, 2, 3, 4, 7, 8, 15, 16, 17, 3000] + rng.sample(range(3001), 15):
            unit = rng.randrange(1, 10**6)
            unit += unit % ell == 0
            for n in (unit * ell**e, -unit * ell**e):
                assert _valuation(n, ell) == by_division(n, ell) == e
    with pytest.raises(ValueError):
        _valuation(0, 5)


@pytest.mark.parametrize("ell", [-1, 0, 1])
def test_valuation_rejects_base_below_two(ell):
    # Powers of 1 or -1 never stop dividing n, and 0 divides nothing.
    with pytest.raises(InvalidInputError, match="at least 2"):
        _valuation(50, ell)
    twist = TwistedMukaiLattice(NS2, -2, 5)
    with pytest.raises(InvalidInputError, match="at least 2"):
        partner_disc(twist, twist.vector(1, 0, (1,)), ell=ell)
