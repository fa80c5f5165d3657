import random
from fractions import Fraction
from math import factorial

import pytest

from k3lat.errors import LatticeError, NotIsotropicError
from k3lat.mukai import (
    MukaiVector,
    NeronSeveriData,
    check_condition_C,
    disc_comparison_chain,
    euler_characteristic,
    fujiki_degree,
    full_mukai_lattice,
    moduli_dimension,
    mukai_pairing,
)

NS2 = NeronSeveriData(((2,),))


def mv(a, d, c):
    return MukaiVector(a, d, c)


def test_mukai_pairing_examples():
    assert mukai_pairing(mv(1, (0,), 1), mv(1, (0,), 1), NS2) == -2
    assert mukai_pairing(mv(0, (1,), 0), mv(0, (1,), 0), NS2) == 2
    assert mukai_pairing(mv(1, (0,), -1), mv(1, (0,), -1), NS2) == 2


def test_pairing_symmetric_bilinear():
    rng = random.Random(21)
    ns = NeronSeveriData(((2, 1), (1, 4)))
    for _ in range(40):
        v = mv(rng.randint(-3, 3), (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-3, 3))
        w = mv(rng.randint(-3, 3), (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-3, 3))
        u = mv(rng.randint(-3, 3), (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-3, 3))
        assert mukai_pairing(v, w, ns) == mukai_pairing(w, v, ns)
        vw = mv(v.a + w.a, tuple(x + y for x, y in zip(v.d, w.d)), v.c + w.c)
        assert mukai_pairing(vw, u, ns) == mukai_pairing(v, u, ns) + mukai_pairing(w, u, ns)


def test_euler_characteristic_examples():
    assert euler_characteristic(mv(1, (0,), 1), mv(1, (0,), 1), NS2) == 2
    omega = mv(0, (0,), 1)
    assert euler_characteristic(omega, omega, NS2) == 0
    assert euler_characteristic(mv(1, (0,), -1), mv(1, (0,), -1), NS2) == -2


def test_condition_c():
    v = mv(1, (0,), -1)
    verdict = check_condition_C(v, NS2)
    assert verdict.passed and verdict.square == 2

    verdict = check_condition_C(mv(2, (1,), 0), NS2)
    assert not verdict.passed
    assert verdict.failures == ("gcd",)
    assert verdict.gcd_value == 2

    verdict = check_condition_C(mv(2, (0,), 2), NS2)
    assert "primitive" in verdict.failures


def test_moduli_dimension():
    assert moduli_dimension(mv(1, (0,), -1), NS2) == 4
    assert moduli_dimension(mv(0, (0,), 1), NS2) == 2
    assert moduli_dimension(mv(1, (0,), -2), NS2) == 6
    with pytest.raises(LatticeError):
        moduli_dimension(mv(1, (0,), 1), NS2)


def test_fujiki_degree():
    assert fujiki_degree(2, 2) == 12
    assert fujiki_degree(0, 2) == 0
    for lsq in range(1, 10):
        assert fujiki_degree(lsq**2, 2) == 3 * lsq**4
    for q in range(-20, 21):
        assert fujiki_degree(q, 2) == 3 * q * q


def test_fujiki_degree_matches_factorial_formula():
    for n in range(1, 9):
        for q in (-7, -2, -1, 0, 1, 2, 5, 12):
            expected = factorial(2 * n) * q**n // (factorial(n) * 2**n)
            assert fujiki_degree(q, n) == expected
    for n in (0, -1):
        with pytest.raises(ValueError):
            fujiki_degree(2, n)


def test_full_mukai_lattice():
    n = full_mukai_lattice(NS2)
    assert n.rank == 3
    assert n.disc_abs == 2
    assert n.det == -2

    u_only = full_mukai_lattice(NeronSeveriData(((2, 0), (0, -2)),))
    assert u_only.disc_abs == 4

    ns = NeronSeveriData(((2, 1), (1, -4)))
    assert full_mukai_lattice(ns).det == -ns.lattice.det


def test_full_lattice_reproduces_pairing():
    rng = random.Random(22)
    ns = NeronSeveriData(((2, 1), (1, 4)))
    full = full_mukai_lattice(ns)
    for _ in range(30):
        v = mv(rng.randint(-3, 3), (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-3, 3))
        w = mv(rng.randint(-3, 3), (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-3, 3))
        cv = v.d + (v.a, v.c)
        cw = w.d + (w.a, w.c)
        assert full.pairing(cv, cw) == mukai_pairing(v, w, ns)


def test_disc_comparison_chain_example():
    report = disc_comparison_chain(NS2, mv(1, (0,), -1))
    assert report.v_square == 2
    assert report.disc_perp_abs == 4
    assert report.index == 2
    assert report.identity_lhs == 8 and report.identity_rhs == 8
    assert report.identity_holds and report.inequality_holds
    assert report.lambda_ratio == Fraction(1, 2)

    report2 = disc_comparison_chain(NS2, mv(1, (0,), -2))
    assert report2.v_square == 4
    assert report2.identity_holds and report2.inequality_holds

    # Negative squares satisfy the signed identity v^2 det(v_perp) = i^2 det(N).
    ns = NeronSeveriData(((2, 1), (1, 4)))
    report3 = disc_comparison_chain(ns, mv(2, (1, 0), 1))
    assert report3.v_square == -2
    assert report3.identity_holds

    with pytest.raises(NotIsotropicError):
        disc_comparison_chain(NS2, mv(2, (0,), 2))
    with pytest.raises(NotIsotropicError):
        disc_comparison_chain(NS2, mv(1, (0,), 0))


def test_disc_comparison_partner_residual():
    report = disc_comparison_chain(NS2, mv(1, (0,), -1), partner_disc=2)
    assert report.partner_residual == Fraction(2, 1)


def test_full_lattice_det_identity_fuzz():
    rng = random.Random(23)
    for _ in range(30):
        rank = rng.randint(1, 3)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1):
                v = rng.randint(-6, 6)
                if i == j:
                    v = 2 * rng.randint(-3, 3)
                gram[i][j] = gram[j][i] = v
        gram[0][0] = 2 * rng.randint(1, 4)
        ns = NeronSeveriData(tuple(tuple(r) for r in gram))
        assert full_mukai_lattice(ns).det == -ns.lattice.det


def test_disc_comparison_all_nonisotropic_fuzz():
    rng = random.Random(25)
    ns = NeronSeveriData(((2, 1), (1, 4)))
    checked = 0
    while checked < 40:
        v = mv(
            rng.randint(-4, 4),
            (rng.randint(-4, 4), rng.randint(-4, 4)),
            rng.randint(-4, 4),
        )
        if not v.is_primitive():
            continue
        from k3lat.mukai import mukai_square

        if mukai_square(v, ns) == 0:
            continue
        report = disc_comparison_chain(ns, v)
        assert report.identity_holds and report.inequality_holds
        checked += 1


def test_condition_c_implies_dimension():
    rng = random.Random(24)
    ns = NeronSeveriData(((2, 0), (0, 4)))
    for _ in range(200):
        v = mv(
            rng.randint(-3, 3),
            (rng.randint(-3, 3), rng.randint(-3, 3)),
            rng.randint(-3, 3),
        )
        verdict = check_condition_C(v, ns)
        if verdict.passed and verdict.square >= 2:
            assert moduli_dimension(v, ns) >= 4
