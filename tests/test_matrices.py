import random
from fractions import Fraction
from functools import cache
from math import gcd

import pytest

from k3lat import matrices as mx

import oracles


def random_matrix(rng, rows, cols, bound=9):
    return mx.freeze(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def test_det_small():
    assert mx.det(()) == 1
    assert mx.det(((5,),)) == 5
    assert mx.det(((2, 0), (0, 3))) == 6
    assert mx.det(((0, 1), (1, 0))) == -1
    assert mx.det(((1, 2), (2, 4))) == 0


def test_det_matches_fraction_elimination():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        # Oracle: cofactor-free elimination over Fractions.
        a = [[Fraction(x) for x in row] for row in m]
        d = Fraction(1)
        sign = 1
        singular = False
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                singular = True
                break
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                sign = -sign
            d *= a[col][col]
            inv = 1 / a[col][col]
            a[col] = [x * inv for x in a[col]]
            for r in range(col + 1, n):
                f = a[r][col]
                if f:
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        expected = 0 if singular else int(sign * d)
        assert mx.det(m) == expected


def test_smith_normal_form_examples():
    _, s, _ = mx.smith_normal_form(((2, 0), (0, 3)))
    assert (s[0][0], s[1][1]) == (1, 6)
    u, s, v = mx.smith_normal_form(mx.identity(3))
    assert s == mx.identity(3)
    # Column matrix of the two Lambda_10 embedding columns (0,1,1),(1,2,-2).
    m = mx.freeze([[0, 1], [1, 2], [1, -2]])
    assert oracles.smith_invariants(m) == (1, 1)


def test_smith_normal_form_properties():
    rng = random.Random(2)
    for _ in range(80):
        rows = rng.randint(0, 4)
        cols = rng.randint(0, 4)
        m = random_matrix(rng, rows, cols)
        u, s, v = mx.smith_normal_form(m)
        assert mx.mat_mul(mx.mat_mul(u, m), v) == s
        assert abs(mx.det(u)) == 1
        assert abs(mx.det(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        if rows == cols and rows > 0:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(mx.det(m))


def test_hermite_row_form_properties():
    rng = random.Random(3)
    for _ in range(80):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols)
        h = mx.hermite_row_form(m)
        # H is a basis of the row lattice of m: the two lattices contain each other.
        assert all(any(row) for row in h)
        for row in h:
            assert oracles.solve_integer(mx.transpose(m), row) is not None
        for row in m:
            if h:
                assert oracles.solve_integer(mx.transpose(h), row) is not None
            else:
                assert not any(row)
        # pivots positive, strictly moving right, entries above reduced
        last = -1
        for i, row in enumerate(h):
            p = next(j for j, x in enumerate(row) if x)
            assert p > last
            last = p
            assert row[p] > 0
            assert all(0 <= h[r][p] < row[p] for r in range(i))
        # canonical: same row span gives same form
        perm = list(range(rows))
        rng.shuffle(perm)
        m2 = mx.freeze([m[i] for i in perm])
        assert mx.hermite_row_form(m2) == h


def test_kernel_basis():
    rng = random.Random(4)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, bound=5)
        k = mx.kernel_basis(m)
        n, dim = mx.shape(k)
        assert n == cols
        assert dim == cols - len(oracles.smith_invariants(m))
        for j in range(dim):
            vec = tuple(k[i][j] for i in range(cols))
            assert mx.mat_vec(m, vec) == tuple(0 for _ in range(rows))
        # The basis is canonical (its transpose is its own row HNF) and
        # saturated (every Smith invariant is 1).
        assert mx.hermite_row_form(mx.transpose(k)) == mx.transpose(k)
        assert oracles.smith_invariants(k) == (1,) * dim


@cache
def small_matrices():
    """2000 seeded random matrices of 1-5 rows and 1-5 columns with entries in
    [-9, 9], about a third of them sparse, then the zero matrix of each shape."""
    rng = random.Random(11)
    out = []
    for _ in range(2000):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice((0.3, 1.0, 1.0))
        out.append(mx.freeze(
            [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
        ))
    out += [mx.freeze([[0] * c for _ in range(r)]) for r in range(1, 6) for c in range(1, 6)]
    return out


def wide_rows():
    """1 x k rows, k = 1..5, with entries of about 1000 bits (some zero)."""
    rng = random.Random(12)
    return [
        (tuple(rng.choice((0, 1, -1, 1, -1)) * rng.getrandbits(1000) for _ in range(k)),)
        for k in range(1, 6) for _ in range(30)
    ]


def test_kernel_basis_matches_smith_oracle():
    for m in small_matrices() + wide_rows():
        assert mx.kernel_basis(m) == oracles.kernel_basis_smith(m)


def test_smith_normal_form_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form
    from sympy.polys.domains import ZZ

    for m in small_matrices()[::5] + wide_rows()[::3]:
        s = smith_normal_form(sympy.Matrix(m), domain=ZZ)
        diag = tuple(abs(int(s[i, i])) for i in range(min(s.shape)))
        _, ours, _ = mx.smith_normal_form(m)
        assert tuple(ours[i][i] for i in range(min(mx.shape(m)))) == diag


def test_solve_integer():
    a = mx.freeze([[2, 0], [0, 3]])
    assert oracles.solve_integer(a, (4, 9)) == (2, 3)
    assert oracles.solve_integer(a, (1, 0)) is None
    rng = random.Random(5)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, bound=4)
        x = tuple(rng.randint(-4, 4) for _ in range(cols))
        b = mx.mat_vec(m, x)
        sol = oracles.solve_integer(m, b)
        assert sol is not None
        assert mx.mat_vec(m, sol) == b


def test_inverse_unimodular_and_completion():
    t = mx.complete_primitive_column((0, 1, -1))
    assert abs(mx.det(t)) == 1
    assert tuple(t[i][0] for i in range(3)) == (0, 1, -1)
    with pytest.raises(ValueError):
        mx.complete_primitive_column((2, 4))


def test_complete_primitive_column_fuzz():
    rng = random.Random(6)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 5)
        c = tuple(rng.randint(-40, 40) for _ in range(n))
        if gcd(*c) != 1:
            continue
        t = mx.complete_primitive_column(c)
        assert mx.shape(t) == (n, n)
        assert tuple(row[0] for row in t) == c
        assert abs(mx.det(t)) == 1
        checked += 1
