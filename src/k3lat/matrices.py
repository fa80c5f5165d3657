"""Exact integer linear algebra: Smith and Hermite normal forms, kernels, solves, det.

All matrices are row-major tuples of tuples of Python ints (arbitrary
precision), so nothing here can overflow or round.
"""

from __future__ import annotations

from math import gcd

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def transpose(m: Matrix) -> Matrix:
    rows, cols = shape(m)
    return tuple(tuple(m[i][j] for i in range(rows)) for j in range(cols))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(ca)) for j in range(cb))
        for i in range(ra)
    )


def mat_vec(a: Matrix, v: Vector) -> Vector:
    ra, ca = shape(a)
    if ca != len(v):
        raise ValueError(f"cannot apply {ra}x{ca} to vector of length {len(v)}")
    return tuple(sum(a[i][k] * v[k] for k in range(ca)) for i in range(ra))


def is_symmetric(m: Matrix) -> bool:
    rows, cols = shape(m)
    return rows == cols and all(
        m[i][j] == m[j][i] for i in range(rows) for j in range(i)
    )


def det(m: Matrix) -> int:
    """Exact determinant via the Bareiss fraction-free algorithm."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, S, V) with U*m*V = S, U and V unimodular, S = diag(d1, d2, ...).

    The diagonal is nonnegative and satisfies d1 | d2 | ... (zeros trail).
    Pivot selection is by minimal absolute value, then row, then column, so
    the output is deterministic.
    """
    rows, cols = shape(m)
    a = [list(row) for row in m]
    u = [list(row) for row in identity(rows)]
    v = [list(row) for row in identity(cols)]

    def row_sub(i: int, k: int, q: int) -> None:
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j: int, k: int, q: int) -> None:
        for r in range(rows):
            a[r][j] -= q * a[r][k]
        for r in range(cols):
            v[r][j] -= q * v[r][k]

    def row_swap(i: int, k: int) -> None:
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j: int, k: int) -> None:
        for r in range(rows):
            a[r][j], a[r][k] = a[r][k], a[r][j]
        for r in range(cols):
            v[r][j], v[r][k] = v[r][k], v[r][j]

    def row_neg(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < rows and t < cols:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (
                    pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])
                ):
                    pivot = (i, j)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        while True:
            if a[t][t] < 0:
                row_neg(t)
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t]:
                        row_swap(i, t)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j]:
                        col_swap(j, t)
                        dirty = True
            if dirty:
                continue
            # Divisibility fix-up: the pivot must divide the rest of the block.
            offender = None
            d = a[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)
        t += 1
    return freeze(u), freeze(a), freeze(v)


def smith_invariants(m: Matrix) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith normal form of m."""
    _, s, _ = smith_normal_form(m)
    n = min(shape(s))
    return tuple(s[i][i] for i in range(n) if s[i][i] != 0)


def rank(m: Matrix) -> int:
    return len(smith_invariants(m))


def hermite_row_form(m: Matrix) -> Matrix:
    """Basis of the row lattice of m: the nonzero rows of its canonical row HNF.

    Pivots are positive, each pivot is the first nonzero entry of its row,
    and entries above a pivot are reduced into [0, pivot).
    """
    rows, cols = shape(m)
    a = [list(row) for row in m]

    def row_sub(i: int, k: int, q: int) -> None:
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]

    r = 0
    for c in range(cols):
        if r == rows:
            break
        while True:
            nz = [i for i in range(r, rows) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(a[i][c]), i))
            a[r], a[i0] = a[i0], a[r]
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            clean = True
            for i in range(r + 1, rows):
                if a[i][c]:
                    row_sub(i, r, a[i][c] // a[r][c])
                    if a[i][c]:
                        clean = False
            if clean:
                break
        if r < rows and a[r][c] != 0:
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    row_sub(i, r, q)
            r += 1
    # Rows r.. are zero in every column.
    return freeze(a[:r])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a canonical basis of the integer kernel {x : m*x = 0}.

    The kernel of an integer matrix is automatically saturated.  Returns an
    n x k matrix (k = nullity); n x 0 is represented by n empty rows.
    """
    rows, cols = shape(m)
    _, s, v = smith_normal_form(m)
    nonzero = min(rows, cols)
    free = [j for j in range(cols) if j >= nonzero or s[j][j] == 0]
    gens = [tuple(v[i][j] for i in range(cols)) for j in free]
    if not gens:
        return tuple(() for _ in range(cols))
    return transpose(hermite_row_form(freeze(gens)))


def solve_integer(a: Matrix, b: Vector) -> Vector | None:
    """One integer solution x of a*x = b, or None when unsolvable."""
    rows, cols = shape(a)
    if len(b) != rows:
        raise ValueError("dimension mismatch in solve_integer")
    u, s, v = smith_normal_form(a)
    c = mat_vec(u, b)
    y = [0] * cols
    for i in range(rows):
        d = s[i][i] if i < min(rows, cols) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return mat_vec(v, tuple(y))


def complete_primitive_column(c: Vector) -> Matrix:
    """Unimodular matrix T whose first column is the primitive vector c.

    Euclid steps on c (swap the smallest nonzero entry to the front, make it
    positive, reduce the others by it) reach e1; the inverse of each step is
    applied as a column operation to T, starting from the identity, so T*a = c
    holds for the reduced vector a throughout and T*e1 = c at the end.
    """
    if gcd(*c) != 1:
        raise ValueError("vector is not primitive")
    n = len(c)
    a = list(c)
    t = [list(row) for row in identity(n)]
    while True:
        i0 = min((i for i in range(n) if a[i]), key=lambda i: (abs(a[i]), i))
        a[0], a[i0] = a[i0], a[0]
        for row in t:
            row[0], row[i0] = row[i0], row[0]
        if a[0] < 0:
            a[0] = -a[0]
            for row in t:
                row[0] = -row[0]
        clean = True
        for i in range(1, n):
            if a[i]:
                q = a[i] // a[0]
                a[i] -= q * a[0]
                for row in t:
                    row[0] += q * row[i]
                if a[i]:
                    clean = False
        if clean:
            return freeze(t)
