"""Modular arithmetic services: Legendre symbols, square roots, CRT, QR-prime
search, and representing values of quadratic forms modulo prime powers.

Everything is exact integer arithmetic.  Primality testing is Miller-Rabin with
the primes up to 41 as witnesses, deterministic below psi_13 ~ 3.3 * 10^24; above
it a strong Lucas test is added (BPSW, with no known pseudoprime).  Symbols are
Jacobi symbols by reciprocity, which equal Legendre symbols at a prime.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, isqrt

from . import matrices as mx
from .errors import (
    InvalidInputError,
    NotPrimeError,
    ScanCeilingError,
    UnrepresentableError,
)

# psi_13 is the least strong pseudoprime to all 13 witnesses (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality: deterministic Miller-Rabin below psi_13, BPSW from there on."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_DETERMINISTIC_BOUND or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test for odd n > 41 with Selfridge's P = 1, Q = (1 - D)/4.

    D is the first of 5, -7, 9, -11, ... with (D|n) = -1.  With n + 1 = k 2^s,
    k odd, n passes when U_k = 0 or V_(k 2^r) = 0 mod n for some r < s.
    """
    if isqrt(n) ** 2 == n:  # no D has (D|n) = -1
        return False
    d = 5
    while (symbol := _jacobi(d, n)) != -1:
        if symbol == 0:  # |d| < n shares a factor with n
            return False
        d = 2 - d if d < 0 else -d - 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    k = (n + 1) >> s
    half = (n + 1) // 2
    # Left-to-right ladder from (U_1, V_1, Q^1): double the index, then add 1
    # where k has a set bit, using U_(j+1) = (U_j + V_j)/2, V_(j+1) = (D U_j + V_j)/2.
    u, v, qj = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qj = u * v % n, (v * v - 2 * qj) % n, qj * qj % n
        if bit == "1":
            u, v, qj = (u + v) * half % n, (d * u + v) * half % n, qj * q % n
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qj = (v * v - 2 * qj) % n, qj * qj % n
    return False


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p), as the Jacobi symbol; p must be an odd prime."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotPrimeError(f"{p} is not an odd prime")
    return _jacobi(a, p)


def sqrt_mod_prime(a: int, p: int) -> int:
    """Smaller square root of a modulo the odd prime p (Tonelli-Shanks)."""
    sym = legendre(a, p)
    if sym == -1:
        raise UnrepresentableError(f"{a} is not a quadratic residue modulo {p}")
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        x = pow(a, (p + 1) // 4, p)
        return min(x, p - x)
    # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _jacobi(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2i = t
        i = 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(x, p - x)


def crt(residues: list[tuple[int, int]]) -> int:
    """Solution in [0, prod(m_i)) of x = r_i mod m_i for pairwise coprime moduli."""
    if not residues:
        return 0
    x, m = residues[0]
    x %= m
    for r, mod in residues[1:]:
        g = gcd(m, mod)
        if g != 1:
            raise InvalidInputError(f"moduli {m} and {mod} are not coprime")
        # x + m*k = r mod mod
        k = ((r - x) * pow(m, -1, mod)) % mod
        x += m * k
        m *= mod
    return x % m


@dataclass(frozen=True)
class QRConstraint:
    """Integers that must all be quadratic residues modulo the sought prime."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        if any(v == 0 for v in vals):
            raise InvalidInputError("constraint values must be nonzero")
        object.__setattr__(self, "values", vals)


def prime_search(
    constraint: QRConstraint,
    minimum: int,
    count: int,
    scan_ceiling: int | None = None,
) -> list[int]:
    """First `count` primes p >= minimum with p = 1 mod 8 and (x|p) = 1 for all x.

    The congruence p = 1 mod 8 makes -1 and 2 automatic residues.  Jacobi symbols,
    which need no modular power, screen each candidate before BPSW does; at a
    prime they are the Legendre symbols.  Results are in ascending order.
    """
    if count < 1:
        raise InvalidInputError("count must be at least 1")
    out: list[int] = []
    start = max(minimum, 3)
    p = start + ((1 - start) % 8)
    while len(out) < count:
        if scan_ceiling is not None and p > scan_ceiling:
            raise ScanCeilingError(
                f"no further primes below the scan ceiling {scan_ceiling}; found {out}"
            )
        if all(_jacobi(x, p) == 1 for x in constraint.values) and is_prime(p):
            out.append(p)
        p += 8
    return out


def _form_value(gram: mx.Matrix, x: tuple[int, ...], modulus: int) -> int:
    total = 0
    n = len(x)
    for i in range(n):
        if x[i]:
            row = gram[i]
            total += x[i] * sum(row[j] * x[j] for j in range(n))
    return total % modulus


def represent_value(
    gram, c: int, ell: int, k: int
) -> tuple[int, ...]:
    """Vector x with x^T G x = c mod ell^k, by an F_ell solution plus Newton lifting.

    Requires det(G) nonzero mod ell.  F_ell^rank is scanned lazily in lex order
    to the first solution whose gradient 2*G*x is nonzero mod ell; its first such
    coordinate is lifted by Newton steps that double the precision up to ell^k.
    The slope inverse is lifted alongside by a Newton step: the residual at a
    step to old^2 is a multiple of old, so the inverse is needed modulo old only.
    The lift of that coordinate is unique, so any lifting method gives this result.
    """
    g = mx.freeze(gram)
    n = len(g)
    if n == 0:
        raise UnrepresentableError("rank-0 form represents nothing")
    if k < 1:
        raise InvalidInputError("precision must be at least 1")
    if ell < 3 or not is_prime(ell):
        raise NotPrimeError(f"{ell} is not an odd prime")
    if mx.det(g) % ell == 0:
        raise UnrepresentableError(
            f"Gram determinant is divisible by {ell}; the mod-{ell} form is degenerate"
        )
    target = c % ell
    represented = False
    for x0 in itertools.product(range(ell), repeat=n):
        if _form_value(g, x0, ell) != target:
            continue
        represented = True
        pivot = next((i for i, v in enumerate(mx.mat_vec(g, x0)) if v % ell), None)
        if pivot is not None:
            break
    else:
        if not represented:
            raise UnrepresentableError(f"form does not represent {c} modulo {ell}")
        raise UnrepresentableError(
            f"every mod-{ell} solution is a singular point of the form; cannot lift"
        )
    x, modulus, top = list(x0), ell, ell**k
    inv = pow(2 * sum(a * b for a, b in zip(g[pivot], x)), -1, ell)
    while modulus < top:
        old, modulus = modulus, min(modulus * modulus, top)
        slope = 2 * sum(a * b for a, b in zip(g[pivot], x))
        inv = inv * (2 - slope * inv) % old
        residual = _form_value(g, tuple(x), modulus) - c
        x[pivot] = (x[pivot] - residual * inv) % modulus
    if _form_value(g, tuple(x), top) != c % top:
        raise UnrepresentableError("Hensel lifting failed to reach the target precision")
    return tuple(x)
