import itertools
import random

import oracles
import pytest

import k3lat.modarith
from k3lat import matrices as mx
from k3lat.errors import (
    InvalidInputError,
    K3latError,
    NotPrimeError,
    ScanCeilingError,
    UnrepresentableError,
)
from k3lat.modarith import (
    QRConstraint,
    _jacobi,
    crt,
    is_prime,
    legendre,
    prime_search,
    represent_value,
    sqrt_mod_prime,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 101, 7919}
    for n in range(-5, 100):
        assert is_prime(n) == (n in primes or (n > 40 and is_prime_naive(n)))


# psi_12 = 399165290221 * 798330580441 and psi_13 are the least strong
# pseudoprimes to the first 12 and 13 prime bases.
PSI_12 = 318_665_857_834_031_151_167_461
PSI_13 = 3_317_044_064_679_887_385_961_981


def test_is_prime_rejects_strong_pseudoprimes():
    assert 399_165_290_221 * 798_330_580_441 == PSI_12
    assert not is_prime(PSI_12)
    assert not is_prime(PSI_13)
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1) and is_prime(2**521 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    assert not is_prime((2**89 - 1) ** 2)


def test_is_prime_matches_sympy_large():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(14)
    for _ in range(2000):
        n = rng.randrange(10**24, 10**40) | 1
        assert is_prime(n) == sympy.isprime(n), n


def is_prime_naive(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_legendre_examples():
    assert legendre(-1, 5) == 1
    assert legendre(-1, 3) == -1
    assert legendre(2, 17) == 1
    assert legendre(0, 7) == 0
    with pytest.raises(NotPrimeError):
        legendre(3, 15)
    with pytest.raises(NotPrimeError):
        legendre(3, 2)


def test_sqrt_mod_prime_examples():
    assert sqrt_mod_prime(4, 7) == 2
    assert sqrt_mod_prime(-1, 5) == 2
    assert sqrt_mod_prime(2, 17) == 6
    with pytest.raises(UnrepresentableError):
        sqrt_mod_prime(3, 7)


def test_sqrt_mod_prime_fuzz():
    rng = random.Random(11)
    primes = [p for p in range(3, 10_000) if is_prime(p)]
    for _ in range(300):
        p = rng.choice(primes)
        a = rng.randrange(p)
        if legendre(a, p) == -1:
            continue
        x = sqrt_mod_prime(a, p)
        assert x * x % p == a % p
        assert 0 <= x <= p // 2


def test_crt_examples():
    assert crt([(1, 4), (2, 5)]) == 17
    assert crt([(0, 7)]) == 0
    assert crt([(1, 4), (0, 5), (2, 7)]) == 65
    with pytest.raises(ValueError):
        crt([(1, 4), (1, 6)])


def test_crt_reduces_to_residues():
    rng = random.Random(12)
    for _ in range(50):
        moduli = rng.sample([3, 4, 5, 7, 11, 13], k=3)
        residues = [(rng.randrange(m), m) for m in moduli]
        x = crt(residues)
        for r, m in residues:
            assert x % m == r


def test_prime_search_examples():
    assert prime_search(QRConstraint((2, -1)), 3, 1) == [17]
    assert prime_search(QRConstraint(()), 3, 1) == [17]
    assert prime_search(QRConstraint((-2,)), 3, 1) == [17]
    hits = prime_search(QRConstraint((2, -1, -2)), 3, 3)
    assert hits[0] == 17
    for p in hits:
        assert p % 8 == 1
        for x in (2, -1, -2):
            assert legendre(x, p) == 1
    with pytest.raises(ScanCeilingError):
        prime_search(QRConstraint((2,)), 3, 5, scan_ceiling=20)


QR_POOL = (1, 2, 3, 4, 5, 6, 7, 10, 11, 13, 15, 17, 19, 23, 41, 73, 89, 97, 113, 137)
# Pool values that are primes = 1 mod 8: a search from at or below one of them
# meets a candidate p with (x|p) = 0.
SPLIT_PRIMES = (17, 41, 73, 89, 97, 113, 137)
PSI_13 = 3_317_044_064_679_887_385_961_981


def _prime_search_case(rng):
    values = [rng.choice((1, -1)) * v for v in rng.sample(QR_POOL, rng.randint(0, 4))]
    kind = rng.randrange(4)
    if kind == 0:
        q = rng.choice(SPLIT_PRIMES)
        if q not in map(abs, values):
            values = values[1:] + [rng.choice((q, -q))]
        minimum = q - rng.randint(0, 40)
    elif kind == 1:
        minimum = rng.randint(-5, 300)
    elif kind == 2:  # the search crosses the switch from Miller-Rabin alone to BPSW
        minimum = PSI_13 - rng.randint(0, 10**4)
    else:
        minimum = rng.randint(1, 10 ** rng.randint(1, 30))
    count = rng.randint(1, 6)
    ceiling = None
    if rng.random() < 0.4:
        ceiling = max(minimum, 3) + rng.randint(0, 300 * 2 ** len(values))
    return QRConstraint(tuple(values)), minimum, count, ceiling


def test_prime_search_matches_bpsw_first_oracle():
    rng = random.Random(31)
    kinds = set()
    for _ in range(300):
        case = _prime_search_case(rng)
        constraint, minimum, _, _ = case
        got = _outcome(prime_search, *case)
        assert got == _outcome(oracles.prime_search_bpsw_first, *case), case
        if isinstance(got[0], type):
            kinds.add("ceiling, some found" if "found []" not in got[1] else "ceiling")
        elif any(minimum <= abs(x) < got[-1] and abs(x) in SPLIT_PRIMES
                 for x in constraint.values):
            kinds.add("passed a zero symbol")
        else:
            kinds.add("ok")
    assert kinds == {"ok", "passed a zero symbol", "ceiling", "ceiling, some found"}


def test_jacobi_matches_sympy_and_euler():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 3000, 2):
        prime = is_prime(n)
        for a in range(-60, 61):
            got = _jacobi(a, n)
            assert got == sympy.jacobi_symbol(a, n), (a, n)
            if prime:
                euler = pow(a, (n - 1) // 2, n)
                assert got == (-1 if euler == n - 1 else euler), (a, n)


def test_represent_value_examples():
    g = ((2, 0), (0, -2))
    x = represent_value(g, 1, 7, 1)
    assert (2 * x[0] ** 2 - 2 * x[1] ** 2) % 7 == 1

    assert represent_value(((2,),), 2, 7, 3) == (1,)

    y = represent_value(g, -2, 7, 3)
    val = 2 * y[0] ** 2 - 2 * y[1] ** 2
    assert val % 7**3 == (-2) % 7**3


def test_represent_value_errors():
    with pytest.raises(UnrepresentableError):
        represent_value(((2,),), 3, 7, 1)  # 3/2 = 5 is not a QR mod 7
    with pytest.raises(UnrepresentableError, match="does not represent 3 modulo 7"):
        represent_value(((2,),), 3, 7, 4)
    # x = 0 is the only solution of 2x^2 = 0 or of an anisotropic binary form = 0.
    for gram, c in (((2,),), 14), (((2, 0), (0, 2)), 0):
        with pytest.raises(UnrepresentableError, match="every mod-7 solution is a singular"):
            represent_value(gram, c, 7, 3)
    with pytest.raises(UnrepresentableError):
        represent_value(((7,),), 1, 7, 1)  # degenerate mod 7
    with pytest.raises(NotPrimeError):
        represent_value(((2,),), 1, 4, 1)


def test_represent_value_hensel_coherence():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 3)
        ell = rng.choice([7, 11])
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                v = rng.randint(-5, 5)
                gram[i][j] = gram[j][i] = v
        from k3lat.matrices import det, freeze

        g = freeze(gram)
        if det(g) % ell == 0:
            continue
        c = rng.choice([1, -2, 3, -4])
        if n == 1:
            try:
                x = represent_value(g, c, ell, 4)
            except UnrepresentableError:
                continue
        else:
            x = represent_value(g, c, ell, 4)
        val = sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n))
        assert val % ell**4 == c % ell**4
        # One step further preserves the value mod ell^4.
        x5 = represent_value(g, c, ell, 5)
        val5 = sum(x5[i] * g[i][j] * x5[j] for i in range(n) for j in range(n))
        assert val5 % ell**4 == c % ell**4


def _represent_value_oracle(gram, c, ell, k):
    """The full-scan algorithm: every F_ell solution, then single-digit Hensel steps."""
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

    def value(x, modulus):
        return sum(x[i] * g[i][j] * x[j] for i in range(n) for j in range(n)) % modulus

    target = c % ell
    starts = [x for x in itertools.product(range(ell), repeat=n) if value(x, ell) == target]
    if not starts:
        raise UnrepresentableError(f"form does not represent {c} modulo {ell}")
    for x0 in starts:
        grad = [2 * v % ell for v in mx.mat_vec(g, x0)]
        pivot = next((i for i, v in enumerate(grad) if v), None)
        if pivot is None:
            continue
        inv = pow(grad[pivot], -1, ell)
        x = list(x0)
        modulus = ell
        for _ in range(k - 1):
            residual = (c - value(x, modulus * ell)) % (modulus * ell)
            x[pivot] += (residual // modulus * inv % ell) * modulus
            modulus *= ell
        result = tuple(v % ell**k for v in x)
        assert value(result, ell**k) == c % ell**k
        return result
    raise UnrepresentableError(
        f"every mod-{ell} solution is a singular point of the form; cannot lift"
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except K3latError as exc:
        return type(exc), str(exc)


def test_represent_value_matches_full_scan_oracle():
    rng = random.Random(15)
    primes = [p for p in range(3, 38) if is_prime(p)]
    kinds = set()
    for _ in range(600):
        n = rng.randint(1, 4)
        ell = rng.choice([p for p in primes if p**n <= 6000])
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                gram[i][j] = gram[j][i] = rng.randint(-9, 9)
        c = rng.randint(-3 * ell, 3 * ell) if rng.random() < 0.7 else ell * rng.randint(-3, 3)
        k = rng.randint(1, 30)
        got = _outcome(represent_value, gram, c, ell, k)
        assert got == _outcome(_represent_value_oracle, gram, c, ell, k), (gram, c, ell, k)
        kinds.add(got[1].split()[0] if isinstance(got[0], type) else "ok")
    assert kinds == {"ok", "Gram", "form", "every"}


def test_represent_value_scan_stops_at_first_liftable_point(monkeypatch):
    calls = []
    form_value = k3lat.modarith._form_value

    def counted(*args):
        calls.append(1)
        return form_value(*args)

    monkeypatch.setattr(k3lat.modarith, "_form_value", counted)
    gram = ((2, 1, 0), (1, 2, 1), (0, 1, 4))
    x = represent_value(gram, 7, 101, 12)
    assert len(calls) <= 2 * 101
    assert form_value(gram, x, 101**12) == 7


def test_represent_value_high_precision():
    g = ((2, 0), (0, -2))
    x = represent_value(g, 1, 101, 2200)
    assert (2 * x[0] ** 2 - 2 * x[1] ** 2) % 101**2200 == 1


def test_represent_value_matches_oracle_at_high_precision():
    # Past k = 30 the slope inverse modulo the previous precision is large.
    rng = random.Random(64)
    outcomes = []
    for k in (64, 257, 600):
        for n, ell in ((1, 3), (2, 3), (3, 3), (1, 7), (2, 7), (3, 7), (1, 101), (2, 101)):
            gram = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    gram[i][j] = gram[j][i] = rng.randint(-9, 9)
            c = rng.randint(-10**6, 10**6)
            got = _outcome(represent_value, gram, c, ell, k)
            assert got == _outcome(_represent_value_oracle, gram, c, ell, k), (gram, c, ell, k)
            outcomes.append(not isinstance(got[0], type))
    assert sum(outcomes) >= 2 * len(outcomes) // 3
