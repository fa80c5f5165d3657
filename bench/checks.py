"""Output checkers that recompute every claim with the standard library alone.

Nothing here imports k3lat: each checker takes the parsed manifest (or the
library objects' plain data) and returns a list of problems, empty when the
output is right.  Primality uses Miller-Rabin to base 2 followed by a strong
Lucas test (Baillie-PSW), and quadratic residuosity uses the Jacobi symbol by
reciprocity, so neither shares an algorithm with the package.
"""

from __future__ import annotations

import json
import sys
from math import gcd, isqrt


# ---------------------------------------------------------------------------
# number theory


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi needs an odd positive modulus")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_probable_prime_base2(n: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (D, P=1, Q=(1-D)/4)."""
    root = isqrt(n)
    if root * root == n:
        return False
    d = 5
    while True:
        j = jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    p, q = 1, (1 - d) // 4
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    # Binary ladder for U_k, V_k, Q^k modulo n.
    u, v, qk = 0, 2, 1
    inv2 = (n + 1) // 2
    for bit in bin(k)[2:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) * inv2 % n, (d * u + p * v) * inv2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: no composite is known to pass it."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return _strong_probable_prime_base2(n) and _strong_lucas_probable_prime(n)


def valuation(n: int, ell: int) -> int:
    """ell-adic valuation of a nonzero integer, by repeated squaring of ell."""
    n = abs(n)
    if n == 0:
        raise ValueError("valuation of zero")
    powers = [ell]
    while n % (powers[-1] * powers[-1]) == 0:
        powers.append(powers[-1] * powers[-1])
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def admissible(d: int, m: int, t: int = 1, lsq: int | None = None, y0: int = 1) -> bool:
    """The extension congruences for the seed diag(2, lsq) of <2d> + U."""
    lsq = 2 * d if lsq is None else lsq
    modulus = 4 * d * t * (2 * lsq) // gcd(4 * d * t, 2 * lsq)
    return (
        m > 3
        and is_probable_prime(m)
        and m % modulus == 1
        and gcd(m, 24) == 1
        and jacobi(-d, m) == 1
        and jacobi(t, m) == 1
        and gcd(m, y0) == 1
    )


# ---------------------------------------------------------------------------
# lattice arithmetic


def bilinear(gram, x, y) -> int:
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def polarization_gram(n: int):
    """Gram of <2n> + U in the basis (e, f, g)."""
    return ((2 * n, 0, 0), (0, 0, 1), (0, 1, 0))


def _orthogonal_norm(n: int, x, y) -> int:
    """Norm of the primitive vector spanning the complement of x, y in <2n> + U.

    The complement is G^-1 (x cross y) with G^-1 = diag(1/(2n)) + U.
    """
    c = (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])
    z = (c[0], 2 * n * c[2], 2 * n * c[1])
    g = gcd(gcd(z[0], z[1]), z[2])
    z = tuple(v // g for v in z)
    return bilinear(polarization_gram(n), z, z)


def _mukai_pairing(v, w, ns_gram) -> int:
    return bilinear(ns_gram, v["d"], w["d"]) - v["a"] * w["c"] - w["a"] * v["c"]


def _check_extension(problems, d, m, lsq, ext) -> None:
    """Congruences of the extension certificate (t is the degree-2d glue's)."""
    new_t, lam, y0 = ext["new_t"], ext["lambda"], ext["y0"]
    if ext["m"] != m or new_t % m:
        problems.append(f"certificate m/new_t {ext['m']}/{new_t} do not fit m = {m}")
        return
    t = new_t // m
    if lam % (4 * d * t) != 1 % (4 * d * t):
        problems.append(f"lambda {lam} is not 1 mod 4dt = {4 * d * t}")
    if (lam * lam * t * y0 * y0 + d) % m:
        problems.append("lambda^2 t y0^2 + d is not 0 mod m")
    if not admissible(d, m, t, lsq, y0):
        problems.append(f"m = {m} is not admissible for d = {d}")


def check_glue_manifest(doc: dict, code: int) -> list[str]:
    """embed / zarhin manifest: Gram, primitivity, complement norm, congruences."""
    problems: list[str] = []
    command, inputs, out = doc["command"], doc["inputs"], doc["outputs"]
    d, m, lsq = inputs["d"], inputs["m"], inputs["lsq"]
    ext = out["certificate"] if command == "embed" else out["extension"]
    _check_extension(problems, d, m, lsq, ext)
    n = d * m
    if command == "embed":
        if out["ambient_n"] != n:
            problems.append(f"ambient_n {out['ambient_n']} is not m*d = {n}")
        emb = out["embedding"]
        if (emb is None) != (code == 2):
            problems.append(f"exit code {code} does not match the embedding being {emb!r:.20}")
        if emb is not None:
            if emb["target"]["gram"] != [list(r) for r in polarization_gram(n)]:
                problems.append("embedding target is not <2md> + U")
            x = tuple(row[0] for row in emb["matrix"])
            y = tuple(row[1] for row in emb["matrix"])
            g = polarization_gram(n)
            gram = [[bilinear(g, x, x), bilinear(g, x, y)], [bilinear(g, y, x), bilinear(g, y, y)]]
            if gram != [[2, 0], [0, lsq]]:
                problems.append(f"columns have Gram {gram}, expected diag(2, {lsq})")
            minors = (x[0] * y[1] - x[1] * y[0], x[0] * y[2] - x[2] * y[0], x[1] * y[2] - x[2] * y[1])
            if gcd(gcd(minors[0], minors[1]), minors[2]) != 1:
                problems.append("embedding is not primitive (2x2 minors share a factor)")
            elif _orthogonal_norm(n, x, y) != -2 * ext["new_t"]:
                problems.append(f"complement norm is not -2 * new_t = {-2 * ext['new_t']}")
    else:
        if out["r"] != 3 * lsq * lsq:
            problems.append(f"r = {out['r']} is not 3 lsq^2 = {3 * lsq * lsq}")
        if out["ns_gram"] != [[2 * n]]:
            problems.append("NS Gram is not <2md>")
        if (out["status"] == "witness") != (code == 0):
            problems.append(f"status {out['status']} does not match exit code {code}")
        if out["v"] is not None:
            v, l = out["v"], out["l"]
            ns = out["ns_gram"]
            if _mukai_pairing(v, v, ns) != 2:
                problems.append("v^2 is not 2")
            if _mukai_pairing(v, l, ns) != 0:
                problems.append("v . l is not 0")
            if _mukai_pairing(l, l, ns) != lsq:
                problems.append(f"l^2 is not {lsq}")
    return problems


def check_twisted_manifest(doc: dict) -> list[str]:
    """n_v^2 |partner disc| = r^2 |disc NS| per record, strictly rising valuations."""
    problems: list[str] = []
    inputs = doc["inputs"]
    d, ell, e, n_max = inputs["d"], inputs["ell"], inputs["e"], inputs["n_max"]
    disc_ns = 2 * d if e is None else 4 * d * e
    records = doc["outputs"]
    if [rec["n"] for rec in records] != list(range(1, n_max + 1)):
        problems.append("records do not run over n = 1..n_max")
        return problems
    r = 1
    prev = -1
    for rec in records:
        r *= ell
        if rec["r"] != r:
            problems.append(f"n = {rec['n']}: r is not ell^n")
            break
        if rec["n_v"] ** 2 * rec["partner_disc_abs"] != r * r * disc_ns:
            problems.append(f"n = {rec['n']}: n_v^2 |partner disc| != r^2 |disc NS|")
            break
        val = valuation(rec["partner_disc_abs"], ell)
        if val != rec["ell_valuation"] or val <= prev:
            problems.append(f"n = {rec['n']}: ell-valuation {val} is wrong or not rising")
            break
        prev = val
    return problems


def check_rep_manifest(doc: dict) -> list[str]:
    inputs, out = doc["inputs"], doc["outputs"]
    gram, c, ell, prec = inputs["gram"], inputs["target"], inputs["ell"], inputs["prec"]
    modulus = ell**prec
    x = out["x"]["coords"]
    problems = []
    if out["modulus"] != modulus:
        problems.append("modulus is not ell^prec")
    if (bilinear(gram, x, x) - c) % modulus:
        problems.append("x^T G x is not c modulo ell^prec")
    return problems


def qualifies(p: int, values) -> bool:
    return p % 8 == 1 and is_probable_prime(p) and all(jacobi(v, p) == 1 for v in values)


def check_prime_search_manifest(doc: dict) -> list[str]:
    """Every p qualifies, ascending, count reached, and none skipped in range."""
    inputs, primes = doc["inputs"], doc["outputs"]["primes"]
    values, minimum, count = inputs["qr"], inputs["min"], inputs["count"]
    problems = []
    if len(primes) != count:
        problems.append(f"{len(primes)} primes returned, {count} asked")
    if not primes:
        return problems
    if primes[0] < minimum:
        problems.append("first prime lies below the minimum")
    for p in primes:
        if not qualifies(p, values):
            problems.append(f"{p} is not a prime = 1 mod 8 with all values residues")
    returned = set(primes)
    start = max(minimum, 3)
    for p in range(start + (1 - start) % 8, primes[-1] + 1, 8):
        if p not in returned and qualifies(p, values):
            problems.append(f"qualifying prime {p} was skipped")
            break
    if sorted(returned) != primes:
        problems.append("primes are not strictly ascending")
    return problems


def check_manifest(doc: dict, code: int) -> list[str]:
    command = doc["command"]
    if command in ("embed", "zarhin"):
        return check_glue_manifest(doc, code)
    if command == "twisted-run":
        return check_twisted_manifest(doc)
    if command == "rep":
        return check_rep_manifest(doc)
    if command == "prime-search":
        return check_prime_search_manifest(doc)
    return [f"no checker for command {command!r}"]


def check_roundtrip(source, n: int, brute_ts, matrices, classified_ts) -> list[str]:
    """Nikulin round trip: t-sets agree and every brute-force column pair is an isometry."""
    problems = []
    if set(brute_ts) != set(classified_ts):
        problems.append(f"brute-force t-set {sorted(set(brute_ts))} != classified {sorted(set(classified_ts))}")
    target = polarization_gram(n)
    want = [list(row) for row in source]
    for mat in matrices:
        cols = [tuple(row[j] for row in mat) for j in range(2)]
        got = [[bilinear(target, a, b) for b in cols] for a in cols]
        if got != want:
            problems.append(f"embedding {mat} induces {got}, not {want}")
            break
    return problems


def main(path: str) -> int:
    """Check manifests saved as [[exit code, text], ...] with the digit limit
    lifted; prints the problems as a JSON list."""
    sys.set_int_max_str_digits(0)
    with open(path, encoding="ascii") as fh:
        saved = json.load(fh)
    problems = []
    for code, text in saved:
        problems += check_manifest(json.loads(text), code)
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
