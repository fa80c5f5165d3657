"""Acceptance suite: one test per criterion, every check exact, one summary
line printed per criterion (visible with pytest -s / -rA)."""

import json
import random

from k3lat.cli import EXIT_OK, run
from k3lat.intlat import IntegralLattice
from k3lat.matrices import det, freeze
from k3lat.modarith import QRConstraint, is_prime, prime_search, represent_value
from k3lat.mukai import (
    MukaiVector,
    NeronSeveriData,
    disc_comparison_chain,
    fujiki_degree,
)
from k3lat.nikulin import (
    admissible_m,
    brute_force_embeddings,
    embedding_to_glue,
    enumerate_valid_glues,
    extend_glue,
    realize_embedding,
)
from k3lat.twisted import (
    TranscendentalModel,
    divisibility_nv,
    partner_disc,
    twisted_disc_identity,
    twisted_lattice,
    witness_sequence,
)
from k3lat.zarhin import build_seed, zarhin_constants

DIAG22 = IntegralLattice(((2, 0), (0, 2)))
DIAG24 = IntegralLattice(((2, 0), (0, 4)))


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def random_even_gram(rng, rank, bound, positive_first=True):
    """Symmetric even-diagonal Gram with entries bounded in absolute value."""
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1):
            val = rng.randint(-bound, bound)
            if i == j:
                val = 2 * rng.randint(-bound // 2, bound // 2)
            gram[i][j] = gram[j][i] = val
    if positive_first:
        gram[0][0] = 2 * rng.randint(1, bound // 2)
    return freeze(gram)


def test_criterion_1_fujiki_degree():
    for q in range(1, 101):
        assert fujiki_degree(q, 2) == 3 * q * q
    assert zarhin_constants(1, 2).r == 12
    report(1, "fujiki_degree(q,2) = 3q^2 on q in [1,100]; seed degree r = 12")


def test_criterion_2_embedding_extension():
    checked = []
    for d in (1, 2, 3):
        seed = build_seed(d)
        glue = embedding_to_glue(seed.embedding)
        primes, m = [], 2
        while len(primes) < 3:
            if admissible_m(glue, m)[0]:
                primes.append(m)
            m += 1
        for m in primes:
            extended, cert = extend_glue(glue, m)
            result = realize_embedding(seed.lattice, extended, 12)
            assert result.found, (d, m)
            emb = result.embedding
            # Exact isometry is enforced by the embedding constructor; recheck.
            lhs = tuple(
                tuple(
                    emb.target.pairing(emb.column(i), emb.column(j))
                    for j in range(2)
                )
                for i in range(2)
            )
            assert lhs == seed.lattice.gram
            from k3lat.matrices import smith_invariants

            assert smith_invariants(emb.matrix) == (1, 1)
            checked.append((d, m))
    # The worked witness for d = 1, m = 5 within search bound 8.
    seed = build_seed(1)
    glue = embedding_to_glue(seed.embedding)
    extended, _ = extend_glue(glue, 5)
    result = realize_embedding(DIAG22, extended, 8)
    assert result.embedding.columns() == [(0, 1, 1), (1, 2, -2)]
    report(2, f"extended embeddings realized for (d, m) in {checked}; "
              "d=1, m=5 witness is (0,1,1),(1,2,-2)")


def test_criterion_3_nikulin_round_trip():
    cases = 0
    for source in (DIAG22, DIAG24):
        for n in range(1, 11):
            embeddings = brute_force_embeddings(source, n, 12)
            ts = set()
            for emb in embeddings:
                glue = embedding_to_glue(emb)
                glue.validate()
                ts.add(glue.t)
            glues = enumerate_valid_glues(source, n)
            # Completeness both ways at the level of the classifying t.
            assert {g.t for g in glues} == ts
            cases += len(embeddings)
    report(3, f"glue validity and witness existence agree on {cases} brute-force embeddings")


def test_criterion_4_twisted_disc_identity():
    rng = random.Random(1404)
    combos = [(ell, n) for ell in (5, 7) for n in (1, 2, 3)]
    checked = 0
    while checked < 100:
        rank = rng.randint(1, 4)
        gram = random_even_gram(rng, rank, 20)
        if det(gram) == 0:
            continue
        ns = NeronSeveriData(gram)
        trans = TranscendentalModel(((-gram[0][0],),))
        ell, n = combos[checked % len(combos)]
        lhs, rhs, equal = twisted_disc_identity(ns, trans, ell**n)
        assert equal and lhs == ell ** (2 * n) * ns.lattice().disc_abs
        checked += 1
    report(4, "twisted discriminant identity |disc| = r^2 |disc NS| on 100 random Grams")


def test_criterion_5_partner_disc_identity():
    rng = random.Random(1404)  # same fuzz set as criterion 4
    combos = [(ell, n) for ell in (5, 7) for n in (1, 2, 3)]
    checked = 0
    while checked < 100:
        rank = rng.randint(1, 4)
        gram = random_even_gram(rng, rank, 20)
        if det(gram) == 0:
            continue
        ns = NeronSeveriData(gram)
        trans = TranscendentalModel(((-gram[0][0],),))
        ell, n = combos[checked % len(combos)]
        twist = twisted_lattice(ns, trans, ell**n)
        d_coeffs = tuple(1 if i == 0 else 0 for i in range(rank))
        v1 = twist.vector(1, 0, d_coeffs)
        assert twist.norm(v1) == 0
        rep = partner_disc(twist, v1)
        assert rep.identity_holds
        assert rep.n_v == divisibility_nv(twist, v1)
        checked += 1
    report(5, "partner identity n_v^2 |disc(v_perp/Zv)| = r^2 |disc NS| on 100 random Grams")


def test_criterion_6_witness_growth():
    first = prime_search(QRConstraint((2, -1, -2)), 3, 1)[0]
    assert first == 17
    for ell in (first, 5):
        records = witness_sequence(1, ell, 5)
        assert is_prime(ell)
        vals = []
        for rec in records:
            assert rec.identities["v_sq_zero"]
            assert rec.identities["h_sq"] == 2 * ell ** (2 * rec.n)
            assert rec.n_v**2 <= 4
            # ell never divides 2d * disc NS = 4 here, so the valuation is exactly 2n.
            assert rec.ell_valuation == 2 * rec.n
            vals.append(rec.ell_valuation)
        assert all(b > a for a, b in zip(vals, vals[1:]))
    report(6, f"witness sequences at ell = {first} and 5 grow with valuation exactly 2n, n <= 5")


def test_criterion_7_disc_comparison_chain():
    rng = random.Random(2108)
    checked = 0
    squares = []
    while checked < 50:
        rank = rng.randint(1, 3)
        gram = random_even_gram(rng, rank, 8)
        if det(gram) == 0:
            continue
        ns = NeronSeveriData(gram)
        a = rng.randint(-4, 4)
        c = rng.randint(-4, 4)
        d = tuple(rng.randint(-3, 3) for _ in range(rank))
        v = MukaiVector(a, d, c)
        if not v.is_primitive():
            continue
        from k3lat.mukai import mukai_square

        sq = mukai_square(v, ns)
        if sq not in (2, 4, 6):
            continue
        report_v = disc_comparison_chain(ns, v)
        assert report_v.identity_holds
        assert report_v.inequality_holds
        squares.append(sq)
        checked += 1
    assert {2, 4, 6} <= set(squares)
    report(7, "v^2 |disc v_perp| = i^2 |disc N| and the inequality on 50 random (NS, v)")


def test_criterion_8_hensel_representation():
    rng = random.Random(811)
    targets = [1] + [-2 * d for d in range(1, 6)]
    checked = 0
    while checked < 50:
        ell = (7, 11)[checked % 2]
        rank = rng.randint(2, 3)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i + 1):
                val = rng.randint(-9, 9)
                gram[i][j] = gram[j][i] = val
        g = freeze(gram)
        if det(g) % ell == 0:
            continue
        for c in targets:
            x = represent_value(g, c, ell, 10)
            val = sum(x[i] * g[i][j] * x[j] for i in range(rank) for j in range(rank))
            assert val % ell**10 == c % ell**10
        checked += 1
    report(8, "represent_value hits every target modulo ell^10 on 50 random Grams")


def test_criterion_9_manifest_determinism(tmp_path):
    argv_sets = [
        ["zarhin", "--d", "1", "--m", "5"],
        ["embed", "--d", "2", "--m", "17"],
        ["twisted-run", "--d", "1", "--ell", "5", "--n-max", "3"],
        ["--format", "csv", "twisted-run", "--d", "1", "--ell", "5", "--n-max", "3"],
        ["prime-search", "--qr", "2,-1,-2", "--count", "3"],
        ["rep", "--gram", "[[2,0],[0,-2]]", "--target", "1", "--ell", "7", "--prec", "10"],
        ["disc-chain", "--ns-gram", "[[2]]", "--v", "1,0,-1"],
        ["mukai", "--ns-gram", "[[2]]", "--v", "1,0,-1"],
    ]
    for argv in argv_sets:
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert (code1, out1) == (code2, out2), argv
        if "csv" in argv:
            continue
        assert code1 == EXIT_OK
        path = tmp_path / "manifest.json"
        path.write_bytes(out1)
        code3, out3 = run(["replay", str(path)])
        assert (code3, out3) == (code1, out1), argv
        json.loads(out1.decode())
    report(9, "re-running and replaying manifests is byte-identical across 8 commands")
