"""The checkers accept real outputs and reject corrupted ones.

    python3 bench/selftest.py        (from the root of the checkout)

Real outputs come from small operations on the package in ./src; each test
then corrupts one field and expects the matching checker to object.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from k3lat import cli  # noqa: E402
from run import check_op  # noqa: E402


def manifest(*argv):
    code, out = cli.run(list(argv))
    assert code in (0, 2), out
    return code, json.loads(out)


class NumberTheory(unittest.TestCase):
    def test_primality_matches_trial_division(self):
        def slow(n):
            return n > 1 and all(n % p for p in range(2, int(n**0.5) + 1))

        self.assertEqual([n for n in range(3000) if checks.is_probable_prime(n)],
                         [n for n in range(3000) if slow(n)])
        self.assertTrue(checks.is_probable_prime(2**89 - 1))
        self.assertFalse(checks.is_probable_prime(3215031751))  # strong pseudoprime to 2, 3, 5, 7

    def test_jacobi_matches_euler_criterion(self):
        for p in (3, 5, 7, 11, 13, 101):
            for a in range(-20, 20):
                euler = pow(a % p, (p - 1) // 2, p)
                self.assertEqual(checks.jacobi(a, p), {0: 0, 1: 1, p - 1: -1}[euler])

    def test_valuation(self):
        self.assertEqual(checks.valuation(7**13 * 10, 7), 13)
        self.assertEqual(checks.valuation(-5, 7), 0)

    def test_admissible(self):
        self.assertTrue(checks.admissible(1, 5))
        self.assertFalse(checks.admissible(1, 7))  # not 1 mod 4
        self.assertFalse(checks.admissible(2, 9))  # not prime
        self.assertFalse(checks.admissible(4, 73))  # not 1 mod 16


class GlueChecks(unittest.TestCase):
    def setUp(self):
        self.code, self.doc = manifest("embed", "--d", "1", "--m", "37")
        self.zcode, self.zdoc = manifest("zarhin", "--d", "2", "--m", "17")

    def assertRejects(self, doc, code, fragment):
        problems = checks.check_manifest(doc, code)
        self.assertTrue(any(fragment in p for p in problems), problems)

    def test_real_outputs_pass(self):
        self.assertEqual(checks.check_manifest(self.doc, self.code), [])
        self.assertEqual(checks.check_manifest(self.zdoc, self.zcode), [])

    def test_wrong_gram(self):
        doc = copy.deepcopy(self.doc)
        doc["outputs"]["embedding"]["matrix"][0][1] += 1
        self.assertRejects(doc, self.code, "Gram")

    def test_not_primitive(self):
        # x = (0, 1, 1) and y = (2, 0, 0) have Gram diag(2, 8 n), but their
        # minors share the factor 2.
        doc = copy.deepcopy(self.doc)
        doc["inputs"]["lsq"] = 8 * 37
        doc["outputs"]["embedding"]["matrix"] = [[0, 2], [1, 0], [1, 0]]
        self.assertRejects(doc, self.code, "not primitive")

    def test_wrong_new_t(self):
        doc = copy.deepcopy(self.doc)
        doc["outputs"]["certificate"]["new_t"] *= 5
        self.assertRejects(doc, self.code, "new_t")

    def test_wrong_complement(self):
        doc = copy.deepcopy(self.doc)
        doc["outputs"]["embedding"]["matrix"] = [[0, 1], [1, 3], [1, -3]]
        doc["outputs"]["certificate"]["new_t"] = 37 * 37
        self.assertRejects(doc, self.code, "complement norm")

    def test_wrong_lambda(self):
        doc = copy.deepcopy(self.doc)
        doc["outputs"]["certificate"]["lambda"] += 4
        self.assertRejects(doc, self.code, "lambda^2")

    def test_inadmissible_m(self):
        # m = 25 passes both lambda congruences (y0 = 2) but is not prime.
        doc = copy.deepcopy(self.doc)
        doc["inputs"]["m"] = 25
        doc["outputs"]["certificate"].update(m=25, new_t=25, **{"lambda": 9})
        self.assertEqual(checks.check_manifest(doc, self.code)[0], "m = 25 is not admissible for d = 1")

    def test_exit_code_must_match(self):
        self.assertRejects(self.doc, 2, "exit code")

    def test_zarhin_v_square(self):
        doc = copy.deepcopy(self.zdoc)
        doc["outputs"]["v"]["a"] += 1
        self.assertRejects(doc, self.zcode, "v^2")

    def test_zarhin_orthogonality(self):
        doc = copy.deepcopy(self.zdoc)
        doc["outputs"]["l"] = {"a": 0, "c": 1, "d": [0]}
        self.assertRejects(doc, self.zcode, "v . l")

    def test_zarhin_degree(self):
        doc = copy.deepcopy(self.zdoc)
        doc["outputs"]["r"] += 1
        self.assertRejects(doc, self.zcode, "3 lsq^2")


class TwistChecks(unittest.TestCase):
    def setUp(self):
        _, self.doc = manifest("twisted-run", "--d", "2", "--ell", "5", "--n-max", "6", "--e", "3")

    def test_real_output_passes(self):
        self.assertEqual(checks.check_manifest(self.doc, 0), [])

    def test_partner_identity(self):
        doc = copy.deepcopy(self.doc)
        doc["outputs"][3]["partner_disc_abs"] *= 5
        self.assertIn("n_v^2", " ".join(checks.check_manifest(doc, 0)))

    def test_valuation(self):
        doc = copy.deepcopy(self.doc)
        doc["outputs"][2]["ell_valuation"] += 1
        self.assertIn("valuation", " ".join(checks.check_manifest(doc, 0)))


class QfChecks(unittest.TestCase):
    def test_rep(self):
        _, doc = manifest("rep", "--gram", "[[2,1,0],[1,4,1],[0,1,-6]]", "--target", "5",
                          "--ell", "13", "--prec", "12")
        self.assertEqual(checks.check_manifest(doc, 0), [])
        doc["outputs"]["x"]["coords"][0] += 1
        self.assertIn("x^T G x", " ".join(checks.check_manifest(doc, 0)))

    def test_prime_search(self):
        _, doc = manifest("prime-search", "--qr", "3,-7", "--min", "1000000", "--count", "4")
        self.assertEqual(checks.check_manifest(doc, 0), [])
        primes = doc["outputs"]["primes"]
        composite = copy.deepcopy(doc)
        composite["outputs"]["primes"][1] = primes[1] + 8 * 3 * primes[1]
        self.assertIn("is not a prime", " ".join(checks.check_manifest(composite, 0)))
        skipped = copy.deepcopy(doc)
        nxt = next(p for p in range(primes[-1] + 8, primes[-1] + 10**6, 8) if checks.qualifies(p, [3, -7]))
        skipped["outputs"]["primes"] = primes[:1] + primes[2:] + [nxt]
        self.assertIn("skipped", " ".join(checks.check_manifest(skipped, 0)))


class RoundTripChecks(unittest.TestCase):
    def test_roundtrip(self):
        op = ("roundtrip", (((2, 0), (0, 4)), 3, 12), None)
        from run import import_package, run_op

        pkg = import_package()
        code, out = run_op(pkg, op)
        self.assertEqual(check_op(op, code, out), [])
        brute_ts, matrices, classified = out
        self.assertTrue(check_op(op, code, (brute_ts, matrices, classified + [99])))
        bad = [tuple(tuple(v + 1 for v in row) for row in matrices[0])] + list(matrices[1:])
        self.assertIn("induces", " ".join(check_op(op, code, (brute_ts, bad, classified))))


if __name__ == "__main__":
    unittest.main()
