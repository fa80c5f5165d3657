"""Seeded inputs for the four workloads.

The seed draws one round of inputs, and a run attempts that round again and
again, each time in a new seeded order.  Every round of a workload holds the
same bands of inputs, so the share of operations that fail is the same
whatever the seed or the run length.  Inside a band the seed draws from a
pool of inputs of about the same cost (`_deal`), so two seeds load the
package alike while still running different inputs.  The ranks of the
median and the 90th percentile fall on fixed blocks of inputs, between
bands whose costs do not reach them, so those two follow the code rather
than the draw.

An operation is ("cli", argv, expect_fail) or ("roundtrip", (gram, n, box),
expect_fail).  expect_fail names the fault an operation is kept for although
it fails today (see README.md); it is None for operations that must succeed.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from checks import admissible, is_probable_prime

SIZE_LIMIT_FAULT = "size-limit"
DIGIT_LIMIT_FAULT = "digit-limit"
ZARHIN_GCD_FAULT = "zarhin-gcd"
REPLAY_QR_FAULT = "replay-qr"


def _deal(rng: random.Random, pool, count: int) -> list:
    """count entries of pool in a seeded order, each as often as the next
    give or take one."""
    pool = list(pool)
    deck = pool * (count // len(pool)) + rng.sample(pool, count % len(pool))
    rng.shuffle(deck)
    return deck


def _primes_between(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if is_probable_prime(p)]


# ---------------------------------------------------------------------------
# glue-ladder: embed / zarhin over admissible (d, m)

# One round: 27 operations that succeed, cheapest first.  Seeded bands draw
# from pools that pair every admissible (d, m) with embed and zarhin (but
# see ZARHIN_D1_OK); costs are best-of-three times on a 2 GHz Xeon, where
# the host's load can add half again.  The median (14th) and the 90th
# percentile (24th and 25th) fall on fixed blocks that no band's costs
# reach, so they follow the code rather than the draw.  The inputs share
# memoised discriminant data, so an input's cost depends a little on what
# ran before it; the gaps between bands leave room for that.
GLUE_CHEAP = (  # 11 drawn; 8-55 ms, product groups 8 m d^2 of order 40 to 936
    (1, 5), (1, 13), (1, 17), (1, 29), (1, 37), (1, 41), (1, 53), (1, 61), (2, 17), (3, 13))
GLUE_MEDIAN = (("embed", 1, 97), ("embed", 1, 101), ("zarhin", 1, 101), ("embed", 1, 109))
GLUE_D4 = (("embed", 4, 17), ("zarhin", 4, 17))  # 100-135 ms; the only d = 4 pair below the limit
GLUE_MIDDLE = (  # 5 drawn; 170-255 ms
    (1, 137), (1, 149), (1, 173), (1, 181), (1, 193), (1, 197), (2, 73))
GLUE_P90 = (("embed", 1, 257), ("zarhin", 1, 257), ("embed", 3, 61), ("embed", 2, 113))
# The slowest admissible pair below the limit, 8 m d^2 = 8992: one a round.
GLUE_TOP = ((2, 281),)
# Admissible m just past the limit: product groups of order 10216 and 10016.
GLUE_TAIL = (("embed", 1, 1277), ("zarhin", 2, 313))
# zarhin with d = 1 fails on about half of the admissible m (see README.md).
# The seeded pools draw it only from the m below where it succeeds, so the
# failed share does not depend on the seed; ZARHIN_D1_FAULT keeps the fault
# in every round.
ZARHIN_D1_OK = frozenset((5, 13, 17, 37, 41, 61, 101, 149, 197))
ZARHIN_D1_FAULT = ("zarhin", 1, 157)


def _glue_pool(pairs) -> list[tuple[str, int, int]]:
    return [(command, d, m) for d, m in pairs for command in ("embed", "zarhin")
            if command == "embed" or d > 1 or m in ZARHIN_D1_OK]


def _glue_argv(command: str, d: int, m: int) -> list[str]:
    assert admissible(d, m), (d, m)
    return [command, "--d", str(d), "--m", str(m)]


def _glue_round(rng: random.Random) -> list:
    chosen = (_deal(rng, _glue_pool(GLUE_CHEAP), 11) + list(GLUE_MEDIAN + GLUE_D4)
              + _deal(rng, _glue_pool(GLUE_MIDDLE), 5) + list(GLUE_P90)
              + _deal(rng, _glue_pool(GLUE_TOP), 1))
    ops = [("cli", _glue_argv(*op), None) for op in chosen]
    ops += [("cli", _glue_argv(*op), SIZE_LIMIT_FAULT) for op in GLUE_TAIL]
    ops.append(("cli", _glue_argv(*ZARHIN_D1_FAULT), ZARHIN_GCD_FAULT))
    return ops


# ---------------------------------------------------------------------------
# nikulin-roundtrip: brute force vs classification for rank-2 sources

# Nine sources whose brute-force t-set (box 12) matches the classified t-set
# for every n <= 12, each with three n, so every n in 1..12 comes up.  The
# cost of a pair swings by 10x from one n to the next without a pattern, so
# a seeded choice of pairs would move the percentiles; the 27 pairs are the
# same in every run (one round, about 6 s), and the seed varies the order
# and the basis each source is given in.  The pairs are chosen so that no
# gap in cost sits at a percentile: the median (14th) lies among twelve
# pairs of 105-145 ms and the 90th percentile among the six slowest,
# 475-555 ms on a 2 GHz Xeon, with nothing between 265 and 475 ms.  Left
# out for cost: (4,2,2,4) at n = 2 alone takes 2.5 s.
ROUNDTRIP_PAIRS = (
    (((2, 0), (0, 2)), (5, 6, 10)),
    (((2, 0), (0, 4)), (4, 5, 8)),
    (((2, 0), (0, 6)), (3, 6, 9)),
    (((2, 0), (0, 8)), (6, 7, 12)),
    (((2, 1), (1, 2)), (1, 2, 5)),
    (((2, 1), (1, 4)), (1, 3, 11)),
    (((2, 1), (1, 6)), (4, 5, 12)),
    (((2, 1), (1, 8)), (8, 9, 11)),
    (((4, 2), (2, 4)), (1, 9, 10)),
)
ROUNDTRIP_BOX = 12


def _oriented(gram, swap: bool, flip: bool):
    """The same lattice in the basis (e2, e1) and/or (e1, -e2)."""
    (a, b), (_, c) = gram
    if swap:
        a, c = c, a
    if flip:
        b = -b
    return ((a, b), (b, c))


def _roundtrip_round(rng: random.Random) -> list:
    return [("roundtrip", (_oriented(gram, rng.random() < 0.5, rng.random() < 0.5), n,
                           ROUNDTRIP_BOX), None)
            for gram, ns in ROUNDTRIP_PAIRS for n in ns]


# ---------------------------------------------------------------------------
# twist-growth: twisted-run with long n_max

# One round: 25 operations that succeed.  Cost grows with n_max and, less,
# with the digits of ell^n_max; a second NS class (--e) adds up to a half.
# Seeded bands are (n_max values, ell range, operations drawn); each pairs
# every n_max with and without --e, and d is drawn from 1..6.  As in
# glue-ladder, the median (13th) and the 90th percentile (22nd and 23rd)
# fall on fixed blocks of (d, ell, n_max, e), 85-100 ms and 440-510 ms on a
# 2 GHz Xeon, that the bands around them (35-75 and 140-340 ms) do not reach.
TWIST_CHEAP = ((50, 60, 70), (3, 997), 11)
TWIST_MEDIAN = ((1, 3, 120, None), (2, 101, 120, None), (3, 31, 120, None), (6, 997, 120, None))
TWIST_MIDDLE = ((190, 220, 250), (101, 997), 5)
TWIST_P90 = ((1, 3, 400, 4), (3, 101, 400, None), (2, 101, 400, None), (5, 97, 400, None))
# The longest run, fixed: its manifest (5^750 has 525 digits, the partner
# discriminants twice that, in each of 750 records) sets the workload's peak RSS.
TWIST_LONG = (3, 5, 750, None)
# Largest printed integer is h_sq = 2d ell^(2 n_max); stay well inside the
# 4300-digit string limit for every operation meant to succeed.
TWIST_MAX_BITS = 13_000
# Mersenne prime 2^61 - 1: ell^(2*118) has 4334 digits, past the limit.
TWIST_DIGIT_FAULT = ["twisted-run", "--d", "1", "--ell", str(2**61 - 1), "--n-max", "118"]


def _twist_argv(d: int, ell: int, n_max: int, e: int | None) -> list[str]:
    argv = ["twisted-run", "--d", str(d), "--ell", str(ell), "--n-max", str(n_max)]
    return argv if e is None else argv + ["--e", str(e)]


def _twist_band(rng: random.Random, band) -> list:
    n_values, ell_range, count = band
    primes = _primes_between(*ell_range)
    ops = []
    for n_max, with_e in _deal(rng, itertools.product(n_values, (False, True)), count):
        while True:
            ell, d = rng.choice(primes), rng.randint(1, 6)
            e = rng.randint(1, 4) if with_e else None
            if (8 * d * d * (e or 1) * ell ** (2 * n_max)).bit_length() <= TWIST_MAX_BITS:
                break
        ops.append(("cli", _twist_argv(d, ell, n_max, e), None))
    return ops


def _twist_round(rng: random.Random) -> list:
    ops = (_twist_band(rng, TWIST_CHEAP) + _twist_band(rng, TWIST_MIDDLE)
           + [("cli", _twist_argv(*fixed), None)
              for fixed in TWIST_MEDIAN + TWIST_P90 + (TWIST_LONG,)])
    ops.append(("cli", list(TWIST_DIGIT_FAULT), DIGIT_LIMIT_FAULT))
    return ops


# ---------------------------------------------------------------------------
# qf-arith: rep and prime-search

# (operations per round, pool of (rank, ell)).  rep scans all ell^rank
# starting points, so ell is bounded per rank; one rank-3 operation at
# ell = 53 per round is the large case (1.5 * 10^5 points).  34 operations
# a round succeed.  The ten rank-3 operations at ell = 17 cost about the
# same and hold the median (17th and 18th), which prime-search costs (set by
# prime gaps) would otherwise move from seed to seed; the four at rank 3,
# ell = 37 hold the 90th percentile (30th and 31st).  A rank-3 scan at
# ell = 101 (10^6 points, 3.5 s) would take two thirds of a round, so the
# percentiles would sample the host's speed in a small part of the run.
REP_BANDS = (
    (6, ((2, 7), (2, 13), (2, 23), (2, 41), (2, 67), (2, 101))),
    (2, ((3, 7),)),
    (10, ((3, 17),)),
    (1, ((4, 11),)),
    (1, ((3, 29),)),
    (1, ((4, 13),)),
    (4, ((3, 37),)),
    (1, ((3, 53),)),
)
# prime-search: one round deals each minimum exponent, count and
# constraint-set size once; the pairing of the three is seeded.
PRIME_SEARCH_EXPONENTS = (0, 3, 6, 9, 13, 17, 20, 23)
PRIME_SEARCH_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8)
PRIME_SEARCH_SIZES = (1, 1, 2, 2, 2, 3, 3, 3)
QR_VALUES = (-7, -3, 3, 5, 6, 7, 10, 11, 13, 15, 17, 19, 23)
# replay rebuilds "--qr -7,3" from a manifest, which argparse reads as an
# option (see README.md).  Every round replays the manifest of REPLAY_QR_SOURCE,
# written before the timed loop to REPLAY_QR_MANIFEST.
REPLAY_QR_SOURCE = ["prime-search", "--qr=-7,3", "--min", "1000", "--count", "2"]
REPLAY_QR_MANIFEST = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_out", "replay-qr.json")
# modulus 101^2200 has 4410 digits, past the limit.
REP_DIGIT_FAULT = ["rep", "--gram", "[[2,0],[0,-2]]", "--target", "1", "--ell", "101", "--prec", "2200"]


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m))
    )


def _rep_argv(rng: random.Random, rank: int, ell: int) -> list[str]:
    """A form nondegenerate mod ell and a target prime to ell: always representable."""
    while True:
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = 2 * rng.randint(-6, 6)
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-5, 5)
        if _det(gram) % ell:
            break
    target = rng.randint(1, ell - 1) + ell * rng.randint(0, 50)
    return ["rep", "--gram", json.dumps(gram, separators=(",", ":")), "--target", str(target),
            "--ell", str(ell), "--prec", str(rng.randint(10, 40))]


def _prime_search_argv(rng: random.Random, exponent: int, count: int, size: int) -> list[str]:
    values = rng.sample(QR_VALUES, size)
    minimum = rng.randint(10**6, 10**7) * 10**exponent
    return ["prime-search", "--qr=" + ",".join(map(str, values)), "--min", str(minimum),
            "--count", str(count)]


def replay_breaks(op) -> bool:
    """Whether replaying op's manifest hits the fault REPLAY_QR_FAULT keeps."""
    argv = op[1]
    return op[0] == "cli" and argv[0] == "prime-search" and argv[1].startswith("--qr=-")


def _qf_round(rng: random.Random) -> list:
    ops = [("cli", _rep_argv(rng, rank, ell), None)
           for count, pool in REP_BANDS for rank, ell in _deal(rng, pool, count)]
    searches = zip(*(_deal(rng, pool, len(pool)) for pool in
                     (PRIME_SEARCH_EXPONENTS, PRIME_SEARCH_COUNTS, PRIME_SEARCH_SIZES)))
    ops += [("cli", _prime_search_argv(rng, *search), None) for search in searches]
    ops.append(("cli", list(REP_DIGIT_FAULT), DIGIT_LIMIT_FAULT))
    ops.append(("cli", ["replay", REPLAY_QR_MANIFEST], REPLAY_QR_FAULT))
    return ops


# ---------------------------------------------------------------------------

ROUNDS = {
    "glue-ladder": _glue_round,
    "nikulin-roundtrip": _roundtrip_round,
    "twist-growth": _twist_round,
    "qf-arith": _qf_round,
}
WORKLOADS = tuple(ROUNDS)


def round_stream(workload: str, seed: int):
    """The seeded round of one workload, endlessly, each time in a new
    seeded order.  The operations are the same objects in every round."""
    rng = random.Random(f"{workload}:{seed}")
    ops = ROUNDS[workload](rng)
    while True:
        rng.shuffle(ops)
        yield list(ops)
