"""k3lat benchmark: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload glue-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ./src.  The
last line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones
(setup_s, ops_per_s, op_p50_ms, op_p90_ms, peak_rss_mib); with --trace 1 the
same rounds run with each operation both plain and under the wrappers of
tracing.py, and the metrics are the per-layer ones plus the tracing overhead.

Operations run back to back in whole rounds until at least --seconds of
operation time and at least MIN_OPS succeeded operations have passed.
Every round runs the same seeded inputs in a new order (see workloads.py),
and the median and the 90th percentile fall on inputs that are the same
whatever the seed.
Each output is checked by checks.py right after it is timed, with the clock
paused.  After the loop one sampled operation is run again, and for CLI
operations its manifest is replayed; both must give the same bytes.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_OPS = 100
ROUNDS_AHEAD = 16
# Set-up is measured again about this often during the run (clock paused),
# so its median spans the whole run, not the host's state in one second.
SETUP_EVERY_S = 2.0
# Stop starting rounds after this much wall time, checks included, so a run
# ends well inside three minutes even on a much slower package.
WALL_CAP_S = 110.0

from checks import check_manifest, check_roundtrip  # noqa: E402
from workloads import (  # noqa: E402
    REPLAY_QR_MANIFEST, REPLAY_QR_SOURCE, WORKLOADS, replay_breaks, round_stream)


def import_package():
    """Import k3lat afresh from ./src (a re-import runs every module again)."""
    for name in [n for n in sys.modules if n == "k3lat" or n.startswith("k3lat.")]:
        del sys.modules[name]
    pkg = importlib.import_module("k3lat")
    importlib.import_module("k3lat.cli")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"k3lat was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def setup(workload: str, seed: int):
    """Import k3lat afresh, draw the seeded round and its first orders;
    returns them with the time taken.  A full collection first keeps garbage
    left by earlier work off the clock."""
    gc.collect()
    t0 = perf_counter()
    pkg = import_package()
    stream = round_stream(workload, seed)
    rounds = [next(stream) for _ in range(ROUNDS_AHEAD)]
    return pkg, stream, rounds, perf_counter() - t0


class SetupSampler:
    """Repeats the set-up between operations, at most every SETUP_EVERY_S.

    Each repeat is a separate import; the operations keep running on the
    first one, whose modules the repeats leave alone."""

    def __init__(self, workload: str, seed: int, first: float):
        self.workload, self.seed = workload, seed
        self.times = [first]
        self.last = perf_counter()

    def __call__(self, op) -> None:
        if perf_counter() - self.last >= SETUP_EVERY_S:
            self.times.append(setup(self.workload, self.seed)[3])
            self.last = perf_counter()


def write_replay_manifest(pkg) -> None:
    """The manifest qf-arith replays in every round (see workloads.py)."""
    code, out = pkg.cli.run(REPLAY_QR_SOURCE)
    if code != 0:
        raise RuntimeError(f"{' '.join(REPLAY_QR_SOURCE)} exited {code}: {out[-300:]!r}")
    os.makedirs(os.path.dirname(REPLAY_QR_MANIFEST), exist_ok=True)
    with open(REPLAY_QR_MANIFEST, "wb") as fh:
        fh.write(out)


def run_op(pkg, op):
    """Execute one operation; returns (exit code, output) or raises."""
    kind, payload, _ = op
    if kind == "cli":
        return pkg.cli.run(payload)
    gram, n, box = payload
    nik = pkg.nikulin
    source = pkg.intlat.IntegralLattice(gram)
    embeddings = nik.brute_force_embeddings(source, n, box)
    brute_ts = [nik.embedding_to_glue(emb).t for emb in embeddings]
    classified = [glue.t for glue in nik.enumerate_valid_glues(source, n)]
    return 0, (brute_ts, [emb.matrix for emb in embeddings], classified)


def output_bytes(out) -> bytes:
    return out if isinstance(out, bytes) else repr(out).encode()


def check_op(op, code, out) -> list[str] | None:
    """Problems with a succeeded operation's output; None when the manifest
    holds integers too long to parse under the digit limit."""
    kind, payload, _ = op
    if kind == "roundtrip":
        gram, n, _ = payload
        brute_ts, matrices, classified = out
        return check_roundtrip(gram, n, brute_ts, matrices, classified)
    try:
        doc = json.loads(out)
    except ValueError as exc:
        if "integer string conversion" in str(exc):
            return None
        return [f"manifest is not JSON: {exc}"]
    return check_manifest(doc, code)


def check_deferred(manifests: list[tuple[int, bytes]]) -> list[str]:
    """Check manifests with over-long integers in a child process, so the
    process-wide digit limit stays in force where operations are timed."""
    if not manifests:
        return []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        path = os.path.join(tmp, "deferred.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump([[code, out.decode()] for code, out in manifests], fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "checks.py"), path],
            capture_output=True, text=True, timeout=60,
        )
    if proc.returncode != 0:
        return [f"deferred check failed: {proc.stderr.strip()[-300:]}"]
    return json.loads(proc.stdout)


class Run:
    """Counts, latencies and problems of one pass over a list of rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.deferred: list[tuple[int, bytes]] = []
        self.digests: list[bytes] = []
        self.probe_op = None
        self.probe_out: bytes | None = None
        self.wall = 0.0
        self.rounds = 0

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def do_round(self, pkg, ops, keep_digests: bool = False, before_op=None) -> None:
        paused = 0.0
        t_round = perf_counter()
        for op in ops:
            if before_op is not None:
                t_hook = perf_counter()
                before_op(op)
                paused += perf_counter() - t_hook
            t0 = perf_counter()
            try:
                code, out = run_op(pkg, op)
                error = None if code in (0, 2) else f"exit {code}"
            except Exception as exc:  # every failure is counted, whatever its type
                code, out, error = None, None, type(exc).__name__
            t1 = perf_counter()
            self.attempted += 1
            if error is not None:
                self.failed += 1
                key = error if op[2] is None else f"{error} ({op[2]})"
                self.failures[key] = self.failures.get(key, 0) + 1
                if op[2] is None:
                    self.problems.append(f"unexpected failure ({error}) of {describe(op)}")
            else:
                self.latencies.append(t1 - t0)
                if op is self.probe_op and self.probe_out is None:
                    self.probe_out = output_bytes(out)
                problems = check_op(op, code, out)
                if problems is None:
                    self.deferred.append((code, out))
                else:
                    self.problems.extend(f"{describe(op)}: {p}" for p in problems)
            if keep_digests:
                self.digests.append(hashlib.sha256(b"" if out is None else output_bytes(out)).digest())
            paused += perf_counter() - t1
        self.wall += perf_counter() - t_round - paused
        self.rounds += 1


def describe(op) -> str:
    kind, payload, _ = op
    return " ".join(payload) if kind == "cli" else f"roundtrip gram={payload[0]} n={payload[1]}"


def probe(pkg, op, first: bytes) -> list[str]:
    """Run a succeeded operation again (and replay its manifest): same bytes."""
    problems = []
    again = output_bytes(run_op(pkg, op)[1])
    if first != again:
        problems.append(f"determinism probe: {describe(op)} gave different bytes on a re-run")
    if op[0] == "cli":
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            path = os.path.join(tmp, "manifest.json")
            with open(path, "wb") as fh:
                fh.write(first)
            _, replayed = pkg.cli.run(["replay", path])
        if replayed != first:
            problems.append(f"determinism probe: replay of {describe(op)} differs from the original")
    return problems


def quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(args) -> dict:
    pkg, stream, rounds, setup_s = setup(args.workload, args.seed)
    write_replay_manifest(pkg)
    sampler = SetupSampler(args.workload, args.seed, setup_s)
    run = Run()
    run.probe_op = random.Random(f"probe:{args.seed}").choice(
        [op for op in rounds[0] if op[2] is None and not replay_breaks(op)])
    started = perf_counter()
    while run.wall < args.seconds or run.succeeded < MIN_OPS:
        if perf_counter() - started > WALL_CAP_S:
            break
        if run.rounds == len(rounds):
            rounds.append(next(stream))
        run.do_round(pkg, rounds[run.rounds], before_op=sampler)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if run.probe_out is None:
        run.problems.append(f"determinism probe: {describe(run.probe_op)} did not succeed")
    else:
        run.problems += probe(pkg, run.probe_op, run.probe_out)
    run.problems += check_deferred(run.deferred)
    metrics = {
        "setup_s": (statistics.median(sampler.times), "s"),
        "ops_per_s": (run.succeeded / run.wall, "ops/s"),
        "op_p50_ms": (statistics.median(run.latencies) * 1e3, "ms"),
        "op_p90_ms": (quantile(run.latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    report(args, run, {"rounds": run.rounds, "succeeded": run.succeeded, "wall_s": round(run.wall, 3),
                       "setups": len(sampler.times)})
    return result(run, metrics)


def measure_traced(args) -> dict:
    from tracing import Tracer

    pkg, _, rounds, _ = setup(args.workload, args.seed)
    write_replay_manifest(pkg)
    # The fewest whole rounds that hold MIN_OPS operations meant to succeed,
    # so the counts depend on the seed alone.
    per_round = sum(1 for op in rounds[0] if op[2] is None)
    todo = rounds[:-(-MIN_OPS // per_round)]
    # Each operation runs plain and traced back to back, in turn first, so
    # the host's changes of speed fall on both passes alike.  The traced pass
    # runs on an import of its own: the wrappers never touch the plain one,
    # and both start with cold caches.
    traced_pkg = import_package()
    tracer = Tracer(traced_pkg)
    tracer.install()
    plain, traced = Run(), Run()

    def plain_op(op):
        plain.do_round(pkg, [op], keep_digests=True)

    def traced_op(op):
        traced.do_round(traced_pkg, [op], keep_digests=True, before_op=tracer.begin_op)

    try:
        for i, op in enumerate(op for ops in todo for op in ops):
            first, second = (plain_op, traced_op) if i % 2 == 0 else (traced_op, plain_op)
            first(op)
            second(op)
    finally:
        tracer.uninstall()
    if plain.digests != traced.digests:
        traced.problems.append("outputs differ with tracing on and off")
    traced.problems += plain.problems
    traced.problems += check_deferred(traced.deferred + plain.deferred)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    report(args, traced, {"rounds": len(todo), "plain_wall_s": round(plain.wall, 3),
                          "traced_wall_s": round(traced.wall, 3), "spans": len(tracer.fn)})
    return result(traced, metrics)


def report(args, run: Run, extra: dict) -> None:
    info = {"workload": args.workload, "seed": args.seed, "attempted": run.attempted,
            "failed": run.failed, "failures_by_type": run.failures, **extra}
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)


def result(run: Run, metrics: dict) -> dict:
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "k3lat", "__init__.py")):
        print(f"error: no package at {SRC}/k3lat; run from the root of a k3lat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    out = measure_traced(args) if args.trace else measure(args)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
