"""The benchmark's independent output checker, run against the library.

bench/checks.py recomputes every claim with the standard library alone; it is
loaded here by path, as bench/run.py loads it, so the suite sees the same
judge the benchmark applies to nikulin-roundtrip and to the qf-arith manifests.
"""

import ast
import importlib.util
import json
import os
import subprocess
import sys

from k3lat import cli
from k3lat.intlat import IntegralLattice
from k3lat.nikulin import brute_force_embeddings, embedding_to_glue, enumerate_valid_glues

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports checks by its bare name, as bench/run.py puts bench/ on the path.
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_checks_imports_nothing_from_the_package():
    with open(os.path.join(BENCH, "checks.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported
    assert not any(name.split(".")[0] in ("k3lat", "") for name in imported), imported


def test_roundtrip_outputs_pass_the_bench_checker(monkeypatch):
    checks = _load("checks", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    ops = next(workloads.round_stream("nikulin-roundtrip", 1))
    assert len(ops) == 27
    for kind, (gram, n, box), _ in ops:
        assert kind == "roundtrip"
        source = IntegralLattice(gram)
        embeddings = brute_force_embeddings(source, n, box)
        brute_ts = [embedding_to_glue(emb).t for emb in embeddings]
        classified = [glue.t for glue in enumerate_valid_glues(source, n)]
        matrices = [emb.matrix for emb in embeddings]
        assert checks.check_roundtrip(gram, n, brute_ts, matrices, classified) == []


def test_qf_arith_manifests_pass_the_bench_checker(monkeypatch):
    # The checker re-scans each prime-search range with its own primality test
    # and Jacobi symbols, so a residue filter that drops a prime fails here.
    checks = _load("checks", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    ops = [argv for kind, argv, fault in next(workloads.round_stream("qf-arith", 1))
           if kind == "cli" and fault is None]
    assert len(ops) == 34
    assert {argv[0] for argv in ops} == {"rep", "prime-search"}
    for argv in ops:
        code, out = cli.run(argv)
        assert code == 0, argv
        assert checks.check_manifest(json.loads(out), code) == [], argv


def test_bench_selftest_passes():
    # The checkers must still accept real outputs and reject corrupted ones.
    done = subprocess.run(
        [sys.executable, "-B", os.path.join("bench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
