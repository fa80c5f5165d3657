import json
import sys

import pytest

import k3lat.cli
from k3lat.cli import (
    EXIT_CERTIFICATE_ONLY,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    SCAN_CEILING_ENV,
    run,
)
from k3lat.errors import InternalConsistencyError, NotPrimeError
from k3lat.twisted import witness_sequence


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return str(path)


def payload_of(argv):
    code, out = run(argv)
    assert code in (EXIT_OK, EXIT_CERTIFICATE_ONLY), out.decode()
    return code, json.loads(out.decode())


def test_disc_form(tmp_path):
    path = write(tmp_path, "l10.json", {"rank": 1, "gram": [[10]]})
    code, doc = payload_of(["disc-form", path])
    assert code == EXIT_OK
    assert doc["outputs"] == {"orders": [10], "q": ["1/10"], "b": [["1/10"]]}
    assert doc["checks"] == [["order_matches_det", True]]

    u_path = write(tmp_path, "u.json", {"rank": 2, "gram": [[0, 1], [1, 0]]})
    _, doc = payload_of(["disc-form", u_path])
    assert doc["outputs"]["orders"] == []


def test_disc_form_malformed(tmp_path):
    path = write(tmp_path, "bad.json", "{not json")
    code, out = run(["disc-form", path])
    assert code == EXIT_INVALID
    assert b"line 1" in out and b"column" in out


def test_embed_exit_codes():
    code, doc = payload_of(["embed", "--d", "1", "--m", "5", "--search-bound", "8"])
    assert code == EXIT_OK
    assert doc["outputs"]["status"] == "witness"
    matrix = doc["outputs"]["embedding"]["matrix"]
    assert matrix == [[0, 1], [1, 2], [1, -2]]
    assert doc["outputs"]["certificate"]["m"] == 5

    code, out = run(["embed", "--d", "1", "--m", "3"])
    assert code == EXIT_INVALID

    code, doc = payload_of(["embed", "--d", "1", "--m", "5", "--search-bound", "0"])
    assert code == EXIT_CERTIFICATE_ONLY
    assert doc["outputs"]["status"] == "certificate_only"
    assert doc["outputs"]["embedding"] is None


def test_zarhin_cli():
    code, doc = payload_of(["zarhin", "--d", "1", "--m", "5"])
    assert code == EXIT_OK
    assert doc["outputs"]["r"] == 12
    assert doc["outputs"]["q_l"] == 2
    assert doc["outputs"]["v"] == {"a": 1, "d": [0], "c": -1}


@pytest.mark.parametrize("m", [29, 157, 397])
def test_zarhin_skips_witnesses_failing_condition_c(m):
    # The first embedding witness for these m has gcd(rk, H.c1, lambda) = 2.
    code, doc = payload_of(["zarhin", "--d", "1", "--m", str(m)])
    assert code == EXIT_OK
    assert doc["outputs"]["status"] == "witness"
    assert doc["outputs"]["checks"]["condition_C"]["passed"] is True


def test_internal_error_exit_code(monkeypatch):
    def broken(*args):
        raise InternalConsistencyError("simulated")

    monkeypatch.setattr(k3lat.cli, "zarhin_construct", broken)
    assert run(["zarhin", "--d", "1", "--m", "5"]) == (EXIT_INTERNAL, b"error: simulated\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_output_digit_limit(fmt):
    # The partner discriminant at n = 20 is about ell^40, some 740 digits.
    argv = ["--format", fmt, "twisted-run", "--d", "1", "--ell", str(2**61 - 1), "--n-max", "20"]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run(argv)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == EXIT_INVALID
    assert out.startswith(b"error: manifest serialization:") and b"640" in out
    assert out.count(b"\n") == 1 and out.endswith(b"\n")


def test_twisted_run_json_and_csv(tmp_path):
    code, doc = payload_of(["twisted-run", "--d", "1", "--ell", "5", "--n-max", "3"])
    assert code == EXIT_OK
    h_sq = [row["identities"]["h_sq"] for row in doc["outputs"]]
    assert h_sq == [50, 1250, 31250]

    code, out = run(["--format", "csv", "twisted-run", "--d", "1", "--ell", "5", "--n-max", "3"])
    assert code == EXIT_OK
    lines = out.decode().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "n,r,v_sq,h_sq,n_v,partner_disc_abs,ell_valuation"
    assert lines[2].split(",") == ["1", "5", "0", "50", "1", "50", "2"]

    # --format applies to replay too: the JSON manifest replays to the same CSV.
    manifest_path = tmp_path / "m.json"
    manifest_path.write_bytes(run(["twisted-run", "--d", "1", "--ell", "5", "--n-max", "3"])[1])
    assert run(["--format", "csv", "replay", str(manifest_path)]) == (code, out)

    code, out = run(["twisted-run", "--d", "1", "--ell", "4", "--n-max", "2"])
    assert code == EXIT_INVALID
    assert b"prime" in out


def test_twisted_run_rejects_strong_pseudoprime_ell():
    # psi_12, the least strong pseudoprime to every prime base up to 37.
    psi_12 = "318665857834031151167461"
    code, out = run(["twisted-run", "--d", "1", "--ell", psi_12, "--n-max", "1"])
    assert code == EXIT_INVALID
    assert out == b"error: " + psi_12.encode() + b" is not prime\n"
    with pytest.raises(NotPrimeError):
        witness_sequence(1, int(psi_12), 1)


def test_prime_search_cli():
    code, doc = payload_of(["prime-search", "--qr", "2,-1", "--min", "3", "--count", "2"])
    assert code == EXIT_OK
    assert doc["outputs"]["primes"][0] == 17

    code, out = run(["--scan-ceiling", "20", "prime-search", "--qr", "2", "--count", "5"])
    assert code == EXIT_INVALID


def test_rep_cli(tmp_path):
    code, doc = payload_of(
        ["rep", "--gram", "[[2,0],[0,-2]]", "--target", "-2", "--ell", "7", "--prec", "3"]
    )
    assert code == EXIT_OK
    assert doc["checks"] == [["congruence", True]]

    # --gram also accepts the path of a lattice object or of a bare matrix.
    path = write(tmp_path, "g.json", {"gram": [[2]]})
    code, doc = payload_of(["rep", "--gram", path, "--target", "2", "--ell", "7"])
    assert doc["outputs"]["x"] == {"coords": [1]}
    bare = write(tmp_path, "bare.json", [[2]])
    code, doc2 = payload_of(["rep", "--gram", bare, "--target", "2", "--ell", "7"])
    assert doc2 == doc


def test_mukai_cli():
    code, doc = payload_of(["mukai", "--ns-gram", "[[2]]", "--v", "1,0,-1", "--w", "0,0,1"])
    assert code == EXIT_OK
    out = doc["outputs"]
    assert out["square"] == 2
    assert out["moduli_dimension"] == 4
    assert out["condition_C"]["passed"] is True
    assert out["pairing"] == -1
    assert out["euler_characteristic"] == 1


def test_disc_chain_cli():
    code, doc = payload_of(["disc-chain", "--ns-gram", "[[2]]", "--v", "1,0,-1"])
    assert code == EXIT_OK
    out = doc["outputs"]
    assert out["identity_holds"] and out["inequality_holds"]
    assert out["index"] == 2


def test_determinism_and_replay(tmp_path):
    argv_sets = [
        ["zarhin", "--d", "1", "--m", "5"],
        ["twisted-run", "--d", "1", "--ell", "5", "--n-max", "2"],
        ["prime-search", "--qr", "2,-1", "--count", "1"],
        ["mukai", "--ns-gram", "[[2]]", "--v", "1,0,-1"],
    ]
    for argv in argv_sets:
        code1, out1 = run(argv)
        code2, out2 = run(argv)
        assert (code1, out1) == (code2, out2)
        manifest_path = tmp_path / "m.json"
        manifest_path.write_bytes(out1)
        code3, out3 = run(["replay", str(manifest_path)])
        assert code3 == code1
        assert out3 == out1


@pytest.mark.parametrize(
    "command, d, m",
    [("embed", 1, 1277), ("zarhin", 2, 313)]
    + [(command, d, 1) for d in (2600, 5000, 10000) for command in ("embed", "zarhin")],
)
def test_glue_past_enumeration_limit(tmp_path, command, d, m):
    # Product groups of order 8*m*d^2 past 10^4: the glue perp and the quotient
    # generator are found without listing a group.
    code, out = run([command, "--d", str(d), "--m", str(m)])
    assert code == EXIT_OK, out.decode()
    manifest_path = tmp_path / "m.json"
    manifest_path.write_bytes(out)
    assert run(["replay", str(manifest_path)]) == (code, out)


def test_replay_negative_leading_value(tmp_path):
    # A list input starting with "-" must not be read back as an option.
    code, out = run(["prime-search", "--qr=-7,3", "--min", "1000", "--count", "2"])
    assert code == EXIT_OK, out.decode()
    manifest_path = tmp_path / "m.json"
    manifest_path.write_bytes(out)
    assert run(["replay", str(manifest_path)]) == (code, out)


def test_replay_ignores_scan_ceiling_env(tmp_path, monkeypatch):
    # Replay uses the manifest's recorded inputs alone: neither the environment
    # nor a global --scan-ceiling adds a ceiling the original run did not have.
    monkeypatch.delenv(SCAN_CEILING_ENV, raising=False)
    code, out = run(["prime-search", "--qr", "2", "--min", "100", "--count", "2"])
    assert code == EXIT_OK
    assert json.loads(out)["inputs"]["scan_ceiling"] is None
    manifest_path = tmp_path / "m.json"
    manifest_path.write_bytes(out)
    monkeypatch.setenv(SCAN_CEILING_ENV, "100000")
    assert run(["replay", str(manifest_path)]) == (code, out)
    assert run(["--scan-ceiling", "50", "replay", str(manifest_path)]) == (code, out)


def _replay_argv(tmp_path, command, inputs):
    return ["replay", write(tmp_path, "m.json", {"command": command, "inputs": inputs})]


EMBED_INPUTS = {"d": 1, "m": 5, "lsq": 2, "search_bound": 12}
RAGGED = [[2, 1], [1]]
REP_ARGS = ["--target", "1", "--ell", "7"]
HUGE_GRAM = "[[" + "7" * 5000 + "]]"  # an integer past the default int-to-str digit limit

MALFORMED_INPUTS = {
    "inputs-list": lambda p: _replay_argv(p, "embed", [1, 5]),
    "disc-form-no-lattice": lambda p: _replay_argv(p, "disc-form", {}),
    "rep-ragged-inline": lambda p: ["rep", "--gram", json.dumps(RAGGED)] + REP_ARGS,
    "rep-gram-not-list": lambda p: ["rep", "--gram", "5"] + REP_ARGS,
    "rep-gram-digit-limit": lambda p: ["rep", "--gram", HUGE_GRAM] + REP_ARGS,
    "mukai-ns-gram-digit-limit": lambda p: ["mukai", "--ns-gram", HUGE_GRAM, "--v", "1,0,-1"],
    "mukai-ns-gram-vector": lambda p: ["mukai", "--ns-gram", "[2]", "--v", "1,0,-1"],
    "disc-form-gram-string": lambda p: ["disc-form", write(p, "l.json", {"gram": "x"})],
    "ns-file-h-index-string": lambda p: [
        "disc-chain", "--ns-file", write(p, "ns.json", {"gram": [[2]], "h_index": "0"}),
        "--v", "1,0,-1",
    ],
    "rep-ragged-file": lambda p: ["rep", "--gram", write(p, "g.json", {"gram": RAGGED})]
    + REP_ARGS,
    "ns-file-with-h-index": lambda p: [
        "mukai", "--ns-file", write(p, "ns.json", {"gram": [[2]]}), "--h-index", "1",
        "--v", "1,0,-1",
    ],
    "ns-file-with-ns-gram": lambda p: [
        "mukai", "--ns-file", write(p, "ns.json", {"gram": [[2]]}), "--ns-gram", "[[4]]",
        "--v", "1,0,-1",
    ],
    "rep-gram-file-option": lambda p: [
        "rep", "--gram-file", write(p, "g.json", {"gram": [[2]]}), "--gram", "[[2]]",
    ] + REP_ARGS,
    "rep-ragged-manifest": lambda p: _replay_argv(
        p, "rep", {"gram": RAGGED, "target": 1, "ell": 7, "prec": 1}
    ),
    "disc-form-ragged-file": lambda p: ["disc-form", write(p, "l.json", {"gram": RAGGED})],
    "rep-prec-0": lambda p: ["rep", "--gram", "[[2]]", "--target", "2", "--ell", "7",
                             "--prec", "0"],
    "disc-chain-partner-disc-0": lambda p: ["disc-chain", "--ns-gram", "[[2]]", "--v", "1,0,-1",
                                            "--partner-disc", "0"],
    "prime-search-count-0": lambda p: ["prime-search", "--count", "0"],
    "prime-search-qr-0": lambda p: ["prime-search", "--qr", "0,3"],
    "d-null": lambda p: _replay_argv(p, "embed", {**EMBED_INPUTS, "d": None}),
    "d-true": lambda p: _replay_argv(p, "embed", {**EMBED_INPUTS, "d": True}),
    "missing-key": lambda p: _replay_argv(
        p, "embed", {k: v for k, v in EMBED_INPUTS.items() if k != "m"}
    ),
    "extra-key": lambda p: _replay_argv(p, "embed", {**EMBED_INPUTS, "extra": 1}),
    "unknown-command": lambda p: _replay_argv(p, "nope", {}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS) + ["scan-ceiling-env"])
def test_malformed_input_exits_1(tmp_path, monkeypatch, case):
    if case == "scan-ceiling-env":
        monkeypatch.setenv(SCAN_CEILING_ENV, "abc")
        argv = ["prime-search", "--qr", "2"]
    else:
        monkeypatch.delenv(SCAN_CEILING_ENV, raising=False)
        argv = MALFORMED_INPUTS[case](tmp_path)
    code, out = run(argv)
    assert code == EXIT_INVALID
    assert out.startswith(b"error: ") and out.count(b"\n") == 1 and out.endswith(b"\n")
    assert len(out) < 200


def test_replay_disc_form(tmp_path):
    path = write(tmp_path, "l4.json", {"rank": 1, "gram": [[4]]})
    code, out = run(["disc-form", path])
    manifest_path = tmp_path / "m.json"
    manifest_path.write_bytes(out)
    code2, out2 = run(["replay", str(manifest_path)])
    assert code2 == code == EXIT_OK
    assert out2 == out


def test_usage_error_exit_code():
    code, out = run(["embed", "--d", "1"])  # missing --m
    assert code == EXIT_INVALID
