"""Command-line front end: JSON/CSV output with embedded, replayable manifests.

Every command writes a single JSON document (or a CSV table whose first line
carries the manifest as a comment) built solely from its inputs, so re-running
the same invocation, or replaying a saved manifest, is byte-identical.  All
numbers are exact: integers stay integers, rationals are "p/q" strings.

Exit codes: 0 success, 1 invalid or inadmissible input, 2 certificate-only
success (existence guaranteed, witness not realized), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import __version__
from .discform import discriminant_form
from .errors import InternalConsistencyError, K3latError, OutputLimitError
from .intlat import IntegralLattice, SublatticeEmbedding
from .modarith import QRConstraint, prime_search, represent_value
from .mukai import (
    MukaiVector,
    NeronSeveriData,
    check_condition_C,
    disc_comparison_chain,
    euler_characteristic,
    moduli_dimension,
    mukai_pairing,
    mukai_square,
)
from .nikulin import embedding_to_glue, extend_glue, realize_embedding
from .twisted import witness_sequence
from .zarhin import build_seed, zarhin_construct

SCAN_CEILING_ENV = "K3LAT_SCAN_CEILING"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CERTIFICATE_ONLY = 2
EXIT_INTERNAL = 3


class CliUsageError(K3latError):
    """Bad command line, or a malformed input file or manifest."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _canonical_json(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def _manifest(command: str, inputs: dict, outputs, checks: list) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "tool_version": __version__,
        "outputs": outputs,
        "checks": checks,
    }


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliUsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliUsageError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the int-to-str digit limit
        raise CliUsageError(f"cannot read {path}: {exc}") from exc


def lattice_from_json(doc) -> IntegralLattice:
    """The lattice of a lattice object that `_decode` accepted."""
    lattice = IntegralLattice(doc["gram"])
    if "rank" in doc and doc["rank"] != lattice.rank:
        raise CliUsageError(
            f'lattice JSON "rank" is {doc["rank"]} but the Gram matrix has rank {lattice.rank}'
        )
    return lattice


def lattice_to_json(lattice: IntegralLattice) -> dict:
    return {"rank": lattice.rank, "gram": [list(row) for row in lattice.gram]}


def embedding_to_json(emb: SublatticeEmbedding) -> dict:
    return {
        "source": lattice_to_json(emb.source),
        "target": lattice_to_json(emb.target),
        "matrix": [list(row) for row in emb.matrix],
    }


def vector_to_json(coords) -> dict:
    return {"coords": [int(x) for x in coords]}


def _mukai_vector(parts: list, rank: int) -> MukaiVector:
    if len(parts) != rank + 2:
        raise CliUsageError(
            f"Mukai vector needs {rank + 2} components (a, D_1..D_{rank}, c), got {len(parts)}"
        )
    return MukaiVector(parts[0], parts[1:-1], parts[-1])


# ---------------------------------------------------------------------------
# the inputs each command's manifest records, and the check on each value


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ints(x) -> bool:
    return isinstance(x, list) and all(map(_is_int, x))


def _is_matrix(x) -> bool:
    return isinstance(x, list) and all(_is_ints(row) and len(row) == len(x) for row in x)


def _is_lattice(x) -> bool:
    return isinstance(x, dict) and _is_matrix(x.get("gram"))


_INT = ("an integer", _is_int)
_INTS = ("a list of integers", _is_ints)
_MATRIX = ("a square integer matrix", _is_matrix)
_LATTICE = ('a lattice object whose "gram" is a square integer matrix', _is_lattice)

_INPUTS = {
    "disc-form": {"lattice": _LATTICE},
    "embed": {"d": _INT, "m": _INT, "lsq": _INT, "search_bound": _INT},
    "zarhin": {"d": _INT, "m": _INT, "lsq": _INT, "search_bound": _INT},
    "twisted-run": {"d": _INT, "ell": _INT, "n_max": _INT, "e": _INT},
    "disc-chain": {"ns_gram": _MATRIX, "h_index": _INT, "v": _INTS, "partner_disc": _INT},
    "prime-search": {"qr": _INTS, "min": _INT, "count": _INT, "scan_ceiling": _INT},
    "rep": {"gram": _MATRIX, "target": _INT, "ell": _INT, "prec": _INT},
    "mukai": {"ns_gram": _MATRIX, "h_index": _INT, "v": _INTS, "w": _INTS},
}

# The inputs of options that may be left unset.
_NULLABLE = frozenset({"lsq", "e", "partner_disc", "w", "scan_ceiling"})


def _decode(command: str, inputs) -> dict:
    """Check `inputs` against what `command`'s manifests record, and return them.

    The command line and a replayed manifest both reach the builders through here.
    """
    kinds = _INPUTS[command]
    if not isinstance(inputs, dict) or inputs.keys() != kinds.keys():
        raise CliUsageError(
            f"{command} inputs must be an object with exactly the keys {', '.join(sorted(kinds))}"
        )
    for key, (kind, check) in kinds.items():
        value = inputs[key]
        if value is None and key in _NULLABLE:
            continue
        if not check(value):
            or_null = " or null" if key in _NULLABLE else ""
            raise CliUsageError(f"{command} input {key} must be {kind}{or_null}")
    return inputs


# ---------------------------------------------------------------------------
# subcommand payload builders: each takes the decoded inputs and returns
# (exit_code, manifest dict, rows) where rows is None for JSON-only commands
# and a (header, rows) pair for CSV.


def _cmd_disc_form(inputs):
    lattice = lattice_from_json(inputs["lattice"])
    form = discriminant_form(lattice)
    recorded = {"lattice": lattice_to_json(lattice)}
    checks = [["order_matches_det", form.order == lattice.disc_abs]]
    return EXIT_OK, _manifest("disc-form", recorded, form.to_json_dict(), checks), None


def _cmd_embed(inputs):
    seed = build_seed(inputs["d"], inputs["lsq"])
    glue = embedding_to_glue(seed.embedding)
    extended, cert = extend_glue(glue, inputs["m"])
    result = realize_embedding(seed.lattice, extended, inputs["search_bound"])
    outputs = {
        "ambient_n": extended.ambient_n,
        "status": result.status,
        "glue": extended.to_json_dict(),
        "certificate": cert.to_json_dict(),
        "embedding": None if result.embedding is None else embedding_to_json(result.embedding),
    }
    checks = [["glue_valid", True], ["witness_found", result.found]]
    recorded = {**inputs, "lsq": seed.lattice.gram[1][1]}
    code = EXIT_OK if result.found else EXIT_CERTIFICATE_ONLY
    return code, _manifest("embed", recorded, outputs, checks), None


def _cmd_zarhin(inputs):
    cert = zarhin_construct(inputs["d"], inputs["m"], inputs["lsq"], inputs["search_bound"])
    recorded = {**inputs, "lsq": cert.lsq}
    checks = [[name, bool(val)] for name, val in sorted(cert.checks.items())
              if isinstance(val, bool)]
    code = EXIT_OK if cert.realized else EXIT_CERTIFICATE_ONLY
    return code, _manifest("zarhin", recorded, cert.to_json_dict(), checks), None


def _cmd_twisted_run(inputs):
    records = witness_sequence(inputs["d"], inputs["ell"], inputs["n_max"], e=inputs["e"])
    outputs = [rec.to_json_dict() for rec in records]
    checks = [
        ["identities_hold", all(
            rec.identities.get("partner_identity") and rec.identities.get("v_sq_zero")
            for rec in records
        )],
        ["valuation_strictly_increasing", all(
            b.ell_valuation > a.ell_valuation for a, b in zip(records, records[1:])
        )],
    ]
    header = ["n", "r", "v_sq", "h_sq", "n_v", "partner_disc_abs", "ell_valuation"]
    rows = [
        [
            rec.n,
            rec.r,
            0,
            rec.identities["h_sq"],
            rec.n_v,
            rec.partner_disc_abs,
            rec.ell_valuation,
        ]
        for rec in records
    ]
    return EXIT_OK, _manifest("twisted-run", inputs, outputs, checks), (header, rows)


def _cmd_disc_chain(inputs):
    ns = NeronSeveriData(inputs["ns_gram"], inputs["h_index"])
    v = _mukai_vector(inputs["v"], ns.rank)
    report = disc_comparison_chain(ns, v, inputs["partner_disc"])
    checks = [
        ["identity", report.identity_holds],
        ["inequality", report.inequality_holds],
    ]
    return EXIT_OK, _manifest("disc-chain", inputs, report.to_json_dict(), checks), None


def _cmd_prime_search(inputs):
    constraint = QRConstraint(inputs["qr"])
    primes = prime_search(constraint, inputs["min"], inputs["count"], inputs["scan_ceiling"])
    outputs = {"primes": primes}
    checks = [["count_reached", len(primes) == inputs["count"]]]
    return EXIT_OK, _manifest("prime-search", inputs, outputs, checks), None


def _cmd_rep(inputs):
    gram, target, ell, prec = inputs["gram"], inputs["target"], inputs["ell"], inputs["prec"]
    x = represent_value(gram, target, ell, prec)
    value = sum(
        x[i] * gram[i][j] * x[j] for i in range(len(x)) for j in range(len(x))
    )
    modulus = ell**prec
    outputs = {"x": vector_to_json(x), "value": value, "modulus": modulus}
    checks = [["congruence", value % modulus == target % modulus]]
    return EXIT_OK, _manifest("rep", inputs, outputs, checks), None


def _cmd_mukai(inputs):
    ns = NeronSeveriData(inputs["ns_gram"], inputs["h_index"])
    v = _mukai_vector(inputs["v"], ns.rank)
    verdict = check_condition_C(v, ns)
    square = mukai_square(v, ns)
    outputs = {
        "v": v.to_json_dict(),
        "square": square,
        "condition_C": verdict.to_json_dict(),
    }
    if square >= 0 and square % 2 == 0:
        outputs["moduli_dimension"] = moduli_dimension(v, ns)
    if inputs["w"] is not None:
        w = _mukai_vector(inputs["w"], ns.rank)
        outputs["w"] = w.to_json_dict()
        outputs["pairing"] = mukai_pairing(v, w, ns)
        outputs["euler_characteristic"] = euler_characteristic(v, w, ns)
    checks = [["condition_C", verdict.passed]]
    return EXIT_OK, _manifest("mukai", inputs, outputs, checks), None


_BUILDERS = {
    "disc-form": _cmd_disc_form,
    "embed": _cmd_embed,
    "zarhin": _cmd_zarhin,
    "twisted-run": _cmd_twisted_run,
    "disc-chain": _cmd_disc_chain,
    "prime-search": _cmd_prime_search,
    "rep": _cmd_rep,
    "mukai": _cmd_mukai,
}


# ---------------------------------------------------------------------------
# the two sources of inputs: a command line and a saved manifest


class _JsonFile(str):
    """An option value naming a JSON file, which `_inputs_from_args` reads."""


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise CliUsageError(f"expected comma-separated integers, got {text!r}") from exc


def _digit_limit_error(option: str) -> CliUsageError:
    """For inline JSON holding an integer past the int-to-str digit limit."""
    return CliUsageError(
        f"{option}: an integer exceeds the digit limit {sys.get_int_max_str_digits()}"
    )


def _ns_gram(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"--ns-gram is not valid JSON: {exc.msg}") from exc
    except ValueError as exc:
        raise _digit_limit_error("--ns-gram") from exc


def _json_or_file(text: str):
    """Inline JSON, or else the path of a JSON file."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return _JsonFile(text)
    except ValueError as exc:
        raise _digit_limit_error("--gram") from exc


def _inputs_from_args(args) -> dict:
    """The manifest inputs of a command line: the JSON files its options name are
    read, and K3LAT_SCAN_CEILING stands in for an unset --scan-ceiling."""
    given = dict(vars(args))
    if args.command == "disc-form":
        given["lattice"] = _load_json_file(args.lattice_file)
    elif args.command in ("disc-chain", "mukai"):
        if args.ns_file:
            if args.h_index is not None:
                raise CliUsageError("--h-index is not allowed with --ns-file, which carries h_index")
            doc = _load_json_file(args.ns_file)
            if not isinstance(doc, dict) or "gram" not in doc:
                raise CliUsageError('NS JSON must be an object with a "gram" key')
            given["ns_gram"], given["h_index"] = doc["gram"], doc.get("h_index", 0)
        elif args.h_index is None:
            given["h_index"] = 0
    elif args.command == "rep" and isinstance(args.gram, _JsonFile):
        doc = _load_json_file(args.gram)
        given["gram"] = doc.get("gram") if isinstance(doc, dict) else doc
    elif args.command == "prime-search" and args.scan_ceiling is None:
        env = os.environ.get(SCAN_CEILING_ENV)
        try:
            given["scan_ceiling"] = int(env) if env else None
        except ValueError as exc:
            raise CliUsageError(f"{SCAN_CEILING_ENV} must be an integer, got {env!r}") from exc
    return {key: given[key] for key in _INPUTS[args.command]}


def _manifest_inputs(path: str) -> tuple[str, object]:
    """The command and the recorded inputs of a saved manifest."""
    doc = _load_json_file(path)
    if not isinstance(doc, dict) or "command" not in doc or "inputs" not in doc:
        raise CliUsageError("replay needs a manifest with 'command' and 'inputs'")
    command = doc["command"]
    if not isinstance(command, str) or command not in _BUILDERS:
        raise CliUsageError(f"manifest names unknown command {command!r}")
    return command, doc["inputs"]


def _add_ns_options(p) -> None:
    """The NS lattice: a JSON file with its h_index, or an inline Gram and --h-index."""
    ns = p.add_mutually_exclusive_group(required=True)
    ns.add_argument("--ns-file")
    ns.add_argument("--ns-gram", type=_ns_gram)
    p.add_argument("--h-index", type=int, default=None)


def _build_parser() -> _Parser:
    parser = _Parser(prog="k3lat", description=__doc__)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--scan-ceiling", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc-form", help="discriminant form of a lattice JSON file")
    p.add_argument("lattice_file")

    for name in ("embed", "zarhin"):
        p = sub.add_parser(name, help=f"{name} pipeline for degree 2md")
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--lsq", type=int, default=None)
        p.add_argument("--search-bound", type=int, default=12)

    p = sub.add_parser("twisted-run", help="discriminant-growth witness table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--e", type=int, default=None)

    p = sub.add_parser("disc-chain", help="discriminant comparison for v_perp")
    _add_ns_options(p)
    p.add_argument("--v", type=_int_list, required=True)
    p.add_argument("--partner-disc", type=int, default=None)

    p = sub.add_parser("prime-search", help="primes making given values residues")
    p.add_argument("--qr", type=_int_list, default="")
    p.add_argument("--min", type=int, default=3)
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("rep", help="represent a value of a quadratic form mod ell^k")
    p.add_argument("--gram", type=_json_or_file, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--prec", type=int, default=1)

    p = sub.add_parser("mukai", help="pairings and the fine-moduli criterion")
    _add_ns_options(p)
    p.add_argument("--v", type=_int_list, required=True)
    p.add_argument("--w", type=_int_list, default=None)

    p = sub.add_parser("replay", help="re-run a saved manifest")
    p.add_argument("manifest_file")

    return parser


def _render_csv(manifest: dict, header: list, rows: list) -> bytes:
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return ("\n".join(lines) + "\n").encode()


def _dispatch(command: str, inputs, fmt: str) -> tuple[int, bytes]:
    code, manifest, table = _BUILDERS[command](_decode(command, inputs))
    if fmt == "csv" and table is None:
        raise CliUsageError(f"{command} has no CSV table form")
    try:
        if fmt == "csv":
            return code, _render_csv(manifest, *table)
        return code, _canonical_json(manifest)
    except ValueError as exc:
        # The int-to-str conversion limit (sys.set_int_max_str_digits).
        raise OutputLimitError(
            f"manifest serialization: an output integer exceeds the digit limit "
            f"{sys.get_int_max_str_digits()}"
        ) from exc


def run(argv=None) -> tuple[int, bytes]:
    """Parse and execute; returns (exit_code, output_bytes).

    `replay` runs the builder of the manifest's command on the manifest's
    recorded inputs alone, through the same decode step as a command line.
    """
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "replay":
            command, inputs = _manifest_inputs(args.manifest_file)
        else:
            command, inputs = args.command, _inputs_from_args(args)
        return _dispatch(command, inputs, args.format)
    except InternalConsistencyError as exc:
        return EXIT_INTERNAL, f"error: {exc}\n".encode()
    except K3latError as exc:
        return EXIT_INVALID, f"error: {exc}\n".encode()


def main(argv=None) -> int:
    try:
        code, payload = run(argv)
    except Exception:  # pragma: no cover - internal errors
        traceback.print_exc()
        return EXIT_INTERNAL
    stream = sys.stdout if code in (EXIT_OK, EXIT_CERTIFICATE_ONLY) else sys.stderr
    stream.buffer.write(payload)
    stream.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
