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
from .matrices import freeze
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
    """Bad command line or malformed input file."""


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


def lattice_from_json(doc) -> IntegralLattice:
    if not isinstance(doc, dict) or "gram" not in doc:
        raise CliUsageError('lattice JSON must be an object with a "gram" key')
    gram = doc["gram"]
    lattice = IntegralLattice(freeze(gram))
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


def vector_from_json(doc) -> tuple[int, ...]:
    if not isinstance(doc, dict) or "coords" not in doc:
        raise CliUsageError('vector JSON must be an object with a "coords" key')
    return tuple(int(x) for x in doc["coords"])


def vector_to_json(coords) -> dict:
    return {"coords": [int(x) for x in coords]}


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise CliUsageError(f"expected comma-separated integers, got {text!r}") from exc


def _ns_from_args(args) -> NeronSeveriData:
    if getattr(args, "ns_file", None):
        doc = _load_json_file(args.ns_file)
        if not isinstance(doc, dict) or "gram" not in doc:
            raise CliUsageError('NS JSON must be an object with a "gram" key')
        return NeronSeveriData(freeze(doc["gram"]), doc.get("h_index", 0))
    if getattr(args, "ns_gram", None):
        try:
            gram = json.loads(args.ns_gram)
        except json.JSONDecodeError as exc:
            raise CliUsageError(f"--ns-gram is not valid JSON: {exc.msg}") from exc
        return NeronSeveriData(freeze(gram), args.h_index)
    raise CliUsageError("one of --ns-file or --ns-gram is required")


def _mukai_from_arg(text: str, rank: int) -> MukaiVector:
    parts = _parse_int_list(text)
    if len(parts) != rank + 2:
        raise CliUsageError(
            f"Mukai vector needs {rank + 2} components (a, D_1..D_{rank}, c), got {len(parts)}"
        )
    return MukaiVector(parts[0], parts[1:-1], parts[-1])


def _scan_ceiling(args) -> int | None:
    if args.scan_ceiling is not None:
        return args.scan_ceiling
    env = os.environ.get(SCAN_CEILING_ENV)
    return int(env) if env else None


# ---------------------------------------------------------------------------
# subcommand payload builders: each returns (exit_code, manifest dict, rows)
# where rows is None for JSON-only commands and a (header, rows) pair for CSV.


def _cmd_disc_form(args):
    lattice = lattice_from_json(_load_json_file(args.lattice_file))
    form = discriminant_form(lattice)
    inputs = {"lattice": lattice_to_json(lattice)}
    checks = [["order_matches_det", form.order == lattice.disc_abs]]
    return EXIT_OK, _manifest("disc-form", inputs, form.to_json_dict(), checks), None


def _cmd_embed(args):
    seed = build_seed(args.d, args.lsq)
    glue = embedding_to_glue(seed.embedding)
    extended, cert = extend_glue(glue, args.d, args.m)
    n = extended.ambient_n
    result = realize_embedding(seed.lattice, n, extended, args.search_bound)
    outputs = {
        "ambient_n": n,
        "status": result.status,
        "glue": extended.to_json_dict(),
        "certificate": cert.to_json_dict(),
        "embedding": None if result.embedding is None else embedding_to_json(result.embedding),
    }
    checks = [["glue_valid", True], ["witness_found", result.found]]
    inputs = {
        "d": args.d,
        "m": args.m,
        "lsq": seed.lattice.gram[1][1],
        "search_bound": args.search_bound,
    }
    code = EXIT_OK if result.found else EXIT_CERTIFICATE_ONLY
    return code, _manifest("embed", inputs, outputs, checks), None


def _cmd_zarhin(args):
    cert = zarhin_construct(args.d, args.m, args.lsq, args.search_bound)
    inputs = {
        "d": args.d,
        "m": args.m,
        "lsq": cert.lsq,
        "search_bound": args.search_bound,
    }
    checks = [[name, bool(val)] for name, val in sorted(cert.checks.items())
              if isinstance(val, bool)]
    code = EXIT_OK if cert.realized else EXIT_CERTIFICATE_ONLY
    return code, _manifest("zarhin", inputs, cert.to_json_dict(), checks), None


def _cmd_twisted_run(args):
    records = witness_sequence(args.d, args.ell, args.n_max, e=args.e)
    inputs = {"d": args.d, "ell": args.ell, "n_max": args.n_max, "e": args.e}
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
            rec.identities.get("h_sq", ""),
            rec.n_v,
            rec.partner_disc_abs,
            rec.ell_valuation,
        ]
        for rec in records
    ]
    return EXIT_OK, _manifest("twisted-run", inputs, outputs, checks), (header, rows)


def _cmd_disc_chain(args):
    ns = _ns_from_args(args)
    v = _mukai_from_arg(args.v, ns.rank)
    report = disc_comparison_chain(ns, v, args.partner_disc)
    inputs = {
        "ns_gram": [list(row) for row in ns.gram],
        "h_index": ns.h_index,
        "v": list(v.components()),
        "partner_disc": args.partner_disc,
    }
    checks = [
        ["identity", report.identity_holds],
        ["inequality", report.inequality_holds],
    ]
    return EXIT_OK, _manifest("disc-chain", inputs, report.to_json_dict(), checks), None


def _cmd_prime_search(args):
    values = _parse_int_list(args.qr) if args.qr else ()
    constraint = QRConstraint(values)
    primes = prime_search(constraint, args.min, args.count, _scan_ceiling(args))
    inputs = {
        "qr": list(values),
        "min": args.min,
        "count": args.count,
        "scan_ceiling": _scan_ceiling(args),
    }
    outputs = {"primes": primes}
    checks = [["count_reached", len(primes) == args.count]]
    return EXIT_OK, _manifest("prime-search", inputs, outputs, checks), None


def _cmd_rep(args):
    if args.gram_file:
        doc = _load_json_file(args.gram_file)
        gram = doc["gram"] if isinstance(doc, dict) else doc
    elif args.gram:
        # Inline JSON, or a path to a JSON file holding the Gram matrix.
        try:
            gram = json.loads(args.gram)
        except json.JSONDecodeError:
            doc = _load_json_file(args.gram)
            gram = doc["gram"] if isinstance(doc, dict) else doc
    else:
        raise CliUsageError("one of --gram-file or --gram is required")
    x = represent_value(freeze(gram), args.target, args.ell, args.prec)
    value = sum(
        x[i] * gram[i][j] * x[j] for i in range(len(x)) for j in range(len(x))
    )
    modulus = args.ell**args.prec
    inputs = {
        "gram": [list(row) for row in gram],
        "target": args.target,
        "ell": args.ell,
        "prec": args.prec,
    }
    outputs = {"x": vector_to_json(x), "value": value, "modulus": modulus}
    checks = [["congruence", value % modulus == args.target % modulus]]
    return EXIT_OK, _manifest("rep", inputs, outputs, checks), None


def _cmd_mukai(args):
    ns = _ns_from_args(args)
    v = _mukai_from_arg(args.v, ns.rank)
    verdict = check_condition_C(v, ns)
    square = mukai_square(v, ns)
    outputs = {
        "v": v.to_json_dict(),
        "square": square,
        "condition_C": verdict.to_json_dict(),
    }
    if square >= 0 and square % 2 == 0:
        outputs["moduli_dimension"] = moduli_dimension(v, ns)
    if args.w:
        w = _mukai_from_arg(args.w, ns.rank)
        outputs["w"] = w.to_json_dict()
        outputs["pairing"] = mukai_pairing(v, w, ns)
        outputs["euler_characteristic"] = euler_characteristic(v, w, ns)
    inputs = {
        "ns_gram": [list(row) for row in ns.gram],
        "h_index": ns.h_index,
        "v": list(v.components()),
        "w": list(_mukai_from_arg(args.w, ns.rank).components()) if args.w else None,
    }
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


def _cmd_replay(args):
    doc = _load_json_file(args.manifest_file)
    if not isinstance(doc, dict) or "command" not in doc or "inputs" not in doc:
        raise CliUsageError("replay needs a manifest with 'command' and 'inputs'")
    command = doc["command"]
    if command not in _BUILDERS:
        raise CliUsageError(f"manifest names unknown command {command!r}")
    inputs = doc["inputs"]
    if command == "disc-form":
        # The manifest embeds the lattice itself, so rebuild the payload directly.
        lattice = lattice_from_json(inputs["lattice"])
        form = discriminant_form(lattice)
        checks = [["order_matches_det", form.order == lattice.disc_abs]]
        manifest = _manifest("disc-form", {"lattice": lattice_to_json(lattice)},
                             form.to_json_dict(), checks)
        return EXIT_OK, _canonical_json(manifest)
    global_flags: list[str] = []
    argv: list[str] = [command]
    for key, val in sorted(inputs.items()):
        if val is None:
            continue
        flag = "--" + key.replace("_", "-")
        target = global_flags if key == "scan_ceiling" else argv
        if isinstance(val, (list, tuple)):
            if any(isinstance(x, (list, tuple)) for x in val):
                val = json.dumps(val)
            else:
                val = ",".join(str(x) for x in val)
        # One "--flag=value" token, so a value starting with "-" is not read as an option.
        target.append(f"{flag}={val}")
    return _dispatch(_build_parser().parse_args(global_flags + argv))


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
    p.add_argument("--ns-file")
    p.add_argument("--ns-gram")
    p.add_argument("--h-index", type=int, default=0)
    p.add_argument("--v", required=True)
    p.add_argument("--partner-disc", type=int, default=None)

    p = sub.add_parser("prime-search", help="primes making given values residues")
    p.add_argument("--qr", default="")
    p.add_argument("--min", type=int, default=3)
    p.add_argument("--count", type=int, default=1)

    p = sub.add_parser("rep", help="represent a value of a quadratic form mod ell^k")
    p.add_argument("--gram-file")
    p.add_argument("--gram")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--prec", type=int, default=1)

    p = sub.add_parser("mukai", help="pairings and the fine-moduli criterion")
    p.add_argument("--ns-file")
    p.add_argument("--ns-gram")
    p.add_argument("--h-index", type=int, default=0)
    p.add_argument("--v", required=True)
    p.add_argument("--w", default=None)

    p = sub.add_parser("replay", help="re-run a saved manifest")
    p.add_argument("manifest_file")

    return parser


def _render_csv(manifest: dict, header: list, rows: list) -> bytes:
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    return ("\n".join(lines) + "\n").encode()


def _dispatch(args) -> tuple[int, bytes]:
    if args.command == "replay":
        return _cmd_replay(args)
    code, manifest, table = _BUILDERS[args.command](args)
    if args.format == "csv" and table is None:
        raise CliUsageError(f"{args.command} has no CSV table form")
    try:
        if args.format == "csv":
            return code, _render_csv(manifest, *table)
        return code, _canonical_json(manifest)
    except ValueError as exc:
        # The int-to-str conversion limit (sys.set_int_max_str_digits).
        raise OutputLimitError(
            f"manifest serialization: an output integer exceeds the digit limit "
            f"{sys.get_int_max_str_digits()}"
        ) from exc


def run(argv=None) -> tuple[int, bytes]:
    """Parse and execute; returns (exit_code, output_bytes)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
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
