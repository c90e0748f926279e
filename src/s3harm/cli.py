"""Command-line front end: group tables, multiplicities, bases, induced
representation census, and verification suites.

Output is deterministic for fixed flags: identical invocations produce
byte-identical bytes.  JSON payloads carry a top-level schema tag; CSV is
RFC-4180 with a header row; text is an aligned human-readable table.
Exit codes: 0 success, 1 verification failure, 2 usage error (bad degree,
non-finite or non-positive tolerance, unwritable --output; all refused
before any work is done), 3 internal error (an unexpected exception inside
a subcommand, reported as one line on stderr, never as a failed check).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import groupcore as gc
from .bases import _mesh_c2, _mesh_c3, basis_for, multiplicity_for, verify_basis
from .deck import build_cyclic8, build_quaternion, deck_group, verify_deck_group
from .induced import census_sums, irrep_census

SCHEMA = "s3harm/1"
J_MAX_LIMIT = 40
DEFAULT_TOL = 1e-10
TOL_ENV_VAR = "S3HARM_TOL"


def _tolerance(text: str) -> float:
    """A finite positive tolerance, parsed from --tol or the environment."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance (--tol or {TOL_ENV_VAR}) must be a finite positive number, got {text!r}"
        )
    return value


def _seed(text: str) -> int:
    """A non-negative integer seed for the random points that the
    periodicity checks sample on S^3."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _degree(text: str) -> int:
    """A degree in 0..J_MAX_LIMIT, for --j and --jmax."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= J_MAX_LIMIT:
        raise argparse.ArgumentTypeError(f"degree must be an integer in 0..{J_MAX_LIMIT}, got {text!r}")
    return value


def _writable(path: str) -> str:
    """An --output path that can be written, checked before any work.  A path
    with no file name ("" or one that ends in a separator) is refused."""
    if not os.path.basename(path):
        raise argparse.ArgumentTypeError(f"cannot write {path!r}: it names no file")
    folder = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else folder
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write {path!r}")
    return path


def _emit(payload: dict, args: argparse.Namespace) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        text = _to_csv(payload)
    else:
        text = _to_text(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload: dict) -> str:
    rows = payload.get("rows", [])
    buf = io.StringIO()
    if not rows:
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, value in payload.items():
            if key in ("rows", "schema"):
                continue
            writer.writerow([key, _scalar(value)])
        return buf.getvalue()
    fields = list(rows[0].keys())
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _scalar(row.get(k)) for k in fields})
    return buf.getvalue()


def _scalar(value):
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value, sort_keys=True)
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _to_text(payload: dict) -> str:
    lines = []
    for key, value in payload.items():
        if key in ("rows", "schema") or isinstance(value, dict):
            continue  # nested reports stay in the json format
        lines.append(f"{key}: {_scalar(value)}")
    rows = payload.get("rows", [])
    if rows:
        fields = list(rows[0].keys())
        table = [[str(_scalar(r.get(f, ""))) for f in fields] for r in rows]
        widths = [
            max(len(fields[i]), max((len(row[i]) for row in table), default=0))
            for i in range(len(fields))
        ]
        lines.append("  ".join(f.ljust(w) for f, w in zip(fields, widths)))
        for row in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def cmd_group(args: argparse.Namespace) -> tuple[dict, int]:
    which = args.which
    if which == "G":
        elements = gc.closure(list(gc.WEYL_GENERATORS.values()))
        if args.count_only:
            return {"schema": SCHEMA, "which": which, "count": len(elements)}, 0
        rows = [
            {
                "index": i,
                "epsilon": el.epsilon,
                "cycles": el.cycles,
                "action": el.action_string(),
                "det": el.determinant(),
            }
            for i, el in enumerate(elements)
        ]
        return {"schema": SCHEMA, "which": which, "count": len(elements), "rows": rows}, 0
    group = deck_group(which)
    if args.count_only:
        return {"schema": SCHEMA, "which": which, "count": group.order}, 0
    rows = []
    for el in group.elements:
        entry = el.to_json_dict()
        entry["pair_left"] = str(el.pair.left)
        entry["pair_right"] = str(el.pair.right)
        rows.append(entry)
    return {
        "schema": SCHEMA,
        "which": which,
        "count": group.order,
        "isomorphism": group.isomorphism,
        "rows": rows,
    }, 0


def cmd_multiplicity(args: argparse.Namespace) -> tuple[dict, int]:
    rows = [
        {"j": j, "m": multiplicity_for(args.manifold, j)} for j in range(args.jmax + 1)
    ]
    return {"schema": SCHEMA, "manifold": args.manifold, "rows": rows}, 0


def cmd_basis(args: argparse.Namespace) -> tuple[dict, int]:
    functions = basis_for(args.manifold, args.j)
    rows = [f.to_json_dict() for f in functions]
    return {
        "schema": SCHEMA,
        "manifold": args.manifold,
        "j": args.j,
        "count": len(rows),
        "rows": rows,
    }, 0


def cmd_induced(args: argparse.Namespace) -> tuple[dict, int]:
    rows = irrep_census()
    return {"schema": SCHEMA, **census_sums(rows), "rows": rows}, 0


def _verify_group_suite(args: argparse.Namespace) -> list[dict]:
    checks = []
    full = gc.closure(list(gc.WEYL_GENERATORS.values()))
    checks.append(
        {"name": "weyl-closure-order-384", "passed": len(full) == 384, "measured": len(full)}
    )
    sub = gc.closure([gc.WEYL_GENERATORS[s] for s in (1, 2, 3)])
    checks.append(
        {"name": "rotation-subgroup-order-48", "passed": len(sub) == 48, "measured": len(sub)}
    )
    for name, group, relations_row in (
        ("deck-c2-structure", build_cyclic8(), "c2-generator-fourth-power-is-inversion"),
        ("deck-c3-structure", build_quaternion(), "c3-quaternion-relations"),
    ):
        quality = verify_deck_group(group)
        checks.append({"name": name, "passed": quality["passed"], "measured": None, "detail": quality})
        checks.append({"name": relations_row, "passed": quality["relations"], "measured": None})
    return checks


def _largest_error(report: dict) -> float:
    """Largest *_error of a basis report, its per-degree projector blocks included."""
    blocks = [report, *report.get("projector", {}).values()]
    return float(np.max([0.0] + [v for b in blocks for k, v in b.items() if k.endswith("_error")]))


def _verify_basis_suite(args: argparse.Namespace) -> list[dict]:
    checks = []
    for manifold, builder, mesh in (("C2", build_cyclic8, _mesh_c2), ("C3", build_quaternion, _mesh_c3)):
        if args.manifold and args.manifold != manifold:
            continue
        # the basis of degrees 0..jmax as one table, audited without a record
        report = verify_basis(mesh(range(args.jmax + 1)), builder(), seed=args.seed, tol=args.tol)
        checks.append(
            {
                "name": f"basis-{manifold.lower()}-orthonormal-periodic",
                "passed": report["passed"],
                "measured": _largest_error(report),
                "detail": report,
            }
        )
    return checks


def _verify_induced_suite(args: argparse.Namespace) -> list[dict]:
    try:
        rows = irrep_census()
    except RuntimeError as exc:
        return [{"name": "induced-census", "passed": False, "measured": None, "detail": str(exc)}]
    sums = census_sums(rows)
    targets = (
        ("induced-sum-dim-squared-384", "sum_dim_sq", 384),
        ("induced-aggregate-c8-48", "sum_dim_m_c8", 48),
        ("induced-aggregate-q-48", "sum_dim_m_q", 48),
    )
    return [
        {"name": name, "passed": sums[key] == want, "measured": sums[key]}
        for name, key, want in targets
    ]


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    suite = args.suite
    checks = []
    if suite in ("group", "all"):
        checks.extend(_verify_group_suite(args))
    if suite in ("basis", "all"):
        checks.extend(_verify_basis_suite(args))
    if suite in ("induced", "all"):
        checks.extend(_verify_induced_suite(args))
    passed = all(c["passed"] for c in checks)
    payload = {
        "schema": SCHEMA,
        "suite": suite,
        "seed": args.seed,
        "tol": args.tol,
        "jmax": args.jmax,
        "passed": passed,
        "rows": [
            {
                "name": c["name"],
                "passed": c["passed"],
                "measured": c.get("measured"),
            }
            for c in checks
        ],
        "details": {c["name"]: c.get("detail") for c in checks if c.get("detail")},
    }
    return payload, 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="text")
    common.add_argument("--output", type=_writable, default=None, help="write to a file instead of stdout")
    common.add_argument("--seed", type=_seed, default=42, help="seed of verify's random points; the "
                        "other subcommands accept and ignore it, so one option list serves every call")
    parser = argparse.ArgumentParser(
        prog="s3harm",
        description="Deck groups, multiplicities, and periodic harmonic bases "
        "for the two cubic space forms of the 3-sphere.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_group = sub.add_parser(
        "group", parents=[common], help="element tables of the symmetry and deck groups"
    )
    p_group.add_argument("--which", choices=("G", "C2", "C3"), required=True)
    p_group.add_argument("--count-only", action="store_true")
    p_group.set_defaults(run=cmd_group)

    p_mult = sub.add_parser(
        "multiplicity", parents=[common], help="periodic-harmonic counts per degree"
    )
    p_mult.add_argument("--manifold", choices=("C2", "C3"), required=True)
    p_mult.add_argument("--jmax", type=_degree, default=8)
    p_mult.set_defaults(run=cmd_multiplicity)

    p_basis = sub.add_parser(
        "basis", parents=[common], help="symbolic orthonormal basis records"
    )
    p_basis.add_argument("--manifold", choices=("C2", "C3"), required=True)
    p_basis.add_argument("--j", type=_degree, required=True)
    p_basis.set_defaults(run=cmd_basis)

    p_induced = sub.add_parser(
        "induced", parents=[common], help="census of induced irreps with deck multiplicities"
    )
    p_induced.set_defaults(run=cmd_induced)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument("--suite", choices=("group", "basis", "induced", "all"), default="all")
    p_verify.add_argument("--manifold", choices=("C2", "C3"), default=None)
    p_verify.add_argument("--jmax", type=_degree, default=4)
    p_verify.add_argument(
        "--tol",
        type=_tolerance,
        default=os.environ.get(TOL_ENV_VAR, DEFAULT_TOL),
        help=f"tolerance (default {DEFAULT_TOL}, env {TOL_ENV_VAR})",
    )
    p_verify.set_defaults(run=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.run(args)
        _emit(payload, args)
    except Exception as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"s3harm: internal error: {type(exc).__name__}: {message}\n")
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
