"""Command line interface.

Exit codes: 0 success, 2 invalid input, 3 internal consistency failure
or failed validation.  All numbers printed are exact; timing is wall
clock in integer milliseconds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .ehrhart import restricted
from .errors import InputError, InternalConsistencyError, SizeGuardError
from .frontend import load_support, parse_polynomial
from .hodge import hodge_table
from .monodromy import fastpath_top, fastpath_unipotent, jordan_blocks
from .newton import newton_polyhedron
from .oracles import validate

MAX_VARIABLES = 6
MAX_SUPPORT = 40


def _bucket(a: Fraction) -> str:
    return f"{a.numerator}/{a.denominator}"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="newton-monodromy",
        description=(
            "Jordan normal form of the Milnor monodromy at the origin of a "
            "convenient nondegenerate polynomial, computed exactly from its "
            "Newton polyhedron."
        ),
    )
    p.add_argument(
        "polynomial",
        nargs="?",
        help="polynomial like 'x^2 + y^3' (omit when using --support)",
    )
    p.add_argument(
        "--support",
        metavar="PATH",
        help="JSON file {\"variables\": [...], \"support\": [[...], ...]}",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--table", action="store_true", help="human-readable output (the default)"
    )
    p.add_argument(
        "--eigenvalue",
        metavar="A/B",
        help="restrict the report to eigenvalue exp(2*pi*i*A/B)",
    )
    p.add_argument(
        "--fast-only",
        action="store_true",
        help="only the largest-block shortcuts, skipping the full engine",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="run the full identity and oracle battery (exit 3 on failure)",
    )
    p.add_argument(
        "--emit-hodge-tables",
        action="store_true",
        help="include the per-face equivariant Hodge tables in the output",
    )
    p.add_argument(
        "--unsafe-large",
        action="store_true",
        help=f"lift the guards of {MAX_VARIABLES} variables / {MAX_SUPPORT} points",
    )
    return p


def _parse_eigenvalue(text: str) -> Fraction:
    try:
        ev = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot read eigenvalue {text!r}: {exc}") from exc
    if not 0 <= ev < 1:
        raise InputError("eigenvalue must be a fraction a/b with 0 <= a/b < 1")
    return ev


def _load(args) -> tuple:
    if bool(args.polynomial) == bool(args.support):
        raise InputError("give exactly one of a polynomial or --support PATH")
    if args.support:
        support = load_support(args.support)
        source = args.support
    else:
        support = parse_polynomial(args.polynomial)
        source = args.polynomial
    if not args.unsafe_large:
        if support.n > MAX_VARIABLES:
            raise SizeGuardError(
                f"{support.n} variables exceeds the guard of {MAX_VARIABLES} "
                "(pass --unsafe-large to proceed)"
            )
        if len(support.points) > MAX_SUPPORT:
            raise SizeGuardError(
                f"{len(support.points)} support points exceed the guard of "
                f"{MAX_SUPPORT} (pass --unsafe-large to proceed)"
            )
    return support, source


def _face_payload(face) -> dict:
    return {
        "dim": face.dim,
        "vertices": [list(p) for p in face.poly.vertices],
        "distance": face.distance,
        "character": {
            "modulus": face.char.modulus,
            "coeffs": list(face.char.coeffs),
        },
        "twist": face.twist,
        "interior_touching": face.interior_touching,
    }


def _table_payload(face) -> list:
    """The face's cone table as [p, q, bucket, value] rows; a residue r
    mod d' is the bucket r/d', so residue order is bucket order.  Pass
    the face's orbit representative: its table is the face's, with the
    same residue keys."""
    d = restricted(face.delta, face.char)[0]
    rows = sorted(hodge_table(face.delta, face.char).items())
    return [[p, q, _bucket(Fraction(r, d)), v] for (p, q, r), v in rows]


def run(args) -> tuple[dict, int]:
    support, source = _load(args)
    ev = _parse_eigenvalue(args.eigenvalue) if args.eigenvalue else None
    started = time.monotonic_ns()
    np_ = newton_polyhedron(support)
    payload: dict = {
        "source": source,
        "variables": list(support.variables),
        "n": support.n,
        "support": [list(p) for p in support.points],
        "convenient": True,
        "faces": [_face_payload(face) for face in np_.faces],
    }
    exit_code = 0

    fast: dict = {}
    top, second = fastpath_unipotent(np_)
    fast["unipotent_largest"] = [top, second]
    if ev is not None and ev != 0:
        a, b = fastpath_top(np_, ev)
        fast[f"largest_at_{_bucket(ev)}"] = [a, b]
    payload["fastpath"] = fast

    if not args.fast_only:
        spectrum = jordan_blocks(np_)
        payload["mu"] = spectrum.mu
        evs = spectrum.sorted_eigenvalues()
        if ev is not None:
            evs = [a for a in evs if a == ev]
        grouped = spectrum.blocks_by_eigenvalue()
        payload["eigenvalues"] = [
            {
                "eigenvalue": _bucket(a),
                "multiplicity": spectrum.multiplicities[a],
                "blocks": {str(size): cnt for size, cnt in grouped[a].items()},
            }
            for a in evs
        ]

    if args.emit_hodge_tables:
        payload["hodge_tables"] = [
            {
                "face": face_doc,
                "cone_table": _table_payload(np_.faces[rep]),
            }
            for rep, face_doc in zip(np_.representative, payload["faces"])
        ]

    if args.validate:
        report = validate(np_)
        payload["validation"] = [
            {"check": c.name, "status": c.status, "detail": c.detail}
            for c in report.checks
        ]
        if not report.ok:
            exit_code = 3

    payload["timing_ms"] = (time.monotonic_ns() - started) // 1_000_000
    return payload, exit_code


def _print_table(payload: dict) -> None:
    out = []
    out.append(f"input: {payload['source']}")
    out.append(
        f"variables: {', '.join(payload['variables'])}   (n = {payload['n']})"
    )
    pts = " ".join("(" + ",".join(str(x) for x in p) + ")" for p in payload["support"])
    out.append(f"support: {pts}")
    if "mu" in payload:
        out.append(f"mu: {payload['mu']}")
        out.append("eigenvalue   multiplicity   blocks")
        for row in payload["eigenvalues"]:
            blocks = ", ".join(
                f"{cnt} x size {size}" for size, cnt in sorted(
                    row["blocks"].items(), key=lambda kv: int(kv[0])
                )
            )
            out.append(
                f"{row['eigenvalue']:<12} {row['multiplicity']:<14} {blocks}"
            )
    for key, val in payload.get("fastpath", {}).items():
        out.append(f"fastpath {key}: {val[0]}, {val[1]}")
    for entry in payload.get("hodge_tables", []):
        face = entry["face"]
        pts = " ".join(
            "(" + ",".join(str(x) for x in p) + ")" for p in face["vertices"]
        )
        out.append(
            f"face dim {face['dim']} at {pts}: distance {face['distance']}, "
            f"twist {face['twist']}"
        )
        for p, q, a, v in entry["cone_table"]:
            out.append(f"  e[{p},{q}; {a}] = {v}")
    for entry in payload.get("validation", []):
        line = f"check {entry['check']}: {entry['status']}"
        if entry["detail"]:
            line += f" ({entry['detail']})"
        out.append(line)
    out.append(f"timing: {payload['timing_ms']} ms")
    print("\n".join(out))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.json and args.table:
        print("error: --json and --table are mutually exclusive", file=sys.stderr)
        return 2
    try:
        payload, exit_code = run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_table(payload)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
