"""Command-line interface.

Subcommands::

    build           construct a canonical system (optionally verify) and emit it
    verify          re-check a serialized system file
    delta           print the fundamental antiinvariant of a group
    oracle-compare  build via construction and PDE oracle; compare spans
    bench           time the heavy stages for a configuration

Machine output goes to stdout as JSON (deterministic: keys sorted, terms in
graded-lex order); diagnostics go to stderr.  Exit status is 0 only on
success (for ``build --verify``, only when verification passes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .canonical import InvariantSystem, canonical_system, transfer, verify_canonical
from .groups import ReflectionGroup, antiinvariant, build_root_system
from .oracle import pde_solve, spans_agree
from .polys import Polynomial
from .seeds import seed_invariants, validate_user_seeds


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1))
    sys.stdout.write("\n")


def _fail(message: str, code: int = 1) -> int:
    sys.stderr.write(message.rstrip() + "\n")
    return code


def _add_group_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--type", required=True, dest="type_label",
                   help="group type: A, B, D, I2, H3, H4, F4, E6")
    p.add_argument("--rank", type=int, default=None, help="rank (for A/B/D)")
    p.add_argument("--m", type=int, default=None, help="dihedral order parameter for I2")
    p.add_argument("--allow-large", action="store_true",
                   help="opt in to the expensive types H4 and E6")


def _build_group(args) -> ReflectionGroup:
    rank = args.rank
    if args.type_label in ("A", "B", "D") and rank is None:
        raise ValueError(f"type {args.type_label} needs --rank")
    return ReflectionGroup(build_root_system(args.type_label, rank, m=args.m,
                                             allow_large=args.allow_large))


def _load_seeds(group: ReflectionGroup, selector: str):
    if selector == "auto":
        return seed_invariants(group)
    if selector.startswith("file:"):
        with open(selector[5:], encoding="utf-8") as fh:
            data = json.load(fh)
        if not (isinstance(data, dict) and isinstance(data.get("seeds"), list)):
            raise ValueError("malformed seed file: expected an object with a list 'seeds'")
        polys = [Polynomial.from_json(p) for p in data["seeds"]]
        return validate_user_seeds(polys, group)
    raise ValueError(f"unknown seed selector {selector!r}; use auto or file:<path>")


def _format_system(system: InvariantSystem, fmt: str, report=None):
    if fmt == "json":
        data = system.to_json()
        if report is not None:
            field = system.entries[0].polynomial.field
            data["verification"] = report.to_json(field)
        _emit(data)
        return
    if fmt == "latex":
        for line in system.latex():
            print(line)
        return
    if fmt == "summary":
        print(f"group: {system.group_json['type']} rank {system.group_json['rank']}"
              + (f" m={system.group_json['m']}" if system.group_json["m"] else ""))
        print(f"provenance: {system.provenance}")
        for i, e in enumerate(system.entries, start=1):
            field = e.polynomial.field
            print(f"f_{i} (degree {e.degree}, norm {field.format(e.norm)}): {e.polynomial}")
        if report is not None:
            print("verification:", "pass" if report.passed else f"FAIL ({report.summary()})")
        return
    raise ValueError(f"unknown format {fmt!r}")


def cmd_build(args) -> int:
    group = _build_group(args)
    seeds = _load_seeds(group, args.seed)
    system = canonical_system(group, seeds=seeds, mode=args.mode)
    report = None
    if args.verify:
        report = verify_canonical(system, group)
        system.verified = report.passed
    _format_system(system, args.format, report)
    if report is not None and not report.passed:
        return _fail(f"verification failed: {report.summary()}")
    return 0


def cmd_verify(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        data = json.load(fh)
    system = InvariantSystem.from_json(data)
    g = system.group_json
    rs = build_root_system(g["type"], g["rank"], m=g.get("m"), allow_large=True)
    if any(p.field is not rs.field or p.num_vars != rs.num_vars
           for p in system.polynomials()):
        raise ValueError(f"{rs.describe()} lives in {rs.num_vars} variables over "
                         f"{rs.field.name}; the file's entries do not")
    group = ReflectionGroup(rs)
    report = verify_canonical(system, group)
    _emit(report.to_json(system.entries[0].polynomial.field))
    if not report.passed:
        for f in report.pair_failures:
            sys.stderr.write(f"failing pair (i={f.i + 1}, j={f.j + 1}): "
                             f"(f_{f.i + 1}, f_{f.j + 1}) = {f.pairing}\n")
        return _fail(f"verification failed: {report.summary()}")
    return 0


def cmd_delta(args) -> int:
    group = _build_group(args)
    delta = antiinvariant(group.root_system)
    if args.format == "latex":
        print(delta.latex())
    elif args.format == "summary":
        print(delta)
    else:
        _emit({"group": group.root_system.to_json(), "delta": delta.to_json()})
    return 0


def cmd_oracle_compare(args) -> int:
    group = _build_group(args)
    oracle = pde_solve(group)
    constructed = canonical_system(group)
    report_c = verify_canonical(constructed, group)
    report_o = verify_canonical(oracle, group)
    agreement = spans_agree(constructed.polynomials(), oracle.polynomials())
    result = {
        "group": group.root_system.to_json(),
        "construction_verified": report_c.passed,
        "oracle_verified": report_o.passed,
        "per_degree_spans_equal": {str(d): ok for d, ok in agreement.items()},
        "equal": all(agreement.values()) and report_c.passed and report_o.passed,
    }
    _emit(result)
    if not result["equal"]:
        return _fail("oracle and construction disagree")
    return 0


def cmd_bench(args) -> int:
    group = _build_group(args)
    timings = {}
    t0 = time.perf_counter()
    delta = antiinvariant(group.root_system)
    timings["delta_seconds"] = time.perf_counter() - t0

    seeds = seed_invariants(group)
    probe = seeds.polynomials[-1].partial(0)
    t0 = time.perf_counter()
    transfer(probe, delta)
    timings["transfer_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    system = canonical_system(group, seeds=seeds, delta=delta)
    timings["build_seconds"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = verify_canonical(system, group)
    timings["verify_seconds"] = time.perf_counter() - t0
    timings["verified"] = report.passed
    _emit({"group": group.root_system.to_json(), "timings": timings})
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canoninv",
        description="Construct and exactly verify canonical systems of basic invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a canonical system")
    _add_group_flags(p)
    p.add_argument("--seed", default="auto",
                   help="seed selector: auto | file:<path>")
    p.add_argument("--mode", default="generic", choices=["generic", "refined"])
    p.add_argument("--format", default="json", choices=["json", "latex", "summary"])
    p.add_argument("--verify", action="store_true", help="verify before emitting")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="re-check a serialized system")
    p.add_argument("file", help="path to a system JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("delta", help="print the fundamental antiinvariant")
    _add_group_flags(p)
    p.add_argument("--format", default="json", choices=["json", "latex", "summary"])
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("oracle-compare", help="compare construction against the PDE oracle")
    _add_group_flags(p)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("bench", help="time antiinvariant, transfer, build, verify")
    _add_group_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        return _fail(f"error: {exc}", 2)


if __name__ == "__main__":
    sys.exit(main())
