"""Command-line front end: classification, consistency suite, certificates."""

from __future__ import annotations

import argparse
import json
import sys

from .classify import (
    ClassificationReport,
    classify_matrix_family,
    classify_ring,
    lemma31_check,
    verify_implication_chain,
)
from .config import DEFAULTS, EngineConfig, config_from_env
from .corpus import BUILTIN_CORPUS_SPECS, builtin_corpus, run_meta_suite
from .decompose import primitive_decomposition
from .dsl import build_ring, read_json, struct_const_fields
from .errors import ModclassError, RingSpecError, RingValidationError, SizeCapError
from .ideals import jacobson_radical, radical_nilpotency_degree
from .modules import regular_module
from .pp import PPFormula, pp_evaluate, pp_subgroup_is_right_ideal
from .rings import FiniteRing

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_SPEC = 2
EXIT_CAPS = 3

_TABLE_COLUMNS = (
    ("ring", lambda r: r.ring_label),
    ("size", lambda r: r.carrier_size if r.carrier_size is not None else "inf"),
    ("|J|", lambda r: r.radical_size if r.radical_size is not None else 0),
    ("local", lambda r: _yn(r.is_local)),
    ("R/J simple", lambda r: _yn(r.r_mod_j_simple)),
    ("k", lambda r: r.k),
    ("P sizes^r", lambda r: ",".join(f"{s if s is not None else 'inf'}^{m}" for s, m in r.indecomposables)),
    ("flats", lambda r: _yn(r.flats_elementary)),
    ("projs", lambda r: _yn(r.projectives_elementary)),
    ("frees", lambda r: _yn(r.frees_elementary)),
    ("II", lambda r: r.property_II),
    ("III", lambda r: r.property_III),
    ("IV", lambda r: r.property_IV),
    ("I", lambda r: r.property_I),
    ("categorical", lambda r: _yn(r.categorical)),
    ("proj=free", lambda r: _yn(r.projective_equals_free)),
)


def _yn(value: bool) -> str:
    return "yes" if value else "no"


def render_table(reports: list[ClassificationReport]) -> str:
    headers = [name for name, _ in _TABLE_COLUMNS]
    rows = [[str(getter(rep)) for _, getter in _TABLE_COLUMNS] for rep in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cfg_from_args(args) -> EngineConfig:
    caps = {cap: getattr(args, cap) for cap in ("max_ring", "max_module", "max_homs")}
    caps = {cap: value for cap, value in caps.items() if value is not None}
    for cap, value in caps.items():
        if value < 1:
            raise ValueError(f"--{cap.replace('_', '-')} must be positive, got {value}")
    return config_from_env(DEFAULTS).with_overrides(**caps)


def _add_cap_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-ring", type=int, default=None, help="ring carrier cap")
    parser.add_argument("--max-module", type=int, default=None, help="module carrier cap")
    parser.add_argument("--max-homs", type=int, default=None, help="hom enumeration cap")


def cmd_classify(args) -> int:
    cfg = _cfg_from_args(args)
    if args.corpus and args.spec:
        print("classify: give SPEC arguments or --corpus builtin, not both", file=sys.stderr)
        return EXIT_SPEC
    specs = list(BUILTIN_CORPUS_SPECS) if args.corpus else list(args.spec)
    if not specs:
        print("classify: no ring specs given (use SPEC arguments or --corpus builtin)", file=sys.stderr)
        return EXIT_SPEC

    rings = [build_ring(spec, cfg) for spec in specs]
    reports = [classify_ring(ring, cfg) for ring in rings]

    meta = [verify_implication_chain(reports), lemma31_check(reports)]
    violations = [f.to_dict() for m in meta for f in m.findings]
    if args.table:
        print(render_table(reports))
        print(f"{len(violations)} meta violations")
        for v in violations:
            print(f"  {v['ring_label']}: {v['check']}: {v['detail']}")
    elif len(reports) == 1 and not args.corpus:
        print(json.dumps(reports[0].to_dict(), indent=2))
    else:
        payload = {
            "reports": [r.to_dict() for r in reports],
            "meta_violations": violations,
            "violation_count": len(violations),
        }
        print(json.dumps(payload, indent=2))
    return EXIT_OK if not violations else EXIT_VIOLATIONS


def _load_unchecked_ring(path: str) -> FiniteRing:
    label = f"unchecked:{path}"
    orders, one, table = struct_const_fields(read_json(path), label)
    return FiniteRing(orders, one, label, mul_table=table)


def cmd_check_paper(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be positive, got {args.seeds}")
    cfg = _cfg_from_args(args)
    rings = builtin_corpus(cfg)
    for path in args.add_struct_const_unchecked or []:
        rings.append(_load_unchecked_ring(path))
    seeds = tuple(range(1, args.seeds + 1))
    result = run_meta_suite(cfg, rings=rings, seeds=seeds)
    for section in result.meta:
        status = "ok" if section.ok else "VIOLATED"
        print(f"{section.name}: {status} ({section.checked} checked)")
        for finding in section.findings:
            print(f"  {finding.ring_label}: {finding.check}: {finding.detail}")
        for record in section.records:
            print(f"  note: {record}")
    total = len(result.violations())
    print(f"total violations: {total}")
    return EXIT_OK if total == 0 else EXIT_VIOLATIONS


def cmd_certificate(args) -> int:
    cfg = _cfg_from_args(args)
    field = args.field if args.field == "infinite" else int(args.field)
    _, certificate = classify_matrix_family(args.n, field, cfg)
    print(json.dumps(certificate.to_dict(), indent=2))
    return EXIT_OK


def cmd_decompose(args) -> int:
    cfg = _cfg_from_args(args)
    ring = build_ring(args.spec, cfg)
    decomposition = primitive_decomposition(ring, cfg)
    payload = {
        "ring": ring.label,
        "carrier_size": ring.size,
        "idempotents": list(decomposition.idempotents),
        "classes": [list(group) for group in decomposition.classes],
        "multiplicities": list(decomposition.multiplicities),
        "sizes": list(decomposition.sizes),
        "k": decomposition.k,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_radical(args) -> int:
    cfg = _cfg_from_args(args)
    ring = build_ring(args.spec, cfg)
    radical = jacobson_radical(ring)
    payload = {
        "ring": ring.label,
        "carrier_size": ring.size,
        "elements": list(radical.elements),
        "size": len(radical),
        "generators": list(radical.generators),
        "nilpotency_degree": radical_nilpotency_degree(ring, radical),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_ppval(args) -> int:
    cfg = _cfg_from_args(args)
    ring = build_ring(args.spec, cfg)
    formula = PPFormula.from_json_dict(read_json(args.formula))
    reg = regular_module(ring, cfg)
    solutions = pp_evaluate(reg, formula, cfg)
    payload = {
        "ring": ring.label,
        "free": formula.free,
        "bound": formula.bound,
        "solutions": [int(s) for s in solutions],
        "size": len(solutions),
    }
    if formula.free == 1:
        verdict = pp_subgroup_is_right_ideal(ring, formula, cfg)
        payload["right_ideal"] = bool(verdict)
        payload["generators"] = list(verdict.witness) if verdict else None
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modclass",
        description="Finite-ring and module classification engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify rings given by spec expressions")
    p.add_argument("spec", nargs="*", help="ring-spec expressions")
    p.add_argument("--corpus", choices=["builtin"], default=None, help="classify the built-in corpus")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, help="JSON output (default)")
    fmt.add_argument("--table", action="store_true", help="aligned table output")
    _add_cap_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("check-paper", help="run the full consistency meta-suite")
    p.add_argument("--seeds", type=int, default=3, help="number of randomized decomposition seeds")
    p.add_argument(
        "--add-struct-const-unchecked",
        action="append",
        metavar="FILE",
        help="inject a structure-constant ring without build-time validation "
        "(negative control; the suite re-checks axioms)",
    )
    _add_cap_flags(p)
    p.set_defaults(func=cmd_check_paper)

    p = sub.add_parser("certificate", help="emit the matrix-family certificate")
    p.add_argument("--n", type=int, required=True, help="matrix dimension (1..4)")
    p.add_argument("--field", required=True, help="'infinite' or a prime power up to 9")
    _add_cap_flags(p)
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("decompose", help="primitive idempotent decomposition of a ring")
    p.add_argument("spec")
    _add_cap_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("radical", help="Jacobson radical of a ring")
    p.add_argument("spec")
    _add_cap_flags(p)
    p.set_defaults(func=cmd_radical)

    p = sub.add_parser("ppval", help="evaluate a pp formula on the regular module")
    p.add_argument("spec")
    p.add_argument("formula", help="JSON file {free, bound, eqs}")
    _add_cap_flags(p)
    p.set_defaults(func=cmd_ppval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RingSpecError, RingValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except SizeCapError as exc:
        print(f"cap exhausted: {exc}", file=sys.stderr)
        hint = f"the {exc.cap} cap of {exc.limit} has no flag of its own"
        if exc.cap in ("max_ring", "max_module", "max_homs"):
            hint = f"rerun with --{exc.cap.replace('_', '-')} {exc.requested} or more"
        print(hint, file=sys.stderr)
        return EXIT_CAPS
    except ModclassError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_VIOLATIONS


if __name__ == "__main__":
    sys.exit(main())
