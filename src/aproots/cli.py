"""Command-line surface.

Subcommands mirror the library: classify, roots, context, phic, compat,
clusters, expand, exchange, fan-svg, oracle, verify.  Vectors are
comma-separated rationals like "3/2,-1,0"; types are catalog labels like
"D3(2)" or "A5(1):k=2", or a JSON file {"cartan": [[...]], "aff": 2}.
Exit codes: 0 success, 1 domain error or malformed input (a usage error
included), 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cartan import AffineContext, Kind, catalog, classify, validate_cartan
from .coxeter import CoxeterContext, source_sink_counts
from .errors import AprootsError, MalformedInput, NegativeBound
from .linalg import format_rational, parse_rational


def _parse_vector(text: str, n: int) -> tuple:
    try:
        v = tuple(parse_rational(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise MalformedInput(f"not a vector of rationals: {text!r}") from None
    if len(v) != n:
        raise MalformedInput(f"vector {text!r} has {len(v)} entries, expected {n}")
    return v


def _format_vector(v) -> str:
    return ",".join(format_rational(x) for x in v)


def _read_cartan_json(path: str):
    """The Cartan matrix, the 0-based affine index (or None) and the node
    order as the default word, of a JSON file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise MalformedInput(f"cannot read --cartan-json {path}: {exc}") from None
    if not isinstance(data, dict) or "cartan" not in data:
        raise MalformedInput(f"--cartan-json {path}: expected an object with a \"cartan\" key")
    raw, aff = data["cartan"], data.get("aff")
    if not isinstance(raw, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in raw
    ):
        raise MalformedInput(f"--cartan-json {path}: \"cartan\" must be a list of integer rows")
    if aff is not None and type(aff) is not int:
        raise MalformedInput(f"--cartan-json {path}: \"aff\" must be an integer node number")
    cm = validate_cartan(raw)
    return cm, None if aff is None else aff - 1, tuple(range(cm.n))


def _label(args) -> str:
    if args.type is None:
        raise AprootsError("pass --type LABEL or --cartan-json FILE")
    if not args.type.strip():
        raise MalformedInput("--type is blank")
    return args.type


def _load_matrix(args):
    """(CartanMatrix, 0-based affine index or None, default word)."""
    if args.cartan_json is not None:
        return _read_cartan_json(args.cartan_json)
    return catalog(_label(args))


def _load_context(args):
    cm, aff, word = _load_matrix(args)
    return AffineContext(cm, aff=aff), word


def _word(args, default):
    if getattr(args, "c", None) is not None:
        try:
            return tuple(int(x) - 1 for x in args.c.split(","))
        except ValueError:
            raise MalformedInput(f"--c must list node numbers: {args.c!r}") from None
    return default


def _load_coxeter(args):
    ctx, word = _load_context(args)
    return CoxeterContext(ctx, _word(args, word))


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for line in text_lines:
            print(line)


def _matrix_json(m):
    return [[format_rational(x) for x in row] for row in m]


def cmd_classify(args):
    cm, aff, _ = _load_matrix(args)
    cls = classify(cm, aff=aff)
    payload = {"kind": cls.kind.value, "d": [format_rational(x) for x in cm.d]}
    lines = [f"kind: {cls.kind.value}", f"symmetrizers: {_format_vector(cm.d)}"]
    if cls.kind is Kind.AFFINE:
        payload.update({
            "delta": list(cls.delta),
            "aff": cls.aff + 1,
            "theta": list(cls.theta),
            "delta_vee_coroot": list(cls.delta_vee_coroot),
        })
        lines += [
            f"delta: {_format_vector(cls.delta)}",
            f"aff index: {cls.aff + 1}",
            f"theta: {_format_vector(cls.theta)}",
            f"dual imaginary root (coroot coords): {_format_vector(cls.delta_vee_coroot)}",
        ]
    _emit(args, payload, lines)
    return 0


def cmd_roots(args):
    from .roots import roots_up_to_level

    ctx, _ = _load_context(args)
    out = roots_up_to_level(ctx, args.level)
    payload = [list(r) for r in out]
    _emit(args, payload, [_format_vector(r) for r in out])
    return 0


def cmd_context(args):
    cc = _load_coxeter(args)
    orientations, classes = source_sink_counts(cc.ctx)
    euler = [[dict(row).get(j, x) for j, x in enumerate(e)]
             for e, row in zip(cc.ctx.simples, cc.lower)]
    coxeter = _matrix_json(zip(*map(cc.c_action, cc.ctx.simples)))
    gamma = cc.gamma()
    payload = {
        "word": [i + 1 for i in cc.word],
        "euler_matrix": _matrix_json(euler),
        "coxeter_matrix": coxeter,
        "gamma": [format_rational(x) for x in gamma],
        "phi_weight": [format_rational(x) for x in cc.phi_weight],
        "psi_to": {i + 1: list(v) for i, v in cc.psi_to.items()},
        "psi_from": {i + 1: list(v) for i, v in cc.psi_from.items()},
        "components": [
            {
                "cycle": [list(r) for r in comp.cycle],
                "delta_multiple": comp.delta_multiple,
                "affine_simple": list(comp.affine_simple),
            }
            for comp in cc.components
        ],
        "omega": [list(r) for r in cc.omega],
        "kappa": {_format_vector(k): v for k, v in cc.kappa.items()},
        "move_bound": cc.m_bound,
        "source_sink_orientations": orientations,
        "coxeter_classes": classes,
    }
    lines = [
        f"word: {' '.join(str(i + 1) for i in cc.word)}",
        f"coxeter matrix: {coxeter}",
        f"gamma: {_format_vector(gamma)}",
        f"phi (weight coords): {_format_vector(cc.phi_weight)}",
        f"components: {[(len(c.cycle), c.delta_multiple) for c in cc.components]}",
        f"finite-orbit simples: {[ _format_vector(r) for r in cc.fin_simples]}",
        f"omega: {[_format_vector(r) for r in cc.omega]}",
        f"move bound: {cc.m_bound}",
        f"coxeter classes: {classes}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_phic(args):
    from .almost_positive import export_enumeration

    cc = _load_coxeter(args)
    data = export_enumeration(cc, args.m_bound)
    lines = [f"{_format_vector(item['root'])}  [{item['class']}]" for item in data]
    _emit(args, data, lines)
    return 0


def cmd_compat(args):
    from .compatibility import compatibility_degree

    cc = _load_coxeter(args)
    value = compatibility_degree(cc, _parse_vector(args.alpha, cc.n),
                                 _parse_vector(args.beta, cc.n))
    payload = {
        "degree": format_rational(value.degree),
        "branch": value.branch,
        "arrow_to": None if value.arrow_to is None else format_rational(value.arrow_to),
        "arrow_from": None if value.arrow_from is None else format_rational(value.arrow_from),
    }
    lines = [f"degree: {payload['degree']}", f"branch: {value.branch}"]
    if value.arrow_to is not None:
        lines.append(f"arrows: ({payload['arrow_to']}, {payload['arrow_from']})")
    _emit(args, payload, lines)
    return 0


def cmd_clusters(args):
    from .clusters import enumerate_clusters

    cc = _load_coxeter(args)
    real, imag = map(sorted, enumerate_clusters(cc, args.depth))
    if args.json:   # only the form asked for: both are large at high rank
        _emit(args, {"real": real, "imaginary": imag}, ())
        return 0
    text = {r: _format_vector(r) for r in {r for cl in real + imag for r in cl}}
    lines = [f"real clusters: {len(real)}"]
    lines += ["  " + "; ".join(map(text.get, cl)) for cl in real]
    lines.append(f"imaginary clusters: {len(imag)}")
    lines += ["  " + "; ".join(map(text.get, cl)) for cl in imag]
    _emit(args, None, lines)
    return 0


def cmd_expand(args):
    from .expansion import cluster_expansion

    cc = _load_coxeter(args)
    terms = cluster_expansion(cc, _parse_vector(args.vector, cc.n))
    ordered = sorted(terms.items())
    payload = [{"root": list(r), "coefficient": format_rational(c)} for r, c in ordered]
    text = " + ".join(f"{format_rational(c)}·({_format_vector(r)})" for r, c in ordered)
    _emit(args, payload, [text if text else "0"])
    return 0


def cmd_exchange(args):
    from .clusters import exchange

    cc = _load_coxeter(args)
    cluster = [_parse_vector(part, cc.n) for part in args.cluster.split(";")]
    beta, new = exchange(cc, cluster, _parse_vector(args.remove, cc.n))
    payload = {"partner": list(beta), "cluster": [list(r) for r in new]}
    _emit(args, payload, [
        f"partner: {_format_vector(beta)}",
        "cluster: " + "; ".join(_format_vector(r) for r in new),
    ])
    return 0


def cmd_fan_svg(args):
    from .clusters import enumerate_clusters
    from .fan_svg import render_fan_svg, require_rank3

    cc = _load_coxeter(args)
    require_rank3(cc)   # before the enumeration, whose cost grows with --depth
    pole = None if args.pole is None else _parse_vector(args.pole, cc.n)
    if pole is not None and not any(pole):
        raise MalformedInput("--pole must be a nonzero vector")
    real, imag = enumerate_clusters(cc, args.depth)
    svg = render_fan_svg(cc, sorted(real) + sorted(imag), pole=pole)
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise AprootsError(f"cannot write --out {args.out}: {exc}") from None
    print(f"wrote {args.out} ({len(real)} real cones, {len(imag)} imaginary)")
    return 0


def cmd_oracle(args):
    from .oracle_bridge import (
        conjecture_evidence,
        exchange_graphs_agree,
        verify_bijection,
    )

    runs = {
        "thm12": lambda cc: verify_bijection(cc, args.depth),
        "thm13": lambda cc: exchange_graphs_agree(cc, min(args.depth, 5)),
        "conj14": lambda cc: conjecture_evidence(cc, min(args.depth, 4)),
    }
    checks = args.check.split(",")
    unknown = [check for check in checks if check not in runs]
    if unknown:
        raise AprootsError(f"unknown check {', '.join(map(repr, unknown))}")
    cc = _load_coxeter(args)
    payload = {check: runs[check](cc) for check in checks}
    failed = any(not report["ok"] for name, report in payload.items() if name != "conj14")
    lines = []
    for name, report in payload.items():
        if name == "conj14":
            lines.append(
                f"{name}: {report['comparisons']} comparisons, "
                f"{len(report['mismatches'])} mismatches"
            )
        else:
            lines.append(f"{name}: {'ok' if report['ok'] else 'FAILED'}")
    _emit(args, payload, lines)
    return 2 if failed else 0


def cmd_verify(args):
    from .verification import CRITERIA, run_all, run_for_type

    if args.type is not None:
        rows = run_for_type(_label(args))
    else:
        names = None if args.criteria is None else args.criteria.split(",")
        unknown = [n for n in names or () if n not in CRITERIA]
        if unknown:
            raise AprootsError(f"unknown criteria: {', '.join(map(repr, unknown))}")
        rows = run_all(names)
    width = max(len(r["name"]) for r in rows)
    failed = 0
    for row in rows:
        mark = "PASS" if row["ok"] else "FAIL"
        detail = f"  {row['detail']}" if row["detail"] else ""
        print(f"[{mark}] {row['name']:<{width}}{detail}")
        failed += not row["ok"]
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise MalformedInput, so they
    exit 1 with one line like every other malformed input."""

    def error(self, message):
        raise MalformedInput(message)


def build_parser():
    parser = _Parser(
        prog="aproots",
        description="Exact affine almost-positive-roots model: compatibility "
        "degrees, cluster fans, and a seed-mutation oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, coxeter=True):
        p.add_argument("--type", help="catalog label, e.g. D3(2) or A5(1):k=2")
        p.add_argument("--cartan-json", help="JSON file with a cartan matrix")
        p.add_argument("--json", action="store_true", help="machine output")
        if coxeter:
            p.add_argument("--c", help="coxeter word, e.g. 1,2,3 (default: catalog order)")

    p = sub.add_parser("classify", help="finite/affine classification")
    common(p, coxeter=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("roots", help="roots up to a delta level")
    common(p, coxeter=False)
    p.add_argument("--level", type=int, default=1)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("context", help="full coxeter-element context")
    common(p)
    p.set_defaults(func=cmd_context)

    p = sub.add_parser("phic", help="bounded almost-positive enumeration")
    common(p)
    p.add_argument("--m-bound", type=int, default=2)
    p.set_defaults(func=cmd_phic)

    p = sub.add_parser("compat", help="compatibility degree of two roots")
    common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("clusters", help="enumerate clusters to a depth")
    common(p)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("expand", help="unique cluster expansion of a vector")
    common(p)
    p.add_argument("--vector", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("exchange", help="exchange a root out of a cluster")
    common(p)
    p.add_argument("--cluster", required=True, help="semicolon-separated roots")
    p.add_argument("--remove", required=True)
    p.set_defaults(func=cmd_exchange)

    p = sub.add_parser("fan-svg", help="rank-3 fan picture")
    common(p)
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--pole", help="direction sent to infinity (default delta)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fan_svg)

    p = sub.add_parser("oracle", help="seed-mutation cross-checks")
    common(p)
    p.add_argument("--depth", type=int, default=6,
                   help="mutation depth; thm13 runs at most depth 5, conj14 at most 4")
    p.add_argument("--check", default="thm12,thm13",
                   help="comma list from thm12,thm13,conj14")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="run acceptance criteria")
    scope = p.add_mutually_exclusive_group()
    scope.add_argument("--criteria", help="comma list (default: all)")
    scope.add_argument("--type", help="scope the checks to one catalog type")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name in ("level", "m_bound", "depth"):
            if getattr(args, name, 0) < 0:
                raise NegativeBound(f"--{name.replace('_', '-')} must be at least 0")
        return args.func(args)
    except AprootsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
