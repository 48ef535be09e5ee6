"""Command-line front end.

Machine-readable JSON on stdout by default; `--pretty` switches the
relation-bearing commands to small human tables. Exit codes: 0 for
success/true, 1 for a false verdict (law failures, failed axioms, not
isomorphic), 2 for usage or format errors, which carry a diagnostic on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import _MEMOIZED, indexcore, isomorph, models
from .domains import classify, per_ldom, per_rdom
from .points import points as carrier_points
from .rel import (
    CarrierMismatch,
    MAX_INPUT_SIZE,
    EnumerationLimit,
    Carrier,
    Relation,
    RelationFormatError,
    carrier_to_dict,
    from_dict,
    read_json,
    to_dict,
)


class _UsageError(Exception):
    pass


def _load_relation(path: str) -> Relation:
    try:
        data = read_json(path)
    except OSError as exc:
        raise _UsageError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    try:
        return from_dict(data)
    except RelationFormatError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _emit(payload: dict, pretty: bool) -> None:
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=False))


def _grid(r: Relation) -> str:
    lines = ["    " + " ".join(f"{lab:>3s}" for lab in r.dst.labels)]
    for lab, bits in zip(r.src.labels, r.rows):
        row = " ".join(f"{'  x' if (bits >> j) & 1 else '  .'}" for j in range(r.dst.size))
        lines.append(f"{lab:>3s} {row}")
    return "\n".join(lines)


# -- subcommands ---------------------------------------------------------------


def _cmd_classify(args) -> int:
    r = _load_relation(args.relation)
    payload = {"relation": to_dict(r), "classification": asdict(classify(r))}
    if args.pretty:
        print(_grid(r))
        for name, val in payload["classification"].items():
            print(f"{name:>14s}: {'yes' if val else 'no'}")
    else:
        _emit(payload, args.pretty)
    return 0


def _dot_quoted(text: str) -> str:
    """A DOT string literal: backslash and double quote escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_bipartite(r: Relation, index: Relation) -> str:
    """Bipartite drawing: one cluster per per-domain class, index edges bold."""
    out = ["digraph relation {", "  rankdir=LR;", "  node [shape=circle];"]

    def side(prefix: str, per: Relation) -> None:
        labels = per.src.labels
        for n, mask in enumerate(indexcore._per_classes(per.code, per.src.size)):
            out.append(f"  subgraph cluster_{prefix}{n} {{")
            out.append(f"    label={_dot_quoted(indexcore._class_label(labels, mask))};")
            for i in indexcore._members(mask):
                out.append(f"    {prefix}{i} [label={_dot_quoted(labels[i])}];")
            out.append("  }")
        for i in range(per.src.size):
            if (i, i) not in per:
                out.append(f"  {prefix}{i} [label={_dot_quoted(labels[i])}, style=dashed];")

    side("s", per_ldom(r))
    side("t", per_rdom(r))
    for i, j in r.pairs():
        style = ' [color=crimson, penwidth=2.0]' if (i, j) in index else ""
        out.append(f"  s{i} -> t{j}{style};")
    out.append("}")
    return "\n".join(out)


def _cmd_index(args) -> int:
    r = _load_relation(args.relation)
    cert = indexcore.relation_index(r, policy=args.policy, seed=args.seed)
    if args.dot:
        print(_dot_bipartite(r, cert.index))
        return 0
    payload = {
        "relation": to_dict(r),
        "index": to_dict(cert.index),
        "checks": dict(cert.checks),
        "ok": cert.ok,
        "policy": args.policy,
        "seed": args.seed,
    }
    if args.pretty:
        print(_grid(r))
        print("index:")
        print(_grid(cert.index))
        for name, val in cert.checks.items():
            print(f"  {name}: {'ok' if val else 'FAIL'}")
    else:
        _emit(payload, args.pretty)
    return 0


def _cmd_core(args) -> int:
    r = _load_relation(args.relation)
    if args.dot:
        print(_dot_bipartite(r, indexcore.relation_index(r, policy=args.policy, seed=args.seed).index))
        return 0
    dec = indexcore.core_of(r, mode=args.mode, policy=args.policy, seed=args.seed)
    payload = {
        "relation": to_dict(r),
        "mode": dec.mode,
        "lam": to_dict(dec.lam),
        "rho": to_dict(dec.rho),
        "core": to_dict(dec.core),
        "checks": dec.verify(),
    }
    if args.pretty:
        print(f"mode: {dec.mode}")
        print("core:")
        print(_grid(dec.core))
    else:
        _emit(payload, args.pretty)
    return 0


def _cmd_iso(args) -> int:
    r = _load_relation(args.left)
    s = _load_relation(args.right)
    try:
        w = isomorph.find_isomorphism(r, s)
    except (isomorph.SearchSpaceExceeded, CarrierMismatch) as exc:
        raise _UsageError(str(exc)) from exc
    if w is None:
        _emit({"isomorphic": False}, args.pretty)
        return 1
    _emit({"isomorphic": True, "phi": to_dict(w.phi), "psi": to_dict(w.psi)}, args.pretty)
    return 0


def _cmd_decompose(args) -> int:
    r = _load_relation(args.relation)
    pair_list = [[x, y] for x, y in r.pairs()]
    _emit({"relation": to_dict(r), "pairs": pair_list, "count": len(pair_list)}, args.pretty)
    return 0


def _cmd_points(args) -> int:
    if not 0 <= args.size <= MAX_INPUT_SIZE:
        raise _UsageError(f"carrier size must be non-negative and at most {MAX_INPUT_SIZE}, got {args.size}")
    carrier = Carrier("A", args.size)
    payload = {
        "carrier": carrier_to_dict(carrier),
        "points": [to_dict(p) for p in carrier_points(carrier)],
    }
    _emit(payload, args.pretty)
    return 0


def _cmd_laws(args) -> int:
    # imported here: importing laws parses every statement, which no other command needs
    from . import laws

    if args.manifest:
        _emit(laws.build_manifest(), args.pretty)
        return 0
    try:
        rep = laws.run_suite(
            max_size=args.max_size,
            samples=args.samples,
            seed=args.seed,
            law_filter=args.filter,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _emit(rep.to_dict(), args.pretty)
    if args.stats:
        memos = {fn.__name__: fn.cache_info()._asdict() for fn in _MEMOIZED}
        print(json.dumps({"memos": memos, "pools": len(laws._POOLS)}), file=sys.stderr)
    return 0 if rep.ok else 1


def _cmd_model(args) -> int:
    source = args.model
    try:
        if source in models.BUNDLED_NAMES:
            m = models.load_bundled(source)
        else:
            m = models.load_model(Path(source))
    except models.ModelFormatError as exc:
        message = exc.message.removeprefix(f"{Path(source)}: ")  # invalid JSON names the file
        raise _UsageError(f"{source}: [{exc.category}] {message}") from exc
    except OSError as exc:
        raise _UsageError(f"{source}: {exc.strerror or exc}") from exc
    rep = models.check_axioms(m)
    payload = {
        "model": m.name,
        "elements": list(m.elements),
        "axioms": rep.flags(),
        "counterexamples": {k: list(v) for k, v in rep.counterexamples.items()},
        "ok": rep.ok,
    }
    if args.pretty:
        print(f"model {m.name} ({len(m.elements)} elements)")
        for axiom, val in rep.flags().items():
            mark = "pass" if val else "FAIL"
            extra = ""
            if not val and axiom in rep.counterexamples:
                extra = "  at " + ", ".join(rep.counterexamples[axiom])
            print(f"  {axiom:>16s}: {mark}{extra}")
    else:
        _emit(payload, args.pretty)
    return 0 if rep.ok else 1


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relalg",
        description="Finite-model workbench for point-free relation algebra.",
    )
    parser.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="print the structural classification of a relation")
    p.add_argument("relation", help="relation JSON file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("index", help="compute and certify an index of a relation")
    p.add_argument("relation")
    p.add_argument("--policy", choices=indexcore.POLICIES, default="min")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", action="store_true", help="emit a bipartite graph instead of JSON")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("core", help="compute a core decomposition λ∘R∘ρ°")
    p.add_argument("relation")
    p.add_argument("--mode", choices=indexcore.CORE_MODES, default="same-type")
    p.add_argument("--policy", choices=indexcore.POLICIES, default="min")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("iso", help="search for an isomorphism witness between two relations")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("decompose", help="list the pairs a relation is the union of")
    p.add_argument("relation")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("points", help="list the points of a carrier of the given size")
    p.add_argument("size", type=int)
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser("laws", help="run the quantified law suite")
    p.add_argument("--max-size", type=int, default=2)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--filter", default=None, help="glob over law ids, e.g. 'residual-*'")
    p.add_argument("--manifest", action="store_true", help="print the law catalogue and exit")
    p.add_argument("--stats", action="store_true", help="print the memos' hits and misses as JSON on stderr")
    p.set_defaults(func=_cmd_laws)

    p = sub.add_parser("model", help="check the axioms of an abstract model (bundled name or file)")
    p.add_argument("model")
    p.set_defaults(func=_cmd_model)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (_UsageError, RelationFormatError, models.ModelFormatError, CarrierMismatch, EnumerationLimit) as exc:
        print(f"relalg: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
