"""Command-line front end.

Exit codes: 0 success (and: input is a GRRS / inputs isomorphic),
1 not isomorphic, 2 bad input or parameters, 3 WGRS-only, 4 axiom failure,
5 internal error.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from typing import List, Optional

from . import catalog, classify, serialize
from .errors import BadMatrix, BadParameters, GrrsError, NoName, NotClassified
from .finite import (
    FiniteRootSystem,
    check_axioms,
    generate_subsystem,
    gw_orbits,
    isomorphic_finite,
    weyl_orbits,
)
from .linalg import format_rational, format_vector
from .symbolic import (
    SymbolicRootSystem,
    affinize,
    check_symbolic_axioms,
    gaps,
    quotient,
)

_FAMILY_RE = re.compile(r"^family\((.*)\)$")
_ANNX_RE = re.compile(r"^Ann_x\((.*)\)$")


def _parse_set(text: str):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise BadParameters(f"expected a set literal, got {text}")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    return frozenset(int(x) for x in inner.split(","))


def _split_args(text: str) -> List[str]:
    parts, depth, cur = [], 0, ""
    for ch in text:
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
            continue
        if ch in "{([":
            depth += 1
        if ch in "})]":
            depth -= 1
        cur += ch
    if cur:
        parts.append(cur)
    return [p.strip() for p in parts if p.strip()]


def _keywords(parts: List[str]) -> dict:
    """key=value arguments by key; a repeated key raises BadParameters."""
    kw = {}
    for part in parts:
        key, _, val = part.partition("=")
        key = key.strip()
        if key in kw:
            raise BadParameters(f"parameter {key} given twice")
        kw[key] = val.strip()
    return kw


def build_any(name: str):
    """Catalog dispatch: finite names, Ann_x(...), or family(...)."""
    name = name.strip()
    m = _ANNX_RE.match(name)
    if m:
        kw = _keywords(_split_args(m.group(1)))
        unknown = sorted(set(kw) - {"n", "p", "q", "k"})
        if unknown:
            raise BadParameters(f"Ann_x takes no parameter {', '.join(unknown)}")
        kw = {key: int(val) for key, val in kw.items()}
        return catalog.a_nn_x(
            kw.get("n", 1), kw.get("p", 1), kw.get("q", 2), kw.get("k", 0)
        )
    m = _FAMILY_RE.match(name)
    if m:
        parts = _split_args(m.group(1))
        if not parts:
            raise BadParameters("family(...) needs a quotient name")
        kw = _keywords(parts[1:])
        if "k" not in kw:
            raise BadParameters("family(...) needs k=<int>")
        k = int(kw.pop("k"))
        # catalog.family rejects the names its type does not take
        params = {key: int(val) if key == "s" else _parse_set(val) for key, val in kw.items()}
        return catalog.family(parts[0], k, **params)
    return catalog.build(name)


def _emit(payload, args) -> None:
    text = serialize.dumps(payload)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    if getattr(args, "json", False) or not getattr(args, "output", None):
        sys.stdout.write(text)


_KINDS = {"finite": FiniteRootSystem, "symbolic": SymbolicRootSystem}


def _load(path: str, command: str, *kinds: str):
    """The document at path; BadParameters unless it is a system of one of
    the kinds ("finite", "symbolic") the command takes."""
    with open(path) as fh:
        payload = serialize.loads(fh.read())
    if not isinstance(payload, tuple(_KINDS[k] for k in kinds)):
        raise BadParameters(f"{command} expects a {' or '.join(kinds)} system document")
    return payload


def cmd_catalog(args) -> int:
    system = build_any(args.name)
    _emit(system, args)
    return 0


def cmd_check(args) -> int:
    payload = _load(args.file, "check", "finite", "symbolic")
    if isinstance(payload, FiniteRootSystem):
        report = check_axioms(payload)
    else:
        report = check_symbolic_axioms(payload)
    if args.json:
        sys.stdout.write(serialize.dumps(report))
    else:
        for axiom in ("gr0", "gr1", "gr2", "gr3", "wgr3"):
            c = getattr(report, axiom)
            line = f"{axiom}: {'pass' if c.passed else 'FAIL'}"
            if c.witness is not None:
                line += f"  witness: {[[format_rational(x) for x in v] for v in c.witness]}"
            print(line)
        print(f"verdict: {report.verdict()}")
    if report.is_grrs:
        return 0
    if report.is_wgrs:
        return 3
    return 4


def cmd_classify(args) -> int:
    try:
        descs = classify.enumerate_classes(args.cl, args.k)
    except NotClassified as exc:
        print(f"not classified: {exc}", file=sys.stderr)
        return 2
    if args.json or args.output:
        _emit(descs, args)
    else:
        for d in descs:
            try:
                km = classify.kac_moody_name(d)
            except NoName:
                km = "-"
            print(f"{d.cl}  k={d.k}  data={d.data}  kacMoody={km}")
    return 0


def cmd_iso(args) -> int:
    a = _load(args.a, "iso", "finite", "symbolic")
    b = _load(args.b, "iso", "finite", "symbolic")
    if type(a) is not type(b):
        same = False
    elif isinstance(a, FiniteRootSystem):
        same = isomorphic_finite(a, b) is not None
    else:
        same = classify.identify(a) == classify.identify(b)
    print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def cmd_orbits(args) -> int:
    payload = _load(args.file, "orbits", "finite")
    orbits = weyl_orbits(payload) if args.group == "weyl" else gw_orbits(payload)
    for i, orb in enumerate(orbits):
        mem = " ".join(map(format_vector, orb))
        print(f"orbit {i}: size {len(orb)}: {mem}")
    return 0


def cmd_affinize(args) -> int:
    payload = _load(args.file, "affinize", "finite", "symbolic")
    _emit(affinize(payload, args.n), args)
    return 0


def cmd_quotient(args) -> int:
    payload = _load(args.file, "quotient", "symbolic")
    vectors = [v.split(",") for v in args.vector]
    _emit(quotient(payload, vectors, require_bijective=args.bijective), args)
    return 0


def cmd_gaps(args) -> int:
    payload = _load(args.file, "gaps", "symbolic")
    table = gaps(payload)
    for lift, g in table.entries:
        print(f"{format_vector(lift)}: {'undefined' if g is None else g}")
    return 0


def cmd_subsystem(args) -> int:
    payload = _load(args.file, "subsystem", "finite")
    idxs = [int(x) for x in args.seeds.split(",")]
    if not all(0 <= i < len(payload.roots) for i in idxs):
        raise BadParameters(f"seed index out of range 0..{len(payload.roots) - 1}")
    seeds = [payload.roots[i] for i in idxs]
    _emit(generate_subsystem(payload, seeds), args)
    return 0


def cmd_realroots(args) -> int:
    rows = []
    text = "".join(args.matrix.split())
    if not (text.startswith("[[") and text.endswith("]]")):
        raise BadMatrix("matrix syntax: [[2,-1],[-1,2]]")
    for row in text[2:-2].split("],["):
        rows.append(row.split(","))
    J = [int(x) for x in args.J.split(",")] if args.J else []
    system, truncated = catalog.real_roots_from_matrix(rows, J, args.height)
    print(f"roots: {len(system)}  truncated: {'yes' if truncated else 'no'}")
    _emit(system, args)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="grrs",
        description="Build, check, transform, and classify reflection root systems.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def out_opts(sp):
        sp.add_argument("-o", "--output", help="write the JSON document here")
        sp.add_argument("--json", action="store_true", help="print JSON to stdout")

    sp = sub.add_parser("catalog", help="construct a named system")
    sp.add_argument("name")
    out_opts(sp)
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("check", help="run the axiom checker on a document")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("classify", help="enumerate isomorphism classes")
    sp.add_argument("--cl", required=True)
    sp.add_argument("--k", type=int, required=True)
    out_opts(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("iso", help="test two documents for isomorphism")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_iso)

    sp = sub.add_parser("orbits", help="orbit partition of a finite system")
    sp.add_argument("file")
    sp.add_argument("--group", choices=("weyl", "gw"), default="weyl")
    sp.set_defaults(func=cmd_orbits)

    sp = sub.add_parser("affinize", help="extend by central directions")
    sp.add_argument("file")
    sp.add_argument("-n", type=int, default=1)
    out_opts(sp)
    sp.set_defaults(func=cmd_affinize)

    sp = sub.add_parser("quotient", help="quotient by radical directions")
    sp.add_argument("file")
    sp.add_argument("--vector", action="append", required=True,
                    help="comma-separated rational coordinates; repeatable")
    sp.add_argument("--bijective", action="store_true")
    out_opts(sp)
    sp.set_defaults(func=cmd_quotient)

    sp = sub.add_parser("gaps", help="gap table of a symbolic system")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_gaps)

    sp = sub.add_parser("subsystem", help="subsystem generated by seed roots")
    sp.add_argument("file")
    sp.add_argument("--seeds", required=True, help="comma-separated root indices")
    out_opts(sp)
    sp.set_defaults(func=cmd_subsystem)

    sp = sub.add_parser("realroots", help="reflection closure of a symmetric matrix")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--J", default="")
    sp.add_argument("--height", type=int, default=20)
    out_opts(sp)
    sp.set_defaults(func=cmd_realroots)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (GrrsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
