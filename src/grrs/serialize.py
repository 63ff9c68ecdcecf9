"""Canonical JSON interchange for all document types.

Rationals serialize as "p/q" (or "p" when the denominator is 1).  Documents
are emitted with sorted keys and fixed separators, and every parser feeds a
canonicalizing constructor, so parse -> serialize round-trips are
byte-identical.
"""

from __future__ import annotations

import json
from fractions import Fraction as Q
from typing import List, Optional, Union

from .catalog import type_key
from .classify import ClassDescriptor, kac_moody_name
from .errors import GrrsError, NoName
from .finite import AxiomCheck, AxiomReport, FiniteRootSystem
from .linalg import BilinearSpace, Lattice, format_rational, parse_rational
from .symbolic import CosetSet, SymbolicRootSystem

SCHEMA_VERSION = 1

Payload = Union[FiniteRootSystem, SymbolicRootSystem, AxiomReport, List[ClassDescriptor]]


def _ser_vec(v) -> list:
    return [format_rational(x) for x in v]


def _rational(x, seen: dict) -> Q:
    """One coordinate of a document.  A string spelling is parsed once per
    document: `seen` holds the rational of each spelling read so far.  A
    JSON number is read as it is, and an infinite float is no rational."""
    if type(x) is str:
        q = seen.get(x)
        if q is None:
            q = seen[x] = parse_rational(x)
        return q
    try:
        return parse_rational(x)
    except OverflowError:
        raise GrrsError(f"malformed document: coordinate {x!r} is not a rational") from None


def _parse_vec(xs, seen: dict) -> tuple:
    return tuple(_rational(x, seen) for x in xs)


def _ser_mat(rows) -> list:
    return [_ser_vec(r) for r in rows]


def _parse_mat(rows, seen: dict) -> list:
    return [_parse_vec(r, seen) for r in rows]


def finite_to_dict(system: FiniteRootSystem) -> dict:
    return {
        "dim": system.space.dim,
        "gram": _ser_mat(system.space.gram),
        "roots": _ser_mat(system.roots),
    }


def finite_from_dict(d: dict) -> FiniteRootSystem:
    seen: dict = {}
    space = BilinearSpace(_parse_mat(d["gram"], seen))
    if space.dim != d["dim"]:
        raise GrrsError("dim field does not match the gram matrix")
    return FiniteRootSystem(space, _parse_mat(d["roots"], seen))


def report_to_dict(report: AxiomReport) -> dict:
    def check(c: AxiomCheck) -> dict:
        out = {"pass": c.passed}
        out["witness"] = None if c.witness is None else _ser_mat(c.witness)
        return out

    return {
        "gr0": check(report.gr0),
        "gr1": check(report.gr1),
        "gr2": check(report.gr2),
        "gr3": check(report.gr3),
        "wgr3": check(report.wgr3),
        "verdict": report.verdict(),
    }


def report_from_dict(d: dict) -> AxiomReport:
    seen: dict = {}

    def check(c: dict) -> AxiomCheck:
        w = c.get("witness")
        return AxiomCheck(c["pass"], None if w is None else tuple(_parse_vec(v, seen) for v in w))

    return AxiomReport(
        check(d["gr0"]), check(d["gr1"]), check(d["gr2"]), check(d["gr3"]), check(d["wgr3"])
    )


def symbolic_to_dict(system: SymbolicRootSystem) -> dict:
    lattice = _ser_mat(system.L.basis)
    written = {}  # the fields of each distinct family, formatted once
    families = []
    for lift, fam in zip(system.lifts, system._families):
        fields = written.get(fam)
        if fields is None:
            fields = written[fam] = (
                _ser_vec(fam.translate), _ser_mat(fam.reps), _ser_mat(fam.modulus.basis)
            )
        translate, reps, modulus = fields
        # every entry gets its own lists, so that editing one leaves the rest
        families.append(
            {
                "root": _ser_vec(lift),
                "translate": list(translate),
                "reps": [list(r) for r in reps],
                "modulusBasis": [list(r) for r in modulus],
                "latticeBasis": [list(r) for r in lattice],
            }
        )
    return {
        "dim": system.space.dim,
        "gram": _ser_mat(system.space.gram),
        "kernelDim": system.kernel_dim,
        "cl": finite_to_dict(system.cl()),
        "families": families,
    }


def symbolic_from_dict(d: dict) -> SymbolicRootSystem:
    seen: dict = {}
    space = BilinearSpace(_parse_mat(d["gram"], seen))
    if space.dim != d["dim"]:
        raise GrrsError("dim field does not match the gram matrix")
    entries = []
    families = {}  # each distinct family is built once, keyed by its fields
    for f in d["families"]:
        key = repr([f["latticeBasis"], f["modulusBasis"], f["translate"], f["reps"]])
        if key not in families:
            ambient = Lattice.from_vectors(space.dim, _parse_mat(f["latticeBasis"], seen))
            modulus = Lattice.from_vectors(space.dim, _parse_mat(f["modulusBasis"], seen))
            families[key] = CosetSet(
                ambient, modulus, _parse_vec(f["translate"], seen), _parse_mat(f["reps"], seen)
            )
        entries.append((_parse_vec(f["root"], seen), families[key]))
    system = SymbolicRootSystem(space, entries)
    if system.kernel_dim != d["kernelDim"]:
        raise GrrsError("kernelDim field does not match the gram matrix")
    return system


_MASK = (bin, lambda text: int(text, 2))
_PLAIN = (lambda x: x, lambda x: x)

# The JSON fields of each descriptor kind after "type", in data-tuple order,
# with their (encode, decode) pair; BCn has one layout for n = 1 and one for
# n >= 2, keyed by (kind, n == 1).
_DESCRIPTOR_FIELDS = {
    "affinization": (),
    "gl": (),
    "S": (("S", _MASK),),
    "S1S2": (("S1", _MASK), ("S2", _MASK)),
    "SSp": (("S", _MASK), ("Sp", _MASK)),
    "s": (("s", _PLAIN),),
    "Annx": (("q", _PLAIN), ("p", _PLAIN)),
    "C11S": (("S", _MASK),),
    ("BCn", True): (("n", _PLAIN), ("S", _MASK), ("H2", (list, tuple))),
    ("BCn", False): (("n", _PLAIN), ("S1", _MASK), ("S2", _MASK), ("S3", _MASK)),
}


def _descriptor_fields(kind, n) -> tuple:
    key = (kind, n == 1) if kind == "BCn" else kind
    fields = _DESCRIPTOR_FIELDS.get(key) if isinstance(kind, str) else None
    if fields is None:
        raise GrrsError(f"unknown descriptor kind {kind}")
    return fields


def descriptor_to_dict(desc: ClassDescriptor) -> dict:
    kind = desc.kind()
    fields = _descriptor_fields(kind, desc.data[1] if len(desc.data) > 1 else None)
    data: dict = {"type": kind}
    for (field, (encode, _)), value in zip(fields, desc.data[1:]):
        data[field] = encode(value)
    try:
        km: Optional[str] = kac_moody_name(desc)
    except NoName:
        km = None
    return {"cl": desc.cl, "k": desc.k, "data": data, "kacMoody": km}


def descriptor_from_dict(d: dict) -> ClassDescriptor:
    data = d["data"]
    kind = data["type"]
    fields = _descriptor_fields(kind, data.get("n"))
    tup = (kind,) + tuple(decode(data[field]) for field, (_, decode) in fields)
    return ClassDescriptor(str(type_key(d["cl"])), d["k"], tup)


# The document types: the payload class and encoder of each, and its decoder.
_TO_DICT = {
    "finite": (FiniteRootSystem, finite_to_dict),
    "symbolic": (SymbolicRootSystem, symbolic_to_dict),
    "report": (AxiomReport, report_to_dict),
    "classes": (list, lambda payload: [descriptor_to_dict(x) for x in payload]),
}
_FROM_DICT = {
    "finite": finite_from_dict,
    "symbolic": symbolic_from_dict,
    "report": report_from_dict,
    "classes": lambda payload: [descriptor_from_dict(x) for x in payload],
}


def document_to_dict(payload: Payload) -> dict:
    for t, (cls, encode) in _TO_DICT.items():
        if isinstance(payload, cls):
            return {"schemaVersion": SCHEMA_VERSION, "type": t, "payload": encode(payload)}
    raise GrrsError(f"cannot serialize {type(payload)!r}")


def document_from_dict(d: dict) -> Payload:
    """Parse a document; a malformed one raises GrrsError."""
    if not isinstance(d, dict):
        raise GrrsError("a document is a JSON object")
    if d.get("schemaVersion") != SCHEMA_VERSION:
        raise GrrsError("unsupported schema version")
    t = d.get("type")
    parse = _FROM_DICT.get(t) if isinstance(t, str) else None
    if parse is None:
        raise GrrsError(f"unknown document type {t!r}")
    try:
        return parse(d["payload"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise GrrsError(f"malformed {t} document: {type(exc).__name__}: {exc}") from None


def dumps(payload: Payload) -> str:
    return json.dumps(document_to_dict(payload), sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> Payload:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise GrrsError("document nested too deeply") from None
    return document_from_dict(doc)
