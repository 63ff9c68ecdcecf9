"""Canonical JSON interchange for all document types.

Rationals serialize as "p/q" (or "p" when the denominator is 1).  Documents
are emitted with sorted keys and fixed separators, and every parser feeds a
canonicalizing constructor, so parse -> serialize round-trips are
byte-identical.
"""

from __future__ import annotations

import json
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


def _parse_vec(xs) -> tuple:
    return tuple(parse_rational(x) for x in xs)


def _ser_mat(rows) -> list:
    return [_ser_vec(r) for r in rows]


def _parse_mat(rows) -> list:
    return [_parse_vec(r) for r in rows]


def finite_to_dict(system: FiniteRootSystem) -> dict:
    return {
        "dim": system.space.dim,
        "gram": _ser_mat(system.space.gram),
        "roots": _ser_mat(system.roots),
    }


def finite_from_dict(d: dict) -> FiniteRootSystem:
    space = BilinearSpace(_parse_mat(d["gram"]))
    if space.dim != d["dim"]:
        raise GrrsError("dim field does not match the gram matrix")
    return FiniteRootSystem(space, _parse_mat(d["roots"]))


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
    def check(c: dict) -> AxiomCheck:
        w = c.get("witness")
        return AxiomCheck(c["pass"], None if w is None else tuple(_parse_vec(v) for v in w))

    return AxiomReport(
        check(d["gr0"]), check(d["gr1"]), check(d["gr2"]), check(d["gr3"]), check(d["wgr3"])
    )


def symbolic_to_dict(system: SymbolicRootSystem) -> dict:
    families = []
    for e in system.entries:
        families.append(
            {
                "root": _ser_vec(e.lift),
                "translate": _ser_vec(e.family.translate),
                "reps": _ser_mat(e.family.reps),
                "modulusBasis": _ser_mat(e.family.modulus.basis),
                "latticeBasis": _ser_mat(system.L.basis),
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
    space = BilinearSpace(_parse_mat(d["gram"]))
    if space.dim != d["dim"]:
        raise GrrsError("dim field does not match the gram matrix")
    entries = []
    for f in d["families"]:
        ambient = Lattice.from_vectors(space.dim, _parse_mat(f["latticeBasis"]))
        modulus = Lattice.from_vectors(space.dim, _parse_mat(f["modulusBasis"]))
        fam = CosetSet(ambient, modulus, _parse_vec(f["translate"]), _parse_mat(f["reps"]))
        entries.append((_parse_vec(f["root"]), fam))
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


def document_to_dict(payload: Payload) -> dict:
    if isinstance(payload, FiniteRootSystem):
        return {
            "schemaVersion": SCHEMA_VERSION,
            "type": "finite",
            "payload": finite_to_dict(payload),
        }
    if isinstance(payload, SymbolicRootSystem):
        return {
            "schemaVersion": SCHEMA_VERSION,
            "type": "symbolic",
            "payload": symbolic_to_dict(payload),
        }
    if isinstance(payload, AxiomReport):
        return {
            "schemaVersion": SCHEMA_VERSION,
            "type": "report",
            "payload": report_to_dict(payload),
        }
    if isinstance(payload, list):
        return {
            "schemaVersion": SCHEMA_VERSION,
            "type": "classes",
            "payload": [descriptor_to_dict(x) for x in payload],
        }
    raise GrrsError(f"cannot serialize {type(payload)!r}")


_FROM_DICT = {
    "finite": finite_from_dict,
    "symbolic": symbolic_from_dict,
    "report": report_from_dict,
    "classes": lambda payload: [descriptor_from_dict(x) for x in payload],
}


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
