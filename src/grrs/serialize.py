"""Canonical JSON interchange for all document types.

Rationals serialize as "p/q" (or "p" when the denominator is 1).  Documents
are emitted with sorted keys and fixed separators.  Systems are written and
read on their integer rows: the writer spells rows over one denominator,
each distinct integer once, and the reader clears each matrix to integer
rows through `linalg.clear_denominators`, parsing each spelling of a
document once, and enters the integer constructors, which canonicalize, so
parse -> serialize round-trips are byte-identical.
"""

from __future__ import annotations

import json
from math import gcd, lcm
from typing import List, Optional, Union

from .catalog import type_key
from .classify import ClassDescriptor, kac_moody_name
from .errors import GrrsError, NoName, NotRational
from .finite import AxiomCheck, AxiomReport, FiniteRootSystem
from .linalg import (
    BilinearSpace, Lattice, _Spellings, clear_denominators, format_rational, hnf_int, vec,
)
from .symbolic import CosetSet, SymbolicRootSystem

SCHEMA_VERSION = 1

Payload = Union[FiniteRootSystem, SymbolicRootSystem, AxiomReport, List[ClassDescriptor]]


class _Spelling(dict):
    """The spelling of each integer x as x / d in lowest terms, made on first read."""

    def __init__(self, d: int):
        self.d = d

    def __missing__(self, x: int) -> str:
        g = gcd(x, self.d)
        spelled = self[x] = str(x // g) if g == self.d else f"{x // g}/{self.d // g}"
        return spelled


def _spell(spellings: dict, d: int, rows) -> list:
    """The integer rows over d as lists of spellings; `spellings` holds one
    `_Spelling` per denominator of the document being written."""
    spelled = spellings[d] if d in spellings else spellings.setdefault(d, _Spelling(d))
    return [list(map(spelled.__getitem__, row)) for row in rows]


def _space(d: dict, coords: _Spellings) -> BilinearSpace:
    space = BilinearSpace._of_rows(*clear_denominators(d["gram"], _spellings=coords))
    if space.dim != d["dim"]:
        raise GrrsError("dim field does not match the gram matrix")
    return space


def finite_to_dict(system: FiniteRootSystem, spellings: Optional[dict] = None) -> dict:
    spellings = {} if spellings is None else spellings
    space = system.space
    return {"dim": space.dim, "gram": _spell(spellings, space._scale, space._rows),
            "roots": _spell(spellings, system.scale, system._rows)}


def finite_from_dict(d: dict) -> FiniteRootSystem:
    coords = _Spellings()  # the Gram matrix is read before the roots
    space = _space(d, coords)
    return FiniteRootSystem._of_rows(space, *clear_denominators(d["roots"], _spellings=coords))


_AXIOMS = ("gr0", "gr1", "gr2", "gr3", "wgr3")


def report_to_dict(report: AxiomReport) -> dict:
    out = {"verdict": report.verdict()}
    for axiom in _AXIOMS:
        c = getattr(report, axiom)
        out[axiom] = {"pass": c.passed, "witness": None if c.witness is None else [
            list(map(format_rational, v)) for v in c.witness]}
    return out


def report_from_dict(d: dict) -> AxiomReport:
    def check(c: dict) -> AxiomCheck:
        w = c.get("witness")
        return AxiomCheck(c["pass"], None if w is None else tuple(map(vec, w)))

    return AxiomReport(*(check(d[axiom]) for axiom in _AXIOMS))


def symbolic_to_dict(system: SymbolicRootSystem) -> dict:
    memo: dict = {}
    lattice = _spell(memo, system.L.scale, system.L.rows)
    written = {}  # the fields of each distinct family, spelled once
    families = []
    for root, fam in zip(_spell(memo, system._lift_den, system._lift_rows), system._families):
        fields = written.get(fam)
        if fields is None:
            (d, t), mod, s = fam._t, fam.modulus, fam.ambient.scale
            fields = written[fam] = (_spell(memo, d, [t])[0], _spell(memo, s, fam._rep_rows()),
                                     _spell(memo, mod.scale, mod.rows))
        translate, reps, modulus = fields
        # every entry gets its own lists, so that editing one leaves the rest
        families.append({"root": root, "translate": list(translate),
                         "reps": [list(r) for r in reps],
                         "modulusBasis": [list(r) for r in modulus],
                         "latticeBasis": [list(r) for r in lattice]})
    space = system.space
    return {"dim": space.dim, "gram": _spell(memo, space._scale, space._rows),
            "kernelDim": system.kernel_dim, "cl": finite_to_dict(system.cl(), memo),
            "families": families}


def _family(dim: int, fields, coords: _Spellings) -> CosetSet:
    """The family of the JSON fields (latticeBasis, modulusBasis, translate,
    reps), anchored on the lattice of the first: the members translate + rep
    as integer rows over one denominator, and the modulus with them."""
    lattices = [clear_denominators(m, dim=dim, message="generator of wrong length",
                                   _spellings=coords) for m in fields[:2]]
    ambient, modulus = (Lattice(dim, s, hnf_int(rows)) for s, rows in lattices)
    s, (t, *reps) = clear_denominators([fields[2], *fields[3]], dim=dim, _spellings=coords,
                                       message="translate or rep of wrong length")
    d = lcm(s, ambient.scale, modulus.scale)
    members = [[d // s * (x + y) for x, y in zip(t, r)] for r in reps]
    return CosetSet.__new__(CosetSet)._anchor(
        ambient, d, modulus._at(d) if members else [], members)


def symbolic_from_dict(d: dict) -> SymbolicRootSystem:
    coords = _Spellings()
    space = _space(d, coords)
    roots, families = [], []
    built: dict = {}  # each distinct family is built once, keyed by its fields
    try:
        for f in d["families"]:
            fields = (f["latticeBasis"], f["modulusBasis"], f["translate"], f["reps"])
            try:
                # equal keys parse to equal data; a key that does not hash is its own
                key = (tuple(fields[2]), *(tuple(map(tuple, m)) for m in fields[:2] + fields[3:]))
                hash(key)
            except TypeError:
                key = object()
            if key not in built:
                built[key] = _family(space.dim, fields, coords)
            families.append(built[key])
            roots.append(f["root"])
    except Exception:
        coords.rows(roots)  # each root is read before the next family: a bad one raises first
        raise
    system = SymbolicRootSystem.__new__(SymbolicRootSystem)._take(
        space, *clear_denominators(roots, dim=space.dim, _spellings=coords), families)
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


# The document types: the payload class, encoder and decoder of each.
_CODECS = {
    "finite": (FiniteRootSystem, finite_to_dict, finite_from_dict),
    "symbolic": (SymbolicRootSystem, symbolic_to_dict, symbolic_from_dict),
    "report": (AxiomReport, report_to_dict, report_from_dict),
    "classes": (list, lambda payload: [descriptor_to_dict(x) for x in payload],
                lambda payload: [descriptor_from_dict(x) for x in payload]),
}


def document_to_dict(payload: Payload) -> dict:
    for t, (cls, encode, _) in _CODECS.items():
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
    codec = _CODECS.get(t) if isinstance(t, str) else None
    if codec is None:
        raise GrrsError(f"unknown document type {t!r}")
    try:
        return codec[2](d["payload"])
    except NotRational as exc:
        raise GrrsError(f"malformed document: {exc}") from None
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
