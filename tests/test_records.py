"""The seven records of the library keep the behaviour of the frozen
dataclasses they were.

Each record is held against a frozen-dataclass twin declared here with the
same name, fields and defaults: construction by position and keyword,
equality, hash, repr and pattern-matching order; `AttributeError`, with the
dataclass's message, on assigning or deleting any attribute; and `copy`,
`deepcopy` and `pickle` round trips.  `TypeKey` and `F2Subset` check their
parameters on construction.
"""

import copy
import dataclasses
import inspect
import pickle
from typing import Optional, Tuple

import pytest

from grrs.catalog import TypeKey, build, type_key
from grrs.classify import ClassDescriptor, F2Subset
from grrs.errors import BadParameters
from grrs.finite import AxiomCheck, AxiomReport, check_axioms
from grrs.linalg import vec
from grrs.symbolic import FamilyEntry, GapTable, affinize, gaps


def _twins():
    frozen = dataclasses.dataclass(frozen=True)

    @frozen
    class TypeKey:
        kind: str
        params: Tuple = ()

    @frozen
    class F2Subset:
        k: int
        mask: int

    @frozen
    class ClassDescriptor:
        cl: str
        k: int
        data: Tuple

    @frozen
    class AxiomCheck:
        passed: bool
        witness: Optional[tuple] = None

    @frozen
    class AxiomReport:
        gr0: object
        gr1: object
        gr2: object
        gr3: object
        wgr3: object

    @frozen
    class FamilyEntry:
        lift: tuple
        family: object

    @frozen
    class GapTable:
        entries: tuple

    twins = (TypeKey, F2Subset, ClassDescriptor, AxiomCheck, AxiomReport, FamilyEntry, GapTable)
    for twin in twins:
        twin.__qualname__ = twin.__name__  # the repr names the class by its qualified name
    return {twin.__name__: twin for twin in twins}


TWINS = _twins()


def _cases():
    """(record class, field values) pairs, two per class where the class has
    a default or more than one kind of value."""
    a1 = affinize(build("A1"), 1)
    witness = (vec((1, 0)), vec((0, 1)))
    return [
        (TypeKey, ("B{}", (3,))),
        (TypeKey, ("G2", ())),
        (F2Subset, (2, 0b0110)),
        (ClassDescriptor, ("C2", 2, ("S1S2", 1, 6))),
        (AxiomCheck, (True, None)),
        (AxiomCheck, (False, witness)),
        (AxiomReport, tuple(getattr(check_axioms(build("B2")), f) for f in _names(AxiomReport))),
        (AxiomReport, (AxiomCheck(True),) * 4 + (AxiomCheck(False, witness),)),
        (FamilyEntry, (a1.entries[0].lift, a1.entries[0].family)),
        (GapTable, (gaps(a1).entries,)),
    ]


def _names(cls):
    return tuple(f.name for f in dataclasses.fields(TWINS[cls.__name__]))


CASES = _cases()
IDS = [f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(CASES)]


def _parameters(cls):
    """The names and defaults of the constructor's parameters."""
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


def _pair(cls, values):
    return cls(*values), TWINS[cls.__name__](*values)


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_equality_hash_and_repr_are_the_dataclass_ones(cls, values):
    record, twin = _pair(cls, values)
    assert hash(record) == hash(twin) == hash(values)
    assert repr(record) == repr(twin)
    assert record == cls(*values) and not record != cls(*values)
    # equal only to a record of the same class
    assert record != twin and record != values
    assert cls.__match_args__ == TWINS[cls.__name__].__match_args__


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_construction_by_keyword_and_defaults(cls, values):
    assert cls(**dict(zip(_names(cls), values))) == cls(*values)
    assert _parameters(cls) == _parameters(TWINS[cls.__name__])
    with pytest.raises(TypeError):
        cls(*values, None)


def test_defaults():
    assert AxiomCheck(True) == AxiomCheck(True, None) and AxiomCheck(True).witness is None
    assert TypeKey("G2").params == () and TypeKey("G2") == TypeKey("G2", ())


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, values):
    record, twin = _pair(cls, values)
    for name in _names(cls) + ("other",):
        with pytest.raises(AttributeError) as raised:
            setattr(record, name, 0)
        with pytest.raises(AttributeError) as expected:
            setattr(twin, name, 0)
        assert str(raised.value) == str(expected.value)
        with pytest.raises(AttributeError) as raised:
            delattr(record, name)
        with pytest.raises(AttributeError) as expected:
            delattr(twin, name)
        assert str(raised.value) == str(expected.value)
    assert record == cls(*values)


@pytest.mark.parametrize("cls, values", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(cls, values):
    record = cls(*values)
    copies = [copy.copy(record), copy.deepcopy(record)]
    # from protocol 2 on: `CosetSet`, a field of `FamilyEntry`, needs it
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls and other == record and hash(other) == hash(record)


@pytest.mark.parametrize("make", [
    lambda: TypeKey("B{}", (0,)),
    lambda: TypeKey("B{}"),
    lambda: TypeKey("X{}", (3,)),
    lambda: TypeKey(kind="G2", params=(1,)),
    lambda: F2Subset(-1, 0),
    lambda: F2Subset(1, 0b10000),
    lambda: F2Subset(k=2, mask=-1),
])
def test_bad_parameters_are_refused(make):
    with pytest.raises(BadParameters):
        make()


def test_type_key_systems_are_cached_per_key():
    assert TypeKey("B{}", (3,)).system() is type_key("B3").system()
