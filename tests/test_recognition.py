"""Golden recognition: the name `recognize_cl` gives every catalog system of
a sweep of type keys, and the homothety searches it makes.

The sweep is every kind of the type table, one-parameter kinds at 0..8 and
two-parameter kinds at m, n <= 5, of dimension at most 8.  Each key is
recognized from a cleared memo, so its searches are counted in full.  A
change to the order of precedence or to the parameters tried shows here as
a renamed type or a different number of searches.
"""

import hashlib
import random
from fractions import Fraction as Q

import pytest

from grrs import catalog, classify
from grrs.catalog import TypeKey, build, type_key
from grrs.classify import enumerate_classes, identify, recognize_cl
from grrs.cli import main
from grrs.errors import BadParameters, UnrecognizedCl
from grrs.finite import FiniteRootSystem
from grrs.linalg import BilinearSpace
from grrs.symbolic import affinize


def _grid(kind):
    arity = kind.count("{}")
    if arity == 2:
        return [(m, n) for m in range(6) for n in range(6)]
    if arity == 1:
        return [(Q(p) if "a=" in kind else p,) for p in range(9)]
    return [()]


def _sweep_keys():
    keys = []
    for kind in catalog._TYPES:
        for params in _grid(kind):
            try:
                key = TypeKey(kind, params)
            except BadParameters:
                continue
            if key.system().space.dim <= 8:
                keys.append(key)
    return sorted(keys, key=str)


def _recognized(fin):
    recognize_cl.cache_clear()
    try:
        return recognize_cl(fin)[0]
    except UnrecognizedCl:
        return None


@pytest.fixture
def searches(monkeypatch):
    calls = []
    search = classify.isomorphic_finite

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(classify, "isomorphic_finite", counted)
    return calls


# Every key of the sweep that is not recognized as itself (None: not at all)
RENAMED = {
    "B2": "C2", "C1": "A1", "D2": None, "D3": "A3",
    "A(0,0)": None, "A(1,1)": None, "A(2,2)": None, "A(3,3)": None,
    **{f"A({m},{n})": f"A({n},{m})" for m in range(6) for n in range(m + 1, 6) if m + n <= 7},
    "A(1,1)_f": "C(1,1)", "C(2)": "A(1,0)",
    **{f"{t}({m},{n})": f"{t}({n},{m})"
       for t in ("C", "BC") for m in range(1, 6) for n in range(m + 1, 6) if m + n <= 8},
    "D(2,1;a=1)": "D(2,1)",
    **{f"D(2,1;a={a})": f"D(2,1;a={-1 - a})" for a in range(2, 9)},
}

# Every key of the sweep recognized after other than one search
SEARCHES = {
    "D2": 0, "A(0,0)": 0, "A(1,1)": 0, "A(2,2)": 0, "A(3,3)": 0,
    "B6": 2, "C3": 2, "C4": 2, "C5": 2, "C6": 3, "C7": 2, "C8": 2, "BC2": 2, "F(4)": 2,
    **{f"D(2,1;a={a})": 2 for a in range(2, 9)},
}


def test_sweep_names_and_searches(searches):
    keys = _sweep_keys()
    assert len(keys) == 177
    names, counts = {}, {}
    for key in keys:
        before = len(searches)
        names[str(key)] = _recognized(key.system())
        counts[str(key)] = len(searches) - before
    assert {k: v for k, v in names.items() if v != k} == RENAMED
    assert {k: v for k, v in counts.items() if v != 1} == SEARCHES
    assert len(searches) == 189


def _d21a_least(a):
    """The name of D(2,1;a): D(2,1) on the orbit of 1, otherwise the least
    member of the orbit of a under a -> 1/a, a -> -1 - a."""
    orbit = {a}
    while True:
        grown = orbit | {1 / x for x in orbit} | {-1 - x for x in orbit}
        if grown == orbit:
            break
        orbit = grown
    return "D(2,1)" if 1 in orbit else str(type_key(f"D(2,1;a={min(orbit)})"))


def test_sampled_d21a_names():
    rng = random.Random(7)
    names = []
    while len(names) < 108:
        a = Q(rng.randint(-9, 9), rng.randint(1, 6))
        if a in (0, -1):
            continue
        fin = build(TypeKey("D(2,1;a={})", (a,)))
        scaled = FiniteRootSystem(
            BilinearSpace([[Q(3, 2) * x for x in row] for row in fin.space.gram]), fin.roots)
        for system in (fin, scaled):
            names.append(_recognized(system))
            assert names[-1] == _d21a_least(a), a
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == "ffefa1a408f9b62fa94abf94961129e41b640f1a40d298b91a60a9198e987bcd"


def _spellings(key, rng):
    """The canonical spelling of a key, the same with spaces thrown in, and
    for D(2,1;a) with a written as an unreduced fraction."""
    text = str(key)
    if key.kind == "D(2,1;a={})":
        a = key.params[0]
        yield f"D(2,1;a={3 * a.numerator}/{3 * a.denominator})"
    yield text
    yield "".join(c + " " * rng.randint(0, 2) for c in text)


def _listed_name(name):
    try:
        (desc,) = enumerate_classes(name, 1)
    except UnrecognizedCl:
        return None
    return desc.cl


def test_transitive_listing_is_named_as_identify_names_the_affinization():
    rng = random.Random(11)
    keys = [key for key in _sweep_keys() if key.case_i and key.system().space.dim <= 6]
    keys += [TypeKey("D(2,1;a={})", (Q(p, q),)) for p, q in ((1, 2), (-2, 3), (5, 4))]
    for key in keys:
        if key.kind == "A({},{})" and key.params[0] == key.params[1]:
            # A(n,n) has a radical of its own: no minimal quotient is A(n,n)
            assert all(_listed_name(name) is None for name in _spellings(key, rng))
            continue
        try:
            want = identify(affinize(build(key), 1)).cl
        except UnrecognizedCl:
            want = None
        for name in _spellings(key, rng):
            assert _listed_name(name) == want, (name, want)


@pytest.mark.parametrize("name,cl", [
    ("D3", "A3"), ("C(2)", "A(1,0)"), ("A(1,2)", "A(2,1)"), ("D(2,1;a=1/2)", "D(2,1;a=-3)"),
    ("D(2,1;a=1)", "D(2,1)"), ("C(1,2)", "C(2,1)"),
])
def test_listing_takes_the_recognized_name(name, cl):
    assert [d.cl for d in enumerate_classes(name, 1)] == [cl]
    assert identify(affinize(build(name), 1)).cl == cl


@pytest.mark.parametrize("name,cl", [("B2", "C2"), ("C1", "A1"), ("BC(1,2)", "BC(2,1)")])
def test_isomorphic_spellings_list_the_same_classes(name, cl):
    for k in (1, 2):
        assert enumerate_classes(name, k) == enumerate_classes(cl, k)


@pytest.mark.parametrize("name", ["A(0,0)", "A(1,1)", "A(2,2)", "D2"])
def test_names_no_minimal_quotient_has_are_unrecognized(name):
    with pytest.raises(UnrecognizedCl):
        enumerate_classes(name, 1)
    assert main(["classify", "--cl", name, "--k", "1"]) == 2
