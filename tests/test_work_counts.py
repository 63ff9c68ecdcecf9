"""Work counts of symbolic construction and identification, pinned by
monkeypatching.

`from_finite` builds one coset set per distinct offset set, not one per
lift, and `SymbolicRootSystem.__init__` generates L from its integer rows
without `Lattice.from_vectors`.  `identify` searches a homothety once per
distinct minimal quotient, and pulls families back through the root map of
the recognition and the catalog's coordinate table, with no elimination.
`quotient` builds each pushed family over the image of L, which is the L of
the quotient, so the constructor keeps the families it is handed.  `family`
writes its families on integer coordinates and the constructor reads and
re-anchors them there, with no `Fraction` vector in between, through the
same integer anchoring as `CosetSet(...)`.  A
change that brings back per-root, per-entry or per-call work fails here,
although every answer would still be right.
"""

import random
import sys
from fractions import Fraction as Q

from grrs import catalog, classify
from grrs.catalog import a_nn_x, build, family
from grrs.classify import identify, recognize_cl
from grrs.finite import Homothety
from grrs.linalg import Lattice, solve_in_span, unit_vector, vadd
from grrs.symbolic import CosetSet, SymbolicRootSystem, affinize, from_finite, quotient

from support import radical_change


def test_from_finite_e6_builds_one_coset_set(monkeypatch):
    e6 = build("E6")
    built = []
    init = CosetSet.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(CosetSet, "__init__", counted)
    system = from_finite(e6)
    assert len(system.entries) == 72
    assert len(built) == 1


def test_constructor_calls_no_from_vectors(monkeypatch):
    depth, calls, built = [0], [], []
    init = SymbolicRootSystem.__init__
    from_vectors = vars(Lattice)["from_vectors"].__func__

    def flagged(self, *args):
        depth[0] += 1
        try:
            init(self, *args)
        finally:
            depth[0] -= 1
        built.append(self)

    def counted(cls, *args):
        if depth[0]:
            calls.append(args)
        return from_vectors(cls, *args)

    monkeypatch.setattr(SymbolicRootSystem, "__init__", flagged)
    monkeypatch.setattr(Lattice, "from_vectors", classmethod(counted))

    for name in ("E6", "B3", "A(1,1)", "BC(1,1)"):
        affinize(build(name), 2)
    family("C2", 2, S1=[0, 1, 2], S2=[0])
    a_nn_x(2, 1, 3)
    g2 = affinize(build("G2"), 2)
    dim = g2.space.dim
    quotient(g2, [vadd(unit_vector(dim, dim - 2), tuple(Q(1, 3) * x for x in unit_vector(dim, dim - 1)))])
    first = g2.splitting()[0]
    g2.resplit({first: g2.family_of_lift(first).modulus.basis[0]})
    assert len(built) >= 12
    assert calls == []


def test_quotient_pushes_each_family_over_the_image(monkeypatch):
    g2 = affinize(build("G2"), 2)
    a_nn = a_nn_x(2, 1, 3, 1)
    dim = g2.space.dim
    cases = [
        (g2, [vadd(unit_vector(dim, dim - 2), tuple(Q(1, 3) * x for x in unit_vector(dim, dim - 1)))]),
        (g2, [unit_vector(dim, dim - 1)]),
        (a_nn, [unit_vector(a_nn.space.dim, a_nn.space.dim - 1)]),
    ]
    built, sums = [], []
    _counted(monkeypatch, CosetSet, "__init__", built)
    _counted(monkeypatch, Lattice, "add", sums)
    for system, vectors in cases:
        del built[:]
        q = quotient(system, vectors)
        # one coset set per distinct family, none re-anchored by the constructor
        assert len(built) == len({e.family for e in system.entries})
        assert all(e.family.ambient == q.L for e in q.entries)
    assert sums == []


def _counted(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)


def test_identify_searches_once_per_distinct_quotient(monkeypatch):
    recognize_cl.cache_clear()
    searches = []
    _counted(monkeypatch, classify, "isomorphic_finite", searches)
    systems = [family("B3", 2, S=s) for s in ({0}, {0, 1}, {0, 1, 2}, {1, 2, 3})]
    for system in systems:
        identify(system)
    assert len(searches) == 1
    # a change of radical coordinates leaves the quotient equal
    changed = radical_change(systems[1], [(0, 1)])
    assert changed.cl() == systems[1].cl()
    assert identify(changed) == identify(systems[1])
    assert len(searches) == 1
    identify(family("C2", 2, S1=[0, 1, 2, 3], S2=[0]))
    assert len(searches) > 1


def test_identify_pulls_back_without_elimination(monkeypatch):
    recognize_cl.cache_clear()
    solves, applied = [], []
    for mod in [m for n, m in sys.modules.items() if n.startswith("grrs.")]:
        if getattr(mod, "solve_in_span", None) is solve_in_span:
            _counted(monkeypatch, mod, "solve_in_span", solves)
    _counted(monkeypatch, Homothety, "apply", applied)
    systems = [
        family("B3", 2, S={0, 3}),
        family("C2", 2, S1=[0, 1, 2, 3], S2=[0]),
        family("G2", 2, s=1),
        family("C(2,1)", 2, S={1}),
        family("BC(2,1)", 2, S={0}, Sp={1, 2}),
        family("BC2", 1, S1={0, 1}, S2={0}, T={0, 1}),
        a_nn_x(1, 1, 3),
    ]
    for system in systems:
        identify(system)
    assert solves == [] and applied == []


def test_family_stays_on_integer_coordinates(monkeypatch):
    depth, entered, calls = [0], [], []

    def inside(owner, name):
        fn = getattr(owner, name)

        def flagged(*args, **kwargs):
            depth[0] += 1
            entered.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(owner, name, flagged)

    def counted(name):
        fn = getattr(Lattice, name)

        def wrapper(*args):
            if depth[0]:
                calls.append(name)
            return fn(*args)

        monkeypatch.setattr(Lattice, name, wrapper)

    inside(SymbolicRootSystem, "__init__")
    inside(catalog, "_preimage")
    counted("combine")
    counted("split")
    systems = [
        family("B3", 2, S={0, 3}),
        family("C(2,1)", 2, S={1}),
        family("BC(1,1)", 2, S={0}, Sp={1, 2}),
        family("G2", 2, s=1),
    ]
    for system in systems:
        identify(system)
    assert entered.count("__init__") >= 4 and "_preimage" in entered
    assert calls == []


def test_coset_data_has_one_anchoring(monkeypatch):
    """`CosetSet(...)` and the constructor's re-anchoring of a family over
    another ambient run the one integer anchoring: no member is split and
    no modulus is read through `Lattice.coordinates`."""
    calls = []
    _counted(monkeypatch, Lattice, "split", calls)
    _counted(monkeypatch, Lattice, "coordinates", calls)
    rng = random.Random(21)
    built = []
    for den in (2, 3):
        for _ in range(20):
            dim = rng.randint(1, 3)
            ambient = Lattice.from_vectors(
                dim, [[Q(rng.randint(-4, 4), den) for _ in range(dim)] for _ in range(dim)]
            )
            coeffs = lambda: [rng.randint(-3, 3) for _ in range(ambient.rank)]
            modulus = ambient.sublattice([coeffs() for _ in range(rng.randint(0, 2))])
            translate = tuple(Q(rng.randint(-5, 5), den) for _ in range(dim))
            reps = [ambient.combine(coeffs()) for _ in range(rng.randint(1, 3))]
            built.append((CosetSet(ambient, modulus, translate, reps), translate, reps))
    systems = [
        family("B3", 2, S={0, 3}),
        family("BC(2,1)", 2, S={0}, Sp={1, 2}),
        family("BC2", 1, S1={0, 1}, S2={0}, T={0, 1}),
        family("G2", 2, s=1),
    ]
    assert calls == []
    # the 2L, half-L and "s" families are re-anchored on L
    assert all(e.family.ambient == s.L for s in systems for e in s.entries)
    for fam, translate, reps in built:
        assert all(fam.contains(vadd(translate, r)) for r in reps)
