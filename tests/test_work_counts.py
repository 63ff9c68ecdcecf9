"""Work counts of symbolic construction, pinned by monkeypatching.

`from_finite` builds one coset set per distinct offset set, not one per
lift, and `SymbolicRootSystem.__init__` generates L from its integer rows
without `Lattice.from_vectors`.  A change that brings back per-root or
per-entry work fails here, although every answer would still be right.
"""

from fractions import Fraction as Q

from grrs.catalog import a_nn_x, build, family
from grrs.linalg import Lattice, unit_vector, vadd
from grrs.symbolic import CosetSet, SymbolicRootSystem, affinize, from_finite, quotient


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
