"""Symbolic construction against its `Fraction` reference.

`SymbolicRootSystem._take`, the integer entry that `__init__` and the
builders run, and `from_finite` do their bookkeeping on integer rows;
`fraction_reference` keeps the `Fraction` construction they replaced.
Under the `parity` fixture every system a test builds, including those
inside `affinize`, `family`, `a_nn_x`, `quotient` and `resplit`, is built
again by the reference from the same lifts and families, read as
rationals, and compared on L, the entries in order, `splitting()`, the
resplit coordinates and `cl()`.  `resplit`, which forms its lifts and
translates on integer rows, is compared with its `Fraction` reference as a
whole: equal systems, equal lifts and byte-equal documents.  The error
paths are compared in `test_symbolic.TestConstructorErrors`, and those of
`quotient(..., require_bijective=True)` with its `Fraction` reference here.
"""

import random
from fractions import Fraction as Q

import pytest

from grrs import serialize
from grrs.catalog import a_nn_x, build, family
from grrs.errors import BadParameters, NotBijective
from grrs.finite import FiniteRootSystem
from grrs.linalg import BilinearSpace, Lattice, unit_vector, vadd, vec
from grrs.symbolic import CosetSet, SymbolicRootSystem, affinize, from_finite, quotient

import fraction_reference as reference
from support import base_change, radical_change, valid_family_params


def assert_parity(system, ref):
    assert system.L == ref.L
    assert [(e.lift, e.family) for e in system.entries] == ref.entries
    assert all(type(x) is Q for e in system.entries for x in e.lift)
    assert system.splitting() == ref.splitting
    assert [tuple(Q(x, system._den) for x in c) for c in system._coords] == ref.coords
    assert system.cl() == ref.cl


@pytest.fixture
def parity(monkeypatch):
    """Checks every `SymbolicRootSystem` built in the test against the
    reference; the list of checked systems is the fixture's value."""
    built = []
    take = SymbolicRootSystem._take

    def checked(self, space, d, rows, families):
        entries = [(tuple(Q(x, d) for x in row), fam) for row, fam in zip(rows, families)]
        take(self, space, d, rows, families)
        assert_parity(self, reference.symbolic_system(space, entries))
        built.append(self)
        return self

    monkeypatch.setattr(SymbolicRootSystem, "_take", checked)
    return built


def assert_from_finite(system):
    """`from_finite` equals the constructor on the reference's entries, and
    its L is the part of the root lattice in the radical."""
    symbolic = from_finite(system)
    assert symbolic == SymbolicRootSystem(system.space, reference.from_finite_entries(system))
    assert symbolic.L == Lattice.from_vectors(system.space.dim, system.roots).kernel_part(
        system.space)
    return symbolic


AFFINIZED = ["A2", "B3", "C3", "G2", "BC2", "F4", "A(1,1)", "A(2,2)", "B(1,1)", "C(1,1)",
             "C(2,1)", "BC(1,1)", "D(2,1;a=1/2)", "G(3)"]


@pytest.mark.parametrize("name", AFFINIZED)
@pytest.mark.parametrize("k", [1, 2])
def test_catalog_affinizations(parity, name, k):
    system = build(name)
    assert_from_finite(system)
    affinize(system, k)
    assert len(parity) >= 3


def _random_family_params(cl, k, rng, count):
    """Up to `count` seeded parameter sets `family(cl, k, ...)` accepts."""
    names = {"A1": "S", "B3": "S", "C3": "S", "C(2,1)": "S", "C(2,2)": "S", "B(1,1)": "S",
             "C2": "S1 S2", "BC(1,1)": "S Sp", "BC(2,1)": "S Sp", "G2": "s", "F4": "s"}[cl].split()
    found = []
    for _ in range(200):
        params = {
            n: rng.randint(0, k) if n == "s" else
            sorted(p for p in range(1 << k) if rng.random() < 0.5) for n in names
        }
        try:
            family(cl, k, **params)
        except BadParameters:
            continue
        found.append(params)
        if len(found) == count:
            break
    return found


# seeded BC2 data at k = 3 is almost never accepted, so BC2 runs at k = 2 only.
# The types cover every ambient the constructor re-anchors: 2L (B3, B(1,1)),
# half of L (BC(m,n)) and the scaled lattice "s" (G2, F4).
@pytest.mark.parametrize("cl, k", [
    (cl, k) for cl in ["A1", "B3", "C3", "C2", "F4", "C(2,1)", "C(2,2)", "B(1,1)", "BC(1,1)",
                       "BC(2,1)", "G2", "BC1", "BC2", "C(1,1)"]
    for k in (2, 3) if (cl, k) != ("BC2", 3)
])
def test_family_under_radical_changes(parity, cl, k):
    rng = random.Random(f"{cl} {k}")
    draw = valid_family_params if cl in ("BC1", "BC2", "C(1,1)") else _random_family_params
    cases = draw(cl, k, rng, 3)
    assert cases
    for params in cases:
        system = family(cl, k, **params)
        ops = [tuple(rng.sample(range(k), 2)) for _ in range(rng.randint(1, 4))]
        radical_change(system, ops)


def test_a_nn_x_quotients_and_resplits(parity):
    for n, p, q, extra in [(1, 1, 2, 0), (2, 1, 3, 0), (1, -3, 4, 1), (3, 2, 5, 0)]:
        a_nn_x(n, p, q, extra)
    b3 = affinize(build("B3"), 2)
    dim = b3.space.dim
    deltas = [unit_vector(dim, dim - 2), unit_vector(dim, dim - 1)]
    quotient(b3, [vadd(*deltas)])
    quotient(b3, [vadd(deltas[0], vec([0] * (dim - 1) + [Q(2, 3)]))])
    # against the Fraction reference.  With require_bijective, every family
    # of B3^(1,1) collapses along delta_1; the class of eps_1 - delta_2 of
    # A(1,1)^(1) has the cosets 0 and I of Z delta, which merge along
    # I + delta and stay apart along I + delta / 3.  The Sp/2 family of
    # BC(1,1) at Sp = {1, 2} has the translate (1/2, 0) over L = Z^2, and
    # the affine A1 lifted at +-(alpha + delta_1 / 3) the translates
    # +-(1/3, 0), a denominator that L's scale does not carry.
    plane = Lattice.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    thirds = SymbolicRootSystem(BilinearSpace([[2, 0, 0], [0, 0, 0], [0, 0, 0]]), [
        (vec([s, 0, 0]), CosetSet(plane, plane, vec([0, Q(s, 3), 0]), [vec([0, 0, 0])]))
        for s in (1, -1)
    ])
    a11 = build("A(1,1)")
    (ivec,) = from_finite(a11).L.basis
    aff = affinize(a11, 1)
    bc = family("BC(1,1)", 2, S={0}, Sp={1, 2})
    shear = vadd(unit_vector(bc.space.dim, bc.space.dim - 2),
                 vec([0] * (bc.space.dim - 1) + [Q(1, 3)]))
    cases = [
        (b3, [deltas[0]], True, "a family coset collapses along the quotient"),
        (aff, [vec([*ivec, 1])], True, "two family cosets merge along the quotient"),
        (aff, [vec([*ivec, Q(1, 3)])], True, None),
        (bc, [shear], False, None),
        (bc, [unit_vector(bc.space.dim, bc.space.dim - 1)], False, None),
        (thirds, [unit_vector(3, 2)], False, None),
        (thirds, [vec([0, 1, Q(1, 2)])], True, "a family coset collapses along the quotient"),
    ]
    for system, vectors, bijective, message in cases:
        outcomes = []
        for push in (quotient, reference.quotient):
            try:
                outcomes.append(push(system, vectors, require_bijective=bijective))
            except NotBijective as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == message if message else not isinstance(outcomes[0], str)
    rng = random.Random(5)
    # and resplits of presentations whose translates and offsets have
    # denominators: halves (the Sp/2 family), thirds, a rational quotient,
    # and fifths on the classes off the splitting only
    skewed = quotient(b3, [vadd(deltas[0], vec([0] * (dim - 1) + [Q(2, 3)]))])
    g2 = affinize(build("G2"), 1)
    fifth = tuple(x / 5 for x in g2.L.basis[0])
    fifths = SymbolicRootSystem(g2.space, [
        (e.lift, e.family if e.lift in g2.splitting() else e.family.shift(fifth))
        for e in g2.entries])
    for system in [*(affinize(build(name), 1) for name in ["G2", "A(1,1)", "BC2", "C(2,1)"]),
                   bc, thirds, a_nn_x(1, 1, 3), skewed, fifths]:
        offsets = {}
        for b in system.splitting():
            fam = system.family_of_lift(b)
            offsets[b] = fam.members()[0]
            for g in fam.modulus.basis:
                offsets[b] = vadd(offsets[b], tuple(rng.randint(-2, 2) * x for x in g))
        got, want = system.resplit(offsets), reference.resplit(system, offsets)
        assert got == want and got.lifts == want.lifts
        assert serialize.dumps(got) == serialize.dumps(want)
    assert len(parity) >= 25


def _random_base_change(n, rng):
    while True:
        A = [[Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        if reference.rank(A) == n:
            return A


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_a_nn_under_rational_base_changes(parity, n, seed):
    system = build(f"A({n},{n})")
    image = base_change(system, _random_base_change(system.space.dim, random.Random(seed)))
    (radical,) = image.space.kernel_basis()
    assert sum(x != 0 for x in radical) > 1
    symbolic = assert_from_finite(image)
    assert symbolic.L.rank == 1
    affinize(image, 1)


def _orthogonal_sum(a, b):
    n, m = a.space.dim, b.space.dim
    gram = [list(r) + [0] * m for r in a.space.gram] + [[0] * n + list(r) for r in b.space.gram]
    roots = [tuple(r) + (0,) * m for r in a.roots] + [(0,) * n + tuple(r) for r in b.roots]
    return FiniteRootSystem(BilinearSpace(gram), roots)


@pytest.mark.parametrize("seed", range(3))
def test_two_dimensional_radical_under_rational_base_change(parity, seed):
    """A(1,1) + A(2,2): every root has a part on one of two radical vectors."""
    system = _orthogonal_sum(build("A(1,1)"), build("A(2,2)"))
    image = base_change(system, _random_base_change(system.space.dim, random.Random(seed)))
    assert len(image.space.kernel_basis()) == 2
    assert assert_from_finite(image).L.rank == 2
    affinize(image, 1)
