"""The finite axiom checker against an independent oracle, and golden
digests of failing reports.

`listed_verdicts` (tests/materialize.py) decides each axiom on the whole
root list of a finite system, in its own arithmetic, with
`system.contains` as membership; `check_axioms` must agree with it axiom by
axiom on catalog systems and on seeded defective variants of them.

The digests pin `serialize.dumps` of failing reports of both checkers, so a
change in which witness is reported, or in its order, fails here.  Between
them the reports fail every axiom.
"""

import hashlib
import random
from fractions import Fraction as Q

import pytest

from grrs import serialize
from grrs.catalog import build, family
from grrs.finite import FiniteRootSystem, check_axioms
from grrs.linalg import (
    BilinearSpace, Lattice, standard_space, vadd, vec, vneg, vscale, zero_vector,
)
from grrs.symbolic import CosetSet, SymbolicRootSystem, affinize, check_symbolic_axioms

from materialize import AXIOMS, listed_verdicts, report_verdicts
from support import over_radical

AGREEMENT_NAMES = ("B2", "A(1,1)", "C(1,1)", "BC(1,1)", "B(1,1)", "A(2,1)", "BC2")


def finite_verdicts(system):
    return listed_verdicts(system.space, system.roots, system.contains)


@pytest.mark.parametrize("name", AGREEMENT_NAMES)
def test_catalog_systems_match_listed_verdicts(name):
    system = build(name)
    assert finite_verdicts(system) == report_verdicts(check_axioms(system))


def defective_finite(system, rng):
    """A root dropped, a +- pair dropped, a root doubled, or the sum of two
    roots added (which may be zero, or a root already)."""
    roots = list(system.roots)
    kind = rng.choice(("drop", "pair", "double", "sum"))
    r = rng.choice(roots)
    if kind == "drop":
        roots.remove(r)
    elif kind == "pair":
        roots = [x for x in roots if x not in (r, vneg(r))]
    elif kind == "double":
        roots.append(vscale(2, r))
    else:
        roots.append(vadd(r, rng.choice(roots)))
    return FiniteRootSystem(system.space, roots)


@pytest.mark.parametrize("seed", range(60))
def test_defective_systems_match_listed_verdicts(seed):
    rng = random.Random(seed)
    system = defective_finite(build(rng.choice(AGREEMENT_NAMES)), rng)
    assert finite_verdicts(system) == report_verdicts(check_axioms(system))


def test_defective_variants_fail_every_axiom_but_gr1():
    # GR1 needs a change of the ambient space, which the golden reports cover
    failed = set()
    for seed in range(60):
        rng = random.Random(seed)
        system = defective_finite(build(rng.choice(AGREEMENT_NAMES)), rng)
        failed |= {a for a, ok in finite_verdicts(system).items() if not ok}
    assert failed == set(AXIOMS) - {"gr1"}


# ---------------------------------------------------------------------------
# Golden digests of failing reports


def _edited(name, drop=(), add=()):
    system = build(name)
    return FiniteRootSystem(system.space, [r for r in system.roots if r not in drop] + list(add))


def _isotropic_pair(name):
    system = build(name)
    r = next(r for r in system.roots if system.is_isotropic(r))
    return (r, vneg(r))


def _lat(dim, *vs):
    return Lattice.from_vectors(dim, [vec(v) for v in vs])


def _incommensurate_c11():
    # C(1,1) over a rank-2 radical, the families above +-(2, 0) the odd
    # multiples of (1, 1): a WGRS whose GR3 fails on a pair of classes
    c11 = build("C(1,1)")
    gram = [[c11.space.gram[i][j] if i < 2 and j < 2 else 0 for j in range(4)]
            for i in range(4)]
    z2 = _lat(4, [0, 0, 1, 0], [0, 0, 0, 1])
    odd = CosetSet(z2, _lat(4, [0, 0, 2, 2]), zero_vector(4), [vec([0, 0, 1, 1])])
    full = CosetSet.full_lattice(z2)
    return SymbolicRootSystem(BilinearSpace(gram), [
        (tuple(r) + (Q(0), Q(0)), odd if abs(r[0]) == 2 and r[1] == 0 else full)
        for r in c11.roots
    ])


def _b2_short_halved():
    # the families above the short roots +-(1, 0) of affine B2 cut to 2Z delta
    system = affinize(build("B2"), 1)
    even = CosetSet(system.L, _lat(3, [0, 0, 2]), zero_vector(3), [zero_vector(3)])
    return SymbolicRootSystem(system.space, [
        (e.lift, even if e.lift[1] == 0 else e.family) for e in system.entries
    ])


FINITE_REPORTS = {
    "B2 plus zero": lambda: _edited("B2", add=[zero_vector(2)]),
    "B2 in three dimensions": lambda: FiniteRootSystem(
        standard_space(3), [tuple(r) + (Q(0),) for r in build("B2").roots]),
    "B3 minus a root": lambda: _edited("B3", drop=build("B3").roots[3:4]),
    "A(1,1) minus an isotropic pair": lambda: _edited("A(1,1)", drop=_isotropic_pair("A(1,1)")),
    "C(2,1) plus +- a sum": lambda: _edited("C(2,1)", add=[
        vadd(*build("C(2,1)").roots[:2]), vneg(vadd(*build("C(2,1)").roots[:2]))]),
}

SYMBOLIC_REPORTS = {
    "A1 x A1 and a zero class": lambda: over_radical(
        [2, 2, 0], [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 0]], "full"),
    "no radical lattice, -(2, 0) missing": lambda: over_radical(
        [2, 0], [[1, 0], [-1, 0], [2, 0]], "point"),
    "incommensurate C(1,1)": _incommensurate_c11,
    "affine B2, the short families halved": _b2_short_halved,
    "affine B(1,1) minus an isotropic pair": lambda: affinize(
        _edited("B(1,1)", drop=_isotropic_pair("B(1,1)")), 1),
}

REPORT_DIGESTS = {
    "A(1,1) minus an isotropic pair": "fc5e828476ac92158fd355b01c463df1885a790f0631b28dcd6b45530f76948d",
    "A1 x A1 and a zero class": "66e14d7496ca804e55f6489864d890743a65db3d9cf5a35658dad4163a4087db",
    "B2 in three dimensions": "65752afd188c4426166c00b7080d5ca278c77d96ef50cc43ec39d74063cd4925",
    "B2 plus zero": "ecb59a80a1e14bb5ec92393c8c6c9c614f676c37b9b7ed0d71f2a66e5cefdfe3",
    "B3 minus a root": "66654e0328b03ba54774815dc31aa5f6dde88533602bf35e78a9cdf1f42fa7cb",
    "C(2,1) plus +- a sum": "76bd9fb59c08cdfc46fa8cc2be78ca7e69a4d84312ae5382f594be36661cca57",
    "affine B(1,1) minus an isotropic pair": "92d98413af24aef6305395e264e19005f4d02a0a20901af646893a618dd3856e",
    "affine B2, the short families halved": "00acc5b750539a495b20e8e4ec0a98e02a8c517dfc0e8678a63aeede20349242",
    "incommensurate C(1,1)": "d0ca4e25ea0e28090d7f5d5008461657897cc3a4d553c9acf556ad1ba5212d8f",
    "no radical lattice, -(2, 0) missing": "d721c3079d44813838af9a84c08c2c4411b6c1adf4b85a038b0d652ec57e7882",
}


def _report(label):
    if label in FINITE_REPORTS:
        return check_axioms(FINITE_REPORTS[label]())
    return check_symbolic_axioms(SYMBOLIC_REPORTS[label]())


@pytest.mark.parametrize("label", sorted({**FINITE_REPORTS, **SYMBOLIC_REPORTS}))
def test_failing_report_is_pinned(label):
    text = serialize.dumps(_report(label))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[label]


def test_pinned_reports_fail_every_axiom():
    for reports in (FINITE_REPORTS, SYMBOLIC_REPORTS):
        failed = {a for label in reports for a in AXIOMS if not getattr(_report(label), a).passed}
        assert failed == set(AXIOMS)


# ---------------------------------------------------------------------------
# The symbolic checker and lookups find each class through the root index of
# the quotient, whose order need not be that of the lifts.  Moving the
# radical to the first coordinates and adding to each lift a radical part
# linear in its class is an isometry after which the lifts no longer sort as
# their classes; every verdict and every lookup must be the same.

RADICAL_FIRST = {
    **SYMBOLIC_REPORTS,
    "G2, s = 1": lambda: family("G2", 2, s=1),
    "B3 over S = {0, 3}": lambda: family("B3", 2, S={0, 3}),
    "BC(2,1) over S = {0}, Sp = {1, 2}": lambda: family("BC(2,1)", 2, S={0}, Sp={1, 2}),
    "affine B(1,1)": lambda: affinize(build("B(1,1)"), 1),
}


def _radical_first(system, rng):
    """The image of the system under (q, r) -> (r + T q, q), for q the first
    coordinates and r the last kernel_dim, which span the radical, and T a
    seeded integer matrix."""
    k = system.kernel_dim
    d0 = system.space.dim - k
    G = system.space.gram
    assert not any(any(row) for row in G[d0:])
    T = [[rng.randint(-3, 3) for _ in range(d0)] for _ in range(k)]

    def f(v):
        q, r = v[:d0], v[d0:]
        return tuple(r[i] + sum(c * x for c, x in zip(T[i], q)) for i in range(k)) + tuple(q)

    def lattice(lat):
        return Lattice.from_vectors(lat.dim, [f(b) for b in lat.basis])

    old = list(range(d0, d0 + k)) + list(range(d0))
    gram = [[G[i][j] for j in old] for i in old]
    entries = [
        (f(e.lift), CosetSet(lattice(e.family.ambient), lattice(e.family.modulus),
                             f(e.family.translate), [f(x) for x in e.family.reps]))
        for e in system.entries
    ]
    return SymbolicRootSystem(BilinearSpace(gram), entries), f


def _entries_by_class(system):
    return [system.entries.index(system.entry_for_cl(c)) for c in system.cl().roots]


@pytest.mark.parametrize("label", sorted(RADICAL_FIRST))
def test_verdicts_and_lookups_do_not_follow_the_order_of_lifts(label):
    system = RADICAL_FIRST[label]()
    rng = random.Random(f"radical-first/{label}")
    # the first seeded T under which the lifts do not sort as their classes
    moved, f = next(m for m in (_radical_first(system, rng) for _ in range(20))
                    if _entries_by_class(m[0]) != list(range(len(system.entries))))
    assert report_verdicts(check_symbolic_axioms(moved)) == report_verdicts(
        check_symbolic_axioms(system))
    for e in system.entries:
        lift, members = f(e.lift), [f(m) for m in e.family.members()]
        entry = moved.entry_for_cl(lift)
        assert entry.lift == lift and moved.family_of_lift(lift) is entry.family
        assert all(entry.family.contains(m) for m in members)
        assert all(moved.contains(vadd(lift, m)) for m in members)
