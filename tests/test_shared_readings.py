"""Equal finite systems share one store of derived readings.

`finite._readings` keeps, per distinct system, the pairings, reflection
rows, fingerprints and every other reading of `FiniteRootSystem`, keyed by
the value of the system: its integer rows, its scale and its space.  Here
one system is built by three routes (the public constructor on shuffled and
duplicated roots, the integer entry `_of_rows` over a larger denominator,
and a document round trip); all three must meet the same store, and the
checker, both orbit partitions and the homothety search must answer as the
`Fraction` references do, whether the store was filled by an earlier equal
system or starts empty.  Equal rows over another space are another system,
with a store of its own.
"""

import random
from fractions import Fraction as Q

import pytest

from grrs import finite, serialize
from grrs.catalog import build
from grrs.errors import (
    AmbiguousReflection, DimensionMismatch, MissingImage, OrthogonalSeed, UnknownRoot,
)
from grrs.finite import FiniteRootSystem, check_axioms, gw_orbits, isomorphic_finite, weyl_orbits
from grrs.linalg import BilinearSpace

import fraction_reference as reference

# named systems with and without isotropic roots, and two that fail an axiom
# (a non-integral Cartan number; an isotropic root without a negative)
CASES = {
    "B3": lambda: build("B3"),
    "G2": lambda: build("G2"),
    "A(2,1)": lambda: build("A(2,1)"),
    "BC(1,1)": lambda: build("BC(1,1)"),
    "D(2,1;a=1/2)": lambda: build("D(2,1;a=1/2)"),
    "k = 1/2": lambda: FiniteRootSystem(
        BilinearSpace([[1, 0], [0, 1]]),
        [(2, 2), (-2, -2), (1, 0), (-1, 0), (0, 1), (0, -1)]),
    "no negative": lambda: FiniteRootSystem(
        BilinearSpace([[1, 0], [0, -1]]), [(1, 1), (1, 0), (-1, 0)]),
}


def _outcome(fn, *args):
    """fn(*args), or the type and witness roots of what it raised."""
    try:
        return fn(*args)
    except (AmbiguousReflection, MissingImage) as exc:
        return type(exc), exc.alpha, exc.beta
    except (UnknownRoot, OrthogonalSeed) as exc:
        return type(exc)


def _routes(system, rng):
    """The system again, by the public constructor on its roots shuffled
    with some repeated, by `_of_rows` over three times its scale, and by a
    document round trip: three new objects of one value."""
    roots = list(system.roots) + rng.sample(system.roots, min(3, len(system)))
    rng.shuffle(roots)
    rows = [[3 * x for x in r] for r in system._rows]
    return [
        FiniteRootSystem(system.space, roots),
        FiniteRootSystem._of_rows(system.space, 3 * system.scale, rows),
        serialize.loads(serialize.dumps(system)),
    ]


def _same_answers(system):
    assert check_axioms(system) == reference.check_axioms(system)
    assert _outcome(gw_orbits, system) == _outcome(reference.gw_orbits, system)
    assert _outcome(weyl_orbits, system) == _outcome(reference.weyl_orbits, system)


def _same_homothety(src, dst):
    h, ref = isomorphic_finite(src, dst), reference.isomorphic_finite(src, dst)
    assert (h is None) == (ref is None)
    if h is not None:
        assert (h.scale, h.roots, h.images) == (ref.scale, ref.roots, ref.images)


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cleared"])
@pytest.mark.parametrize("name", list(CASES))
def test_three_routes_share_one_store(name, warm):
    rng = random.Random(f"routes/{name}")
    named = CASES[name]()
    # a new object, which has read nothing before the memo is cleared
    finite._readings.cache_clear()
    first = FiniteRootSystem._of_rows(named.space, named.scale, named._rows)
    if warm:
        _same_answers(first)  # fills the store the routes then read
    routes = _routes(first, rng)
    for system in routes:
        assert system == first and system is not first and hash(system) == hash(first)
        assert system.roots == first.roots
    store = finite._readings(first)
    assert all(finite._readings(system) is store for system in routes)
    for system in routes:
        _same_answers(system)
    _same_homothety(routes[0], routes[2])
    assert routes[1]._pairings is first._pairings


def test_equal_rows_over_another_space_have_their_own_store():
    """The rows and scale of B3 over twice its form hash as B3 does, but
    the system differs, and so do its store and its pairings."""
    b3 = build("B3")
    doubled = BilinearSpace._of_rows(b3.space._scale, [[2 * x for x in r] for r in b3.space._rows])
    other = FiniteRootSystem._of_rows(doubled, b3.scale, b3._rows)
    assert hash(other) == hash(b3) and other != b3
    assert finite._readings(other) is not finite._readings(b3)
    assert other._norms == tuple(2 * n for n in b3._norms)
    assert [list(p) for p in other._pairings] == reference.pairings(other)
    _same_answers(other)
    assert isomorphic_finite(b3, other).scale == 2
    _same_homothety(b3, other)


def test_reflect_reads_strings():
    """`reflect` and `k_value` read their vectors as every public vector
    entry does: ints, Fractions and strings alike."""
    space = build("B2").space
    assert finite.reflect(space, ("1", "0"), ("1", "1")) == (-1, 1)
    assert finite.reflect(space, ("1/2", 0), (Q(1, 3), "1")) == (Q(-1, 3), 1)
    assert finite.k_value(space, ("1", "1"), ("1/2", 0)) == Q(1, 2)


@pytest.mark.parametrize("entry", [finite.reflect, finite.k_value])
def test_reflect_names_a_wrong_length_of_either_vector(entry):
    space = build("B2").space
    for alpha, v in (((1, 0, 0), (1, 1)), ((1, 0), ("1",))):
        with pytest.raises(DimensionMismatch):
            entry(space, alpha, v)
