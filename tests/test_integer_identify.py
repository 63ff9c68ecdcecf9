"""`identify` reads the families on integer rows, and the AGL(k,2) orbit
walks run on three generators; both against the paths they replaced.

The `Fraction` path of `identify` is kept in `fraction_reference`: the
shift of a family, the pullback's least members and shifted families, the
masks `points_mod` reads, and the minimal quotient with the entry above
each of its roots.  Seeded Hypothesis draws compare both on every type
classified over F_2^k, at k <= 3, after a change of radical coordinates
and a shear into half the offset lattice.  The canonical forms of subsets
are compared with the orbit minima of `bench/oracle.py` on every mask at
k <= 3, and with a walk under every transvection on seeded masks at k = 4;
the joint canonical form of pairs with a walk under every transvection.
"""

import importlib.util
import random
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grrs import catalog
from grrs.catalog import family, orbits, points_mod, type_key
from grrs.classify import (
    _orbit_minima, _pullback_families, canonical_mask, canonical_pair, recognize_cl,
)
from grrs.errors import BadParameters, UnrecognizedCl
from grrs.linalg import Lattice
from grrs.symbolic import SymbolicRootSystem

import fraction_reference as reference
from support import radical_change, shear, valid_family_params

ORACLE = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"

F2_TYPES = ["A1", "B3", "C3", "C2", "G2", "F4", "B(1,1)", "B(2,1)", "C(1,1)", "C(2,1)", "C(2,2)",
            "BC(1,1)", "BC(2,1)", "BC(2,2)", "BC1", "BC2", "BC3"]


def _drawn_family(cl, k, rng):
    """A `family(cl, k, ...)` system on seeded valid parameters, or None."""
    if cl in ("BC1", "BC2", "BC3", "C(1,1)"):
        found = valid_family_params(cl, k, rng, 1)
        return family(cl, k, **found[0]) if found else None
    names = {catalog._parameter(o.data) for o in orbits(type_key(cl))} - {None}
    for _ in range(60):
        if names == {"s"}:
            params = {"s": rng.randint(0, k)}
        else:
            density = rng.random()
            params = {n: [p for p in range(1 << k) if rng.random() < density] for n in names}
        try:
            return family(cl, k, **params)
        except BadParameters:
            continue
    return None


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except UnrecognizedCl as e:
        return "UnrecognizedCl", str(e)


def assert_parity(system, rng):
    # (d) the minimal quotient and the entry above each of its roots
    quotient = reference.cl(system)
    assert system.cl() == quotient and system.cl().roots == quotient.roots
    assert system._cl_entries == reference.cl_entries(system)
    # (a) the shift, by vectors in the radical and outside it
    dim, L = system.space.dim, system.L
    for fam in {id(e.family): e.family for e in system.entries}.values():
        inside = tuple(sum((Q(rng.randint(-4, 4), 2) * b[j] for b in L.basis), Q(0))
                       for j in range(dim))
        anywhere = tuple(Q(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(dim))
        for v in (inside, anywhere):
            assert fam.shift(v) == reference.shift(fam, v)
    # (b) the least members and the shifted families; (c) the masks read off them
    name, hmap, cat = recognize_cl(system.cl())
    key = type_key(name)
    fam = _pullback_families(system, hmap, key)
    old, least = reference.pullback_families(system, hmap, key)
    gens = catalog._generating_rows(key)[0]
    for g, m in zip(gens, least):
        f = system.entries[system._cl_entries[hmap.index[g]]].family
        d = f._t[0]
        assert tuple(Q(x, d) for x in f._least(d)) == m
    for i, root in enumerate(cat.roots):
        assert fam(i) == old(root)
    for o in orbits(key):
        f = fam(o.index[0])
        for ref in (L, L.scaled(2), L.scaled(Q(1, 2))):
            for r in (2, 4):
                assert _outcome(points_mod, f, ref, r) == _outcome(reference.points_mod, f, ref, r)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(F2_TYPES), st.integers(1, 3), st.randoms(use_true_random=False))
def test_identify_path_matches_the_fraction_reference(cl, k, rng):
    system = _drawn_family(cl, k, rng)
    if system is None:
        return
    moves = [(i, j) for i in range(k) for j in range(k) if i != j]
    moved = shear(radical_change(system, [rng.choice(moves) for _ in range(k)] if moves else []),
                  rng, 2)
    # a presentation no shear gives: one family moved by a fifth of L
    j = rng.randrange(len(moved.entries))
    fifth = tuple(x / 5 for x in moved.L.basis[0])
    skewed = SymbolicRootSystem(moved.space, [
        (e.lift, e.family.shift(fifth) if i == j else e.family)
        for i, e in enumerate(moved.entries)])
    for s in (system, moved, skewed):
        assert_parity(s, rng)


def test_a_presentation_outside_the_classified_shape_raises_alike():
    """A family of lower rank than r * ref has infinitely many cosets of it;
    the integer path raises UnrecognizedCl as for a non-sublattice."""
    system = family("B3", 2, S={0, 1})
    L = system.L
    low = Lattice.from_vectors(L.dim, [L.basis[0]])
    fam = system.entries[0].family
    for ref in (low, L.scaled(Q(1, 3))):
        assert _outcome(points_mod, fam, ref) == _outcome(reference.points_mod, fam, ref)
        assert _outcome(points_mod, fam, ref)[0] == "UnrecognizedCl"


def _bench_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_canonical_masks_are_the_oracle_orbit_minima(k):
    oracle = _bench_oracle()
    moves = oracle.subset_moves(k)
    least = {}
    for mask in range(1 << (1 << k)):
        if mask not in least:
            orbit = oracle.orbit(mask, moves)
            least.update(dict.fromkeys(orbit, min(orbit)))
    masks = range(1 << (1 << k))
    assert [canonical_mask(k, m) for m in masks] == [least[m] for m in masks]
    assert _orbit_minima(k) == tuple(sorted({least[m] for m in masks if m}))


def test_canonical_masks_at_k4_match_the_transvection_walk():
    rng = random.Random("orbits/k4")
    for _ in range(200):
        mask = rng.randrange(1 << 16)
        assert canonical_mask(4, mask) == reference.orbit_minimum(4, mask), mask


@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_pairs_match_the_transvection_walk(k):
    n = 1 << (1 << k)
    if k <= 2:
        pairs = [(a, b, t, c) for a in range(n) for b in range(n) for t in (False, True)
                 for c in (False, True)]
    else:
        rng = random.Random("pairs/k3")
        pairs = [(rng.randrange(n), rng.randrange(n), rng.random() < 0.5, rng.random() < 0.5)
                 for _ in range(150)]
    for pair in pairs:
        assert canonical_pair(k, *pair) == reference.canonical_pair(k, *pair), pair
