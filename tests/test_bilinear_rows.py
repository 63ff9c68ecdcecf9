"""Spaces on integer rows, and the one reader of a caller's vectors.

A `BilinearSpace` keeps its Gram matrix as integer rows over their least
common denominator and its radical as integer rows; `gram` and
`kernel_basis()` are views.  These tests hold the space and the symbolic
lookups built on it against the `Fraction` code they replaced
(`fraction_reference.form`, `in_kernel`, `kernel`, `project`, `contains`,
`family_of_lift`, `entry_for_cl`), and pin the one rule for a vector of the
wrong length: every public entry that takes a vector raises
`DimensionMismatch`.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grrs.catalog import a_nn_x, build, family
from grrs.cli import main
from grrs.errors import DimensionMismatch, UnknownRoot
from grrs.finite import (
    FiniteRootSystem, generate_subsystem, integral_subsystem, isomorphic_finite,
    isotropic_reflect, k_value, reflect,
)
from grrs.linalg import (
    BilinearSpace, Lattice, lattice_from_vectors, vadd, vscale,
)
from grrs.serialize import dumps
from grrs.symbolic import CosetSet, SymbolicRootSystem, affinize, from_finite, quotient

import fraction_reference as reference

small = st.fractions(min_value=Q(-4), max_value=Q(4), max_denominator=6)


@st.composite
def grams(draw):
    """Symmetric rational n x n matrices, n <= 5: an arbitrary one, or a
    degenerate one, sum_r s_r v_r v_r^T over fewer rows than n."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        upper = {(i, j): draw(small) for i in range(n) for j in range(i, n)}
        return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    rows = [[draw(small) for _ in range(n)] for _ in range(draw(st.integers(0, max(n - 1, 0))))]
    signs = [draw(st.sampled_from((1, -1, Q(1, 2)))) for _ in rows]
    return [[sum((s * v[i] * v[j] for s, v in zip(signs, rows)), Q(0)) for j in range(n)]
            for i in range(n)]


def _spelled(v, how):
    """v as ints where integral, as strings, or as Fractions."""
    if how == "str":
        return tuple(str(x) for x in v)
    if how == "int":
        return tuple(int(x) if x.denominator == 1 else x for x in v)
    return tuple(v)


@settings(max_examples=150, deadline=None)
@given(grams(), st.data())
@example([[Q(1, 2), Q(1, 3)], [Q(1, 3), Q(2, 9)]], None)  # degenerate over 18
@example([[0, 0, 0], [0, 0, 0], [0, 0, 0]], None)  # all of the space is the radical
def test_space_against_the_fraction_reference(gram, data):
    space = BilinearSpace(gram)
    n = space.dim
    assert space.gram == tuple(tuple(Q(x) for x in row) for row in gram)
    kb = reference.kernel(gram)
    assert list(space.kernel_basis()) == kb
    # the same matrix spelled otherwise is the same space; another is another
    words = BilinearSpace([[str(x) for x in row] for row in gram])
    assert words == space and hash(words) == hash(space)
    doubled = BilinearSpace([[2 * x for x in row] for row in gram])
    assert (doubled == space) == all(x == 0 for row in gram for x in row)
    if data is None:
        return
    vectors = st.lists(small, min_size=n, max_size=n).map(tuple)
    how = st.sampled_from(("str", "int", "frac"))
    for _ in range(3):
        u, v = data.draw(vectors), data.draw(vectors)
        su, sv = _spelled(u, data.draw(how)), _spelled(v, data.draw(how))
        assert space.form(su, sv) == reference.form(gram, u, v)
        assert space.norm(su) == reference.form(gram, u, u)
        assert space.in_kernel(su) == reference.in_kernel(gram, u)
        # a combination of the radical basis lies in the radical
        w = [sum((c * b[i] for c, b in zip(u, kb)), Q(0)) for i in range(n)]
        assert space.in_kernel(_spelled(w, data.draw(how))) and reference.in_kernel(gram, w)


def _systems():
    a2 = affinize(build("A2"), 1)
    first = a2.splitting()[0]
    fam = a2.family_of_lift(first)
    return {
        "B2 k=1": affinize(build("B2"), 1),
        "G2 k=2": affinize(build("G2"), 2),
        "BC(1,1) k=2": affinize(build("BC(1,1)"), 2),
        "B3 S k=2": family("B3", 2, S={0, 3}),
        "C(2,1) k=1": family("C(2,1)", 1, S={0}),
        "BC1 k=2": family("BC1", 2, S={0, 1, 2}, H2={0}),
        "A(1,1)_3": a_nn_x(1, 1, 3, 0),
        "A(1,1) radical": from_finite(build("A(1,1)")),
        "A2 resplit": a2.resplit({first: vadd(fam.members()[0], fam.modulus.basis[0])}),
        "G2 quotient": quotient(affinize(build("G2"), 2), [(0, 0, 0, 1)]),
    }


SYSTEMS = _systems()


def _queries(system, rng, count=80):
    """Vectors of the space, as the benchmark draws them: a finite part, a
    lift, a sum of two lifts, half a lift or zero, plus a radical part, a
    combination of the radical basis over the denominator 1 or 2."""
    lifts, kb, dim = system.lifts, system.space.kernel_basis(), system.space.dim
    out = []
    for _ in range(count):
        a, b = rng.choice(lifts), rng.choice(lifts)
        fin = [a, vadd(a, b), vscale(Q(1, 2), a), (Q(0),) * dim][rng.randrange(4)]
        den = rng.choice((1, 1, 2))
        rad = [Q(rng.randint(-4, 4), den) for _ in kb]
        out.append(tuple(x + sum((c * v[i] for c, v in zip(rad, kb)), Q(0))
                         for i, x in enumerate(fin)))
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnknownRoot as exc:
        return UnknownRoot, str(exc)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_symbolic_lookups_against_the_fraction_reference(name):
    system = SYSTEMS[name]
    rng = random.Random(7)
    queries = _queries(system, rng)
    assert any(map(system.contains, queries))
    for v in queries:
        spelled = _spelled(v, rng.choice(("str", "int", "frac")))
        assert system.contains(spelled) == reference.contains(system, v)
        assert _outcome(system.family_of_lift, spelled) == _outcome(
            reference.family_of_lift, system, v)
        assert _outcome(system.entry_for_cl, spelled) == _outcome(
            reference.entry_for_cl, system, v)
        cl_v = reference.project(system.space, v)
        assert _outcome(system.entry_for_cl, cl_v) == _outcome(
            reference.entry_for_cl, system, cl_v)


def test_strings_name_the_weight_of_an_integral_subsystem():
    b2 = build("B2")
    assert integral_subsystem(b2, ("1/2", "0")) == integral_subsystem(b2, (Q(1, 2), 0))


def _entries():
    """Every public entry that takes a vector, as a function of that vector,
    with the lengths it accepts: the finite ones live in dim 2, the symbolic
    ones in dim 3, and `entry_for_cl` also takes a root of the quotient."""
    b2, b11 = build("B2"), build("B(1,1)")
    iso = next(r for r in b11.roots if b11.norm(r) == 0)
    space = b2.space
    lat = Lattice.from_vectors(2, [(1, 0), (0, 1)])
    coset = CosetSet.full_lattice(lat)
    a2 = affinize(build("A2"), 1)
    lift = a2.splitting()[0]
    fam = a2.family_of_lift(lift)
    homothety = isomorphic_finite(b2, b2)
    finite = {
        "FiniteRootSystem": lambda v: FiniteRootSystem(space, [(1, 0), v]),
        "FiniteRootSystem.contains": b2.contains,
        "FiniteRootSystem.norm": b2.norm,
        "FiniteRootSystem.is_isotropic": b2.is_isotropic,
        "isotropic_reflect alpha": lambda v: isotropic_reflect(b11, v, b11.roots[0]),
        "isotropic_reflect beta": lambda v: isotropic_reflect(b11, iso, v),
        "generate_subsystem": lambda v: generate_subsystem(b2, [(1, 0), v]),
        "integral_subsystem": lambda v: integral_subsystem(b2, v),
        "Homothety.apply": homothety.apply,
        "k_value": lambda v: k_value(space, (1, 0), v),
        "reflect": lambda v: reflect(space, v, (1, 0)),
        "BilinearSpace.form": lambda v: space.form((1, 0), v),
        "BilinearSpace.norm": space.norm,
        "BilinearSpace.in_kernel": space.in_kernel,
        "Lattice.from_vectors": lambda v: Lattice.from_vectors(2, [(1, 0), v]),
        "lattice_from_vectors": lambda v: lattice_from_vectors(space, [v]),
        "Lattice.member": lat.member,
        "Lattice.residue": lat.residue,
        "CosetSet translate": lambda v: CosetSet(lat, lat, v, [(0, 0)]),
        "CosetSet rep": lambda v: CosetSet(lat, lat, (0, 0), [v]),
        "CosetSet.contains": coset.contains,
        "CosetSet.shift": coset.shift,
    }
    symbolic = {
        "SymbolicRootSystem": lambda v: SymbolicRootSystem(a2.space, [(v, fam)]),
        "SymbolicRootSystem.contains": a2.contains,
        "SymbolicRootSystem.family_of_lift": a2.family_of_lift,
        "SymbolicRootSystem.resplit key": lambda v: a2.resplit({v: (0, 0, 0)}),
        "SymbolicRootSystem.resplit offset": lambda v: a2.resplit({lift: v}),
        "quotient": lambda v: quotient(a2, [v]),
    }
    cases = [(name, n, fn) for name, fn in finite.items() for n in (1, 3)]
    cases += [(name, n, fn) for name, fn in symbolic.items() for n in (2, 4)]
    return cases + [("SymbolicRootSystem.entry_for_cl", n, a2.entry_for_cl) for n in (1, 4)]


ENTRIES = _entries()


@pytest.mark.parametrize("name, length, entry", ENTRIES,
                         ids=[f"{name}-{length}" for name, length, _ in ENTRIES])
def test_a_vector_of_the_wrong_length_raises_dimension_mismatch(name, length, entry):
    with pytest.raises(DimensionMismatch):
        entry((1,) + (0,) * (length - 1))


def test_the_cli_names_a_wrong_length(tmp_path, capsys):
    path = tmp_path / "a2.json"
    path.write_text(dumps(affinize(build("A2"), 1)))
    assert main(["quotient", str(path), "--vector", "0,1"]) == 2
    assert capsys.readouterr().err == "error: vector of length 2 in dim 3\n"


def test_the_reader_takes_any_iterables():
    """Each caller's matrix or vector list is read twice, for its
    denominators and for its rows: an iterator is read as a sequence."""
    space = BilinearSpace(iter([iter([1, 0]), iter([0, 1])]))
    assert space == BilinearSpace([[1, 0], [0, 1]]) and space.dim == 2
    roots = FiniteRootSystem(space, (r for r in [(1, 0), (-1, 0)]))
    assert roots == FiniteRootSystem(space, [(1, 0), (-1, 0)])
    assert quotient(affinize(build("A1"), 1), iter([(0, 1)])).space.dim == 1
