"""Shared helpers: the offset-family invariance suite.

Checks, on a symbolic system, the structural identities that every honestly
constructed affine system must satisfy:

  (i)   F(-a) = -F(a)
  (ii)  F(w a) = F(a) for reflections w at embedded non-isotropic roots
  (iii) F(a) = -F(a) for non-isotropic a
  (iv)  same as (ii) for isotropic reflections when the quotient is a GRRS
  (sum) F(a+b) = F(a) + F(b) whenever r_a(b) = a + b
  (full) every family equals the whole offset lattice when the quotient is
         a transitive GRRS other than A1 that embeds back into the system
"""

from fractions import Fraction as Q
from functools import reduce

from grrs.catalog import family
from grrs.errors import BadParameters
from grrs.finite import FiniteRootSystem, check_axioms, isotropic_reflect, k_value, reflect
from grrs.linalg import (
    BilinearSpace, Lattice, unit_vector, vadd, vec, vneg, vscale, vsub, zero_vector,
)
from grrs.symbolic import CosetSet, SymbolicRootSystem, check_symbolic_axioms

import fraction_reference as reference


def isotropic_roots(system: FiniteRootSystem) -> list:
    return [r for r in system.roots if system.is_isotropic(r)]


def reflect_root(system: FiniteRootSystem, alpha, beta):
    """r_alpha(beta) inside the system, linear or isotropic as alpha is."""
    if system.is_isotropic(alpha):
        return isotropic_reflect(system, alpha, beta)
    return reflect(system.space, alpha, beta)


def _entry_map(system):
    return {e.lift: e.family for e in system.entries}


def f_invariance_failures(system: SymbolicRootSystem):
    """List of (label, lift, lift-or-None) triples for violated identities."""
    fails = []
    fams = _entry_map(system)
    space = system.space
    cl_sys = system.cl()
    cl_is_grrs = check_axioms(cl_sys).is_grrs

    for lift, fam in fams.items():
        neg = fams.get(vneg(lift))
        if neg is None or not neg.same_set(fam.neg()):
            fails.append(("negation", lift, None))
        if space.norm(lift) != 0:
            # F(a) = -F(a) in the root-splitting convention; stated
            # presentation-independently: F is symmetric about each member
            x = fam.members()[0]
            mirrored = fam.neg().shift(vadd(x, x))
            if not mirrored.same_set(fam):
                fails.append(("self-negation", lift, None))

    embedded = [
        lift
        for lift, fam in fams.items()
        if fam.contains(zero_vector(space.dim))
    ]
    for g in embedded:
        ng = space.norm(g)
        if ng == 0:
            continue
        for lift, fam in fams.items():
            k = 2 * space.form(g, lift) / ng
            image = vsub(lift, vscale(k, g))
            target = fams.get(image)
            if target is None or not target.same_set(fam):
                fails.append(("weyl-invariance", g, lift))

    if cl_is_grrs:
        for g in embedded:
            if space.norm(g) != 0:
                continue
            gc = reference.project(space, g)
            for e in system.entries:
                image = isotropic_reflect(cl_sys, gc, reference.project(space, e.lift))
                target = system.entry_for_cl(image).family
                if not target.same_set(e.family):
                    fails.append(("gw-invariance", g, e.lift))

    # F(a+b) = F(a) + F(b) whenever r_a b = a + b
    for ea in system.entries:
        na = space.norm(ea.lift)
        for eb in system.entries:
            target_lift = vadd(ea.lift, eb.lift)
            if target_lift not in fams:
                continue
            if na != 0:
                if 2 * space.form(ea.lift, eb.lift) / na != -1:
                    continue
            else:
                if not cl_is_grrs:
                    continue
                ac, bc, target = (reference.project(space, v) for v in (ea.lift, eb.lift, target_lift))
                if cl_sys.space.form(ac, bc) == 0:
                    continue
                if isotropic_reflect(cl_sys, ac, bc) != target:
                    continue
            expect = ea.family.add(eb.family)
            if not fams[target_lift].same_set(expect):
                fails.append(("sum-rule", ea.lift, eb.lift))
    return fails


def is_transitive_grrs_quotient(system: SymbolicRootSystem) -> bool:
    from grrs.finite import gw_orbits

    cl_sys = system.cl()
    if not check_axioms(cl_sys).is_grrs:
        return False
    if len(cl_sys) == 2:
        return False
    if not all(
        e.family.contains(zero_vector(system.space.dim)) for e in system.entries
    ):
        return False
    return len(gw_orbits(cl_sys)) == 1


def full_coset_failures(system: SymbolicRootSystem):
    """For transitive quotients: every family must be the full lattice L."""
    fails = []
    full = CosetSet.full_lattice(system.L)
    for e in system.entries:
        if not e.family.same_set(full):
            fails.append(e.lift)
    return fails


def radical_change(system: SymbolicRootSystem, ops) -> SymbolicRootSystem:
    """The same system after the unimodular changes x_i += x_j, for (i, j)
    in `ops`, of the radical coordinates (the last kernel_dim): an isometry,
    as the form vanishes on the radical."""
    d0 = system.space.dim - system.kernel_dim

    def f(v):
        v = list(v)
        for i, j in ops:
            v[d0 + i] += v[d0 + j]
        return tuple(v)

    def lattice(lat):
        return Lattice.from_vectors(lat.dim, [f(b) for b in lat.basis])

    entries = [
        (f(e.lift), CosetSet(lattice(e.family.ambient), lattice(e.family.modulus),
                             f(e.family.translate), [f(x) for x in e.family.reps]))
        for e in system.entries
    ]
    return SymbolicRootSystem(system.space, entries)


def shear(system: SymbolicRootSystem, rng, den: int) -> SymbolicRootSystem:
    """The image of the system under x -> x + sum_i x_i t_i, the sum over
    the quotient coordinates i, for seeded t_i in (1/den) L: an isometry, as
    each t_i lies in the radical.  Each family moves by sum_i lift_i t_i."""
    basis = system.L.basis
    t = [
        reduce(vadd, (vscale(Q(rng.randint(-den, den), den), b) for b in basis))
        for _ in range(system.space.dim - system.kernel_dim)
    ]

    def move(lift):
        return reduce(vadd, (vscale(x, ti) for x, ti in zip(lift, t)), zero_vector(len(lift)))

    return SymbolicRootSystem(system.space, [(e.lift, e.family.shift(move(e.lift))) for e in system.entries])


def valid_family_params(cl: str, k: int, rng, count: int):
    """Up to `count` distinct seeded parameter sets that `family(cl, k, ...)`
    accepts, for BC<n> and C(1,1): candidates are drawn at random (BC1's H2
    closed under H2 + 2 H2, its S the reduction of H2 plus random points) and
    kept when `family` accepts them."""
    n = 1 << k

    def subset(zero=False):
        return sorted({p for p in range(n) if rng.random() < 0.5 or zero and p == 0})

    found, tried = [], set()
    for _ in range(2000):
        if cl == "C(1,1)":
            params = {"S": subset()}
        elif cl == "BC1":
            h2 = {rng.randrange(4 ** k) for _ in range(rng.randint(1, 3))}
            while True:
                grown = h2 | {_digit_sum(a, b, k) for a in h2 for b in h2}
                if grown == h2:
                    break
                h2 = grown
            reduced = {sum((a >> 2 * j & 1) << j for j in range(k)) for a in h2}
            params = {"S": sorted(reduced | set(subset(zero=True))), "H2": sorted(h2)}
        else:
            params = {"S1": subset(zero=True), "S2": subset()}
            if cl == "BC2":
                params["T"] = subset(zero=True)
        if repr(params) in tried:
            continue
        tried.add(repr(params))
        try:
            family(cl, k, **params)
        except BadParameters:
            continue
        found.append(params)
        if len(found) == count:
            break
    return found


def _digit_sum(a: int, b: int, k: int) -> int:
    """a + 2 b in (Z/4)^k, points written in base-4 digits."""
    return sum((((a >> 2 * j) + 2 * (b >> 2 * j)) & 3) << 2 * j for j in range(k))


def over_radical(diagonal, classes, kind):
    """The given classes over a diagonal Gram matrix whose last entry is 0,
    all carrying the family Z delta ("full") or {0} ("point"), delta the
    last unit vector."""
    dim = len(diagonal)
    L = Lattice.from_vectors(dim, [unit_vector(dim, dim - 1)])
    fam = {
        "full": CosetSet.full_lattice(L),
        "point": CosetSet(L, Lattice.zero(dim), zero_vector(dim), [zero_vector(dim)]),
    }[kind]
    gram = [[diagonal[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    return SymbolicRootSystem(BilinearSpace(gram), [(vec(c), fam) for c in classes])


def base_change(system: FiniteRootSystem, A) -> FiniteRootSystem:
    """The image of the system under v -> v A for an invertible rational
    matrix A: roots v A and Gram matrix A^-1 G A^-T, so every pairing is
    kept.  The radical moves to (radical) A."""
    n = len(A)
    reduced, _ = reference.rref([list(row) + [int(i == j) for j in range(n)]
                                 for i, row in enumerate(A)])
    inv = [row[n:] for row in reduced]
    g = system.space.gram
    half = [[sum(inv[i][a] * g[a][b] for a in range(n)) for b in range(n)] for i in range(n)]
    gram = [[sum(half[i][b] * inv[j][b] for b in range(n)) for j in range(n)] for i in range(n)]
    roots = [tuple(sum(r[i] * A[i][j] for i in range(n)) for j in range(n)) for r in system.roots]
    return FiniteRootSystem(BilinearSpace(gram), roots)
