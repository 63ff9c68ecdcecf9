"""CosetSet against brute force, on families over ambient lattices of rank k <= 2.

The ambient L = Z b_1 + ... + Z b_k lies in Q^(k+1) with a fractional basis.
A family is drawn in integer coordinates on that basis: base + sum c_i b_i for
c in reps + M, with M spanned by small triangular rows.  Its base is
m t0 + j h with t0 outside the span of L and h = b_1 / 2, so two bases lie
in one coset of L exactly when their m agree and their j differ by an even
number.  The coordinates of t0 are halves or thirds: a translate over thirds
has a denominator coprime to the ambient's scale (1 or 2), and multiples,
sums and shifts of it cancel the thirds again, so the translate's reduction
to its least denominator meets every operation.

Membership of a point is decided by listing the lattice M in a box that
holds every coefficient vector that can reach it.  Inclusions, sums and
meeting a coset are decided on finitely many listed members (`sample`).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from grrs.linalg import Lattice, vadd, vneg, vscale, vsub, zero_vector
from grrs.symbolic import CosetSet

QUERY = 3  # query points: coefficient vectors with entries in [-QUERY, QUERY]


@cache
def lattice_points(rows, bound, k):
    """Points of the lattice spanned by the rows with entries in [-bound,
    bound].  The rows are triangular with pivots of size at least that of
    every other entry over 3 (or, for one row, at least a third of it), so
    coefficients in [-3 bound, 3 bound] reach every such point."""
    span = range(-3 * bound, 3 * bound + 1)
    out = {(0,) * k}
    for coeffs in itertools.product(span, repeat=len(rows)):
        p = combination(coeffs, rows, k)
        if max(map(abs, p)) <= bound:
            out.add(p)
    return frozenset(out)


def times(c, v):
    return tuple(c * x for x in v)


def combination(coeffs, rows, k):
    return tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range(k))


@dataclass(frozen=True)
class Fam:
    """base(m, j) + {sum c_i b_i : c in reps + M}, M spanned by the rows."""

    m: int
    j: int
    reps: tuple
    rows: tuple

    @property
    def k(self):
        return len(self.reps[0])

    def has(self, m, j, c):
        """Is the point base(m, j) + sum c_i b_i in the family?"""
        if m != self.m or (j - self.j) % 2:
            return False
        c = (c[0] + (j - self.j) // 2,) + tuple(c[1:])
        bound = 2 * max(abs(x) for v in (c, *self.reps) for x in v)
        return any(vsub(c, r) in lattice_points(self.rows, bound, self.k) for r in self.reps)

    def sample(self, other):
        """Members of the family, as coefficient vectors on its own base,
        that decide whether it lies in `other` and whether a point is a sum
        of a member and an element of `other`.  When `other` has full rank
        it contains d Z^k for d its index, so the coefficients of M run over
        [0, d); a finite family is all of its reps; otherwise (lines and
        points in the plane) 40 steps each way along a line reach every
        crossing with a line of `other` near the origin, and 6 steps each way
        in a plane leave a point outside three lines."""
        if len(other.rows) == self.k:
            span = range(prod(row[i] for i, row in enumerate(other.rows)))
        elif len(self.rows) == 2:
            span = range(-6, 7)
        else:
            span = range(-40, 41)
        boxes = itertools.product(span, repeat=len(self.rows))
        return {vadd(r, combination(e, self.rows, self.k)) for e in boxes for r in self.reps}

    def subset_of(self, other):
        return all(other.has(self.m, self.j, x) for x in self.sample(other))

    def sum_has(self, other, m, j, c):
        """Is base(m, j) + sum c_i b_i in the sum of the two families?"""
        inner, outer = (self, other) if len(self.rows) == self.k else (other, self)
        if m != inner.m + outer.m or (j - inner.j - outer.j) % 2:
            return False
        c = (c[0] + (j - inner.j - outer.j) // 2,) + tuple(c[1:])
        return any(inner.has(inner.m, inner.j, vsub(c, x)) for x in outer.sample(inner))


class Setting:
    def __init__(self, basis, t0):
        self.basis, self.t0 = basis, t0
        self.k = len(basis)
        self.h = vscale(Q(1, 2), basis[0])
        self.L = Lattice.from_vectors(len(t0), basis)

    def vector(self, m, j, c):
        v = vadd(vscale(m, self.t0), vscale(j, self.h))
        for ci, b in zip(c, self.basis):
            v = vadd(v, vscale(ci, b))
        return v

    def lattice(self, rows):
        return Lattice.from_vectors(len(self.t0), [self.vector(0, 0, r) for r in rows])

    def parts(self, fam):
        """Modulus, translate and reps of the plain presentation of a family."""
        reps = [self.vector(0, 0, r) for r in fam.reps]
        return self.lattice(fam.rows), self.vector(fam.m, fam.j, (0,) * self.k), reps

    def queries(self, m, j):
        box = itertools.product(range(-QUERY, QUERY + 1), repeat=self.k)
        return [(m, jj, c) for c in box for jj in (j, j + 1)]


def small_rows(draw, k):
    rank = draw(st.integers(0, k))
    if rank == 0:
        return ()
    if k == 1:
        return ((draw(st.integers(1, 3)),),)
    if rank == 2:
        a, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        return ((a, draw(st.integers(0, a - 1))), (0, c))
    return (draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)),)


@st.composite
def families(draw, k, j=None):
    reps = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=1, max_size=3))
    j = draw(st.integers(0, 1)) if j is None else j
    return Fam(1, j, tuple(reps), small_rows(draw, k))


@st.composite
def drawn_settings(draw):
    """A setting, two families on it (often over one base) and lattice rows."""
    k = draw(st.integers(1, 2))
    basis = []
    for i in range(k):
        row = [Q(0)] * (k + 1)
        row[i] = draw(st.sampled_from([Q(1, 2), Q(1), Q(3, 2), Q(2)]))
        for j in range(i + 1, k):
            row[j] = draw(st.sampled_from([Q(0), Q(1, 2), Q(-1)]))
        basis.append(tuple(row))
    coordinate = st.sampled_from([Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(1, 3), Q(-2, 3)])
    t0 = tuple(draw(coordinate) for _ in range(k)) + (draw(st.sampled_from([Q(1, 2), Q(1, 3)])),)
    a = draw(families(k))
    b = draw(families(k, a.j if draw(st.booleans()) else None))
    return Setting(tuple(basis), t0), a, b, small_rows(draw, k)


def parent_views(ambient, modulus, translate, reps):
    """(modulus, translate, reps) as the Fraction constructor computed them
    before families moved to integer coordinates."""
    members = [vadd(translate, r) for r in reps]
    t = ambient.residue(members[0])
    mod = modulus
    reps_c = sorted({mod.residue(vsub(m, t)) for m in members})
    while True:
        repset = set(reps_c)
        gained = [
            vsub(o, reps_c[0]) for o in reps_c[1:]
            if all(mod.residue(vadd(r, vsub(o, reps_c[0]))) in repset for r in reps_c)
        ]
        new_mod = mod.add(Lattice.from_vectors(ambient.dim, gained))
        if not gained or new_mod == mod:
            return mod, t, tuple(reps_c)
        mod = new_mod
        reps_c = sorted({mod.residue(r) for r in reps_c})


def views(fam):
    return fam.modulus, fam.translate, fam.reps


def check_membership(setting, fam, brute):
    for m, j, c in setting.queries(brute.m, brute.j):
        assert fam.contains(setting.vector(m, j, c)) == brute.has(m, j, c), (m, j, c)


@settings(max_examples=70, deadline=None)
@given(drawn_settings(), st.integers(-3, 3), st.data())
def test_coset_set_against_brute_force(drawn, c, data):
    setting, a, b, lat_rows = drawn
    A, B = CosetSet(setting.L, *setting.parts(a)), CosetSet(setting.L, *setting.parts(b))

    # membership, negation and multiples
    check_membership(setting, A, a)
    neg = Fam(-a.m, -a.j, tuple(times(-1, r) for r in a.reps), a.rows)
    check_membership(setting, A.neg(), neg)
    multiple = Fam(c * a.m, c * a.j, tuple(times(c, r) for r in a.reps),
                   tuple(times(c, row) for row in a.rows))
    check_membership(setting, A.scale(c), multiple if c else Fam(0, 0, ((0,) * setting.k,), ()))

    # shifts by vectors whose multiple of t0 keeps, moves or cancels its
    # denominator: the same set as the one built from the shifted parts,
    # with the same hash, and shifted back to A
    dm, dj = data.draw(st.integers(-2, 1)), data.draw(st.integers(0, 1))
    dc = data.draw(st.tuples(*[st.integers(-2, 2)] * setting.k))
    shifted = Fam(a.m + dm, a.j + dj, tuple(vadd(r, dc) for r in a.reps), a.rows)
    w = setting.vector(dm, dj, dc)
    moved, rebuilt = A.shift(w), CosetSet(setting.L, *setting.parts(shifted))
    check_membership(setting, moved, shifted)
    assert moved == rebuilt and hash(moved) == hash(rebuilt)
    back = moved.shift(vneg(w))
    assert back == A and hash(back) == hash(A)

    # sums, inclusions, equality and meeting a coset
    S = A.add(B)
    for m, j, q in setting.queries(a.m + b.m, a.j + b.j):
        assert S.contains(setting.vector(m, j, q)) == a.sum_has(b, m, j, q), (m, j, q)
    # A + (-A) = (reps - reps) + M, whose translate m t0 - m t0 has lost the
    # denominator of t0: the set built from those differences, with its hash
    diffs = Fam(0, 0, tuple(vsub(x, y) for x in a.reps for y in a.reps), a.rows)
    zero_sum, direct = A.add(A.neg()), CosetSet(setting.L, *setting.parts(diffs))
    assert zero_sum == direct and hash(zero_sum) == hash(direct)
    a_in_b = a.j == b.j and a.subset_of(b)
    b_in_a = a.j == b.j and b.subset_of(a)
    assert A.subset_of(B) == a_in_b and B.subset_of(A) == b_in_a
    assert A.same_set(B) == (a_in_b and b_in_a) == (A == B)
    v = data.draw(st.tuples(*[st.integers(-QUERY, QUERY)] * setting.k))
    lattice = Fam(0, 0, ((0,) * setting.k,), lat_rows)
    for j in (a.j, a.j + 1):
        meets = a.sum_has(lattice, 1, j, v)
        coset = setting.L._reduce(setting.vector(1, j, v))
        assert A._meets(*coset, setting.L.coordinates(setting.lattice(lat_rows))) == meets

    # the Q^n views are those of the Fraction constructor
    assert views(A) == parent_views(setting.L, *setting.parts(a))
    assert A.members() == [vadd(A.translate, r) for r in A.reps]
    assert views(S) == parent_views(
        setting.L, A.modulus.add(B.modulus), vadd(A.translate, B.translate),
        [vadd(x, y) for x in A.reps for y in B.reps],
    )


@settings(max_examples=40, deadline=None)
@given(drawn_settings(), st.data())
def test_presentations_of_one_set_are_equal(drawn, data):
    """A family given with a shifted translate, reps moved by members of M,
    repeated reps, and a modulus cut to the sublattice 2M with the reps split
    over its cosets, is the same object: equal, with equal hash and views."""
    setting, a, _, _ = drawn
    plain = CosetSet(setting.L, *setting.parts(a))
    k = setting.k
    s = data.draw(st.tuples(*[st.integers(-3, 3)] * k))
    moved = []
    for r in a.reps:
        d = data.draw(st.tuples(*[st.integers(-2, 2)] * len(a.rows)))
        for eps in itertools.product((0, 1), repeat=len(a.rows)):
            e = combination(vadd(d, eps), a.rows, k)
            moved.append(setting.vector(0, 0, vsub(vadd(r, e), s)))
    doubled = [times(2, row) for row in a.rows]
    other = CosetSet(setting.L, setting.lattice(doubled + doubled[:1]),
                     setting.vector(a.m, a.j, s), moved + moved[:1])
    assert other == plain and hash(other) == hash(plain) and other.same_set(plain)
    assert views(other) == views(plain)
    empty = CosetSet.empty(setting.L)
    assert empty == CosetSet(setting.L, setting.L, zero_vector(k + 1), [])
    assert not empty.contains(zero_vector(k + 1)) and empty.subset_of(plain)
    assert views(empty) == (Lattice.zero(k + 1), zero_vector(k + 1), ())
