import random
from fractions import Fraction as Q
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grrs.errors import DimensionMismatch
from grrs.linalg import (
    BilinearSpace,
    Lattice,
    _gauss_jordan,
    _hnf,
    column_basis,
    form_eval,
    hnf_int,
    hnf_meet,
    int_left_kernel,
    kernel_basis,
    lattice_from_vectors,
    lattice_member,
    rref,
    solve_in_span,
    standard_space,
    vec,
)

import fraction_reference as reference


def V(*xs):
    return vec(xs)


class TestFormEval:
    def test_orthonormal_basis(self):
        sp = standard_space(2)
        assert form_eval(sp, V(1, 0), V(1, 0)) == 1

    def test_isotropic_vector_in_split_space(self):
        # (e,e) = -(d,d) = 1/2 makes e+d isotropic
        sp = BilinearSpace([[Q(1, 2), 0], [0, Q(-1, 2)]])
        assert form_eval(sp, V(1, 1), V(1, 1)) == 0

    def test_bilinear_expansion(self):
        sp = BilinearSpace([[Q(1, 2), 0], [0, Q(-1, 2)]])
        # (e+d, e-d) = (e,e) - (d,d) = 1
        assert form_eval(sp, V(1, 1), V(1, -1)) == 1

    def test_dimension_mismatch(self):
        sp = standard_space(2)
        with pytest.raises(DimensionMismatch):
            form_eval(sp, V(1, 0, 0), V(1, 0))

    def test_symmetry_random(self):
        rng = random.Random(7)
        sp = BilinearSpace([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        for _ in range(100):
            u = V(*(Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)))
            w = V(*(Q(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)))
            assert form_eval(sp, u, w) == form_eval(sp, w, u)


def _lat(*vectors):
    return Lattice.from_vectors(len(vectors[0]), vectors)


BAD_ARGUMENTS = {
    "coordinates across dimensions": (
        lambda: _lat((1, 0)).coordinates(_lat((1, 0, 0))), DimensionMismatch),
    "add across dimensions": (lambda: _lat((1, 0)).add(_lat((1, 0, 0))), DimensionMismatch),
    "intersect across dimensions": (
        lambda: _lat((1, 0)).intersect(_lat((1, 0, 0))), DimensionMismatch),
    "non-symmetric Gram": (lambda: BilinearSpace([[1, 2], [3, 4]]), DimensionMismatch),
    "cosets of a non-sublattice": (
        lambda: _lat((1, 0)).coset_representatives(_lat((0, 1))), ValueError),
    "cosets at infinite index": (
        lambda: _lat((1, 0), (0, 1)).coset_representatives(_lat((1, 0))), ValueError),
}


@pytest.mark.parametrize("call, error", BAD_ARGUMENTS.values(), ids=list(BAD_ARGUMENTS))
def test_bad_arguments_raise(call, error):
    with pytest.raises(error):
        call()


class TestKernelBasis:
    def test_nondegenerate(self):
        assert kernel_basis(standard_space(3)) == []

    def test_appended_central_direction(self):
        sp = BilinearSpace([[2, -1, 0], [-1, 2, 0], [0, 0, 0]])
        assert kernel_basis(sp) == [V(0, 0, 1)]

    def test_kernel_orthogonal_to_random_vectors(self):
        rng = random.Random(11)
        sp = BilinearSpace([[1, 1, 0], [1, 1, 0], [0, 0, 2]])
        kb = kernel_basis(sp)
        assert len(kb) == 1
        for _ in range(100):
            w = V(*(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)))
            for v in kb:
                assert form_eval(sp, v, w) == 0

    def test_kernel_spans_whole_radical(self):
        # every vector orthogonal to everything must be in the kernel span
        sp = BilinearSpace([[1, 1, 0], [1, 1, 0], [0, 0, 2]])
        kb = kernel_basis(sp)
        probe = V(1, -1, 0)
        assert sp.in_kernel(probe)
        assert solve_in_span(kb, probe) is not None


class TestSolveInSpan:
    def test_free_coefficients_are_zero(self):
        assert solve_in_span([V(1, 0), V(2, 0), V(0, 1)], V(4, 3)) == V(4, 0, 3)

    def test_outside_span(self):
        assert solve_in_span([V(1, 1)], V(1, 0)) is None
        assert solve_in_span([], V(0, 1)) is None
        assert solve_in_span([], V(0, 0)) == ()

    @pytest.mark.parametrize("target", [V(1), V(1, 0, 0)])
    def test_length_mismatch(self, target):
        with pytest.raises(DimensionMismatch):
            solve_in_span([V(1, 0), V(0, 1)], target)


class TestHnf:
    def test_identity(self):
        assert hnf_int([[1, 0], [0, 1]]) == ((1, 0), (0, 1))

    def test_gcd_collapse(self):
        assert hnf_int([[4], [6]]) == ((2,),)

    def test_reduction_above_pivot(self):
        h = hnf_int([[2, 0], [0, 2], [1, 1]])
        assert h == ((1, 1), (0, 2))

    def test_int_left_kernel(self):
        # rows (1,1),(1,1) have kernel (1,-1)
        k = int_left_kernel([[1, 1], [1, 1]])
        assert k == ((1, -1),)
        for x in k:
            assert all(
                sum(x[i] * row[j] for i, row in enumerate([[1, 1], [1, 1]])) == 0
                for j in range(2)
            )


class TestLattice:
    def test_standard_lattice(self):
        sp = standard_space(2)
        L = lattice_from_vectors(sp, [V(1, 0), V(0, 1)])
        assert L.rank == 2
        assert L.basis == (V(1, 0), V(0, 1))

    def test_half_vector_generates(self):
        sp = standard_space(2)
        L = lattice_from_vectors(sp, [V(Q(1, 2), 0), V(1, 0)])
        assert L.rank == 1
        assert L.basis == (V(Q(1, 2), 0),)

    def test_a2_roots_rank(self):
        sp = standard_space(3)
        roots = [V(1, -1, 0), V(0, 1, -1), V(1, 0, -1)]
        L = lattice_from_vectors(sp, roots + [vec(map(lambda x: -x, r)) for r in roots])
        assert L.rank == 2

    def test_member(self):
        sp = standard_space(2)
        L = lattice_from_vectors(sp, [V(2, 0)])
        assert lattice_member(L, V(4, 0))
        assert not lattice_member(L, V(1, 0))
        # a vector or generator of another length is rejected, not truncated
        for read in (L.member, L.coefficients, L.residue, L.split):
            with pytest.raises(DimensionMismatch):
                read(V(4, 0, 5))
        with pytest.raises(DimensionMismatch):
            Lattice.from_vectors(2, [V(2, 0), V(0, 0, 0)])

    def test_member_after_hnf(self):
        sp = standard_space(2)
        L = lattice_from_vectors(sp, [V(1, 1), V(1, -1)])
        assert lattice_member(L, V(2, 0))
        assert not lattice_member(L, V(1, 0))

    def test_idempotent_normal_form(self):
        sp = standard_space(3)
        L = lattice_from_vectors(sp, [V(Q(1, 2), 1, 0), V(0, 3, 1), V(1, 1, 1)])
        again = lattice_from_vectors(sp, list(L.basis))
        assert again == L

    def test_residue_is_canonical(self):
        L = Lattice.from_vectors(2, [V(1, 1), V(1, -1)])
        assert L.residue(V(5, 3)) == L.residue(V(3, 1))
        assert L.residue(V(5, 3)) != L.residue(V(2, 1))

    def test_intersection(self):
        A = Lattice.from_vectors(2, [V(2, 0), V(0, 1)])
        B = Lattice.from_vectors(2, [V(1, 0), V(0, 3)])
        assert A.intersect(B) == Lattice.from_vectors(2, [V(2, 0), V(0, 3)])

    def test_index_and_cosets(self):
        amb = Lattice.from_vectors(2, [V(1, 0), V(0, 1)])
        sub = Lattice.from_vectors(2, [V(2, 0), V(1, 3)])
        assert sub.index_in(amb) == 6
        reps = amb.coset_representatives(sub)
        assert len(reps) == 6
        assert len({sub.residue(r) for r in reps}) == 6

    def test_kernel_part(self):
        sp = BilinearSpace([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        full = Lattice.from_vectors(3, [V(1, 0, 0), V(0, 1, 0), V(0, 0, Q(1, 2))])
        assert full.kernel_part(sp) == Lattice.from_vectors(3, [V(0, 0, Q(1, 2))])


small_rational = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)


@st.composite
def rational_vectors(draw, dim=3, count=4):
    return [
        tuple(draw(small_rational) for _ in range(dim)) for _ in range(count)
    ]


@settings(max_examples=60, deadline=None)
@given(rational_vectors())
def test_lattice_normal_form_idempotent(vectors):
    L = Lattice.from_vectors(3, vectors)
    assert Lattice.from_vectors(3, list(L.basis)) == L


@settings(max_examples=60, deadline=None)
@given(rational_vectors())
def test_lattice_rank_equals_span_rank(vectors):
    L = Lattice.from_vectors(3, vectors)
    assert L.rank == reference.rank(vectors)


@settings(max_examples=60, deadline=None)
@given(rational_vectors(count=3), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_integer_combinations_are_members(vectors, coeffs):
    L = Lattice.from_vectors(3, vectors)
    combo = tuple(
        sum(Q(c) * v[i] for c, v in zip(coeffs, vectors)) for i in range(3)
    )
    assert L.member(combo)


@settings(max_examples=60, deadline=None)
@given(rational_vectors(count=3), rational_vectors(count=1))
def test_residue_equivalence(vectors, probe):
    L = Lattice.from_vectors(3, vectors)
    v = probe[0]
    r = L.residue(v)
    assert L.member(tuple(a - b for a, b in zip(v, r)))


@settings(max_examples=60, deadline=None)
@given(rational_vectors(count=3), rational_vectors(count=1), st.integers(1, 6))
def test_reduce_int_at_any_multiple_of_the_scale(vectors, probe, m):
    """`reduce_int` on w at a scale d: the residue and coefficients of
    `split(w / d)` for every multiple d of the lattice's scale and of the
    denominators of the vector."""
    L = Lattice.from_vectors(3, vectors)
    v = probe[0]
    d = L.scale * m * lcm(*(x.denominator for x in v))
    residue, coeffs = L.split(v)
    assert L.reduce_int([x.numerator * (d // x.denominator) for x in v], d) == (
        tuple(x * d for x in residue), coeffs
    )


# Oracle for the integer form of `Lattice`: the Fraction construction it
# replaced (HNF of the generators over their common denominator, divided back)
# and Gram determinants for indices.


def _reference_basis(vectors):
    vs = [tuple(Q(x) for x in v) for v in vectors if any(v)]
    s = lcm(1, *(x.denominator for v in vs for x in v))
    rows = hnf_int([[int(x * s) for x in v] for v in vs])
    return tuple(tuple(Q(x, s) for x in row) for row in rows)


def _reference_meet(a, b):
    s = lcm(1, *(x.denominator for v in a + b for x in v))
    rows = hnf_meet([[int(x * s) for x in v] for v in a], [[int(x * s) for x in v] for v in b])
    return tuple(tuple(Q(x, s) for x in row) for row in rows)


def _gram_det(vectors):
    """det of the Gram matrix of the vectors under the dot product."""
    m = [[sum(x * y for x, y in zip(u, v)) for v in vectors] for u in vectors]
    det = Q(1)
    for c in range(len(m)):
        p = next((r for r in range(c, len(m)) if m[r][c]), None)
        if p is None:
            return Q(0)
        if p != c:
            m[c], m[p], det = m[p], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(
    st.just(d), rational_vectors(dim=d, count=3), rational_vectors(dim=d, count=3)
)), st.randoms(use_true_random=False))
def test_integer_lattice_matches_fraction_reference(data, rng):
    dim, gens_a, gens_b = data
    A, B = Lattice.from_vectors(dim, gens_a), Lattice.from_vectors(dim, gens_b)
    assert A.basis == _reference_basis(gens_a)

    # the normal form does not depend on the generating list
    shuffled = gens_a + [gens_a[0], tuple(-x for x in gens_a[-1])]
    shuffled += [tuple(x + y for x, y in zip(gens_a[0], gens_a[1]))]
    rng.shuffle(shuffled)
    again = Lattice.from_vectors(dim, shuffled)
    assert again == A and hash(again) == hash(A)
    assert (A.scaled(2) == A) == (A.rank == 0)

    for c in (1, -1, 2, Q(-1, 2), Q(3, 4), 0):
        assert A.scaled(c).basis == _reference_basis([[c * x for x in b] for b in A.basis])
    S, meet = A.add(B), A.intersect(B)
    assert S.basis == _reference_basis(A.basis + B.basis)
    assert meet.basis == _reference_meet(A.basis, B.basis)
    assert S == Lattice.from_vectors(dim, S.basis) and meet == Lattice.from_vectors(dim, meet.basis)

    pairs = [(A, S), (meet, A), (meet, B), (A.scaled(2), A), (B.scaled(Q(3, 2)), B), (S, A)]
    for sub, amb in pairs:
        inside = all(amb.member(b) for b in sub.basis)
        assert amb.contains_lattice(sub) == inside
        if not inside:
            with pytest.raises(ValueError):
                sub.index_in(amb)
            continue
        idx = sub.index_in(amb)
        if sub.rank < amb.rank:
            assert idx is None
            continue
        assert idx ** 2 == _gram_det(sub.basis) / _gram_det(amb.basis)
        if idx > 64:
            continue
        reps = amb.coset_representatives(sub)
        assert len(reps) == idx
        assert all(amb.member(r) for r in reps)
        residues = {sub.residue(r) for r in reps}
        assert len(residues) == idx and all(sub.residue(x) == x for x in residues)


# Oracle for the integer elimination: the Fraction Gauss-Jordan it replaced
# (tests/fraction_reference.py), on random rational matrices with many zeros
# and with dependent rows.

sparse_rational = st.one_of(st.just(Q(0)), small_rational)


@st.composite
def rational_matrices(draw):
    m, n = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    rows = [tuple(draw(sparse_rational) for _ in range(n)) for _ in range(m)]
    if rows and draw(st.booleans()):
        a, b = draw(small_rational), draw(small_rational)
        rows.append(tuple(a * x + b * y for x, y in zip(rows[0], rows[-1])))
    return draw(st.permutations(rows)) if rows else rows


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.lists(small_rational, min_size=4, max_size=4), st.booleans())
def test_integer_rref_matches_fraction_reference(rows, coeffs, in_span):
    ref_red, ref_pivots = reference.rref(rows)
    _gauss_jordan.cache_clear()
    # cold, then warm from the memo: the same answer, shared tuples of int tuples
    cold, warm = rref(rows), rref(rows)
    assert warm == cold
    for red, pivots in (cold, warm):
        assert type(red) is tuple and type(pivots) is tuple
        assert pivots == tuple(ref_pivots)
        assert [tuple(Q(x, row[p]) for x in row) for row, p in zip(red, pivots)] == ref_red
        assert all(type(row) is tuple for row in red)
        assert all(type(x) is int for row in red for x in row)
        assert all(row[p] > 0 and gcd(*row) == 1 for row, p in zip(red, pivots))

    # the rows as vectors, and a target in their span or (likely) outside it
    n = len(rows[0]) if rows else 3
    target = tuple(sum((c * v[i] for c, v in zip(coeffs, rows)), Q(0)) for i in range(n))
    if not in_span:
        target = tuple(coeffs[i % 4] + i for i in range(n))
    assert solve_in_span(rows, target) == reference.solve(rows, target)

    # an indefinite symmetric form sum_r +-r r^T, radical at least the rows' kernel
    signs = (1, -1) * 3
    gram = [[sum((s * v[i] * v[j] for s, v in zip(signs, rows)), Q(0)) for j in range(n)]
            for i in range(n)]
    assert kernel_basis(BilinearSpace(gram)) == reference.kernel(gram)


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.integers(0, 2))
@example([V(2, 0), V(0, 3), V(1, 1)], 0)  # pivots 2 and 3: coordinates over 6
@example([V(1, 0, 0), V(0, 2, 0), V(0, 0, 3), V(1, 1, 1)], 1)
def test_column_basis_against_reference_ranks(vectors, m):
    fixed, columns = vectors[:m], vectors[m:]
    picked, den, coords, meets_zero = column_basis(columns, fixed)
    # the integer coordinates over den are the rational ones of the reference
    coords = [tuple(Q(x, den) for x in c) for c in coords]
    assert (picked, coords, meets_zero) == reference.column_basis(columns, fixed)
    rank = lambda vs: reference.rank(fixed + vs)
    assert picked == [j for j in range(len(columns)) if rank(columns[:j + 1]) > rank(columns[:j])]
    # each column minus its combination of the picked ones lies in span(fixed)
    for v, c in zip(columns, coords):
        rest = tuple(x - sum((a * columns[i][t] for a, i in zip(c, picked)), Q(0))
                     for t, x in enumerate(v))
        assert rank([rest]) == rank([])
    assert meets_zero == (rank(columns) == rank([]) + reference.rank(columns))


@st.composite
def tall_integer_matrices(draw):
    """Up to 80 rows drawn, with repeats, from a few random rows and the zero
    row; entries of either sign, some large."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-9, 9), st.integers(-10 ** 6, 10 ** 6))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=12))
    base.append([0] * ncols)
    return [list(base[i]) for i in draw(st.lists(st.integers(0, len(base) - 1), max_size=80))]


@settings(max_examples=200, deadline=None)
@given(tall_integer_matrices())
def test_hnf_int_against_pairwise_reference(rows):
    before = [list(r) for r in rows]
    expected = tuple(map(tuple, reference.hnf_int(rows)))
    _hnf.cache_clear()
    # cold, then warm from the memo: both equal the reference, as tuples of int tuples
    for h in (hnf_int(rows), hnf_int(rows)):
        assert h == expected
        assert type(h) is tuple and all(type(row) is tuple for row in h)
        assert all(type(x) is int for row in h for x in row)
    assert rows == before
