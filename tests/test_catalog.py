import random
from fractions import Fraction as Q

import pytest

from grrs.catalog import (
    _orbit_family,
    _preimage,
    _sumset,
    a_nn_x,
    build,
    family,
    generating_roots,
    orbits,
    points_mod,
    real_roots_from_matrix,
    subset_mask,
    type_key,
)
from grrs.errors import BadMatrix, BadParameters
from grrs.finite import check_axioms, is_reduced, isomorphic_finite
from grrs.linalg import Lattice, kernel_basis, unit_vector, vadd, vec, vscale
from grrs.symbolic import affinize, check_symbolic_axioms, from_finite, gaps

from conftest import V


class TestBuild:
    def test_c11_exact_roots(self):
        c11 = build("C(1,1)")
        assert set(c11.roots) == {
            V(2, 0), V(-2, 0), V(0, 2), V(0, -2),
            V(1, 1), V(1, -1), V(-1, 1), V(-1, -1),
        }

    def test_bc1(self):
        assert set(build("BC1").roots) == {V(1), V(-1), V(2), V(-2)}

    def test_ann_kernel_is_one_dimensional(self):
        for n in (1, 2, 3):
            sys_ = build(f"A({n},{n})")
            kb = kernel_basis(sys_.space)
            assert len(kb) == 1
            assert from_finite(sys_).L.rank == 1

    def test_amn_nondegenerate(self):
        for name in ("A(1,0)", "A(2,1)", "A(3,2)"):
            assert kernel_basis(build(name).space) == []

    def test_simple_generators_exist(self):
        for name in ("A3", "B3", "C3", "BC2", "G2", "F4",
                      "B(1,2)", "C(2,1)", "BC(1,1)"):
            sys_ = build(name)
            for g in generating_roots(name):
                assert sys_.contains(g), (name, g)

    def test_counts(self):
        assert len(build("E6")) == 72
        assert len(build("E7")) == 126
        assert len(build("E8")) == 240
        assert len(build("F(4)")) == 36
        assert len(build("G(3)")) == 28
        assert len(build("D(2,1;a=1/2)")) == 14

    def test_dualities(self):
        assert isomorphic_finite(build("C(2,1)"), build("C(1,2)")) is not None
        assert isomorphic_finite(build("B2"), build("C2")) is not None
        assert isomorphic_finite(build("A(1,1)_f"), build("C(1,1)")) is not None

    def test_bad_names(self):
        for name in ("Q7", "B1", "D(1,1)", "C(1)", "A(1,1)x"):
            with pytest.raises(BadParameters):
                build(name)


class TestRealRoots:
    def test_a2_cartan_stabilizes(self):
        sys_, truncated = real_roots_from_matrix([[2, -1], [-1, 2]], height_bound=5)
        assert not truncated and len(sys_) == 6
        assert isomorphic_finite(sys_, build("A2")) is not None

    def test_c2_and_g2(self):
        sys_, t = real_roots_from_matrix([[2, -2], [-2, 4]], height_bound=10)
        assert not t and isomorphic_finite(sys_, build("C2")) is not None
        sys_, t = real_roots_from_matrix([[2, -3], [-3, 6]], height_bound=10)
        assert not t and isomorphic_finite(sys_, build("G2")) is not None

    def test_stabilized_closures_pass_full_checks(self):
        for matrix in ([[2, -1], [-1, 2]], [[2, -2], [-2, 4]], [[2, -3], [-3, 6]],
                       [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]):
            sys_, truncated = real_roots_from_matrix(matrix, height_bound=15)
            assert not truncated
            assert check_axioms(sys_).is_grrs

    def test_hyperbolic_truncates(self):
        sys_, truncated = real_roots_from_matrix([[2, -3], [-3, 2]], height_bound=5)
        assert truncated and len(sys_) > 6

    def test_doubling_gives_bc1(self):
        sys_, t = real_roots_from_matrix([[1]], J=[0], height_bound=4)
        assert not t
        assert isomorphic_finite(sys_, build("BC1")) is not None
        assert not is_reduced(sys_)

    def test_closure_is_reflection_stable_within_bound(self):
        from grrs.finite import reflect

        bound = 10
        sys_, truncated = real_roots_from_matrix([[2, -3], [-3, 2]], height_bound=bound)
        assert truncated
        simple = [V(1, 0), V(0, 1)]
        for a in simple:
            for b in sys_.roots:
                img = reflect(sys_.space, a, b)
                if sum(abs(x) for x in img) <= bound:
                    assert sys_.contains(img)

    def test_bad_matrices(self):
        with pytest.raises(BadMatrix):
            real_roots_from_matrix([[0, 1], [1, 0]])
        with pytest.raises(BadMatrix):
            real_roots_from_matrix([[2, 1], [-1, 2]])
        with pytest.raises(BadMatrix):
            real_roots_from_matrix([[2, -1], [-1, 3]])
        with pytest.raises(BadMatrix):
            real_roots_from_matrix([[2, -3], [-3, 2]], J=[0])


class TestAnnX:
    def test_rejects_integral_x_for_n1(self):
        with pytest.raises(BadParameters):
            a_nn_x(1, 1, 1, 0)
        with pytest.raises(BadParameters):
            a_nn_x(1, 2, 1, 0)

    def test_rejects_non_reduced_fraction(self):
        with pytest.raises(BadParameters):
            a_nn_x(2, 2, 4, 0)

    def test_full_grrs_checks(self):
        for n, p, q in ((1, 1, 3), (2, 1, 3), (2, 0, 1), (2, 1, 1)):
            assert check_symbolic_axioms(a_nn_x(n, p, q, 0)).is_grrs

    def test_x_zero_matches_affinized_quotient(self):
        from grrs.classify import identify

        d1 = identify(a_nn_x(2, 0, 1, 0))
        d2 = identify(affinize(build("A(2,2)_f"), 1))
        assert d1 == d2

    def test_gap_is_q(self):
        for q in (2, 3, 5):
            s = a_nn_x(1, 1, q, 0)
            noniso = {g for l, g in gaps(s).entries if s.space.norm(l) != 0}
            assert noniso == {q}

    def test_extra_affinizations_extend_kernel(self):
        s = a_nn_x(2, 1, 3, 1)
        assert s.kernel_dim == 2
        assert check_symbolic_axioms(s).is_grrs


class TestFamily:
    def test_b3_zero_subset_offsets(self):
        # both orbits carry the doubled parameter lattice, which is then the
        # whole offset lattice of the system
        sys_ = family("B3", 1, S={0})
        doubled = Lattice.from_vectors(sys_.space.dim, [vec([0, 0, 0, 2])])
        assert sys_.L == doubled
        for e in sys_.entries:
            assert e.family.modulus == doubled
            assert len(e.family.reps) == 1
        assert check_symbolic_axioms(sys_).is_grrs

    def test_b3_full_subset_mixes_moduli(self):
        sys_ = family("B3", 1, S={0, 1})
        L = sys_.L
        mods = {e.family.modulus for e in sys_.entries}
        assert mods == {L, L.scaled(2)}

    def test_g2_k2_long_offsets(self):
        sys_ = family("G2", 2, s=1)
        dim = sys_.space.dim
        long_mod = Lattice.from_vectors(
            dim, [vec([0, 0, 1, 0]), vec([0, 0, 0, 3])]
        )
        norms = {sys_.space.norm(e.lift) for e in sys_.entries}
        long_norm = max(norms)
        for e in sys_.entries:
            if sys_.space.norm(e.lift) == long_norm:
                assert e.family.modulus == long_mod
            else:
                assert e.family.modulus == sys_.L

    def test_a1_needs_affine_basis(self):
        with pytest.raises(BadParameters):
            family("A1", 1, S={0})
        with pytest.raises(BadParameters):
            family("A1", 2, S={0, 1})
        assert check_symbolic_axioms(family("A1", 2, S={0, 1, 2})).is_grrs

    def test_g2_s_range(self):
        with pytest.raises(BadParameters):
            family("G2", 2, s=3)

    def test_c2_closure_condition(self):
        with pytest.raises(BadParameters):
            family("C2", 2, S1={0, 1, 2}, S2={0, 3})

    def test_c2_s2_must_be_nonempty(self):
        # without S2 only the short classes are left, and their quotient is not C2
        for k, S1 in ((1, {0, 1}), (2, {0, 1, 2, 3})):
            with pytest.raises(BadParameters, match="S2 must be nonempty"):
                family("C2", k, S1=S1, S2=[])

    @pytest.mark.parametrize("name", ["B3", "C3", "B4", "C4", "B(1,1)", "B(2,1)"])
    def test_s_must_be_nonempty(self, name):
        with pytest.raises(BadParameters, match="S must be nonempty"):
            family(name, 1, S=[])
        with pytest.raises(BadParameters, match="S must be nonempty"):
            family(name, 2, S=set())

    def test_cmn_proper(self):
        # the test counts points, so no mask of all 2^k points is built
        for k in range(1, 5):
            for params in ({}, {"Sp": {1}}):
                name = "BC(2,1)" if params else "C(2,1)"
                for S in (range(1 << k), []):
                    with pytest.raises(BadParameters, match="proper nonempty"):
                        family(name, k, S=S, **params)
                assert family(name, k, S=range(1, 1 << k), **params).kernel_dim == k

    def test_bc_n_data_validation(self):
        with pytest.raises(BadParameters):
            family("BC1", 1, S={0, 1}, H2=[1])  # 1 + 2*1 = 3 not in H2
        ok = family("BC1", 1, S={0, 1}, H2=[1, 3])
        assert check_symbolic_axioms(ok).is_grrs
        with pytest.raises(BadParameters):
            family("BC2", 1, S1={0, 1}, S2={0}, T={0})  # T lacks a basis

    def test_rejects_parameters_the_type_does_not_take(self):
        with pytest.raises(BadParameters, match="B3 takes no parameter Sp"):
            family("B3", 1, S={0}, Sp={1})
        with pytest.raises(BadParameters, match="no parameter S$"):
            family("C2", 1, S={0, 1}, S1={0, 1}, S2={0})
        with pytest.raises(BadParameters, match="no parameter s"):
            family("A1", 1, S={0, 1}, s=0)

    def test_layout_covers_every_root_once(self):
        for name in ["A1", "B3", "C3", "C2", "G2", "F4", "B(2,1)", "C(1,2)", "BC(2,1)",
                     "BC1", "BC2", "BC3"]:
            key = type_key(name)
            groups = [[key.system().roots[i] for i in o.index] for o in orbits(key)]
            assert sorted(r for roots in groups for r in roots) == list(key.system().roots)
            assert all(roots and roots[0] == max(roots) for roots in groups)
        with pytest.raises(BadParameters):
            orbits(type_key("D4"))

    def test_all_constructions_pass_checks(self):
        systems = [
            family("A1", 1, S={0, 1}),
            family("B3", 1, S={0}),
            family("B3", 2, S={0, 1, 2}),
            family("C3", 1, S={0, 1}),
            family("C2", 1, S1={0, 1}, S2={0, 1}),
            family("G2", 1, s=0),
            family("F4", 1, s=1),
            family("B(1,1)", 1, S={0}),
            family("B(2,1)", 1, S={0, 1}),
            family("C(2,1)", 1, S={0}),
            family("C(2,2)", 2, S={0, 1}),
            family("BC(1,1)", 1, S={0}, Sp={0, 1}),
            family("BC(2,1)", 1, S={0}, Sp={1}),
            family("BC1", 1, S={0, 1}, H2=[0, 2]),
            family("BC2", 1, S1={0, 1}, S2={0, 1}, T={0, 1}),
        ]
        for sys_ in systems:
            assert check_symbolic_axioms(sys_).is_grrs


class TestSubsetCodec:
    """A subset is a mask from `family` to the descriptor: `subset_mask`
    reads point lists, `_preimage` writes a mask as a family over L and
    `points_mod` reads the family back."""

    @staticmethod
    def _lattice(k):
        # a skewed basis in a larger space: coordinates on L are not ambient ones
        dim = k + 1
        return Lattice.from_vectors(
            dim, [vadd(unit_vector(dim, i), vscale(i + 1, unit_vector(dim, i + 1))) for i in range(k)]
        )

    @pytest.mark.parametrize("r", [2, 4])
    @pytest.mark.parametrize("scale", [1, Q(1, 2)])
    def test_preimage_reads_back(self, r, scale):
        rng = random.Random(7)
        for k in (1, 2, 3):
            L = self._lattice(k)
            full = (1 << r**k) - 1
            for mask in [1, full] + [rng.randrange(1, full) for _ in range(6)]:
                fam = _preimage(L, mask, r, scale)
                assert points_mod(fam, L.scaled(scale), r) == mask, (k, mask)

    def test_complement_reads_back(self):
        key = type_key("C(2,1)")
        for k in (1, 2, 3):
            L = self._lattice(k)
            full = (1 << (1 << k)) - 1
            for mask in {1, 0b0110 & full or 1, full ^ 1 or 1}:
                fam = _orbit_family(key, L, "~S", {"S": mask})
                assert points_mod(fam, L) == full ^ mask, (k, mask)

    def test_subset_mask(self):
        assert subset_mask(3, [5, 0, 5, "2"]) == 0b100101
        assert subset_mask(3, []) == 0
        for bad in (8, -1):
            with pytest.raises(BadParameters, match=rf"point {bad} outside F_2\^3"):
                subset_mask(3, [0, bad])

    def test_sumset(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
            want = {x ^ y for x in range(16) if a >> x & 1 for y in range(16) if b >> y & 1}
            assert _sumset(a, b) == sum(1 << p for p in want)


def _bc2_message(k, S1, S2, T):
    """The first failed check on BC2's (S1, S2, T), as point sets, in the
    order `family` runs them, or None; the last check (T + S1 = T + S2) is
    the one the library leaves out as implied by the two before it."""
    def plus(A, B):
        return {a ^ b for a in A for b in B}

    def spans(A):
        basis = []  # xor basis, reduced by leading bit
        for x in A:
            for b in basis:
                x = min(x, x ^ b)
            if x:
                basis.append(x)
        return len(basis) == k

    checks = [
        (0 not in S1, "S1 must contain zero"),
        (not S2, "S2 must be nonempty"),
        (not plus(S1, S2) <= S1, "S1 + S2 must be contained in S1"),
        (0 not in T or not spans(T), "T must contain zero and a basis of F_2^k"),
        (not plus(T, S2) <= T, "H2 + H3 must be contained in H3"),
        (not plus(T, S1) <= T, "2 H1 + H3 must be contained in H3"),
        (plus(T, S1) != plus(T, S2), "H2 + H3 and 2 H1 + H3 must coincide"),
    ]
    return next((msg for failed, msg in checks if failed), None)


@pytest.mark.parametrize("k", [1, 2])
def test_bc2_parameters_exhaustive(k):
    """Every (S1, S2, T) at k: `family("BC2", ...)` raises the first failed
    check's message, and what it accepts has T + S1 = T = T + S2, so the
    coincidence check can never be the one that fails."""
    subsets = [{p for p in range(1 << k) if m >> p & 1} for m in range(1 << (1 << k))]
    accepted = 0
    for S1 in subsets:
        for S2 in subsets:
            for T in subsets:
                msg = _bc2_message(k, S1, S2, T)
                assert msg != "H2 + H3 and 2 H1 + H3 must coincide"
                if msg is not None:
                    with pytest.raises(BadParameters) as err:
                        family("BC2", k, S1=S1, S2=S2, T=T)
                    assert str(err.value) == msg, (S1, S2, T)
                    continue
                family("BC2", k, S1=S1, S2=S2, T=T)
                assert {t ^ s for t in T for s in S1} == T == {t ^ s for t in T for s in S2}
                accepted += 1
    assert accepted
