import random
from fractions import Fraction as Q
from functools import cache

import pytest

from grrs.catalog import a_nn_x, build, family
from grrs.errors import (
    DimensionMismatch, GrrsError, KernelTooLarge, NotBijective, NotInKernel, UnknownRoot,
)
from grrs.finite import AxiomCheck, AxiomReport, check_axioms, isomorphic_finite
from grrs.linalg import (
    BilinearSpace,
    Lattice,
    vadd,
    vec,
    vneg,
    vscale,
    vsub,
    zero_vector,
)
from grrs.symbolic import (
    CosetSet,
    F_of,
    SymbolicRootSystem,
    affinize,
    check_symbolic_axioms,
    cl,
    from_finite,
    gaps,
    quotient,
)

import fraction_reference as reference
from conftest import V
from materialize import materialized_verdicts, report_verdicts
from support import (
    f_invariance_failures, full_coset_failures, is_transitive_grrs_quotient, over_radical,
)


def lat(dim, *vs):
    return Lattice.from_vectors(dim, [vec(v) for v in vs])


class TestCosetSet:
    def test_canonical_translate_and_reps(self):
        L = lat(1, [1])
        M = lat(1, [4])
        a = CosetSet(L, M, vec([Q(1, 2)]), [vec([0]), vec([4])])
        assert a.translate == vec([Q(1, 2)])
        assert a.reps == (vec([0]),)
        # a translate or rep of another length is rejected, not truncated
        plane = lat(2, [0, 1])
        for translate, reps in [((0, 0), [(0, 0, 9)]), ((0,), [(0, 0)]), ((0, 0), [(0,)])]:
            with pytest.raises(DimensionMismatch):
                CosetSet(plane, plane, vec(translate), [vec(r) for r in reps])

    def test_modulus_maximization(self):
        # {0,1,2,3} + 4Z collapses to Z
        L = lat(1, [1])
        M = lat(1, [4])
        a = CosetSet(L, M, vec([0]), [vec([0]), vec([1]), vec([2]), vec([3])])
        assert a.modulus == L
        assert a.reps == (vec([0]),)

    def test_partial_maximization(self):
        # {0, 2} + 4Z = 2Z
        L = lat(1, [1])
        a = CosetSet(L, lat(1, [4]), vec([0]), [vec([0]), vec([2])])
        assert a.modulus == lat(1, [2])
        assert len(a.reps) == 1

    def test_contains(self):
        L = lat(1, [1])
        a = CosetSet(L, lat(1, [3]), vec([Q(1, 2)]), [vec([0])])
        assert a.contains(vec([Q(7, 2)]))
        assert not a.contains(vec([Q(5, 2)]))
        assert not a.contains(vec([3]))
        full = CosetSet.full_lattice(lat(2, [0, 1]))
        with pytest.raises(DimensionMismatch):
            full.contains(vec([0, 1, 5]))
        # a shift of another length is rejected, not truncated
        for v in ((0, Q(1, 2), 7), (0,)):
            with pytest.raises(DimensionMismatch):
                full.shift(vec(v))

    def test_add_and_neg(self):
        L = lat(1, [1])
        a = CosetSet(L, lat(1, [3]), vec([Q(1, 2)]), [vec([0])])
        b = a.neg()
        s = a.add(b)
        # (1/2 + 3Z) + (-1/2 + 3Z) = 3Z
        assert s.contains(vec([0])) and s.contains(vec([3]))
        assert not s.contains(vec([1]))

    def test_subset_across_moduli(self):
        L = lat(1, [1])
        small = CosetSet(L, lat(1, [4]), vec([0]), [vec([0]), vec([2])])
        big = CosetSet(L, lat(1, [2]), vec([0]), [vec([0])])
        assert small.subset_of(big)
        assert big.subset_of(small)  # {0,2}+4Z really is 2Z
        odd = CosetSet(L, lat(1, [2]), vec([0]), [vec([1])])
        assert not odd.subset_of(big)

    def test_same_set_with_different_presentation(self):
        L = lat(2, [1, 0], [0, 1])
        a = CosetSet(L, lat(2, [2, 0], [0, 2]), vec([0, 0]),
                     [vec([0, 0]), vec([0, 1]), vec([1, 0]), vec([1, 1])])
        b = CosetSet.full_lattice(L)
        assert a.same_set(b)

    def test_scale(self):
        L = lat(1, [Q(1, 2)])
        a = CosetSet(L, lat(1, [2]), vec([Q(1, 2)]), [vec([0])])
        d = a.scale(2)
        assert d.contains(vec([1])) and d.contains(vec([5]))
        assert not d.contains(vec([2]))

    def test_empty(self):
        L = lat(1, [1])
        e = CosetSet.empty(L)
        assert e.is_empty() and e.subset_of(e)
        assert not CosetSet.full_lattice(L).subset_of(e)

    def test_reps_view_is_the_rational_residue(self):
        # over L = Z(1, 1/2) + Z(0, 1) the member (2, 1) has coordinates (2, 0),
        # reduced modulo M = 3Z x Z in coordinates; modulo the canonical basis
        # (3, 1/2), (0, 1) of M in Q^2 its residue is (2, 0)
        L = lat(2, [1, Q(1, 2)], [0, 1])
        a = CosetSet(L, lat(2, [3, Q(3, 2)], [0, 1]), vec([0, 0]), [vec([2, 1])])
        assert a.modulus.basis == (vec([3, Q(1, 2)]), vec([0, 1]))
        assert a.reps == (vec([2, 0]),) and a.members() == [vec([2, 0])]

    def test_two_sets_need_one_ambient(self):
        # integer coordinates of two different lattices do not compare
        a, b = CosetSet.full_lattice(lat(1, [1])), CosetSet.full_lattice(lat(1, [2]))
        for op in (a.add, a.subset_of, a.same_set):
            with pytest.raises(GrrsError, match="different ambient"):
                op(b)


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def coset_sets(draw):
    """Small random coset sets in a fixed rank-2 ambient lattice."""
    amb = Lattice.from_vectors(2, [vec([1, 0]), vec([0, 1])])
    mx = draw(st.integers(1, 4))
    my = draw(st.integers(1, 4))
    mod = Lattice.from_vectors(2, [vec([mx, 0]), vec([0, my])])
    n_reps = draw(st.integers(1, 3))
    reps = [
        vec([draw(st.integers(0, 5)), draw(st.integers(0, 5))])
        for _ in range(n_reps)
    ]
    return CosetSet(amb, mod, zero_vector(2), reps)


@settings(max_examples=40, deadline=None)
@given(coset_sets(), coset_sets())
def test_coset_add_commutes(a, b):
    assert a.add(b).same_set(b.add(a))


@settings(max_examples=40, deadline=None)
@given(coset_sets())
def test_coset_neg_is_involution(a):
    assert a.neg().neg().same_set(a)
    assert a.subset_of(a)


@settings(max_examples=40, deadline=None)
@given(coset_sets(), coset_sets())
def test_coset_summands_embed_when_zero_present(a, b):
    if b.contains(zero_vector(2)):
        assert a.subset_of(a.add(b))


@settings(max_examples=30, deadline=None)
@given(coset_sets(), coset_sets())
def test_coset_membership_matches_sum(a, b):
    s = a.add(b)
    for am in a.members()[:2]:
        for bm in b.members()[:2]:
            assert s.contains(vadd(am, bm))


class TestAffinize:
    def test_a1_affinization_contains(self):
        a1 = build("A1")
        S = affinize(a1, 1)
        alpha = S.entries[0].lift
        delta = vec([0] * (S.space.dim - 1) + [1])
        for m in (-2, 0, 3):
            assert S.contains(vadd(alpha, vscale(m, delta)))
        assert not S.contains(vadd(alpha, vscale(Q(1, 2), delta)))

    def test_double_affinization_equals_two_step(self, b2):
        assert affinize(affinize(b2, 1), 1) == affinize(b2, 2)

    def test_b2_affinization_passes(self, b2):
        assert check_symbolic_axioms(affinize(b2, 1)).is_grrs

    def test_cl_of_affinization_restores_input(self, b2):
        assert cl(affinize(b2, 1)) == b2

    def test_families_are_delta_lattices(self, b2):
        S = affinize(b2, 1)
        dl = Lattice.from_vectors(3, [V(0, 0, 1)])
        for e in S.entries:
            assert e.family.modulus == dl
            assert e.family.reps == (zero_vector(3),)


class TestQuotient:
    def test_quotient_by_zero_is_identity(self, b2):
        S = affinize(b2, 1)
        assert quotient(S, [V(0, 0, 0)]) == S

    def test_not_in_kernel_rejected(self, b2):
        S = affinize(b2, 1)
        with pytest.raises(NotInKernel):
            quotient(S, [V(1, 0, 0)])

    def test_non_bijective_detected(self, a11_ambient):
        a11 = a11_ambient.restricted_to_span()
        aff = affinize(a11, 1)
        Ivec = from_finite(a11).L.basis[0]
        with pytest.raises(NotBijective):
            quotient(aff, [vec(list(Ivec) + [1])], require_bijective=True)

    def test_collapsing_family_detected(self, b2):
        with pytest.raises(NotBijective, match="a family coset collapses along the quotient"):
            quotient(affinize(b2, 1), [V(0, 0, 1)], require_bijective=True)

    def test_integral_x_fails_gr3_only(self, a11_ambient):
        a11 = a11_ambient.restricted_to_span()
        aff = affinize(a11, 1)
        Ivec = from_finite(a11).L.basis[0]
        for x in (0, 1, 2):
            qx = quotient(aff, [vec(list(Ivec) + [x])])
            rep = check_symbolic_axioms(qx)
            assert not rep.gr3.passed
            assert rep.gr0.passed and rep.gr1.passed and rep.gr2.passed
            assert rep.wgr3.passed

    def test_full_kernel_quotient_recovers_finite(self, b2):
        aff = affinize(b2, 1)
        q = quotient(aff, [V(0, 0, 1)])
        assert q.kernel_dim == 0
        assert q.cl() == b2
        assert q == from_finite(b2)

    def test_full_kernel_quotient_merges_fibers(self, a11_ambient):
        a11 = a11_ambient.restricted_to_span()
        sym = from_finite(a11)
        merged = quotient(sym, list(sym.L.basis))
        assert merged.kernel_dim == 0
        assert len(merged.entries) == 8
        rep = check_symbolic_axioms(merged)
        assert rep.is_wgrs and not rep.gr3.passed

    def test_cl_preserved_by_kernel_quotient(self, a11_ambient):
        a11 = a11_ambient.restricted_to_span()
        aff = affinize(a11, 1)
        Ivec = from_finite(a11).L.basis[0]
        q = quotient(aff, [vec(list(Ivec) + [Q(1, 3)])])
        assert len(cl(q)) == len(cl(aff))
        assert isomorphic_finite(cl(q), cl(aff)) is not None


class TestConstructorErrors:
    """Over Gram diag(2, 0): the radical is spanned by (0, 1).  Each error is
    raised with the same message by the constructor and its `Fraction`
    reference."""

    space = BilinearSpace([[2, 0], [0, 0]])
    radical = lat(2, [0, 1])
    full = CosetSet(radical, radical, zero_vector(2), [zero_vector(2)])

    def assert_raises(self, message, entries):
        for construct in (SymbolicRootSystem, reference.symbolic_system):
            with pytest.raises(GrrsError) as err:
                construct(self.space, entries)
            assert str(err.value) == message

    def test_no_nonempty_families(self):
        self.assert_raises("symbolic system with no nonempty families",
                           [(V(1, 0), CosetSet.empty(self.radical))])

    def test_duplicate_lifts(self):
        self.assert_raises("duplicate lifts in symbolic system",
                           [(V(1, 0), self.full), (V(1, 0), self.full)])

    @pytest.mark.parametrize("lifts", [[(1, 0), (1, 1)], [(0, 1)]])
    def test_lifts_meeting_the_radical(self, lifts):
        self.assert_raises("lifts are not independent from the radical",
                           [(V(*lift), self.full) for lift in lifts])

    def test_family_data_outside_the_radical(self):
        plane = lat(2, [1, 0], [0, 1])
        outside = CosetSet(plane, Lattice.zero(2), zero_vector(2), [V(1, 0)])
        self.assert_raises("family data outside the radical",
                           [(V(1, 0), self.full), (V(-1, 0), outside)])

    def test_family_members_in_the_radical(self):
        """Over the radical Q(0, 1, 1), the family {(0, 1, 1)} over the
        ambient Z(0, 1, 0) + Z(0, 0, 2) stores the translate (0, 0, 1) and
        the rep (0, 1, 0), neither in the radical; its member is, so the
        family is accepted, as over the ambient Z(0, 1, 1)."""
        space = BilinearSpace([[2, 0, 0], [0, 1, -1], [0, -1, 1]])
        member = [V(0, 1, 1)]
        wide = CosetSet(lat(3, [0, 1, 0], [0, 0, 2]), Lattice.zero(3), zero_vector(3), member)
        assert (wide.translate, wide.reps) == ((0, 0, 1), (V(0, 1, 0),))
        narrow = CosetSet(lat(3, [0, 1, 1]), Lattice.zero(3), zero_vector(3), member)
        systems = [SymbolicRootSystem(space, [(V(s, 0, 0), fam if s > 0 else fam.neg())
                                              for s in (1, -1)]) for fam in (wide, narrow)]
        assert systems[0] == systems[1]
        ref = reference.symbolic_system(space, [(V(1, 0, 0), wide), (V(-1, 0, 0), wide.neg())])
        assert ref.L == systems[0].L


@pytest.mark.parametrize("call, error", [
    (lambda: affinize(build("B3"), -1), ValueError),
    (lambda: affinize(build("B3"), 1).family_of_lift(V(Q(1, 2), 0, 0, 0)), UnknownRoot),
], ids=["affinize at k = -1", "family_of_lift of a non-lift"])
def test_bad_arguments_raise(call, error):
    with pytest.raises(error):
        call()


class TestAnnXStructure:
    def test_verdicts(self):
        for p, q in ((1, 2), (1, 3), (2, 5)):
            assert check_symbolic_axioms(a_nn_x(1, p, q, 0)).is_grrs

    def test_gap_tables(self):
        s12 = a_nn_x(1, 1, 2, 0)
        t = gaps(s12)
        noniso = {g for lift, g in t.entries if s12.space.norm(lift) != 0}
        assert noniso == {2}
        s13 = a_nn_x(1, 1, 3, 0)
        noniso = {g for lift, g in gaps(s13).entries if s13.space.norm(lift) != 0}
        assert noniso == {3}

    def test_family_shapes(self):
        # doubled classes carry one coset of index q, isotropic classes two
        # cosets whose offset difference generates modulo q
        s13 = a_nn_x(1, 1, 3, 0)
        L = s13.L
        for e in s13.entries:
            fam = e.family
            assert fam.modulus.index_in(L) == 3
            if s13.space.norm(e.lift) == 0:
                assert len(fam.reps) == 2
                d = vsub(fam.reps[1], fam.reps[0])
                c = L.coefficients(d)
                assert c is not None and int(c[0]) % 3 in (1, 2)
            else:
                assert len(fam.reps) == 1

    def test_membership_pattern(self):
        # along the radical generator, exactly one residue class in q=3 is
        # occupied above a doubled class and exactly two above an isotropic
        s13 = a_nn_x(1, 1, 3, 0)
        delta = s13.L.basis[0]
        for e in s13.entries:
            base = vadd(e.lift, e.family.members()[0])
            assert s13.contains(base)
            assert s13.contains(vadd(base, vscale(3, delta)))
            hits = sum(
                1 for j in range(3) if s13.contains(vadd(base, vscale(j, delta)))
            )
            expected = 2 if s13.space.norm(e.lift) == 0 else 1
            assert hits == expected

    def test_cl_is_c11(self):
        s13 = a_nn_x(1, 1, 3, 0)
        assert isomorphic_finite(cl(s13), build("C(1,1)")) is not None

    def test_cl_of_ann_is_ann_f(self):
        sym = from_finite(build("A(2,2)"))
        assert isomorphic_finite(cl(sym), build("A(2,2)_f")) is not None


class TestFOf:
    def test_affinization_families(self, b2):
        S = affinize(b2, 1)
        f = F_of(S, V(1, 0))
        assert f.modulus == Lattice.from_vectors(3, [V(0, 0, 1)])
        assert f.translate == V(0, 0, 0)

    def test_unknown_root(self, b2):
        S = affinize(b2, 1)
        with pytest.raises(UnknownRoot):
            F_of(S, V(2, 0))

    def test_long_family_of_annx(self):
        s13 = a_nn_x(1, 1, 3, 0)
        noniso = next(e for e in s13.entries if s13.space.norm(e.lift) != 0)
        f = F_of(s13, reference.project(s13.space, noniso.lift))
        assert f.modulus.index_in(s13.L) == 3
        assert len(f.reps) == 1


class TestGaps:
    def test_kernel_too_large(self, b2):
        with pytest.raises(KernelTooLarge):
            gaps(affinize(b2, 2))

    def test_finite_system_has_zero_gaps(self):
        sym = from_finite(build("A(2,2)"))
        table = gaps(sym)
        assert {g for _, g in table.entries} == {0}

    def test_gap_weyl_invariance_and_k_multiplicativity(self):
        from grrs.finite import k_value, weyl_orbits

        for sys_ in (affinize(build("B2"), 1), a_nn_x(1, 1, 3, 0), family("B3", 1, S={0, 1})):
            table = dict(gaps(sys_).entries)
            space = sys_.space
            lifts = [l for l in table if space.norm(l) != 0]
            # constant on reflection orbits of the minimal quotient
            cl_sys = sys_.cl()
            by_cl = {reference.project(sys_.space, l): table[l] for l in lifts}
            for orbit in weyl_orbits(cl_sys):
                values = {by_cl[r] for r in orbit if r in by_cl}
                assert len(values) <= 1
            for a in lifts:
                for b in lifts:
                    k = k_value(space, a, b)
                    ga, gb = table[a], table[b]
                    if gb == 0:
                        assert k * ga == 0 or ga == 0
                    else:
                        assert (k * ga / gb).denominator == 1


class TestResplit:
    def test_root_set_preserved(self):
        s13 = a_nn_x(1, 1, 3, 0)
        basis = s13.splitting()
        off = s13.family_of_lift(basis[0]).members()[0]
        moved = s13.resplit({basis[0]: off})
        for e in s13.entries:
            for m in e.family.members():
                assert moved.contains(vadd(e.lift, m))
        for e in moved.entries:
            for m in e.family.members():
                assert s13.contains(vadd(e.lift, m))

    def test_invalid_offset_rejected(self):
        s13 = a_nn_x(1, 1, 3, 0)
        basis = s13.splitting()
        bad = s13.L.basis[0]
        if s13.family_of_lift(basis[0]).contains(bad):
            bad = vscale(2, bad)
        with pytest.raises(UnknownRoot):
            s13.resplit({basis[0]: vadd(s13.family_of_lift(basis[0]).members()[0], vec([Q(1,7)]*s13.space.dim))})

    def test_a_lift_off_the_splitting_is_rejected(self):
        a2 = affinize(build("A2"), 1)
        other = next(lift for lift in a2.lifts if lift not in a2.splitting())
        with pytest.raises(UnknownRoot):
            a2.resplit({other: a2.family_of_lift(other).members()[0]})

    def test_a_key_that_is_no_class_is_rejected(self):
        a2 = affinize(build("A2"), 1)
        with pytest.raises(UnknownRoot):
            a2.resplit({vscale(3, a2.splitting()[0]): zero_vector(a2.space.dim)})

    @pytest.mark.parametrize("length", [2, 4])
    def test_an_offset_of_another_length_is_rejected(self, length):
        a2 = affinize(build("A2"), 1)
        assert a2.space.dim == 3
        with pytest.raises(DimensionMismatch):
            a2.resplit({a2.splitting()[0]: zero_vector(length)})


class TestCheckerAgreement:
    def test_finite_and_symbolic_verdicts_match(self):
        for name in ("B2", "A(1,1)", "C(1,1)", "BC(1,1)", "B(1,1)", "A(2,1)", "BC2"):
            fin = build(name)
            v = check_axioms(fin).verdict()
            assert check_symbolic_axioms(from_finite(fin)).verdict() == v, name
            assert check_symbolic_axioms(affinize(fin, 1)).verdict() == v, name

    def test_wgr3_with_incommensurate_families(self):
        # C(1,1) over a rank-2 radical: the families above +-(2,0) are the
        # odd multiples of (1,1), all others are Z^2.  Every beta - alpha
        # falls into a full family, so WGR3 holds; GR3 does not, since both
        # beta +- alpha are roots for some pairs.
        c11 = build("C(1,1)")
        gram = [[c11.space.gram[i][j] if i < 2 and j < 2 else 0 for j in range(4)]
                for i in range(4)]
        z2 = lat(4, [0, 0, 1, 0], [0, 0, 0, 1])
        odd = CosetSet(z2, lat(4, [0, 0, 2, 2]), zero_vector(4), [vec([0, 0, 1, 1])])
        full = CosetSet.full_lattice(z2)
        entries = [
            (tuple(r) + (Q(0), Q(0)), odd if abs(r[0]) == 2 and r[1] == 0 else full)
            for r in c11.roots
        ]
        rep = check_symbolic_axioms(SymbolicRootSystem(BilinearSpace(gram), entries))
        assert rep.verdict() == "WGRS"
        assert not rep.gr3.passed


class TestFamilyInvariants:
    def suite(self):
        yield affinize(build("B2"), 1)
        yield affinize(build("A3"), 1)
        yield affinize(build("G2"), 2)
        yield a_nn_x(1, 1, 3, 0)
        yield a_nn_x(2, 1, 2, 0)
        yield family("B3", 1, S={0, 1})
        yield family("C2", 1, S1={0, 1}, S2={0})
        yield family("BC(1,1)", 1, S={0}, Sp={1})
        yield family("G2", 2, s=1)
        yield family("A1", 2, S={0, 1, 2})

    def test_f_invariance(self):
        for sys_ in self.suite():
            assert f_invariance_failures(sys_) == []

    def test_transitive_quotients_are_full(self):
        for sys_ in (affinize(build("A3"), 1), affinize(build("D4"), 2),
                     affinize(build("A(2,1)"), 1), affinize(build("C(2)"), 1)):
            assert is_transitive_grrs_quotient(sys_)
            assert full_coset_failures(sys_) == []


PASS = AxiomCheck(True)


class TestDegenerateAxioms:
    """GR0 and GR1 failures; the expected reports are those of the checker
    that decided the axioms in Fraction arithmetic on the lifts."""

    SYSTEMS = {
        # the zero class carries the whole radical lattice
        "zero-class": (
            over_radical([2, 0], [[1, 0], [-1, 0], [0, 0]], "full"),
            AxiomReport(AxiomCheck(False, (vec([0, 0]),)), PASS, PASS, PASS, PASS),
        ),
        # L = ZR cap Ker is 0, of rank less than the radical's
        "no-radical-lattice": (
            over_radical([2, 0], [[1, 0], [-1, 0]], "point"),
            AxiomReport(PASS, AxiomCheck(False), PASS, PASS, PASS),
        ),
        # the classes +-(1, 0) do not span the quotient
        "quotient-not-spanned": (
            over_radical([2, 2, 0], [[1, 0, 0], [-1, 0, 0]], "full"),
            AxiomReport(PASS, AxiomCheck(False), PASS, PASS, PASS),
        ),
    }

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_report(self, name):
        system, expected = self.SYSTEMS[name]
        assert check_symbolic_axioms(system) == expected

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_matches_materialized(self, name):
        system, expected = self.SYSTEMS[name]
        assert materialized_verdicts(system) == report_verdicts(expected)


@cache
def oracle_systems():
    """Systems over a one-dimensional radical, by label."""
    out = {f"affinize {n}": affinize(build(n), 1)
           for n in ("A2", "B2", "G2", "BC2", "B(1,1)", "C(1,1)", "A(1,1)_f")}
    for n, p, q in ((1, 1, 2), (1, 1, 3), (1, 2, 5)):
        out[f"a_nn_x {n} {p}/{q}"] = a_nn_x(n, p, q, 0)
    families = [
        ("A1", dict(S={0, 1})), ("C2", dict(S1={0, 1}, S2={0})), ("G2", dict(s=0)),
        ("G2", dict(s=1)), ("BC(1,1)", dict(S={0}, Sp={1})), ("B(1,1)", dict(S={0})),
    ]
    for name, params in families:
        out[f"family {name} {params}"] = family(name, 1, **params)
    out["from_finite A(1,1)"] = from_finite(build("A(1,1)").restricted_to_span())
    return out


def defective(system, rng):
    """One or two classes changed: the family dropped, its modulus doubled,
    shifted by half a period, or cut to one point; half the time the class
    of the negative root changes in step, so that R = -R may still hold."""
    entries = {e.lift: e.family for e in system.entries}
    for _ in range(rng.randint(1, 2)):
        lift = rng.choice(sorted(entries))
        kind = rng.choice(("drop", "double", "half", "point"))
        targets = [(lift, 1)]
        if rng.random() < 0.5 and vneg(lift) in entries:
            targets.append((vneg(lift), -1))
        for key, sign in targets:
            fam = entries.pop(key)
            amb, mod, t, reps = fam.ambient, fam.modulus, fam.translate, fam.reps
            if kind == "double":
                entries[key] = CosetSet(amb, mod.scaled(2), t, reps)
            elif kind == "half":
                half = vscale(Q(sign, 2), (mod.basis or amb.basis)[0])
                amb = amb.add(Lattice.from_vectors(fam.dim, [half]))
                entries[key] = CosetSet(amb, mod, vadd(t, half), reps)
            elif kind == "point":
                entries[key] = CosetSet(amb, Lattice.zero(fam.dim), t, reps[:1])
    return SymbolicRootSystem(system.space, list(entries.items()))


class TestMaterializedOracle:
    """check_symbolic_axioms against the axioms decided on the roots listed
    in a bounded box (tests/materialize.py), axiom by axiom."""

    @pytest.mark.parametrize("label", list(oracle_systems()))
    def test_catalog_systems(self, label):
        system = oracle_systems()[label]
        assert materialized_verdicts(system) == report_verdicts(check_symbolic_axioms(system))

    @pytest.mark.parametrize("seed", range(60))
    def test_defective_systems(self, seed):
        rng = random.Random(seed)
        bases = [s for label, s in oracle_systems().items() if not label.startswith("family A1")]
        system = defective(rng.choice(bases), rng)
        assert materialized_verdicts(system) == report_verdicts(check_symbolic_axioms(system))
