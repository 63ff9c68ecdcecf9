import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grrs
from grrs import serialize
from grrs.catalog import _generating_rows, build, generating_roots, orbits, type_key
from grrs.errors import (
    AmbiguousReflection,
    DimensionMismatch,
    IsotropicBase,
    IsotropicPresent,
    MissingImage,
    OrthogonalSeed,
    UnknownRoot,
)
from grrs.finite import (
    FiniteRootSystem,
    check_axioms,
    generate_subsystem,
    gw_orbits,
    integral_subsystem,
    is_irreducible,
    is_reduced,
    isomorphic_finite,
    isotropic_reflect,
    k_value,
    reflect,
    weyl_orbits,
)
from grrs.linalg import (
    BilinearSpace,
    solve_in_span,
    standard_space,
    unit_vector,
    vadd,
    vec,
    vneg,
    vscale,
    vsub,
)

import fraction_reference as reference
from conftest import V
from support import isotropic_roots, reflect_root


class TestKValue:
    def test_b2_example(self, b2):
        assert k_value(b2.space, V(1, 0), V(1, 1)) == 2

    def test_self_pairing_is_two(self, b2):
        for a in b2.roots:
            assert k_value(b2.space, a, a) == 2

    def test_isotropic_base_error(self, c11):
        with pytest.raises(IsotropicBase):
            k_value(c11.space, V(1, 1), V(2, 0))

    def test_composition_identity(self, b2):
        # k_{a, r_g b} = k_{a,b} - k_{a,g} k_{g,b}
        sp = b2.space
        for a, g, b in itertools.product(b2.roots, repeat=3):
            lhs = k_value(sp, a, reflect(sp, g, b))
            rhs = k_value(sp, a, b) - k_value(sp, a, g) * k_value(sp, g, b)
            assert lhs == rhs


class TestReflect:
    def test_reflects_to_negative(self, b2):
        assert reflect(b2.space, V(1, 0), V(1, 0)) == V(-1, 0)

    def test_fixes_orthogonal(self, b2):
        assert reflect(b2.space, V(1, 0), V(0, 1)) == V(0, 1)

    def test_b2_short_pair(self, b2):
        assert reflect(b2.space, V(1, -1), V(1, 0)) == V(0, 1)

    def test_involution_and_isometry(self, b2, b11):
        for system in (b2, b11):
            sp = system.space
            for a in system.nonisotropic_roots():
                for v in system.roots:
                    img = reflect(sp, a, v)
                    assert reflect(sp, a, img) == v
                    for w in system.roots:
                        assert sp.form(img, reflect(sp, a, w)) == sp.form(v, w)


class TestIsotropicReflect:
    def test_unique_candidate(self, a11_ambient):
        alpha = V(1, 0, -1, 0)   # eps1 - eps3
        beta = V(1, -1, 0, 0)    # eps1 - eps2
        img = isotropic_reflect(a11_ambient, alpha, beta)
        assert img == V(0, -1, 1, 0)  # eps3 - eps2

    def test_self_image(self, a11_ambient):
        alpha = V(1, 0, -1, 0)
        assert isotropic_reflect(a11_ambient, alpha, alpha) == vneg(alpha)

    def test_self_image_needs_the_negative(self):
        # (1,1) is isotropic over diag(1,-1) and -(1,1) is not a root
        system = FiniteRootSystem(BilinearSpace([[1, 0], [0, -1]]), [V(1, 1), V(1, 0), V(-1, 0)])
        assert not system.contains(V(-1, -1))
        with pytest.raises(UnknownRoot, match=r"negative of \(1,1\) is not a root"):
            isotropic_reflect(system, V(1, 1), V(1, 1))

    def test_ambiguous_in_c11(self, c11):
        with pytest.raises(AmbiguousReflection):
            isotropic_reflect(c11, V(1, 1), V(1, -1))

    def test_involution_where_defined(self, b11):
        for a in isotropic_roots(b11):
            for b in b11.roots:
                img = isotropic_reflect(b11, a, b)
                assert isotropic_reflect(b11, a, img) == b


class TestCheckAxioms:
    def test_b2_is_grrs(self, b2):
        rep = check_axioms(b2)
        assert rep.is_grrs and rep.verdict() == "GRRS"

    def test_c11_is_wgrs_only(self, c11):
        rep = check_axioms(c11)
        assert not rep.gr3.passed
        assert rep.wgr3.passed and rep.is_wgrs and not rep.is_grrs
        assert rep.gr3.witness is not None

    def test_gr3_implies_wgr3(self, b2, c11, b11):
        for system in (b2, c11, b11):
            rep = check_axioms(system)
            if rep.gr3.passed:
                assert rep.wgr3.passed

    def test_gr2_lattice_membership(self, b2, b11, a2):
        # beta - r_alpha(beta) is an integer multiple of alpha
        for system in (b2, b11, a2):
            sp = system.space
            for a in system.nonisotropic_roots():
                for b in system.roots:
                    diff = vsub(b, reflect(sp, a, b))
                    k = k_value(sp, a, b)
                    assert k.denominator == 1
                    assert diff == tuple(k * x for x in a)

    def test_exactly_one_candidate_in_grrs(self, b11):
        for a in isotropic_roots(b11):
            for b in b11.roots:
                if b11.space.form(a, b) == 0:
                    continue
                count = int(b11.contains(vadd(b, a))) + int(b11.contains(vsub(b, a)))
                assert count == 1


class TestGenerateSubsystem:
    def test_a2_from_simple_roots(self, a2):
        sub = generate_subsystem(a2, [V(1, 0), V(0, 1)])
        assert set(sub.roots) == set(a2.roots)

    def test_plus_minus_pair(self, b2):
        sub = generate_subsystem(b2, [V(1, 0), V(-1, 0)])
        assert set(sub.roots) == {V(1, 0), V(-1, 0)}

    def test_b11_from_simple_roots(self, b11):
        sub = generate_subsystem(b11, [V(1, -1), V(0, 1)])
        assert set(sub.roots) == set(b11.roots)

    def test_orthogonal_seed_rejected(self, b11):
        # an isotropic root alone is orthogonal to the whole seed set
        with pytest.raises(OrthogonalSeed):
            generate_subsystem(b11, [V(1, 1)])

    def test_orthogonal_nonisotropic_seeds_allowed(self, b2):
        sub = generate_subsystem(b2, [V(1, 0), V(0, 1)])
        assert set(sub.roots) == {V(1, 0), V(-1, 0), V(0, 1), V(0, -1)}

    def test_output_passes_axioms_over_its_span(self, b2, b11):
        for system, seeds in (
            (b2, [V(1, 0), V(0, 1)]),
            (b2, [V(1, 1), V(1, -1)]),
            (b11, [V(1, -1), V(0, 1)]),
        ):
            sub = generate_subsystem(system, seeds).restricted_to_span()
            assert check_axioms(sub).is_grrs

    def test_agrees_with_brute_force_closure(self, b11, a2):
        # oracle: close the set under *all* defined reflections directly
        for system, seeds in ((b11, [V(1, -1), V(0, 1)]), (a2, [V(1, 0), V(0, 1)])):
            current = set(seeds)
            changed = True
            while changed:
                changed = False
                for a in list(current):
                    for b in list(current):
                        for img in (reflect_root(system, a, b),):
                            for w in (img, vneg(img)):
                                if w not in current:
                                    current.add(w)
                                    changed = True
            assert current == set(generate_subsystem(system, seeds).roots)

    def test_image_outside_system_raises(self):
        # r_(1,0)(1,1) = (-1,1) is not a root
        plane = standard_space(2)
        system = FiniteRootSystem(plane, [V(1, 0), V(-1, 0), V(0, 1), V(0, -1),
                                          V(1, 1), V(-1, -1)])
        with pytest.raises(UnknownRoot):
            generate_subsystem(system, [V(1, 0), V(1, 1)])

    def test_unbounded_closure_exits_2(self, tmp_path):
        # r_(1,0)(1,2) = (-1,2) is not a root; closing under reflections
        # regardless would never end, so this runs in a subprocess.
        system = FiniteRootSystem(standard_space(2), [V(1, 0), V(-1, 0), V(1, 2), V(-1, -2)])
        path = tmp_path / "doc.json"
        path.write_text(serialize.dumps(system))
        seeds = f"{system.roots.index(V(1, 0))},{system.roots.index(V(1, 2))}"
        src = os.path.dirname(os.path.dirname(grrs.__file__))
        code = "import sys; from grrs.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", code, "subsystem", str(path), "--seeds", seeds],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=20,
        )
        assert done.returncode == 2


class TestOrbits:
    def test_b2_weyl_orbits(self, b2):
        orbs = weyl_orbits(b2)
        assert len(orbs) == 2
        assert {frozenset(o) for o in orbs} == {
            frozenset({V(1, 0), V(-1, 0), V(0, 1), V(0, -1)}),
            frozenset({V(1, 1), V(1, -1), V(-1, 1), V(-1, -1)}),
        }

    def test_b11_gw_orbits(self, b11):
        orbs = gw_orbits(b11)
        assert len(orbs) == 2
        sets = {frozenset(o) for o in orbs}
        assert frozenset({V(1, 0), V(-1, 0), V(0, 1), V(0, -1)}) in sets
        assert frozenset(
            {V(1, 1), V(1, -1), V(-1, 1), V(-1, -1), V(0, 2), V(0, -2)}
        ) in sets

    def test_a10_gw_transitive(self):
        a10 = build("A(1,0)")
        assert len(gw_orbits(a10)) == 1

    def test_weyl_refines_gw(self, b11):
        gw = [set(o) for o in gw_orbits(b11)]
        for orb in weyl_orbits(b11):
            assert any(set(orb) <= big for big in gw)


class TestDecomposition:
    def test_two_components(self):
        sp = standard_space(2)
        sys_ = FiniteRootSystem(sp, [V(1, 0), V(-1, 0), V(0, 1), V(0, -1)])
        irr, comps = is_irreducible(sys_)
        assert not irr and len(comps) == 2

    def test_b2_irreducible(self, b2):
        irr, comps = is_irreducible(b2)
        assert irr and len(comps) == 1

    def test_cmn_irreducible(self):
        irr, _ = is_irreducible(build("C(2,1)"))
        assert irr


class TestReduced:
    def test_a2_reduced(self, a2):
        assert is_reduced(a2)

    def test_bc1_not_reduced(self):
        assert not is_reduced(build("BC1"))

    def test_doubled_j_entry_not_reduced(self):
        from grrs.catalog import real_roots_from_matrix

        sys_, trunc = real_roots_from_matrix([[1]], J=[0], height_bound=4)
        assert not trunc and not is_reduced(sys_)

    @pytest.mark.parametrize("name", ["BC1", "BC3", "B3", "G2", "BC(2,1)", "E6", "B(1,1)"])
    def test_catalog_matches_the_pairwise_scan(self, name):
        system = build(name)
        assert is_reduced(system) == reference.is_reduced(system)


@st.composite
def proportional_root_sets(draw):
    """Roots drawn with some of their rational multiples (lambda = +-1
    among them), and sometimes the zero vector, in small denominators."""
    dim = draw(st.integers(1, 3))
    coordinate = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    pool = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=5))
    factors = st.sampled_from([Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-3, 2), Q(3), Q(2, 3)])
    roots = list(pool)
    for v in pool:
        roots += [vscale(c, v) for c in draw(st.lists(factors, max_size=2))]
    if draw(st.booleans()):
        roots.append((Q(0),) * dim)
    return FiniteRootSystem(standard_space(dim), roots)


@settings(max_examples=200, deadline=None)
@given(proportional_root_sets())
def test_is_reduced_matches_the_pairwise_scan(system):
    assert is_reduced(system) == reference.is_reduced(system)


def test_lookups_read_their_arguments_as_vectors(b2, b11):
    """The public finite lookups read strings and ints as `vec` does."""
    spelled, root = ("-1", "-1"), V(-1, -1)
    assert b2.contains(spelled) and b2.contains((-1, "-2/2"))
    assert not b2.contains(("1/2", "0"))
    assert b2.norm(spelled) == b2.norm(root) == 2
    assert b2.norm(("1/2", 0)) == Q(1, 4)
    # a denominator that does not divide the scale is no root: 4 // 3 = 1
    quarters = FiniteRootSystem(standard_space(1), [V(Q(1, 4)), V(Q(-1, 4))])
    assert quarters.contains(V(Q(1, 4))) and not quarters.contains(("1/3",))
    assert quarters.norm(("1/3",)) == Q(1, 9)
    seeds = [("1", "0"), spelled]
    assert generate_subsystem(b2, seeds) == generate_subsystem(b2, [V(1, 0), root])
    for a in isotropic_roots(b11):
        for b in b11.roots:
            words = [tuple(str(x) for x in v) for v in (a, b)]
            assert isotropic_reflect(b11, *words) == isotropic_reflect(b11, a, b)


class TestIntegralSubsystem:
    def test_b2_half_weight(self, b2):
        out = integral_subsystem(b2, V(Q(1, 2), 0))
        assert set(out.roots) == {V(1, 0), V(-1, 0), V(0, 1), V(0, -1)}

    def test_zero_weight_gives_everything(self, b2):
        assert set(integral_subsystem(b2, V(0, 0)).roots) == set(b2.roots)

    def test_a2_fundamental_weight(self, a2):
        # weight with (w, a1^) = 1, (w, a2^) = 0 pairs integrally with all roots
        out = integral_subsystem(a2, V(Q(2, 3), Q(1, 3)))
        assert set(out.roots) == set(a2.roots)

    def test_isotropic_rejected(self, c11):
        with pytest.raises(IsotropicPresent):
            integral_subsystem(c11, V(1, 0))


class TestIsomorphism:
    def test_identity(self, b2):
        h = isomorphic_finite(b2, b2)
        assert h is not None and h.scale == 1

    def test_b2_versus_scaled_c2(self, b2):
        c2 = build("C2")
        h = isomorphic_finite(b2, c2)
        assert h is not None and h.scale == 2
        for r in b2.roots:
            assert c2.contains(h.apply(r))
        for u in b2.roots:
            for v in b2.roots:
                assert c2.space.form(h.apply(u), h.apply(v)) == 2 * b2.space.form(u, v)

    def test_different_sizes(self, a2):
        sp = standard_space(2)
        a1a1 = FiniteRootSystem(sp, [V(1, 0), V(-1, 0), V(0, 1), V(0, -1)])
        assert isomorphic_finite(a2, a1a1) is None

    def test_b3_not_c3(self):
        assert isomorphic_finite(build("B3"), build("C3")) is None

    def test_same_size_nonisomorphic(self):
        assert isomorphic_finite(build("G2"), build("BC2")) is None

    def test_apply_rejects_wrong_length(self, b2):
        h = isomorphic_finite(b2, b2)
        for v in (V(1), V(1, 0, 0)):
            with pytest.raises(DimensionMismatch):
                h.apply(v)

    def test_apply_on_a_zero_span(self):
        # a domain spanning only {0} maps every vector of its span, 0, to the
        # zero vector of the target's space
        for roots in ([], [V(0, 0)]):
            src = FiniteRootSystem(standard_space(2), roots)
            dst = FiniteRootSystem(standard_space(3), [V(0, 0, 0)] * len(roots))
            h = isomorphic_finite(src, dst)
            assert h is not None and h.images == () and h.basis == ()
            assert h.apply((0, 0)) == V(0, 0, 0)
            assert h.roots == dict.fromkeys(roots, V(0, 0, 0))
            for v in (V(1, 0), V(0, 0, 0)):
                with pytest.raises(DimensionMismatch):
                    h.apply(v)

    @staticmethod
    def assert_homothety(h, src, dst):
        assert h is not None
        images = [h.apply(r) for r in src.roots]
        assert sorted(images) == sorted(dst.roots)
        # the root map is the same bijection, read without an elimination
        assert sorted(h.roots) == sorted(src.roots)
        assert [h.roots[r] for r in src.roots] == images
        for u, hu in zip(src.roots, images):
            for v, hv in zip(src.roots, images):
                assert dst.space.form(hu, hv) == h.scale * src.space.form(u, v)

    def test_rotated_rank2_set_both_ways(self):
        # the first assignment of the spanning roots found for the right
        # scale fails the root check; the search must backtrack
        base = [V(1, 0), V(2, 2), V(3, 5), V(5, -3)]
        plane = standard_space(2)
        a = FiniteRootSystem(plane, base + [vneg(v) for v in base])
        b = FiniteRootSystem(plane, [V(-v[1], v[0]) for v in a.roots])
        self.assert_homothety(isomorphic_finite(a, b), a, b)
        self.assert_homothety(isomorphic_finite(b, a), b, a)

    def test_map_between_non_spanning_systems(self, a11_ambient):
        # A(1,1) spans a hyperplane; the map is given in the ambient coordinates
        other = FiniteRootSystem(a11_ambient.space, [vneg(r) for r in a11_ambient.roots])
        h = isomorphic_finite(a11_ambient, other)
        self.assert_homothety(h, a11_ambient, other)
        assert all(len(v) == 4 for v in h.basis + h.images)


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "BC2", "F4", "D4", "E6", "A(1,1)",
                                  "B(1,1)", "C(2,1)", "BC(2,1)", "D(2,1;a=1/2)", "G(3)"])
def test_catalog_self_maps_carry_a_root_map(name):
    system = build(name)
    TestIsomorphism.assert_homothety(isomorphic_finite(system, system), system, system)


@pytest.mark.parametrize("name", ["A1", "B3", "B4", "C2", "C3", "C4", "G2", "F4", "B(1,1)",
                                  "B(2,1)", "C(1,1)", "C(1,2)", "C(2,2)", "BC(1,1)", "BC(2,1)",
                                  "BC(1,2)", "BC1", "BC2", "BC3"])
def test_generating_coordinates_are_the_solved_ones(name):
    key = type_key(name)
    orbits(key)  # the types `orbits` lays out
    gens = generating_roots(key)
    _, den, table = _generating_rows(key)
    assert len(table) == len(key.system())
    for r, c in zip(key.system().roots, table):
        assert tuple(Q(x, den) for x in c) == solve_in_span(gens, r)


# ---------------------------------------------------------------------------
# Random isometries: an oracle for `isomorphic_finite`.  A signed permutation
# of the coordinates, w_i = e_i v_pi(i), carries the form G to the form with
# entries e_i e_j G[pi(i)][pi(j)]; scaling that form by c makes the map a
# homothety of scale c.  The search must find a homothety both ways, and must
# still tell the non-isomorphic pairs apart.  Some inputs do not span their
# space (A(n,n) on all 2n + 2 coordinates, B3 and G(3) with a coordinate no
# root uses); the search takes them as given.

ISOMETRY_NAMES = ["A2", "B3", "C3", "G2", "BC2", "F4", "D4", "A(1,1)", "B(1,1)", "C(2,1)",
                  "BC(1,1)", "D(2,1;a=1/2)", "G(3)"]


def _signed_permutation(system, rng, c):
    n = system.space.dim
    perm = rng.sample(range(n), n)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    g = system.space.gram
    gram = [[c * sign[i] * sign[j] * g[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    roots = [tuple(sign[i] * r[perm[i]] for i in range(n)) for r in system.roots]
    return FiniteRootSystem(BilinearSpace(gram), roots)


def _type_a_ambient(n):
    """A(n,n) on all 2n + 2 coordinates, where its roots span a hyperplane."""
    dim = 2 * n + 2
    roots = [vsub(unit_vector(dim, i), unit_vector(dim, j))
             for i in range(dim) for j in range(dim) if i != j]
    return FiniteRootSystem(standard_space(n + 1, n + 1), roots)


def _appended(name, norm):
    """The named system with one more coordinate, of the given norm, that
    no root uses."""
    system = build(name)
    n = system.space.dim
    gram = [list(row) + [0] for row in system.space.gram] + [[0] * n + [norm]]
    return FiniteRootSystem(BilinearSpace(gram), [tuple(r) + (Q(0),) for r in system.roots])


NON_SPANNING = {
    "A(1,1) on 4 coordinates": lambda: _type_a_ambient(1),
    "A(2,2) on 6 coordinates": lambda: _type_a_ambient(2),
    "B3 and a radical coordinate": lambda: _appended("B3", 0),
    "G(3) and a coordinate of norm 1": lambda: _appended("G(3)", 1),
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ISOMETRY_NAMES + sorted(NON_SPANNING)), st.randoms(use_true_random=False),
       st.fractions(min_value=Q(-9), max_value=Q(9), max_denominator=9).filter(bool))
def test_isomorphic_finite_finds_random_isometries(name, rng, c):
    system = NON_SPANNING[name]() if name in NON_SPANNING else build(name)
    image = _signed_permutation(system, rng, c)
    TestIsomorphism.assert_homothety(isomorphic_finite(system, image), system, image)
    TestIsomorphism.assert_homothety(isomorphic_finite(image, system), image, system)


@pytest.mark.parametrize("label", sorted(NON_SPANNING))
def test_isomorphic_finite_to_the_restricted_copy(label):
    system = NON_SPANNING[label]()
    restricted = system.restricted_to_span()
    assert restricted.space.dim < system.space.dim
    TestIsomorphism.assert_homothety(isomorphic_finite(system, restricted), system, restricted)
    TestIsomorphism.assert_homothety(isomorphic_finite(restricted, system), restricted, system)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([("B3", "C3"), ("C3", "B3"), ("G2", "BC2"), ("BC2", "G2")]),
       st.randoms(use_true_random=False),
       st.fractions(min_value=Q(-9), max_value=Q(9), max_denominator=9).filter(bool))
def test_random_isometries_keep_nonisomorphic_pairs_apart(names, rng, c):
    a, b = build(names[0]), build(names[1])
    image = _signed_permutation(b, rng, c)
    assert isomorphic_finite(a, image) is None
    assert isomorphic_finite(image, a) is None


# ---------------------------------------------------------------------------
# Scale invariance: an oracle for the integer pairings.  Scaling the form
# by lam != 0 and the roots by mu > 0 changes every common denominator but
# no Cartan number, sign or root order, so every answer must be the same up
# to mu.

SCALE_NAMES = ["A2", "G2", "B3", "B4", "F4", "BC2", "A(1,1)", "A(2,1)", "B(1,1)",
               "B(2,2)", "C(2,1)", "C(1,1)", "BC(1,1)", "D(2,1;a=1/2)", "G(3)"]
rationals = st.fractions(min_value=Q(-9), max_value=Q(9), max_denominator=9)


def _outcome(fn, *args):
    """fn(*args), or the type and witness roots of what it raised."""
    try:
        return fn(*args)
    except (AmbiguousReflection, MissingImage) as exc:
        return type(exc), exc.alpha, exc.beta
    except (UnknownRoot, OrthogonalSeed) as exc:
        return type(exc)


def _scaled_outcome(out, mu):
    if isinstance(out, tuple) and len(out) == 3 and isinstance(out[0], type):
        return out[0], vscale(mu, out[1]), vscale(mu, out[2])
    if isinstance(out, type):
        return out
    return [tuple(vscale(mu, r) for r in orbit) for orbit in out]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SCALE_NAMES),
    st.integers(min_value=-1, max_value=47),
    rationals.filter(lambda x: x != 0),
    rationals.filter(lambda x: x > 0),
)
def test_answers_are_invariant_under_scaling(name, drop, lam, mu):
    full = build(name)
    # Dropping a root, when `drop` indexes one, makes axioms fail with witnesses.
    roots = [r for i, r in enumerate(full.roots) if i != drop]
    system = FiniteRootSystem(full.space, roots)
    gram = [[lam * x for x in row] for row in full.space.gram]
    scaled = FiniteRootSystem(BilinearSpace(gram), [vscale(mu, r) for r in roots])

    rep, rep_s = check_axioms(system), check_axioms(scaled)
    for axiom in ("gr0", "gr1", "gr2", "gr3", "wgr3"):
        c, c_s = getattr(rep, axiom), getattr(rep_s, axiom)
        assert c.passed == c_s.passed, axiom
        if c.witness is not None:
            assert c_s.witness == tuple(vscale(mu, r) for r in c.witness), axiom

    for orbits in (weyl_orbits, gw_orbits):
        assert _scaled_outcome(_outcome(orbits, system), mu) == _outcome(orbits, scaled)

    irr, comps = is_irreducible(system)
    irr_s, comps_s = is_irreducible(scaled)
    assert irr == irr_s
    assert [c.roots for c in comps_s] == _scaled_outcome([c.roots for c in comps], mu)

    for r in roots:
        assert scaled.norm(vscale(mu, r)) == lam * mu * mu * system.norm(r)
    for src, dst in ((system, scaled), (scaled, system)):
        h = isomorphic_finite(src, dst)
        assert h is not None
        for u in h.basis:
            for v in h.basis:
                assert dst.space.form(h.apply(u), h.apply(v)) == h.scale * src.space.form(u, v)


# ---------------------------------------------------------------------------
# The reflection kernel: an oracle for the packed keys of a finite system.
# `_image` and `_shift` must answer as a step on the Fraction roots themselves,
# found by tuple lookup, on every pair: for roots with large coordinates and
# Cartan numbers, isotropic roots, non-integral 2p/n and missing negatives.
# The checker and the orbit partitions, which read the reflection rows, must
# give the report (witnesses included) and the partition, or raise the error,
# of the per-pair walks.


@st.composite
def kernel_cases(draw):
    """(gram, roots): seeds with coordinates up to 3 and up to 10^4, some of
    their images under reflections and isotropic shifts, and some negatives.
    A short root paired with a long one has a large Cartan number."""
    d = draw(st.integers(min_value=1, max_value=3))
    gram = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            gram[i][j] = gram[j][i] = draw(st.integers(min_value=-3, max_value=3))
    seeds = []
    for bound, most in ((3, 2), (10**4, 3)):
        coordinate = st.integers(min_value=-bound, max_value=bound)
        seeds += draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=most))
    if draw(st.booleans()):
        # an isotropic first coordinate, and a root along it
        gram[0][0] = 0
        seeds.append(vscale(draw(st.sampled_from((1, -1, 2))), unit_vector(d, 0)))
    space = BilinearSpace(gram)
    seeds = [vec(v) for v in seeds]
    roots = set(seeds)
    pairs = st.tuples(st.sampled_from(seeds), st.sampled_from(seeds), st.booleans())
    for a, b, up in draw(st.lists(pairs, max_size=6)):
        n = space.norm(a)
        roots.add(vsub(b, vscale(2 * space.form(a, b) / n, a)) if n else
                  (vadd if up else vsub)(b, a))
    for r in sorted(roots):
        if draw(st.booleans()):
            roots.add(vneg(r))
    return gram, sorted(roots)


def _pm(*vectors):
    return [w for v in vectors for w in (V(*v), vneg(V(*v)))]


# Here K = 6 and M = 1: a base 2M + 1 = 3 would take r_(-1,0)(0,-1) = (2,-1),
# not a root, for the root (-1,0) (both pack to -1).
ALIASING = ([[1, 1], [1, 3]], _pm((1, 0), (0, 1)))


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
@example(ALIASING)
@example(([[1, 0], [0, 1]], _pm((1, 0), (100, 1), (-100, 1))))  # k = 200
@example(([[1, 0], [0, 1]], _pm((2, 2), (1, 0), (0, 1))))  # k = 1/2, image (0, -1)
@example(([[0, 1], [1, 0]], _pm((1, 0), (0, 1)) + [V(1, 1)]))  # isotropic, one of b +- a
@example(([[0, 1], [1, 0]], _pm((1, 0), (0, 1), (1, 1), (1, -1))))  # isotropic, both
@example(([[0, 1], [1, 0]], [V(1, 0), V(0, 1), V(1, 1), V(-1, 1)]))  # missing negatives
@example(([[1, 0], [0, -1]], _pm((1, 1), (1, 0))))  # no image of (-1,0) under r_(-1,-1)
@example(([[1, 0], [0, -1]], [V(1, 1), V(1, 0), V(-1, 0)]))  # isotropic, no negative
def test_reflection_kernel_matches_the_fraction_reference(case):
    gram, roots = case
    system = FiniteRootSystem(BilinearSpace(gram), roots)
    assert check_axioms(system) == reference.check_axioms(system)
    assert _outcome(gw_orbits, system) == _outcome(reference.gw_orbits, system)
    assert _outcome(weyl_orbits, system) == _outcome(reference.weyl_orbits, system)
    P = system._pairings
    for i in range(len(system)):
        for j in range(len(system)):
            assert (_outcome(system._image, i, j)
                    == _outcome(reference.reflection_image, system, i, j))
            steps = [1, -1]
            if P[i][i] and 2 * P[i][j] % P[i][i] == 0:
                steps.append(-2 * P[i][j] // P[i][i])
            for m in steps:
                assert system._shift(j, i, m) == reference.shifted(system, j, i, m)


def test_packing_base_keeps_a_far_image_off_the_roots():
    system = FiniteRootSystem(BilinearSpace(ALIASING[0]), ALIASING[1])
    a, b = system._find(V(-1, 0)), system._find(V(0, -1))
    assert system._image(a, b) is None
    assert check_axioms(system).gr2.witness == (V(-1, 0), V(0, -1))


# ---------------------------------------------------------------------------
# The pairings take a dot product for the first root of each +- pair and on or
# above the diagonal only, and read the rest off by negation and symmetry:
# they must be every plain dot product, on systems closed under negation or
# not, with 0, isotropic roots, degenerate forms and large denominators.

RATIONALS = st.builds(Q, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))


@st.composite
def pairing_cases(draw):
    """(gram, roots): a symmetric Gram matrix with small integer or rational
    entries, often degenerate; roots with small or rational coordinates."""
    d = draw(st.integers(min_value=1, max_value=4))
    entry = st.one_of(st.integers(-2, 2), RATIONALS)
    gram = [[Q(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            gram[i][j] = gram[j][i] = draw(entry)
    coordinate = st.one_of(st.integers(-3, 3), RATIONALS)
    roots = draw(st.lists(st.tuples(*[coordinate] * d), min_size=0, max_size=8))
    if draw(st.booleans()):
        gram[0] = [Q(0)] * d  # the first coordinate in the radical: isotropic roots
        for i in range(d):
            gram[i][0] = Q(0)
        roots.append(unit_vector(d, 0))
    if draw(st.booleans()):
        roots.append((0,) * d)
    closed = draw(st.booleans())
    roots = [vec(r) for r in roots]
    roots += [vneg(r) for r in roots if closed or draw(st.booleans())]
    return gram, roots


@settings(max_examples=150, deadline=None)
@given(pairing_cases())
@example(([[1, 0], [0, 1]], []))
@example(([[0, 1], [1, 0]], [V(0, 0), V(1, 0), V(0, 1), V(-1, 0)]))  # 0, isotropic, one negative
@example(([[Q(1, 10 ** 6), 0], [0, 0]], _pm((Q(1, 999983), 7), (1, Q(-3, 10 ** 6)))))
def test_pairings_match_every_plain_dot_product(case):
    gram, roots = case
    system = FiniteRootSystem(BilinearSpace(gram), roots)
    P = system._pairings
    assert [list(p) for p in P] == reference.pairings(system)
    for i, r in enumerate(system.roots):
        assert system._unit * P[i][i] == system.space.norm(r)
        assert system._unit * P[i][0] == system.space.form(r, system.roots[0])


# ---------------------------------------------------------------------------
# The norm prune of `isomorphic_finite` passes over scales no homothety can
# have, so the scale and root map it returns are the ones the unpruned
# search returns: on the finite systems of the benchmark against seeded
# isometric images, and where norms come in opposite pairs, so that a
# negative scale is tried first.  `apply` combines the integer rows of the
# target, and must give the `Fraction` combination of the images.  On the
# same seeded images, the systems derived on the rows of a system (a
# generated subsystem, the components, an integral subsystem) must be those
# the reference builds through the public constructor: equal systems, equal
# roots and byte-equal documents.

PARITY_NAMES = [
    "A4", "B4", "C4", "D5", "G2", "F4", "E6", "A(3,2)", "A(3,3)", "B(2,2)", "C(3)", "D(2,2)",
    "D(2,1;a=1/2)", "G(3)", "F(4)", "C(1,1)", "C(2,1)", "BC(1,1)", "BC(2,1)",
]
SIGN_SYMMETRIC = {
    "A(1,1)": lambda: build("A(1,1)"),
    "A(2,2)": lambda: build("A(2,2)"),
    "hyperbolic plane": lambda: FiniteRootSystem(BilinearSpace([[0, 1], [1, 0]]),
                                                 _pm((1, 0), (0, 1))),
}


def _same_homothety(src, dst):
    h, ref = isomorphic_finite(src, dst), reference.isomorphic_finite(src, dst)
    assert h is not None and ref is not None
    assert (h.scale, h.roots, h.images) == (ref.scale, ref.roots, ref.images)
    halves = tuple(sum(b[i] for b in ref.basis) / 2 for i in range(src.space.dim))
    for v in src.roots + (halves,):
        want = reference._combination(reference.solve(ref.basis, v), ref.images, dst.space.dim)
        assert h.apply(v) == want


def _same_system(got, want):
    assert got == want and got.roots == want.roots
    assert serialize.dumps(got) == serialize.dumps(want)


def _derived_outcome(fn, *args):
    try:
        return fn(*args)
    except (UnknownRoot, OrthogonalSeed, IsotropicPresent, AmbiguousReflection,
            MissingImage) as exc:
        return type(exc)


def _same_derived(system, rng):
    """The subsystems of `system` derived on its rows, against the reference:
    generated by seeded pairs of roots, integral against a seeded weight, and
    the components of the system and of each of those, often reducible."""
    cases = [(generate_subsystem, reference.generate_subsystem, rng.sample(system.roots, 2))
             for _ in range(3)]
    lam = tuple(Q(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(system.space.dim))
    cases.append((integral_subsystem, reference.integral_subsystem, lam))
    derived = [system]
    for fn, ref, arg in cases:
        got, want = _derived_outcome(fn, system, arg), _derived_outcome(ref, system, arg)
        if isinstance(got, type):
            assert got == want
        else:
            _same_system(got, want)
            derived.append(got)
    for s in derived:
        comps, want = is_irreducible(s)[1], reference.irreducible_components(s)
        assert len(comps) == len(want)
        for got, ref in zip(comps, want):
            _same_system(got, ref)


@pytest.mark.parametrize("name", PARITY_NAMES)
def test_norm_prune_keeps_the_homothety_of_isometric_images(name):
    rng = random.Random(f"parity/{name}")
    system = build(name)
    image = _signed_permutation(system, rng, Q(*rng.sample((2, 3, 5, 7), 2)))
    _same_homothety(system, image)
    _same_homothety(image, system)
    _same_derived(image, rng)


@pytest.mark.parametrize("label", sorted(SIGN_SYMMETRIC))
def test_norm_prune_keeps_the_homothety_of_sign_symmetric_norms(label):
    system = SIGN_SYMMETRIC[label]()
    assert isomorphic_finite(system, system).scale == -1
    for c in (Q(1), Q(-1), Q(3, 2)):
        image = _signed_permutation(system, random.Random(f"parity/{label}/{c}"), c)
        _same_homothety(system, image)
        _same_homothety(image, system)


# ---------------------------------------------------------------------------
# The constructor deduplicates, sorts, compares and hashes integer rows over
# the common denominator of the roots; the roots, their index, equality and
# hashing are those of the Fraction tuples (`reference.finite_root_system`).

rationals = st.one_of(
    st.integers(-3, 3).map(Q),
    st.builds(Q, st.integers(-10**15, 10**15), st.integers(1, 10**12)),
)


def _spellings(x: Q):
    """x as a Fraction, as "p/q" and an unreduced "2p/2q", and as an int and
    its string when it is one."""
    out = [x, f"{x.numerator}/{x.denominator}", f"{2 * x.numerator}/{2 * x.denominator}"]
    if x.denominator == 1:
        out += [x.numerator, str(x.numerator)]
    return st.sampled_from(out)


@st.composite
def spelled_root_lists(draw):
    """Two spellings, in two orders, of one list of roots drawn with
    repetition from a pool that may hold negatives and the zero vector."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[rationals] * dim), min_size=1, max_size=5))
    pool += [vneg(v) for v in pool if draw(st.booleans())]
    if draw(st.booleans()):
        pool.append((Q(0),) * dim)
    picks = draw(st.lists(st.sampled_from(pool), max_size=10))
    spell = lambda vs: [tuple(draw(_spellings(x)) for x in v) for v in vs]
    return dim, spell(picks), spell(draw(st.permutations(picks)))


@settings(max_examples=150, deadline=None)
@given(spelled_root_lists(), spelled_root_lists())
@example((1, [(1,), ("-1",)], [(-1,), (Q(1),)]), (1, [], []))  # halved: equal rows, scale 2
def test_integer_rows_keep_the_fraction_constructor(case, other):
    dim, first, second = case
    spaces = [standard_space(dim), BilinearSpace([[2 * int(i == j) for j in range(dim)]
                                                  for i in range(dim)])]
    halved = [tuple(Q(x) / 2 for x in r) for r in first]
    inputs = [(spaces[0], first), (spaces[0], second), (spaces[1], first), (spaces[0], halved)]
    if other[0] == dim:
        inputs.append((spaces[0], other[1]))
    systems = [FiniteRootSystem(space, roots) for space, roots in inputs]
    refs = [reference.finite_root_system(space, roots) for space, roots in inputs]
    for system, ref in zip(systems, refs):
        assert system.roots == ref.roots
        assert all(type(x) is Q for r in system.roots for x in r)
        # the integer root index finds each root at its place, and only the roots
        assert {r: system._find(r) for r in ref.roots} == ref.index
        assert len(system._lookup) == len(ref.index)
    for a, ra in zip(systems, refs):
        for b, rb in zip(systems, refs):
            assert (a == b) == (ra.key == rb.key)
            assert a != b or hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(rationals, min_size=1, max_size=4), min_size=1, max_size=6))
def test_a_wrong_length_is_named_as_before(roots):
    space = standard_space(2)
    roots = [tuple(r) for r in roots] + [(Q(1), Q(2), Q(3)), (Q(-1),)]
    with pytest.raises(DimensionMismatch) as got:
        FiniteRootSystem(space, roots)
    with pytest.raises(DimensionMismatch) as want:
        reference.finite_root_system(space, roots)
    assert str(got.value) == str(want.value)
