"""Finite root systems: reflections, axiom checks, orbits, and isomorphism.

A system is a finite set of nonzero-or-not vectors in a rational bilinear
space.  Nothing is validated at construction beyond coordinate lengths; the
axioms are evaluated by `check_axioms`, which reports witnesses instead of
raising, so that defective inputs can be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    AmbiguousReflection,
    DimensionMismatch,
    IsotropicBase,
    IsotropicPresent,
    MissingImage,
    OrthogonalSeed,
    UnknownRoot,
)
from .linalg import (
    BilinearSpace,
    Lattice,
    Vector,
    independent_subset,
    rank,
    solve_in_span,
    vadd,
    vneg,
    vscale,
    vsub,
    vec,
)


class FiniteRootSystem:
    """A finite set of vectors with cached norms, in a fixed bilinear space."""

    def __init__(self, space: BilinearSpace, roots: Sequence[Vector]):
        self.space = space
        rs = sorted({tuple(Q(x) for x in r) for r in roots})
        for r in rs:
            space.check_vector(r)
        self.roots: Tuple[Vector, ...] = tuple(rs)
        self._root_set = frozenset(self.roots)
        self._norms: Dict[Vector, Q] = {r: space.norm(r) for r in self.roots}

    def __len__(self):
        return len(self.roots)

    def __iter__(self):
        return iter(self.roots)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteRootSystem)
            and self.space == other.space
            and self.roots == other.roots
        )

    def __hash__(self):
        return hash((self.space, self.roots))

    def __repr__(self):
        return f"FiniteRootSystem(dim={self.space.dim}, n_roots={len(self.roots)})"

    def contains(self, v: Vector) -> bool:
        return tuple(v) in self._root_set

    def norm(self, r: Vector) -> Q:
        r = tuple(r)
        if r in self._norms:
            return self._norms[r]
        return self.space.norm(r)

    def is_isotropic(self, r: Vector) -> bool:
        return self.norm(r) == 0

    def isotropic_roots(self) -> Tuple[Vector, ...]:
        return tuple(r for r in self.roots if self.norm(r) == 0)

    def nonisotropic_roots(self) -> Tuple[Vector, ...]:
        return tuple(r for r in self.roots if self.norm(r) != 0)

    def root_lattice(self) -> Lattice:
        return Lattice.from_vectors(self.space.dim, self.roots)

    def span_basis(self) -> Tuple[Vector, ...]:
        """Lexicographically first maximal independent subset of the roots."""
        idx = independent_subset(self.roots)
        return tuple(self.roots[i] for i in idx)

    def restricted_to_span(self) -> "FiniteRootSystem":
        """The same system over the span of its roots.

        Coordinates are taken with respect to the lex-first independent
        roots; when the roots already span the ambient space the system is
        returned unchanged.
        """
        basis = self.span_basis()
        if len(basis) == self.space.dim:
            return self
        gram = [[self.space.form(u, v) for v in basis] for u in basis]
        sub = BilinearSpace(gram)
        new_roots = []
        for r in self.roots:
            coords = solve_in_span(list(basis), r)
            if coords is None:
                raise DimensionMismatch("root outside the span basis")
            new_roots.append(coords)
        return FiniteRootSystem(sub, new_roots)


# ---------------------------------------------------------------------------
# Reflections


def k_value(space: BilinearSpace, alpha: Vector, beta: Vector) -> Q:
    """Cartan pairing 2(alpha, beta)/(alpha, alpha)."""
    nn = space.norm(alpha)
    if nn == 0:
        raise IsotropicBase(f"k-value at isotropic vector {alpha}")
    return 2 * space.form(alpha, beta) / nn


def reflect(space: BilinearSpace, alpha: Vector, v: Vector) -> Vector:
    """Linear reflection v - k_{alpha,v} * alpha; requires (alpha,alpha) != 0."""
    return vsub(v, vscale(k_value(space, alpha, v), alpha))


def isotropic_reflect(system: FiniteRootSystem, alpha: Vector, beta: Vector) -> Vector:
    """The set-involution image of beta under r_alpha for isotropic alpha.

    Image is -beta for beta = +-alpha, beta itself when orthogonal, and the
    unique root among beta +- alpha otherwise.
    """
    alpha, beta = tuple(alpha), tuple(beta)
    if not system.is_isotropic(alpha):
        raise IsotropicBase(f"{alpha} is not isotropic")
    if not system.contains(alpha) or not system.contains(beta):
        raise UnknownRoot("reflection arguments must be roots")
    if beta == alpha or beta == vneg(alpha):
        return vneg(beta)
    if system.space.form(alpha, beta) == 0:
        return beta
    plus = vadd(beta, alpha)
    minus = vsub(beta, alpha)
    has_plus = system.contains(plus)
    has_minus = system.contains(minus)
    if has_plus and has_minus:
        raise AmbiguousReflection(alpha, beta)
    if not has_plus and not has_minus:
        raise MissingImage(alpha, beta)
    return plus if has_plus else minus


def reflect_root(system: FiniteRootSystem, alpha: Vector, beta: Vector) -> Vector:
    """r_alpha(beta) inside the system, linear or isotropic as appropriate."""
    if system.is_isotropic(alpha):
        return isotropic_reflect(system, alpha, beta)
    return reflect(system.space, alpha, beta)


# ---------------------------------------------------------------------------
# Axiom checking


@dataclass(frozen=True)
class AxiomCheck:
    passed: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class AxiomReport:
    gr0: AxiomCheck
    gr1: AxiomCheck
    gr2: AxiomCheck
    gr3: AxiomCheck
    wgr3: AxiomCheck

    @property
    def is_grrs(self) -> bool:
        return all(c.passed for c in (self.gr0, self.gr1, self.gr2, self.gr3))

    @property
    def is_wgrs(self) -> bool:
        return all(c.passed for c in (self.gr0, self.gr1, self.gr2, self.wgr3))

    def verdict(self) -> str:
        if self.is_grrs:
            return "GRRS"
        if self.is_wgrs:
            return "WGRS"
        return "neither"


def check_axioms(system: FiniteRootSystem) -> AxiomReport:
    """Evaluate the defining axioms, recording a witness for each failure.

    The span/lattice axiom is tested as: the lattice generated by the roots
    has rank equal to dim V.  Over the rationals this is equivalent to the
    tensored map being bijective, and also to the roots spanning V.
    """
    space = system.space
    roots = system.roots

    gr0 = AxiomCheck(True)
    for r in roots:
        if space.in_kernel(r):
            gr0 = AxiomCheck(False, (r,))
            break

    gr1 = AxiomCheck(len(roots) > 0 and system.root_lattice().rank == space.dim)

    gr2 = AxiomCheck(True)
    for a in system.nonisotropic_roots():
        bad = None
        for b in roots:
            k = k_value(space, a, b)
            if k.denominator != 1:
                bad = (a, b)
                break
            if not system.contains(vsub(b, vscale(k, a))):
                bad = (a, b)
                break
        if bad:
            gr2 = AxiomCheck(False, bad)
            break

    # GR3/WGR3 via the equivalent form: R = -R, and for isotropic alpha and
    # any beta with (alpha, beta) != 0 the set {beta +- alpha} meets R in
    # exactly one (at least one) element.
    gr3_fail = None
    wgr3_fail = None
    for r in roots:
        if not system.contains(vneg(r)):
            gr3_fail = wgr3_fail = (r,)
            break
    if gr3_fail is None:
        for a in system.isotropic_roots():
            for b in roots:
                if space.form(a, b) == 0:
                    continue
                has_plus = system.contains(vadd(b, a))
                has_minus = system.contains(vsub(b, a))
                if has_plus and has_minus:
                    gr3_fail = gr3_fail or (a, b)
                elif not has_plus and not has_minus:
                    gr3_fail = gr3_fail or (a, b)
                    wgr3_fail = wgr3_fail or (a, b)
            if gr3_fail and wgr3_fail:
                break

    gr3 = AxiomCheck(gr3_fail is None, gr3_fail)
    wgr3 = AxiomCheck(wgr3_fail is None, wgr3_fail)
    return AxiomReport(gr0, gr1, gr2, gr3, wgr3)


# ---------------------------------------------------------------------------
# Subsystems, orbits, decomposition


def generate_subsystem(system: FiniteRootSystem, seeds: Sequence[Vector]) -> FiniteRootSystem:
    """Minimal subsystem containing the seeds.

    Fixpoint of X -> {+- r_a(b) : a, b in X} inside the ambient system; the
    seeds may not contain an element orthogonal to the whole seed set.
    """
    X = {tuple(v) for v in seeds}
    if not X:
        raise OrthogonalSeed("empty seed set")
    for v in X:
        if not system.contains(v):
            raise UnknownRoot(f"{v} is not a root")
    for v in X:
        if all(system.space.form(v, w) == 0 for w in X):
            raise OrthogonalSeed(f"{v} is orthogonal to the whole seed set")
    current = set(X)
    while True:
        new = set()
        for a in current:
            for b in current:
                img = reflect_root(system, a, b)
                for w in (img, vneg(img)):
                    if w not in current:
                        new.add(w)
        if not new:
            break
        current |= new
    return FiniteRootSystem(system.space, sorted(current))


def _orbit_partition(system: FiniteRootSystem, generators: Sequence[Vector]) -> List[Tuple[Vector, ...]]:
    seen = set()
    orbits = []
    for start in system.roots:
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for a in generators:
                if system.is_isotropic(a):
                    img = isotropic_reflect(system, a, v)
                else:
                    img = reflect(system.space, a, v)
                    if not system.contains(img):
                        continue
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def weyl_orbits(system: FiniteRootSystem) -> List[Tuple[Vector, ...]]:
    """Orbit partition under reflections at non-isotropic roots."""
    return _orbit_partition(system, system.nonisotropic_roots())


def gw_orbits(system: FiniteRootSystem) -> List[Tuple[Vector, ...]]:
    """Orbit partition under the involutions attached to all roots."""
    return _orbit_partition(system, system.roots)


def is_irreducible(system: FiniteRootSystem):
    """Connected components of the non-orthogonality graph on the roots.

    Returns (irreducible?, components as root systems over the same space).
    """
    roots = system.roots
    comp_of: Dict[Vector, int] = {}
    comps: List[List[Vector]] = []
    for r in roots:
        if r in comp_of:
            continue
        idx = len(comps)
        block = [r]
        comp_of[r] = idx
        frontier = [r]
        while frontier:
            v = frontier.pop()
            for w in roots:
                if w not in comp_of and system.space.form(v, w) != 0:
                    comp_of[w] = idx
                    block.append(w)
                    frontier.append(w)
        comps.append(sorted(block))
    systems = [FiniteRootSystem(system.space, block) for block in comps]
    return len(systems) <= 1, systems


def is_reduced(system: FiniteRootSystem) -> bool:
    """No proportional pair alpha, lambda*alpha with lambda outside {1, -1}."""
    for a in system.roots:
        i = next((j for j, x in enumerate(a) if x != 0), None)
        if i is None:
            continue
        for b in system.roots:
            if b[i] == 0:
                continue
            lam = b[i] / a[i]
            if lam in (1, -1):
                continue
            if b == vscale(lam, a):
                return False
    return True


def integral_subsystem(system: FiniteRootSystem, lam: Vector) -> FiniteRootSystem:
    """Roots whose Cartan pairing against lam is integral."""
    if system.isotropic_roots():
        raise IsotropicPresent("integral subsystem needs a system without isotropic roots")
    picked = [
        a for a in system.roots if k_value(system.space, a, lam).denominator == 1
    ]
    return FiniteRootSystem(system.space, picked).restricted_to_span()


# ---------------------------------------------------------------------------
# Isomorphism by homothety


class Homothety:
    """Linear map defined on the span of a root system, scaling the form."""

    def __init__(self, basis: Sequence[Vector], images: Sequence[Vector], scale: Q):
        self.basis = tuple(basis)
        self.images = tuple(images)
        self.scale = scale

    def apply(self, v: Vector) -> Vector:
        coeffs = solve_in_span(list(self.basis), tuple(Q(x) for x in v))
        if coeffs is None:
            raise DimensionMismatch("vector outside the domain span")
        out = vec([0] * len(self.images[0]))
        for c, img in zip(coeffs, self.images):
            if c:
                out = vadd(out, vscale(c, img))
        return out

    def __repr__(self):
        return f"Homothety(scale={self.scale})"


def _norm_multiset(system: FiniteRootSystem):
    return sorted(system.norm(r) for r in system.roots)


def _fingerprints(system: FiniteRootSystem, scale: Q):
    out = {}
    for a in system.roots:
        vals = sorted(scale * system.space.form(a, b) for b in system.roots)
        out[a] = tuple(vals)
    return out


def isomorphic_finite(
    sys_a: FiniteRootSystem, sys_b: FiniteRootSystem
) -> Optional[Homothety]:
    """Search for a homothety carrying one root set onto the other.

    Candidate form scales come from ratios of nonzero norms; roots are
    matched by backtracking over a spanning subset, pruned by the multiset
    of form values each root takes against the whole system.  A complete
    assignment is accepted only if it carries every root onto a root.
    """
    if len(sys_a) != len(sys_b):
        return None
    a = sys_a.restricted_to_span()
    b = sys_b.restricted_to_span()
    if a.space.dim != b.space.dim:
        return None
    norms_a = {a.norm(r) for r in a.roots if a.norm(r) != 0}
    norms_b = {b.norm(r) for r in b.roots if b.norm(r) != 0}
    if bool(norms_a) != bool(norms_b):
        return None
    if norms_a:
        candidates = sorted({nb / na for na in norms_a for nb in norms_b})
    else:
        vals_a = {a.space.form(u, v) for u in a.roots for v in a.roots} - {Q(0)}
        vals_b = {b.space.form(u, v) for u in b.roots for v in b.roots} - {Q(0)}
        if not vals_a and not vals_b:
            candidates = [Q(1)]
        elif not vals_a or not vals_b:
            return None
        else:
            candidates = sorted({vb / va for va in vals_a for vb in vals_b})

    target_norms = _norm_multiset(b)
    basis = list(a.span_basis())
    coords_cache = {r: solve_in_span(basis, r) for r in a.roots}

    for x in candidates:
        if x == 0:
            continue
        if sorted(x * a.norm(r) for r in a.roots) != target_norms:
            continue
        fp_a = _fingerprints(a, x)
        fp_b = _fingerprints(b, Q(1))
        cand = {}
        feasible = True
        for r in a.roots:
            cs = [s for s in b.roots if fp_b[s] == fp_a[r]]
            if not cs:
                feasible = False
                break
            cand[r] = cs
        if not feasible:
            continue

        assignment: List[Vector] = []

        def bijective() -> bool:
            for r in a.roots:
                img = vec([0] * b.space.dim)
                for cc, im in zip(coords_cache[r], assignment):
                    if cc:
                        img = vadd(img, vscale(cc, im))
                if not b.contains(img):
                    return False
            return True

        def extend(i: int) -> bool:
            if i == len(basis):
                return bijective()
            bi = basis[i]
            for c in cand[bi]:
                ok = True
                for j in range(i):
                    if b.space.form(c, assignment[j]) != x * a.space.form(bi, basis[j]):
                        ok = False
                        break
                if ok and b.space.norm(c) == x * a.space.norm(bi):
                    assignment.append(c)
                    if rank(assignment) == len(assignment) and extend(i + 1):
                        return True
                    assignment.pop()
            return False

        if extend(0):
            return Homothety(_lift(sys_a, a, basis), _lift(sys_b, b, assignment), x)
    return None


def _lift(system: FiniteRootSystem, restricted: FiniteRootSystem, vectors) -> List[Vector]:
    """Vectors given in the coordinates of `restricted`, the system
    restricted to its span, in the coordinates of the system itself."""
    if restricted is system:
        return list(vectors)
    span = system.span_basis()
    out = []
    for v in vectors:
        w = vec([0] * system.space.dim)
        for c, s in zip(v, span):
            if c:
                w = vadd(w, vscale(c, s))
        out.append(w)
    return out
