"""Affine root systems represented symbolically as lattice-coset families.

An infinite system with finite minimal quotient is stored as a finite set of
"lifts" (one vector per class in a fixed complement V' of the radical)
together with, for each lift, the set of radical offsets above it.  Offset
sets are `CosetSet`s: finite unions of cosets of a modulus lattice inside a
single coset of the shared lattice L = ZR cap Ker(-,-).

All axiom checks reduce to finitely many coset computations; no root is ever
materialized beyond representatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache, cached_property
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    GrrsError,
    KernelTooLarge,
    NotBijective,
    NotInKernel,
    UnknownRoot,
)
from .finite import AxiomCheck, AxiomReport, FiniteRootSystem, _combination
from .linalg import (
    BilinearSpace,
    Lattice,
    SubspaceProjection,
    Vector,
    is_zero,
    rref,
    unit_vector,
    vadd,
    vneg,
    vscale,
    vsub,
    zero_vector,
)


class CosetSet:
    """translate + {rep_1, ..., rep_m} + M, all inside one coset of L.

    Canonical on construction: the translate is the canonical residue mod L
    of any member, reps are canonical residues mod M, and M is maximized to
    the full stabilizer of the set, so equal sets with equal ambient compare
    literally equal.
    """

    __slots__ = ("ambient", "modulus", "translate", "reps", "_repset")

    def __init__(
        self,
        ambient: Lattice,
        modulus: Lattice,
        translate: Vector,
        reps: Sequence[Vector],
    ):
        dim = ambient.dim
        members0 = [vadd(tuple(Q(x) for x in translate), tuple(Q(x) for x in r)) for r in reps]
        if not members0:
            self.ambient = ambient
            self.modulus = Lattice.zero(dim)
            self.translate = zero_vector(dim)
            self.reps = ()
            self._repset = frozenset()
            return
        if not ambient.contains_lattice(modulus):
            raise GrrsError("modulus is not a sublattice of the ambient lattice")
        t = ambient.residue(members0[0])
        rel = []
        for m in members0:
            d = vsub(m, t)
            if not ambient.member(d):
                raise GrrsError("coset members do not lie in a single ambient coset")
            rel.append(d)
        mod = modulus
        reps_c = sorted({mod.residue(r) for r in rel})
        # grow the modulus to the full stabilizer of the set
        while True:
            repset = set(reps_c)
            gained = []
            base = reps_c[0]
            for other in reps_c[1:]:
                d = vsub(other, base)
                if all(mod.residue(vadd(r, d)) in repset for r in reps_c):
                    gained.append(d)
            if not gained:
                break
            new_mod = mod.add(Lattice.from_vectors(dim, gained))
            if new_mod == mod:
                break
            mod = new_mod
            reps_c = sorted({mod.residue(r) for r in reps_c})
        self.ambient = ambient
        self.modulus = mod
        self.translate = t
        self.reps = tuple(reps_c)
        self._repset = frozenset(reps_c)

    # -- basic protocol ----------------------------------------------------

    @classmethod
    def empty(cls, ambient: Lattice) -> "CosetSet":
        return cls(ambient, Lattice.zero(ambient.dim), zero_vector(ambient.dim), [])

    @classmethod
    def full_lattice(cls, ambient: Lattice) -> "CosetSet":
        return cls(ambient, ambient, zero_vector(ambient.dim), [zero_vector(ambient.dim)])

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def is_empty(self) -> bool:
        return not self.reps

    def __eq__(self, other):
        return (
            isinstance(other, CosetSet)
            and self.ambient == other.ambient
            and self.modulus == other.modulus
            and self.translate == other.translate
            and self.reps == other.reps
        )

    def __hash__(self):
        return hash((self.ambient, self.modulus, self.translate, self.reps))

    def __repr__(self):
        return (
            f"CosetSet(reps={len(self.reps)}, modulus_rank={self.modulus.rank}, "
            f"translate={'0' if is_zero(self.translate) else 'shifted'})"
        )

    # -- membership and set algebra ----------------------------------------

    def contains(self, v: Vector) -> bool:
        if self.is_empty():
            return False
        return self.modulus.residue(vsub(tuple(Q(x) for x in v), self.translate)) in self._repset

    def members(self) -> List[Vector]:
        """One representative per coset: translate + reps."""
        return [vadd(self.translate, r) for r in self.reps]

    def shift(self, v: Vector) -> "CosetSet":
        if self.is_empty():
            return self
        return CosetSet(
            self.ambient, self.modulus, vadd(self.translate, tuple(Q(x) for x in v)), self.reps
        )

    def neg(self) -> "CosetSet":
        return self.scale(-1)

    def scale(self, c: int) -> "CosetSet":
        if self.is_empty():
            return self
        c = int(c)
        if c == 0:
            return CosetSet(
                self.ambient,
                Lattice.zero(self.dim),
                zero_vector(self.dim),
                [zero_vector(self.dim)],
            )
        return CosetSet(
            self.ambient,
            self.modulus.scaled(c),
            vscale(c, self.translate),
            [vscale(c, r) for r in self.reps],
        )

    def add(self, other: "CosetSet") -> "CosetSet":
        if self.is_empty() or other.is_empty():
            return CosetSet.empty(self.ambient)
        mod = self.modulus.add(other.modulus)
        reps = [vadd(a, b) for a in self.reps for b in other.reps]
        return CosetSet(self.ambient, mod, vadd(self.translate, other.translate), reps)

    def subset_of(self, other: "CosetSet") -> bool:
        if self.is_empty():
            return True
        if other.is_empty():
            return False
        common = self.modulus.intersect(other.modulus)
        if common.rank < self.modulus.rank:
            return False
        cosreps = self.modulus.coset_representatives(common)
        for r in self.reps:
            base = vadd(self.translate, r)
            for cr in cosreps:
                if not other.contains(vadd(base, cr)):
                    return False
        return True

    def same_set(self, other: "CosetSet") -> bool:
        if (
            self.modulus == other.modulus
            and self.translate == other.translate
            and self.reps == other.reps
        ):
            return True
        return self.subset_of(other) and other.subset_of(self)

    def intersects_coset(self, v: Vector, lat: Lattice) -> bool:
        """Does the set meet v + lat?"""
        if self.is_empty():
            return False
        big = self.modulus.add(lat)
        for r in self.reps:
            if big.member(vsub(vadd(self.translate, r), tuple(Q(x) for x in v))):
                return True
        return False


# ---------------------------------------------------------------------------
# Symbolic systems


@dataclass(frozen=True)
class FamilyEntry:
    lift: Vector
    family: CosetSet


class SymbolicRootSystem:
    """R = union over entries of (lift + family), family inside Ker(-,-)."""

    def __init__(self, space: BilinearSpace, entries: Sequence[Tuple[Vector, CosetSet]]):
        self.space = space
        kb = space.kernel_basis()
        self.kernel_dim = len(kb)
        self._proj = SubspaceProjection(space.dim, kb)

        cleaned: List[Tuple[Vector, CosetSet]] = []
        for lift, fam in entries:
            lift = tuple(Q(x) for x in lift)
            space.check_vector(lift)
            if fam.is_empty():
                continue
            cleaned.append((lift, fam))
        if not cleaned:
            raise GrrsError("symbolic system with no nonempty families")
        # each distinct family once, in first-seen order
        distinct = dict.fromkeys(fam for _, fam in cleaned)
        cleaned.sort(key=lambda e: e[0])
        lifts = [lift for lift, _ in cleaned]
        if len(set(lifts)) != len(lifts):
            raise GrrsError("duplicate lifts in symbolic system")
        # one elimination tests the lifts and keeps the splitting for resplit
        self._picked, self._coords, independent = _splitting(space, lifts)
        if not independent:
            raise GrrsError("lifts are not independent from the radical")

        # kernel-part sanity for all family data
        for fam in distinct:
            for v in list(fam.modulus.basis) + [fam.translate] + list(fam.reps):
                if not space.in_kernel(v):
                    raise GrrsError("family data outside the radical")

        # shared lattice L = ZR cap Ker
        gens: List[Vector] = [b for fam in distinct for b in fam.modulus.basis]
        gens += [vadd(lift, m) for lift, fam in cleaned for m in fam.members()]
        self.L = Lattice.from_vectors(space.dim, gens).kernel_part(space)

        anchored = {fam: CosetSet(self.L, fam.modulus, fam.translate, fam.reps) for fam in distinct}
        self.entries: Tuple[FamilyEntry, ...] = tuple(
            FamilyEntry(lift, anchored[fam]) for lift, fam in cleaned
        )
        self._by_lift: Dict[Vector, CosetSet] = {e.lift: e.family for e in self.entries}
        # each entry's class in the minimal quotient, in the order of entries
        self._classes: Tuple[Vector, ...] = tuple(self._proj.apply(e.lift) for e in self.entries)
        self._by_cl: Dict[Vector, FamilyEntry] = dict(zip(self._classes, self.entries))

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SymbolicRootSystem)
            and self.space == other.space
            and self.entries == other.entries
        )

    def __repr__(self):
        return (
            f"SymbolicRootSystem(dim={self.space.dim}, kernel_dim={self.kernel_dim}, "
            f"classes={len(self.entries)})"
        )

    @property
    def lifts(self) -> Tuple[Vector, ...]:
        return tuple(e.lift for e in self.entries)

    def splitting(self) -> Tuple[Vector, ...]:
        """Lex-first lifts forming a basis of the complement V'."""
        return tuple(self.entries[i].lift for i in self._picked)

    def family_of_lift(self, lift: Vector) -> CosetSet:
        lift = tuple(Q(x) for x in lift)
        if lift not in self._by_lift:
            raise UnknownRoot(f"{lift} is not a class of the system")
        return self._by_lift[lift]

    def cl(self) -> FiniteRootSystem:
        """Minimal quotient, realized on the non-pivot coordinates of V/Ker."""
        return self._cl

    @cached_property
    def _cl(self) -> FiniteRootSystem:
        kept = self._proj.kept
        gram = [[self.space.gram[i][j] for j in kept] for i in kept]
        return FiniteRootSystem(BilinearSpace(gram), self._classes)

    def entry_for_cl(self, cl_root: Vector) -> FamilyEntry:
        cl_root = tuple(Q(x) for x in cl_root)
        if len(cl_root) == self.space.dim:
            cl_root = self._proj.apply(cl_root)
        if cl_root not in self._by_cl:
            raise UnknownRoot(f"{cl_root} is not a root of the minimal quotient")
        return self._by_cl[cl_root]

    def contains(self, v: Vector) -> bool:
        v = tuple(Q(x) for x in v)
        self.space.check_vector(v)
        w = self._proj.apply(v)
        entry = self._by_cl.get(w)
        if entry is None:
            return False
        # _by_cl is keyed by the projection along the radical: v - lift is in it
        return entry.family.contains(vsub(v, entry.lift))

    def resplit(self, offsets: Dict[Vector, Vector]) -> "SymbolicRootSystem":
        """Rebuild with splitting roots shifted by the given family members.

        `offsets` maps splitting lifts to members of their families; the root
        set is unchanged, only the complement V' (hence all lifts and
        families) moves.
        """
        dim = self.space.dim
        shifts = []
        for b in self.splitting():
            off = tuple(Q(x) for x in offsets.get(b, zero_vector(dim)))
            if not is_zero(off) and not self.family_of_lift(b).contains(off):
                raise UnknownRoot("offset is not a member of the splitting family")
            shifts.append(off)
        new_entries = []
        for e, c in zip(self.entries, self._coords):
            lam = _combination(c, shifts, dim)
            new_entries.append((vadd(e.lift, lam), e.family.shift(vneg(lam))))
        return SymbolicRootSystem(self.space, new_entries)


# ---------------------------------------------------------------------------
# Constructions


def _splitting(
    space: BilinearSpace, vectors: Sequence[Vector]
) -> Tuple[List[int], List[Vector], bool]:
    """Indices of the first vectors independent modulo the radical, every
    vector's coordinates on them, and whether the span of the vectors meets
    the radical only in 0.

    One elimination of the matrix whose columns are the radical basis and
    then the vectors: the radical basis takes the first pivots, the pivots
    after it pick the vectors, and the reduced rows below the radical's hold
    each column's coefficients on those picked vectors.  The radical's rows
    hold each column's radical part, so the span meets the radical only in 0
    exactly when they vanish at every vector column.
    """
    m = len(space.kernel_basis())
    reduced, pivots = rref(list(zip(*space.kernel_basis(), *vectors)))
    coords = [tuple(row[m + j] for row in reduced[m:]) for j in range(len(vectors))]
    independent = all(x == 0 for row in reduced[:m] for x in row[m:])
    return [p - m for p in pivots[m:]], coords, independent


def from_finite(system: FiniteRootSystem) -> SymbolicRootSystem:
    """View a finite system symbolically with respect to its radical."""
    dim = system.space.dim
    picked, coords, _ = _splitting(system.space, system.roots)
    chosen = [system.roots[i] for i in picked]
    zero_mod = Lattice.zero(dim)
    groups: Dict[Vector, List[Vector]] = {}
    for r, c in zip(system.roots, coords):
        lift = _combination(c, chosen, dim)
        groups.setdefault(lift, []).append(vsub(r, lift))
    ambient = Lattice.from_vectors(dim, [v for vs in groups.values() for v in vs])
    entries = []
    for lift, offs in groups.items():
        entries.append((lift, CosetSet(ambient, zero_mod, zero_vector(dim), offs)))
    return SymbolicRootSystem(system.space, entries)


def affinize(
    system: Union[FiniteRootSystem, SymbolicRootSystem], n: int = 1
) -> SymbolicRootSystem:
    """Extend by n isotropic central directions; every family gains Z delta_i."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if isinstance(system, FiniteRootSystem):
        system = from_finite(system)
    if n == 0:
        return system
    old = system.space
    dim = old.dim + n
    gram = [
        [old.gram[i][j] if i < old.dim and j < old.dim else Q(0) for j in range(dim)]
        for i in range(dim)
    ]
    space = BilinearSpace(gram)

    def pad(v: Vector) -> Vector:
        return tuple(list(v) + [Q(0)] * n)

    delta_block = [unit_vector(dim, old.dim + i) for i in range(n)]
    big = Lattice.from_vectors(dim, [pad(b) for b in system.L.basis] + delta_block)

    def extend(fam: CosetSet) -> CosetSet:
        mod = Lattice.from_vectors(dim, [pad(b) for b in fam.modulus.basis] + delta_block)
        return CosetSet(big, mod, pad(fam.translate), [pad(r) for r in fam.reps])

    extended = {fam: extend(fam) for fam in dict.fromkeys(e.family for e in system.entries)}
    return SymbolicRootSystem(space, [(pad(e.lift), extended[e.family]) for e in system.entries])


def quotient(
    system: SymbolicRootSystem,
    kernel_vectors: Sequence[Vector],
    require_bijective: bool = False,
) -> SymbolicRootSystem:
    """Push the system forward along V -> V/U for U inside the radical."""
    vecs = [tuple(Q(x) for x in v) for v in kernel_vectors]
    for v in vecs:
        system.space.check_vector(v)
        if not system.space.in_kernel(v):
            raise NotInKernel(f"{v} is not in the radical")
    proj = SubspaceProjection(system.space.dim, vecs)
    if not proj.pivots:
        return system
    kept = proj.kept
    gram = [[system.space.gram[i][j] for j in kept] for i in kept]
    new_space = BilinearSpace(gram)
    new_dim = len(kept)

    lattice_images = [proj.apply(b) for b in system.L.basis]

    def push(fam: CosetSet) -> CosetSet:
        mod = Lattice.from_vectors(new_dim, [proj.apply(b) for b in fam.modulus.basis])
        if require_bijective:
            if mod.rank < fam.modulus.rank:
                raise NotBijective("a family coset collapses along the quotient")
            for a, b in itertools.combinations(fam.reps, 2):
                if mod.member(proj.apply(vsub(a, b))):
                    raise NotBijective("two family cosets merge along the quotient")
        amb = Lattice.from_vectors(new_dim, lattice_images + list(mod.basis))
        return CosetSet(amb, mod, proj.apply(fam.translate), [proj.apply(r) for r in fam.reps])

    pushed = {fam: push(fam) for fam in dict.fromkeys(e.family for e in system.entries)}
    return SymbolicRootSystem(
        new_space, [(proj.apply(e.lift), pushed[e.family]) for e in system.entries]
    )


# ---------------------------------------------------------------------------
# Operations of the minimal-quotient calculus


def contains(system: SymbolicRootSystem, v: Vector) -> bool:
    """Exact membership of a concrete vector in the infinite root set."""
    return system.contains(v)


def cl(system: SymbolicRootSystem) -> FiniteRootSystem:
    return system.cl()


def F_of(system: SymbolicRootSystem, cl_root: Vector) -> CosetSet:
    """The offset family above a class of the minimal quotient."""
    return system.entry_for_cl(cl_root).family


@dataclass(frozen=True)
class GapTable:
    """Gap per lift; None marks classes where no single progression exists."""

    entries: Tuple[Tuple[Vector, Optional[int]], ...]

    def by_lift(self) -> Dict[Vector, Optional[int]]:
        return dict(self.entries)


def gaps(system: SymbolicRootSystem) -> GapTable:
    """Arithmetic-progression indices of the families over a 1-dim radical."""
    if system.kernel_dim > 1:
        raise KernelTooLarge("gaps need a one-dimensional radical")
    L = system.L
    out = []
    for e in system.entries:
        fam = e.family
        iso = system.space.norm(e.lift) == 0
        g: Optional[int] = None
        if len(fam.reps) == 1:
            if fam.modulus.rank == 0:
                g = 0
            elif L.rank == 1:
                idx = fam.modulus.index_in(L)
                g = idx
        if g is None and not iso:
            raise GrrsError(
                f"no single arithmetic progression above non-isotropic class {e.lift}"
            )
        out.append((e.lift, g))
    return GapTable(tuple(out))


# ---------------------------------------------------------------------------
# Axiom checking


def _xor_check(A: CosetSet, B: CosetSet, C: CosetSet, D: CosetSet):
    """For all x in A, y in B: exactly/at least one of y+x in C, y-x in D.

    Returns (gr3_ok, wgr3_ok); a WGR3 failure returns at once.  Membership
    of y+x depends on (x, y) only through residues mod the moduli of C and
    D, so the quantifier is finite whenever those moduli are commensurate
    with the moduli of A and B.
    Otherwise the pairs (x, y) form a lattice M on which "y+x in C" and
    "y-x in D" each hold on finitely many cosets of a sublattice, and one of
    the two sublattices has lower rank than M.  As no coset of a lattice is
    covered by finitely many cosets of lower-rank sublattices, "at least
    one" holds on M exactly when all y+x lie in C or all y-x lie in D;
    "exactly one" holds only for the two uniform dichotomies.
    """
    gr3_ok = True
    sigma = A.modulus.add(B.modulus)
    for a in A.reps:
        x0 = vadd(A.translate, a)
        for b in B.reps:
            y0 = vadd(B.translate, b)
            splus = vadd(y0, x0)
            sminus = vsub(y0, x0)
            if C.is_empty() and D.is_empty():
                return False, False
            if C.is_empty() or D.is_empty():
                target = D if C.is_empty() else C
                probe = sminus if C.is_empty() else splus
                cos = CosetSet(A.ambient, sigma, probe, [zero_vector(A.dim)])
                if not cos.subset_of(target):
                    return False, False
                continue
            qa = A.modulus.intersect(C.modulus).intersect(D.modulus)
            qb = B.modulus.intersect(C.modulus).intersect(D.modulus)
            if qa.rank == A.modulus.rank and qb.rank == B.modulus.rank:
                for m in A.modulus.coset_representatives(qa):
                    for mp in B.modulus.coset_representatives(qb):
                        inplus = C.contains(vadd(splus, vadd(m, mp)))
                        inminus = D.contains(vadd(sminus, vsub(mp, m)))
                        if inplus and inminus:
                            gr3_ok = False
                        elif not inplus and not inminus:
                            return False, False
                continue
            plus_cos = CosetSet(A.ambient, sigma, splus, [zero_vector(A.dim)])
            minus_cos = CosetSet(A.ambient, sigma, sminus, [zero_vector(A.dim)])
            uniform_minus = (
                not C.intersects_coset(splus, sigma) and minus_cos.subset_of(D)
            )
            uniform_plus = (
                not D.intersects_coset(sminus, sigma) and plus_cos.subset_of(C)
            )
            if not (uniform_minus or uniform_plus):
                gr3_ok = False
                if not (plus_cos.subset_of(C) or minus_cos.subset_of(D)):
                    return False, False
    return gr3_ok, True


def check_symbolic_axioms(system: SymbolicRootSystem) -> AxiomReport:
    """Same semantics as the finite checker, in two layers.

    Class layer: the finite reflection rule on cl(R), read from its integer
    view.  The lifts span a complement of the radical, so the lift above -a,
    b +- a or r_a(b) is that combination of lifts, and the quotient's index
    of a class stands for its entry.  GR1 splits as rank ZR = rank of the
    classes + rank L, since L = ZR cap Ker.  Family layer: each coset test
    depends only on the families that meet, numbered by value (id -1 is the
    empty family of a missing class), and is decided once per tuple of ids.
    """
    cl = system.cl()
    view = cl._view
    P = view.pairings
    # entries in their own order, each with its index in cl.roots
    pairs = [(e, cl._index[c]) for e, c in zip(system.entries, system._classes)]
    ids: Dict[CosetSet, int] = {}
    fid: Dict[Optional[int], int] = {None: -1}  # cl index -> family id
    for e, i in pairs:
        fid[i] = ids.setdefault(e.family, len(ids))
    fams = list(ids) + [CosetSet.empty(system.L)]

    @cache
    def reflects_into(a: int, b: int, k: int, t: int) -> bool:
        return fams[b].add(fams[a].scale(-k)).subset_of(fams[t])

    @cache
    def negates(a: int, m: int) -> bool:
        return fams[m].same_set(fams[a].neg())

    @cache
    def xor(a: int, b: int, c: int, d: int):
        return _xor_check(fams[a], fams[b], fams[c], fams[d])

    zero = next((e.lift for e, i in pairs if is_zero(cl.roots[i])), None)
    gr0 = AxiomCheck(zero is None, None if zero is None else (zero,))
    gr1 = AxiomCheck(len(cl._span[0]) == cl.space.dim and system.L.rank == system.kernel_dim)

    gr2_fail = None
    for ea, i in ((e, i) for e, i in pairs if P[i][i]):
        for eb, j in pairs:
            if 2 * P[i][j] % P[i][i]:
                gr2_fail = (ea.lift, eb.lift)
                break
            k = 2 * P[i][j] // P[i][i]
            if k == 0:
                continue
            t = view.image(i, j)
            if t is None or not reflects_into(fid[i], fid[j], k, fid[t]):
                gr2_fail = (ea.lift, eb.lift)
                break
        if gr2_fail:
            break
    gr2 = AxiomCheck(gr2_fail is None, gr2_fail)

    # R = -R at family level
    gr3_fail = wgr3_fail = next(
        ((e.lift,) for e, i in pairs
         if view.neg[i] is None or not negates(fid[i], fid[view.neg[i]])),
        None,
    )
    if gr3_fail is None:
        for ea, i in ((e, i) for e, i in pairs if not P[i][i]):
            for eb, j in ((e, j) for e, j in pairs if P[i][j]):
                ok3, okw = xor(fid[i], fid[j], fid[view.shift(j, i, 1)], fid[view.shift(j, i, -1)])
                if not ok3:
                    gr3_fail = gr3_fail or (ea.lift, eb.lift)
                if not okw:
                    wgr3_fail = wgr3_fail or (ea.lift, eb.lift)
                if gr3_fail and wgr3_fail:
                    break
            if gr3_fail and wgr3_fail:
                break

    gr3 = AxiomCheck(gr3_fail is None, gr3_fail)
    wgr3 = AxiomCheck(wgr3_fail is None, wgr3_fail)
    return AxiomReport(gr0, gr1, gr2, gr3, wgr3)
