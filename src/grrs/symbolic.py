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
from math import lcm
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    DimensionMismatch,
    GrrsError,
    KernelTooLarge,
    NotBijective,
    NotInKernel,
    UnknownRoot,
)
from .finite import AxiomReport, FiniteRootSystem, _combination, check_classes
from .linalg import (
    BilinearSpace,
    Lattice,
    SubspaceProjection,
    Vector,
    clear_denominators,
    column_basis,
    format_vector,
    is_zero,
    rref,
    vadd,
    vneg,
    vscale,
    vec,
    vsub,
    zero_vector,
)
from .linalg import _int_combination, hnf_cosets, hnf_int, hnf_meet, hnf_pivots, hnf_reduce


class CosetSet:
    """translate + {rep_1, ..., rep_m} + M, all inside one coset of L.

    Stored in integer coordinates on the canonical basis of the ambient L
    (rank r): M is an HNF in Z^r, grown to the full stabilizer of the set,
    and the reps are a set of r-tuples reduced by it (pivot coefficients in
    [0, pivot)).  Only the translate is a vector of Q^n, the canonical
    residue mod L of any member, so equal sets over equal ambients store
    equal data.  Q^n inputs are converted once on entry; `modulus` (the
    canonical Q^n basis of M), `reps` (residues mod it, sorted) and
    `members()` are views derived on first read.  Operations on two sets
    require the same ambient.
    """

    __slots__ = ("ambient", "translate", "_mod", "_piv", "_ireps", "_hash", "_modulus", "_reps")

    def __init__(
        self, ambient: Lattice, modulus: Lattice, translate: Vector, reps: Sequence[Vector]
    ):
        # the Q^n data is scaled to integers over one denominator, once
        members = [vadd(translate, r) for r in reps]
        if members and modulus.dim != ambient.dim:
            raise DimensionMismatch("lattices of different dimensions")
        d, rows = clear_denominators(members, lcm(ambient.scale, modulus.scale))
        self._anchor(ambient, d, modulus._at(d) if members else [], rows)

    def _anchor(self, ambient: Lattice, d: int, mod, members) -> "CosetSet":
        """The members plus the row lattice of mod, all integer rows over d
        (a multiple of the ambient's scale), on the coordinates of the
        ambient: M must lie in it, and the members in one coset of it, whose
        residue is the translate."""
        mod = [ambient.reduce_int(m, d) for m in mod]
        if any(any(w) for w, _ in mod):
            raise GrrsError("modulus is not a sublattice of the ambient lattice")
        split = [ambient.reduce_int(m, d) for m in members]
        if any(w != split[0][0] for w, _ in split):
            raise GrrsError("coset members do not lie in a single ambient coset")
        t = tuple(Q(x, d) for x in split[0][0]) if split else zero_vector(ambient.dim)
        return self._set(ambient, t, [c for _, c in mod], [c for _, c in split])

    def _set(self, ambient: Lattice, translate: Vector, mod, reps) -> "CosetSet":
        """Canonical integer data.  The stabilizer of the set is M plus the
        differences rep - rep_0 that map the set to itself, as rep_0 + s
        lies in some rep + M for every stabilizing s."""
        mod = hnf_int(mod)
        piv = hnf_pivots(mod)
        reps = {hnf_reduce(r, mod, piv)[0] for r in reps}
        base = next(iter(reps), None)
        gained = [
            d for d in (vsub(r, base) for r in reps if r != base)
            if all(hnf_reduce(vadd(x, d), mod, piv)[0] in reps for x in reps)
        ]
        if gained:
            mod = hnf_int(mod + gained)
            piv = hnf_pivots(mod)
            reps = {hnf_reduce(r, mod, piv)[0] for r in reps}
        self.ambient, self.translate = ambient, translate
        self._mod, self._piv, self._ireps = tuple(map(tuple, mod)), piv, frozenset(reps)
        self._hash = self._modulus = self._reps = None
        return self

    def _moved(self, v: Vector, mod, reps) -> "CosetSet":
        """v + {sum_i r_i b_i : r in reps} + <mod> over the same ambient."""
        t, c = self.ambient.split(v)
        reps = [vadd(r, c) for r in reps]
        return CosetSet.__new__(CosetSet)._set(self.ambient, t, list(mod), reps)

    def _same_ambient(self, other: "CosetSet") -> None:
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise GrrsError("coset sets over different ambient lattices")

    @property
    def modulus(self) -> Lattice:
        if self._modulus is None:
            self._modulus = self.ambient.sublattice(self._mod)
        return self._modulus

    @property
    def reps(self) -> Tuple[Vector, ...]:
        if self._reps is None:
            # residues mod M of the reps in integers over the ambient's scale,
            # a multiple of M's; sorted there, as one positive denominator
            # keeps the lexicographic order
            mod, amb = self.modulus, self.ambient
            rows = sorted(mod.reduce_int(_int_combination(c, amb.rows, amb.dim), amb.scale)[0]
                          for c in self._ireps)
            self._reps = tuple(tuple(Q(x, amb.scale) for x in row) for row in rows)
        return self._reps

    def members(self) -> List[Vector]:
        """One representative per coset: translate + reps."""
        return [vadd(self.translate, r) for r in self.reps]

    # -- basic protocol ----------------------------------------------------

    @classmethod
    def empty(cls, ambient: Lattice) -> "CosetSet":
        return cls(ambient, Lattice.zero(ambient.dim), zero_vector(ambient.dim), [])

    @classmethod
    def full_lattice(cls, ambient: Lattice) -> "CosetSet":
        r = ambient.rank
        unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        return cls.__new__(cls)._set(ambient, zero_vector(ambient.dim), unit, [(0,) * r])

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def is_empty(self) -> bool:
        return not self._ireps

    def __eq__(self, other):
        return isinstance(other, CosetSet) and (self is other or (
            self._ireps == other._ireps and self._mod == other._mod
            and self.translate == other.translate and self.ambient == other.ambient
        ))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.translate, self._mod, self._ireps))
        return self._hash

    def __repr__(self):
        t = "0" if is_zero(self.translate) else "shifted"
        return f"CosetSet(reps={len(self._ireps)}, modulus_rank={len(self._mod)}, translate={t})"

    # -- membership and set algebra ----------------------------------------

    def _has(self, t: Vector, c) -> bool:
        """Is t + sum_i c_i b_i in the set, for t a canonical residue?"""
        return t == self.translate and hnf_reduce(c, self._mod, self._piv)[0] in self._ireps

    def _covers(self, t: Vector, reps, mod) -> bool:
        """Is t + reps + <mod> inside the set (mod an HNF in Z^r)?  One test
        per coset of the meet of mod and M in mod."""
        cosets = hnf_cosets(mod, hnf_meet(mod, self._mod), self.ambient.rank)
        return cosets is not None and all(self._has(t, vadd(r, c)) for r in reps for c in cosets)

    def _meets(self, t: Vector, c, lat) -> bool:
        """Does the set meet t + c + <lat> (lat integer rows)?"""
        big = hnf_int(list(self._mod) + list(lat))
        piv = hnf_pivots(big)
        return t == self.translate and any(
            not any(hnf_reduce(vsub(r, c), big, piv)[0]) for r in self._ireps
        )

    def contains(self, v: Vector) -> bool:
        return not self.is_empty() and self._has(*self.ambient.split(v))

    def shift(self, v: Vector) -> "CosetSet":
        if self.is_empty():
            return self
        return self._moved(vadd(self.translate, v), self._mod, self._ireps)

    def neg(self) -> "CosetSet":
        return self.scale(-1)

    def scale(self, c: int) -> "CosetSet":
        if self.is_empty():
            return self
        c = int(c)
        if c == 0:
            return self._moved(zero_vector(self.dim), (), [(0,) * self.ambient.rank])
        mod, reps = ([tuple(c * x for x in v) for v in vs] for vs in (self._mod, self._ireps))
        return self._moved(vscale(c, self.translate), mod, reps)

    def add(self, other: "CosetSet") -> "CosetSet":
        self._same_ambient(other)
        if self.is_empty() or other.is_empty():
            return CosetSet.empty(self.ambient)
        reps = [vadd(a, b) for a in self._ireps for b in other._ireps]
        return self._moved(vadd(self.translate, other.translate), self._mod + other._mod, reps)

    def subset_of(self, other: "CosetSet") -> bool:
        self._same_ambient(other)
        if self.is_empty() or other.is_empty():
            return self.is_empty()
        return other._covers(self.translate, self._ireps, self._mod)

    def same_set(self, other: "CosetSet") -> bool:
        self._same_ambient(other)
        return self == other

    def intersects_coset(self, v: Vector, lat: Lattice) -> bool:
        """Does the set meet v + lat (lat a sublattice of the ambient)?"""
        if self.is_empty():
            return False
        rows = self.ambient.coordinates(lat)
        if rows is None:
            raise GrrsError("lattice is not a sublattice of the ambient lattice")
        return self._meets(*self.ambient.split(v), rows)


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

        cleaned: List[Tuple[Vector, CosetSet]] = []
        for lift, fam in entries:
            lift = vec(lift)
            space.check_vector(lift)
            if not fam.is_empty():
                cleaned.append((lift, fam))
        if not cleaned:
            raise GrrsError("symbolic system with no nonempty families")
        # the lifts and each distinct family's (generators of M, translate,
        # members of L) in first-seen order, all as integer rows over one
        # denominator D: the family data are read off the HNF of its ambient
        fams = list(dict.fromkeys(fam for _, fam in cleaned))
        D, rows = clear_denominators([lift for lift, _ in cleaned], lcm(
            *(fam.ambient.scale for fam in fams),
            *(x.denominator for fam in fams for x in fam.translate),
        ))
        n = len(cleaned)
        order = sorted(range(n), key=rows.__getitem__)
        if len({tuple(row) for row in rows}) != n:
            raise GrrsError("duplicate lifts in symbolic system")
        # one elimination tests the lifts and keeps the splitting for resplit
        self._picked, self._coords, independent = column_basis([rows[i] for i in order], kb)
        if not independent:
            raise GrrsError("lifts are not independent from the radical")

        # family data lies in the radical; L = ZR cap Ker is generated by each
        # lift plus a first member of its family, the moduli and the
        # differences of members within each family
        gram = clear_denominators(space.gram)[1]
        gens, first, data = [], {}, {}
        for fam in fams:
            space.check_vector(fam.translate)
            amb = fam.ambient
            f = D // amb.scale
            mod, reps = ([[f * x for x in _int_combination(c, amb.rows, space.dim)] for c in cs]
                         for cs in (fam._mod, fam._ireps))
            t = clear_denominators([fam.translate], D)[1][0]
            if any(sum(map(mul, g, v)) for v in (*mod, t, *reps) for g in gram):
                raise GrrsError("family data outside the radical")
            gens += mod + [[x - y for x, y in zip(r, reps[0])] for r in reps[1:]]
            first[fam] = [x + y for x, y in zip(t, reps[0])]
            data[fam] = mod, t, reps
        gens += [[x + y for x, y in zip(lift, first[fam])] for lift, (_, fam) in zip(rows, cleaned)]
        self.L = L = Lattice(space.dim, D, hnf_int(gens)).kernel_part(space)

        # a family over another ambient is re-anchored on L, D being a
        # multiple of L's scale
        anchored = {
            fam: fam if fam.ambient == L else CosetSet.__new__(CosetSet)._anchor(
                L, D, mod, [[x + y for x, y in zip(t, r)] for r in reps])
            for fam, (mod, t, reps) in data.items()
        }
        self.entries = tuple(FamilyEntry(cleaned[i][0], anchored[cleaned[i][1]]) for i in order)

    @cached_property
    def _proj(self) -> SubspaceProjection:
        return SubspaceProjection(self.space.dim, self.space.kernel_basis())

    @cached_property
    def _classes(self) -> Tuple[Vector, ...]:
        """Each entry's class in the minimal quotient, in the order of entries."""
        return tuple(self._proj.apply(e.lift) for e in self.entries)

    @cached_property
    def _by_lift(self) -> Dict[Vector, CosetSet]:
        return {e.lift: e.family for e in self.entries}

    @cached_property
    def _by_cl(self) -> Dict[Vector, FamilyEntry]:
        return dict(zip(self._classes, self.entries))

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
        lift = vec(lift)
        if lift not in self._by_lift:
            raise UnknownRoot(f"{format_vector(lift)} is not a class of the system")
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
        cl_root = vec(cl_root)
        if len(cl_root) == self.space.dim:
            cl_root = self._proj.apply(cl_root)
        if cl_root not in self._by_cl:
            raise UnknownRoot(f"{format_vector(cl_root)} is not a root of the minimal quotient")
        return self._by_cl[cl_root]

    def contains(self, v: Vector) -> bool:
        v = vec(v)
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
            off = vec(offsets.get(b, zero_vector(dim)))
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


def from_finite(system: FiniteRootSystem) -> SymbolicRootSystem:
    """View a finite system symbolically with respect to its radical.

    Each root's lift is the root minus its part in the radical.  In the RREF
    of [radical basis | roots] the independent radical basis takes the first
    k pivots, and row i holds every root's coefficient on its vector i."""
    dim, kb = system.space.dim, system.space.kernel_basis()
    k, zero = len(kb), zero_vector(dim)
    reduced = rref(list(zip(*kb, *system.roots)))[0][:k] if k else []
    groups: Dict[Vector, List[Vector]] = {}
    for j, r in enumerate(system.roots):
        off = _combination([Q(row[k + j], row[i]) for i, row in enumerate(reduced)], kb, dim)
        groups.setdefault(vsub(r, off) if k else r, []).append(off)
    ambient = Lattice.from_vectors(dim, [v for vs in groups.values() for v in vs])
    # one coset set per distinct offset set
    families: Dict[frozenset, CosetSet] = {}
    for offs in groups.values():
        if frozenset(offs) not in families:
            families[frozenset(offs)] = CosetSet(ambient, Lattice.zero(dim), zero, offs)
    return SymbolicRootSystem(system.space, [
        (lift, families[frozenset(offs)]) for lift, offs in groups.items()
    ])


def _padded(space: BilinearSpace, n: int) -> Tuple[BilinearSpace, Callable[[Vector], Vector]]:
    """The space with n central coordinates appended (zero rows and columns
    of the Gram matrix), and the map appending n zeros to a vector."""
    zeros = (Q(0),) * n
    gram = [tuple(row) + zeros for row in space.gram] + [(Q(0),) * (space.dim + n)] * n
    return BilinearSpace(gram), lambda v: tuple(v) + zeros


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
    old, L = system.space, system.L
    space, pad = _padded(old, n)
    dim, r = space.dim, L.rank
    # L's rows padded by zeros, then scale * delta_i: already an HNF
    big = Lattice(dim, L.scale, [row + (0,) * n for row in L.rows] + [
        tuple(L.scale if j == old.dim + i else 0 for j in range(dim)) for i in range(n)
    ])
    # coordinates on big: a member of L keeps its own, delta_i is unit r + i
    deltas = [tuple(int(j == r + i) for j in range(r + n)) for i in range(n)]

    def extend(fam: CosetSet) -> CosetSet:
        mod = [c + (0,) * n for c in fam._mod] + deltas
        reps = [c + (0,) * n for c in fam._ireps]
        # families are anchored to L; a residue mod L padded by zeros is one mod big
        return CosetSet.__new__(CosetSet)._set(big, pad(fam.translate), mod, reps)

    extended = {fam: extend(fam) for fam in dict.fromkeys(e.family for e in system.entries)}
    return SymbolicRootSystem(space, [(pad(e.lift), extended[e.family]) for e in system.entries])


def quotient(
    system: SymbolicRootSystem, kernel_vectors: Sequence[Vector], require_bijective: bool = False
) -> SymbolicRootSystem:
    """Push the system forward along V -> V/U for U inside the radical."""
    vecs = [vec(v) for v in kernel_vectors]
    for v in vecs:
        system.space.check_vector(v)
        if not system.space.in_kernel(v):
            raise NotInKernel(f"{format_vector(v)} is not in the radical")
    proj = SubspaceProjection(system.space.dim, vecs)
    if not proj.pivots:
        return system
    kept = proj.kept
    gram = [[system.space.gram[i][j] for j in kept] for i in kept]
    new_space = BilinearSpace(gram)
    new_dim = len(kept)

    basis = [proj.apply(b) for b in system.L.basis]
    image = Lattice.from_vectors(new_dim, basis)

    def push(fam: CosetSet) -> CosetSet:
        # the family lies over system.L: its data are combinations of L's
        # basis, so their images lie in image
        gens, reps = ([_combination(c, basis, new_dim) for c in cs]
                      for cs in (fam._mod, fam._ireps))
        mod = Lattice.from_vectors(new_dim, gens)
        if require_bijective:
            if mod.rank < len(gens):
                raise NotBijective("a family coset collapses along the quotient")
            for a, b in itertools.combinations(reps, 2):
                if mod.member(vsub(a, b)):
                    raise NotBijective("two family cosets merge along the quotient")
        return CosetSet(image, mod, proj.apply(fam.translate), reps)

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
    out = []
    for e in system.entries:
        fam = e.family
        # one coset of M in L = Z b: the index of M, or 0 when M = 0
        g = (fam._mod[0][0] if fam._mod else 0) if len(fam._ireps) == 1 else None
        if g is None and system.space.norm(e.lift) != 0:
            raise GrrsError("no single arithmetic progression above non-isotropic class "
                            + format_vector(e.lift))
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
    # the four families share their ambient; y + x and y - x are tp and tm
    # plus integer coordinates, and an empty C or D needs no special case
    amb = A.ambient
    tp, op = amb.split(vadd(B.translate, A.translate))
    tm, om = amb.split(vsub(B.translate, A.translate))
    sigma = hnf_int(list(A._mod + B._mod))
    cd = hnf_meet(C._mod, D._mod)
    cos_a = hnf_cosets(A._mod, hnf_meet(A._mod, cd), amb.rank)
    cos_b = hnf_cosets(B._mod, hnf_meet(B._mod, cd), amb.rank)
    for a in A._ireps:
        for b in B._ireps:
            plus, minus = vadd(vadd(b, a), op), vadd(vsub(b, a), om)
            if cos_a is not None and cos_b is not None:
                for m, mp in itertools.product(cos_a, cos_b):
                    inplus = C._has(tp, vadd(plus, vadd(m, mp)))
                    inminus = D._has(tm, vadd(minus, vsub(mp, m)))
                    if inplus and inminus:
                        gr3_ok = False
                    elif not inplus and not inminus:
                        return False, False
                continue
            plus_in_c = C._covers(tp, [plus], sigma)
            minus_in_d = D._covers(tm, [minus], sigma)
            uniform_minus = not C._meets(tp, plus, sigma) and minus_in_d
            uniform_plus = not D._meets(tm, minus, sigma) and plus_in_c
            if not (uniform_minus or uniform_plus):
                gr3_ok = False
                if not (plus_in_c or minus_in_d):
                    return False, False
    return gr3_ok, True


def check_symbolic_axioms(system: SymbolicRootSystem) -> AxiomReport:
    """Same semantics as the finite checker, in two layers.

    Class layer: `check_classes` on cl(R), in the order of the entries, each
    class named by its lift.  The lifts span a complement of the radical, so
    the lift above -a, b +- a or r_a(b) is that combination of lifts, and
    the quotient's index of a class stands for its entry.  GR1 splits as
    rank ZR = rank of the classes + rank L, since L = ZR cap Ker.  Family
    layer: each coset test depends only on the families that meet, numbered
    by value (id -1 is the empty family of a missing class), and is decided
    once per tuple of ids.
    """
    cl = system.cl()
    # each entry's index in cl.roots, in the order of entries
    order = [cl._index[c] for c in system._classes]
    ids: Dict[CosetSet, int] = {}
    fid: Dict[Optional[int], int] = {None: -1}  # cl index -> family id
    for e, i in zip(system.entries, order):
        fid[i] = ids.setdefault(e.family, len(ids))
    fams = list(ids) + [CosetSet.empty(system.L)]
    lifts = dict(zip(order, system.lifts))

    # the family tests, by family id
    reflects = cache(lambda a, b, k, t: fams[b].add(fams[a].scale(-k)).subset_of(fams[t]))
    negates = cache(lambda a, m: fams[m].same_set(fams[a].neg()))
    xor = cache(lambda a, b, c, d: _xor_check(fams[a], fams[b], fams[c], fams[d]))
    return check_classes(
        cl, order, lifts.__getitem__, system.L.rank == system.kernel_dim,
        lambda i, j, k, t: reflects(fid[i], fid[j], k, fid[t]),
        lambda i, m: negates(fid[i], fid[m]),
        lambda i, j, plus, minus: xor(fid[i], fid[j], fid[plus], fid[minus]),
    )
