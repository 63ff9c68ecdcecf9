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
from fractions import Fraction as Q
from functools import cache, cached_property
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import (
    DimensionMismatch,
    GrrsError,
    KernelTooLarge,
    NotBijective,
    NotInKernel,
    UnknownRoot,
)
from .finite import AxiomReport, FiniteRootSystem, check_classes
from .linalg import (
    BilinearSpace,
    Lattice,
    SubspaceProjection,
    Vector,
    _Record,
    clear_denominators,
    column_basis,
    format_vector,
    rref,
    vadd,
    vsub,
)
from .linalg import _int_combination, hnf_cosets, hnf_int, hnf_meet, hnf_pivots, hnf_reduce


class CosetSet:
    """translate + {rep_1, ..., rep_m} + M, all inside one coset of L.

    Stored in integers on the canonical basis of the ambient L (rank r): M
    is an HNF in Z^r, grown to the full stabilizer of the set, the reps are
    r-tuples reduced by it (pivot coefficients in [0, pivot)), and `_t` =
    (d, u) is the translate, the canonical residue mod L of any member, as
    the row u over the least d that the ambient's scale divides.  Builders
    enter integer rows through `_anchor`, which `CosetSet(...)` calls on its
    cleared Q^n input; `translate`, `modulus` (the basis of M), `reps`
    (sorted residues mod it) and `members()` are views read on first use.
    Equal sets store equal integers; two sets must share their ambient.
    """

    __slots__ = ("ambient", "_t", "_mod", "_piv", "_ireps", "_hash", "_translate", "_modulus",
                 "_reps")

    def __init__(
        self, ambient: Lattice, modulus: Lattice, translate: Vector, reps: Sequence[Vector]
    ):
        # the Q^n data is checked and read as integer rows over one denominator, once
        d, (t, *reps) = clear_denominators([translate, *reps], lcm(ambient.scale, modulus.scale),
                                           ambient.dim, "translate or rep of wrong length")
        if reps and modulus.dim != ambient.dim:
            raise DimensionMismatch("lattices of different dimensions")
        self._anchor(ambient, d, modulus._at(d) if reps else [], [vadd(t, r) for r in reps])

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
        t = split[0][0] if split else (0,) * ambient.dim
        return self._set(ambient, d, t, [c for _, c in mod], [c for _, c in split])

    def _set(self, ambient: Lattice, d: int, w, mod, reps) -> "CosetSet":
        """w / d + {sum_i r_i b_i : r in reps} + <mod> as canonical integer
        data, d a multiple of the ambient's scale.  The stabilizer of the set
        is M plus the differences rep - rep_0 that map the set to itself, as
        rep_0 + s lies in some rep + M for every stabilizing s.  Such an s
        permutes the m cosets, so it fixes their sum mod M: m s lies in M,
        which one reduction tests before the set is walked."""
        t, c = ambient.residue_row(w, d)
        mod = hnf_int(mod)
        piv = hnf_pivots(mod)
        reps = {hnf_reduce(vadd(r, c), mod, piv)[0] for r in reps}
        base, m = next(iter(reps), None), len(reps)
        gained = [
            s for s in (vsub(r, base) for r in reps if r != base)
            if not any(hnf_reduce([m * x for x in s], mod, piv)[0])
            and all(hnf_reduce(vadd(x, s), mod, piv)[0] in reps for x in reps)
        ]
        if gained:
            mod = hnf_int([*mod, *gained])
            piv = hnf_pivots(mod)
            reps = {hnf_reduce(r, mod, piv)[0] for r in reps}
        self.ambient, self._t = ambient, t
        self._mod, self._piv, self._ireps = mod, piv, frozenset(reps)
        self._hash = self._translate = self._modulus = self._reps = None
        return self

    def _same_ambient(self, other: "CosetSet") -> None:
        if self.ambient is not other.ambient and self.ambient != other.ambient:
            raise GrrsError("coset sets over different ambient lattices")

    @property
    def translate(self) -> Vector:
        if self._translate is None:
            d, u = self._t
            self._translate = tuple(Q(x, d) for x in u)
        return self._translate

    @property
    def modulus(self) -> Lattice:
        if self._modulus is None:
            self._modulus = self.ambient.sublattice(self._mod)
        return self._modulus

    @property
    def reps(self) -> Tuple[Vector, ...]:
        if self._reps is None:
            s = self.ambient.scale
            self._reps = tuple(tuple(Q(x, s) for x in row) for row in self._rep_rows())
        return self._reps

    def _rep_rows(self) -> List[Tuple[int, ...]]:
        """`reps` as integer rows over the ambient's scale (a multiple of
        M's), sorted there, as one positive denominator keeps the order."""
        mod, amb = self.modulus, self.ambient
        return sorted(mod.reduce_int(_int_combination(c, amb.rows, amb.dim), amb.scale)[0]
                      for c in self._ireps)

    def members(self) -> List[Vector]:
        """One representative per coset: translate + reps."""
        return [vadd(self.translate, r) for r in self.reps]

    def _row(self, d: int) -> List[int]:
        """The translate as an integer row over d, a multiple of `_t[0]`."""
        e, u = self._t
        return [d // e * x for x in u]

    def _at(self, d: int) -> Tuple[List[int], List[List[int]], List[List[int]]]:
        """(translate, reps, generators of M) as integer rows over d, a
        multiple of `_t[0]`, read off the HNF of the ambient."""
        amb = self.ambient
        f = d // amb.scale
        reps, mod = ([[f * x for x in _int_combination(c, amb.rows, amb.dim)] for c in cs]
                     for cs in (self._ireps, self._mod))
        return self._row(d), reps, mod

    def _least(self, d: int) -> List[int]:
        """translate + reps[0] as an integer row over d, as for `_at`."""
        f = d // self.ambient.scale
        return [x + f * y for x, y in zip(self._row(d), self._rep_rows()[0])]

    # -- basic protocol ----------------------------------------------------

    @classmethod
    def empty(cls, ambient: Lattice) -> "CosetSet":
        return cls.__new__(cls)._set(ambient, ambient.scale, (0,) * ambient.dim, [], [])

    @classmethod
    def full_lattice(cls, ambient: Lattice) -> "CosetSet":
        r = ambient.rank
        unit = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        return cls.__new__(cls)._set(ambient, ambient.scale, (0,) * ambient.dim, unit, [(0,) * r])

    @property
    def dim(self) -> int:
        return self.ambient.dim

    def is_empty(self) -> bool:
        return not self._ireps

    def __eq__(self, other):
        return isinstance(other, CosetSet) and (self is other or (
            self._ireps == other._ireps and self._mod == other._mod
            and self._t == other._t and self.ambient == other.ambient
        ))

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._t, self._mod, self._ireps))
        return self._hash

    def __repr__(self):
        t = "shifted" if any(self._t[1]) else "0"
        return f"CosetSet(reps={len(self._ireps)}, modulus_rank={len(self._mod)}, translate={t})"

    # -- membership and set algebra ----------------------------------------

    def _has(self, t, c) -> bool:
        """Is t + sum_i c_i b_i in the set, for t a residue as `_t`?"""
        return t == self._t and hnf_reduce(c, self._mod, self._piv)[0] in self._ireps

    def _covers(self, t, reps, mod) -> bool:
        """Is t + reps + <mod> inside the set (mod an HNF in Z^r)?  One test
        per coset of the meet of mod and M in mod."""
        cosets = hnf_cosets(mod, hnf_meet(mod, self._mod), self.ambient.rank)
        return cosets is not None and all(self._has(t, vadd(r, c)) for r in reps for c in cosets)

    def _meets(self, t, c, lat) -> bool:
        """Does the set meet t + c + <lat> (lat integer rows)?"""
        big = hnf_int([*self._mod, *lat])
        piv = hnf_pivots(big)
        return t == self._t and any(
            not any(hnf_reduce(vsub(r, c), big, piv)[0]) for r in self._ireps
        )

    def contains(self, v: Vector) -> bool:
        return not self.is_empty() and self._has(*self.ambient._reduce(v))

    def _holds(self, w: Sequence[int], d: int) -> bool:
        """Is w / d in the set, for w integral?  Read over the lcm of d and the ambient's scale."""
        s = lcm(d, self.ambient.scale)
        w = [s // d * x for x in w]
        return not self.is_empty() and self._has(*self.ambient.residue_row(w, s))

    def shift(self, v: Vector) -> "CosetSet":
        d, (w,) = clear_denominators([v], self._t[0], self.dim, "shift of wrong length")
        if self.is_empty():
            return self
        return self._translated(vadd(w, self._row(d)), d)

    def _translated(self, w: Sequence[int], d: int) -> "CosetSet":
        """w / d + reps + M, for w integral and d a multiple of the ambient's
        scale: one reduction gives the translate and moves the reps by its
        coordinates.  A translate of the set has its stabilizer: M stays."""
        t, c = self.ambient.residue_row(w, d)
        out = CosetSet.__new__(CosetSet)
        out.ambient, out._t = self.ambient, t
        out._mod, out._piv, out._modulus = self._mod, self._piv, self._modulus
        out._ireps = frozenset(hnf_reduce(vadd(r, c), self._mod, self._piv)[0] for r in self._ireps)
        out._hash = out._translate = out._reps = None
        return out

    def neg(self) -> "CosetSet":
        return self.scale(-1)

    def scale(self, c: int) -> "CosetSet":
        if self.is_empty():
            return self
        c, (d, u) = int(c), self._t
        mod, reps = ([tuple(c * x for x in v) for v in vs] for vs in (self._mod, self._ireps))
        return CosetSet.__new__(CosetSet)._set(self.ambient, d, [c * x for x in u], mod, reps)

    def add(self, other: "CosetSet") -> "CosetSet":
        self._same_ambient(other)
        if self.is_empty() or other.is_empty():
            return CosetSet.empty(self.ambient)
        reps = [vadd(a, b) for a in self._ireps for b in other._ireps]
        d = lcm(self._t[0], other._t[0])
        w = vadd(self._row(d), other._row(d))
        return CosetSet.__new__(CosetSet)._set(self.ambient, d, w, self._mod + other._mod, reps)

    def subset_of(self, other: "CosetSet") -> bool:
        self._same_ambient(other)
        if self.is_empty() or other.is_empty():
            return self.is_empty()
        return other._covers(self._t, self._ireps, self._mod)

    def same_set(self, other: "CosetSet") -> bool:
        self._same_ambient(other)
        return self == other


# ---------------------------------------------------------------------------
# Symbolic systems


class FamilyEntry(_Record):
    __slots__ = ("lift", "family")

    def __init__(self, lift: Vector, family: CosetSet):
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "family", family)


class SymbolicRootSystem:
    """R = union over entries of (lift + family), family inside Ker(-,-).

    Kept once: the sorted lift rows over one denominator, in lowest terms
    (`_lift_rows`, `_lift_den`), and the family above each, anchored to L
    (`_families`); `lifts` and `entries` are views read on first use.
    """

    def __init__(self, space: BilinearSpace, entries: Sequence[Tuple[Vector, CosetSet]]):
        entries = list(entries)
        lifts = clear_denominators([lift for lift, _ in entries], dim=space.dim)
        self._take(space, *lifts, [fam for _, fam in entries])

    def _take(self, space: BilinearSpace, d: int, rows, families) -> "SymbolicRootSystem":
        """The system of the lifts rows / d, rows integral, above `families` in
        order: the integer entry, which `__init__` runs on its cleared lifts and
        the builders on the rows they hold.  Empty families are dropped."""
        self.space = space
        kb = space._radical[1]
        self.kernel_dim = len(kb)
        kept = [(row, fam) for row, fam in zip(rows, families) if not fam.is_empty()]
        if not kept:
            raise GrrsError("symbolic system with no nonempty families")
        # the lifts and each distinct family's (generators of M, translate,
        # members of L) in first-seen order, all as integer rows over one
        # denominator D: the family data are read off the HNF of its ambient.
        # Families are told apart by identity first: values compare once per object.
        objects = {id(fam): fam for _, fam in kept}
        distinct: Dict[CosetSet, int] = {}
        slot = {i: distinct.setdefault(fam, len(distinct)) for i, fam in objects.items()}
        fams = list(distinct)
        D = lcm(d, *(fam._t[0] for fam in fams))
        rows = [row if D == d else [D // d * x for x in row] for row, _ in kept]
        order = sorted(range(len(rows)), key=rows.__getitem__)
        if len({tuple(row) for row in rows}) != len(rows):
            raise GrrsError("duplicate lifts in symbolic system")
        # the sorted lift rows in lowest terms; one elimination tests them and
        # keeps the splitting for resplit, and their projections give cl()
        common = gcd(D, *itertools.chain.from_iterable(rows))
        self._lift_den = D // common
        self._lift_rows = tuple(tuple(x // common for x in rows[i]) for i in order)
        self._picked, self._den, self._coords, independent = column_basis(self._lift_rows, kb)
        if not independent:
            raise GrrsError("lifts are not independent from the radical")

        # family data lies in the radical; L = ZR cap Ker is generated by each
        # lift plus a first member of its family, the moduli and the
        # differences of members within each family
        gens, data = [], []
        for fam in fams:
            space.check_vector(fam._t[1])
            t, reps, mod = fam._at(D)
            members = [vadd(t, r) for r in reps]
            if not all(map(space._in_radical, (*mod, *members))):
                raise GrrsError("family data outside the radical")
            gens += mod + [vsub(m, members[0]) for m in members[1:]]
            data.append((mod, members))
        gens += [vadd(lift, data[slot[id(fam)]][1][0]) for lift, (_, fam) in zip(rows, kept)]
        self.L = L = Lattice(space.dim, D, hnf_int(gens)).kernel_part(space)

        # a family over another ambient is re-anchored on L, D being a
        # multiple of L's scale
        anchored = [fam if fam.ambient == L else CosetSet.__new__(CosetSet)._anchor(L, D, *datum)
                    for fam, datum in zip(fams, data)]
        self._families = tuple(anchored[slot[id(kept[i][1])]] for i in order)
        return self

    @cached_property
    def lifts(self) -> Tuple[Vector, ...]:
        # one Fraction per distinct coordinate, as FiniteRootSystem.roots
        read = {x: Q(x, self._lift_den) for x in set().union(*self._lift_rows)}
        return tuple(tuple(map(read.__getitem__, r)) for r in self._lift_rows)

    @cached_property
    def entries(self) -> Tuple[FamilyEntry, ...]:
        return tuple(map(FamilyEntry, self.lifts, self._families))

    @cached_property
    def _proj(self) -> SubspaceProjection:
        return SubspaceProjection(self.space.dim, self.space._radical[1])

    @cached_property
    def _classes(self) -> Tuple[int, List[Tuple[int, ...]]]:
        """(e, rows): each entry's class in the minimal quotient, in the order
        of the entries, as its lift row projected along the radical over e."""
        return self._proj.apply_rows(self._lift_rows, self._lift_den)

    @cached_property
    def _cl_entries(self) -> List[int]:
        """Index of the entry above each root of cl(), in the order of its
        roots: the classes are distinct, and cl() sorts their rows."""
        rows = self._classes[1]
        return sorted(range(len(rows)), key=rows.__getitem__)

    def _above(self, e: int, c: Sequence[int]) -> Optional[int]:
        """The index of the entry above the root c / e of cl(), c integral, or None."""
        i = self._cl._index(e, c)
        return None if i is None else self._cl_entries[i]

    def _read(self, v: Vector) -> Tuple[int, List[int], int, List[int]]:
        """(d, w, e, c): a caller's vector as w / d, its class (its projection) as c / e."""
        d, (w,) = clear_denominators([v], dim=self.space.dim)
        e, (c,) = self._proj.apply_rows([w], d)
        return d, w, e, c

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, SymbolicRootSystem) and self.space == other.space and (
            self._lift_den, self._lift_rows, self._families
        ) == (other._lift_den, other._lift_rows, other._families)

    def __repr__(self):
        return (
            f"SymbolicRootSystem(dim={self.space.dim}, kernel_dim={self.kernel_dim}, "
            f"classes={len(self._families)})"
        )

    def splitting(self) -> Tuple[Vector, ...]:
        """Lex-first lifts forming a basis of the complement V'."""
        return tuple(self.lifts[i] for i in self._picked)

    def _entry(self, lift: Vector) -> Optional[int]:
        """The index of the entry whose lift is a caller's vector, or None."""
        d, w, e, c = self._read(lift)
        i, m = self._above(e, c), self._lift_den
        return None if i is None or any(
            x * m != y * d for x, y in zip(w, self._lift_rows[i])) else i

    def family_of_lift(self, lift: Vector) -> CosetSet:
        i = self._entry(lift)
        if i is None:
            raise UnknownRoot(f"{format_vector(lift)} is not a class of the system")
        return self._families[i]

    def cl(self) -> FiniteRootSystem:
        """Minimal quotient, realized on the non-pivot coordinates of V/Ker."""
        return self._cl

    @cached_property
    def _cl(self) -> FiniteRootSystem:
        return FiniteRootSystem._of_rows(self.space._on(self._proj.kept), *self._classes)

    def entry_for_cl(self, cl_root: Vector) -> FamilyEntry:
        """The entry above a root of cl(), or above the class of a vector of the space."""
        if len(cl_root) == self.space.dim:
            e, c = self._read(cl_root)[2:]
        else:
            e, (c,) = clear_denominators([cl_root], dim=self._cl.space.dim)
        i = self._above(e, c)
        if i is None:
            root = format_vector(Q(x, e) for x in c)
            raise UnknownRoot(f"{root} is not a root of the minimal quotient")
        return self.entries[i]

    def contains(self, v: Vector) -> bool:
        d, w, e, c = self._read(v)
        i, m = self._above(e, c), self._lift_den
        # v - lift, the row m w - d lift over d m, is in the family above the class
        return i is not None and self._families[i]._holds(
            [m * x - d * y for x, y in zip(w, self._lift_rows[i])], d * m)

    def resplit(self, offsets: Dict[Vector, Vector]) -> "SymbolicRootSystem":
        """Rebuild with splitting roots shifted by the given family members.

        `offsets` maps splitting lifts to members of their families; the root
        set is unchanged, only the complement V' (hence all lifts and
        families) moves: each lift by its coordinates on the splitting times
        the offsets, and its family back.  A key that is no splitting lift
        raises UnknownRoot.
        """
        dim, moved = self.space.dim, {}
        for lift, off in offsets.items():
            i = self._entry(lift)
            if i not in self._picked:
                raise UnknownRoot(f"{format_vector(lift)} is not a splitting lift")
            moved[i] = off
        # the moves, the lifts and the translates as integer rows over D, then d
        D, offs = clear_denominators([moved.get(i, (0,) * dim) for i in self._picked], dim=dim)
        for i, off in zip(self._picked, offs):
            if any(off) and not self._families[i]._holds(off, D):
                raise UnknownRoot("offset is not a member of the splitting family")
        e = D * self._den
        d = lcm(self._lift_den, e, *(fam._t[0] for fam in self._families))
        m = d // self._lift_den
        lams = [[d // e * x for x in _int_combination(c, offs, dim)] for c in self._coords]
        rows = [vadd([m * x for x in row], lam) for row, lam in zip(self._lift_rows, lams)]
        families = [f._translated(vsub(f._row(d), lam), d) for f, lam in zip(self._families, lams)]
        return SymbolicRootSystem.__new__(SymbolicRootSystem)._take(self.space, d, rows, families)


# ---------------------------------------------------------------------------
# Constructions


def from_finite(system: FiniteRootSystem) -> SymbolicRootSystem:
    """View a finite system symbolically with respect to its radical.

    Each root's lift is the root minus its part in the radical.  In the RREF
    of [radical basis | roots] the independent radical basis takes the first
    k pivots, and row i holds every root's coefficient on its vector i.  The
    roots are grouped by lift and offsets on integer rows over one
    denominator, which the constructor's integer entry takes as they are."""
    dim, kb = system.space.dim, system.space._radical[1]
    k = len(kb)
    reduced = rref(list(zip(*kb, *system._rows)))[0][:k] if k else []
    # the part of column j in the radical is sum_i (row_i[k + j] / row_i[i]) kb_i,
    # kb_i the integer rows of the radical: over the lcm den of the pivots, an
    # integer combination of them
    den = lcm(*(row[i] for i, row in enumerate(reduced)))
    # the eliminated columns are the rows R_j = scale * r_j, so the offset of
    # root j and the root itself are integer rows over E = den * scale
    E, f = den * system.scale, den
    groups: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for j, r in enumerate(system._rows):
        c = [row[k + j] * (den // row[i]) for i, row in enumerate(reduced)]
        off = tuple(_int_combination(c, kb, dim))
        groups.setdefault(tuple(f * x - y for x, y in zip(r, off)), []).append(off)
    ambient = Lattice(dim, E, hnf_int([v for vs in groups.values() for v in vs]))
    # one coset set per distinct offset set, anchored on its rows over E
    anchor = cache(lambda offs: CosetSet.__new__(CosetSet)._anchor(ambient, E, [], offs))
    return SymbolicRootSystem.__new__(SymbolicRootSystem)._take(
        system.space, E, list(groups), list(map(anchor, map(frozenset, groups.values()))))


def _padded(space: BilinearSpace, n: int) -> BilinearSpace:
    """The space with n central coordinates: zero rows and columns appended."""
    rows = [row + (0,) * n for row in space._rows]
    return BilinearSpace._of_rows(space._scale, rows + [(0,) * (space.dim + n)] * n)


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
    old, L, space = system.space, system.L, _padded(system.space, n)
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
        return CosetSet.__new__(CosetSet)._set(big, fam._t[0], fam._t[1] + (0,) * n, mod, reps)

    extended = {fam: extend(fam) for fam in dict.fromkeys(system._families)}
    return SymbolicRootSystem.__new__(SymbolicRootSystem)._take(
        space, system._lift_den, [row + (0,) * n for row in system._lift_rows],
        [extended[fam] for fam in system._families])


def quotient(
    system: SymbolicRootSystem, kernel_vectors: Sequence[Vector], require_bijective: bool = False
) -> SymbolicRootSystem:
    """Push the system forward along V -> V/U for U inside the radical."""
    s, rows = clear_denominators(kernel_vectors, dim=system.space.dim)
    for w in rows:
        if not system.space._in_radical(w):
            raise NotInKernel(f"{format_vector(Q(x, s) for x in w)} is not in the radical")
    proj = SubspaceProjection(system.space.dim, rows)
    if not proj.pivots:
        return system
    new_space = system.space._on(proj.kept)
    new_dim = new_space.dim

    # L's rows projected once, over e; a family over L has integer
    # coordinates on them, and the image of its translate lies over D, a multiple of e
    e, basis = proj.apply_rows(system.L.rows, system.L.scale)
    image = Lattice(new_dim, e, hnf_int(basis))

    def push(fam: CosetSet) -> CosetSet:
        D, (t,) = proj.apply_rows([fam._t[1]], fam._t[0])
        rows = [[D // e * x for x in b] for b in basis]
        gens, reps = ([_int_combination(c, rows, new_dim) for c in cs]
                      for cs in (fam._mod, fam._ireps))
        if require_bijective:
            mod = hnf_int(gens)
            if len(mod) < len(gens):
                raise NotBijective("a family coset collapses along the quotient")
            piv = hnf_pivots(mod)
            if len({hnf_reduce(r, mod, piv)[0] for r in reps}) < len(reps):
                raise NotBijective("two family cosets merge along the quotient")
        return CosetSet.__new__(CosetSet)._anchor(image, D, gens, [vadd(t, r) for r in reps])

    pushed = {fam: push(fam) for fam in dict.fromkeys(system._families)}
    return SymbolicRootSystem.__new__(SymbolicRootSystem)._take(
        new_space, *proj.apply_rows(system._lift_rows, system._lift_den),
        [pushed[fam] for fam in system._families])


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


class GapTable(_Record):
    """Gap per lift; None marks classes where no single progression exists."""

    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[Vector, Optional[int]], ...]):
        object.__setattr__(self, "entries", entries)


def gaps(system: SymbolicRootSystem) -> GapTable:
    """Arithmetic-progression indices of the families over a 1-dim radical."""
    if system.kernel_dim > 1:
        raise KernelTooLarge("gaps need a one-dimensional radical")
    out = []
    for lift, fam in zip(system.lifts, system._families):
        # one coset of M in L = Z b: the index of M, or 0 when M = 0
        g = (fam._mod[0][0] if fam._mod else 0) if len(fam._ireps) == 1 else None
        if g is None and system.space.norm(lift) != 0:
            raise GrrsError("no single arithmetic progression above non-isotropic class "
                            + format_vector(lift))
        out.append((lift, g))
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
    amb, d = A.ambient, lcm(A._t[0], B._t[0])
    ta, tb = A._row(d), B._row(d)
    (tp, op), (tm, om) = (amb.residue_row(w, d) for w in (vadd(tb, ta), vsub(tb, ta)))
    sigma = hnf_int(A._mod + B._mod)
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
    above = system._cl_entries
    order = sorted(range(len(above)), key=above.__getitem__)  # each entry's index in cl()
    ids: Dict[CosetSet, int] = {}
    fid: Dict[Optional[int], int] = {None: -1}  # cl index -> family id
    for fam, i in zip(system._families, order):
        fid[i] = ids.setdefault(fam, len(ids))
    fams = list(ids) + [CosetSet.empty(system.L)]

    # the family tests, by family id
    reflects = cache(lambda a, b, k, t: fams[b].add(fams[a].scale(-k)).subset_of(fams[t]))
    negates = cache(lambda a, m: fams[m].same_set(fams[a].neg()))
    xor = cache(lambda a, b, c, d: _xor_check(fams[a], fams[b], fams[c], fams[d]))
    return check_classes(
        system.cl(), order, lambda i: system.lifts[above[i]],
        system.L.rank == system.kernel_dim,
        lambda i, j, k, t: reflects(fid[i], fid[j], k, fid[t]),
        lambda i, m: negates(fid[i], fid[m]),
        lambda i, j, plus, minus: xor(fid[i], fid[j], fid[plus], fid[minus]),
    )
