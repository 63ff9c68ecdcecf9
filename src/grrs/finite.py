"""Finite root systems: reflections, axiom checks, orbits, and isomorphism.

A system is a finite set of nonzero-or-not vectors in a rational bilinear
space.  Nothing is validated at construction beyond coordinate lengths; the
axioms are evaluated by `check_axioms`, which reports witnesses instead of
raising, so that defective inputs can be inspected.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import gcd
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    Vector,
    _int_combination,
    _Record,
    clear_denominators,
    column_basis,
    format_vector,
)

# Distinct systems whose readings are kept per process.  One benchmark pass
# of the finite catalog reads those of 62, 23 of them in its set-up.
READINGS_MEMO_SIZE = 64


@lru_cache(maxsize=READINGS_MEMO_SIZE)
def _readings(system: "FiniteRootSystem") -> dict:
    """The one store of derived readings of every system equal to `system`:
    keyed by its value, (scale, rows) hashed and the space compared."""
    return {}


class _shared:
    """A derived reading, computed once per distinct system into its store
    and then kept on the object, as a `cached_property` keeps it.  The
    reading is shared by every equal system and must not be mutated, but
    for the reflection rows that `_images` fills in."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, system, owner=None):
        if system is None:
            return self
        store = _readings(system)
        if self.name not in store:
            store[self.name] = self.func(system)
        system.__dict__[self.name] = store[self.name]
        return store[self.name]


class FiniteRootSystem:
    """A finite set of vectors in a fixed bilinear space.

    The roots are kept as integer rows over one common denominator `scale`,
    the least common multiple of their coordinates' denominators: the roots
    are deduplicated, sorted, compared and hashed there.  Scaling by a
    positive canonical integer keeps the lexicographic order, so `roots`
    (the distinct inputs, sorted) and equality are those of the rationals.

    The rows are also the one root index, and every integer reading is built
    on them on first use: with d = `scale` and g the common denominator of
    the Gram matrix G, root i is R[i] = d r_i, its Gram row W[i] = R[i] gG
    and its pairings P[i][j] = W[i] . R[j] = d^2 g (r_i, r_j); the factor
    d^2 g cancels from every Cartan number and sign.

    A reflection step R[j] + m R[i] is read on packed keys: key(v) = sum_c
    v_c B^c is linear, so key(R[j] + m R[i]) = key(R[j]) + m key(R[i]).  With
    M the largest |coordinate| of a root and K = max(1, floor(2 max |P_ij| /
    min nonzero |P_ii|)), every step taken has |m| <= K (an integral Cartan
    number, or +-1), so its coordinates are at most (K + 1) M in absolute
    value; B = 2 (K + 1) M + 1 makes the packing one to one on all such
    vectors, roots included, and a key found in the index is that root.

    Each reading is computed once per distinct system and shared by every
    equal one (see `_shared`).
    """

    def __init__(self, space: BilinearSpace, roots: Sequence[Vector]):
        self._take(space, *clear_denominators(roots))

    @classmethod
    def _of_rows(cls, space: BilinearSpace, d: int, rows: Sequence[Sequence[int]]):
        """The system of the roots rows / d, rows integral: the integer entry."""
        return cls.__new__(cls)._take(space, d, rows)

    def _take(self, space: BilinearSpace, d: int, rows) -> "FiniteRootSystem":
        """Keep the distinct roots rows / d, sorted, over their least common
        denominator `scale`, checked for length in that order; `roots` is
        read off the rows on first use."""
        g = gcd(d, *itertools.chain.from_iterable(rows))
        self.space, self.scale = space, d // g
        rows = rows if g == 1 else [[x // g for x in r] for r in rows]
        self._rows: Tuple[Tuple[int, ...], ...] = tuple(sorted(set(map(tuple, rows))))
        for r in self._rows:
            space.check_vector(r)
        self._hash: Optional[int] = None
        return self

    @_shared
    def roots(self) -> Tuple[Vector, ...]:
        # one Fraction per distinct coordinate, shared like the inputs of `vec`
        read = {x: Q(x, self.scale) for x in set(itertools.chain.from_iterable(self._rows))}
        return tuple(tuple(map(read.__getitem__, r)) for r in self._rows)

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self.roots)

    def __eq__(self, other):
        return isinstance(other, FiniteRootSystem) and (self is other or (
            self._rows == other._rows and self.scale == other.scale and self.space == other.space
        ))

    def __hash__(self):
        # equal systems have equal rows; the space is left to __eq__
        if self._hash is None:
            self._hash = hash((self.scale, self._rows))
        return self._hash

    def __repr__(self):
        return f"FiniteRootSystem(dim={self.space.dim}, n_roots={len(self)})"

    def contains(self, v: Vector) -> bool:
        return self._find(v) is not None

    def norm(self, r: Vector) -> Q:
        i = self._find(r)
        return self.space.norm(r) if i is None else self._norms[i]

    def is_isotropic(self, r: Vector) -> bool:
        return self.norm(r) == 0

    def nonisotropic_roots(self) -> Tuple[Vector, ...]:
        return tuple(r for r, n in zip(self.roots, self._norms) if n != 0)

    @_shared
    def _span(self) -> Tuple[List[int], int, List[Tuple[int, ...]]]:
        """The indices of the lex-first maximal independent roots, and every
        root's coordinates on them as integer rows over one denominator; the
        coordinates of the rows are those of the roots."""
        return column_basis(self._rows)[:3]

    def span_basis(self) -> Tuple[Vector, ...]:
        """Lexicographically first maximal independent subset of the roots."""
        return tuple(self.roots[i] for i in self._span[0])

    def restricted_to_span(self) -> "FiniteRootSystem":
        """The same system over the span of its roots.

        Coordinates are taken with respect to the lex-first independent
        roots; when the roots already span the ambient space the system is
        returned unchanged.
        """
        return self if len(self._span[0]) == self.space.dim else self._over_span

    @_shared
    def _over_span(self) -> "FiniteRootSystem":
        # the Gram matrix of the picked roots, with no pairing of the others
        idx, den, coords = self._span
        W, R = self._gram_rows, self._rows
        gram = [[sum(map(mul, W[i], R[j])) for j in idx] for i in idx]
        space = BilinearSpace._of_rows(self.scale ** 2 * self.space._scale, gram)
        return FiniteRootSystem._of_rows(space, den, coords)

    # -- the integer readings ----------------------------------------------

    @_shared
    def _lookup(self) -> Dict[Tuple[int, ...], int]:
        return {v: i for i, v in enumerate(self._rows)}

    def _find(self, v: Vector) -> Optional[int]:
        """The index of the root v, a caller's vector, or None."""
        d, (w,) = clear_denominators([v], dim=self.space.dim)
        return self._index(d, w)

    def _index(self, d: int, w: Sequence[int]) -> Optional[int]:
        """The index of the root w / d, w integral, or None: w / d is read as
        a row over `scale` with integer operations only."""
        s = self.scale
        if any(x * s % d for x in w):
            return None
        return self._lookup.get(tuple(x * s // d for x in w))

    @_shared
    def _unit(self) -> Q:
        """1 / (d^2 g), which turns a pairing P[i][j] into (r_i, r_j)."""
        return Q(1, self.scale ** 2 * self.space._scale)

    @_shared
    def _gram_rows(self) -> List[Tuple[int, ...]]:
        gram = self.space._rows
        return [tuple(sum(map(mul, v, col)) for col in gram) for v in self._rows]

    @_shared
    def _pairings(self) -> List[Tuple[int, ...]]:
        """P, with a dot product only for the first root a of each +- pair
        and only on or above the diagonal: the row of -a is the negated row
        of a, and P is symmetric as the Gram matrix is."""
        neg, W, R = self._neg, self._gram_rows, self._rows
        firsts = [i for i, m in enumerate(neg) if m is None or m >= i]
        upper = [[sum(map(mul, W[i], R[j])) for j in firsts[a:]] for a, i in enumerate(firsts)]
        # a row is read off [its entries at firsts | their negatives]: root j
        # at place b when it is firsts[b], at f + b when it is its negative
        f, place = len(firsts), [0] * len(R)
        for b, i in enumerate(firsts):
            place[i] = b
            if neg[i] is not None:
                place[neg[i]] = f + b  # the zero root, its own negative, pairs to 0
        P: List[Tuple[int, ...]] = [()] * len(R)
        for a, i in enumerate(firsts):
            row = [upper[b][a - b] for b in range(a)] + upper[a]
            minus = [-x for x in row]
            P[i] = tuple(map((row + minus).__getitem__, place))
            if neg[i] is not None:
                P[neg[i]] = tuple(map((minus + row).__getitem__, place))
        return P

    @_shared
    def _norms(self) -> Tuple[Q, ...]:
        return tuple(self._unit * sum(map(mul, w, v)) for w, v in zip(self._gram_rows, self._rows))

    @_shared
    def _fingerprints(self) -> Tuple[Tuple[int, ...], List[Tuple[int, ...]]]:
        """The sorted diagonal pairings, and each root's pairings against
        the whole system, sorted: what a homothety search compares."""
        P = self._pairings
        return tuple(sorted(p[i] for i, p in enumerate(P))), [tuple(sorted(p)) for p in P]

    @_shared
    def _neg(self) -> List[Optional[int]]:
        """The index of each root's negative, or None."""
        return [self._lookup.get(tuple(-x for x in v)) for v in self._rows]

    @_shared
    def _packed(self) -> Tuple[List[int], Dict[int, int]]:
        """Each root's packed key, and the index key -> root; built on the
        first step, so that a system that never reflects pays nothing."""
        P = self._pairings
        M = max((abs(x) for v in self._rows for x in v), default=0)
        n = min((abs(p[i]) for i, p in enumerate(P) if p[i]), default=0)
        K = max(1, 2 * max(abs(x) for p in P for x in p) // n) if n else 1
        B = 2 * (K + 1) * M + 1
        keys = [sum(x * B ** c for c, x in enumerate(v)) for v in self._rows]
        return keys, {key: i for i, key in enumerate(keys)}

    def _shift(self, j: int, i: int, m: int) -> Optional[int]:
        """Index of root j + m * root i, or None; m is +-1 or minus an
        integral Cartan number k_ij."""
        keys, index = self._packed
        return index.get(keys[j] + m * keys[i])

    @_shared
    def _image_rows(self) -> List[Optional[list]]:
        """The reflection row of each root, or None until `_images` builds it."""
        return [None] * len(self._rows)

    def _images(self, i: int) -> list:
        """The reflection row of root i: entry j is the index of r_i(root j),
        None where a linear step leaves the system, or a marker that `_image`
        resolves.  r_{-a} = r_a, so the row is built once per +- pair and
        the row of -a is the row of a."""
        row = self._image_rows[i]
        if row is None:
            row = self._image_rows[i] = self._reflection_row(i)
            if self._neg[i] is not None:
                self._image_rows[self._neg[i]] = row
        return row

    def _reflection_row(self, i: int) -> list:
        """The row of r_i, one comprehension on the packed keys and the
        Cartan numbers: j - k i for an integral k = 2p/n, the one root among
        j +- i for an isotropic i, and -j for j = +-i."""
        P, (keys, index) = self._pairings, self._packed
        get, ki, n = index.get, keys[i], P[i][i]
        pairs = enumerate(zip(P[i], keys))
        if n:
            return [j if not p else _NONINTEGRAL if 2 * p % n else get(kj - 2 * p // n * ki)
                    for j, (p, kj) in pairs]
        row = [j if not p else _one(get(kj + ki), get(kj - ki)) for j, (p, kj) in pairs]
        m = self._neg[i]
        row[i] = _NO_NEGATIVE if m is None else m
        if m is not None:
            row[m] = i
        return row

    def _image(self, i: int, j: int) -> Optional[int]:
        """Index of r_i(root j), read off the row of i; None when a linear
        reflection leaves the system.  A marker is resolved here: the image
        by a non-integral Cartan number is tested coordinate by coordinate,
        and an isotropic root i raises as `isotropic_reflect` does."""
        t = self._images(i)[j]
        if t not in _MARKS:
            return t
        if t is _NONINTEGRAL:
            # n times the image; a non-integral k = 2p/n may still give a root
            n, p = self._pairings[i][i], self._pairings[i][j]
            img = [n * b - 2 * p * a for a, b in zip(self._rows[i], self._rows[j])]
            return None if any(x % n for x in img) else self._lookup.get(tuple(x // n for x in img))
        if t is _NO_NEGATIVE:
            raise UnknownRoot(f"the negative of {format_vector(self.roots[j])} is not a root")
        raise (MissingImage if t is _NO_IMAGE else AmbiguousReflection)(self.roots[i], self.roots[j])


# The markers of a reflection row: r_a(b) = b - (2p/n) a with 2p/n not an
# integer; for isotropic a, neither or both of b +- a a root; for b = +-a,
# -b not a root.  GR2 fails at an entry in _OFF, GR3 at one in _UNPAIRED.
_NONINTEGRAL, _NO_IMAGE, _TWO_IMAGES, _NO_NEGATIVE = (object() for _ in range(4))
_MARKS = frozenset((_NONINTEGRAL, _NO_IMAGE, _TWO_IMAGES, _NO_NEGATIVE))
_OFF = frozenset((None, _NONINTEGRAL))
_UNPAIRED = frozenset((_NO_IMAGE, _TWO_IMAGES))


def _one(plus: Optional[int], minus: Optional[int]):
    """The one root among b + a and b - a, or the marker of none or both."""
    if plus is None:
        return _NO_IMAGE if minus is None else minus
    return plus if minus is None else _TWO_IMAGES


# ---------------------------------------------------------------------------
# Reflections


def k_value(space: BilinearSpace, alpha: Vector, beta: Vector) -> Q:
    """Cartan pairing 2(alpha, beta)/(alpha, alpha)."""
    return _cartan(space, alpha, *clear_denominators([alpha, beta], dim=space.dim)[1])


def _cartan(space: BilinearSpace, alpha: Vector, a: Sequence[int], b: Sequence[int]) -> Q:
    """k_{alpha,beta} on the integer rows a, b of alpha, beta over one
    denominator, which cancels as the scale of the Gram rows does."""
    w = [sum(map(mul, a, col)) for col in space._rows]
    nn = sum(map(mul, w, a))
    if nn == 0:
        raise IsotropicBase(f"k-value at isotropic vector {format_vector(alpha)}")
    return Q(2 * sum(map(mul, w, b)), nn)


def reflect(space: BilinearSpace, alpha: Vector, v: Vector) -> Vector:
    """Linear reflection v - k_{alpha,v} * alpha; requires (alpha,alpha) != 0."""
    s, (a, b) = clear_denominators([alpha, v], dim=space.dim)
    k = _cartan(space, alpha, a, b)
    p, q = k.numerator, k.denominator
    return tuple(Q(q * y - p * x, q * s) for x, y in zip(a, b))


def isotropic_reflect(system: FiniteRootSystem, alpha: Vector, beta: Vector) -> Vector:
    """The set-involution image of beta under r_alpha for isotropic alpha.

    Image is -beta for beta = +-alpha, beta itself when orthogonal, and the
    unique root among beta +- alpha otherwise; read off the reflection row
    of alpha, which raises UnknownRoot when -beta is not a root.
    """
    i, j = system._find(alpha), system._find(beta)
    if not system.is_isotropic(alpha):
        raise IsotropicBase(f"{format_vector(alpha)} is not isotropic")
    if i is None or j is None:
        raise UnknownRoot("reflection arguments must be roots")
    return system.roots[system._image(i, j)]


# ---------------------------------------------------------------------------
# Axiom checking


class AxiomCheck(_Record):
    __slots__ = ("passed", "witness")

    def __init__(self, passed: bool, witness: Optional[tuple] = None):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)


class AxiomReport(_Record):
    __slots__ = ("gr0", "gr1", "gr2", "gr3", "wgr3")

    def __init__(self, gr0: AxiomCheck, gr1: AxiomCheck, gr2: AxiomCheck, gr3: AxiomCheck,
                 wgr3: AxiomCheck):
        object.__setattr__(self, "gr0", gr0)
        object.__setattr__(self, "gr1", gr1)
        object.__setattr__(self, "gr2", gr2)
        object.__setattr__(self, "gr3", gr3)
        object.__setattr__(self, "wgr3", wgr3)

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

    Each root is its own class, so nothing lies above the classes: GR2 and
    GR3 are read off the reflection rows alone.
    """
    return check_classes(system, range(len(system)), lambda i: system.roots[i], True)


def check_classes(
    system: FiniteRootSystem,
    order: Sequence[int],
    witness: Callable[[int], Vector],
    radical_ok: bool,
    reflects: Optional[Callable[[int, int, int, int], bool]] = None,
    negates: Optional[Callable[[int, int], bool]] = None,
    images: Optional[Callable[[int, int, Optional[int], Optional[int]], Tuple[bool, bool]]] = None,
) -> AxiomReport:
    """The axioms on the classes of a root system: the roots of the finite
    `system`, as indices into `system.roots`, visited in `order`.

    A failure is named by `witness` of its indices.  The classes are decided
    on the reflection rows of `system`: r_i(j) leaves them where the row of
    a non-isotropic i holds None or a non-integral marker, and for an
    isotropic i a marker names none or both of j +- i.  What lies above the
    classes is tested by the callbacks, each called only where the rule on
    the classes holds: `reflects(i, j, k, t)` for r_i(j) = j - k i = t,
    `negates(i, m)` for m = -i, and `images(i, j, plus, minus)` -> (GR3
    holds, WGR3 holds) for isotropic i paired with j, where plus and minus
    index j + i and j - i or are None.  Without callbacks nothing lies above
    the classes, and a row with no failing entry is passed over whole.  GR1
    asks that the classes span and that `radical_ok`: over the rationals the
    lattice a finite set generates has the rank of its span.  GR3 and WGR3
    take their equivalent form: R = -R, and for isotropic alpha and any beta
    with (alpha, beta) != 0 the set {beta +- alpha} meets R in exactly one
    (at least one) element.
    """
    P, neg, row_of = system._pairings, system._neg, system._images

    def check(failure: Optional[tuple]) -> AxiomCheck:
        return AxiomCheck(failure is None, failure and tuple(map(witness, failure)))

    def unreflected():
        for i in order:
            n = P[i][i]
            if not n:
                continue
            row = row_of(i)
            if reflects is None and _OFF.isdisjoint(row):
                continue
            for j in order:
                t = row[j]
                if t is None or t is _NONINTEGRAL or (
                    t != j and reflects is not None and not reflects(i, j, 2 * P[i][j] // n, t)
                ):
                    yield i, j

    def paired():
        """(i, j, GR3 holds, WGR3 holds) for isotropic i paired with j."""
        keys = system._packed[0]
        for i in order:
            if P[i][i]:
                continue
            row, Pi = row_of(i), P[i]
            if images is None and _UNPAIRED.isdisjoint(row):
                continue
            for j in order:
                if not Pi[j]:
                    continue
                t = row[j]
                if images is None:
                    yield i, j, t not in _UNPAIRED, t is not _NO_IMAGE
                    continue
                if t is _NO_IMAGE:
                    plus = minus = None
                elif t is _TWO_IMAGES:
                    plus, minus = system._shift(j, i, 1), system._shift(j, i, -1)
                elif keys[t] == keys[j] + keys[i]:
                    plus, minus = t, None
                else:
                    plus, minus = None, t
                yield (i, j) + images(i, j, plus, minus)

    gr0 = check(next(((i,) for i in order if not any(system._gram_rows[i])), None))
    gr1 = AxiomCheck(bool(order) and len(system._span[0]) == system.space.dim and radical_ok)
    gr2 = check(next(unreflected(), None))
    gr3_fail = wgr3_fail = next(((i,) for i in order if neg[i] is None or (
        negates is not None and not negates(i, neg[i]))), None)
    for i, j, ok3, okw in () if gr3_fail else paired():
        gr3_fail = gr3_fail or (None if ok3 else (i, j))
        wgr3_fail = wgr3_fail or (None if okw else (i, j))
        if gr3_fail and wgr3_fail:
            break
    return AxiomReport(gr0, gr1, gr2, check(gr3_fail), check(wgr3_fail))


# ---------------------------------------------------------------------------
# Subsystems, orbits, decomposition


def generate_subsystem(system: FiniteRootSystem, seeds: Sequence[Vector]) -> FiniteRootSystem:
    """Minimal subsystem containing the seeds.

    Fixpoint of X -> {+- r_a(b) : a, b in X} inside the ambient system; the
    seeds may not contain an element orthogonal to the whole seed set.
    Raises UnknownRoot when a seed, or an image on the way, is not a root.
    """
    seeds = list(seeds)
    if not seeds:
        raise OrthogonalSeed("empty seed set")
    found = [system._find(v) for v in seeds]
    if None in found:
        raise UnknownRoot(f"{format_vector(seeds[found.index(None)])} is not a root")
    members, P, neg = sorted(set(found)), system._pairings, system._neg
    for i in members:
        if not any(P[i][j] for j in members):
            raise OrthogonalSeed(
                f"{format_vector(system.roots[i])} is orthogonal to the whole seed set"
            )
    inside = set(members)
    # Each member is paired, both ways, with itself and every earlier member.
    for done, x in enumerate(members):
        for y in members[: done + 1]:
            for i, j in ((x, y), (y, x)):
                img = system._image(i, j)
                if img is None or neg[img] is None:
                    a, b = format_vector(system.roots[i]), format_vector(system.roots[j])
                    raise UnknownRoot(f"+-r_{a}{b} is not a root")
                for w in (img, neg[img]):
                    if w not in inside:
                        inside.add(w)
                        members.append(w)
    return FiniteRootSystem._of_rows(system.space, system.scale, [system._rows[i] for i in members])


def _blocks(system: FiniteRootSystem, linked) -> List[Tuple[int, ...]]:
    """Classes of the root indices under the closure of v -> linked(v) (None
    entries ignored), each sorted, in the order of their least root."""
    seen = set()
    blocks = []
    for start in range(len(system)):
        if start in seen:
            continue
        block = {start}
        frontier = [start]
        while frontier:
            for w in linked(frontier.pop()):
                if w is not None and w not in block:
                    block.add(w)
                    frontier.append(w)
        seen |= block
        blocks.append(tuple(sorted(block)))
    return blocks


def _orbit_partition(system: FiniteRootSystem, generators: Sequence[int]):
    """The orbits under the reflections at `generators`.  A root's images
    are a column of the generators' rows, one row per +- pair; a column
    with a marker is read again through `_image` in generator order, which
    resolves it or raises as a walk on `_image` alone would."""
    rows = list({id(r): r for r in map(system._images, generators)}.values())
    columns = list(zip(*rows)) if rows else [()] * len(system)

    def linked(v: int):
        col = columns[v]
        if _MARKS.isdisjoint(col):
            return dict.fromkeys(col)
        return [system._image(a, v) for a in generators]

    return [tuple(map(system.roots.__getitem__, b)) for b in _blocks(system, linked)]


def weyl_orbits(system: FiniteRootSystem) -> List[Tuple[Vector, ...]]:
    """Orbit partition under reflections at non-isotropic roots."""
    return _orbit_partition(system, [i for i, n in enumerate(system._norms) if n])


def gw_orbits(system: FiniteRootSystem) -> List[Tuple[Vector, ...]]:
    """Orbit partition under the involutions attached to all roots."""
    return _orbit_partition(system, range(len(system)))


def is_irreducible(system: FiniteRootSystem):
    """Connected components of the non-orthogonality graph on the roots.

    Returns (irreducible?, components as root systems over the same space).
    """
    P = system._pairings
    comps = _blocks(system, lambda v: (w for w, p in enumerate(P[v]) if p))
    systems = [FiniteRootSystem._of_rows(system.space, system.scale, [system._rows[i] for i in c])
               for c in comps]
    return len(systems) <= 1, systems


def is_reduced(system: FiniteRootSystem) -> bool:
    """No proportional pair alpha, lambda*alpha with lambda outside {1, -1}:
    the nonzero roots on each line through 0, found by its primitive row
    with a positive first entry, have one gcd."""
    gcds: Dict[Tuple[int, ...], int] = {}
    for v in filter(any, system._rows):
        g = gcd(*v) if next(filter(None, v)) > 0 else -gcd(*v)
        if gcds.setdefault(tuple(x // g for x in v), abs(g)) != abs(g):
            return False
    return True


def integral_subsystem(system: FiniteRootSystem, lam: Vector) -> FiniteRootSystem:
    """Roots whose Cartan pairing against lam is integral."""
    if 0 in system._norms:
        raise IsotropicPresent("integral subsystem needs a system without isotropic roots")
    e, (lam,) = clear_denominators([lam], dim=system.space.dim)
    # k_{a, lam} = 2 (a, lam) / (a, a) = 2 d (W[a] . lam) / (e P[a][a]), for lam over e
    picked = [
        v
        for v, w in zip(system._rows, system._gram_rows)
        if not 2 * system.scale * sum(map(mul, w, lam)) % (e * sum(map(mul, w, v)))
    ]
    return FiniteRootSystem._of_rows(system.space, system.scale, picked).restricted_to_span()


# ---------------------------------------------------------------------------
# Isomorphism by homothety


class Homothety:
    """Linear map defined on the span of a root system, scaling the form.

    `index[i]` is the index in `target` of the image of root i of `domain`,
    so that reading a root's image needs no elimination; `roots` is that map
    as a dict root -> image root, built on first read.  `basis` is the span
    basis of the domain and `images` its images, read on first use too;
    `apply` takes any vector of the span, on the integer rows of `target`.
    """

    def __init__(self, domain: FiniteRootSystem, target: FiniteRootSystem, scale: Q,
                 index: Sequence[int]):
        self.domain, self.target, self.scale, self.index = domain, target, scale, tuple(index)

    @cached_property
    def basis(self) -> Tuple[Vector, ...]:
        return self.domain.span_basis()

    @cached_property
    def images(self) -> Tuple[Vector, ...]:
        return tuple(self.target.roots[self.index[i]] for i in self.domain._span[0])

    @cached_property
    def roots(self) -> Dict[Vector, Vector]:
        return dict(zip(self.domain.roots, map(self.target.roots.__getitem__, self.index)))

    def apply(self, v: Vector) -> Vector:
        d, (w,) = clear_denominators([v], dim=self.domain.space.dim)
        # v = sum_j c_j R_j / (den d), R_j = s basis_j, maps to sum_j c_j T_j s / (den d t)
        idx, s, t = self.domain._span[0], self.domain.scale, self.target.scale
        picked, den, coords, _ = column_basis([*(self.domain._rows[i] for i in idx), w])
        if len(idx) in picked:
            raise DimensionMismatch("vector outside the domain span")
        rows = [self.target._rows[self.index[i]] for i in idx]
        image = _int_combination(coords[len(idx)], rows, self.target.space.dim)
        return tuple(Q(x * s, den * d * t) for x in image)

    def __repr__(self):
        return f"Homothety(scale={self.scale})"


def _ratios(Pa: Sequence[Sequence[int]], Pb: Sequence[Sequence[int]]) -> List[Tuple[int, int]]:
    """The distinct ratios y / x, as (p, q) in lowest terms with q > 0 and
    in increasing order, of a nonzero diagonal pairing y of Pb to one x of
    Pa; a system without a nonzero norm gives all its nonzero pairings."""
    xs, ys = (set(filter(None, (p[i] for i, p in enumerate(P))))
              or set(filter(None, (x for p in P for x in p))) for P in (Pa, Pb))
    ratios = set()
    for x in xs:
        for y in ys:
            g = gcd(x, y) if x > 0 else -gcd(x, y)
            ratios.add((y // g, x // g))
    return sorted(ratios, key=lambda t: Q(*t))


def _scaled(values: Tuple[int, ...], m: int) -> Tuple[int, ...]:
    """The sorted tuple m * values, for sorted values."""
    return tuple(m * v for v in (values if m > 0 else reversed(values)))


def _fingerprint_index(fps: Sequence[Tuple[int, ...]], q: int) -> Dict[Tuple[int, ...], List[int]]:
    """The indices of the fingerprints, by fingerprint scaled by q: grouped
    by the fingerprint first, so that each distinct one is scaled once."""
    by_fp: Dict[Tuple[int, ...], List[int]] = {}
    for s, fp in enumerate(fps):
        by_fp.setdefault(fp, []).append(s)
    return {_scaled(fp, q): found for fp, found in by_fp.items()}


def isomorphic_finite(
    sys_a: FiniteRootSystem, sys_b: FiniteRootSystem
) -> Optional[Homothety]:
    """Search for a homothety carrying one root set onto the other.

    Candidate form scales are the ratios of nonzero norms, read as ratios
    of diagonal pairings; a scale that does not carry the multiset of norms
    of `sys_a` onto that of `sys_b` is passed over.  The lex-first spanning
    roots of `sys_a` are matched by backtracking, pruned by the multiset of
    form values each root takes against the whole system.  A complete
    assignment is accepted when it carries the roots of `sys_a` onto
    pairwise distinct roots of `sys_b`.  They are then all of R_b, as
    |R_a| = |R_b|, and R_b spans a space of the rank of R_a's, so the map is
    one to one on the span.  Neither system need span its ambient space.
    The returned map keeps the index of each root's image.
    """
    if len(sys_a) != len(sys_b):
        return None
    basis, den, icoords = sys_a._span
    if len(basis) != len(sys_b._span[0]):
        return None
    Pa, Pb = sys_a._pairings, sys_b._pairings
    # x (u, v)_a = (u', v')_b  <=>  p Pa = q Pb  with p/q = x unit_a / unit_b, so a
    # ratio p/q of pairings is the scale x = (p/q) (unit_b / unit_a); when a side has
    # no nonzero pairing, the scale 1 is tried
    t = sys_a._unit / sys_b._unit
    candidates = _ratios(Pa, Pb) or [(t.numerator, t.denominator)]
    (norms_a, fp_a), (norms_b, fp_b) = sys_a._fingerprints, sys_b._fingerprints
    # root i of sys_a is sum_j icoords[i][j] / den times basis root j

    def onto_roots(assignment: List[int]) -> Optional[List[int]]:
        """The index in sys_b of the image of each root of sys_a, when they
        are pairwise distinct roots; else None."""
        # den times the images of the roots, in sys_b's integer vectors
        cols = [[sys_b._rows[m][k] for m in assignment] for k in range(sys_b.space.dim)]
        images = [[sum(map(mul, c, col)) for col in cols] for c in icoords]
        hit = [None if any(x % den for x in v) else sys_b._lookup.get(tuple(x // den for x in v))
               for v in images]
        return hit if None not in hit and len(set(hit)) == len(hit) else None

    for p, q in candidates:
        if _scaled(norms_a, p) != _scaled(norms_b, q):
            continue  # a homothety carries the norms of R_a onto those of R_b
        by_fp = _fingerprint_index(fp_b, q)
        found = {fp: by_fp.get(_scaled(fp, p)) for fp in dict.fromkeys(fp_a)}
        cand = [found[fp] for fp in fp_a]
        if None in cand:
            continue
        assignment: List[int] = []

        def extend(i: int) -> Optional[List[int]]:
            if i == len(basis):
                return onto_roots(assignment)
            bi = basis[i]
            for c in cand[bi]:
                if q * Pb[c][c] != p * Pa[bi][bi] or any(
                    q * Pb[c][assignment[j]] != p * Pa[bi][basis[j]] for j in range(i)
                ):
                    continue
                assignment.append(c)
                hit = extend(i + 1)
                if hit is not None:
                    return hit
                assignment.pop()
            return None

        hit = extend(0)
        if hit is not None:
            return Homothety(sys_a, sys_b, Q(p, q) / t, hit)
    return None
