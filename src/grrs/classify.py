"""Classification of affine systems: canonical F_2^k data and name tables.

Subsets of F_2^k are bitmasks over the 2^k points; the canonical form of a
subset is the lexicographically minimal mask over its orbit under the affine
group.  Class descriptors pair a recognized minimal-quotient type with the
canonicalized discriminating data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache, reduce
from math import lcm
from typing import Dict, List, Sequence, Tuple

from . import catalog
from .catalog import TypeKey, _bits, _sumset, spans_affinely, subset_mask, type_key
from .errors import (
    BadParameters,
    KTooLarge,
    NoName,
    NotClassified,
    UnrecognizedCl,
)
from .finite import FiniteRootSystem, Homothety, isomorphic_finite
from .linalg import Lattice, hnf_int
from .symbolic import CosetSet, SymbolicRootSystem


# Canonical forms walk AGL(k,2) orbits, marked in a table of all 2^(2^k)
# masks.  At k = 5 one orbit can have |AGL(5,2)| = 319 979 520 elements and
# the table would take 4 GiB.
_MAX_K = 4


def _check_k(k: int, least: int = 0):
    if k < least:
        raise BadParameters(f"k = {k} is outside the range {least}..{_MAX_K}")
    if k > _MAX_K:
        raise KTooLarge(f"k = {k} exceeds the classification cap {_MAX_K}")


# ---------------------------------------------------------------------------
# Subsets of F_2^k


@dataclass(frozen=True)
class F2Subset:
    """A subset of F_2^k as a mask, bit p set for each point p.  Construction
    checks k >= 0 and the range of the mask, without the cap on k."""

    k: int
    mask: int

    def __post_init__(self):
        if self.k < 0:
            raise BadParameters(f"k = {self.k} is negative: there is no F_2^k")
        if self.mask < 0 or self.mask.bit_length() > 1 << self.k:
            top = (1 << (1 << self.k)) - 1 if self.k <= _MAX_K else f"2^{1 << self.k} - 1"
            raise BadParameters(
                f"mask {self.mask} is outside the range 0..{top} of subsets of F_2^{self.k}"
            )

    def points(self) -> Tuple[int, ...]:
        return tuple(_bits(self.mask))

    @classmethod
    def from_points(cls, k: int, points) -> "F2Subset":
        return cls(k, subset_mask(k, points))

    def __len__(self):
        return bin(self.mask).count("1")


def _tables(k: int, pointmap):
    """A map of the points of F_2^k as byte tables (low, high): the image of
    a mask over at most 16 points (k <= 4) is low[mask & 255] | high[mask >> 8]."""
    out = []
    for base in (0, 8):
        row = [0] * (1 << min(8, max(0, (1 << k) - base)))
        for v in range(1, len(row)):
            bit = v & -v
            row[v] = row[v ^ bit] | (1 << pointmap(base + bit.bit_length() - 1))
        out.append(tuple(row))
    return tuple(out)


@lru_cache(maxsize=None)
def _generators(k: int):
    """x_0 += x_1 and the cyclic shift of the coordinates, which generate
    GL(k,2) (conjugating the first by powers of the shift gives every
    x_i += x_(i+1), and their commutators every x_i += x_j), then the
    translation by e_0: three generators of AGL(k,2), fewer for k < 2."""
    top = (1 << k) - 1
    linear = [lambda p: p ^ (p >> 1) & 1, lambda p: (p << 1 | p >> (k - 1)) & top] * (k > 1)
    return tuple(_tables(k, f) for f in linear + [lambda p: p ^ 1] * (k > 0))


@lru_cache(maxsize=None)
def _translations(k: int):
    """The translations by each point t (index t)."""
    return tuple(_tables(k, lambda p, t=t: p ^ t) for t in range(1 << k))


def _image(tables, mask: int) -> int:
    return tables[0][mask & 255] | tables[1][mask >> 8]


def _walk_orbit(k: int, start: int, visited: bytearray) -> List[int]:
    """The orbit of a mask under AGL(k,2), walked on its three generators
    and marked in `visited` (indexed by mask)."""
    gens = _generators(k)
    visited[start] = 1
    orbit = [start]
    for m in orbit:
        m_low, m_high = m & 255, m >> 8
        for low, high in gens:
            img = low[m_low] | high[m_high]
            if not visited[img]:
                visited[img] = 1
                orbit.append(img)
    return orbit


def _full(k: int, *masks: int) -> int:
    """The mask of all of F_2^k, once k is within the cap and each mask names
    a subset of F_2^k."""
    _check_k(k)
    for mask in masks:
        F2Subset(k, mask)
    return (1 << (1 << k)) - 1


def canonical_mask(k: int, mask: int) -> int:
    """Lex-min mask over the affine group orbit."""
    visited = bytearray(_full(k, mask) + 1)
    return min(_walk_orbit(k, mask, visited))


@lru_cache(maxsize=None)
def _orbit_minima(k: int) -> Tuple[int, ...]:
    """The canonical masks of the nonempty subsets, ascending: one sweep in
    which the first unvisited mask of each orbit is its minimum."""
    visited = bytearray(1 << (1 << k))
    minima = []
    for mask in range(1, len(visited)):
        if not visited[mask]:
            minima.append(mask)
            _walk_orbit(k, mask, visited)
    return tuple(minima)


def affine_canonical(S: F2Subset) -> F2Subset:
    """Canonical representative of S under affine automorphisms of F_2^k."""
    return F2Subset(S.k, canonical_mask(S.k, S.mask))


def contains_affine_basis(S: F2Subset) -> bool:
    return spans_affinely(S.k, S.mask)


def canonical_pair(
    k: int,
    mask1: int,
    mask2: int,
    translate_second: bool,
    complement_first: bool,
) -> Tuple[int, int]:
    """Joint canonical form of a pair of subsets under a shared linear map.

    Translations act on the first subset always, on the second only when
    `translate_second`; `complement_first` adds the replacement of the first
    subset by its complement to the group.  The orbit is walked under the
    generators of GL(k,2) (and the complement) with the translated members
    kept at their least translate: a linear map carries the translates of
    a subset onto those of its image.
    """
    full = _full(k, mask1, mask2)
    linear, translations = _generators(k)[:-1], _translations(k)
    reduce = lru_cache(maxsize=None)(lambda mask: min(_image(t, mask) for t in translations))
    second = reduce if translate_second else (lambda mask: mask)
    start = (reduce(mask1), second(mask2))
    seen = {start}
    orbit = [start]
    for m1, m2 in orbit:
        images = [(reduce(_image(g, m1)), second(_image(g, m2))) for g in linear]
        if complement_first:
            images.append((reduce(full ^ m1), m2))
        for pair in images:
            if pair not in seen:
                seen.add(pair)
                orbit.append(pair)
    return min(orbit)


# ---------------------------------------------------------------------------
# Class descriptors


@dataclass(frozen=True)
class ClassDescriptor:
    """Canonical label of an isomorphism class of affine systems."""

    cl: str
    k: int
    data: Tuple

    def kind(self) -> str:
        return self.data[0]


def _desc_aff(cl: str, k: int) -> ClassDescriptor:
    return ClassDescriptor(cl, k, ("affinization",))


def canonical_data(key: TypeKey, k: int, masks: Sequence[int]) -> Tuple:
    """Descriptor data of the values `masks` read off a system of type `key`,
    in the order of `catalog.orbits(key)`: their least form under the group that
    acts on that type's data, behind the type's tag.  This is the one
    statement of that group and the one writer of F_2^k descriptor data;
    `identify` and `enumerate_classes` both call it.

    - one subset S: AGL(k,2), and for C(m,m) also the complement of S (tag
      "C11S" for the subset forms of C(1,1));
    - C2 (S1, S2): a shared linear map and a translation on each;
    - BC(m,n) (S, Sp): a shared linear map, translations of S, and for
      m = n the complement of S;
    - G2, F4 (the scale index s): the trivial group;
    - BC_n: as read, (1, S, the points of H2) or (n, S1, S2, S3), since the
      group acting on it is not derived (the classification is incomplete,
      so equal data is only reliable between like presentations).
    """
    kind = key.kind
    if kind in ("G2", "F4"):
        return ("s", *masks)
    if kind == "BC{}":
        n = key.params[0]
        return ("BCn", n, masks[0], tuple(_bits(masks[1]))) if n == 1 else ("BCn", n, *masks)
    if key == TypeKey("C{}", (2,)):
        if masks[0] == _full(k):
            # every affine map fixes the full set: no pair walk
            return ("S1S2", masks[0], canonical_mask(k, masks[1]))
        return ("S1S2",) + canonical_pair(k, *masks, translate_second=True, complement_first=False)
    if kind == "BC({},{})":
        m, n = key.params
        return ("SSp",) + canonical_pair(k, *masks, translate_second=False, complement_first=m == n)
    (mask,) = masks
    least = canonical_mask(k, mask)
    if kind == "C({},{})" and key.params[0] == key.params[1]:
        least = min(least, canonical_mask(k, _full(k) ^ mask))
    return ("C11S" if key == TypeKey("C({},{})", (1, 1)) else "S", least)


# ---------------------------------------------------------------------------
# Recognition of the minimal quotient


# Recognitions are kept per process, keyed by the value of the quotient:
# every system over one quotient shares its answer.  A failure is not kept.
_RECOGNITIONS = 128


@lru_cache(maxsize=_RECOGNITIONS)
def recognize_cl(fin: FiniteRootSystem):
    """Match a finite system against the catalog, walking the kinds of
    `catalog._TYPES` in their order of precedence (see there).

    Returns (name, homothety from the catalog copy onto the input, copy).
    The answer is memoized on the value of `fin` and shared between equal
    quotients, so it must not be mutated.
    """
    d = fin.space.dim
    count = len(fin)
    n_iso = fin._norms.count(0)
    for kind, row in catalog._TYPES.items():
        if row.isotropic != (n_iso > 0):
            continue
        for params in row.tries(d, fin):
            key = TypeKey(kind, params)
            cat = catalog.build(key)
            # the isotropic count builds the norms: after the cheap tests
            if (cat.space.dim, len(cat)) != (d, count) or cat._norms.count(0) != n_iso:
                continue
            h = isomorphic_finite(cat, fin)
            if h is not None:
                return str(key), h, cat
    raise UnrecognizedCl(
        f"no catalog match for dim {d}, {count} roots, {n_iso} isotropic"
    )


# ---------------------------------------------------------------------------
# Data extraction helpers


def _family_lattice(fam: CosetSet) -> Lattice:
    """The family as a subgroup; requires a single unshifted full coset."""
    if fam._ireps != {(0,) * fam.ambient.rank} or any(fam._t[1]):
        raise UnrecognizedCl("family is not a lattice; not of the classified shape")
    return fam.modulus


def _generated(families: Sequence[CosetSet]) -> Lattice:
    """The lattice the members and moduli of the families generate."""
    d = lcm(*(f._t[0] for f in families))
    rows = []
    for f in families:
        t, reps, mod = f._at(d)
        rows += mod + [[x + y for x, y in zip(t, r)] for r in reps]
    return Lattice(families[0].dim, d, hnf_int(rows))


def _scale_index(fam: CosetSet, ref: Lattice, r: int, k: int) -> int:
    """The G2/F4 scale index s = k - e of the family "s", whose lattice has
    index r^e in the reference lattice."""
    idx, e = _family_lattice(fam).index_in(ref), 0
    if idx is None:
        raise UnrecognizedCl("long-root family of infinite index")
    while idx % r == 0:
        idx, e = idx // r, e + 1
    if idx != 1 or e > k:
        raise UnrecognizedCl("long-root family index is not a pure power")
    return k - e


def _pullback_families(system: SymbolicRootSystem, hmap: Homothety, key: TypeKey):
    """Family lookup normalized to the generated-subsystem convention.

    Every family is shifted as if the splitting ran through the roots
    lift_g + m_g above the standard generating classes g of the recognized
    quotient, m_g the least member above g (the translate plus the least
    rep, the reps being sorted), which makes the extracted data
    independent of the presentation.  The lifts meet the radical only in 0
    (the constructor checks it), so the lift above w = sum c_g g is
    sum c_g lift_g, and the family above w moves by -sum c_g m_g.  The
    coefficients c_g of a catalog root are those of its image, as the
    homothety is linear and one to one on the span, so they are read from
    `catalog._generating_rows` and the image from `hmap.index`, both by the
    index of the catalog root.  With the m_g over D and the c_g over den,
    the offsets and translates are integer rows over D * den: den m_w - sum
    c_g m_g lies in ZR and the radical, so in L.
    """
    gens, den, coords = catalog._generating_rows(key)
    above = [_family_above(system, hmap, g) for g in gens]
    D = lcm(*(f._t[0] for f in above))
    least = [f._least(D) for f in above]
    shifted: Dict[int, CosetSet] = {}

    def fam(i: int) -> CosetSet:
        if i not in shifted:
            f = _family_above(system, hmap, i)
            t = f._row(D * den)
            for c, m in zip(coords[i], least):
                if c:
                    t = [x - c * y for x, y in zip(t, m)]
            shifted[i] = f._translated(t, D * den)
        return shifted[i]

    return fam


def _family_above(system: SymbolicRootSystem, hmap: Homothety, i: int) -> CosetSet:
    """The family of `system` above the image of root i of the catalog copy,
    found by the index of that image in the quotient's roots."""
    return system._families[system._cl_entries[hmap.index[i]]]


# ---------------------------------------------------------------------------
# identify


def identify(system: SymbolicRootSystem) -> ClassDescriptor:
    """Canonical class descriptor of a symbolic system.

    The minimal quotient is recognized against the catalog; the family data
    is pulled back along the recognition map, read off the first root of
    each group of `catalog.orbits`, and canonicalized by `canonical_data`.
    A system without a central direction is finite, not affine, and raises
    BadParameters.
    """
    k = system.kernel_dim
    if k < 1:
        raise BadParameters("identify needs an affine system, with k >= 1 central directions")
    cl_sys = system.cl()
    name, hmap, cat = recognize_cl(cl_sys)
    key = type_key(name)
    kind = key.kind
    L = system.L
    if L.rank != k:
        raise UnrecognizedCl("offset lattice does not span the radical")

    if key.case_i:
        # every family must be one full coset of L (shift-independent test)
        unit = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        for fam in system._families:
            if fam._mod != unit or len(fam._ireps) != 1:
                raise UnrecognizedCl(
                    "transitive-quotient system whose families are not full cosets"
                )
        return _desc_aff(name, k)

    # C(1,1) at k = 1 and A(n,n)_f are read as rational quotients
    c11 = key == TypeKey("C({},{})", (1, 1))
    if kind == "A({},{})_f" or (c11 and k == 1):
        return _identify_ann(system, key, hmap, cat, k, L)

    fam = _pullback_families(system, hmap, key)
    layout = catalog.orbits(key)

    # The data are read in a reference lattice: for C(m,n) and BC(m,n) the
    # lattice Lp the families above 2 eps (which carries S) and 2 delta (~S,
    # the complement of S) generate, enlarged by 2a for a shifted
    # presentation, a a member above eps + delta; for BC_n the lattice the
    # short family (n = 1) or the family above e_i +- e_j (n >= 2)
    # generates, where the entry L is read as a subset too; otherwise the
    # full-lattice family (halved for 2L), which comes first, or L.  A
    # family "X/2" is read doubled, the BC1 H2 in (Z/4)^k, and the G2/F4
    # family "s" by its index in the reference lattice.
    ref, read, values = L, layout, []
    if kind in ("C({},{})", "BC({},{})"):
        eps2, dlt2 = (o.index[0] for o in layout if o.data in ("S", "~S"))
        Lp = _generated([fam(eps2), fam(dlt2)])
        # the row of eps + delta is half the sum of those of 2 eps and 2 delta
        half = tuple((x + y) // 2 for x, y in zip(cat._rows[eps2], cat._rows[dlt2]))
        a = fam(cat._lookup[half])
        d = a._t[0]
        two_a = Lattice(L.dim, d, hnf_int([[2 * x for x in a._least(d)]]))
        if c11 and not (Lp.rank == k and Lp.contains_lattice(two_a)):
            # 2a outside a full-rank Lp: a rational quotient, not a subset form
            return _identify_ann(system, key, hmap, cat, k, L)
        ref = Lp.add(two_a)
        read = [o for o in layout if o.data not in ("L", "~S")]
    elif kind == "BC{}":
        ref = _generated([fam(layout[0 if key.params == (1,) else 2].index[0])])
    if kind not in ("G2", "F4"):
        _check_k(k)
    for o in read:
        f = fam(o.index[0])
        if o.data in ("L", "2L") and kind != "BC{}":
            ref = _family_lattice(f).scaled(Q(1, 2) if o.data == "2L" else 1)
        elif o.data == "s":
            values.append(_scale_index(f, ref, 3 if kind == "G2" else 2, k))
        else:
            read_as = f.scale(2) if o.data.endswith("/2") else f
            values.append(catalog.points_mod(read_as, ref, 4 if o.data == "H2" else 2))
    return ClassDescriptor(name, k, canonical_data(key, k, values))


def _zero_sum_multisets(rows: Sequence[Sequence[int]], size: int) -> List[Tuple[int, ...]]:
    """Index tuples i_1 <= ... <= i_size whose rows sum to zero.

    The sums of the first size // 2 indices are indexed in a dict, and each
    tuple of the remaining indices looks up its negated sum among those
    ending at or before its first.
    """
    def sums(m):
        for combo in itertools.combinations_with_replacement(range(len(rows)), m):
            yield combo, tuple(map(sum, zip(*(rows[i] for i in combo))))

    low: dict = {}
    for combo, total in sums(size // 2):
        low.setdefault(total, []).append(combo)
    return [
        first + combo
        for combo, total in sums(size - size // 2)
        for first in low.get(tuple(-x for x in total), ())
        if first[-1] <= combo[0]
    ]


def _identify_ann(system, key, hmap, cat, k, L):
    """The rational quotients, cl = A(n,n)_f (n > 1) or C(1,1): the
    quotient-type invariants (q, p)."""
    name = str(key)
    n = key.params[0]

    noniso = [i for i, n in enumerate(cat._norms) if n]
    F = _family_above(system, hmap, noniso[0])
    M = F.modulus
    if M.rank < L.rank:
        if any(_family_above(system, hmap, i).modulus.rank >= L.rank for i in noniso):
            raise UnrecognizedCl("inconsistent family ranks")
        return ClassDescriptor(name, k, ("gl",))
    if len(F._ireps) != 1:
        raise UnrecognizedCl("non-isotropic family is not a single coset")
    q = M.index_in(L)

    if k > 1:
        return ClassDescriptor(name, k, ("Annx", q, None))
    if q == 1:
        return ClassDescriptor(name, k, ("Annx", 1, 0))
    if n > 3:
        raise KTooLarge("the sum invariant is capped at n <= 3")
    classes = set()
    for combo in _zero_sum_multisets(system._lift_rows, n + 1):
        s = reduce(CosetSet.add, map(system._families.__getitem__, combo))
        # the members lie in L when the translate is 0, on the coordinates of
        # the reps: at k = 1 those `reps` reads, reduced into [0, [L : M]) too
        if any(s._t[1]):
            raise UnrecognizedCl("subset sum leaves the offset lattice")
        classes.update(c[0] % q for c in s._ireps)
    nonzero = {min(c, (q - c) % q) for c in classes if c % q != 0}
    p = min(nonzero) if nonzero else 0
    return ClassDescriptor(name, k, ("Annx", q, p))


# ---------------------------------------------------------------------------
# enumerate_classes


def enumerate_classes(cl_name: str, k: int) -> List[ClassDescriptor]:
    """Complete duplicate-free descriptor list for the classified types, at
    k >= 1 central directions (at k = 0 there is no affine system); the
    types listed through canonical forms of subsets take k <= 4.  A type is
    listed under the name `identify` gives it (B2 as C2); a name that is no
    minimal quotient (A(n,n), D2) raises UnrecognizedCl."""
    if k < 1:
        _check_k(k, 1)
    key = type_key(recognize_cl(type_key(cl_name).system())[0])
    kind, name = key.kind, str(key)
    if key.case_i:
        return [_desc_aff(name, k)]
    if kind in ("G2", "F4"):
        return [ClassDescriptor(name, k, canonical_data(key, k, [s])) for s in range(k + 1)]
    full = _full(k)
    if key == TypeKey("C({},{})", (1, 1)):
        raise NotClassified("C(1,1) admits infinitely many classes (rational quotients)")

    if kind in ("A1", "B{}", "B({},{})", "C({},{})") or (kind == "C{}" and key.params[0] >= 3):
        masks = _orbit_minima(k)
        if kind == "A1":
            # A1 keeps the subsets that contain an affine basis, an affine invariant
            masks = [m for m in masks if spans_affinely(k, m)]
        elif kind == "C({},{})":
            # a proper subset; for m = n it is read up to its complement
            masks = [m for m in masks if m != full]
        data = {canonical_data(key, k, [m]) for m in masks}
    elif key == TypeKey("C{}", (2,)) or kind == "BC({},{})":
        c2 = kind == "C{}"
        if not c2 and k > 3:
            raise KTooLarge(
                f"{name} at k = {k} takes 30 first masks x 65 535 second masks at 0.04 to "
                "0.12 s per canonical_pair call, over a day; BC(m,n) is listed up to k = 3"
            )
        data = set()
        # Translations and linear maps act on the first mask, so every pair
        # orbit has a member whose first mask is an orbit minimum.
        for m1 in _orbit_minima(k):
            if not c2:
                # BC(m,n): a proper first subset, any nonempty second one
                seconds = range(1, full + 1) if m1 != full else ()
            elif m1 == full:
                # every affine map fixes the full set: S2 is read up to AGL(k,2)
                seconds = _orbit_minima(k)
            elif spans_affinely(k, m1):
                # S1 + S2 <= S1 holds for the S2 through 0 inside the period
                # group {t : S1 + t = S1}
                seconds = [1]
                for t in range(1, 1 << k):
                    if _sumset(m1, 1 << t) == m1:
                        seconds += [m2 | 1 << t for m2 in seconds]
            else:
                continue
            data.update(canonical_data(key, k, [m1, m2]) for m2 in seconds)
    elif kind == "BC{}":
        raise NotClassified(f"no complete classification for cl = {name}")
    else:
        raise NotClassified(f"no enumeration rule for {name}")
    return [ClassDescriptor(name, k, d) for d in sorted(data)]


# ---------------------------------------------------------------------------
# Kac-Moody names (k = 1)


def _subscript(name: str) -> str:
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return f"{head}_{tail}" if tail else name


def kac_moody_name(desc: ClassDescriptor) -> str:
    """Name of the (twisted) affine superalgebra with these real roots."""
    if desc.k != 1:
        raise NoName("the name table covers one-dimensional radicals only")
    kind = desc.kind()
    if kind == "affinization":
        return f"{_subscript(desc.cl)}^(1)"
    try:
        key = type_key(desc.cl)
    except BadParameters:
        raise NoName(f"no name attached to {desc}") from None
    t, p = key.kind, key.params
    if kind == "S":
        mask = desc.data[1]
        if t == "A1":
            return "A_1^(1)"
        if t == "B({},{})":
            mm, nn = p
            return f"B({mm},{nn})^(1)" if mask == 0b01 else f"D({mm + 1},{nn})^(2)"
        if t == "B{}":
            n = p[0]
            return f"B_{n}^(1)" if mask == 0b01 else f"D_{n + 1}^(2)"
        if t == "C({},{})":
            mm, nn = p
            return f"A({2 * mm - 1},{2 * nn - 1})^(2)"
        if t == "C{}":
            n = p[0]
            return f"C_{n}^(1)" if mask == 0b11 else f"A_{2 * n - 1}^(2)"
    if kind == "s":
        s = desc.data[1]
        if t == "G2":
            return "G_2^(1)" if s == 1 else "D_4^(3)"
        if t == "F4":
            return "F_4^(1)" if s == 1 else "E_6^(2)"
    if kind == "S1S2" and key == TypeKey("C{}", (2,)):
        if desc.data[1:] == (0b11, 0b11):
            return "C_2^(1)"
        if desc.data[1:] == (0b11, 0b01):
            return "A_3^(2)"
    if kind == "SSp" and t == "BC({},{})":
        # calibrated against the zero-subset displays (for m = n the two
        # twisted names coincide, so the epsilon/delta labeling is immaterial)
        mm, nn = p
        s, sp = desc.data[1], desc.data[2]
        if sp == 0b11:
            return f"A({2 * mm},{2 * nn})^(4)"
        if (s, sp) == (0b01, 0b01):
            return f"A({2 * nn},{2 * mm - 1})^(2)"
        if (s, sp) == (0b01, 0b10):
            return f"A({2 * mm},{2 * nn - 1})^(2)"
    raise NoName(f"no name attached to {desc}")
