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
from functools import lru_cache
from math import lcm
from typing import List, Optional, Sequence, Tuple

from . import catalog
from .catalog import TypeKey, contains_affine_basis_points, type_key
from .errors import (
    BadParameters,
    GrrsError,
    KTooLarge,
    NoName,
    NotClassified,
    UnrecognizedCl,
)
from .finite import FiniteRootSystem, Homothety, isomorphic_finite
from .linalg import Lattice, Vector, solve_in_span, vadd, vscale, vsub
from .symbolic import CosetSet, SymbolicRootSystem


# Canonical forms walk AGL(k,2) orbits, marked in a table of all 2^(2^k)
# masks.  At k = 5 one orbit can have |AGL(5,2)| = 319 979 520 elements and
# the table would take 4 GiB.
_MAX_K = 4


def _check_k(k: int):
    if k < 0:
        raise BadParameters(f"k = {k} is outside the range 0..{_MAX_K}")
    if k > _MAX_K:
        raise KTooLarge(f"k = {k} exceeds the classification cap {_MAX_K}")


# ---------------------------------------------------------------------------
# Subsets of F_2^k


@dataclass(frozen=True)
class F2Subset:
    k: int
    mask: int

    def points(self) -> Tuple[int, ...]:
        return tuple(p for p in range(1 << self.k) if (self.mask >> p) & 1)

    @classmethod
    def from_points(cls, k: int, points) -> "F2Subset":
        mask = 0
        for p in points:
            p = int(p)
            if not 0 <= p < (1 << k):
                raise GrrsError(f"point {p} outside F_2^{k}")
            mask |= 1 << p
        return cls(k, mask)

    def __len__(self):
        return bin(self.mask).count("1")


def _mask_from_points(k: int, points) -> int:
    return F2Subset.from_points(k, points).mask


@lru_cache(maxsize=None)
def _point_maps(k: int):
    """The transvections x_i += x_j, which generate GL(k,2), and the
    translations by each point t (index t), as byte tables (low, high): the
    image of a mask over at most 16 points (k <= 4) is
    low[mask & 255] | high[mask >> 8]."""

    def tables(pointmap):
        out = []
        for base in (0, 8):
            row = [0] * (1 << min(8, max(0, (1 << k) - base)))
            for v in range(1, len(row)):
                bit = v & -v
                row[v] = row[v ^ bit] | (1 << pointmap(base + bit.bit_length() - 1))
            out.append(tuple(row))
        return tuple(out)

    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    transvections = tuple(tables(lambda p, i=i, j=j: p ^ ((p >> j) & 1) << i) for i, j in pairs)
    return transvections, tuple(tables(lambda p, t=t: p ^ t) for t in range(1 << k))


def _image(tables, mask: int) -> int:
    return tables[0][mask & 255] | tables[1][mask >> 8]


def _walk_orbit(k: int, start: int, visited: bytearray) -> List[int]:
    """The orbit of a mask under the transvections and the translation by
    e_0, which generate AGL(k,2), marked in `visited` (indexed by mask)."""
    transvections, translations = _point_maps(k)
    gens = transvections + translations[1:2]
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


def canonical_mask(k: int, mask: int) -> int:
    """Lex-min mask over the affine group orbit."""
    _check_k(k)
    visited = bytearray(1 << (1 << k))
    return min(_walk_orbit(k, mask & (len(visited) - 1), visited))


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
    return contains_affine_basis_points(S.k, frozenset(S.points()))


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
    transvections (and the complement) with the translated members kept at
    their least translate: a linear map carries the translates of a subset
    onto those of its image.
    """
    _check_k(k)
    transvections, translations = _point_maps(k)
    full = (1 << (1 << k)) - 1
    reduce = lru_cache(maxsize=None)(lambda mask: min(_image(t, mask) for t in translations))
    second = reduce if translate_second else (lambda mask: mask)
    start = (reduce(mask1 & full), second(mask2 & full))
    seen = {start}
    orbit = [start]
    for m1, m2 in orbit:
        images = [(reduce(_image(g, m1)), second(_image(g, m2))) for g in transvections]
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
    """Descriptor data of the F_2^k masks read off a system of type `key`, in
    the order of `catalog.orbits(key)`: their least form under the group
    that acts on that type's data.  This is the one statement of that group;
    `identify` and `enumerate_classes` both call it.

    - one subset S: AGL(k,2), and for C(m,m) also the complement of S (tag
      "C11S" for the subset forms of C(1,1));
    - C2 (S1, S2): a shared linear map and a translation on each;
    - BC(m,n) (S, Sp): a shared linear map, translations of S, and for
      m = n the complement of S.
    """
    kind = key.kind
    if key == TypeKey("C{}", (2,)):
        return ("S1S2",) + canonical_pair(k, *masks, translate_second=True, complement_first=False)
    if kind == "BC({},{})":
        m, n = key.params
        return ("SSp",) + canonical_pair(k, *masks, translate_second=False, complement_first=m == n)
    (mask,) = masks
    least = canonical_mask(k, mask)
    if kind == "C({},{})" and key.params[0] == key.params[1]:
        least = min(least, canonical_mask(k, ((1 << (1 << k)) - 1) & ~mask))
    return ("C11S" if key == TypeKey("C({},{})", (1, 1)) else "S", least)


# ---------------------------------------------------------------------------
# Recognition of the minimal quotient


def _candidate_names(fin: FiniteRootSystem) -> List[TypeKey]:
    d = fin.space.dim
    n_iso = len(fin.isotropic_roots())
    names: List[TypeKey] = []
    if d == 0:
        return names
    if n_iso == 0:
        if d == 2:
            names += [TypeKey("G2"), TypeKey("C{}", (2,))]
        if d == 4:
            names.append(TypeKey("F4"))
        if d in (6, 7, 8):
            names.append(TypeKey("E{}", (d,)))
        names.append(TypeKey("A{}", (d,)) if d > 1 else TypeKey("A1"))
        if d >= 3:
            names.append(TypeKey("D{}", (d,)))
        if d >= 2:
            names += [TypeKey("B{}", (d,)), TypeKey("C{}", (d,))]
        names.append(TypeKey("BC{}", (d,)))
    else:
        if d == 2:
            names.append(TypeKey("C({},{})", (1, 1)))
        if d % 2 == 0 and d >= 4:
            names.append(TypeKey("A({},{})_f", (d // 2, d // 2)))
        for mm in range(d - 1, -1, -1):
            nn = d - 1 - mm
            if 0 <= nn < mm:
                names.append(TypeKey("A({},{})", (mm, nn)))
        # super pairs over the full dimension
        for m in range(1, d):
            names.append(TypeKey("B({},{})", (m, d - m)))
        for m in range(2, d):
            names.append(TypeKey("D({},{})", (m, d - m)))
        if d >= 2:
            names.append(TypeKey("C({})", (d,)))
        if d == 3:
            names.append(TypeKey("G(3)"))
        if d == 4:
            names.append(TypeKey("F(4)"))
        for m in range(d - 1, 0, -1):
            n = d - m
            if m >= n:
                names += [TypeKey("C({},{})", (m, n)), TypeKey("BC({},{})", (m, n))]
                if m != n:
                    names += [TypeKey("C({},{})", (n, m)), TypeKey("BC({},{})", (n, m))]
    return names


def _d21a_candidates(fin: FiniteRootSystem) -> List[Q]:
    norms = sorted({fin.norm(r) for r in fin.roots if fin.norm(r) != 0})
    cands = set()
    for u in norms:
        for v in norms:
            if v != 0:
                a = u / v
                if a not in (0, -1):
                    cands.add(a)
                if -a not in (0, -1):
                    cands.add(-a)
    return sorted(cands)


def recognize_cl(fin: FiniteRootSystem):
    """Match a finite system against the catalog.

    Returns (name, homothety from the catalog copy onto the input, copy).
    """
    d = fin.space.dim
    count = len(fin)
    n_iso = len(fin.isotropic_roots())
    seen = set()
    for key in _candidate_names(fin):
        if key in seen:
            continue
        seen.add(key)
        cat = catalog.build(key)
        if len(cat) != count or cat.space.dim != d:
            continue
        if len(cat.isotropic_roots()) != n_iso:
            continue
        h = isomorphic_finite(cat, fin)
        if h is not None:
            return str(key), h, cat
    if d == 3 and n_iso == 8 and count == 14:
        for a in _d21a_candidates(fin):
            cat = catalog.build(TypeKey("D(2,1;a={})", (a,)))
            h = isomorphic_finite(cat, fin)
            if h is not None:
                orbit = {a, 1 / a, -1 - a}
                orbit |= {1 / x for x in list(orbit) if x != 0}
                orbit |= {-1 - x for x in list(orbit)}
                canon = min(x for x in orbit if x not in (0, -1))
                return str(TypeKey("D(2,1;a={})", (canon,))), h, cat
    raise UnrecognizedCl(
        f"no catalog match for dim {d}, {count} roots, {n_iso} isotropic"
    )


# ---------------------------------------------------------------------------
# Data extraction helpers


def _family_lattice(fam: CosetSet) -> Lattice:
    """The family as a subgroup; requires a single unshifted full coset."""
    from .linalg import is_zero

    if len(fam.reps) != 1 or not is_zero(fam.translate) or not is_zero(fam.reps[0]):
        raise UnrecognizedCl("family is not a lattice; not of the classified shape")
    return fam.modulus


def _points_mod2(fam: CosetSet, L: Lattice) -> frozenset:
    """Members of the family as points of L/2L, expanding the modulus."""
    two_L = L.scaled(2)
    if not fam.modulus.contains_lattice(two_L):
        raise UnrecognizedCl("family is not a union of doubled-lattice cosets")
    cosreps = fam.modulus.coset_representatives(two_L)
    pts = set()
    for m in fam.members():
        for cr in cosreps:
            coeffs = L.coefficients(vadd(m, cr))
            if coeffs is None:
                raise UnrecognizedCl("family member outside the reference lattice")
            p = 0
            for j, c in enumerate(coeffs):
                if int(c) % 2:
                    p |= 1 << j
            pts.add(p)
    return frozenset(pts)


def _index_power(idx: int, r: int) -> Optional[int]:
    """e with r**e == idx, if any."""
    e = 0
    while idx > 1:
        if idx % r:
            return None
        idx //= r
        e += 1
    return e


def _pullback_families(system: SymbolicRootSystem, hmap: Homothety, key: TypeKey):
    """Family lookup normalized to the generated-subsystem convention.

    Roots are chosen above the standard generating classes of the recognized
    quotient; every family is then shifted as if the splitting ran through
    those roots, making the extracted data independent of the presentation.
    """
    gens = catalog.generating_roots(key)
    gen_cl = [hmap.apply(g) for g in gens]
    entries = [system.entry_for_cl(w) for w in gen_cl]
    anchors = [
        vadd(e.lift, min(e.family.members())) for e in entries
    ]

    def fam(cat_root: Vector) -> CosetSet:
        w = hmap.apply(cat_root)
        e = system.entry_for_cl(w)
        coords = solve_in_span(gen_cl, w)
        if coords is None:
            raise UnrecognizedCl("quotient class outside the generated span")
        shift = e.lift
        for c, anchor in zip(coords, anchors):
            if c:
                shift = vsub(shift, vscale(c, anchor))
        return e.family.shift(shift)

    return fam


# ---------------------------------------------------------------------------
# identify


def identify(system: SymbolicRootSystem) -> ClassDescriptor:
    """Canonical class descriptor of a symbolic system.

    The minimal quotient is recognized against the catalog; the family data
    is pulled back along the recognition map, read off the first root of
    each group of `catalog.orbits`, and canonicalized by `canonical_data`.
    """
    k = system.kernel_dim
    cl_sys = system.cl()
    name, hmap, cat = recognize_cl(cl_sys)
    key = type_key(name)
    kind = key.kind
    L = system.L
    if L.rank != k:
        raise UnrecognizedCl("offset lattice does not span the radical")

    if key.case_i:
        # every family must be one full coset of L (shift-independent test)
        for e in system.entries:
            if e.family.modulus != L or len(e.family.reps) != 1:
                raise UnrecognizedCl(
                    "transitive-quotient system whose families are not full cosets"
                )
        return _desc_aff(name, k)

    if key == TypeKey("C({},{})", (1, 1)) or kind == "A({},{})_f":
        return _identify_ann(system, key, hmap, cat, k, L)

    fam = _pullback_families(system, hmap, key)
    layout = catalog.orbits(key)

    if kind in ("G2", "F4"):
        r = 3 if kind == "G2" else 2
        Lp, H2 = (_family_lattice(fam(o.roots[0])) for o in layout)
        idx = H2.index_in(Lp)
        if idx is None:
            raise UnrecognizedCl("long-root family of infinite index")
        e = _index_power(idx, r)
        if e is None or e > k:
            raise UnrecognizedCl("long-root family index is not a pure power")
        return ClassDescriptor(name, k, ("s", k - e))

    _check_k(k)
    if kind in ("C({},{})", "BC({},{})"):
        return _identify_cmn(key, fam, layout, k, L)
    families = [fam(o.roots[0]) for o in layout]
    if kind == "BC{}":
        return _identify_bcn(key, families, k, L)

    # A1, B_n, C_n, B(m,n), C2: the subsets are read against the full-lattice
    # family (halved for 2L), which comes first, or against L
    ref, masks = L, []
    for o, f in zip(layout, families):
        if o.data in ("L", "2L"):
            ref = _family_lattice(f)
            if o.data == "2L":
                ref = ref.scaled(Q(1, 2))
        else:
            masks.append(_mask_from_points(k, _points_mod2(f, ref)))
    return ClassDescriptor(name, k, canonical_data(key, k, masks))


def _doubled_root_lattice(fam, reps, L):
    """For cl = C(m,n) or BC(m,n), given the first root of each orbit of the
    layout: the family above 2 eps (the root that carries S), the lattice
    generated by the families above 2 eps and 2 delta (the root that carries
    ~S), and twice the isotropic anchor a, a member above eps + delta."""
    eps2, dlt2 = reps["S"], reps["~S"]
    f_eps, f_dlt = fam(eps2), fam(dlt2)
    members = [v for f in (f_eps, f_dlt) for v in f.members()]
    Lp = Lattice.from_vectors(L.dim, members).add(f_eps.modulus).add(f_dlt.modulus)
    a = fam(vscale(Q(1, 2), vadd(eps2, dlt2))).members()[0]
    return f_eps, Lp, vadd(a, a)


def _zero_sum_multisets(vectors: List[Vector], size: int) -> List[Tuple[int, ...]]:
    """Index tuples i_1 <= ... <= i_size whose vectors sum to zero.

    The vectors are scaled to integers; the sums of the first size // 2
    indices are indexed in a dict, and each tuple of the remaining indices
    looks up its negated sum among those ending at or before its first.
    """
    den = lcm(*(x.denominator for v in vectors for x in v))
    ints = [tuple(int(x * den) for x in v) for v in vectors]

    def sums(m):
        for combo in itertools.combinations_with_replacement(range(len(ints)), m):
            yield combo, tuple(map(sum, zip(*(ints[i] for i in combo))))

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
    """cl = A(n,n)_f (n > 1) or C(1,1): quotient-type invariants (q, p)."""
    name = str(key)
    n = key.params[0]

    def fam(cat_root):
        return system.entry_for_cl(hmap.apply(cat_root)).family

    if k >= 2 and n == 1:
        # Split the subset forms C(1,1)(S) from the rational quotients by
        # the position of the isotropic anchor relative to the lattice
        # generated by the two doubled-root families: 2a inside means a
        # subset form, outside means a quotient form.
        reps = {o.data: o.roots[0] for o in catalog.orbits(key)}
        f_eps, Lp, two_a = _doubled_root_lattice(_pullback_families(system, hmap, key), reps, L)
        if Lp.rank == L.rank and Lp.member(two_a):
            _check_k(k)
            mask = _mask_from_points(k, _points_mod2(f_eps, Lp))
            return ClassDescriptor(name, k, canonical_data(key, k, [mask]))

    noniso = next(r for r in cat.roots if cat.norm(r) != 0)
    F = fam(noniso)
    M = F.modulus
    if M.rank < L.rank:
        for r in cat.roots:
            if cat.norm(r) != 0 and fam(r).modulus.rank >= L.rank:
                raise UnrecognizedCl("inconsistent family ranks")
        return ClassDescriptor(name, k, ("gl",))
    if len(F.reps) != 1:
        raise UnrecognizedCl("non-isotropic family is not a single coset")
    q = M.index_in(L)

    if k > 1:
        return ClassDescriptor(name, k, ("Annx", q, None))
    if q == 1:
        return ClassDescriptor(name, k, ("Annx", 1, 0))
    if n > 3:
        raise KTooLarge("the sum invariant is capped at n <= 3")
    lifts = system.lifts
    classes = set()
    for combo in _zero_sum_multisets(lifts, n + 1):
        s = None
        for i in combo:
            f = system.family_of_lift(lifts[i])
            s = f if s is None else s.add(f)
        for m in s.members():
            c = L.coefficients(m)
            if c is None:
                raise UnrecognizedCl("subset sum leaves the offset lattice")
            classes.add(int(c[0]) % q)
    nonzero = {min(c, (q - c) % q) for c in classes if c % q != 0}
    p = min(nonzero) if nonzero else 0
    return ClassDescriptor(name, k, ("Annx", q, p))


def _identify_cmn(key, fam, layout, k, L):
    """cl = C(m,n) (mn > 1) or BC(m,n): subset data of Prop-6 shape."""
    reps = {o.data: o.roots[0] for o in layout}
    f_eps, Lp, two_a = _doubled_root_lattice(fam, reps, L)
    if not Lp.member(two_a):
        # shifted presentation: enlarge the reference lattice by 2a
        Lp = Lp.add(Lattice.from_vectors(L.dim, [two_a]))
    masks = [_mask_from_points(k, _points_mod2(f_eps, Lp))]
    if "Sp/2" in reps:
        f_short = fam(reps["Sp/2"]).scale(2)
        masks.append(_mask_from_points(k, _points_mod2(f_short, Lp)))
    return ClassDescriptor(str(key), k, canonical_data(key, k, masks))


def _identify_bcn(key, families, k, L):
    """cl = BC_n: partially canonicalized data; the classification of this
    case is incomplete, so descriptor equality is only reliable between
    like presentations.

    For n = 1 the short offsets generate the reference lattice and the
    doubled-root offsets are read modulo four times it; for n >= 2 the
    short offsets live in half the reference lattice and all data reduces
    modulo twice it.
    """
    n = key.params[0]
    f_short, f_long = families[:2]

    if n == 1:
        Lp = Lattice.from_vectors(L.dim, f_short.members()).add(f_short.modulus)
        s_pts = _points_mod2(f_short, Lp)
        four_L = Lp.scaled(4)
        if not f_long.modulus.contains_lattice(four_L):
            raise UnrecognizedCl("doubled-root family not of (Z/4)-shape")
        digits = set()
        for m in f_long.members():
            for cr in f_long.modulus.coset_representatives(four_L):
                coeffs = Lp.coefficients(vadd(m, cr))
                if coeffs is None:
                    raise UnrecognizedCl("doubled-root family outside the lattice")
                d = 0
                for j, c in enumerate(coeffs):
                    d |= (int(c) % 4) << (2 * j)
                digits.add(d)
        data = ("BCn", 1, _mask_from_points(k, s_pts), tuple(sorted(digits)))
        return ClassDescriptor(str(key), k, data)

    f_pair = families[2]
    Lp = Lattice.from_vectors(L.dim, f_pair.members()).add(f_pair.modulus)
    s1 = _points_mod2(f_short.scale(2), Lp)
    s2 = _points_mod2(f_long, Lp)
    s3 = _points_mod2(f_pair, Lp)
    data = (
        "BCn",
        n,
        _mask_from_points(k, s1),
        _mask_from_points(k, s2),
        _mask_from_points(k, s3),
    )
    return ClassDescriptor(str(key), k, data)


# ---------------------------------------------------------------------------
# enumerate_classes


def enumerate_classes(cl_name: str, k: int) -> List[ClassDescriptor]:
    """Complete duplicate-free descriptor list for the classified types."""
    _check_k(k)
    key = type_key(cl_name)
    kind, name = key.kind, str(key)
    if key.case_i:
        return [_desc_aff(name, k)]
    full = (1 << (1 << k)) - 1
    if key == TypeKey("C({},{})", (1, 1)):
        raise NotClassified("C(1,1) admits infinitely many classes (rational quotients)")
    if kind in ("C({},{})", "BC({},{})"):
        # the name identify gives: C(1,2) is recognized as C(2,1)
        name = recognize_cl(key.system())[0]

    if kind in ("G2", "F4"):
        return [ClassDescriptor(name, k, ("s", s)) for s in range(k + 1)]
    if kind in ("A1", "B({},{})", "C({},{})") or (kind in ("B{}", "C{}") and key.params[0] >= 3):
        masks = _orbit_minima(k)
        if kind == "A1":
            # A1 keeps the subsets that contain an affine basis, an affine invariant
            masks = [m for m in masks if contains_affine_basis(F2Subset(k, m))]
        elif kind == "C({},{})":
            # a proper subset; for m = n it is read up to its complement
            masks = [m for m in masks if m != full]
        data = {canonical_data(key, k, [m]) for m in masks}
    elif key == TypeKey("C{}", (2,)) or kind == "BC({},{})":
        c2 = kind == "C{}"
        if not c2 and k > 3:
            raise KTooLarge(
                f"{name} at k = {k} takes 30 first masks x 65 535 second masks at 0.3 to "
                "0.4 s per canonical_pair call, which is days; BC(m,n) is listed up to k = 3"
            )
        translations = _point_maps(k)[1]
        data = set()
        # Translations and linear maps act on the first mask, so every pair
        # orbit has a member whose first mask is an orbit minimum.
        for m1 in _orbit_minima(k):
            if not c2:
                # BC(m,n): a proper first subset, any nonempty second one
                seconds = range(1, full + 1) if m1 != full else ()
            elif m1 == full:
                # every affine map fixes the full set, so the data is (full,
                # the least form of S2 under AGL(k,2)) without a pair walk
                data.update(("S1S2", full, m2) for m2 in _orbit_minima(k))
                continue
            elif contains_affine_basis(F2Subset(k, m1)):
                # S1 + S2 <= S1 holds for the S2 through 0 inside the period
                # group {t : S1 + t = S1}
                seconds = [1]
                for t in range(1, 1 << k):
                    if _image(translations[t], m1) == m1:
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
