"""Constructors for the named finite and affine systems.

Finite systems are produced in epsilon/delta coordinates with the orthogonal
form diag(+1..+1, -1..-1) (scaled per family), then restricted to the span
of their roots, so every constructor output satisfies the span axiom in its
own space.  Affine families attach coset data over k appended central
directions delta_1..delta_k.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import BadMatrix, BadParameters, UnrecognizedCl
from .finite import FiniteRootSystem
from .linalg import (
    BilinearSpace,
    Lattice,
    Vector,
    _int_combination,
    column_basis,
    hnf_cosets,
    hnf_int,
    hnf_reduce,
    standard_space,
    unit_vector,
    vneg,
)
from .symbolic import CosetSet, SymbolicRootSystem, _padded, affinize, from_finite, quotient


_Row = Tuple[int, ...]


def _system(space: BilinearSpace, den: int, rows: List[_Row]) -> FiniteRootSystem:
    """The system of the integer rows / den and their negatives: one row is
    given per +- pair."""
    return FiniteRootSystem._of_rows(space, den, [*rows, *map(vneg, rows)])


def _axes(dim: int, idxs, c: int = 1) -> List[_Row]:
    """c e_i for i in idxs."""
    return [tuple(c * (j == i) for j in range(dim)) for i in idxs]


def _pairs(dim: int, idxs, c: int = 1) -> List[_Row]:
    """c (e_i - e_j) and c (e_i + e_j) for i < j in idxs, in that order."""
    return [tuple(c * ((k == i) + s * (k == j)) for k in range(dim))
            for i, j in itertools.combinations(idxs, 2) for s in (-1, 1)]


def _signs(dim: int) -> List[_Row]:
    """The vectors of +-1 entries with first entry 1: one of each +- pair."""
    return [(1, *s) for s in itertools.product((1, -1), repeat=dim - 1)]


def _type_a(plus: int, minus: int) -> FiniteRootSystem:
    """All e_i - e_j for the form diag(+1 x plus, -1 x minus), on their span."""
    dim = plus + minus
    rows = _pairs(dim, range(dim))[::2]  # the e_i - e_j
    return _system(standard_space(plus, minus), 1, rows).restricted_to_span()


def _type_bcd(m: int, n: int, eps_lengths, dlt_lengths) -> FiniteRootSystem:
    """All +-e_i +- e_j for the form diag(+1 x m, -1 x n), plus +-c e_i for
    each c in eps_lengths on the first m axes and in dlt_lengths on the rest.

    With no negative axes (n = 0) this gives B_m, C_m, D_m and BC_m;
    otherwise B(m,n), D(m,n), C(n + 1) = D(1,n) and the weak C(m,n), BC(m,n).
    """
    dim = m + n
    rows = _pairs(dim, range(dim))
    for c in eps_lengths:
        rows += _axes(dim, range(m), c)
    for c in dlt_lengths:
        rows += _axes(dim, range(m, dim), c)
    return _system(standard_space(m, n), 1, rows)


def _g2() -> FiniteRootSystem:
    # short root norm 1; basis (alpha short, beta long)
    sp = BilinearSpace([[1, Q(-3, 2)], [Q(-3, 2), 3]])
    return _system(sp, 1, [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)])


def _f4() -> FiniteRootSystem:
    # short root norm 2: orthogonal coordinates with gram 2*I
    sp = BilinearSpace([[2 if i == j else 0 for j in range(4)] for i in range(4)])
    return _system(sp, 2, _pairs(4, range(4), 2) + _axes(4, range(4), 2) + _signs(4))


def _e_series(n: int) -> FiniteRootSystem:
    # E8 on rows over 2: 2(+-e_i +- e_j) and the sign vectors with an even
    # number of -1
    rows = _pairs(8, range(8), 2) + [s for s in _signs(8) if s.count(-1) % 2 == 0]
    if n == 8:
        return _system(standard_space(8), 2, rows)
    # the Gram matrix is the identity: r is orthogonal to the wall e_6 + e_7
    # (and for E6 to e_5 + e_7) when those coordinates cancel
    picked = [r for r in rows if r[6] + r[7] == 0 and (n == 7 or r[5] + r[7] == 0)]
    return _system(standard_space(8), 2, picked).restricted_to_span()


def _d21a(a: Q) -> FiniteRootSystem:
    a = Q(a)
    sp = BilinearSpace(
        [
            [Q(-(1 + a), 2), 0, 0],
            [0, Q(1, 2), 0],
            [0, 0, Q(a, 2)],
        ]
    )
    return _system(sp, 1, _axes(3, range(3), 2) + _signs(3))


def _super_f4() -> FiniteRootSystem:
    sp = BilinearSpace(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -3]]
    )
    return _system(sp, 2, _pairs(4, range(3), 2) + _axes(4, range(4), 2) + _signs(4))


def _super_g3() -> FiniteRootSystem:
    # G2 block with short norm 2, plus one odd direction delta of norm -2
    sp = BilinearSpace([[2, -3, 0], [-3, 6, 0], [0, 0, -2]])
    shorts = [(1, 0, 0), (1, 1, 0), (-2, -1, 0)]
    longs = [(0, 1, 0), (3, 1, 0), (3, 2, 0)]
    odd = [(a, b, s) for a, b, _ in shorts for s in (1, -1)]
    return _system(sp, 1, shorts + longs + [(0, 0, 1), (0, 0, 2)] + odd)


# ---------------------------------------------------------------------------
# Type names
#
# Generating sets (simple-root style, in catalog coordinates) normalize
# family data to the convention where the generating classes carry actual
# roots.  For the weak C/BC pairs this is the C_m + C_n generating set, which
# generates a proper subsystem.  Each is a list of integer rows over the
# `scale` of the type's system: 2 for F4, 1 for the others.


def _chain(dim: int, axes, c) -> List[_Row]:
    """e_a - e_b along consecutive axes, then c times the last axis."""
    axes = list(axes)
    out = [tuple((i == a) - (i == b) for i in range(dim)) for a, b in zip(axes, axes[1:])]
    return out + _axes(dim, axes[-1:], c)


def _a_gens(n: int = 1) -> List[_Row]:
    system = build(f"A{n}")
    return [system._rows[i] for i in system._span[0]]


def _f4_gens() -> List[_Row]:
    return [tuple(2 * x for x in r) for r in _chain(4, (1, 2, 3), 1)] + [(1, -1, -1, -1)]


def _cmn_gens(m: int, n: int) -> List[_Row]:
    return _chain(m + n, range(m), 2) + _chain(m + n, range(m, m + n), 2)


class _Type(NamedTuple):
    system: Callable[..., FiniteRootSystem]  # the finite constructor
    case_i: bool  # transitive quotient: only affinizations lie above it
    tries: Callable[[int, FiniteRootSystem], List[Tuple]]  # for recognition; see _TYPES
    gens: Optional[Callable[..., List[_Row]]] = None  # over the scale of the system
    valid: Callable[..., bool] = lambda *params: True
    needs: str = ""  # the parameter range, for the error message
    isotropic: bool = False  # some roots are isotropic: tried on such quotients only


def _at(dim: int):
    """`tries` for a kind without parameters, whose system has dimension `dim`."""
    return lambda d, q: [()] * (d == dim)


def _rank(least: int, most: Optional[int] = None):
    """`tries` for a kind (n) of dimension n: n = d when least <= d (<= most)."""
    return lambda d, q: [(d,)] * (least <= d <= (most or d))


def _splits(least: int):
    """`tries` for a kind (m, n) of dimension m + n: m >= least, n >= 1, m descending."""
    return lambda d, q: [(m, d - m) for m in range(d - 1, least - 1, -1)]


def _d21a_tries(d: int, q: FiniteRootSystem) -> List[Tuple]:
    """The a of D(2,1;a) tried on a quotient of dimension 3: the ratios
    +-u/v of its root norms, ascending, each replaced by the least a of its
    orbit under a -> 1/a and a -> -1 - a, whose systems are isomorphic."""
    norms = set(q._norms) - {0} if d == 3 else ()
    ratios = sorted({s * u / v for u in norms for v in norms for s in (1, -1)} - {-1})
    least = (min(a, 1 / a, -1 - a, -1 / (1 + a), -(1 + a) / a, -a / (1 + a)) for a in ratios)
    return [(a,) for a in dict.fromkeys(least)]


# Keyed by kind: the spelling with "{}" in place of each parameter.  Names
# are parsed against the kinds in this order, so A1 precedes A{}.
# `classify.recognize_cl` walks them in this order too: for a quotient q of
# dimension d, each kind whose roots are isotropic when q's are tries the
# parameters `tries(d, q)`, and the first catalog system of q's dimension
# and root counts with a homothety onto q names it.  So the order and the
# tries decide: A1, not C1 (C_n from n = 2); C2, not B2 (B_n from n = 3); A3,
# not D3 (D_n from n = 3, so A1 x A1 is unrecognized); A(1,0), not C(2);
# C(1,1), not A(1,1)_f (A(n,n)_f from n = 2); A, C and BC(m,n) with m > n;
# D(2,1), not D(2,1;a=1).  Among unlike systems of equal counts the order
# makes failed searches few (E6 precedes B6 and C6, G2 BC2, B_n C_n), and the
# classified types come early, so few other systems are built to name them.
_TYPES: Dict[str, _Type] = {
    "G2": _Type(_g2, False, _at(2), lambda: [(1, 0), (0, 1)]),
    "F4": _Type(_f4, False, _at(4), _f4_gens),
    "E{}": _Type(_e_series, True, _rank(6, 8), None,
                 lambda n: n in (6, 7, 8), "E_n needs n in 6, 7, 8"),
    "B{}": _Type(lambda n: _type_bcd(n, 0, (1,), ()), False, _rank(3),
                 lambda n: _chain(n, range(n), 1), lambda n: n >= 2, "B_n needs n >= 2"),
    "C{}": _Type(lambda n: _type_bcd(n, 0, (2,), ()), False, _rank(2),
                 lambda n: _chain(n, range(n), 2), lambda n: n >= 1, "C_n needs n >= 1"),
    "A1": _Type(lambda: _type_a(2, 0), False, _at(1), _a_gens),
    "A{}": _Type(lambda n: _type_a(n + 1, 0), True, _rank(2), _a_gens,
                 lambda n: n >= 2, "A_n needs n >= 1"),
    "D{}": _Type(lambda n: _type_bcd(n, 0, (), ()), True, _rank(3), None,
                 lambda n: n >= 2, "D_n needs n >= 2"),
    "BC{}": _Type(lambda n: _type_bcd(n, 0, (1, 2), ()), False, _rank(1),
                  lambda n: _chain(n, range(n), 1), lambda n: n >= 1, "BC_n needs n >= 1"),
    "B({},{})": _Type(lambda m, n: _type_bcd(m, n, (1,), (1, 2)), False, _splits(1),
                      lambda m, n: _chain(m + n, [*range(m, m + n), *range(m)], 1),
                      lambda m, n: m >= 1 and n >= 1, "B(m,n) needs m, n >= 1", isotropic=True),
    "C({},{})": _Type(lambda m, n: _type_bcd(m, n, (2,), (2,)), False, _splits(1), _cmn_gens,
                      lambda m, n: m >= 1 and n >= 1, "C(m,n) needs m, n >= 1", isotropic=True),
    "BC({},{})": _Type(lambda m, n: _type_bcd(m, n, (1, 2), (1, 2)), False, _splits(1), _cmn_gens,
                       lambda m, n: m >= 1 and n >= 1, "BC(m,n) needs m, n >= 1", isotropic=True),
    "A({},{})": _Type(lambda m, n: _type_a(m + 1, n + 1), True,
                      lambda d, q: [(m, d - 1 - m) for m in range(d - 1, (d - 1) // 2, -1)],
                      isotropic=True),
    "A({},{})_f": _Type(lambda m, n: from_finite(_type_a(n + 1, n + 1)).cl(), False,
                        lambda d, q: [(d // 2, d // 2)] * (d >= 4 and d % 2 == 0), None,
                        lambda m, n: m == n >= 1, "the _f quotient applies to A(n,n), n >= 1",
                        isotropic=True),
    "D({},{})": _Type(lambda m, n: _type_bcd(m, n, (), (2,)), True, _splits(2), None,
                      lambda m, n: m >= 2 and n >= 1, "D(m,n) needs m >= 2, n >= 1",
                      isotropic=True),
    "C({})": _Type(lambda n: _type_bcd(1, n - 1, (), (2,)), True, _rank(2), None,
                   lambda n: n >= 2, "C(n) needs n >= 2", isotropic=True),
    "G(3)": _Type(_super_g3, True, _at(3), isotropic=True),
    "F(4)": _Type(_super_f4, True, _at(4), isotropic=True),
    "D(2,1;a={})": _Type(_d21a, True, _d21a_tries, None, lambda a: a not in (0, -1),
                         "D(2,1;a) needs a outside {0, -1}", isotropic=True),
}


@dataclass(frozen=True)
class TypeKey:
    """A parsed type name: its kind, a key of the type table such as
    "B({},{})" for B(m,n) or "A({},{})_f" for A(n,n)_f, and its integer or
    rational parameters.

    Construction checks the parameter ranges; `str(key)` is the canonical
    spelling of the name.
    """

    kind: str
    params: Tuple = ()

    def __post_init__(self):
        row = _TYPES.get(self.kind)
        if row is None or self.kind.count("{}") != len(self.params):
            raise BadParameters(f"no type {self.kind!r} with parameters {self.params}")
        if not row.valid(*self.params):
            raise BadParameters(row.needs)

    def __str__(self) -> str:
        return self.kind.format(*self.params)

    @property
    def case_i(self) -> bool:
        """The quotient is transitive: every affine system above it is an
        affinization."""
        return _TYPES[self.kind].case_i

    @lru_cache(maxsize=None)
    def system(self) -> FiniteRootSystem:
        return _TYPES[self.kind].system(*self.params)


def _pattern(kind: str):
    arg = r"([^)]+)" if kind == "D(2,1;a={})" else r"([0-9]+)"
    return re.compile(arg.join(re.escape(part) for part in kind.split("{}")))


_PATTERNS = [(kind, _pattern(kind)) for kind in _TYPES]


def type_key(name: Union[str, TypeKey]) -> TypeKey:
    """Parse a type name (grammar in the README, "Names"); a key passes through.

    Whitespace is ignored.  Raises BadParameters for anything that is not
    the name of a type.
    """
    if isinstance(name, TypeKey):
        return name
    text = "".join(str(name).split())
    for kind, pattern in _PATTERNS:
        m = pattern.fullmatch(text)
        if m is None:
            continue
        parse = Q if kind == "D(2,1;a={})" else int
        try:
            params = tuple(parse(g) for g in m.groups())
        except (ValueError, ZeroDivisionError):
            raise BadParameters(f"the parameter of {text} must be rational") from None
        return TypeKey(kind, params)
    raise BadParameters(f"cannot parse system name {name}")


def build(name: Union[str, TypeKey]) -> FiniteRootSystem:
    """Construct a named finite system (classical, super, or weak)."""
    return type_key(name).system()


def _gens(key: TypeKey) -> List[_Row]:
    gens = _TYPES[key.kind].gens
    if gens is None:
        raise BadParameters(f"no generating set recorded for {key}")
    return gens(*key.params)


def generating_roots(name: Union[str, TypeKey]) -> List[Vector]:
    """A standard generating set (simple-root style) in catalog coordinates."""
    key = type_key(name)
    rows, d = _gens(key), key.system().scale
    return [tuple(Q(x, d) for x in r) for r in rows]


# ---------------------------------------------------------------------------
# Reflection closures of symmetric matrices


def real_roots_from_matrix(
    matrix: Sequence[Sequence], J: Sequence[int] = (), height_bound: int = 20
) -> Tuple[FiniteRootSystem, bool]:
    """Closure of the unit basis (plus doubled J-entries) under simple
    reflections, truncated at the given height.

    Returns (system, truncated).  Height is the sum of absolute coordinates
    in the simple basis.
    """
    C = [[Q(x) for x in row] for row in matrix]
    n = len(C)
    if any(len(row) != n for row in C):
        raise BadMatrix("matrix is not square")
    for i in range(n):
        for j in range(n):
            if C[i][j] != C[j][i]:
                raise BadMatrix("matrix is not symmetric")
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        if C[i][i] == 0:
            raise BadMatrix("zero diagonal entry")
        for j in range(n):
            a = 2 * C[i][j] / C[i][i]
            if a.denominator != 1:
                raise BadMatrix("2 c_ij / c_ii must be integral")
            A[i][j] = a.numerator
    J = sorted(set(J))
    for j in J:
        if not 0 <= j < n:
            raise BadMatrix("J index out of range")
        for i in range(n):
            if (C[j][i] / C[j][j]).denominator != 1:
                raise BadMatrix("c_ji / c_jj must be integral for j in J")
    if height_bound < 1:
        raise BadMatrix("height bound must be positive")

    # in the simple basis r_i(v) = v - (sum_j a_ij v_j) e_i: the closure runs
    # on integer tuples and touches coordinate i only
    seeds = [(i, 1) for i in range(n)] + [(j, 2) for j in J]
    found = set()
    frontier = []
    truncated = False
    for i, c in seeds:
        for s in (c, -c):
            v = tuple(s if j == i else 0 for j in range(n))
            if v not in found:
                found.add(v)
                frontier.append(v)
    while frontier:
        v = frontier.pop()
        for i, row in enumerate(A):
            img = v[:i] + (v[i] - sum(map(mul, row, v)),) + v[i + 1:]
            if img in found:
                continue
            if sum(map(abs, img)) > height_bound:
                truncated = True
                continue
            found.add(img)
            frontier.append(img)
    return FiniteRootSystem._of_rows(BilinearSpace(C), 1, list(found)), truncated


# ---------------------------------------------------------------------------
# The A(n,n)_x family


def a_nn_x(n: int, p: int, q: int, extra_affinizations: int = 0) -> SymbolicRootSystem:
    """Quotient of the (1+k)-fold affinization of A(n,n) by I + (p/q) delta."""
    if n < 1:
        raise BadParameters("A(n,n) needs n >= 1")
    if q < 1:
        raise BadParameters("q must be positive")
    if gcd(abs(p), q) != 1:
        raise BadParameters("p/q must be in lowest terms")
    if n == 1 and q == 1:
        raise BadParameters("A(1,1)_x needs a non-integral x")
    if extra_affinizations < 0:
        raise BadParameters("extra affinization count must be nonnegative")
    sym = from_finite(_type_a(n + 1, n + 1))
    if sym.L.rank != 1:
        raise BadParameters("unexpected radical for A(n,n)")
    Ivec = sym.L.basis[0]
    aff = affinize(sym, 1 + extra_affinizations)
    direction = tuple(
        list(Ivec) + [Q(p, q)] + [Q(0)] * extra_affinizations
    )
    return quotient(aff, [direction], require_bijective=True)


# ---------------------------------------------------------------------------
# Classified affine families over F_2^k data


# A subset of F_2^k (of (Z/4)^k for the BC1 H2) is a mask, bit p set for each
# point p, from the parameters of `family` to the class descriptor.  A point of
# L/rL = (Z/r)^k is the integer whose base-r digits are its coordinates on the
# basis of L.  `family` writes its families through `_preimage`, and
# `identify` reads them back through `points_mod`.  No mask is wider than
# _MASK_BITS bits: a listed point lies below it, and the complement of S, a
# mask over all 2^k points, is written only for k <= 20.
_MASK_BITS = 1 << 20


def subset_mask(k: int, points) -> int:
    """The mask of a list of points of F_2^k."""
    pts = frozenset(int(x) for x in points)
    for p in pts:
        if p < 0 or p.bit_length() > k:
            raise BadParameters(f"point {p} outside F_2^{k}")
        if p >= _MASK_BITS:
            raise BadParameters(f"point {p} is not below the mask bound 2^20")
    return sum(1 << p for p in pts)


def _bits(mask: int) -> List[int]:
    """The points of a mask, ascending: one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _sumset(a: int, b: int) -> int:
    """The mask of A + B = {x ^ y : x in A, y in B}."""
    xs, out = _bits(a), 0
    for y in _bits(b):
        for x in xs:
            out |= 1 << (x ^ y)
    return out


def _normalize_zero(mask: int) -> int:
    """Translate so the set contains 0, by its least point."""
    return _sumset(mask, mask & -mask)


def spans_affinely(k: int, mask: int) -> bool:
    """Some k+1 points of the subset affinely span F_2^k: the differences
    p ^ p0 from its least point p0 have rank k over F_2.  Each difference is
    reduced against an XOR basis kept by leading bit; a point outside F_2^k
    never spans."""
    if not mask or mask.bit_length() > 1 << k:
        return False
    p0, *rest = _bits(mask)
    basis: Dict[int, int] = {}
    for p in rest:
        d = p ^ p0
        while d and d.bit_length() in basis:
            d ^= basis[d.bit_length()]
        if d:
            basis[d.bit_length()] = d
    return len(basis) == k


def _coordinates(p: int, k: int, r: int = 2) -> List[int]:
    """The k coordinates of the point p of (Z/r)^k."""
    return [p // r**j % r for j in range(k)]


def _point(coords: Sequence[int], r: int = 2) -> int:
    """The point of (Z/r)^k with these integer coordinates, reduced mod r."""
    return sum(c % r * r**j for j, c in enumerate(coords))


def _preimage(L: Lattice, mask: int, r: int = 2, scale=1) -> CosetSet:
    """scale * (the preimage of the points of the mask under L -> L/rL),
    built on the basis of scale * L: the points' coordinates modulo r I."""
    k = L.rank
    reps = [_coordinates(p, k, r) for p in _bits(mask)]
    mod = [[r * (i == j) for j in range(k)] for i in range(k)] if reps else []
    amb = L.scaled(scale)
    return CosetSet.__new__(CosetSet)._set(amb, amb.scale, (0,) * L.dim, mod, reps)


def points_mod(fam: CosetSet, ref: Lattice, r: int = 2) -> int:
    """The mask of the points of ref/r*ref that the family meets, on the
    basis of ref: for fam = `_preimage(ref, mask, r)` this is the mask.  On
    the ambient's coordinates r*ref lies in M with finite index, and each
    translate + rep + c, c in a box of M / r*ref, is reduced on ref once."""
    amb = fam.ambient
    sub = amb.coordinates(ref.scaled(r))
    cosets = None if sub is None or any(
        any(hnf_reduce(c, fam._mod, fam._piv)[0]) for c in sub
    ) else hnf_cosets(fam._mod, hnf_int(sub), amb.rank)
    if cosets is None:
        raise UnrecognizedCl(f"family is not a union of cosets of {r} times the reference lattice")
    d = lcm(fam._t[0], ref.scale)
    t, reps, _ = fam._at(d)
    f = d // amb.scale
    box = [[f * x for x in _int_combination(c, amb.rows, amb.dim)] for c in cosets]
    mask = 0
    for rep in reps:
        for b in box:
            w, coeffs = ref.reduce_int([x + y + z for x, y, z in zip(t, rep, b)], d)
            if any(w):
                raise UnrecognizedCl("family member outside the reference lattice")
            mask |= 1 << _point(coeffs, r)
    return mask


class Orbit(NamedTuple):
    """The indices of the roots of a classified quotient that carry one family
    (see `orbits`), greatest first: `identify` reads the family above index[0]."""

    data: str
    index: Tuple[int, ...]


def _layout(key: TypeKey) -> Tuple[Tuple[str, Optional[Tuple[int, ...]]], ...]:
    """The families above the roots of a classified quotient, in the order
    its descriptor reads them, each with the norms of the roots that carry
    it (None: every other root).  The families are written
      L, 2L          the full lattice L or 2L
      S, S1, S2, T   the preimage of that subset of F_2^k = L/2L
      ~S             the preimage of the complement of S
      Sp/2, S1/2     half the preimage of Sp or S1
      s              L with its last k - s generators times 3 (G2) or 2 (F4)
      H2             the preimage of H2, a subset of (Z/4)^k = L/4L (BC1)
    """
    kind, n = key.kind, (key.params or (0,))[0]
    if kind == "A1":
        return (("S", None),)
    if kind == "C{}" and n == 2:
        return (("S1", (2,)), ("S2", (4,)))
    if kind == "B{}" and n >= 3:
        return (("2L", (2,)), ("S", (1,)))
    if kind == "C{}" and n >= 3:
        return (("L", (2,)), ("S", (4,)))
    if kind in ("G2", "F4"):
        return (("L", None), ("s", (3 if kind == "G2" else 4,)))
    if kind == "B({},{})":
        return (("2L", None), ("S", (1, -1)))
    if kind in ("C({},{})", "BC({},{})"):
        shorts = (("Sp/2", (1, -1)),) if kind == "BC({},{})" else ()
        return (("L", None), ("S", (4,)), ("~S", (-4,))) + shorts
    if kind == "BC{}" and n == 1:
        return (("S", (1,)), ("H2", (4,)))
    if kind == "BC{}":
        return (("S1/2", (1,)), ("S2", (4,)), ("T" if n == 2 else "L", (2,)))
    raise BadParameters(f"no affine family constructor for {key}")


@lru_cache(maxsize=None)
def orbits(key: TypeKey) -> Tuple[Orbit, ...]:
    """The root indices of the catalog system of a classified type, grouped
    by the family they carry in `family` (see `_layout`), in the order its
    class descriptor reads them.  `family` builds its families from these
    groups and `identify` reads the data back from them."""
    layout = _layout(key)
    system = key.system()
    by_norm = {norm: data for data, norms in layout for norm in norms or ()}
    rest = next((data for data, norms in layout if norms is None), None)
    groups: Dict[str, List[int]] = {data: [] for data, _ in layout}
    for i in reversed(range(len(system))):
        groups[by_norm.get(system._norms[i], rest)].append(i)
    return tuple(Orbit(data, tuple(index)) for data, index in groups.items())


@lru_cache(maxsize=None)
def _generating_rows(key: TypeKey):
    """(indices, den, rows): the index of each of `generating_roots(key)`
    among the roots of the catalog system of the type (None for no root),
    and each root, in their order, on the generators as an integer row over
    den: the coefficients `solve_in_span` gives, zero on a generator
    dependent on earlier ones.

    One elimination of the generators followed by all the roots: its pivots
    among the generators are those of every `solve_in_span` call, and as the
    generators span the roots, no root is a pivot.
    """
    gens = _gens(key)
    system = key.system()
    picked, den, coords, _ = column_basis([*gens, *system._rows])
    g = len(gens)
    if picked and picked[-1] >= g:
        raise UnrecognizedCl(f"the generating roots of {key} do not span its roots")
    slot = {p: j for j, p in enumerate(picked)}
    rows = tuple(tuple(c[slot[i]] if i in slot else 0 for i in range(g)) for c in coords[g:])
    return tuple(map(system._lookup.get, gens)), den, rows


def _parameter(data: str) -> Optional[str]:
    """The `family` parameter a layout entry reads; None for L and 2L."""
    name = data.lstrip("~").partition("/")[0]
    return None if name in ("L", "2L") else name


def family(cl_name: Union[str, TypeKey], k: int, **params) -> SymbolicRootSystem:
    """Affine system over F_2^k (or scale) data attached to a named quotient.

    Accepted parameter shapes:
      A1:                 S  (points of F_2^k containing an affine basis)
      B_n (n>=3), C_n (n>=3), B(m,n): S (nonempty)
      C2:                 S1, S2 (S2 nonempty)
      G2, F4:             s in 0..k
      C(m,n):             S (proper nonempty)
      BC(m,n):            S (proper nonempty), Sp (nonempty)
      BC1:                S, H2 (subset of (Z/4)^k, encoded base-4 digits)
      BC_n (n>=2):        S1, S2, and T for n == 2
    A parameter that the type does not take raises BadParameters.
    """
    if k < 1:
        raise BadParameters("k must be at least 1")
    key = type_key(cl_name)
    layout = orbits(key)
    unknown = sorted(set(params) - {_parameter(o.data) for o in layout})
    if unknown:
        raise BadParameters(f"{key} takes no parameter {', '.join(unknown)}")
    values = _family_values(key, k, params)
    space, L, d, rows = _frame(key, k)
    lifts, families = [], []
    for o, above in zip(layout, rows):
        lifts += above
        families += [_orbit_family(key, L, o.data, values)] * len(above)
    return SymbolicRootSystem.__new__(SymbolicRootSystem)._take(space, d, lifts, families)


@lru_cache(maxsize=None)
def _frame(key: TypeKey, k: int):
    """(space, L, d, rows), what `family(key, k, ...)` shares for every
    parameter: the space of the quotient with k central coordinates
    appended, the lattice L of those coordinates, and the roots of each
    group of `orbits(key)` padded into it, as integer tuples over d."""
    system = key.system()
    space = _padded(system.space, k)
    dim = space.dim
    L = Lattice.from_vectors(dim, [unit_vector(dim, dim - k + i) for i in range(k)])
    rows = [tuple(system._rows[i] + (0,) * k for i in o.index) for o in orbits(key)]
    return space, L, system.scale, tuple(rows)


def _orbit_family(key: TypeKey, L: Lattice, data: str, values) -> CosetSet:
    """The family a layout entry names, from the checked parameters, over
    the lattice L of the appended coordinates."""
    if data in ("L", "2L"):
        return CosetSet.full_lattice(L if data == "L" else L.scaled(2))
    if data == "s":
        r, k = 3 if key.kind == "G2" else 2, L.rank
        scaled = [[(1 if i < values["s"] else r) * (i == j) for j in range(k)] for i in range(k)]
        return CosetSet.full_lattice(L.sublattice(scaled))
    if data == "H2":
        return _preimage(L, values["H2"], r=4)
    name, _, half = data.lstrip("~").partition("/")
    mask = values[name]
    if data.startswith("~"):
        mask ^= (1 << (1 << L.rank)) - 1
    return _preimage(L, mask, scale=Q(1, 2) if half else 1)


def _family_values(key: TypeKey, k: int, params) -> Dict[str, object]:
    """The parameters of `family`, checked, by name."""
    kind = key.kind

    def mask(name) -> int:
        if params.get(name) is None:
            raise BadParameters(f"missing parameter {name} for {key}")
        return subset_mask(k, params[name])

    if kind in ("G2", "F4"):
        s = params.get("s")
        if s is None or not 0 <= int(s) <= k:
            raise BadParameters("s must lie in 0..k")
        return {"s": int(s)}
    if kind == "BC{}":
        return _bc_n_values(key, k, params, mask)
    if kind == "C{}" and key.params == (2,):
        S1 = _normalize_zero(mask("S1"))
        S2 = _normalize_zero(mask("S2"))
        if not S2:
            raise BadParameters("S2 must be nonempty")
        if not spans_affinely(k, S1):
            raise BadParameters("S1 must contain an affine basis of F_2^k")
        if _sumset(S1, S2) & ~S1:
            raise BadParameters("S1 + S2 must be contained in S1")
        return {"S1": S1, "S2": S2}
    if kind in ("C({},{})", "BC({},{})") and k >= _MASK_BITS.bit_length():
        raise BadParameters(f"{key} at k = {k} writes a mask of 2^k bits, over the bound 2^20")
    S = _normalize_zero(mask("S"))
    if kind == "A1" and not spans_affinely(k, S):
        raise BadParameters("S must contain an affine basis of F_2^k")
    if kind in ("C({},{})", "BC({},{})") and not 0 < S.bit_count() < 1 << k:
        raise BadParameters("S must be a proper nonempty subset of F_2^k")
    if not S:
        raise BadParameters("S must be nonempty")
    if kind != "BC({},{})":
        return {"S": S}
    Sp = mask("Sp")
    if not Sp:
        raise BadParameters("Sp must be nonempty")
    return {"S": S, "Sp": Sp}


def _bc_n_values(key: TypeKey, k: int, params, mask) -> Dict[str, object]:
    if key.params == (1,):
        S = mask("S")
        H2_digits = params.get("H2")
        if H2_digits is None:
            raise BadParameters("missing parameter H2 for BC1")
        if not S & 1 or not spans_affinely(k, S):
            raise BadParameters("S must contain zero and a basis of F_2^k")
        digits = [int(p) for p in H2_digits]
        if any(p < 0 or p.bit_length() > 2 * k for p in digits):  # (Z/4)^k has 2k bits
            raise BadParameters("H2 points must be base-4 digit masks")
        h2 = subset_mask(2 * k, digits)
        if not h2:
            raise BadParameters("H2 must be nonempty")
        # The digits of 2 H2 are 0 and 2, and adding 2 to a digit mod 4 flips
        # its high bit: H2 + 2 H2 is the sumset of the two masks.
        twice = [_point([2 * c for c in _coordinates(p, k, 4)], 4) for p in _bits(h2)]
        if _sumset(h2, subset_mask(2 * k, twice)) & ~h2:
            raise BadParameters("H2 + 2 H2 must be contained in H2")
        if any(not S >> _point(_coordinates(p, k, 4)) & 1 for p in _bits(h2)):
            raise BadParameters("H2 must reduce into S modulo 2")
        return {"S": S, "H2": h2}

    S1 = mask("S1")
    S2 = mask("S2")
    if not S1 & 1:
        raise BadParameters("S1 must contain zero")
    if not S2:
        raise BadParameters("S2 must be nonempty")
    if _sumset(S1, S2) & ~S1:
        raise BadParameters("S1 + S2 must be contained in S1")
    if key.params != (2,):
        return {"S1": S1, "S2": S2}
    T = mask("T")
    if not T & 1 or not spans_affinely(k, T):
        raise BadParameters("T must contain zero and a basis of F_2^k")
    if _sumset(T, S2) & ~T:
        raise BadParameters("H2 + H3 must be contained in H3")
    if _sumset(T, S1) & ~T:
        raise BadParameters("2 H1 + H3 must be contained in H3")
    # H2 + H3 and 2 H1 + H3 then coincide: each translate T + s for s in S1
    # or S2 lies in T and has its size, so it is T; as 0 is in S1 and S2 is
    # nonempty, T + S1 = T = T + S2.
    return {"S1": S1, "S2": S2, "T": T}
