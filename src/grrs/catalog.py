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
from math import gcd
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import BadMatrix, BadParameters
from .finite import FiniteRootSystem, reflect
from .linalg import (
    BilinearSpace,
    Lattice,
    Vector,
    standard_space,
    unit_vector,
    vadd,
    vneg,
    vscale,
    vsub,
    vec,
    zero_vector,
)
from .symbolic import CosetSet, SymbolicRootSystem, _padded, affinize, from_finite, quotient


def _pm(v: Vector) -> List[Vector]:
    return [v, vneg(v)]


def _pairs_roots(dim, idxs):
    out = []
    for i, j in itertools.combinations(idxs, 2):
        out += _pm(vsub(unit_vector(dim, i), unit_vector(dim, j)))
        out += _pm(vadd(unit_vector(dim, i), unit_vector(dim, j)))
    return out


def _type_a(plus: int, minus: int) -> FiniteRootSystem:
    """All e_i - e_j for the form diag(+1 x plus, -1 x minus), on their span."""
    dim = plus + minus
    roots = [
        vsub(unit_vector(dim, i), unit_vector(dim, j))
        for i in range(dim)
        for j in range(dim)
        if i != j
    ]
    return FiniteRootSystem(standard_space(plus, minus), roots).restricted_to_span()


def _type_bcd(m: int, n: int, eps_lengths, dlt_lengths) -> FiniteRootSystem:
    """All +-e_i +- e_j for the form diag(+1 x m, -1 x n), plus +-c e_i for
    each c in eps_lengths on the first m axes and in dlt_lengths on the rest.

    With no negative axes (n = 0) this gives B_m, C_m, D_m and BC_m;
    otherwise B(m,n), D(m,n), C(n + 1) = D(1,n) and the weak C(m,n), BC(m,n).
    """
    dim = m + n
    roots = _pairs_roots(dim, range(dim))
    for i in range(dim):
        for c in eps_lengths if i < m else dlt_lengths:
            roots += _pm(vscale(c, unit_vector(dim, i)))
    return FiniteRootSystem(standard_space(m, n), roots)


def _g2() -> FiniteRootSystem:
    # short root norm 1; basis (alpha short, beta long)
    sp = BilinearSpace([[1, Q(-3, 2)], [Q(-3, 2), 3]])
    pos = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
    roots = []
    for a, b in pos:
        roots += _pm(vec([a, b]))
    return FiniteRootSystem(sp, roots)


def _f4() -> FiniteRootSystem:
    # short root norm 2: orthogonal coordinates with gram 2*I
    sp = BilinearSpace([[2 if i == j else 0 for j in range(4)] for i in range(4)])
    roots = _pairs_roots(4, range(4))
    for i in range(4):
        roots += _pm(unit_vector(4, i))
    for signs in itertools.product((1, -1), repeat=4):
        roots.append(tuple(Q(s, 2) for s in signs))
    return FiniteRootSystem(sp, roots)


def _e8_roots() -> List[Vector]:
    roots = []
    for i, j in itertools.combinations(range(8), 2):
        for si in (1, -1):
            for sj in (1, -1):
                v = [Q(0)] * 8
                v[i], v[j] = Q(si), Q(sj)
                roots.append(tuple(v))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(tuple(Q(s, 2) for s in signs))
    return roots


def _e_series(n: int) -> FiniteRootSystem:
    sp = standard_space(8)
    roots = _e8_roots()
    if n == 8:
        return FiniteRootSystem(sp, roots)
    walls = [vadd(unit_vector(8, 6), unit_vector(8, 7))]
    if n == 6:
        walls.append(vadd(unit_vector(8, 5), unit_vector(8, 7)))
    picked = [
        r for r in roots if all(sp.form(r, w) == 0 for w in walls)
    ]
    return FiniteRootSystem(sp, picked).restricted_to_span()


def _d21a(a: Q) -> FiniteRootSystem:
    a = Q(a)
    sp = BilinearSpace(
        [
            [Q(-(1 + a), 2), 0, 0],
            [0, Q(1, 2), 0],
            [0, 0, Q(a, 2)],
        ]
    )
    roots = []
    for i in range(3):
        roots += _pm(vscale(2, unit_vector(3, i)))
    for signs in itertools.product((1, -1), repeat=3):
        roots.append(tuple(Q(s) for s in signs))
    return FiniteRootSystem(sp, roots)


def _super_f4() -> FiniteRootSystem:
    sp = BilinearSpace(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -3]]
    )
    roots = _pairs_roots(4, range(3))
    for i in range(4):
        roots += _pm(unit_vector(4, i))
    for signs in itertools.product((1, -1), repeat=4):
        roots.append(tuple(Q(s, 2) for s in signs))
    return FiniteRootSystem(sp, roots)


def _super_g3() -> FiniteRootSystem:
    # G2 block with short norm 2, plus one odd direction of norm -2
    sp = BilinearSpace([[2, -3, 0], [-3, 6, 0], [0, 0, -2]])
    shorts = [vec([1, 0, 0]), vec([1, 1, 0]), vec([-2, -1, 0])]
    longs = [vec([0, 1, 0]), vec([3, 1, 0]), vec([3, 2, 0])]
    delta = vec([0, 0, 1])
    roots = []
    for v in shorts + longs:
        roots += _pm(v)
    roots += _pm(delta) + _pm(vscale(2, delta))
    for v in shorts:
        for s in (1, -1):
            roots += _pm(vadd(v, vscale(s, delta)))
    return FiniteRootSystem(sp, roots)


# ---------------------------------------------------------------------------
# Type names
#
# Generating sets (simple-root style, in catalog coordinates) normalize
# family data to the convention where the generating classes carry actual
# roots.  For the weak C/BC pairs this is the C_m + C_n generating set, which
# generates a proper subsystem.


def _chain(dim: int, axes, c) -> List[Vector]:
    """e_a - e_b along consecutive axes, then c times the last axis."""
    axes = list(axes)
    out = [vsub(unit_vector(dim, a), unit_vector(dim, b)) for a, b in zip(axes, axes[1:])]
    return out + [vscale(c, unit_vector(dim, axes[-1]))]


def _a_gens(n: int = 1) -> List[Vector]:
    return list(_type_a(n + 1, 0).span_basis())


def _f4_gens() -> List[Vector]:
    return _chain(4, (1, 2, 3), 1) + [vec([Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)])]


def _cmn_gens(m: int, n: int) -> List[Vector]:
    return _chain(m + n, range(m), 2) + _chain(m + n, range(m, m + n), 2)


class _Type(NamedTuple):
    system: Callable[..., FiniteRootSystem]  # the finite constructor
    case_i: bool  # transitive quotient: only affinizations lie above it
    gens: Optional[Callable[..., List[Vector]]] = None
    valid: Callable[..., bool] = lambda *params: True
    needs: str = ""  # the parameter range, for the error message


# Keyed by kind: the spelling with "{}" in place of each parameter.  Names
# are matched against the kinds in this order, so A1 precedes A{}.
_TYPES: Dict[str, _Type] = {
    "A1": _Type(lambda: _type_a(2, 0), False, _a_gens),
    "A{}": _Type(lambda n: _type_a(n + 1, 0), True, _a_gens,
                 lambda n: n >= 2, "A_n needs n >= 1"),
    "B{}": _Type(lambda n: _type_bcd(n, 0, (1,), ()), False, lambda n: _chain(n, range(n), 1),
                 lambda n: n >= 2, "B_n needs n >= 2"),
    "C{}": _Type(lambda n: _type_bcd(n, 0, (2,), ()), False, lambda n: _chain(n, range(n), 2),
                 lambda n: n >= 1, "C_n needs n >= 1"),
    "D{}": _Type(lambda n: _type_bcd(n, 0, (), ()), True, None,
                 lambda n: n >= 2, "D_n needs n >= 2"),
    "BC{}": _Type(lambda n: _type_bcd(n, 0, (1, 2), ()), False, lambda n: _chain(n, range(n), 1),
                  lambda n: n >= 1, "BC_n needs n >= 1"),
    "E{}": _Type(_e_series, True, None, lambda n: n in (6, 7, 8), "E_n needs n in 6, 7, 8"),
    "F4": _Type(_f4, False, _f4_gens),
    "G2": _Type(_g2, False, lambda: [vec([1, 0]), vec([0, 1])]),
    "A({},{})": _Type(lambda m, n: _type_a(m + 1, n + 1), True),
    "A({},{})_f": _Type(lambda m, n: from_finite(_type_a(n + 1, n + 1)).cl(), False, None,
                        lambda m, n: m == n >= 1, "the _f quotient applies to A(n,n), n >= 1"),
    "B({},{})": _Type(lambda m, n: _type_bcd(m, n, (1,), (1, 2)), False,
                      lambda m, n: _chain(m + n, [*range(m, m + n), *range(m)], 1),
                      lambda m, n: m >= 1 and n >= 1, "B(m,n) needs m, n >= 1"),
    "C({})": _Type(lambda n: _type_bcd(1, n - 1, (), (2,)), True, None,
                   lambda n: n >= 2, "C(n) needs n >= 2"),
    "C({},{})": _Type(lambda m, n: _type_bcd(m, n, (2,), (2,)), False, _cmn_gens,
                      lambda m, n: m >= 1 and n >= 1, "C(m,n) needs m, n >= 1"),
    "BC({},{})": _Type(lambda m, n: _type_bcd(m, n, (1, 2), (1, 2)), False, _cmn_gens,
                       lambda m, n: m >= 1 and n >= 1, "BC(m,n) needs m, n >= 1"),
    "D({},{})": _Type(lambda m, n: _type_bcd(m, n, (), (2,)), True, None,
                      lambda m, n: m >= 2 and n >= 1, "D(m,n) needs m >= 2, n >= 1"),
    "D(2,1;a={})": _Type(_d21a, True, None,
                         lambda a: a not in (0, -1), "D(2,1;a) needs a outside {0, -1}"),
    "F(4)": _Type(_super_f4, True),
    "G(3)": _Type(_super_g3, True),
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


def generating_roots(name: Union[str, TypeKey]) -> List[Vector]:
    """A standard generating set (simple-root style) in catalog coordinates."""
    key = type_key(name)
    gens = _TYPES[key.kind].gens
    if gens is None:
        raise BadParameters(f"no generating set recorded for {key}")
    return list(gens(*key.params))


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
    for i in range(n):
        if C[i][i] == 0:
            raise BadMatrix("zero diagonal entry")
        for j in range(n):
            if (2 * C[i][j] / C[i][i]).denominator != 1:
                raise BadMatrix("2 c_ij / c_ii must be integral")
    J = sorted(set(J))
    for j in J:
        if not 0 <= j < n:
            raise BadMatrix("J index out of range")
        for i in range(n):
            if (C[j][i] / C[j][j]).denominator != 1:
                raise BadMatrix("c_ji / c_jj must be integral for j in J")
    if height_bound < 1:
        raise BadMatrix("height bound must be positive")

    space = BilinearSpace(C)
    simple = [unit_vector(n, i) for i in range(n)]

    def height(v: Vector) -> Q:
        return sum(abs(x) for x in v)

    seeds = list(simple) + [vscale(2, unit_vector(n, j)) for j in J]
    found = set()
    frontier = []
    truncated = False
    for s in seeds:
        for v in (s, vneg(s)):
            if v not in found:
                found.add(v)
                frontier.append(v)
    while frontier:
        v = frontier.pop()
        for a in simple:
            img = reflect(space, a, v)
            if img in found:
                continue
            if height(img) > height_bound:
                truncated = True
                continue
            found.add(img)
            frontier.append(img)
    return FiniteRootSystem(space, sorted(found)), truncated


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
    fin = _type_a(n + 1, n + 1)
    sym = from_finite(fin)
    if sym.L.rank != 1:
        raise BadParameters("unexpected radical for A(n,n)")
    Ivec = sym.L.basis[0]
    aff = affinize(fin, 1 + extra_affinizations)
    direction = tuple(
        list(Ivec) + [Q(p, q)] + [Q(0)] * extra_affinizations
    )
    return quotient(aff, [direction], require_bijective=True)


# ---------------------------------------------------------------------------
# Classified affine families over F_2^k data


PointSet = FrozenSet[int]


def _points(k: int, S) -> PointSet:
    pts = frozenset(int(x) for x in S)
    for p in pts:
        if not 0 <= p < (1 << k):
            raise BadParameters(f"point {p} outside F_2^{k}")
    return pts


def _normalize_zero(S: PointSet) -> PointSet:
    """Translate so the set contains 0 (by its minimal element)."""
    if not S:
        return S
    s = min(S)
    return frozenset(p ^ s for p in S)


def gf2_rank(vectors: Sequence[int]) -> int:
    """Rank over F_2 of bitmask-encoded vectors."""
    pivots: Dict[int, int] = {}
    for v in vectors:
        cur = v
        while cur:
            h = cur.bit_length() - 1
            if h in pivots:
                cur ^= pivots[h]
            else:
                pivots[h] = cur
                break
    return len(pivots)


def contains_affine_basis_points(k: int, S: PointSet) -> bool:
    """Some k+1 points of S affinely span F_2^k."""
    if not S:
        return False
    base = min(S)
    return gf2_rank([p ^ base for p in S]) >= k


class _Kernel(NamedTuple):
    """The lattice L of the k kernel coordinates appended in dimension dim,
    with 2L and L/2, built once per family."""

    dim: int
    k: int
    L: Lattice
    L2: Lattice
    Lhalf: Lattice


def _kernel_lattices(dim: int, k: int) -> _Kernel:
    L = Lattice.from_vectors(dim, [unit_vector(dim, dim - k + i) for i in range(k)])
    return _Kernel(dim, k, L, L.scaled(2), L.scaled(Q(1, 2)))


def _preimage_coset(ker: _Kernel, S: PointSet, scale: Q = Q(1)) -> CosetSet:
    """scale * (preimage of S under L -> L/2L) on the appended coordinates."""
    dim, k = ker.dim, ker.k
    reps = []
    for p in sorted(S):
        v = [Q(0)] * dim
        for j in range(k):
            if (p >> j) & 1:
                v[dim - k + j] = Q(1)
        reps.append(vscale(scale, tuple(v)))
    ambient = ker.Lhalf if scale != 1 else ker.L
    return CosetSet(ambient, ker.L2.scaled(scale), zero_vector(dim), reps)


class Orbit(NamedTuple):
    """The roots of a classified quotient that carry one family (see
    `orbits`), greatest first: `identify` reads the family above roots[0]."""

    data: str
    roots: Tuple[Vector, ...]


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
    """The roots of the catalog system of a classified type, grouped by the
    family they carry in `family` (see `_layout`), in the order its class
    descriptor reads them.  `family` builds its families from these groups
    and `identify` reads the data back from them."""
    layout = _layout(key)
    system = key.system()
    by_norm = {norm: data for data, norms in layout for norm in norms or ()}
    rest = next((data for data, norms in layout if norms is None), None)
    groups: Dict[str, List[Vector]] = {data: [] for data, _ in layout}
    for v in sorted(system.roots, reverse=True):
        groups[by_norm.get(system.norm(v), rest)].append(v)
    return tuple(Orbit(data, tuple(roots)) for data, roots in groups.items())


def _parameter(data: str) -> Optional[str]:
    """The `family` parameter a layout entry reads; None for L and 2L."""
    name = data.lstrip("~").partition("/")[0]
    return None if name in ("L", "2L") else name


def family(cl_name: Union[str, TypeKey], k: int, **params) -> SymbolicRootSystem:
    """Affine system over F_2^k (or scale) data attached to a named quotient.

    Accepted parameter shapes:
      A1:                 S  (points of F_2^k containing an affine basis)
      B_n (n>=3), C_n (n>=3), B(m,n): S (nonempty)
      C2:                 S1, S2
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
    cl_sys = key.system()
    ker = _kernel_lattices(cl_sys.space.dim + k, k)
    space, pad = _padded(cl_sys.space, k)
    entries = []
    for o in layout:
        fam = _orbit_family(key, ker, o.data, values)
        entries += [(pad(r), fam) for r in o.roots]
    return SymbolicRootSystem(space, entries)


def _orbit_family(key: TypeKey, ker: _Kernel, data: str, values) -> CosetSet:
    """The family a layout entry names, from the checked parameters."""
    if data in ("L", "2L"):
        return CosetSet.full_lattice(ker.L if data == "L" else ker.L2)
    dim, k = ker.dim, ker.k
    if data == "s":
        r = 3 if key.kind == "G2" else 2
        gens = [vscale(1 if i < values["s"] else r, unit_vector(dim, dim - k + i)) for i in range(k)]
        return CosetSet.full_lattice(Lattice.from_vectors(dim, gens))
    if data == "H2":
        reps = [
            tuple([Q(0)] * (dim - k) + [Q((p >> (2 * j)) & 3) for j in range(k)])
            for p in sorted(values["H2"])
        ]
        return CosetSet(ker.L, ker.L.scaled(4), zero_vector(dim), reps)
    name, _, half = data.lstrip("~").partition("/")
    pts = values[name]
    if data.startswith("~"):
        pts = frozenset(range(1 << k)) - pts
    return _preimage_coset(ker, pts, Q(1, 2) if half else Q(1))


def _family_values(key: TypeKey, k: int, params) -> Dict[str, object]:
    """The parameters of `family`, checked, by name."""
    kind = key.kind

    def pts(name) -> PointSet:
        if params.get(name) is None:
            raise BadParameters(f"missing parameter {name} for {key}")
        return _points(k, params[name])

    if kind in ("G2", "F4"):
        s = params.get("s")
        if s is None or not 0 <= int(s) <= k:
            raise BadParameters("s must lie in 0..k")
        return {"s": int(s)}
    if kind == "BC{}":
        return _bc_n_values(key, k, params, pts)
    if kind == "C{}" and key.params == (2,):
        S1 = _normalize_zero(pts("S1"))
        S2 = _normalize_zero(pts("S2"))
        if not contains_affine_basis_points(k, S1):
            raise BadParameters("S1 must contain an affine basis of F_2^k")
        if not all((a ^ b) in S1 for a in S1 for b in S2):
            raise BadParameters("S1 + S2 must be contained in S1")
        return {"S1": S1, "S2": S2}
    S = _normalize_zero(pts("S"))
    if kind == "A1" and not contains_affine_basis_points(k, S):
        raise BadParameters("S must contain an affine basis of F_2^k")
    if kind in ("C({},{})", "BC({},{})") and not 0 < len(S) < 1 << k:
        raise BadParameters("S must be a proper nonempty subset of F_2^k")
    if kind != "BC({},{})":
        return {"S": S}
    Sp = pts("Sp")
    if not Sp:
        raise BadParameters("Sp must be nonempty")
    return {"S": S, "Sp": Sp}


def _bc_n_values(key: TypeKey, k: int, params, pts) -> Dict[str, object]:
    if key.params == (1,):
        S = pts("S")
        H2_digits = params.get("H2")
        if H2_digits is None:
            raise BadParameters("missing parameter H2 for BC1")
        if 0 not in S or not contains_affine_basis_points(k, S):
            raise BadParameters("S must contain zero and a basis of F_2^k")
        h2 = frozenset(int(x) for x in H2_digits)
        for p in h2:
            if not 0 <= p < (1 << (2 * k)):
                raise BadParameters("H2 points must be base-4 digit masks")
        if not h2:
            raise BadParameters("H2 must be nonempty")

        def digits(p):
            return [(p >> (2 * j)) & 3 for j in range(k)]

        # closure H2 + 2 H2 in (Z/4)^k
        def addmod(a, b, mult):
            return [
                (x + mult * y) % 4 for x, y in zip(digits(a), digits(b))
            ]

        def undig(ds):
            return sum(d << (2 * j) for j, d in enumerate(ds))

        for a in h2:
            for b in h2:
                if undig(addmod(a, b, 2)) not in h2:
                    raise BadParameters("H2 + 2 H2 must be contained in H2")
        for a in h2:
            mod2 = sum(((d % 2) << j) for j, d in enumerate(digits(a)))
            if mod2 not in S:
                raise BadParameters("H2 must reduce into S modulo 2")
        return {"S": S, "H2": h2}

    S1 = pts("S1")
    S2 = pts("S2")
    if 0 not in S1:
        raise BadParameters("S1 must contain zero")
    if not S2:
        raise BadParameters("S2 must be nonempty")
    if not all((a ^ b) in S1 for a in S1 for b in S2):
        raise BadParameters("S1 + S2 must be contained in S1")
    if key.params != (2,):
        return {"S1": S1, "S2": S2}
    T = pts("T")
    if 0 not in T or not contains_affine_basis_points(k, T):
        raise BadParameters("T must contain zero and a basis of F_2^k")
    if not all((t ^ b) in T for t in T for b in S2):
        raise BadParameters("H2 + H3 must be contained in H3")
    if not all((t ^ b) in T for t in T for b in S1):
        raise BadParameters("2 H1 + H3 must be contained in H3")
    s1_shifts = frozenset(t ^ b for t in T for b in S1)
    s2_shifts = frozenset(t ^ b for t in T for b in S2)
    if s1_shifts != s2_shifts:
        raise BadParameters("H2 + H3 and 2 H1 + H3 must coincide")
    return {"S1": S1, "S2": S2, "T": T}
