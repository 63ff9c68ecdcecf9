"""Exact rational linear algebra: vectors, bilinear forms, and integer lattices.

Vectors have `fractions.Fraction` coordinates; there is no floating point
anywhere.  Elimination and lattices run in integers over one common
denominator: `rref` is a fraction-free Gauss-Jordan, and a lattice is an
integer Hermite normal form over its least denominator, so that equality of
lattices is literal equality of integers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence, Tuple

from .errors import DimensionMismatch

Vector = Tuple[Q, ...]


def vec(xs: Iterable) -> Vector:
    """Build a vector of exact rationals from ints/strings/Fractions; a
    `Fraction` is kept as it is."""
    return tuple(x if type(x) is Q else Q(x) for x in xs)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vscale(c, u: Vector) -> Vector:
    c = Q(c)
    return tuple(c * a for a in u)


def is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def zero_vector(dim: int) -> Vector:
    return (Q(0),) * dim


def unit_vector(dim: int, i: int) -> Vector:
    return tuple(Q(1) if j == i else Q(0) for j in range(dim))


def format_rational(x: Q) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_vector(v: Iterable) -> str:
    """Spell a vector as "(p,q/r,...)", each coordinate by `format_rational`."""
    return "(" + ",".join(map(format_rational, vec(v))) + ")"


def parse_rational(s: str) -> Q:
    return Q(s)


# ---------------------------------------------------------------------------
# Integer elimination


def clear_denominators(vectors: Sequence[Sequence[Q]], d: int = 1) -> Tuple[int, list]:
    """(s, rows): s the least common multiple of d and every denominator in
    the vectors, and rows the integer lists s * v."""
    s = lcm(d, *(x.denominator for v in vectors for x in v))
    return s, [[x.numerator * (s // x.denominator) for x in v] for v in vectors]


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(rows: Sequence[Vector]):
    """Reduced row echelon form in integers, with deterministic pivoting.

    The rows are scaled to integers over their common denominator and
    eliminated fraction-free: the pivot row p of column c is the first
    remaining row nonzero there, and every other row r becomes the primitive
    part of p[c] * r - r[c] * p.  Returns (nonzero rows, pivot columns): each
    row is a primitive integer tuple with a positive pivot and zeros at the
    other pivot columns; row / row[pivot] is the row of the rational RREF.
    """
    mat = [_primitive(row) for row in clear_denominators(rows)[1]]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-x for x in mat[r]]
        prow, p = mat[r], mat[r][c]
        for i, row in enumerate(mat):
            a = row[c]
            if a and i != r:
                mat[i] = _primitive([p * x - a * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


def column_basis(columns: Sequence[Vector], fixed: Sequence[Vector] = ()):
    """Indices of the lex-first columns independent modulo span(fixed),
    every column's coordinates on them, and whether the span of the columns
    meets span(fixed) only in 0.

    One elimination of the matrix whose columns are `fixed` and then
    `columns`: the fixed vectors take the first pivots, the pivots after them
    pick the columns, and the reduced rows below the fixed ones hold each
    column's coefficients on the picked columns.  The fixed rows hold each
    column's part in span(fixed), so the two spans meet only in 0 exactly
    when those rows vanish at every column.
    """
    m = len(fixed)
    reduced, pivots = rref(list(zip(*fixed, *columns)))
    f = sum(p < m for p in pivots)
    rows = list(zip(reduced[f:], pivots[f:]))
    coords = [tuple(Q(row[m + j], row[p]) for row, p in rows) for j in range(len(columns))]
    meets_zero = not any(x for row in reduced[:f] for x in row[m:])
    return [p - m for p in pivots[f:]], coords, meets_zero


def solve_in_span(vectors: Sequence[Vector], target: Vector) -> Optional[Vector]:
    """Coefficients x with sum x_i * vectors[i] = target, or None.

    Free coefficients are set to zero, so the answer is deterministic.
    """
    if any(len(v) != len(target) for v in vectors):
        raise DimensionMismatch("vectors of different lengths")
    k = len(vectors)
    picked, coords, _ = column_basis([*vectors, target])
    if k in picked:
        return None
    coeffs = dict(zip(picked, coords[k]))
    return tuple(coeffs.get(i, Q(0)) for i in range(k))


class SubspaceProjection:
    """Quotient map V -> V/U realized on the non-pivot standard coordinates.

    U is given by spanning vectors; the canonical representative of v + U has
    zeros at the pivot columns of the reduced basis of U.
    """

    def __init__(self, dim: int, spanning: Sequence[Vector]):
        self.dim = dim
        rows, self.pivots = rref(spanning)
        self.kept = [i for i in range(dim) if i not in self.pivots]
        self._support = [[(j, Q(y, row[p])) for j, y in enumerate(row) if y]
                         for row, p in zip(rows, self.pivots)]

    def reduce(self, v: Vector) -> Vector:
        w = list(v)
        for support, p in zip(self._support, self.pivots):
            f = w[p]
            if f:
                for j, y in support:
                    w[j] -= f * y
        return tuple(w)

    def apply(self, v: Vector) -> Vector:
        w = self.reduce(v)
        return tuple(w[i] for i in self.kept)


# ---------------------------------------------------------------------------
# Integer matrices: Hermite normal form and kernels


def hnf_int(rows: Sequence[Sequence[int]]) -> list:
    """Row-style Hermite normal form of an integer matrix.

    Nonzero rows with positive pivots at strictly increasing columns;
    entries above each pivot reduced into [0, pivot).  Each column is
    cleared by sweeps: every live row (nonzero there) is reduced against the
    one with the least entry in absolute value, until one live row is left.
    """
    mat = [list(r) for r in rows if any(r)]
    out = []
    for c in range(len(mat[0]) if mat else 0):
        live = [row for row in mat if row[c]]
        if not live:
            continue
        rest = [row for row in mat if not row[c]]
        while len(live) > 1:
            p = min(live, key=lambda row: abs(row[c]))
            a, kept = p[c], [p]
            for row in live:
                if row is not p:
                    q = row[c] // a
                    row = [x - q * y for x, y in zip(row, p)]
                    if row[c]:
                        kept.append(row)
                    elif any(row):
                        rest.append(row)
            live = kept
        p = live[0] if live[0][c] > 0 else [-x for x in live[0]]
        for i, row in enumerate(out):
            f = row[c] // p[c]
            if f:
                out[i] = [x - f * y for x, y in zip(row, p)]
        out.append(p)
        mat = rest
    return out


def int_left_kernel(rows: Sequence[Sequence[int]]) -> list:
    """Basis of {x integral : x * M = 0} for the given row matrix M."""
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    h = hnf_int(aug)
    out = []
    for row in h:
        if all(x == 0 for x in row[:ncols]):
            out.append(row[ncols:])
    return hnf_int(out)


def hnf_pivots(h: Sequence[Sequence[int]]) -> tuple:
    """Pivot column of each row of an HNF."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in h)


def hnf_reduce(v: Sequence[int], h: Sequence[Sequence[int]], pivots, f: int = 1) -> tuple:
    """(u, c): u the canonical residue of v modulo the row lattice of f * h,
    for h an HNF with the given pivot columns (each pivot coordinate of u
    reduced into [0, f * pivot)), and v - u = sum c_i f h_i."""
    coeffs = []
    for row, p in zip(h, pivots):
        c = v[p] // (row[p] * f)
        if c:
            cf = c * f
            v = [x - cf * y for x, y in zip(v, row)]
        coeffs.append(c)
    return tuple(v), tuple(coeffs)


def _int_combination(coeffs: Sequence[int], rows: Sequence[Sequence[int]], dim: int) -> list:
    out = [0] * dim
    for c, row in zip(coeffs, rows):
        if c:
            out = [p + c * q for p, q in zip(out, row)]
    return out


def hnf_meet(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list:
    """HNF of the intersection of the row lattices of two integer matrices."""
    if not a or not b:
        return []
    kern = int_left_kernel(list(a) + [[-x for x in row] for row in b])
    return hnf_int([_int_combination(x, a, len(a[0])) for x in kern])


def hnf_cosets(
    h: Sequence[Sequence[int]], sub: Sequence[Sequence[int]], dim: int
) -> Optional[list]:
    """Representatives of the row lattice of the HNF h (vectors of length
    dim) modulo a sublattice given by the rows of its own HNF, or None when
    the index is infinite.

    At equal rank both HNFs have the same pivot columns p_i, so the
    coordinates of the sublattice on h are upper triangular with the
    positive diagonal sub[i][p_i] / h[i][p_i], and the box of that diagonal
    is a set of representatives."""
    if len(sub) < len(h):
        return None
    box = [range(v[p] // row[p]) for v, row, p in zip(sub, h, hnf_pivots(h))]
    return [tuple(_int_combination(combo, h, dim)) for combo in itertools.product(*box)]


# ---------------------------------------------------------------------------
# Bilinear spaces


class BilinearSpace:
    """A rational vector space with a symmetric bilinear form."""

    def __init__(self, gram: Sequence[Sequence]):
        g = tuple(vec(row) for row in gram)
        n = len(g)
        if any(len(row) != n for row in g):
            raise DimensionMismatch("gram matrix is not square")
        for i in range(n):
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise DimensionMismatch("gram matrix is not symmetric")
        self.dim = n
        self.gram = g
        self._kernel: Optional[Tuple[Vector, ...]] = None

    def __eq__(self, other):
        return isinstance(other, BilinearSpace) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"BilinearSpace(dim={self.dim})"

    def check_vector(self, v: Vector):
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector of length {len(v)} in dim {self.dim}")

    def form(self, u: Vector, v: Vector) -> Q:
        self.check_vector(u)
        self.check_vector(v)
        total = Q(0)
        for i, a in enumerate(u):
            if a == 0:
                continue
            row = self.gram[i]
            total += a * sum(row[j] * b for j, b in enumerate(v) if b != 0)
        return total

    def norm(self, v: Vector) -> Q:
        return self.form(v, v)

    def kernel_basis(self) -> Tuple[Vector, ...]:
        """Deterministic basis of the radical {v : (v, -) = 0}."""
        if self._kernel is None:
            red, pivots = rref(self.gram)
            free = [c for c in range(self.dim) if c not in pivots]
            basis = []
            for f in free:
                v = [Q(0)] * self.dim
                v[f] = Q(1)
                for row, p in zip(red, pivots):
                    v[p] = Q(-row[f], row[p])
                basis.append(tuple(v))
            self._kernel = tuple(basis)
        return self._kernel

    def in_kernel(self, v: Vector) -> bool:
        self.check_vector(v)
        support = [(j, x) for j, x in enumerate(v) if x != 0]
        return all(sum(row[j] * x for j, x in support) == 0 for row in self.gram)


def standard_space(plus: int, minus: int = 0) -> BilinearSpace:
    """Orthogonal space diag(+1, ..., +1, -1, ..., -1)."""
    n = plus + minus
    return BilinearSpace(
        [[(1 if i < plus else -1) if i == j else 0 for j in range(n)] for i in range(n)]
    )


def form_eval(space: BilinearSpace, u: Vector, v: Vector) -> Q:
    """Evaluate the bilinear form; symmetric in u and v."""
    return space.form(u, v)


def kernel_basis(space: BilinearSpace) -> list:
    return list(space.kernel_basis())


# ---------------------------------------------------------------------------
# Lattices


class Lattice:
    """Finitely generated subgroup L of Q^n in canonical normal form.

    Stored in integers: `scale`, the least common denominator of the members,
    and `rows`, the Hermite normal form of scale * L.  Both depend only on L,
    so lattice equality is equality of (dim, scale, rows).  `basis` (rows /
    scale) is a view built on first read.
    """

    __slots__ = ("dim", "scale", "rows", "pivots", "_basis")

    def __init__(self, dim: int, scale: int, rows: Sequence[Sequence[int]]):
        """The lattice whose multiple by `scale` has the integer HNF `rows`;
        a common factor of scale and rows is divided out."""
        g = gcd(scale, *(x for row in rows for x in row))
        self.dim, self.scale = dim, scale // g
        self.rows = tuple(tuple(x // g for x in row) for row in rows)
        self.pivots = hnf_pivots(self.rows)
        self._basis: Optional[Tuple[Vector, ...]] = None

    @classmethod
    def from_vectors(cls, dim: int, vectors: Sequence[Vector]) -> "Lattice":
        """The subgroup generated by vectors of ints or Fractions."""
        vs = [v for v in vectors if any(v)]
        if any(len(v) != dim for v in vs):
            raise DimensionMismatch("generator of wrong length")
        s, rows = clear_denominators(vs)
        return cls(dim, s, hnf_int(rows))

    @classmethod
    def zero(cls, dim: int) -> "Lattice":
        return cls(dim, 1, ())

    @property
    def basis(self) -> Tuple[Vector, ...]:
        """The canonical basis rows / scale in Q^n."""
        if self._basis is None:
            self._basis = tuple(tuple(Q(x, self.scale) for x in row) for row in self.rows)
        return self._basis

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.dim == other.dim
            and self.scale == other.scale
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.dim, self.scale, self.rows))

    def __repr__(self):
        return f"Lattice(dim={self.dim}, rank={self.rank})"

    def reduce_int(self, w: Sequence[int], d: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(u, c) for the vector w / d, w integral and d a multiple of scale:
        u / d is its residue and w / d - u / d = sum c_i basis_i; the pivot
        coefficients of the residue lie in [0, 1)."""
        return hnf_reduce(w, self.rows, self.pivots, d // self.scale)

    def _reduce(self, v: Vector):
        """(w, d, c): d * residue(v) = w in integers, and v - residue(v) =
        sum c_i basis_i."""
        d, (w,) = clear_denominators([v], self.scale)
        w, coeffs = self.reduce_int(w, d)
        return w, d, coeffs

    def split(self, v: Vector) -> Tuple[Vector, Tuple[int, ...]]:
        """(residue(v), c) with v = residue(v) + sum c_i basis_i, c integral."""
        w, d, coeffs = self._reduce(v)
        return tuple(Q(x, d) for x in w), coeffs

    def member(self, v: Vector) -> bool:
        if len(v) != self.dim:
            raise DimensionMismatch("vector of wrong length")
        return not any(self._reduce(v)[0])

    def residue(self, v: Vector) -> Vector:
        """Canonical representative of v + L (pivot coefficients in [0, 1))."""
        return self.split(v)[0]

    def coefficients(self, v: Vector) -> Optional[Tuple[int, ...]]:
        """Integer coordinates of v in the canonical basis, or None."""
        w, _, coeffs = self._reduce(v)
        return None if any(w) else coeffs

    def coordinates(self, sub: "Lattice") -> Optional[list]:
        """Integer coordinates of the canonical basis of `sub` in this one's,
        or None when `sub` is not a sublattice.  At equal rank they are upper
        triangular with a positive diagonal, as both bases are echelon."""
        if self.dim != sub.dim:
            raise DimensionMismatch("lattices of different dimensions")
        # basis_i of sub is rows_i / sub.scale, reduced at the common scale d
        d = lcm(self.scale, sub.scale)
        split = [self.reduce_int(row, d) for row in sub._at(d)]
        return None if any(any(w) for w, _ in split) else [c for _, c in split]

    def combine(self, coeffs: Sequence[int]) -> Vector:
        """The member sum_i coeffs_i * basis_i."""
        return tuple(Q(x, self.scale) for x in _int_combination(coeffs, self.rows, self.dim))

    def sublattice(self, coeff_rows: Sequence[Sequence[int]]) -> "Lattice":
        """The sublattice generated by the members with these integer coordinates."""
        gens = [_int_combination(c, self.rows, self.dim) for c in coeff_rows]
        return Lattice(self.dim, self.scale, hnf_int(gens))

    def contains_lattice(self, other: "Lattice") -> bool:
        return self.coordinates(other) is not None

    def _at(self, s: int) -> list:
        """The integer rows of s * L, for s a multiple of scale."""
        return [[(s // self.scale) * x for x in row] for row in self.rows]

    def add(self, other: "Lattice") -> "Lattice":
        if self.dim != other.dim:
            raise DimensionMismatch("lattice sum across dimensions")
        s = lcm(self.scale, other.scale)
        return Lattice(self.dim, s, hnf_int(self._at(s) + other._at(s)))

    def scaled(self, c) -> "Lattice":
        """c * L; a positive multiple of an HNF is an HNF, and -L = L."""
        c = Q(c)
        if c == 0:
            return Lattice.zero(self.dim)
        p, q = abs(c.numerator), c.denominator
        return Lattice(self.dim, self.scale * q, [[p * x for x in row] for row in self.rows])

    def intersect(self, other: "Lattice") -> "Lattice":
        if self.dim != other.dim:
            raise DimensionMismatch("lattice intersection across dimensions")
        s = lcm(self.scale, other.scale)
        return Lattice(self.dim, s, hnf_meet(self._at(s), other._at(s)))

    def index_in(self, ambient: "Lattice") -> Optional[int]:
        """[ambient : self] when finite (self a finite-index sublattice)."""
        coords = ambient.coordinates(self)
        if coords is None:
            raise ValueError("not a sublattice")
        if self.rank < ambient.rank:
            return None
        return prod(row[i] for i, row in enumerate(coords))

    def coset_representatives(self, sub: "Lattice") -> list:
        """Vectors representing self / sub; requires finite index."""
        if not self.contains_lattice(sub):
            raise ValueError("not a sublattice")
        if sub.rank < self.rank:
            raise ValueError("infinite index")
        cosets = hnf_cosets(self.rows, sub._at(self.scale), self.dim)
        return [tuple(Q(x, self.scale) for x in v) for v in cosets]

    def kernel_part(self, space: BilinearSpace) -> "Lattice":
        """Sublattice of members lying in the radical of the space's form."""
        _, gram = clear_denominators(space.gram)
        # the pairings of the scaled basis with the scaled Gram rows
        pairings = [_int_combination(r, gram, self.dim) for r in self.rows]
        return self.sublattice(int_left_kernel(pairings))


def lattice_from_vectors(space: BilinearSpace, vectors: Sequence[Vector]) -> Lattice:
    """The subgroup generated by the vectors, in canonical normal form."""
    for v in vectors:
        space.check_vector(v)
    return Lattice.from_vectors(space.dim, vectors)


def lattice_member(lat: Lattice, v: Vector) -> bool:
    return lat.member(v)
