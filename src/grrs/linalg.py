"""Exact rational linear algebra: vectors, bilinear forms, and integer lattices.

All coordinates are `fractions.Fraction`; there is no floating point anywhere.
Lattices are stored as an integer Hermite normal form over their least common
denominator, so that equality of lattices is literal equality of integers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence, Tuple

from .errors import DimensionMismatch

Vector = Tuple[Q, ...]


def vec(xs: Iterable) -> Vector:
    """Build a vector of exact rationals from ints/strings/Fractions."""
    return tuple(Q(x) for x in xs)


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


def parse_rational(s: str) -> Q:
    return Q(s)


# ---------------------------------------------------------------------------
# Rational Gaussian elimination


def rref(rows: Sequence[Vector]):
    """Reduced row echelon form with deterministic pivoting.

    Scans columns left to right, picks the first row with a nonzero entry.
    Returns (reduced nonzero rows, pivot column indices).
    """
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows: Sequence[Vector]) -> int:
    return len(rref(rows)[0])


def solve_in_span(vectors: Sequence[Vector], target: Vector) -> Optional[Vector]:
    """Coefficients x with sum x_i * vectors[i] = target, or None.

    Free coefficients are set to zero, so the answer is deterministic.
    """
    if not vectors:
        return () if is_zero(target) else None
    n = len(target)
    k = len(vectors)
    rows = [tuple(v[i] for v in vectors) + (target[i],) for i in range(n)]
    red, pivots = rref(rows)
    coeffs = [Q(0)] * k
    for row, p in zip(red, pivots):
        if p == k:
            return None
        coeffs[p] = row[k] - sum(row[j] * coeffs[j] for j in range(p + 1, k))
    # rref normalizes pivot rows, so back substitution above is literal readout
    check = [sum(vectors[j][i] * coeffs[j] for j in range(k)) for i in range(n)]
    if tuple(check) != tuple(target):
        return None
    return tuple(coeffs)


class SubspaceProjection:
    """Quotient map V -> V/U realized on the non-pivot standard coordinates.

    U is given by spanning vectors; the canonical representative of v + U has
    zeros at the pivot columns of the reduced basis of U.
    """

    def __init__(self, dim: int, spanning: Sequence[Vector]):
        self.dim = dim
        self.rows, self.pivots = rref(spanning)
        self.kept = [i for i in range(dim) if i not in self.pivots]
        self._support = [[(j, y) for j, y in enumerate(row) if y] for row in self.rows]

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


def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def hnf_int(rows: Sequence[Sequence[int]]) -> list:
    """Row-style Hermite normal form of an integer matrix.

    Nonzero rows with positive pivots at strictly increasing columns;
    entries above each pivot reduced into [0, pivot).
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        # clear column c below row r down to a single pivot
        while True:
            live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not live:
                break
            if len(live) == 1:
                i = live[0]
                mat[r], mat[i] = mat[i], mat[r]
                break
            i, j = live[0], live[1]
            a, b = mat[i][c], mat[j][c]
            x, y, g = _xgcd(a, b)
            ai, bj = mat[i], mat[j]
            new_i = [x * p + y * q for p, q in zip(ai, bj)]
            new_j = [(-b // g) * p + (a // g) * q for p, q in zip(ai, bj)]
            mat[i], mat[j] = new_i, new_j
        if mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            p = mat[r][c]
            for i in range(r):
                f = mat[i][c] // p
                if f:
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
            r += 1
    return [row for row in mat[:r]]


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


def hnf_reduce(v: Sequence[int], h: Sequence[Sequence[int]], pivots: Sequence[int]) -> tuple:
    """Canonical residue of v modulo the row lattice of the HNF h with the
    given pivot columns: each pivot coordinate reduced into [0, pivot)."""
    v = tuple(v)
    for row, p in zip(h, pivots):
        f = v[p] // row[p]
        if f:
            v = tuple(x - f * y for x, y in zip(v, row))
    return v


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
        g = tuple(tuple(Q(x) for x in row) for row in gram)
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
                    v[p] = -row[f]
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
        s = lcm(1, *(x.denominator for v in vs for x in v))
        return cls(dim, s, hnf_int([[x.numerator * (s // x.denominator) for x in v] for v in vs]))

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

    def _reduce(self, v: Vector):
        """(w, d, c): d * residue(v) = w in integers, and v - residue(v) =
        sum c_i basis_i; the pivot coefficients of the residue lie in [0, 1)."""
        d = lcm(self.scale, *(x.denominator for x in v))
        w = [x.numerator * (d // x.denominator) for x in v]
        f = d // self.scale
        coeffs = []
        for row, p in zip(self.rows, self.pivots):
            c = w[p] // (row[p] * f)
            if c:
                cf = c * f
                w = [x - cf * y for x, y in zip(w, row)]
            coeffs.append(c)
        return w, d, tuple(coeffs)

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
        # basis_i of sub is rows_i / s, with the coordinates of rows_i in s * L
        mult = self.scaled(sub.scale)
        coords = [mult.coefficients(row) for row in sub.rows]
        return None if None in coords else coords

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
        g = lcm(1, *(x.denominator for row in space.gram for x in row))
        gram = [[x.numerator * (g // x.denominator) for x in row] for row in space.gram]
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
