"""Exact rational linear algebra: vectors, bilinear forms, and integer lattices.

All coordinates are `fractions.Fraction`; there is no floating point anywhere.
Lattices are stored in a canonical Hermite-style normal form so that equality
of lattices is literal equality of their stored bases.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from math import lcm
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


def independent_subset(vectors: Sequence[Vector]) -> list:
    """Indices of a maximal independent subset, scanning in the given order:
    the pivot columns of the matrix whose columns are the vectors."""
    return rref(list(zip(*vectors)))[1]


class SubspaceProjection:
    """Quotient map V -> V/U realized on the non-pivot standard coordinates.

    U is given by spanning vectors; the canonical representative of v + U has
    zeros at the pivot columns of the reduced basis of U.
    """

    def __init__(self, dim: int, spanning: Sequence[Vector]):
        self.dim = dim
        self.rows, self.pivots = rref(spanning)
        self.kept = [i for i in range(dim) if i not in self.pivots]

    def reduce(self, v: Vector) -> Vector:
        w = list(v)
        for row, p in zip(self.rows, self.pivots):
            f = w[p]
            if f != 0:
                w = [x - f * y for x, y in zip(w, row)]
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
    """Finitely generated subgroup of Q^n in canonical normal form.

    The canonical basis is HNF of the generators scaled to a common
    denominator, divided back by that denominator; it does not depend on the
    generating set, so lattice equality is equality of stored bases.
    """

    def __init__(self, dim: int, basis: Sequence[Vector]):
        self.dim = dim
        self.basis: Tuple[Vector, ...] = tuple(tuple(Q(x) for x in b) for b in basis)
        self.pivots = [next(j for j, x in enumerate(b) if x != 0) for b in self.basis]

    @classmethod
    def from_vectors(cls, dim: int, vectors: Sequence[Vector]) -> "Lattice":
        vs = [tuple(Q(x) for x in v) for v in vectors if not is_zero(v)]
        for v in vs:
            if len(v) != dim:
                raise DimensionMismatch("generator of wrong length")
        if not vs:
            return cls(dim, [])
        scale = lcm(*[x.denominator for v in vs for x in v])
        rows = [[int(x * scale) for x in v] for v in vs]
        h = hnf_int(rows)
        return cls(dim, [tuple(Q(x, scale) for x in row) for row in h])

    @classmethod
    def zero(cls, dim: int) -> "Lattice":
        return cls(dim, [])

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.dim == other.dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.dim, self.basis))

    def __repr__(self):
        return f"Lattice(dim={self.dim}, rank={self.rank})"

    def member(self, v: Vector) -> bool:
        if len(v) != self.dim:
            raise DimensionMismatch("vector of wrong length")
        w = list(v)
        for b, p in zip(self.basis, self.pivots):
            c = w[p] / b[p]
            if c.denominator != 1:
                return False
            if c != 0:
                w = [x - c * y for x, y in zip(w, b)]
        return all(x == 0 for x in w)

    def residue(self, v: Vector) -> Vector:
        """Canonical representative of v + L (pivot coefficients in [0, 1))."""
        w = list(v)
        for b, p in zip(self.basis, self.pivots):
            c = w[p] / b[p]
            f = c.numerator // c.denominator
            if f:
                w = [x - f * y for x, y in zip(w, b)]
        return tuple(w)

    def coefficients(self, v: Vector) -> Optional[Vector]:
        """Integer coordinates of v in the canonical basis, or None."""
        w = list(v)
        coeffs = []
        for b, p in zip(self.basis, self.pivots):
            c = w[p] / b[p]
            if c.denominator != 1:
                return None
            coeffs.append(c)
            if c != 0:
                w = [x - c * y for x, y in zip(w, b)]
        if any(x != 0 for x in w):
            return None
        return tuple(coeffs)

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.member(b) for b in other.basis)

    def add(self, other: "Lattice") -> "Lattice":
        if self.dim != other.dim:
            raise DimensionMismatch("lattice sum across dimensions")
        return Lattice.from_vectors(self.dim, list(self.basis) + list(other.basis))

    def scaled(self, c) -> "Lattice":
        c = Q(c)
        if c == 0:
            return Lattice.zero(self.dim)
        return Lattice.from_vectors(self.dim, [vscale(c, b) for b in self.basis])

    def intersect(self, other: "Lattice") -> "Lattice":
        if self.dim != other.dim:
            raise DimensionMismatch("lattice intersection across dimensions")
        if not self.basis or not other.basis:
            return Lattice.zero(self.dim)
        dens = [x.denominator for b in self.basis for x in b]
        dens += [x.denominator for b in other.basis for x in b]
        s = lcm(*dens)
        a = [[int(x * s) for x in b] for b in self.basis]
        b = [[int(x * s) for x in bb] for bb in other.basis]
        stacked = a + [[-x for x in row] for row in b]
        kern = int_left_kernel(stacked)
        gens = []
        for x in kern:
            coeffs = x[: len(a)]
            g = [Q(0)] * self.dim
            for c, row in zip(coeffs, self.basis):
                if c:
                    g = [p + c * q for p, q in zip(g, row)]
            gens.append(tuple(g))
        return Lattice.from_vectors(self.dim, gens)

    def index_in(self, ambient: "Lattice") -> Optional[int]:
        """[ambient : self] when finite (self a finite-index sublattice)."""
        if not ambient.contains_lattice(self):
            raise ValueError("not a sublattice")
        if self.rank < ambient.rank:
            return None
        coords = [ambient.coefficients(b) for b in self.basis]
        h = hnf_int([[int(c) for c in row] for row in coords])
        out = 1
        for i, row in enumerate(h):
            out *= row[i]
        return out

    def coset_representatives(self, sub: "Lattice") -> list:
        """Vectors representing self / sub; requires finite index."""
        if not self.contains_lattice(sub):
            raise ValueError("not a sublattice")
        if sub.rank < self.rank:
            raise ValueError("infinite index")
        if not self.basis:
            return [zero_vector(self.dim)]
        coords = [[int(c) for c in self.coefficients(b)] for b in sub.basis]
        h = hnf_int(coords)
        ranges = [range(h[i][i]) for i in range(len(h))]
        reps = []
        for combo in itertools.product(*ranges):
            v = [Q(0)] * self.dim
            for c, b in zip(combo, self.basis):
                if c:
                    v = [p + c * q for p, q in zip(v, b)]
            reps.append(tuple(v))
        return reps

    def kernel_part(self, space: BilinearSpace) -> "Lattice":
        """Sublattice of members lying in the radical of the space's form."""
        if not self.basis:
            return Lattice.zero(self.dim)
        prods = [
            [
                sum(b[j] * space.gram[j][i] for j in range(self.dim))
                for i in range(self.dim)
            ]
            for b in self.basis
        ]
        dens = [x.denominator for row in prods for x in row]
        s = lcm(*dens)
        int_rows = [[int(x * s) for x in row] for row in prods]
        kern = int_left_kernel(int_rows)
        gens = []
        for x in kern:
            g = [Q(0)] * self.dim
            for c, row in zip(x, self.basis):
                if c:
                    g = [p + c * q for p, q in zip(g, row)]
            gens.append(tuple(g))
        return Lattice.from_vectors(self.dim, gens)


def lattice_from_vectors(space: BilinearSpace, vectors: Sequence[Vector]) -> Lattice:
    """The subgroup generated by the vectors, in canonical normal form."""
    for v in vectors:
        space.check_vector(v)
    return Lattice.from_vectors(space.dim, vectors)


def lattice_member(lat: Lattice, v: Vector) -> bool:
    return lat.member(v)
