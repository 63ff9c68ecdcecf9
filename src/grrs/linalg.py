"""Exact rational linear algebra: vectors, bilinear forms, and integer lattices.

Vectors have `fractions.Fraction` coordinates; there is no floating point
anywhere.  Every coordinate the library reads, of a caller's vector or of
a JSON document, is read once, by `clear_denominators`, into integer rows
over one denominator; `rref` is a fraction-free Gauss-Jordan,
and a space's Gram matrix and a lattice's Hermite normal form are integers
over their least denominators, so that equality is equality of integers.

The two integer kernels, the Gauss-Jordan behind `rref` and the sweeps
behind `hnf_int`, run once per distinct integer matrix in a process: each
is memoized on its input as a tuple of int tuples, in a bounded LRU memo,
and returns tuples that every caller shares and none mutates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Optional, Sequence, Tuple

from .errors import DimensionMismatch, NotRational

Vector = Tuple[Q, ...]
IntMatrix = Tuple[Tuple[int, ...], ...]

# Entries kept by the memos of the integer kernels; a pass of any benchmark
# workload meets fewer distinct matrices than this.
HNF_MEMO_SIZE = 1024
RREF_MEMO_SIZE = 512


def vec(xs: Iterable) -> Vector:
    """Build a vector of exact rationals from ints/strings/Fractions; a
    `Fraction` is kept as it is, any other coordinate is read by `_rational`."""
    return tuple(x if type(x) is Q else _rational(x) for x in xs)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vscale(c, u: Vector) -> Vector:
    c = Q(c)
    return tuple(c * a for a in u)


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


def _rational(x) -> Q:
    """`Fraction(x)`, the parse of one coordinate; an infinite float raises NotRational."""
    try:
        return Q(x)
    except OverflowError:
        raise NotRational(f"coordinate {x!r} is not a rational") from None


class _Spellings(dict):
    """The (numerator, denominator) of each coordinate spelling, parsed once."""

    def __missing__(self, x) -> Tuple[int, int]:
        read = self[x] = _rational(x).as_integer_ratio()
        return read

    def rows(self, vectors) -> list:
        try:
            return [list(map(self.__getitem__, v)) for v in vectors]
        except TypeError:  # unhashable: parse in turn, so the first bad one raises as `Fraction`
            return [[self.__missing__(x) for x in v] for v in vectors]


# ---------------------------------------------------------------------------
# Integer elimination


def clear_denominators(vectors: Sequence[Sequence], d: int = 1, dim: Optional[int] = None,
                       message: str = "", _spellings=None) -> Tuple[int, list]:
    """(s, rows): the one reader of coordinates (ints, Fractions, strings
    such as "1/2", JSON numbers): s the least common multiple of d and every
    denominator, rows the integer lists s * v.  Ints and Fractions are read
    as they are, others parsed once per spelling into `_spellings`, the one
    table of a JSON document.  With a dim, the first vector of another
    length raises DimensionMismatch; a document's are parsed first."""
    # a caller's vectors are read twice below, whatever iterables they are
    vectors = list(map(tuple, vectors)) if _spellings is None else _spellings.rows(vectors)
    for v in vectors if dim is not None else ():
        if len(v) != dim:
            raise DimensionMismatch(message or f"vector of length {len(v)} in dim {dim}")
    if _spellings is None:
        try:
            s = lcm(d, *(x.denominator for v in vectors for x in v))
            return s, [[x.numerator * (s // x.denominator) for x in v] for v in vectors]
        except AttributeError:  # a coordinate that is not yet a rational
            vectors = _Spellings().rows(vectors)
    s = lcm(d, *{q for row in vectors for _, q in row})
    return s, [[p * (s // q) for p, q in row] for row in vectors]


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(rows: Sequence[Vector]) -> Tuple[IntMatrix, Tuple[int, ...]]:
    """Reduced row echelon form in integers, with deterministic pivoting.

    The rows are scaled to integers over their common denominator and
    eliminated fraction-free: the pivot row p of column c is the first
    remaining row nonzero there, and every other row r becomes the primitive
    part of p[c] * r - r[c] * p.  Returns (nonzero rows, pivot columns), both
    tuples: each row is a primitive integer tuple with a positive pivot and
    zeros at the other pivot columns; row / row[pivot] is the row of the
    rational RREF.  The elimination is memoized on the primitive rows, so
    equal inputs share one answer.
    """
    return _gauss_jordan(tuple(tuple(_primitive(row)) for row in clear_denominators(rows)[1]))


@lru_cache(maxsize=RREF_MEMO_SIZE)
def _gauss_jordan(key: IntMatrix) -> Tuple[IntMatrix, Tuple[int, ...]]:
    mat = list(map(list, key))
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
    return tuple(map(tuple, mat[:r])), tuple(pivots)


def column_basis(columns: Sequence[Vector], fixed: Sequence[Vector] = ()):
    """(picked, den, coords, meets_zero): the indices of the lex-first
    columns independent modulo span(fixed), every column's coordinates on
    them as integer rows over the one common denominator den, and whether
    the span of the columns meets span(fixed) only in 0.

    One elimination of the matrix whose columns are `fixed` and then
    `columns`: the fixed vectors take the first pivots, the pivots after them
    pick the columns, and the reduced rows below the fixed ones hold each
    column's coefficients on the picked columns, row[m + j] / row[pivot];
    den is the lcm of those pivots.  The fixed rows hold each column's part
    in span(fixed), so the two spans meet only in 0 exactly when those rows
    vanish at every column.
    """
    m = len(fixed)
    reduced, pivots = rref(list(zip(*fixed, *columns)))
    f = sum(p < m for p in pivots)
    rows = list(zip(reduced[f:], pivots[f:]))
    den = lcm(*(row[p] for row, p in rows))
    scaled = [[x * (den // row[p]) for x in row[m:]] for row, p in rows]
    coords = list(zip(*scaled)) if rows else [()] * len(columns)
    meets_zero = not any(x for row in reduced[:f] for x in row[m:])
    return [p - m for p in pivots[f:]], den, coords, meets_zero


def solve_in_span(vectors: Sequence[Vector], target: Vector) -> Optional[Vector]:
    """Coefficients x with sum x_i * vectors[i] = target, or None.

    Free coefficients are set to zero, so the answer is deterministic.
    """
    if any(len(v) != len(target) for v in vectors):
        raise DimensionMismatch("vectors of different lengths")
    k = len(vectors)
    picked, den, coords, _ = column_basis([*vectors, target])
    if k in picked:
        return None
    coeffs = dict(zip(picked, coords[k]))
    return tuple(Q(coeffs.get(i, 0), den) for i in range(k))


class SubspaceProjection:
    """Quotient map V -> V/U realized on the non-pivot standard coordinates.

    U is given by spanning vectors; the canonical representative of v + U has
    zeros at the pivot columns of the reduced basis of U.
    """

    def __init__(self, dim: int, spanning: Sequence[Sequence]):
        self._rows, self.pivots = rref(spanning)
        self.kept = [i for i in range(dim) if i not in self.pivots]

    def apply_rows(self, rows: Sequence[Sequence[int]], d: int) -> Tuple[int, list]:
        """(e, images) of the vectors rows / d, rows integral, over e = d m, m
        the lcm of the pivots of the reduced rows u_i: the image of v / d is
        m v - sum_i v[p_i] (m / u_i[p_i]) u_i over e, as u_i is 0 at the other pivots."""
        m = lcm(*(u[p] for u, p in zip(self._rows, self.pivots)))
        steps = [(m // u[p], p, u) for u, p in zip(self._rows, self.pivots)]
        images = []
        for v in rows:
            w = [m * x for x in v]
            for f, p, u in steps:
                if v[p]:
                    w = [x - v[p] * f * y for x, y in zip(w, u)]
            images.append(tuple(map(w.__getitem__, self.kept)))
        return d * m, images


# ---------------------------------------------------------------------------
# Integer matrices: Hermite normal form and kernels


def hnf_int(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Row-style Hermite normal form of an integer matrix, as a tuple of rows.

    Nonzero rows with positive pivots at strictly increasing columns;
    entries above each pivot reduced into [0, pivot).  Memoized on the rows,
    so equal inputs share one answer.
    """
    return _hnf(tuple(map(tuple, rows)))


@lru_cache(maxsize=HNF_MEMO_SIZE)
def _hnf(key: IntMatrix) -> IntMatrix:
    """Each column is cleared by sweeps: every live row (nonzero there) is
    reduced against the one with the least entry in absolute value, until
    one live row is left."""
    mat = [list(r) for r in key if any(r)]
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
    return tuple(map(tuple, out))


def int_left_kernel(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Basis of {x integral : x * M = 0} for the given row matrix M."""
    m = len(rows)
    if m == 0:
        return ()
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


def hnf_meet(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    """HNF of the intersection of the row lattices of two integer matrices."""
    if not a or not b:
        return ()
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
    """A rational vector space with a symmetric bilinear form.

    Stored in integers: `_rows`, the Gram matrix times `_scale`, the least
    common denominator of its entries, and the radical (`_radical`).  Every
    space enters through `_of_rows`, on integer rows; `gram` and
    `kernel_basis()` are `Fraction` views built on first read.
    """

    def __init__(self, gram: Sequence[Sequence]):
        self._set(*clear_denominators(gram))

    @classmethod
    def _of_rows(cls, scale: int, rows: Sequence[Sequence[int]]) -> "BilinearSpace":
        """The space of the Gram matrix rows / scale, rows integral."""
        return cls.__new__(cls)._set(scale, rows)

    def _set(self, scale: int, rows) -> "BilinearSpace":
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("gram matrix is not square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise DimensionMismatch("gram matrix is not symmetric")
        g = gcd(scale, *itertools.chain.from_iterable(rows))
        self.dim, self._scale = n, scale // g
        self._rows: IntMatrix = tuple(tuple(x // g for x in row) for row in rows)
        return self

    @cached_property
    def gram(self) -> Tuple[Vector, ...]:
        return tuple(tuple(Q(x, self._scale) for x in row) for row in self._rows)

    def __eq__(self, other):
        return isinstance(other, BilinearSpace) and (
            self._scale == other._scale and self._rows == other._rows)

    def __hash__(self):
        return hash((self._scale, self._rows))

    def __repr__(self):
        return f"BilinearSpace(dim={self.dim})"

    def check_vector(self, v: Sequence):
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector of length {len(v)} in dim {self.dim}")

    def form(self, u: Vector, v: Vector) -> Q:
        s, (a, b) = clear_denominators([u, v], dim=self.dim)
        pairing = sum(x * sum(map(mul, row, b)) for x, row in zip(a, self._rows) if x)
        return Q(pairing, s * s * self._scale)

    def norm(self, v: Vector) -> Q:
        return self.form(v, v)

    @cached_property
    def _radical(self) -> Tuple[int, IntMatrix]:
        """(m, rows): the basis of the radical {v : (v, -) = 0}, one vector per
        non-pivot column f of the reduced Gram rows, 1 at f and 0 at the
        other such columns, as integer rows over m, the lcm of the pivots."""
        red, pivots = rref(self._rows)
        m = lcm(*(row[p] for row, p in zip(red, pivots)))
        basis = []
        for f in (c for c in range(self.dim) if c not in pivots):
            v = [0] * self.dim
            v[f] = m
            for row, p in zip(red, pivots):
                v[p] = -row[f] * (m // row[p])
            basis.append(tuple(v))
        return m, tuple(basis)

    @cached_property
    def _kernel_basis(self) -> Tuple[Vector, ...]:
        m, rows = self._radical
        return tuple(tuple(Q(x, m) for x in row) for row in rows)

    def kernel_basis(self) -> Tuple[Vector, ...]:
        """Deterministic basis of the radical {v : (v, -) = 0}."""
        return self._kernel_basis

    def _in_radical(self, v: Sequence[int]) -> bool:
        return not any(sum(map(mul, row, v)) for row in self._rows)

    def in_kernel(self, v: Vector) -> bool:
        return self._in_radical(clear_denominators([v], dim=self.dim)[1][0])

    def _on(self, kept: Sequence[int]) -> "BilinearSpace":
        """The space on the coordinates `kept`: the minor of the Gram matrix."""
        return BilinearSpace._of_rows(self._scale, [[self._rows[i][j] for j in kept] for i in kept])


def standard_space(plus: int, minus: int = 0) -> BilinearSpace:
    """Orthogonal space diag(+1, ..., +1, -1, ..., -1)."""
    n = plus + minus
    return BilinearSpace._of_rows(
        1, [[(1 if i < plus else -1) if i == j else 0 for j in range(n)] for i in range(n)]
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
        self.rows = tuple(map(tuple, rows)) if g == 1 else tuple(
            tuple(x // g for x in row) for row in rows)
        self.pivots = hnf_pivots(self.rows)
        self._basis: Optional[Tuple[Vector, ...]] = None

    @classmethod
    def from_vectors(cls, dim: int, vectors: Sequence[Vector]) -> "Lattice":
        """The subgroup generated by vectors of ints or Fractions."""
        s, rows = clear_denominators(vectors, dim=dim, message="generator of wrong length")
        return cls(dim, s, hnf_int([row for row in rows if any(row)]))

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

    def residue_row(self, w: Sequence[int], d: int):
        """`reduce_int` as ((e, u), c): the residue as u / e over its least multiple e of scale."""
        u, c = self.reduce_int(w, d)
        g = gcd(d // self.scale, *u)
        return (d // g, tuple(x // g for x in u)), c

    def _reduce(self, v: Vector):
        """`residue_row` of v, checked for length."""
        d, (w,) = clear_denominators([v], self.scale, self.dim, "vector of wrong length")
        return self.residue_row(w, d)

    def split(self, v: Vector) -> Tuple[Vector, Tuple[int, ...]]:
        """(residue(v), c) with v = residue(v) + sum c_i basis_i, c integral."""
        (d, w), coeffs = self._reduce(v)
        return tuple(Q(x, d) for x in w), coeffs

    def member(self, v: Vector) -> bool:
        return not any(self._reduce(v)[0][1])

    def residue(self, v: Vector) -> Vector:
        """Canonical representative of v + L (pivot coefficients in [0, 1))."""
        return self.split(v)[0]

    def coefficients(self, v: Vector) -> Optional[Tuple[int, ...]]:
        """Integer coordinates of v in the canonical basis, or None."""
        (_, w), coeffs = self._reduce(v)
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
        # the pairings of the scaled basis with the scaled Gram rows
        pairings = [_int_combination(r, space._rows, self.dim) for r in self.rows]
        return self.sublattice(int_left_kernel(pairings))


def lattice_from_vectors(space: BilinearSpace, vectors: Sequence[Vector]) -> Lattice:
    """The subgroup generated by the vectors, in canonical normal form."""
    return Lattice.from_vectors(space.dim, vectors)


def lattice_member(lat: Lattice, v: Vector) -> bool:
    return lat.member(v)
