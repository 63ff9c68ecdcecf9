"""Reference Fraction Gauss-Jordan elimination, the oracle for `linalg.rref`.

This is the rational elimination `grrs.linalg` used before it ran in
integers: every pivot row is divided by its pivot and the pivot column is
cleared in every other row, all in `Fraction` arithmetic.  It is kept here
only to check the integer elimination and to give the tests a rank that does
not go through it.
"""

from fractions import Fraction as Q


def rref(rows):
    """Reduced row echelon form with deterministic pivoting.

    Scans columns left to right, picks the first row with a nonzero entry.
    Returns (reduced nonzero rows, pivot column indices).
    """
    mat = [[Q(x) for x in r] for r in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for c in range(len(mat[0])):
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


def rank(rows) -> int:
    return len(rref(rows)[0])


def solve(vectors, target):
    """Coefficients x with sum x_i * vectors[i] = target, free ones zero,
    or None: back substitution on the RREF of the augmented columns."""
    k = len(vectors)
    rows = [tuple(v[i] for v in vectors) + (target[i],) for i in range(len(target))]
    red, pivots = rref(rows)
    coeffs = [Q(0)] * k
    for row, p in zip(red, pivots):
        if p == k:
            return None
        coeffs[p] = row[k] - sum(row[j] * coeffs[j] for j in range(p + 1, k))
    return tuple(coeffs)


def kernel(rows):
    """Basis of {v : rows v = 0}, one vector per free column, with a 1 there."""
    red, pivots = rref(rows)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Q(0)] * ncols
        v[f] = Q(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis
