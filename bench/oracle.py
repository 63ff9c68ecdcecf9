"""Answer checks that do not use the code under test.

Everything here is written from the definitions, over `fractions.Fraction`
and plain integers, so that a wrong answer from `grrs` cannot be confirmed
by the same wrong code.  Vectors are tuples of Fractions; a Gram matrix is
a tuple of rows.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache


def form(gram, u, v):
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) if u[i] for j in range(len(v)) if v[j])


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def vneg(u):
    return tuple(-a for a in u)


def coordinates(basis, v):
    """Coefficients of v in the span of independent `basis`, or None."""
    n = len(basis)
    # columns = basis vectors; augmented column = v
    rows = [[b[i] for b in basis] + [v[i]] for i in range(len(v))]
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            return None  # basis not independent
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    if any(row[n] != 0 for row in rows[r:]):
        return None
    return tuple(rows[i][n] for i in range(n))


def reflect_in(roots, gram, a, b):
    """r_a(b) inside the finite root set `roots`, or None when undefined.

    Linear reflection for (a, a) != 0; for isotropic a the set involution:
    -b for b = +-a, b when orthogonal, else the unique root among b +- a.
    """
    na = form(gram, a, a)
    if na != 0:
        return vsub(b, vscale(2 * form(gram, a, b) / na, a))
    if b == a or b == vneg(a):
        return vneg(b)
    if form(gram, a, b) == 0:
        return b
    plus, minus = vadd(b, a) in roots, vsub(b, a) in roots
    if plus == minus:
        return None
    return vadd(b, a) if plus else vsub(b, a)


def closure(roots, gram, seeds):
    """Smallest set containing the seeds, closed under +-r_a(b), a, b in it."""
    current = set(seeds)
    while True:
        new = set()
        for a in current:
            for b in current:
                img = reflect_in(roots, gram, a, b)
                if img is None:
                    return None
                for w in (img, vneg(img)):
                    if w not in current:
                        new.add(w)
        if not new:
            return current
        current |= new


def is_partition(blocks, roots) -> bool:
    seen = set()
    for block in blocks:
        if not block:
            return False
        for r in block:
            if r in seen:
                return False
            seen.add(r)
    return seen == set(roots)


def homothety_ok(h, src_roots, src_gram, dst_roots, dst_gram) -> bool:
    """Apply h to every source root: images are distinct roots of the target
    and the form is scaled by h.scale on the domain basis."""
    basis, images, scale = list(h.basis), list(h.images), Q(h.scale)
    for i, u in enumerate(basis):
        for j, v in enumerate(basis):
            if form(dst_gram, images[i], images[j]) != scale * form(src_gram, u, v):
                return False
    dst = set(dst_roots)
    hit = set()
    dim = len(images[0]) if images else 0
    for r in src_roots:
        c = coordinates(basis, r)
        if c is None:
            return False
        img = tuple(Q(0) for _ in range(dim))
        for ci, im in zip(c, images):
            if ci:
                img = vadd(img, vscale(ci, im))
        if img not in dst or img in hit:
            return False
        hit.add(img)
    return len(hit) == len(dst)


# ---------------------------------------------------------------------------
# Subsets of F_2^k as bit masks (bit p set <=> point p in the set)


def mask_of(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def points_of(mask: int, k: int):
    return [p for p in range(1 << k) if (mask >> p) & 1]


def map_mask(mask: int, k: int, f) -> int:
    out = 0
    for p in range(1 << k):
        if (mask >> p) & 1:
            out |= 1 << f(p)
    return out


@lru_cache(maxsize=None)
def _tables(k: int):
    """Mask -> image mask lookup tables for the generators of AGL(k, 2):
    transvections x_i += x_j (which generate GL(k, 2)) and unit translations."""
    n = 1 << (1 << k)

    def table(f):
        return tuple(map_mask(m, k, f) for m in range(n))

    linear = [table(lambda p, i=i, j=j: p ^ (((p >> j) & 1) << i))
              for i in range(k) for j in range(k) if i != j]
    shifts = [table(lambda p, t=1 << i: p ^ t) for i in range(k)]
    return linear, shifts


def orbit(state, moves):
    """Orbit of `state` under the group generated by `moves` (state -> state)."""
    seen = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        for move in moves:
            t = move(s)
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def count_orbits(states, moves) -> int:
    left = set(states)
    n = 0
    while left:
        left -= orbit(next(iter(left)), moves)
        n += 1
    return n


def subset_moves(k: int, complement: bool = False):
    """AGL(k, 2) acting on subsets, optionally with complementation."""
    linear, shifts = _tables(k)
    full = (1 << (1 << k)) - 1
    moves = [t.__getitem__ for t in linear + shifts]
    if complement:
        moves.append(lambda m: full & ~m)
    return moves


def pair_moves(k: int, translate_second: bool, complement_first: bool):
    """Shared linear maps on both masks, translations on the first (and on
    the second when `translate_second`), optional complement of the first."""
    linear, shifts = _tables(k)
    full = (1 << (1 << k)) - 1
    moves = [lambda s, t=t: (t[s[0]], t[s[1]]) for t in linear]
    moves += [lambda s, t=t: (t[s[0]], s[1]) for t in shifts]
    if translate_second:
        moves += [lambda s, t=t: (s[0], t[s[1]]) for t in shifts]
    if complement_first:
        moves.append(lambda s: (full & ~s[0], s[1]))
    return moves


def spans_affinely(points, k: int) -> bool:
    """The points contain an affine basis of F_2^k."""
    if not points:
        return False
    span = {0}
    for p in points:
        span |= {s ^ p ^ points[0] for s in span}
    return len(span) == 1 << k
