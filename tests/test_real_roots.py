"""`real_roots_from_matrix` against its `Fraction` reference.

The closure runs on int tuples with the integer Cartan matrix
a_ij = 2 c_ij / c_ii; `fraction_reference.real_roots_from_matrix` keeps the
closure by `finite.reflect` that it replaced, entered through the public
constructor.  Both must give equal systems with equal roots and the same
document, the same `truncated` flag, or the same exception and message.
"""

import random
from fractions import Fraction as Q

import pytest

from grrs import serialize
from grrs.catalog import real_roots_from_matrix
from grrs.linalg import BilinearSpace

import fraction_reference as reference


def _e8():
    # Bourbaki numbering 1, 3, 4, 5, 6, 7, 8 on a chain, 2 attached to 4
    edges = [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
    C = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
    for i, j in edges:
        C[i][j] = C[j][i] = -1
    return C


E8 = _e8()
AFFINE_A1 = [[2, -2], [-2, 2]]

# the matrices the other tests of the closure use, valid and invalid
FIXED = [
    ([[2, -1], [-1, 2]], ()),
    ([[2, -2], [-2, 4]], ()),
    ([[2, -3], [-3, 6]], ()),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], ()),
    ([[2, -3], [-3, 2]], ()),
    ([[1]], (0,)),
    ([[0, 1], [1, 0]], ()),
    ([[2, 1], [-1, 2]], ()),
    ([[2, -1], [-1, 3]], ()),
    ([[2, -3], [-3, 2]], (0,)),
    (AFFINE_A1, ()),
    (AFFINE_A1, (1,)),
    (E8, ()),
    # fails the symmetry and the zero-diagonal checks: symmetry is reported
    ([[0, 1], [2, 0]], ()),
    # row 0 fails integrality before row 1 reaches its zero diagonal
    ([[2, Q(1, 2)], [Q(1, 2), 0]], ()),
    ([[2, -1], [-1]], ()),
    ([[2, -1], [-1, 2]], (2,)),
    ([[4, -2], [-2, 2]], (0, 1)),
    ([["2", "-1/1"], ["-1", "2"]], ()),
    ([["2", "x"], ["x", "2"]], ()),
]


def _random_matrix(rng):
    """A symmetric matrix of rank 1..4 and a J.  Each off-diagonal entry
    keeps 2 c_ij / c_ii and 2 c_ij / c_jj integral nine times in ten, so
    most draws pass the integrality checks; J holds the out-of-range index
    n one time in ten."""
    n = rng.randint(1, 4)
    diag = [Q(rng.choice([1, 2, 3, 4, 6, -2, Q(1, 2), Q(2, 3)])) for _ in range(n)]
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        C[i][i] = diag[i]
        for j in range(i):
            pool = [-diag[i] / 2, -diag[j] / 2, -diag[i], -diag[j], -1, Q(-1, 3), 1]
            if rng.random() < 0.9:
                pool = [c for c in pool if (2 * c / diag[i]).denominator == 1
                        and (2 * c / diag[j]).denominator == 1]
            C[i][j] = C[j][i] = rng.choice([0, 0, *pool])
    J = rng.sample(range(n), rng.randint(0, min(2, n)))
    return C, J + [n] * (rng.random() < 0.1)


def _outcome(closure, matrix, J, height):
    try:
        system, truncated = closure(matrix, J, height)
    except Exception as exc:
        return type(exc), str(exc)
    return system, system.roots, serialize.dumps(system), truncated


def _cases():
    rng = random.Random(20261019)
    cases = [(m, J, h) for m, J in FIXED for h in (3, 6, 12)]
    cases += [(*_random_matrix(rng), h) for _ in range(60) for h in (3, 6, 12)]
    cases += [([[2, -1], [-1, 2]], (), h) for h in (0, -1)]
    return cases


def test_integer_closure_matches_fraction_reference():
    kinds = set()
    for matrix, J, height in _cases():
        got = _outcome(real_roots_from_matrix, matrix, J, height)
        want = _outcome(reference.real_roots_from_matrix, matrix, J, height)
        assert got == want, (matrix, J, height)
        kinds.add(got[-1] if isinstance(got[-1], bool) else got[0].__name__)
    # the set reaches closed and truncated systems and both kinds of error
    assert kinds == {False, True, "BadMatrix", "NotRational"}


def test_e8_closes_to_240_roots_like_the_reference():
    system, truncated = real_roots_from_matrix(E8, height_bound=29)
    assert not truncated and len(system) == 240
    assert (system, truncated) == reference.real_roots_from_matrix(E8, height_bound=29)


def test_closure_evaluates_no_form(monkeypatch):
    def refuse(self, u, v):
        raise AssertionError("the closure evaluated the bilinear form")

    monkeypatch.setattr(BilinearSpace, "form", refuse)
    system, truncated = real_roots_from_matrix(E8, height_bound=10)
    assert truncated and len(system) > 16
