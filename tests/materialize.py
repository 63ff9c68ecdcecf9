"""Axiom verdicts of a symbolic system over a one-dimensional radical,
decided on the roots listed in a bounded box.

Each root is lift + c * delta, with delta the generator of L and c rational.
A family with a nonzero modulus M is periodic: whether c is a member depends
only on c mod P, the lcm of the indices [L : M] of the nonzero moduli.  A
family with modulus zero is finite, and its members have |c| <= O.  The
roots with |c| <= 2(O + P) decide every axiom exactly.

Box roots are roots and `system.contains` is exact, so a failure in the box
is a failure.  Conversely, each test asks whether a class is missing, which
does not depend on c, or whether values -c_a, c_b - k c_a or c_b +- c_a lie
in given families.  Moving a root of a periodic class by a multiple of P
keeps it a root and keeps every membership in a periodic family; roots of
finite classes lie in the box already.  A failing pair moves into the box:
  - a value that must miss a finite family misses it once its size exceeds
    O.  For one value, put the periodic root in (O, O + P] or in
    [-O - P, -O): the two values differ by more than 2O, so one misses.  For
    both c_b +- c_a, put a in [0, P) and b in (O + P, O + 2P]; if a is
    finite, b in (2O, 2O + P]; if b is finite, a there.
  - a value that lies in a finite family has size at most O; GR3 fails so
    only when both b +- a are roots.  If both values lie in finite families,
    |c_a|, |c_b| <= O.  Otherwise move a into [0, P) and b by the multiple
    that keeps the value: |c_b| <= O + P, or 2O if a is finite, and
    |c_a| <= 2O if b is finite.
All of these lie within 2(O + P).  The box holds each finite family whole
and two roots of each periodic class, so it has the rank of R (GR1) and
meets every class.

The verdicts themselves are read off any finite list of roots by
`listed_verdicts`; on the whole root list of a finite system, with its own
membership test, it is an oracle for the finite checker.
"""

from fractions import Fraction as Q
from functools import cache
from math import ceil, lcm
from operator import mul

from grrs.linalg import vadd, vscale

from fraction_reference import rank

AXIOMS = ("gr0", "gr1", "gr2", "gr3", "wgr3")


def box_roots(system):
    """The roots lift + c * delta with |c| <= 2(O + P)."""
    L = system.L
    if L.rank == 0:
        # every family is a single point
        return [vadd(e.lift, m) for e in system.entries for m in e.family.members()]
    delta, p = L.basis[0], L.pivots[0]

    def coord(v):
        return v[p] / delta[p]

    period = lcm(*(e.family.modulus.index_in(L) for e in system.entries if e.family.modulus.rank))
    finite = [abs(coord(m)) for e in system.entries if not e.family.modulus.rank
              for m in e.family.members()]
    radius = 2 * (max(finite, default=0) + period)
    roots = []
    for e in system.entries:
        t = e.family.translate
        for j in range(-ceil(radius) - 1, ceil(radius) + 2):
            offset = vadd(t, vscale(j, delta))
            if abs(coord(offset)) <= radius and e.family.contains(offset):
                roots.append(vadd(e.lift, offset))
    return roots


def materialized_verdicts(system) -> dict:
    """Pass/fail of each axiom on the roots of a symbolic system in the box."""
    return listed_verdicts(system.space, box_roots(system), system.contains)


def listed_verdicts(space, roots, contains) -> dict:
    """Pass/fail of each axiom, with the semantics of the finite checker,
    decided on the listed roots with `contains` as membership in R.

    Roots are scaled to integer vectors d * r and the Gram matrix to the
    integer matrix g * G, so form[i][j] = d^2 g (r_i, r_j).
    """
    d = lcm(*(x.denominator for r in roots for x in r))
    g = lcm(*(x.denominator for row in space.gram for x in row))
    ints = [tuple(int(x * d) for x in r) for r in roots]
    gram = [[int(x * g) for x in row] for row in space.gram]
    gram_cols = [tuple(sum(map(mul, row, v)) for row in gram) for v in ints]
    form = [[sum(map(mul, u, col)) for col in gram_cols] for u in ints]

    @cache
    def member(v) -> bool:
        return contains(tuple(Q(x, d) for x in v))

    def comb(j, k, i):
        """root j + k * root i, scaled by d"""
        return tuple(y + k * x for x, y in zip(ints[i], ints[j]))

    n = range(len(roots))
    gr2 = all(
        2 * form[i][j] % form[i][i] == 0 and member(comb(j, -(2 * form[i][j] // form[i][i]), i))
        for i in n if form[i][i]
        for j in n
    )
    negation = all(member(tuple(-x for x in v)) for v in ints)
    found = [
        member(comb(j, 1, i)) + member(comb(j, -1, i))
        for i in n if not form[i][i]
        for j in n if form[i][j]
    ]
    return {
        "gr0": not any(space.in_kernel(a) for a in roots),
        "gr1": rank(roots) == space.dim,
        "gr2": gr2,
        "gr3": negation and all(f == 1 for f in found),
        "wgr3": negation and all(f >= 1 for f in found),
    }


def report_verdicts(report) -> dict:
    return {name: getattr(report, name).passed for name in AXIOMS}
