"""Reference implementations of paths that `grrs` replaced, kept as oracles.

- `rref`, `rank`, `solve`, `kernel`, `column_basis`: the rational
  elimination `grrs.linalg` used before it ran in integers: every pivot row
  is divided by its pivot and the pivot column is cleared in every other
  row, all in `Fraction` arithmetic.  They check the integer elimination and
  give the tests a rank and span coordinates that do not go through it.
- `hnf_int`: the Hermite normal form by pairwise extended-gcd steps that
  `linalg.hnf_int` used before its sweeps; the HNF is unique, so both must
  agree on every input.
- `symbolic_system` and `from_finite_entries`: the `Fraction` bookkeeping
  of `SymbolicRootSystem.__init__` and `from_finite` before both ran on
  integer rows (sort, duplicate and radical tests, generators of L, lifts
  re-summed from rank-many chosen roots).  The radical test reads the
  members translate + rep and the modulus generators, as the constructor
  does: a family lies in the radical although its stored translate and
  reps, taken apart, need not (translate (0, 0, 1) and rep (0, 1, 0) for
  the member (0, 1, 1) of a radical spanned by it).
- `resplit`: `SymbolicRootSystem.resplit` before it ran on integer rows:
  each lift moved by the `Fraction` combination of the offsets, its family
  moved back by `shift`, the result entered through the public constructor.
- `generate_subsystem`, `irreducible_components` and `integral_subsystem`:
  the derived finite systems entered through the public constructor on
  `Fraction` roots, before they entered on the rows of the system: the
  closure of the seeds by `reflection_image`, the components of the graph
  of nonzero `pairings`, and the roots of integral Cartan pairing against
  lam by the form.
- `real_roots_from_matrix`: the reflection closure of a symmetric matrix by
  `finite.reflect` on `Fraction` vectors, one `k_value` per step, before the
  closure ran on the integer Cartan matrix.
- `reflection_image` and `shifted`: the reflection step of a finite
  system, computed on the `Fraction` roots themselves and found in a
  `Fraction`-keyed index built here from `system.roots`, before it ran on
  packed integer keys.
- `check_axioms`, `gw_orbits` and `weyl_orbits`: the finite checker and
  the orbit partitions before they read the reflection rows: every pair
  stepped by `shifted` or `reflection_image`, GR2 and GR3 decided per pair,
  and the orbits walked as `finite._blocks` walks them, one image at a
  time in generator order, so that the same pair raises first.
- `pairings`: every pairing W[i] . R[j] of a finite system as a plain dot
  product, before `_pairings` read the rows of negatives and the lower
  triangle off the others.
- `isomorphic_finite`: the homothety search before it passed over the
  candidate scales that do not match the norms: it builds the fingerprint
  index for every candidate in turn, takes the candidate scales from the
  `Fraction` norms (`_form_values`), the span from `column_basis` above and
  the images of the roots as `Fraction` vectors.
- `finite_root_system`: the `FiniteRootSystem` constructor before it ran on
  integer rows: the roots deduplicated and sorted as `Fraction` tuples,
  indexed by a `Fraction`-keyed dict, compared and hashed as (space, roots).
- `is_reduced`: the pairwise scan for proportional roots on `Fraction`
  vectors, before it grouped the integer rows by their line.
- `shift`: `CosetSet.shift` before it kept the stabilizer: the moved
  translate and the reps handed to the public `CosetSet(...)` as
  `Fraction` vectors, and the stabilizer derived anew.
- `quotient`: `symbolic.quotient` before it pushed the families on
  integer rows: each family's modulus basis, translate and reps projected
  as `Fraction` vectors, the two bijectivity tests on a `Lattice` of the
  projected modulus, and the image entered through `CosetSet(...)`.
- `pullback_families`: the family lookup of `classify.identify` before it
  ran on integer rows: the least member of each generating family read off
  the `Fraction` view `reps`, each offset a `Fraction` combination.
- `points_mod`: the mask of a family read through `members()`,
  `Lattice.coset_representatives` and `Lattice.coefficients`; an infinite
  index, where `coset_representatives` raised `ValueError`, raises the
  `UnrecognizedCl` that `catalog.points_mod` raises now.
- `cl` and `cl_entries`: the minimal quotient of a symbolic system built
  from the `Fraction` projections of its lifts, and the entry above each of
  its roots found by looking those projections up.
- `form` and `in_kernel`: the bilinear form and the radical test on a
  `Fraction` Gram matrix, before a space kept its Gram matrix on integer
  rows.
- `project`, `contains`, `family_of_lift` and `entry_for_cl`: the
  projection along the radical that `SubspaceProjection.apply` made on
  `Fraction` vectors, and the symbolic lookups of a caller's vector built
  on it, before they read the vector as one integer row: the class found
  among the projected lifts, the lift compared and the offset v - lift
  tested as `Fraction` vectors.
- `orbit_minimum` and `canonical_pair`: the AGL(k,2) orbit walks under
  every transvection x_i += x_j (and every translation, for the pairs),
  before they ran on three generators.
- `dumps` and `loads`: the JSON codec of finite and symbolic documents
  before it ran on integer rows: the writer formats the `Fraction` views
  (`gram`, `roots`, `L.basis`, `lifts`, `translate`, `reps`,
  `modulus.basis`) coordinate by coordinate, and the reader parses each
  coordinate to a `Fraction` and enters the public constructors
  (`FiniteRootSystem(...)`, `Lattice.from_vectors`, `CosetSet(...)`,
  `SymbolicRootSystem(...)`), keying each family by the `repr` of its
  fields.  Reports and class lists go through `grrs.serialize` itself.
- `NAMED`: the named finite systems of `catalog._TYPES` and their
  generating sets before they were built on integer rows: every root formed
  in `Fraction` arithmetic, both of each +- pair, and entered through the
  public `FiniteRootSystem(...)`, which clears the denominators again.
"""

import itertools
import json
from fractions import Fraction as Q
from functools import lru_cache
from operator import mul
from types import SimpleNamespace

from grrs import catalog, serialize
from grrs.catalog import _point
from grrs.errors import (
    AmbiguousReflection, BadMatrix, GrrsError, IsotropicPresent, MissingImage, NotBijective,
    NotRational, OrthogonalSeed, UnknownRoot, UnrecognizedCl,
)
from grrs.finite import AxiomCheck, AxiomReport, FiniteRootSystem, _scaled, reflect
from grrs.linalg import (
    BilinearSpace,
    Lattice,
    clear_denominators,
    format_rational,
    format_vector,
    standard_space,
    unit_vector,
    vadd,
    vec,
    vneg,
    vscale,
    vsub,
    zero_vector,
)
from grrs.symbolic import CosetSet, SymbolicRootSystem, from_finite


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


def column_basis(columns, fixed=()):
    """(picked, coords, meets_zero) as `linalg.column_basis` gives them, the
    coordinates as `Fraction`s read off the rational RREF."""
    m = len(fixed)
    reduced, pivots = rref(list(zip(*fixed, *columns)))
    f = sum(p < m for p in pivots)
    coords = [tuple(row[m + j] for row in reduced[f:]) for j in range(len(columns))]
    meets_zero = not any(x for row in reduced[:f] for x in row[m:])
    return [p - m for p in pivots[f:]], coords, meets_zero


def _combination(coeffs, vectors, dim):
    out = zero_vector(dim)
    for c, v in zip(coeffs, vectors):
        out = vadd(out, vscale(c, v))
    return out


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


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def hnf_int(rows):
    """Row-style HNF: column by column, the first two live rows are
    replaced by their xgcd combinations until one live row is left."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    r = 0
    for c in range(len(mat[0])):
        if r == len(mat):
            break
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
            mat[i] = [x * p + y * q for p, q in zip(ai, bj)]
            mat[j] = [(-b // g) * p + (a // g) * q for p, q in zip(ai, bj)]
        if mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            p = mat[r][c]
            for i in range(r):
                f = mat[i][c] // p
                if f:
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
            r += 1
    return mat[:r]


def _lattice(dim, vectors):
    """`Lattice.from_vectors` with the HNF above."""
    s, rows = clear_denominators([v for v in vectors if any(v)])
    return Lattice(dim, s, hnf_int(rows))


def _vectors(fam):
    """(generators of M, translate, one vector of L per coset) in Q^n."""
    amb = fam.ambient
    vectors = [[_combination(c, amb.basis, amb.dim) for c in cs] for cs in (fam._mod, fam._ireps)]
    return vectors[0], fam.translate, vectors[1]


def symbolic_system(space, entries):
    """What `SymbolicRootSystem(space, entries)` computes, in `Fraction`s:
    a namespace with L, entries ((lift, family) pairs in order), splitting,
    coords (each lift's coordinates on the splitting) and cl."""
    kb = space.kernel_basis()
    cleaned = []
    for lift, fam in entries:
        lift = tuple(Q(x) for x in lift)
        space.check_vector(lift)
        if fam.is_empty():
            continue
        cleaned.append((lift, fam))
    if not cleaned:
        raise GrrsError("symbolic system with no nonempty families")
    distinct = dict.fromkeys(fam for _, fam in cleaned)
    cleaned.sort(key=lambda e: e[0])
    lifts = [lift for lift, _ in cleaned]
    if len(set(lifts)) != len(lifts):
        raise GrrsError("duplicate lifts in symbolic system")
    picked, coords, independent = column_basis(lifts, kb)
    if not independent:
        raise GrrsError("lifts are not independent from the radical")
    vectors = {fam: _vectors(fam) for fam in distinct}
    gens, first = [], {}
    for fam, (mod, t, reps) in vectors.items():
        if not all(space.in_kernel(v) for v in [*mod, *(vadd(t, r) for r in reps)]):
            raise GrrsError("family data outside the radical")
        gens += mod + [vsub(r, reps[0]) for r in reps[1:]]
        first[fam] = vadd(t, reps[0])
    gens += [vadd(lift, first[fam]) for lift, fam in cleaned]
    L = _lattice(space.dim, gens).kernel_part(space)
    anchored = {
        fam: fam if fam.ambient == L else CosetSet(L, fam.modulus, t, reps)
        for fam, (_, t, reps) in vectors.items()
    }
    proj = Projection(space.dim, kb)
    gram = [[space.gram[i][j] for j in proj.kept] for i in proj.kept]
    return SimpleNamespace(
        L=L,
        entries=[(lift, anchored[fam]) for lift, fam in cleaned],
        splitting=tuple(lifts[i] for i in picked),
        coords=coords,
        cl=FiniteRootSystem(BilinearSpace(gram), [proj.apply(lift) for lift in lifts]),
    )


def from_finite_entries(system):
    """The (lift, family) pairs `from_finite` hands to the constructor: each
    lift re-summed from the lex-first roots independent modulo the radical,
    one coset set per lift."""
    dim = system.space.dim
    picked, coords, _ = column_basis(system.roots, system.space.kernel_basis())
    chosen = [system.roots[i] for i in picked]
    groups = {}
    for r, c in zip(system.roots, coords):
        lift = _combination(c, chosen, dim)
        groups.setdefault(lift, []).append(vsub(r, lift))
    ambient = _lattice(dim, [v for vs in groups.values() for v in vs])
    return [
        (lift, CosetSet(ambient, Lattice.zero(dim), zero_vector(dim), offs))
        for lift, offs in groups.items()
    ]


def resplit(system, offsets):
    """What `system.resplit(offsets)` computes, for offsets keyed by
    splitting lifts and lying in their families."""
    dim = system.space.dim
    shifts = [vec(offsets.get(b, zero_vector(dim))) for b in system.splitting()]
    coords = column_basis(system.lifts, system.space.kernel_basis())[1]
    entries = []
    for e, c in zip(system.entries, coords):
        lam = _combination(c, shifts, dim)
        entries.append((vadd(e.lift, lam), shift(e.family, vneg(lam))))
    return SymbolicRootSystem(system.space, entries)


def quotient(system, kernel_vectors, require_bijective=False):
    """What `symbolic.quotient` computes, for kernel vectors in the radical."""
    proj = Projection(system.space.dim, [vec(v) for v in kernel_vectors])
    if not proj.pivots:
        return system
    kept, dim = proj.kept, len(proj.kept)
    space = BilinearSpace([[system.space.gram[i][j] for j in kept] for i in kept])
    image = _lattice(dim, [proj.apply(b) for b in system.L.basis])
    entries = []
    for e in system.entries:
        gens = [proj.apply(g) for g in e.family.modulus.basis]
        reps = [proj.apply(r) for r in e.family.reps]
        mod = _lattice(dim, gens)
        if require_bijective:
            if mod.rank < len(gens):
                raise NotBijective("a family coset collapses along the quotient")
            if any(mod.member(vsub(a, b)) for a, b in itertools.combinations(reps, 2)):
                raise NotBijective("two family cosets merge along the quotient")
        pushed = CosetSet(image, mod, proj.apply(e.family.translate), reps)
        entries.append((proj.apply(e.lift), pushed))
    return SymbolicRootSystem(space, entries)


def real_roots_from_matrix(matrix, J=(), height_bound=20):
    """Closure of the unit basis (plus doubled J-entries) under the simple
    reflections of `BilinearSpace(matrix)`, truncated at the given height;
    returns (system, truncated)."""
    C = [[_q(x) for x in row] for row in matrix]
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

    def height(v):
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


@lru_cache(maxsize=8)
def _index(system):
    """The roots of a finite system by their `Fraction` vectors."""
    return {r: i for i, r in enumerate(system.roots)}


def shifted(system, j, i, m):
    """Index of root j + m * root i, or None."""
    return _index(system).get(vadd(system.roots[j], vscale(m, system.roots[i])))


def reflection_image(system, i, j):
    """Index of r_i(root j), or None, raising as `finite.isotropic_reflect`
    does for an isotropic root i."""
    space, a, b = system.space, system.roots[i], system.roots[j]
    n, p = space.norm(a), space.form(a, b)
    if n == 0 and b in (a, vneg(a)):
        if not system.contains(vneg(b)):
            raise UnknownRoot("the negative is not a root")
        return _index(system)[vneg(b)]
    if p == 0:
        return j
    if n:
        return _index(system).get(vsub(b, vscale(2 * p / n, a)))
    plus, minus = shifted(system, j, i, 1), shifted(system, j, i, -1)
    if (plus is None) == (minus is None):
        raise (MissingImage if plus is None else AmbiguousReflection)(a, b)
    return minus if plus is None else plus


def check_axioms(system):
    """`finite.check_axioms`, each pair decided by its own step: GR0 a root
    orthogonal to the space, GR1 the rank of the roots, GR2 an integral
    Cartan number with its image a root, GR3 (WGR3) R = -R and exactly one
    (at least one) of b +- a a root for isotropic a with (a, b) != 0."""
    space, roots, n = system.space, system.roots, len(system)
    form, dim = space.form, space.dim

    def check(failure):
        return AxiomCheck(failure is None, failure and tuple(roots[i] for i in failure))

    def reflected(i, j):
        k = 2 * form(roots[i], roots[j]) / space.norm(roots[i])
        return k.denominator == 1 and (k == 0 or shifted(system, j, i, -k) is not None)

    gr0 = next(((i,) for i in range(n)
                if all(form(roots[i], unit_vector(dim, c)) == 0 for c in range(dim))), None)
    gr1 = AxiomCheck(n > 0 and rank(list(roots)) == dim)
    gr2 = next(((i, j) for i in range(n) if space.norm(roots[i]) for j in range(n)
                if not reflected(i, j)), None)
    gr3 = wgr3 = next(((i,) for i in range(n) if not system.contains(vneg(roots[i]))), None)
    if gr3 is None:
        for i, j in itertools.product(range(n), repeat=2):
            if space.norm(roots[i]) == 0 and form(roots[i], roots[j]) != 0:
                hits = sum(shifted(system, j, i, m) is not None for m in (1, -1))
                gr3 = gr3 or (None if hits == 1 else (i, j))
                wgr3 = wgr3 or (None if hits else (i, j))
    return AxiomReport(check(gr0), gr1, check(gr2), check(gr3), check(wgr3))


def orbits(system, generators):
    """`finite._orbit_partition`: the closure of each root, least first,
    under `reflection_image` at the generators, one image at a time."""
    seen, out = set(), []
    for start in range(len(system)):
        if start in seen:
            continue
        block, frontier = {start}, [start]
        while frontier:
            v = frontier.pop()
            for a in generators:
                w = reflection_image(system, a, v)
                if w is not None and w not in block:
                    block.add(w)
                    frontier.append(w)
        seen |= block
        out.append(tuple(system.roots[i] for i in sorted(block)))
    return out


def gw_orbits(system):
    return orbits(system, range(len(system)))


def weyl_orbits(system):
    return orbits(system, [i for i, r in enumerate(system.roots) if system.space.norm(r)])


def generate_subsystem(system, seeds):
    """`finite.generate_subsystem`: the seeds closed under +-r_a(b) until
    nothing is added."""
    inside = {_index(system)[vec(v)] for v in seeds}
    for i in inside:
        if not any(system.space.form(system.roots[i], system.roots[j]) for j in inside):
            raise OrthogonalSeed("a seed is orthogonal to the whole seed set")
    grown = True
    while grown:
        grown = False
        for i, j in itertools.product(list(inside), repeat=2):
            img = reflection_image(system, i, j)
            neg = None if img is None else _index(system).get(vneg(system.roots[img]))
            if neg is None:
                raise UnknownRoot("an image or its negative is not a root")
            grown |= not {img, neg} <= inside
            inside |= {img, neg}
    return FiniteRootSystem(system.space, [system.roots[i] for i in inside])


def irreducible_components(system):
    """The components of `finite.is_irreducible`: the roots linked by a
    nonzero pairing, closed, in the order of their least root."""
    P, left, comps = pairings(system), set(range(len(system))), []
    while left:
        comp, frontier = {min(left)}, [min(left)]
        while frontier:
            i = frontier.pop()
            linked = {j for j, p in enumerate(P[i]) if p} - comp
            comp |= linked
            frontier += linked
        left -= comp
        comps.append(FiniteRootSystem(system.space, [system.roots[i] for i in sorted(comp)]))
    return comps


def integral_subsystem(system, lam):
    """`finite.integral_subsystem`: the roots a with 2 (a, lam) / (a, a)
    integral, restricted to their span."""
    space = system.space
    if any(space.norm(r) == 0 for r in system.roots):
        raise IsotropicPresent("integral subsystem needs a system without isotropic roots")
    picked = [r for r in system.roots if (2 * space.form(r, lam) / space.norm(r)).denominator == 1]
    return FiniteRootSystem(space, picked).restricted_to_span()


def pairings(system):
    """The integer pairings P[i][j] = W[i] . R[j] of the rows R of a finite
    system, W[i] = R[i] g G with g G the cleared Gram matrix."""
    gram = clear_denominators(system.space.gram)[1]
    W = [[sum(map(mul, v, col)) for col in gram] for v in system._rows]
    return [[sum(map(mul, w, v)) for v in system._rows] for w in W]


def _form_values(system, P):
    """The nonzero norms, or when there are none, the nonzero pairings."""
    unit = Q(1, system.scale ** 2 * clear_denominators(system.space.gram)[0])
    norms = {unit * p[i] for i, p in enumerate(P)} - {0}
    return norms or {unit * x for p in P for x in p if x}


def isomorphic_finite(sys_a, sys_b):
    """A homothety carrying one root set onto the other, or None, tried
    scale by scale in the order of `finite.isomorphic_finite`; a namespace
    of `scale`, the spanning roots `basis`, their `images` and the map
    `roots`."""
    if len(sys_a) != len(sys_b):
        return None
    basis, coords, _ = column_basis(sys_a.roots)
    if len(basis) != len(column_basis(sys_b.roots)[0]):
        return None
    Pa, Pb = pairings(sys_a), pairings(sys_b)
    values_a, values_b = _form_values(sys_a, Pa), _form_values(sys_b, Pb)
    candidates = sorted({y / x for x in values_a for y in values_b}) or [Q(1)]
    fp_a, fp_b = [tuple(sorted(p)) for p in Pa], [tuple(sorted(p)) for p in Pb]
    unit_a, unit_b = (Q(1, s.scale ** 2 * clear_denominators(s.space.gram)[0])
                      for s in (sys_a, sys_b))
    dim = sys_b.space.dim

    def onto_roots(assignment):
        images = [sys_b.roots[m] for m in assignment]
        hit = [_index(sys_b).get(_combination(c, images, dim)) for c in coords]
        return hit if None not in hit and len(set(hit)) == len(hit) else None

    for x in candidates:
        t = x * unit_a / unit_b
        p, q = t.numerator, t.denominator
        by_fp = {}
        for s, fp in enumerate(fp_b):
            by_fp.setdefault(_scaled(fp, q), []).append(s)
        cand = [by_fp.get(_scaled(fp, p)) for fp in fp_a]
        if None in cand:
            continue
        assignment = []

        def extend(i):
            if i == len(basis):
                return onto_roots(assignment)
            bi = basis[i]
            for c in cand[bi]:
                if q * Pb[c][c] != p * Pa[bi][bi] or any(
                    q * Pb[c][assignment[j]] != p * Pa[bi][basis[j]] for j in range(i)
                ):
                    continue
                assignment.append(c)
                hit = extend(i + 1)
                if hit is not None:
                    return hit
                assignment.pop()
            return None

        hit = extend(0)
        if hit is not None:
            return SimpleNamespace(
                scale=x,
                basis=tuple(sys_a.roots[i] for i in basis),
                images=tuple(sys_b.roots[m] for m in assignment),
                roots={r: sys_b.roots[m] for r, m in zip(sys_a.roots, hit)},
            )
    return None


def finite_root_system(space, roots):
    """The roots, index and equality key of `FiniteRootSystem(space, roots)`;
    raises as the constructor does on a vector of the wrong length."""
    rs = sorted({vec(r) for r in roots})
    for r in rs:
        space.check_vector(r)
    roots = tuple(rs)
    return SimpleNamespace(roots=roots, index={r: i for i, r in enumerate(roots)},
                           key=(space, roots))


def is_reduced(system):
    """No proportional pair alpha, lambda*alpha with lambda outside {1, -1}."""
    for a in system.roots:
        i = next((j for j, x in enumerate(a) if x != 0), None)
        if i is None:
            continue
        for b in system.roots:
            if b[i] == 0:
                continue
            lam = b[i] / a[i]
            if lam in (1, -1):
                continue
            if b == vscale(lam, a):
                return False
    return True


def shift(fam, v):
    if fam.is_empty():
        return fam
    return CosetSet(fam.ambient, fam.modulus, vadd(fam.translate, v), fam.reps)


def pullback_families(system, hmap, key):
    """The shifted family above each catalog root, as `identify` reads it."""
    cat, gens = hmap.domain, catalog.generating_roots(key)
    coords = [solve(gens, r) for r in cat.roots]

    def above(i):
        return system.entries[system._cl_entries[hmap.index[i]]].family

    least = [vadd(f.translate, f.reps[0])
             for f in (above(cat._find(g)) for g in gens)]
    shifted = {}

    def fam(cat_root):
        i = cat._find(cat_root)
        if i not in shifted:
            offset = _combination(coords[i], least, len(least[0]))
            shifted[i] = shift(above(i), vneg(offset))
        return shifted[i]

    return fam, least


def points_mod(fam, ref, r=2):
    r_ref = ref.scaled(r)
    if not fam.modulus.contains_lattice(r_ref):
        raise UnrecognizedCl(f"family is not a union of cosets of {r} times the reference lattice")
    if r_ref.rank < fam.modulus.rank:
        raise UnrecognizedCl(f"family is not a union of cosets of {r} times the reference lattice")
    cosreps = fam.modulus.coset_representatives(r_ref)
    mask = 0
    for m in fam.members():
        for cr in cosreps:
            coeffs = ref.coefficients(vadd(m, cr))
            if coeffs is None:
                raise UnrecognizedCl("family member outside the reference lattice")
            mask |= 1 << _point(coeffs, r)
    return mask


def _classes(system):
    return [project(system.space, e.lift) for e in system.entries]


def cl(system):
    kept = system._proj.kept
    gram = [[system.space.gram[i][j] for j in kept] for i in kept]
    return FiniteRootSystem(BilinearSpace(gram), _classes(system))


def form(gram, u, v):
    """(u, v) on a `Fraction` Gram matrix, skipping zero coordinates."""
    total = Q(0)
    for i, a in enumerate(vec(u)):
        if a != 0:
            total += a * sum(gram[i][j] * b for j, b in enumerate(vec(v)) if b != 0)
    return total


def in_kernel(gram, v):
    support = [(j, x) for j, x in enumerate(vec(v)) if x != 0]
    return all(sum(row[j] * x for j, x in support) == 0 for row in gram)


class Projection:
    """`linalg.SubspaceProjection` with the `apply` it had on `Fraction`
    vectors: v minus, for each pivot p of the rational RREF of the spanning
    vectors, v[p] times that row, read on the non-pivot coordinates."""

    def __init__(self, dim, spanning):
        self._rows, self.pivots = rref(spanning)
        self.kept = [i for i in range(dim) if i not in self.pivots]

    def apply(self, v):
        w = list(vec(v))
        for row, p in zip(self._rows, self.pivots):
            f = w[p]
            if f:
                w = [x - f * y for x, y in zip(w, row)]
        return tuple(w[i] for i in self.kept)


def project(space, v):
    """The projection of v along the radical of the space."""
    return Projection(space.dim, space.kernel_basis()).apply(v)


def _entry_above(system, c):
    classes = _classes(system)
    return classes.index(c) if c in classes else None


def contains(system, v):
    """`SymbolicRootSystem.contains` on `Fraction` vectors: the entry whose
    lift projects to the projection of v, and v - lift in its family."""
    v = vec(v)
    system.space.check_vector(v)
    i = _entry_above(system, project(system.space, v))
    return i is not None and system.entries[i].family.contains(vsub(v, system.entries[i].lift))


def family_of_lift(system, lift):
    lift = vec(lift)
    system.space.check_vector(lift)
    i = _entry_above(system, project(system.space, lift))
    if i is None or system.entries[i].lift != lift:
        raise UnknownRoot(f"{format_vector(lift)} is not a class of the system")
    return system.entries[i].family


def entry_for_cl(system, cl_root):
    cl_root = vec(cl_root)
    if len(cl_root) == system.space.dim:
        cl_root = project(system.space, cl_root)
    i = _entry_above(system, cl_root)
    if i is None:
        raise UnknownRoot(f"{format_vector(cl_root)} is not a root of the minimal quotient")
    return system.entries[i]


def cl_entries(system):
    quotient = cl(system)
    classes = _classes(system)
    return sorted(range(len(system.entries)), key=lambda e: quotient.roots.index(classes[e]))


def map_mask(mask, k, f):
    out = 0
    for p in range(1 << k):
        if mask >> p & 1:
            out |= 1 << f(p)
    return out


def _byte_tables(k, f):
    """The point map f as byte tables: the image of a mask m over at most
    16 points is low[m & 255] | high[m >> 8]."""
    return tuple(tuple(map_mask(v << base, k, f)
                       for v in range(1 << min(8, max(0, (1 << k) - base))))
                 for base in (0, 8))


@lru_cache(maxsize=None)
def _walk_tables(k):
    transvections = [_byte_tables(k, lambda p, i=i, j=j: p ^ ((p >> j) & 1) << i)
                     for i in range(k) for j in range(k) if i != j]
    return transvections + [_byte_tables(k, lambda p: p ^ 1)] * (k > 0)


def _apply(tables, mask):
    return tables[0][mask & 255] | tables[1][mask >> 8]


def orbit_minimum(k, mask):
    """The least mask of the orbit under every transvection and the
    translation by e_0."""
    gens = _walk_tables(k)
    seen, orbit = {mask}, [mask]
    for m in orbit:
        for g in gens:
            img = _apply(g, m)
            if img not in seen:
                seen.add(img)
                orbit.append(img)
    return min(orbit)


def canonical_pair(k, mask1, mask2, translate_second, complement_first):
    full = (1 << (1 << k)) - 1
    linear = _walk_tables(k)[:k * (k - 1)]

    @lru_cache(maxsize=None)
    def reduce(mask):
        return min(map_mask(mask, k, lambda p, t=t: p ^ t) for t in range(1 << k))

    second = reduce if translate_second else (lambda mask: mask)
    start = (reduce(mask1), second(mask2))
    seen, orbit = {start}, [start]
    for m1, m2 in orbit:
        images = [(reduce(_apply(g, m1)), second(_apply(g, m2))) for g in linear]
        if complement_first:
            images.append((reduce(full ^ m1), m2))
        for pair in images:
            if pair not in seen:
                seen.add(pair)
                orbit.append(pair)
    return min(orbit)


def _ser_mat(rows):
    return [[format_rational(x) for x in v] for v in rows]


def _q(x):
    """`Fraction(x)`; a coordinate it cannot read raises NotRational."""
    try:
        return Q(x)
    except (OverflowError, ValueError, ZeroDivisionError, TypeError):
        raise NotRational(f"coordinate {x!r} is not a rational") from None


def _rational(x, seen):
    try:
        if type(x) is str:
            q = seen.get(x)
            if q is None:
                q = seen[x] = _q(x)
            return q
        return _q(x)
    except NotRational as exc:
        raise GrrsError(f"malformed document: {exc}") from None


def _parse_vec(xs, seen):
    return tuple(_rational(x, seen) for x in xs)


def _parse_mat(rows, seen):
    return [_parse_vec(r, seen) for r in rows]


def finite_to_dict(system):
    return {"dim": system.space.dim, "gram": _ser_mat(system.space.gram),
            "roots": _ser_mat(system.roots)}


def finite_from_dict(d):
    seen = {}
    space = BilinearSpace(_parse_mat(d["gram"], seen))
    if space.dim != d["dim"]:
        raise GrrsError("dim field does not match the gram matrix")
    return FiniteRootSystem(space, _parse_mat(d["roots"], seen))


def symbolic_to_dict(system):
    lattice = _ser_mat(system.L.basis)
    families = []
    for lift, fam in zip(system.lifts, system._families):
        families.append({
            "root": _ser_mat([lift])[0],
            "translate": _ser_mat([fam.translate])[0],
            "reps": _ser_mat(fam.reps),
            "modulusBasis": _ser_mat(fam.modulus.basis),
            "latticeBasis": [list(r) for r in lattice],
        })
    return {"dim": system.space.dim, "gram": _ser_mat(system.space.gram),
            "kernelDim": system.kernel_dim, "cl": finite_to_dict(system.cl()),
            "families": families}


def symbolic_from_dict(d):
    seen = {}
    space = BilinearSpace(_parse_mat(d["gram"], seen))
    if space.dim != d["dim"]:
        raise GrrsError("dim field does not match the gram matrix")
    entries, families = [], {}
    for f in d["families"]:
        key = repr([f["latticeBasis"], f["modulusBasis"], f["translate"], f["reps"]])
        if key not in families:
            ambient = Lattice.from_vectors(space.dim, _parse_mat(f["latticeBasis"], seen))
            modulus = Lattice.from_vectors(space.dim, _parse_mat(f["modulusBasis"], seen))
            families[key] = CosetSet(
                ambient, modulus, _parse_vec(f["translate"], seen), _parse_mat(f["reps"], seen))
        entries.append((_parse_vec(f["root"], seen), families[key]))
    system = SymbolicRootSystem(space, entries)
    if system.kernel_dim != d["kernelDim"]:
        raise GrrsError("kernelDim field does not match the gram matrix")
    return system


_CODECS = {"finite": (FiniteRootSystem, finite_to_dict, finite_from_dict),
           "symbolic": (SymbolicRootSystem, symbolic_to_dict, symbolic_from_dict)}


def dumps(payload):
    for t, (cls, encode, _) in _CODECS.items():
        if isinstance(payload, cls):
            doc = {"schemaVersion": serialize.SCHEMA_VERSION, "type": t, "payload": encode(payload)}
            return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return serialize.dumps(payload)


def loads(text):
    """`serialize.loads` with the finite and symbolic readers above."""
    try:
        d = json.loads(text)
    except RecursionError:
        raise GrrsError("document nested too deeply") from None
    t = d.get("type") if isinstance(d, dict) else None
    if not isinstance(t, str) or t not in _CODECS or d.get("schemaVersion") != serialize.SCHEMA_VERSION:
        return serialize.document_from_dict(d)
    try:
        return _CODECS[t][2](d["payload"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise GrrsError(f"malformed {t} document: {type(exc).__name__}: {exc}") from None


def _pm(v):
    return [v, vneg(v)]


def _pairs_roots(dim, idxs):
    out = []
    for i, j in itertools.combinations(idxs, 2):
        out += _pm(vsub(unit_vector(dim, i), unit_vector(dim, j)))
        out += _pm(vadd(unit_vector(dim, i), unit_vector(dim, j)))
    return out


def _type_a(plus, minus):
    dim = plus + minus
    roots = [vsub(unit_vector(dim, i), unit_vector(dim, j))
             for i in range(dim) for j in range(dim) if i != j]
    return FiniteRootSystem(standard_space(plus, minus), roots).restricted_to_span()


def _type_bcd(m, n, eps_lengths, dlt_lengths):
    dim = m + n
    roots = _pairs_roots(dim, range(dim))
    for i in range(dim):
        for c in eps_lengths if i < m else dlt_lengths:
            roots += _pm(vscale(c, unit_vector(dim, i)))
    return FiniteRootSystem(standard_space(m, n), roots)


def _g2():
    sp = BilinearSpace([[1, Q(-3, 2)], [Q(-3, 2), 3]])
    roots = []
    for a, b in [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]:
        roots += _pm(vec([a, b]))
    return FiniteRootSystem(sp, roots)


def _f4():
    sp = BilinearSpace([[2 if i == j else 0 for j in range(4)] for i in range(4)])
    roots = _pairs_roots(4, range(4))
    for i in range(4):
        roots += _pm(unit_vector(4, i))
    for signs in itertools.product((1, -1), repeat=4):
        roots.append(tuple(Q(s, 2) for s in signs))
    return FiniteRootSystem(sp, roots)


def e8_roots():
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


def _e_series(n):
    sp = standard_space(8)
    roots = e8_roots()
    if n == 8:
        return FiniteRootSystem(sp, roots)
    picked = [r for r in roots if r[6] + r[7] == 0 and (n == 7 or r[5] + r[7] == 0)]
    return FiniteRootSystem(sp, picked).restricted_to_span()


def _d21a(a):
    a = Q(a)
    sp = BilinearSpace([[Q(-(1 + a), 2), 0, 0], [0, Q(1, 2), 0], [0, 0, Q(a, 2)]])
    roots = []
    for i in range(3):
        roots += _pm(vscale(2, unit_vector(3, i)))
    for signs in itertools.product((1, -1), repeat=3):
        roots.append(tuple(Q(s) for s in signs))
    return FiniteRootSystem(sp, roots)


def _super_f4():
    sp = BilinearSpace([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -3]])
    roots = _pairs_roots(4, range(3))
    for i in range(4):
        roots += _pm(unit_vector(4, i))
    for signs in itertools.product((1, -1), repeat=4):
        roots.append(tuple(Q(s, 2) for s in signs))
    return FiniteRootSystem(sp, roots)


def _super_g3():
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


def _chain(dim, axes, c):
    axes = list(axes)
    out = [vsub(unit_vector(dim, a), unit_vector(dim, b)) for a, b in zip(axes, axes[1:])]
    return out + [vscale(c, unit_vector(dim, axes[-1]))]


def _a_gens(n=1):
    return list(_type_a(n + 1, 0).span_basis())


def _cmn_gens(m, n):
    return _chain(m + n, range(m), 2) + _chain(m + n, range(m, m + n), 2)


# kind of `catalog._TYPES` -> (system, generating set or None), as functions
# of the parameters
NAMED = {
    "G2": (_g2, lambda: [vec([1, 0]), vec([0, 1])]),
    "F4": (_f4, lambda: _chain(4, (1, 2, 3), 1) + [vec([Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)])]),
    "E{}": (_e_series, None),
    "B{}": (lambda n: _type_bcd(n, 0, (1,), ()), lambda n: _chain(n, range(n), 1)),
    "C{}": (lambda n: _type_bcd(n, 0, (2,), ()), lambda n: _chain(n, range(n), 2)),
    "A1": (lambda: _type_a(2, 0), _a_gens),
    "A{}": (lambda n: _type_a(n + 1, 0), _a_gens),
    "D{}": (lambda n: _type_bcd(n, 0, (), ()), None),
    "BC{}": (lambda n: _type_bcd(n, 0, (1, 2), ()), lambda n: _chain(n, range(n), 1)),
    "B({},{})": (lambda m, n: _type_bcd(m, n, (1,), (1, 2)),
                 lambda m, n: _chain(m + n, [*range(m, m + n), *range(m)], 1)),
    "C({},{})": (lambda m, n: _type_bcd(m, n, (2,), (2,)), _cmn_gens),
    "BC({},{})": (lambda m, n: _type_bcd(m, n, (1, 2), (1, 2)), _cmn_gens),
    "A({},{})": (lambda m, n: _type_a(m + 1, n + 1), None),
    "A({},{})_f": (lambda m, n: from_finite(_type_a(n + 1, n + 1)).cl(), None),
    "D({},{})": (lambda m, n: _type_bcd(m, n, (), (2,)), None),
    "C({})": (lambda n: _type_bcd(1, n - 1, (), (2,)), None),
    "G(3)": (_super_g3, None),
    "F(4)": (_super_f4, None),
    "D(2,1;a={})": (_d21a, None),
}
