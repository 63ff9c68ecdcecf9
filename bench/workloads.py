"""The benchmark's workloads: seeded inputs, a fixed operation list, checks.

Each workload is a pair of functions.  `prepare(seed, tmp)` is the set-up:
it builds the named systems and draws every seeded input.  `run(r, inp)`
issues the operations one after another through `r.op(name, check, fn,
*args)`, which times `fn(*args)` alone and then checks its answer with
`check`, a function built from `oracle` or from stated mathematical facts.

Operations tagged `defect=` are inputs on which the library is known to
answer wrongly; their expected answer is the correct one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction as Q

import grrs
from grrs import catalog, classify, cli, finite, serialize, symbolic
from grrs.linalg import BilinearSpace, Lattice
from grrs.symbolic import CosetSet, SymbolicRootSystem

import oracle as O


# ---------------------------------------------------------------------------
# Shared helpers


def rat(x) -> str:
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def finite_doc(gram, roots) -> str:
    """A `finite` document written from the README format, not by `serialize`."""
    payload = {
        "dim": len(gram),
        "gram": [[rat(x) for x in row] for row in gram],
        "roots": [[rat(x) for x in r] for r in roots],
    }
    return json.dumps({"schemaVersion": 1, "type": "finite", "payload": payload})


def parse_vec(xs):
    return tuple(Q(x) for x in xs)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(*argv):
    """`grrs <argv>` in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def read(path):
    with open(path) as fh:
        return fh.read()


def expect_exit(code_wanted):
    def check(res):
        code, out = res
        return code == code_wanted, f"exit {code} out {sha(out)}"
    return check


def roundtrip(payload):
    text = serialize.dumps(payload)
    return text, serialize.dumps(serialize.loads(text))


def check_roundtrip(res):
    text, again = res
    return text == again, f"{len(text)} bytes {sha(text)}"


def verdict_is(expected):
    def check(report):
        v = report.verdict()
        return v == expected, v
    return check


# ---------------------------------------------------------------------------
# finite-catalog

GRRS_FINITE = [
    "A4", "B4", "C4", "D5", "G2", "F4", "E6", "A(3,2)", "A(3,3)",
    "B(2,2)", "C(3)", "D(2,2)", "D(2,1;a=1/2)", "G(3)", "F(4)",
]
WEAK_FINITE = ["C(1,1)", "C(2,1)", "BC(1,1)", "BC(2,1)"]
# `grrs check/iso/orbits` repeat the library calls above; through the CLI
# they run on the systems with fewer roots than this, so that three passes
# of the workload fit into one run.
CLI_MAX_ROOTS = 40


def isometric_image(system, rng):
    """Signed coordinate permutation, Gram form rescaled by a random rational.

    Returns (gram, roots) of a system isometric to `system` up to scale.  The
    scale is a ratio of two distinct small primes, so that every seed pays
    for non-integral Fraction arithmetic alike.
    """
    d = system.space.dim
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    scale = Q(*rng.sample((2, 3, 5, 7), 2))
    G = system.space.gram
    gram = [[Q(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            gram[perm[i]][perm[j]] = scale * signs[i] * signs[j] * G[i][j]
    roots = []
    for r in system.roots:
        v = [Q(0)] * d
        for i, x in enumerate(r):
            v[perm[i]] = signs[i] * x
        roots.append(tuple(v))
    return gram, roots


def subsystem_seeds(system, gram, weak, rng):
    """A random root and, if one exists, a random non-orthogonal partner.

    Weak-only systems get non-isotropic seeds, where reflections are defined.
    """
    pool = [r for r in system.roots if not weak or O.form(gram, r, r) != 0]
    a = rng.choice(pool)
    partners = [
        b for b in pool if b not in (a, O.vneg(a)) and O.form(gram, a, b) != 0
    ]
    return [a, rng.choice(partners)] if partners else [a]


def prepare_finite(seed, tmp):
    rng = random.Random(f"finite-catalog/{seed}")
    cases = []
    for i, name in enumerate(GRRS_FINITE + WEAK_FINITE):
        s = catalog.build(name)
        weak = name in WEAK_FINITE
        gram, roots = isometric_image(s, rng)
        img = finite.FiniteRootSystem(BilinearSpace(gram), roots)
        path, img_path = os.path.join(tmp, f"{i}.json"), os.path.join(tmp, f"{i}-image.json")
        write(img_path, finite_doc(gram, roots))
        cases.append({
            "name": name, "system": s, "image": img, "weak": weak,
            "seeds": subsystem_seeds(s, s.space.gram, weak, rng),
            "path": path, "image_path": img_path,
        })
    # A rank-2 set that the isomorphism search misses against its 90 degree
    # rotation, although the rotation is an isometry of the standard form.
    base = [(1, 0), (2, 2), (3, 5), (5, -3)]
    base += [(-x, -y) for x, y in base]
    plane = grrs.standard_space(2)
    rank2 = finite.FiniteRootSystem(plane, base)
    rotated = finite.FiniteRootSystem(plane, [(-y, x) for x, y in base])
    # Malformed documents: `grrs check` must answer "bad input" (exit 2).
    malformed = {
        "no-payload": {"schemaVersion": 1, "type": "finite"},
        "zero-denominator": {
            "schemaVersion": 1, "type": "finite",
            "payload": {"dim": 1, "gram": [["1/0"]], "roots": [["1"], ["-1"]]},
        },
        "top-level-list": [{"schemaVersion": 1, "type": "finite"}],
    }
    bad_paths = {}
    for label, doc in malformed.items():
        bad_paths[label] = os.path.join(tmp, f"malformed-{label}.json")
        write(bad_paths[label], json.dumps(doc))
    return {"cases": cases, "rank2": (rank2, rotated), "malformed": bad_paths}


def check_orbits(system):
    def check(orbits):
        sizes = sorted(len(o) for o in orbits)
        return O.is_partition(orbits, system.roots), f"sizes {sizes}"
    return check


def check_homothety(src, dst):
    def check(h):
        if h is None:
            return False, "no homothety"
        ok = O.homothety_ok(h, src.roots, src.space.gram, dst.roots, dst.space.gram)
        return ok, f"scale {rat(h.scale)}"
    return check


def check_subsystem(system, seeds):
    expected = O.closure(set(system.roots), system.space.gram, seeds)

    def check(sub):
        return set(sub.roots) == expected, f"{len(sub.roots)} roots"
    return check


def check_catalog_file(system, path):
    def check(res):
        code, out = res
        doc = json.loads(read(path))["payload"]
        same = {parse_vec(r) for r in doc["roots"]} == set(system.roots)
        return code == 0 and same, f"exit {code} file {sha(read(path))}"
    return check


def check_orbit_listing(system):
    def check(res):
        code, out = res
        sizes = [int(line.split("size ")[1].split(":")[0]) for line in out.splitlines()]
        return code == 0 and sum(sizes) == len(system.roots), f"exit {code} out {sha(out)}"
    return check


def run_finite(r, inp):
    for c in inp["cases"]:
        name, s, img = c["name"], c["system"], c["image"]
        expected = "WGRS" if c["weak"] else "GRRS"
        orbits = finite.weyl_orbits if c["weak"] else finite.gw_orbits
        group = "weyl" if c["weak"] else "gw"
        r.op(f"check_axioms {name}", verdict_is(expected), finite.check_axioms, s)
        r.op(f"{group}_orbits {name}", check_orbits(s), orbits, s)
        r.op(f"isomorphic_finite {name}", check_homothety(s, img), finite.isomorphic_finite, s, img)
        r.op(f"generate_subsystem {name}", check_subsystem(s, c["seeds"]),
             finite.generate_subsystem, s, c["seeds"])
        r.op(f"serialize {name}", check_roundtrip, roundtrip, s)
        r.op(f"cli catalog {name}", check_catalog_file(s, c["path"]),
             run_cli, "catalog", name, "-o", c["path"])
        if len(s.roots) >= CLI_MAX_ROOTS:
            continue
        r.op(f"cli check {name}", expect_exit(3 if c["weak"] else 0), run_cli, "check", c["path"])
        r.op(f"cli iso {name}", expect_exit(0), run_cli, "iso", c["path"], c["image_path"])
        r.op(f"cli orbits {name}", check_orbit_listing(s),
             run_cli, "orbits", c["path"], "--group", group)
    a, b = inp["rank2"]
    r.op("isomorphic_finite rank2 rotated", check_homothety(a, b),
         finite.isomorphic_finite, a, b, defect="iso-missed")
    r.op("isomorphic_finite rank2 rotated back", check_homothety(b, a),
         finite.isomorphic_finite, b, a, defect="iso-missed")
    for label, path in inp["malformed"].items():
        r.op(f"cli check malformed {label}", expect_exit(2), run_cli, "check", path,
             defect="malformed-exit-5")


# ---------------------------------------------------------------------------
# affine-symbolic

AFFINE_FINITE = ["A2", "B3", "G2", "D4", "F4", "E6", "A(2,1)", "B(1,1)", "C(2,1)", "D(2,1;a=1/2)"]
AFFINE_WEAK = {"C(2,1)"}
# check_symbolic_axioms at k=2 costs 1.7x the k=1 check; on these two it
# would take half a pass, so they are checked at k=1 only.
AFFINE_K1_ONLY = {"F4", "E6"}
CONTAINS_QUERIES = 40


def contains_queries(system, rng):
    """Vectors of the 2-fold affinization: a finite part and a radical part.

    Finite parts are roots, sums of two roots, halves of roots, or zero;
    radical parts are integral or half-integral.
    """
    roots = system.roots
    out = []
    for _ in range(CONTAINS_QUERIES):
        kind = rng.randrange(4)
        a, b = rng.choice(roots), rng.choice(roots)
        fin = {0: a, 1: O.vadd(a, b), 2: O.vscale(Q(1, 2), a), 3: tuple(Q(0) for _ in a)}[kind]
        den = rng.choice((1, 1, 2))
        rad = tuple(Q(rng.randint(-4, 4), den) for _ in range(2))
        out.append(fin + rad)
    return out


def c11_k2_system():
    """C(1,1) over a 2-dimensional radical whose WGR3 verdict is WGRS.

    The families above +-(2,0) are the odd multiples of (1,1), every other
    family is all of Z^2; every difference of roots then falls into a
    full-lattice family, so at least one of beta +- alpha is a root.
    """
    c11 = catalog.build("C(1,1)")
    dim = 4
    gram = [[c11.space.gram[i][j] if i < 2 and j < 2 else 0 for j in range(dim)] for i in range(dim)]
    z2 = Lattice.from_vectors(dim, [(0, 0, 1, 0), (0, 0, 0, 1)])
    odd = CosetSet(z2, Lattice.from_vectors(dim, [(0, 0, 2, 2)]), (0, 0, 0, 0), [(0, 0, 1, 1)])
    full = CosetSet.full_lattice(z2)
    entries = []
    for root in c11.roots:
        fam = odd if abs(root[0]) == 2 and root[1] == 0 else full
        entries.append((tuple(root) + (0, 0), fam))
    return SymbolicRootSystem(BilinearSpace(gram), entries)


def prepare_affine(seed, tmp):
    rng = random.Random(f"affine-symbolic/{seed}")
    cases = []
    for i, name in enumerate(AFFINE_FINITE):
        s = catalog.build(name)
        path = os.path.join(tmp, f"{i}.json")
        write(path, finite_doc(s.space.gram, s.roots))
        cases.append({
            "name": name, "system": s, "path": path, "out": os.path.join(tmp, f"{i}-aff.json"),
            "queries": contains_queries(s, rng),
            "expected": "WGRS" if name in AFFINE_WEAK else "GRRS",
        })
    annx = []
    for n in (1, 1, 1, 2):
        q = rng.randint(2, 5)
        p = rng.choice([p for p in range(1, q) if Q(p, q).denominator == q])
        annx.append((n, p, q))
    return {"cases": cases, "annx": annx, "c11": c11_k2_system()}


def check_affinization(system, k):
    def check(aff):
        ok = aff.kernel_dim == k and len(aff.entries) == len(system.roots)
        return ok, f"dim {aff.space.dim} classes {len(aff.entries)}"
    return check


def check_unit_gaps(table):
    values = {g for _, g in table.entries}
    return values == {1}, f"gaps {sorted(values, key=str)}"


def check_equal(expected_fn):
    def check(out):
        same = out == expected_fn()
        return same, "equal" if same else "differs"
    return check


def check_contains(system, queries):
    roots = set(system.roots)
    d = system.space.dim
    expected = [v[:d] in roots and all(x.denominator == 1 for x in v[d:]) for v in queries]

    def check(answers):
        return answers == expected, f"{sum(answers)} of {len(answers)} members"
    return check


def check_same_file(path, text_fn):
    def check(res):
        code, _ = res
        return code == 0 and read(path) == text_fn(), f"exit {code} file {sha(read(path))}"
    return check


def run_affine(r, inp):
    for c in inp["cases"]:
        name, s = c["name"], c["system"]
        d = s.space.dim
        a1 = r.op(f"affinize1 {name}", check_affinization(s, 1), symbolic.affinize, s, 1)
        a2 = r.op(f"affinize2 {name}", check_affinization(s, 2), symbolic.affinize, s, 2)
        r.op(f"check_symbolic k=1 {name}", verdict_is(c["expected"]), symbolic.check_symbolic_axioms, a1)
        if name not in AFFINE_K1_ONLY:
            r.op(f"check_symbolic k=2 {name}", verdict_is(c["expected"]),
                 symbolic.check_symbolic_axioms, a2)
        r.op(f"gaps k=1 {name}", check_unit_gaps, symbolic.gaps, a1)
        last_delta = tuple(Q(int(j == d + 1)) for j in range(d + 2))
        r.op(f"quotient k=2 {name}", check_equal(lambda: a1), symbolic.quotient, a2, [last_delta])
        r.op(f"contains k=2 {name}", check_contains(s, c["queries"]),
             lambda sys_, qs: [symbolic.contains(sys_, v) for v in qs], a2, c["queries"])
        rt1 = r.op(f"serialize k=1 {name}", check_roundtrip, roundtrip, a1)
        r.op(f"serialize k=2 {name}", check_roundtrip, roundtrip, a2)
        r.op(f"cli affinize {name}", check_same_file(c["out"], lambda: rt1[0]),
             run_cli, "affinize", c["path"], "-n", 1, "-o", c["out"])
    for n, p, q in inp["annx"]:
        label = f"n={n} x={p}/{q}"
        s = r.op(f"a_nn_x {label}", lambda out: (out.kernel_dim == 1, f"classes {len(out.entries)}"),
                 catalog.a_nn_x, n, p, q, 0)
        r.op(f"check_symbolic a_nn_x {label}", verdict_is("GRRS"), symbolic.check_symbolic_axioms, s)
    r.op("check_symbolic C(1,1) k=2 odd families", verdict_is("WGRS"),
         symbolic.check_symbolic_axioms, inp["c11"], defect="wgr3-fallback")


# ---------------------------------------------------------------------------
# classify-f2

F2_TYPES = ["A1", "B3", "C3", "C2", "G2", "F4", "B(1,1)", "C(2,1)", "BC(1,1)", "C(2,2)"]
SINGLE_SUBSET = {"A1", "B3", "C3", "B(1,1)", "C(2,1)", "C(2,2)"}
# k = 4 costs ~0.8 s per canonical form; (type, with a g.S twin)
K4_INSTANCES = [("B3", True), ("A1", False)]
# BC(1,1) is enumerated at k = 1: at k = 2 its 210 identify calls take a
# third of a pass; the same identify-every-instance path runs for C(2,1).
ENUMERATED = [("A1", 3), ("B3", 3), ("C(2,1)", 2), ("BC(1,1)", 1)]


def random_subset(k, rng, ok):
    while True:
        pts = [p for p in range(1 << k) if rng.random() < 0.5]
        if ok(pts):
            return pts


def family_params(t, k, rng):
    proper = lambda pts: 0 < len(pts) < 1 << k
    if t == "A1":
        return {"S": random_subset(k, rng, lambda pts: O.spans_affinely(pts, k))}
    if t in ("B3", "C3", "B(1,1)"):
        return {"S": random_subset(k, rng, bool)}
    if t in ("C(2,1)", "C(2,2)"):
        return {"S": random_subset(k, rng, proper)}
    if t == "BC(1,1)":
        return {"S": random_subset(k, rng, proper), "Sp": random_subset(k, rng, bool)}
    if t in ("G2", "F4"):
        return {"s": rng.randint(0, k)}
    # C2: S1 + S2 inside S1 makes S1 a union of cosets of the span H of S2
    s2 = [0] + [p for p in range(1, 1 << k) if rng.random() < 0.25]
    span = {0}
    for p in s2:
        span |= {h ^ p for h in span}
    while True:
        s1 = sorted({c ^ h for c in range(1 << k) if rng.random() < 0.6 for h in span})
        if O.spans_affinely(s1, k):
            return {"S1": s1, "S2": s2}


def random_gl(k, rng):
    """A random element of GL(k, 2) as a list of transvections x_i += x_j.

    Applied to integer coordinates, the same list is a unimodular change of
    radical coordinates (`radical_change`)."""
    ops = [(i, j) for i in range(k) for j in range(k) if i != j]
    return [rng.choice(ops) for _ in range(4 * k)] if ops else []


def gl_apply(ops, p):
    for i, j in ops:
        p ^= ((p >> j) & 1) << i
    return p


def transformed_params(t, params, ops, shift):
    """Parameters of g.S for g = (linear part `ops`, translation `shift`)."""
    g = lambda pts: sorted(gl_apply(ops, p) ^ shift for p in pts)
    lin = lambda pts: sorted(gl_apply(ops, p) for p in pts)
    if t == "C2":
        return {"S1": g(params["S1"]), "S2": lin(params["S2"])}
    return {"S": g(params["S"])}


def radical_change(system, ops, k):
    """The same root system after a unimodular change of radical coordinates.

    The change x_i += x_j on the last k coordinates is an isometry, since the
    form vanishes on the radical, so the result is isomorphic by construction.
    """
    d = system.space.dim
    d0 = d - k

    def f(v):
        v = list(v)
        for i, j in ops:
            v[d0 + i] += v[d0 + j]
        return tuple(v)

    entries = []
    for e in system.entries:
        fam = e.family
        entries.append((f(e.lift), CosetSet(
            Lattice.from_vectors(d, [f(b) for b in fam.ambient.basis]),
            Lattice.from_vectors(d, [f(b) for b in fam.modulus.basis]),
            f(fam.translate), [f(x) for x in fam.reps],
        )))
    return SymbolicRootSystem(system.space, entries)


def prepare_classify(seed, tmp):
    rng = random.Random(f"classify-f2/{seed}")
    instances = []
    for k in (1, 2, 3):
        for t in F2_TYPES * 2:
            instances.append((t, k, family_params(t, k, rng), random_gl(k, rng), rng.randrange(1 << k)))
    for t, with_g in K4_INSTANCES:
        g = (random_gl(4, rng), rng.randrange(16)) if with_g else None
        instances.append((t, 4, family_params(t, 4, rng)) + (g or (None, None)))
    q = rng.choice((3, 4, 5))
    p = rng.choice([p for p in range(1, q) if Q(p, q).denominator == q])
    annx = [(2, p, q), (2, q - p, q)]
    q = rng.choice((3, 4, 5, 7))
    p = rng.choice([p for p in range(1, q) if Q(p, q).denominator == q])
    q2 = rng.choice([x for x in (3, 4, 5, 7) if x != q])
    cli_annx = [(p, q), (q - p, q), (1, q2)]
    t, k = "B3", 2
    params = family_params(t, k, rng)
    other = transformed_params(t, params, random_gl(k, rng), rng.randrange(1 << k))
    return {
        "instances": instances, "annx": annx, "cli_annx": cli_annx,
        "cli_family": (params["S"], other["S"]), "tmp": tmp,
    }


def f2_descriptor(t, k, params):
    """The canonical data `identify` must return, where it is an orbit minimum
    that can be computed here: single subsets (up to complement for C(m,m)),
    the C2 pair, and the scale index s of G2/F4."""
    if t in ("G2", "F4"):
        return ("s", params["s"])
    if k > 3:
        return None
    if t in SINGLE_SUBSET:
        moves = O.subset_moves(k, complement=(t == "C(2,2)"))
        return ("S", min(O.orbit(O.mask_of(params["S"]), moves)))
    if t == "C2":
        pair = (O.mask_of(params["S1"]), O.mask_of(params["S2"]))
        return ("S1S2",) + min(O.orbit(pair, O.pair_moves(k, True, False)))
    return None


def identify_family(t, k, params):
    desc = classify.identify(catalog.family(t, k, **params))
    return desc, classify.kac_moody_name(desc) if k == 1 else None


def identify_changed(t, k, params, ops):
    return classify.identify(radical_change(catalog.family(t, k, **params), ops, k)), None


def enumerated_classes(t, k):
    """Number of classes, counted here as orbits of the F_2^k data."""
    full = 1 << (1 << k)
    if t == "A1":
        states = [m for m in range(1, full) if O.spans_affinely(O.points_of(m, k), k)]
        return O.count_orbits(states, O.subset_moves(k))
    if t == "C(2,1)":
        return O.count_orbits(range(1, full - 1), O.subset_moves(k))
    if t == "B3":
        n = O.count_orbits(range(1, full), O.subset_moves(k))
        if k == 3 and n != 9:
            raise RuntimeError("oracle disagrees with the 9 affine classes of nonempty subsets of F_2^3")
        return n
    # BC(1,1): S proper nonempty, Sp nonempty; shared linear maps,
    # translations and complement on S
    states = [(a, b) for a in range(1, full - 1) for b in range(1, full)]
    return O.count_orbits(states, O.pair_moves(k, False, True))


def run_classify(r, inp):
    found = {}

    def check_instance(t, k, params, first=None, record=True):
        expected = f2_descriptor(t, k, params)

        def check(res):
            desc, name = res
            ok = desc.cl == t and desc.k == k
            if expected is not None:
                ok = ok and desc.data == expected
            if first is not None:
                ok = ok and desc == first[0]
            if name is not None:
                ok = ok and name.endswith(("^(1)", "^(2)", "^(3)", "^(4)"))
            if record:
                found.setdefault((t, k), set()).add(desc)
            return ok, f"{desc.data} {name}"
        return check

    for t, k, params, ops, shift in inp["instances"]:
        label = f"{t} k={k}"
        first = r.op(f"identify family {label}", check_instance(t, k, params),
                     identify_family, t, k, params)
        if ops is None:
            continue
        if t in SINGLE_SUBSET or t == "C2":
            moved = transformed_params(t, params, ops, shift)
            r.op(f"identify family {label} g.S", check_instance(t, k, moved, first),
                 identify_family, t, k, moved)
        elif t == "BC(1,1)":
            r.op(f"identify family {label} radical change", check_instance(t, k, None, first, record=False),
                 identify_changed, t, k, params, ops, defect="identify-bc-presentation")
    (n, p, q), (_, p2, _) = inp["annx"]
    annx = lambda *a: classify.identify(catalog.a_nn_x(*a))
    first = r.op(f"identify a_nn_x n={n} x={p}/{q}",
                 lambda d: (d.data[:2] == ("Annx", q), str(d.data)), annx, n, p, q, 0)
    r.op(f"identify a_nn_x n={n} x={p2}/{q}",
         lambda d: (d == first, str(d.data)), annx, n, p2, q, 0)

    tmp = inp["tmp"]
    paths = []
    for i, (p, q) in enumerate(inp["cli_annx"]):
        paths.append(os.path.join(tmp, f"annx-{i}.json"))
        r.op(f"cli catalog Ann_x x={p}/{q}", expect_exit(0),
             run_cli, "catalog", f"Ann_x(n=1,p={p},q={q})", "-o", paths[-1])
    r.op("cli iso Ann_x x vs -x", expect_exit(0), run_cli, "iso", paths[0], paths[1])
    r.op("cli iso Ann_x other denominator", expect_exit(1), run_cli, "iso", paths[0], paths[2])
    fam_paths = []
    for i, S in enumerate(inp["cli_family"]):
        fam_paths.append(os.path.join(tmp, f"family-{i}.json"))
        spec = "{" + ",".join(str(p) for p in S) + "}"
        r.op(f"cli catalog family B3 #{i}", expect_exit(0),
             run_cli, "catalog", f"family(B3,k=2,S={spec})", "-o", fam_paths[-1])
    r.op("cli iso family B3 S vs g.S", expect_exit(0), run_cli, "iso", *fam_paths)

    for t, k in ENUMERATED:
        def check(descs, t=t, k=k):
            want = enumerated_classes(t, k)
            seen = found.get((t, k), set())
            ok = len(descs) == want == len(set(descs)) and seen <= set(descs)
            return ok, f"{len(descs)} classes, {len(seen)} instances listed"
        r.op(f"enumerate_classes {t} k={k}", check, classify.enumerate_classes, t, k)


WORKLOADS = {
    "finite-catalog": (prepare_finite, run_finite),
    "affine-symbolic": (prepare_affine, run_affine),
    "classify-f2": (prepare_classify, run_classify),
}
