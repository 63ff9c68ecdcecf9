"""Work counts of symbolic construction and identification, pinned by
monkeypatching.

`from_finite` builds one coset set per distinct offset set, not one per
lift, and `SymbolicRootSystem.__init__` generates L from its integer rows
without `Lattice.from_vectors`.  `identify` searches a homothety once per
distinct minimal quotient, and pulls families back through the root map of
the recognition and the catalog's coordinate table, with no elimination.
`quotient` pushes each family on integer rows, anchored once over the image
of L, which is the L of the quotient, so the constructor keeps the families
it is handed.  `family` writes its families on integer coordinates and the
constructor reads and re-anchors them there, with no `Fraction` vector in
between, through the same integer anchoring as `CosetSet(...)`.  The finite checker and the
orbit partitions take every integral reflection step on packed keys, with
no tuple lookup, and `isomorphic_finite` indexes fingerprints only for a
scale that carries the norms across, reads its scales off integer
pairings and hashes no `Fraction`.  A system's pairings take a dot product
for under half of its pairs of roots.  The finite constructor and the
document reader hash no `Fraction`, the reader parses each spelling once
per document and enters the integer constructors, with no rational
constructor, `Lattice.from_vectors` or `clear_denominators` on `Fraction`
rows, the writer spells integer rows and each distinct family once, and a
family's stabilizer search reduces each candidate shift about once.  Finite
and symbolic lookups hash no `Fraction` after first use, and restricting
E7 to its span computes the pairings of no root of the ambient system.
Every system the library derives enters on the integer rows of the system
it is derived from, and the roots the library holds are named by index:
`identify` finds no catalog root by its vector, recognition reads no
rational `roots` view, and a passing finite check builds none.  The finite
checker, the orbit partitions and `generate_subsystem` read one reflection
row per +- pair, built once, with no per-pair step.  The integer kernels
behind `hnf_int` and `rref` run once per distinct matrix, in memos of a
fixed size.  Only the caller's Gram matrix is cleared, once; every other
space enters on integer rows.  No library code calls `BilinearSpace(...)`,
`FiniteRootSystem(...)`, `SymbolicRootSystem(...)` or `CosetSet(...)`: the
catalog builds its named systems and their spaces on integer rows too.
A change that brings back per-root, per-entry or per-call work fails here,
although every answer would still be right.
"""

import random
import sys
from fractions import Fraction as Q
from functools import cached_property

from grrs import catalog, classify, finite, linalg, serialize, symbolic
from grrs.cli import main
from grrs.catalog import a_nn_x, build, family, real_roots_from_matrix
from grrs.classify import identify, recognize_cl
from grrs.finite import (
    FiniteRootSystem, Homothety, check_axioms, generate_subsystem, gw_orbits, integral_subsystem,
    is_irreducible, isomorphic_finite, weyl_orbits,
)
from grrs.linalg import (
    BilinearSpace, Lattice, hnf_int, rref, solve_in_span, standard_space, unit_vector, vadd,
    vscale,
)
from grrs.symbolic import (
    CosetSet, SymbolicRootSystem, affinize, check_symbolic_axioms, from_finite, quotient,
)

from support import radical_change


def test_from_finite_e6_builds_one_coset_set(monkeypatch):
    e6 = build("E6")
    built, rational = [], []
    _counted(monkeypatch, CosetSet, "_anchor", built)
    _counted(monkeypatch, CosetSet, "__init__", rational)
    system = from_finite(e6)
    assert len(system.entries) == 72
    assert len(built) == 1 and rational == []


def test_constructor_calls_no_from_vectors(monkeypatch):
    depth, calls, built = [0], [], []
    take = SymbolicRootSystem._take
    from_vectors = vars(Lattice)["from_vectors"].__func__

    def flagged(self, *args):
        depth[0] += 1
        try:
            take(self, *args)
        finally:
            depth[0] -= 1
        built.append(self)
        return self

    def counted(cls, *args):
        if depth[0]:
            calls.append(args)
        return from_vectors(cls, *args)

    monkeypatch.setattr(SymbolicRootSystem, "_take", flagged)
    monkeypatch.setattr(Lattice, "from_vectors", classmethod(counted))

    for name in ("E6", "B3", "A(1,1)", "BC(1,1)"):
        affinize(build(name), 2)
    family("C2", 2, S1=[0, 1, 2], S2=[0])
    a_nn_x(2, 1, 3)
    g2 = affinize(build("G2"), 2)
    dim = g2.space.dim
    quotient(g2, [vadd(unit_vector(dim, dim - 2), tuple(Q(1, 3) * x for x in unit_vector(dim, dim - 1)))])
    first = g2.splitting()[0]
    g2.resplit({first: g2.family_of_lift(first).modulus.basis[0]})
    assert len(built) >= 12
    assert calls == []


def test_quotient_pushes_each_family_over_the_image(monkeypatch):
    g2 = affinize(build("G2"), 2)
    a_nn = a_nn_x(2, 1, 3, 1)
    dim = g2.space.dim
    cases = [
        (g2, [vadd(unit_vector(dim, dim - 2), tuple(Q(1, 3) * x for x in unit_vector(dim, dim - 1)))]),
        (g2, [unit_vector(dim, dim - 1)]),
        (a_nn, [unit_vector(a_nn.space.dim, a_nn.space.dim - 1)]),
    ]
    built, sums = [], []
    _counted(monkeypatch, CosetSet, "_anchor", built)
    _counted(monkeypatch, Lattice, "add", sums)
    for system, vectors in cases:
        del built[:]
        q = quotient(system, vectors)
        # one anchoring per distinct family, none repeated by the constructor
        assert len(built) == len({e.family for e in system.entries})
        assert all(e.family.ambient == q.L for e in q.entries)
    assert sums == []


def _counted(monkeypatch, owner, name, calls):
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)


def test_identify_searches_once_per_distinct_quotient(monkeypatch):
    recognize_cl.cache_clear()
    searches = []
    _counted(monkeypatch, classify, "isomorphic_finite", searches)
    systems = [family("B3", 2, S=s) for s in ({0}, {0, 1}, {0, 1, 2}, {1, 2, 3})]
    for system in systems:
        identify(system)
    assert len(searches) == 1
    # a change of radical coordinates leaves the quotient equal
    changed = radical_change(systems[1], [(0, 1)])
    assert changed.cl() == systems[1].cl()
    assert identify(changed) == identify(systems[1])
    assert len(searches) == 1
    identify(family("C2", 2, S1=[0, 1, 2, 3], S2=[0]))
    assert len(searches) > 1


def test_identify_pulls_back_without_elimination(monkeypatch):
    recognize_cl.cache_clear()
    solves, applied = [], []
    for mod in [m for n, m in sys.modules.items() if n.startswith("grrs.")]:
        if getattr(mod, "solve_in_span", None) is solve_in_span:
            _counted(monkeypatch, mod, "solve_in_span", solves)
    _counted(monkeypatch, Homothety, "apply", applied)
    systems = [
        family("B3", 2, S={0, 3}),
        family("C2", 2, S1=[0, 1, 2, 3], S2=[0]),
        family("G2", 2, s=1),
        family("C(2,1)", 2, S={1}),
        family("BC(2,1)", 2, S={0}, Sp={1, 2}),
        family("BC2", 1, S1={0, 1}, S2={0}, T={0, 1}),
        a_nn_x(1, 1, 3),
    ]
    for system in systems:
        identify(system)
    assert solves == [] and applied == []


def test_family_stays_on_integer_coordinates(monkeypatch):
    depth, entered, calls = [0], [], []

    def inside(owner, name):
        fn = getattr(owner, name)

        def flagged(*args, **kwargs):
            depth[0] += 1
            entered.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(owner, name, flagged)

    def counted(name):
        fn = getattr(Lattice, name)

        def wrapper(*args):
            if depth[0]:
                calls.append(name)
            return fn(*args)

        monkeypatch.setattr(Lattice, name, wrapper)

    inside(SymbolicRootSystem, "_take")
    inside(catalog, "_preimage")
    counted("split")
    systems = [
        family("B3", 2, S={0, 3}),
        family("C(2,1)", 2, S={1}),
        family("BC(1,1)", 2, S={0}, Sp={1, 2}),
        family("G2", 2, s=1),
    ]
    for system in systems:
        identify(system)
    assert entered.count("_take") >= 4 and "_preimage" in entered
    assert calls == []


def test_coset_data_has_one_anchoring(monkeypatch):
    """`CosetSet(...)` and the constructor's re-anchoring of a family over
    another ambient run the one integer anchoring: no member is split and
    no modulus is read through `Lattice.coordinates`."""
    calls = []
    _counted(monkeypatch, Lattice, "split", calls)
    _counted(monkeypatch, Lattice, "coordinates", calls)
    rng = random.Random(21)
    built = []
    for den in (2, 3):
        for _ in range(20):
            dim = rng.randint(1, 3)
            ambient = Lattice.from_vectors(
                dim, [[Q(rng.randint(-4, 4), den) for _ in range(dim)] for _ in range(dim)]
            )
            coeffs = lambda: [rng.randint(-3, 3) for _ in range(ambient.rank)]
            modulus = ambient.sublattice([coeffs() for _ in range(rng.randint(0, 2))])
            translate = tuple(Q(rng.randint(-5, 5), den) for _ in range(dim))
            # the members sum_i c_i basis_i of the ambient
            reps = [tuple(Q(x, ambient.scale) for x in linalg._int_combination(
                coeffs(), ambient.rows, dim)) for _ in range(rng.randint(1, 3))]
            built.append((CosetSet(ambient, modulus, translate, reps), translate, reps))
    systems = [
        family("B3", 2, S={0, 3}),
        family("BC(2,1)", 2, S={0}, Sp={1, 2}),
        family("BC2", 1, S1={0, 1}, S2={0}, T={0, 1}),
        family("G2", 2, s=1),
    ]
    assert calls == []
    # the 2L, half-L and "s" families are re-anchored on L
    assert all(e.family.ambient == s.L for s in systems for e in s.entries)
    for fam, translate, reps in built:
        assert all(fam.contains(vadd(translate, r)) for r in reps)


def test_reflection_steps_make_no_tuple_lookup(monkeypatch):
    """Every Cartan number of E6 is integral, so no step of the checker or
    of the orbit partition builds and looks up a vector."""
    e6 = build("E6")
    e6._neg  # the negatives are looked up once, before the probe
    probes = []

    class Probed(dict):
        def get(self, key, default=None):
            probes.append(key)
            return dict.get(self, key, default)

        def __getitem__(self, key):
            probes.append(key)
            return dict.__getitem__(self, key)

        def __contains__(self, key):
            probes.append(key)
            return dict.__contains__(self, key)

    monkeypatch.setattr(e6, "_lookup", Probed(e6._lookup))
    assert check_axioms(e6).is_grrs
    assert len(gw_orbits(e6)) == 1
    assert probes == []


def test_isomorphic_finite_indexes_one_scale(monkeypatch):
    """Of the candidate scales, only the one that carries the norms of the
    first system onto those of the second gets a fingerprint index."""
    built = []
    _counted(monkeypatch, finite, "_fingerprint_index", built)
    for name, c in (("E6", Q(3, 2)), ("G2", Q(-5)), ("F4", Q(2, 7)), ("B(1,1)", Q(3))):
        system = build(name)
        image = FiniteRootSystem(
            BilinearSpace([[c * x for x in row] for row in system.space.gram]),
            [vscale(2, r) for r in system.roots],
        )
        del built[:]
        assert isomorphic_finite(system, image).scale == 4 * c
        assert len(built) == 1


def test_isomorphic_finite_hashes_no_fraction(monkeypatch):
    """The candidate scales are read off the integer diagonal pairings and
    the root map is kept by index, so a homothety search from E6 onto a
    seeded isometric image, readings included, hashes no `Fraction`."""
    e6 = build("E6")
    rng = random.Random("iso/E6")
    perm, sign = rng.sample(range(6), 6), [rng.choice((1, -1)) for _ in range(6)]
    gram = [[Q(3, 2) * sign[i] * sign[j] * e6.space.gram[perm[i]][perm[j]] for j in range(6)]
            for i in range(6)]
    image = FiniteRootSystem(BilinearSpace(gram),
                             [[sign[i] * r[perm[i]] for i in range(6)] for r in e6.roots])
    source = FiniteRootSystem(e6.space, e6.roots)
    hashed = []
    _counted(monkeypatch, Q, "__hash__", hashed)
    h = isomorphic_finite(source, image)
    assert h is not None and h.scale == Q(3, 2)
    assert hashed == []


def test_e6_pairings_take_under_half_the_products(monkeypatch):
    """The pairings take a dot product for the first root of each +- pair,
    on or above the diagonal only: E6 multiplies far fewer than half of the
    72 * 72 * 6 = 31 104 coordinate pairs of every dot product."""
    e6 = catalog._e_series(6)
    assert len(e6._gram_rows) == 72
    products = []
    _counted(monkeypatch, finite, "mul", products)
    assert len(e6._pairings) == 72
    assert len(products) <= 31104 // 2


def test_finite_systems_and_documents_hash_no_fraction(monkeypatch):
    """The constructor deduplicates and sorts integer rows and builds the
    root index on first read, and the reader hands it the rationals it
    parsed, so neither building E6 nor reading its document hashes a
    `Fraction`."""
    text = serialize.dumps(build("E6"))
    hashed = []
    _counted(monkeypatch, Q, "__hash__", hashed)
    e6 = catalog._e_series(6)
    loaded = serialize.loads(text)
    assert hashed == []
    assert loaded == e6 and len(e6.roots) == 72


def test_lookups_hash_no_fraction(monkeypatch):
    """A finite lookup reads its vector as an integer row over the system's
    scale and finds it in the root index; a symbolic lookup finds the class
    in the root index of the quotient.  After first use, none hashes a
    `Fraction`."""
    e6 = build("E6")
    affine = affinize(e6, 1)

    def look():
        for lift in affine.lifts:
            assert affine.contains(lift)
            assert affine.entry_for_cl(lift).lift == lift
            assert affine.family_of_lift(lift) is affine.entry_for_cl(lift).family
        for r in e6.roots:
            assert e6.contains(r) and e6.norm(r) == 2

    look()
    hashed = []
    _counted(monkeypatch, Q, "__hash__", hashed)
    look()
    assert len(affine.lifts) == 72 and hashed == []


def test_restricting_e7_pairs_no_ambient_root(monkeypatch):
    """`restricted_to_span` reads the Gram matrix of the picked roots off
    their Gram rows, so building E7 inside the space of E8 computes the
    pairings of no 126-root system."""
    paired = []
    pairings = FiniteRootSystem._pairings.func

    def counted(self):
        paired.append(len(self))
        return pairings(self)

    probe = cached_property(counted)
    probe.__set_name__(FiniteRootSystem, "_pairings")
    monkeypatch.setattr(FiniteRootSystem, "_pairings", probe)
    e7 = catalog._e_series(7)
    assert (e7.space.dim, len(e7)) == (7, 126) and paired == []
    assert check_axioms(e7).is_grrs and paired == [126]


def test_reader_parses_each_spelling_once(monkeypatch):
    parsed = []
    _counted(monkeypatch, serialize, "parse_rational", parsed)
    for payload in (build("E6"), build("D(2,1;a=1/2)"), affinize(build("G2"), 2)):
        doc = serialize.document_to_dict(payload)["payload"]
        text = serialize.dumps(payload)
        spellings = {x for key in ("gram", "roots") for row in doc.get(key, ()) for x in row}
        for f in doc.get("families", ()):
            spellings.update(f["root"], f["translate"])
            for key in ("reps", "modulusBasis", "latticeBasis"):
                spellings.update(x for row in f[key] for x in row)
        del parsed[:]
        assert serialize.dumps(serialize.loads(text)) == text
        assert sorted(x for (x,) in parsed) == sorted(spellings)


def test_writer_formats_each_family_once(monkeypatch):
    """`symbolic_to_dict` spells integer rows: L's rows once and each distinct
    family's translate, reps and modulus rows once, however many entries
    share it, besides the Gram matrix, the lifts and the quotient's Gram
    matrix and roots."""
    systems = [affinize(build("E6"), 2), family("C(2,1)", 2, S={1}), a_nn_x(2, 1, 3, 1)]
    expected = [serialize.dumps(system) for system in systems]
    spelled = []
    _counted(monkeypatch, serialize, "_spell", spelled)
    for system, text in zip(systems, expected):
        del spelled[:]
        assert serialize.dumps(system) == text
        families = set(system._families)
        assert len(spelled) == 4 + 1 + 3 * len(families) < len(system._families)
        written = [(d, [tuple(r) for r in rows]) for _, d, rows in spelled]
        assert (system.L.scale, list(system.L.rows)) in written
        for fam in families:
            for d, rows in ((fam._t[0], [fam._t[1]]), (fam.ambient.scale, fam._rep_rows()),
                            (fam.modulus.scale, fam.modulus.rows)):
                assert (d, list(map(tuple, rows))) in written


def test_reader_builds_on_the_integer_entries(monkeypatch):
    """`loads` of a symbolic document anchors each distinct family and enters
    the system through `SymbolicRootSystem._take`: no rational constructor
    and no `Lattice.from_vectors`."""
    systems = [affinize(build("E6"), 2), family("BC(1,1)", 2, S={0}, Sp={1, 2}), a_nn_x(2, 1, 3)]
    texts = [serialize.dumps(system) for system in systems]
    entered, anchored, rational = [], [], []
    _counted(monkeypatch, SymbolicRootSystem, "_take", entered)
    _counted(monkeypatch, CosetSet, "_anchor", anchored)
    for owner, name in [(SymbolicRootSystem, "__init__"), (CosetSet, "__init__"),
                        (Lattice, "from_vectors")]:
        _counted(monkeypatch, owner, name, rational)
    for system, text in zip(systems, texts):
        del entered[:], anchored[:]
        assert serialize.loads(text) == system
        assert len(entered) == 1 and len(anchored) == len(set(system._families))
    assert rational == []


def test_finite_reader_clears_no_fraction_rows(monkeypatch):
    """`loads` of a finite document clears each matrix on the integers it
    parsed and enters `FiniteRootSystem._take`: no `clear_denominators` on
    `Fraction` rows, and no rational `roots` view until one is read."""
    payloads = [build("E6"), build("D(2,1;a=1/2)"), build("BC2")]
    texts = [serialize.dumps(payload) for payload in payloads]
    entered, cleared = [], []
    _counted(monkeypatch, FiniteRootSystem, "_take", entered)
    for module in (finite, linalg):
        _counted(monkeypatch, module, "clear_denominators", cleared)
    loaded = [serialize.loads(text) for text in texts]
    assert len(entered) == 3 and cleared == []
    assert all("roots" not in vars(system) for system in loaded)
    assert loaded == payloads and [s.roots for s in loaded] == [p.roots for p in payloads]


def test_family_stabilizer_is_linear_in_its_reps(monkeypatch):
    """A shift that maps the m reps of a family onto themselves has m times
    it in the modulus; one reduction tests that before the reps are walked,
    so the ~S family of C(2,1) at k = 9 (511 cosets) reduces each rep and
    each candidate shift about once, not every pair."""
    reduced = []
    _counted(monkeypatch, symbolic, "hnf_reduce", reduced)
    family("C(2,1)", 9, S={0})
    assert len(reduced) == 1023


def test_identify_reads_no_fraction_view(monkeypatch):
    """`identify` reads the families on their integer rows: no `members()`
    or `reps` view of a family, and no coset representatives or
    coefficients of a `Lattice`, on the path of any classified shape."""
    systems = [
        family("B3", 2, S={0, 3}),
        family("C(2,1)", 2, S={1}),
        family("BC(1,1)", 2, S={0}, Sp={1, 2}),
        family("C2", 2, S1=[0, 1, 2, 3], S2=[0]),
        family("G2", 2, s=1),
    ]
    calls = []
    _counted(monkeypatch, CosetSet, "members", calls)
    _counted(monkeypatch, Lattice, "coset_representatives", calls)
    _counted(monkeypatch, Lattice, "coefficients", calls)
    reps = CosetSet.reps.fget
    monkeypatch.setattr(CosetSet, "reps", property(lambda self: calls.append("reps") or reps(self)))
    kinds = [identify(system).kind() for system in systems]
    assert kinds == ["S", "S", "SSp", "S1S2", "s"]
    assert calls == []


def test_constructor_compares_each_family_object_once(monkeypatch):
    """`family` hands the constructor one coset set per layout entry,
    repeated over its lifts; at F4 with s = k the "L" and "s" entries are
    equal values in distinct objects.  The constructor tells the families
    apart by identity first, so it compares values once per distinct
    object, not once per entry."""
    compared = []
    _counted(monkeypatch, CosetSet, "__eq__", compared)
    system = family("F4", 1, s=1)
    assert len(system.entries) == 48 and len({id(e.family) for e in system.entries}) == 1
    assert len(compared) <= 2


def test_identify_keeps_the_generating_roots(monkeypatch):
    """The pullback finds the generating roots by their cached indices:
    after the first `identify` of a type, no generating set is rebuilt,
    and the public `generating_roots` still returns a fresh list."""
    systems = [family("B3", 2, S=s) for s in ({0}, {0, 1}, {1, 2, 3})]
    identify(systems[0])
    rebuilt = []
    _counted(monkeypatch, catalog, "_gens", rebuilt)
    for system in systems:
        identify(system)
    assert rebuilt == []
    first = catalog.generating_roots("B3")
    assert first == catalog.generating_roots("B3") and first is not catalog.generating_roots("B3")


def test_integer_rows_enter_the_finite_constructor(monkeypatch):
    """`restricted_to_span` and the minimal quotient hand their integer
    rows to `FiniteRootSystem` as they are: no root is turned into a
    `Fraction` vector for the constructor to clear again, and the quotient's
    rational roots are read off its rows only when asked for."""
    ambient = FiniteRootSystem(standard_space(8), [
        r for r in build("E8").roots if r[6] + r[7] == 0])
    affine = affinize(build("F4"), 2)
    converted = []
    _counted(monkeypatch, finite, "clear_denominators", converted)
    _counted(monkeypatch, FiniteRootSystem, "__init__", converted)
    e7, quotient = ambient.restricted_to_span(), affine.cl()
    repr(quotient)
    assert converted == [] and "roots" not in vars(quotient)
    assert (e7.space.dim, len(e7)) == (7, 126) and len(quotient) == 48
    assert e7 == catalog._e_series(7) and quotient == build("F4")
    assert quotient.roots == build("F4").roots


# one name of each kind of `catalog._TYPES`, in its order, with its root count
NAMED = [("G2", 12), ("F4", 48), ("E6", 72), ("B3", 18), ("C3", 18), ("A1", 2), ("A2", 6),
         ("D4", 24), ("BC2", 12), ("B(1,1)", 10), ("C(2,1)", 18), ("BC(1,1)", 12),
         ("A(2,1)", 20), ("A(1,1)_f", 8), ("D(2,1)", 14), ("C(3)", 16), ("G(3)", 28),
         ("F(4)", 36), ("D(2,1;a=1/2)", 14)]
# valid `family` parameters at k = 2 for one name of each classified kind
CLASSIFIED = [("A1", {"S": [0, 1, 2]}), ("B3", {"S": [0]}), ("C3", {"S": [0, 1]}),
              ("C2", {"S1": [0, 1, 2], "S2": [0]}), ("G2", {"s": 1}), ("F4", {"s": 2}),
              ("B(1,1)", {"S": [0]}), ("C(2,1)", {"S": [0]}),
              ("BC(1,1)", {"S": [0], "Sp": [1, 2]}), ("BC1", {"S": [0, 1, 2], "H2": [0]}),
              ("BC2", {"S1": [0], "S2": [0], "T": [0, 1, 2]}), ("BC3", {"S1": [0], "S2": [0]})]


def test_no_library_code_calls_a_rational_constructor(monkeypatch):
    """On fresh catalog and recognition memos, building a name of every
    kind, and `family` and `identify` of every classified type with the
    JSON round trips of their results, call none of `BilinearSpace(...)`,
    `FiniteRootSystem(...)`, `SymbolicRootSystem(...)` and `CosetSet(...)`:
    the library builds on integer rows, and the rational constructors are
    only entry points."""
    for memo in (catalog.TypeKey.system, catalog.orbits, catalog._generating_rows,
                 catalog._frame, recognize_cl):
        memo.cache_clear()
    rational = []
    for owner in (BilinearSpace, FiniteRootSystem, SymbolicRootSystem, CosetSet):
        _counted(monkeypatch, owner, "__init__", rational)
    assert [catalog.type_key(name).kind for name, _ in NAMED] == list(catalog._TYPES)
    for name, count in NAMED:
        system = build(name)
        assert len(system) == count and check_axioms(system).is_wgrs, name
        assert serialize.loads(serialize.dumps(system)) == system
    for cl, params in CLASSIFIED:
        system = family(cl, 2, **params)
        desc = identify(system)
        assert desc.cl == cl and check_symbolic_axioms(system).is_grrs, cl
        assert serialize.loads(serialize.dumps(system)) == system
        assert serialize.loads(serialize.dumps([desc])) == [desc]
    assert rational == []


def test_symbolic_systems_keep_integer_lifts(monkeypatch):
    """`from_finite`, `affinize`, `quotient` and `family` enter the symbolic
    constructor on the integer rows they hold, not through `__init__`, and
    `identify` and a passing `check_symbolic_axioms` read the families in
    the order of those rows: no rational `entries` or `lifts` view, and no
    family's `translate` view, is built on any path of `identify` (pulled
    back, case i and the rational quotient of A(2,2)_x).  `quotient` pushes
    the families on integer rows: no rational `CosetSet(...)`, projection
    of a vector, `Lattice.from_vectors` or `Fraction` combination."""
    rational, pushed = [], []
    _counted(monkeypatch, SymbolicRootSystem, "__init__", rational)
    g2 = affinize(build("G2"), 2)
    dim = g2.space.dim
    identified = [family("B3", 2, S={0, 3}), affinize(build("A2"), 1), a_nn_x(2, 1, 3)]
    for owner, name in [(CosetSet, "__init__"), (Lattice, "from_vectors")]:
        _counted(monkeypatch, owner, name, pushed)
    g2_quotient = quotient(g2, [unit_vector(dim, dim - 1)])
    assert pushed == []
    systems = identified + [g2_quotient, from_finite(build("A(1,1)"))]
    assert rational == []
    for system in identified:
        identify(system)
        assert "entries" not in vars(system) and "lifts" not in vars(system)
    for system in systems:
        assert check_symbolic_axioms(system).is_grrs
        assert "entries" not in vars(system) and "lifts" not in vars(system)
        assert all(fam._translate is None for fam in system._families)


def test_identify_names_catalog_roots_by_index(monkeypatch):
    """The pullback and the reference lattice of C(m,n) and BC(m,n) take
    the catalog roots by index, eps + delta by its row: with warm caches,
    `identify` looks no root up by its vector."""
    systems = [family("C(2,1)", 2, S={0, 1}), family("BC(1,1)", 2, S={0, 1}, Sp={1})]
    before = [identify(system) for system in systems]
    found = []
    _counted(monkeypatch, FiniteRootSystem, "_find", found)
    assert [identify(system) for system in systems] == before
    assert found == []


def test_recognition_reads_no_roots_view():
    """`recognize_cl` counts isotropic roots and `identify` reads the
    quotient on its norms, rows and root index: a recognition miss builds
    no rational `roots` view of the quotient."""
    recognize_cl.cache_clear()
    system = family("B3", 2, S={0, 3})
    assert identify(system).kind() == "S"
    assert "roots" not in vars(system.cl())


def test_derived_systems_enter_on_integer_rows(monkeypatch):
    """Subsystems, components, integral subsystems, real-root closures and
    resplit systems are built through the integer entries, not through the
    rational constructors."""
    b3, a2 = build("B3"), affinize(build("A2"), 1)
    a1a1 = FiniteRootSystem(standard_space(2), [(1, 0), (-1, 0), (0, 2), (0, -2)])
    first = a2.splitting()[0]
    fam = a2.family_of_lift(first)
    rational = []
    _counted(monkeypatch, FiniteRootSystem, "__init__", rational)
    _counted(monkeypatch, SymbolicRootSystem, "__init__", rational)
    assert len(generate_subsystem(b3, b3.roots[:2])) > 0
    assert [len(c) for c in is_irreducible(a1a1)[1]] == [2, 2]
    assert len(integral_subsystem(b3, (Q(1, 2), 0, 0))) > 0
    assert len(real_roots_from_matrix([[2, -1], [-1, 2]])[0]) == 6
    assert a2.resplit({first: vadd(fam.members()[0], fam.modulus.basis[0])}) != a2
    assert rational == []


def test_a_passing_finite_check_builds_no_roots_view():
    """`check_axioms` names a failure by its roots, and reads none when
    every axiom holds."""
    e6 = catalog._e_series(6)
    assert check_axioms(e6).is_grrs
    assert "roots" not in vars(e6)


def test_the_rational_combination_is_gone():
    assert not hasattr(finite, "_combination")


def test_e6_builds_one_reflection_row_per_pair(monkeypatch):
    """The checker, both orbit partitions and `generate_subsystem` share
    the rows: 36 for the 72 roots of E6, the row of -a the row of a."""
    e6 = catalog._e_series(6)
    built = []
    _counted(monkeypatch, FiniteRootSystem, "_reflection_row", built)
    assert check_axioms(e6).is_grrs
    assert len(gw_orbits(e6)) == 1 and len(weyl_orbits(e6)) == 1
    assert len(generate_subsystem(e6, e6.roots[:2])) > 0
    assert len(built) == 36
    for i, m in enumerate(e6._neg):
        assert e6._images(i) is e6._images(m)


def test_passing_check_and_orbits_step_no_pair(monkeypatch):
    """A passing check and the gw orbits read whole rows: no `_image` or
    `_shift` is called for a pair of roots."""
    systems = [catalog._e_series(6), build("B(1,1)"), build("A(2,1)")]
    steps = []
    _counted(monkeypatch, FiniteRootSystem, "_image", steps)
    _counted(monkeypatch, FiniteRootSystem, "_shift", steps)
    for system in systems:
        assert check_axioms(system).is_grrs
        assert sum(map(len, gw_orbits(system))) == len(system)
    assert steps == []


def test_orbits_raise_the_first_error_of_the_walk(tmp_path, capsys):
    """A column with a marker is read again in generator order, so the
    walk raises at the pair the per-pair walk raised at first."""
    system = FiniteRootSystem(BilinearSpace([[1, 0], [0, -1]]),
                              [(1, 1), (-1, -1), (1, 0), (-1, 0)])
    path = tmp_path / "system.json"
    path.write_text(serialize.dumps(system))
    assert main(["orbits", str(path), "--group", "gw"]) == 2
    assert capsys.readouterr().err.strip() == "error: no image of (-1,0) under r_(-1,-1) is a root"


def test_integer_kernels_run_once_per_distinct_matrix(monkeypatch):
    """A symbolic check of E6 with two central directions and a document
    round trip repeat most of their integer matrices; with the memos
    cleared first, the sweeps of `hnf_int` and the Gauss-Jordan of `rref`
    still run once per distinct input."""
    seen = {}
    for name in ("_hnf", "_gauss_jordan"):
        kernel = getattr(linalg, name)
        kernel.cache_clear()
        keys = seen[kernel] = []
        monkeypatch.setattr(linalg, name, lambda key, kernel=kernel, keys=keys:
                            keys.append(key) or kernel(key))
    system = affinize(build("E6"), 2)
    assert check_symbolic_axioms(system).is_grrs
    text = serialize.dumps(system)
    assert serialize.dumps(serialize.loads(text)) == text
    for kernel, keys in seen.items():
        assert kernel.cache_info().misses == len(set(keys)) < len(keys)


def test_integer_kernel_memos_are_bounded():
    """Past its bound a memo drops its least recently used matrix."""
    for kernel, bound, run in [
        (linalg._hnf, linalg.HNF_MEMO_SIZE, lambda n: hnf_int([[n, 1]])),
        (linalg._gauss_jordan, linalg.RREF_MEMO_SIZE, lambda n: rref([(1, n)])),
    ]:
        kernel.cache_clear()
        for n in range(bound + 5):
            run(n)
        info = kernel.cache_info()
        assert (info.misses, info.currsize) == (bound + 5, bound)


def test_only_the_callers_gram_is_cleared(monkeypatch):
    """A space keeps its Gram matrix on integer rows.  On fresh catalog and
    recognition memos, building, checking and identifying an affinization
    reads one Gram matrix, the caller's, once, in the one call of the
    rational constructor; every other space (the padded space, the minimal
    quotient, the spaces of the catalog systems that recognition builds)
    enters on integer rows, and no space builds its `gram` view."""
    for memo in (catalog.TypeKey.system, catalog.orbits, catalog._generating_rows,
                 catalog._frame, recognize_cl):
        memo.cache_clear()
    cleared, made = [], []
    for mod in [m for n, m in sys.modules.items() if n.startswith("grrs.")]:
        if getattr(mod, "clear_denominators", None) is linalg.clear_denominators:
            _counted(monkeypatch, mod, "clear_denominators", cleared)
    _counted(monkeypatch, BilinearSpace, "__init__", made)
    gram = [[Q(1, 2), 0, 0], [0, Q(1, 2), 0], [0, 0, Q(1, 2)]]
    b3 = FiniteRootSystem(BilinearSpace(gram), build("B3").roots)
    system = affinize(b3, 2)
    assert check_symbolic_axioms(system).is_grrs and check_axioms(system.cl()).is_grrs
    assert identify(system).cl == "B3"
    assert [args[1:] for args in made] == [(gram,)]
    assert [args for args in cleared if args[0] is gram] == [(gram,)]
    spaces = (b3.space, system.space, system.cl().space, build("B3").space)
    assert all("gram" not in vars(space) for space in spaces)
