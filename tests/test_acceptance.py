"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with -s to see them);
a pytest failure marks the criterion as failed.
"""

import itertools
import json
import random
from fractions import Fraction as Q

import pytest

from grrs import serialize
from grrs.catalog import a_nn_x, build, family, generating_roots, real_roots_from_matrix
from grrs.classify import canonical_mask, enumerate_classes, identify, kac_moody_name
from grrs.cli import main
from grrs.finite import (
    check_axioms,
    generate_subsystem,
    isomorphic_finite,
    is_irreducible,
    k_value,
    reflect,
)
from grrs.linalg import vadd, vec, vneg, vscale
from grrs.symbolic import affinize, check_symbolic_axioms, from_finite, gaps, quotient

from support import (
    f_invariance_failures, full_coset_failures, is_transitive_grrs_quotient, isotropic_roots,
    reflect_root,
)


GRRS_ENTRIES = (
    [f"A{n}" for n in range(1, 7)]
    + ["B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]
    + [
        f"A({m},{n})"
        for m in range(0, 6)
        for n in range(0, 6)
        if m != n and m + n <= 5
    ]
    + [f"B({m},{n})" for m in (1, 2) for n in (1, 2)]
    + ["C(2)", "C(3)", "D(2,1;a=1/2)", "D(2,2)"]
    + [f"A({n},{n})" for n in (1, 2, 3)]
    + ["BC1", "BC2", "BC3"]
)

WGRS_ONLY_ENTRIES = ["BC(1,1)", "C(1,1)", "C(2,1)"]


def _report(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_01_axiom_regression():
    for name in GRRS_ENTRIES:
        rep = check_axioms(build(name))
        assert rep.is_grrs, (name, rep)
    for name in WGRS_ONLY_ENTRIES:
        rep = check_axioms(build(name))
        assert rep.is_wgrs and not rep.gr3.passed, (name, rep)
        assert rep.gr3.witness is not None
    _report(1, "axiom regression over the catalog")


def test_criterion_02_a11_x_verdicts_and_gaps():
    for p, q in ((1, 2), (1, 3), (2, 5)):
        sys_ = a_nn_x(1, p, q, 0)
        assert check_symbolic_axioms(sys_).is_grrs, (p, q)
    a11 = build("A(1,1)")
    aff = affinize(a11, 1)
    Ivec = from_finite(a11).L.basis[0]
    for x in (0, 1, 2):
        qx = quotient(aff, [vec(list(Ivec) + [x])])
        rep = check_symbolic_axioms(qx)
        assert not rep.gr3.passed and rep.wgr3.passed, x
    s12 = a_nn_x(1, 1, 2, 0)
    noniso = {g for l, g in gaps(s12).entries if s12.space.norm(l) != 0}
    assert noniso == {2}
    s13 = a_nn_x(1, 1, 3, 0)
    noniso = {g for l, g in gaps(s13).entries if s13.space.norm(l) != 0}
    assert noniso == {3}
    _report(2, "A(1,1)_x verdicts and gap tables")


def test_criterion_03_classification_counts_k1():
    assert len(enumerate_classes("A1", 1)) == 1
    for name in ("A2", "A4", "D4", "E6", "E7", "E8", "A(2,1)", "A(1,0)",
                  "C(2)", "D(2,2)", "D(2,1;a=1/2)", "G(3)", "F(4)"):
        descs = enumerate_classes(name, 1)
        assert len(descs) == 1 and descs[0].data == ("affinization",), name
    two_class = {
        "B3": {"B_3^(1)", "D_4^(2)"},
        "C3": {"C_3^(1)", "A_5^(2)"},
        "B(1,1)": {"B(1,1)^(1)", "D(2,1)^(2)"},
        "G2": {"G_2^(1)", "D_4^(3)"},
        "F4": {"F_4^(1)", "E_6^(2)"},
    }
    for name, expected_names in two_class.items():
        descs = enumerate_classes(name, 1)
        assert len(descs) == 2, name
        assert {kac_moody_name(d) for d in descs} == expected_names, name
    bc11 = enumerate_classes("BC(1,1)", 1)
    assert len(bc11) == 3
    assert {kac_moody_name(d) for d in bc11} == {"A(2,1)^(2)", "A(2,2)^(4)"}
    c21 = enumerate_classes("C(2,1)", 1)
    assert len(c21) == 1
    assert kac_moody_name(c21[0]) == "A(3,1)^(2)"
    _report(3, "classification counts at k = 1 with name cross-check")


def test_criterion_04_classification_counts_k2():
    descs = enumerate_classes("G2", 2)
    assert [d.data for d in descs] == [("s", 0), ("s", 1), ("s", 2)]

    # brute-force oracle over all 16 subsets of F_2^2 and all of AGL(2,2)
    def gf2_rank(vs):
        pivots = {}
        for v in vs:
            cur = v
            while cur:
                h = cur.bit_length() - 1
                if h in pivots:
                    cur ^= pivots[h]
                else:
                    pivots[h] = cur
                    break
        return len(pivots)

    tables = []
    for cols in itertools.product(range(4), repeat=2):
        if gf2_rank(cols) == 2:
            tables.append([
                (cols[0] if p & 1 else 0) ^ (cols[1] if p & 2 else 0)
                for p in range(4)
            ])
    reps = set()
    admissible = 0
    for mask in range(1, 16):
        pts = [p for p in range(4) if (mask >> p) & 1]
        base = pts[0]
        if gf2_rank([p ^ base for p in pts]) < 2:
            continue
        admissible += 1
        orbit = set()
        for table in tables:
            img = 0
            for p in pts:
                img |= 1 << table[p]
            for t in range(4):
                shifted = 0
                for p in range(4):
                    if (img >> p) & 1:
                        shifted |= 1 << (p ^ t)
                orbit.add(shifted)
        reps.add(min(orbit))
    assert admissible == 5
    enum = enumerate_classes("A1", 2)
    assert len(enum) == len(reps) == 2
    assert {d.data[1] for d in enum} == reps
    _report(4, "classification counts at k = 2 against the brute-force oracle")


def test_criterion_05_ann_x_isomorphism_rules():
    d13 = identify(a_nn_x(2, 1, 3, 0))
    d23 = identify(a_nn_x(2, 2, 3, 0))
    d12 = identify(a_nn_x(2, 1, 2, 0))
    d14 = identify(a_nn_x(2, 1, 4, 0))
    d34 = identify(a_nn_x(2, 3, 4, 0))
    assert d13 == d23
    assert d14 == d34
    assert len({d12.data, d13.data, d14.data}) == 3
    assert identify(a_nn_x(2, 1, 3, 1)) == identify(a_nn_x(2, 2, 3, 1))
    _report(5, "quotient isomorphism rules for A(n,n)_x")


def test_criterion_06_offset_family_invariance():
    systems = [
        affinize(build("A2"), 1),
        affinize(build("A3"), 2),
        affinize(build("B2"), 1),
        affinize(build("B3"), 1),
        affinize(build("D4"), 1),
        affinize(build("G2"), 1),
        affinize(build("F4"), 1),
        affinize(build("A(1,0)"), 1),
        affinize(build("A(2,1)"), 1),
        affinize(build("B(1,1)"), 2),
        affinize(build("D(2,2)"), 1),
        affinize(build("D(2,1;a=1/2)"), 1),
        affinize(build("G(3)"), 1),
        affinize(build("F(4)"), 1),
        a_nn_x(1, 1, 3, 0),
        a_nn_x(2, 1, 2, 0),
        family("B3", 1, S={0, 1}),
        family("C2", 1, S1={0, 1}, S2={0}),
        family("G2", 2, s=1),
        family("BC(1,1)", 1, S={0}, Sp={1}),
    ]
    assert len(systems) == 20
    for sys_ in systems:
        assert f_invariance_failures(sys_) == [], sys_
    transitive = [s for s in systems if is_transitive_grrs_quotient(s)]
    assert len(transitive) >= 8
    for sys_ in transitive:
        assert full_coset_failures(sys_) == [], sys_
    _report(6, "offset-family identities on twenty systems")


def test_criterion_07_subsystem_generation_oracle():
    cases = {
        "A2": None,
        "B2": None,
        "G2": None,
        "A(1,0)": None,
        "B(1,1)": None,
        "D(2,1;a=1/2)": None,
    }
    for name in cases:
        sys_ = build(name)
        seeds = list(generating_roots(name)) if name in ("A2", "B2", "G2") else None
        if seeds is None:
            # lex-first independent roots; the assertion below checks they
            # generate everything
            seeds = list(sys_.span_basis())
        sub = generate_subsystem(sys_, seeds)
        assert set(sub.roots) == set(sys_.roots), name

        # brute-force oracle: iterate all reflections to a fixpoint
        current = {tuple(s) for s in seeds}
        changed = True
        while changed:
            changed = False
            for a in list(current):
                for b in list(current):
                    img = reflect_root(sys_, a, b)
                    for w in (img, vneg(img)):
                        if w not in current:
                            current.add(w)
                            changed = True
        assert current == set(sub.roots), name
    _report(7, "subsystem generation against the closure oracle")


def test_criterion_08_k_value_bounds():
    scanned = 0
    for name in GRRS_ENTRIES + ["G(3)", "F(4)"]:
        sys_ = build(name)
        if not isotropic_roots(sys_):
            continue
        irr, _ = is_irreducible(sys_)
        if not irr:
            continue
        scanned += 1
        for a in sys_.nonisotropic_roots():
            for g in sys_.roots:
                k = k_value(sys_.space, a, g)
                assert k.denominator == 1
                assert abs(k) <= 4, (name, a, g, k)
                if sys_.is_isotropic(g):
                    assert abs(k) <= 2, (name, a, g, k)
    assert scanned >= 20
    _report(8, "Cartan pairing bounds over isotropic-bearing systems")


def test_criterion_09_matrix_closures():
    for matrix, name in (
        ([[2, -1], [-1, 2]], "A2"),
        ([[2, -2], [-2, 4]], "C2"),
        ([[2, -3], [-3, 6]], "G2"),
    ):
        sys_, truncated = real_roots_from_matrix(matrix, height_bound=12)
        assert not truncated, name
        assert isomorphic_finite(sys_, build(name)) is not None, name

    bound = 10
    sys_, truncated = real_roots_from_matrix([[2, -3], [-3, 2]], height_bound=bound)
    assert truncated
    rep = check_axioms(sys_)
    assert rep.gr0.passed and rep.gr1.passed
    # closure-complete reflections: every in-bound image of a member is a member
    simple = [vec([1, 0]), vec([0, 1])]
    for a in sys_.nonisotropic_roots():
        for b in sys_.roots:
            k = k_value(sys_.space, a, b)
            assert k.denominator == 1
            img = reflect(sys_.space, a, b)
            if sum(abs(x) for x in img) <= bound:
                assert sys_.contains(img)
    for r in sys_.roots:
        assert sys_.contains(vneg(r))
    _report(9, "matrix closures: stabilization, truncation, restricted checks")


def test_criterion_10_round_trips_and_exit_codes(tmp_path):
    from test_serialize_cli import random_documents

    for payload in random_documents(77, 200):
        text = serialize.dumps(payload)
        assert serialize.dumps(serialize.loads(text)) == text

    b2 = tmp_path / "b2.json"
    c11 = tmp_path / "c11.json"
    a13 = tmp_path / "a13.json"
    a23 = tmp_path / "a23.json"
    a12 = tmp_path / "a12.json"
    assert main(["catalog", "B2", "-o", str(b2)]) == 0
    assert main(["catalog", "C(1,1)", "-o", str(c11)]) == 0
    assert main(["catalog", "Ann_x(n=1,p=1,q=3)", "-o", str(a13)]) == 0
    assert main(["catalog", "Ann_x(n=1,p=2,q=3)", "-o", str(a23)]) == 0
    assert main(["catalog", "Ann_x(n=1,p=1,q=2)", "-o", str(a12)]) == 0
    assert main(["check", str(b2)]) == 0
    assert main(["check", str(c11)]) == 3
    doc = serialize.document_to_dict(build("B2"))
    doc["payload"]["roots"].append(["0", "0"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 4
    assert main(["catalog", "family(G2,k=2,s=3)"]) == 2
    assert main(["classify", "--cl", "BC2", "--k", "1"]) == 2
    assert main(["iso", str(a13), str(a23)]) == 0
    assert main(["iso", str(a13), str(a12)]) == 1
    assert main(["classify", "--cl", "B3", "--k", "1"]) == 0
    assert main(["gaps", str(a13)]) == 0
    assert main(["orbits", str(b2), "--group", "gw"]) == 0
    _report(10, "document round-trips and exit-code contracts")
