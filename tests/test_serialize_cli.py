import copy
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grrs
from grrs import serialize
from grrs.catalog import a_nn_x, build, family
from grrs.classify import ClassDescriptor, enumerate_classes
from grrs.cli import build_any, main
from grrs.errors import BadParameters, GrrsError
from grrs.finite import check_axioms
from grrs.symbolic import CosetSet, SymbolicRootSystem, affinize, check_symbolic_axioms


FINITE_NAMES = [
    "A1", "A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4", "BC1", "BC2",
    "A(1,0)", "A(2,1)", "A(1,1)", "A(2,2)", "B(1,1)", "B(1,2)", "C(2)",
    "D(2,2)", "D(2,1;a=1/2)", "G(3)", "F(4)", "C(1,1)", "C(2,1)", "BC(1,1)",
]


def random_documents(seed, count):
    rng = random.Random(seed)
    docs = []
    while len(docs) < count:
        kind = rng.randrange(5)
        if kind == 0:
            docs.append(build(rng.choice(FINITE_NAMES)))
        elif kind == 1:
            docs.append(affinize(build(rng.choice(FINITE_NAMES)), rng.randint(1, 2)))
        elif kind == 2:
            q = rng.choice([2, 3, 4, 5])
            p = rng.choice([x for x in range(1, q) if __import__("math").gcd(x, q) == 1])
            docs.append(a_nn_x(rng.randint(1, 2), p, q, rng.randint(0, 1)))
        elif kind == 3:
            docs.append(check_axioms(build(rng.choice(FINITE_NAMES))))
        else:
            docs.append(enumerate_classes(rng.choice(["B3", "C3", "G2", "F4", "A1", "A3"]), rng.randint(1, 2)))
    return docs


def test_round_trip_two_hundred_documents():
    for payload in random_documents(20260810, 200):
        text = serialize.dumps(payload)
        back = serialize.loads(text)
        assert serialize.dumps(back) == text
        if not isinstance(payload, list):
            assert back == payload
        else:
            assert back == payload


def test_symbolic_round_trip_preserves_semantics():
    s = a_nn_x(1, 1, 3, 0)
    back = serialize.loads(serialize.dumps(s))
    assert back == s
    assert check_symbolic_axioms(back).is_grrs


def test_rational_string_format():
    from grrs.linalg import format_rational
    from fractions import Fraction as Q

    assert format_rational(Q(3)) == "3"
    assert format_rational(Q(-1, 2)) == "-1/2"


class TestCli:
    @pytest.fixture()
    def tmpfiles(self, tmp_path):
        paths = {}
        for name, fname in (("B2", "b2.json"), ("C(1,1)", "c11.json")):
            p = tmp_path / fname
            assert main(["catalog", name, "-o", str(p)]) == 0
            paths[name] = str(p)
        return tmp_path, paths

    def test_catalog_and_check_exit_codes(self, tmpfiles, capsys):
        tmp_path, paths = tmpfiles
        assert main(["check", paths["B2"]]) == 0
        assert main(["check", paths["C(1,1)"]]) == 3
        capsys.readouterr()
        # --json writes the report document; the exit code follows the verdict
        for name, code in (("B2", 0), ("C(1,1)", 3)):
            assert main(["check", paths[name], "--json"]) == code
            assert serialize.loads(capsys.readouterr().out) == check_axioms(build(name))

    def test_check_symbolic_document_exit_codes(self, tmp_path, capsys):
        # an affinized B2 is a GRRS and an affinized C(2,1) a WGRS only
        for name, code in (("B2", 0), ("C(2,1)", 3)):
            path = tmp_path / "affine.json"
            path.write_text(serialize.dumps(affinize(build(name), 1)))
            assert main(["check", str(path)]) == code
            capsys.readouterr()
            assert main(["check", str(path), "--json"]) == code
            report = serialize.loads(capsys.readouterr().out)
            assert report == check_symbolic_axioms(affinize(build(name), 1))

    def test_axiom_failure_exit_code(self, tmp_path, capsys):
        doc = serialize.document_to_dict(build("B2"))
        doc["payload"]["roots"].append(["0", "0"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 4
        capsys.readouterr()
        assert main(["check", str(bad), "--json"]) == 4
        assert not serialize.loads(capsys.readouterr().out).gr0.passed

    def test_bad_parameters_exit_code(self):
        assert main(["catalog", "family(G2,k=2,s=3)"]) == 2
        assert main(["catalog", "Nope99"]) == 2
        assert main(["classify", "--cl", "BC2", "--k", "1"]) == 2
        assert main(["catalog", "family(B3,k=1,S={})"]) == 2
        assert main(["catalog", "family(B(1,1),k=1,S={})"]) == 2
        # no mask of all 2^k points is built: this exited 5 with an OverflowError
        assert main(["catalog", "family(A1,k=99,S={0})"]) == 2
        for name in ("family()", "family(k=1)", "family(B3,S={0})", "family(B3,k=1,S=0)"):
            assert main(["catalog", name]) == 2, name
        assert main(["realroots", "--matrix", "[2]"]) == 2

    def test_unknown_or_repeated_parameters_exit_2(self):
        assert main(["catalog", "Ann_x(n=1,p=1,Q=3)"]) == 2
        assert main(["catalog", "Ann_x(n=1,p=1,p=2,q=3)"]) == 2
        assert main(["catalog", "family(B3,k=1,S={0},S={0,1})"]) == 2
        assert main(["catalog", "family(B3,k=1,S={0},Sp={1})"]) == 2
        with pytest.raises(BadParameters, match="given twice"):
            build_any("family(B3,k=1,S={0},S={0,1})")

    def test_iso_exit_codes(self, tmp_path):
        a13 = tmp_path / "a13.json"
        a23 = tmp_path / "a23.json"
        a12 = tmp_path / "a12.json"
        assert main(["catalog", "Ann_x(n=1,p=1,q=3)", "-o", str(a13)]) == 0
        assert main(["catalog", "Ann_x(n=1,p=2,q=3)", "-o", str(a23)]) == 0
        assert main(["catalog", "Ann_x(n=1,p=1,q=2)", "-o", str(a12)]) == 0
        assert main(["iso", str(a13), str(a23)]) == 0
        assert main(["iso", str(a13), str(a12)]) == 1

    def test_iso_finite(self, tmp_path):
        b2 = tmp_path / "b2.json"
        c2 = tmp_path / "c2.json"
        a2 = tmp_path / "a2.json"
        assert main(["catalog", "B2", "-o", str(b2)]) == 0
        assert main(["catalog", "C2", "-o", str(c2)]) == 0
        assert main(["catalog", "A2", "-o", str(a2)]) == 0
        assert main(["iso", str(b2), str(c2)]) == 0
        assert main(["iso", str(b2), str(a2)]) == 1
        # a finite system against a symbolic one is not isomorphic
        aff = tmp_path / "b2aff.json"
        assert main(["affinize", str(b2), "-o", str(aff)]) == 0
        assert main(["iso", str(b2), str(aff)]) == 1
        assert main(["iso", str(aff), str(b2)]) == 1

    def test_transform_commands(self, tmpfiles, capsys):
        tmp_path, paths = tmpfiles
        aff = tmp_path / "b2aff.json"
        assert main(["affinize", paths["B2"], "-n", "1", "-o", str(aff)]) == 0
        assert main(["gaps", str(aff)]) == 0
        out = capsys.readouterr().out
        assert ": 1" in out
        assert main(["orbits", paths["B2"], "--group", "weyl"]) == 0
        assert main(["subsystem", paths["B2"], "--seeds", "0,1", "-o", str(tmp_path / "sub.json")]) == 0
        q = tmp_path / "quot.json"
        sym = serialize.loads((aff).read_text())
        vecstr = ",".join(["0"] * (sym.space.dim - 1) + ["0"])
        assert main(["quotient", str(aff), "--vector", vecstr, "-o", str(q)]) == 0

    def test_vector_in_error_is_spelled_like_the_output(self, tmp_path, capsys):
        a2, aff = tmp_path / "a2.json", tmp_path / "a2aff.json"
        assert main(["catalog", "A2", "-o", str(a2)]) == 0
        assert main(["affinize", str(a2), "-n", "1", "-o", str(aff)]) == 0
        capsys.readouterr()
        assert main(["quotient", str(aff), "--vector", "1,0,0"]) == 2
        assert capsys.readouterr().err == "error: (1,0,0) is not in the radical\n"

    def test_gap_error_spells_the_class(self, tmp_path, capsys):
        a = affinize(build("A1"), 1)
        # two cosets of 3L above every class: no single progression
        fam = CosetSet(a.L, a.L.scaled(3), (0, 0), [(0, 0), a.L.basis[0]])
        system = SymbolicRootSystem(a.space, [(e.lift, fam) for e in a.entries])
        path = tmp_path / "two_cosets.json"
        path.write_text(serialize.dumps(system))
        capsys.readouterr()
        assert main(["gaps", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: no single arithmetic progression above non-isotropic class (-1,0)\n"
        )

    def test_c2_without_s2_exits_2(self, capsys):
        assert main(["catalog", "family(C2,k=1,S1={0,1},S2={})"]) == 2
        assert capsys.readouterr().err == "error: S2 must be nonempty\n"

    def test_subsystem_seed_out_of_range(self, tmpfiles, capsys):
        _, paths = tmpfiles
        # B2 has 8 roots; a negative index must not count from the end
        for seeds in ("-1", "0,-8", "8"):
            assert main(["subsystem", paths["B2"], "--seeds", seeds]) == 2
            assert "out of range 0..7" in capsys.readouterr().err

    def test_realroots_command(self, tmp_path, capsys):
        out = tmp_path / "a2.json"
        assert main(["realroots", "--matrix", "[[2,-1],[-1,2]]", "--height", "5", "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "truncated: no" in text
        assert main(["realroots", "--matrix", "[[2,-3],[-3,2]]", "--height", "6"]) == 0
        capsys.readouterr()
        assert main(["realroots", "--matrix", "[[2,-1],[-1,2]]", "--json"]) == 0
        tight = capsys.readouterr().out
        # spaces in the matrix are ignored
        assert main(["realroots", "--matrix", " [[2, -1], [ -1 , 2]] ", "--json"]) == 0
        assert capsys.readouterr().out == tight

    def test_classify_json_and_output_write_classes(self, tmp_path, capsys):
        out = tmp_path / "classes.json"
        assert main(["classify", "--cl", "G2", "--k", "1", "--json"]) == 0
        printed = capsys.readouterr().out
        assert main(["classify", "--cl", "G2", "--k", "1", "-o", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed
        assert serialize.loads(printed) == enumerate_classes("G2", 1)

    WRONG_DOCUMENTS = [
        ("check", "a finite or symbolic", "report", []),
        ("check", "a finite or symbolic", "classes", []),
        ("iso", "a finite or symbolic", "report", []),
        ("iso", "a finite or symbolic", "classes", []),
        ("orbits", "a finite", "symbolic", []),
        ("affinize", "a finite or symbolic", "classes", []),
        ("quotient", "a symbolic", "finite", ["--vector", "0,0"]),
        ("gaps", "a symbolic", "finite", []),
        ("subsystem", "a finite", "symbolic", ["--seeds", "0"]),
    ]

    @pytest.mark.parametrize("command, takes, wrong, extra", WRONG_DOCUMENTS,
                             ids=[f"{c[0]}-{c[2]}" for c in WRONG_DOCUMENTS])
    def test_wrong_document_exits_2(self, tmp_path, capsys, command, takes, wrong, extra):
        docs = {
            "finite": build("B2"),
            "symbolic": affinize(build("B2"), 1),
            "report": check_axioms(build("B2")),
            "classes": enumerate_classes("B3", 1),
        }
        path = tmp_path / f"{wrong}.json"
        path.write_text(serialize.dumps(docs[wrong]))
        files = [str(path)] * (2 if command == "iso" else 1)
        capsys.readouterr()
        assert main([command, *files, *extra]) == 2
        assert capsys.readouterr().err == f"error: {command} expects {takes} system document\n"

    def test_classify_table(self, capsys):
        assert main(["classify", "--cl", "B3", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "D_4^(2)" in out and "B_3^(1)" in out

    def test_catalog_family_strings(self):
        sys_ = build_any("family(B3,k=2,S={0,3})")
        assert check_symbolic_axioms(sys_).is_grrs
        sys2 = build_any("Ann_x(n=2,p=1,q=3)")
        assert check_symbolic_axioms(sys2).is_grrs

    def test_deterministic_output(self, tmp_path):
        p1 = tmp_path / "x1.json"
        p2 = tmp_path / "x2.json"
        assert main(["catalog", "family(B3,k=1,S={0,1})", "-o", str(p1)]) == 0
        assert main(["catalog", "family(B3,k=1,S={0,1})", "-o", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()


def _python_m_grrs(*argv):
    src = os.path.dirname(os.path.dirname(grrs.__file__))
    return subprocess.run(
        [sys.executable, "-m", "grrs", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60,
    )


def test_python_m_grrs_runs_the_command(capsysbinary):
    done = _python_m_grrs("catalog", "A2", "--json")
    assert done.returncode == 0
    assert main(["catalog", "A2", "--json"]) == 0
    assert done.stdout == capsysbinary.readouterr().out
    assert _python_m_grrs("classify", "--cl", "A1", "--k", "0").returncode == 2


# Every descriptor kind with its JSON data fields (the format is fixed).
DESCRIPTOR_DATA = [
    (("affinization",), {"type": "affinization"}),
    (("gl",), {"type": "gl"}),
    (("S", 0b101), {"type": "S", "S": "0b101"}),
    (("S1S2", 0b11, 0b1), {"type": "S1S2", "S1": "0b11", "S2": "0b1"}),
    (("SSp", 0b1, 0b10), {"type": "SSp", "S": "0b1", "Sp": "0b10"}),
    (("s", 1), {"type": "s", "s": 1}),
    (("Annx", 3, None), {"type": "Annx", "q": 3, "p": None}),
    (("Annx", 5, 2), {"type": "Annx", "q": 5, "p": 2}),
    (("C11S", 0b1), {"type": "C11S", "S": "0b1"}),
    (("BCn", 1, 0b11, (0, 2)), {"type": "BCn", "n": 1, "S": "0b11", "H2": [0, 2]}),
    (("BCn", 2, 0b11, 0b1, 0b10), {"type": "BCn", "n": 2, "S1": "0b11", "S2": "0b1", "S3": "0b10"}),
]


@pytest.mark.parametrize("data, fields", DESCRIPTOR_DATA)
def test_descriptor_kinds_round_trip(data, fields):
    desc = ClassDescriptor("B3", 2, data)
    as_dict = serialize.descriptor_to_dict(desc)
    assert as_dict == {"cl": "B3", "k": 2, "data": fields, "kacMoody": None}
    assert serialize.descriptor_from_dict(as_dict) == desc
    text = serialize.dumps([desc])
    assert serialize.dumps(serialize.loads(text)) == text


MALFORMED = {
    "no-payload": {"schemaVersion": 1, "type": "finite"},
    "zero-denominator": {
        "schemaVersion": 1, "type": "finite",
        "payload": {"dim": 1, "gram": [["1/0"]], "roots": [["1"], ["-1"]]},
    },
    "top-level-list": [{"schemaVersion": 1, "type": "finite"}],
    "descriptor-without-data": {
        "schemaVersion": 1, "type": "classes",
        "payload": [{"cl": "B3", "k": 1, "kacMoody": None}],
    },
    "descriptor-of-unknown-kind": {
        "schemaVersion": 1, "type": "classes",
        "payload": [{"cl": "B3", "k": 1, "data": {"type": "T", "S": "0b1"}, "kacMoody": None}],
    },
    "bcn-descriptor-without-n": {
        "schemaVersion": 1, "type": "classes",
        "payload": [{"cl": "BC1", "k": 1, "data": {"type": "BCn", "S": "0b1", "H2": [0]}, "kacMoody": None}],
    },
    "descriptor-of-no-type": {
        "schemaVersion": 1, "type": "classes",
        "payload": [{"cl": "E9", "k": 1, "data": {"type": "affinization"}, "kacMoody": "E_9^(1)"}],
    },
}


@pytest.mark.parametrize("label", sorted(MALFORMED))
def test_malformed_document_is_bad_input(label, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(MALFORMED[label]))
    with pytest.raises(GrrsError):
        serialize.loads(path.read_text())
    assert main(["check", str(path)]) == 2
    assert main(["iso", str(path), str(path)]) == 2


# Well-formed documents whose fields disagree: (payload, path in the
# document's payload, value written there, message of the check that catches it)
AFFINE_A1 = affinize(build("A1"), 1)
INCONSISTENT = {
    "finite-dim": (build("B2"), ("dim",), 3, "dim field does not match the gram matrix"),
    "symbolic-dim": (AFFINE_A1, ("dim",), 3, "dim field does not match the gram matrix"),
    "kernel-dim": (AFFINE_A1, ("kernelDim",), 2, "kernelDim field does not match the gram matrix"),
    # Z(0, 1/2) does not lie in the ambient Z(0, 1)
    "modulus-outside-lattice": (AFFINE_A1, ("families", 0, "modulusBasis"), [["0", "1/2"]],
                                "modulus is not a sublattice of the ambient lattice"),
    # (0, 0) and (0, 1/2) lie in two cosets of the ambient Z(0, 1)
    "reps-in-two-cosets": (AFFINE_A1, ("families", 0, "reps"), [["0", "0"], ["0", "1/2"]],
                           "coset members do not lie in a single ambient coset"),
    # vectors of another length than dim = 2, which used to be truncated or
    # to raise IndexError
    "long-rep": (AFFINE_A1, ("families", 0, "reps"), [["0", "0", "7"]],
                 "translate or rep of wrong length"),
    "short-translate": (AFFINE_A1, ("families", 0, "translate"), ["0"],
                        "translate or rep of wrong length"),
    "long-zero-generator": (AFFINE_A1, ("families", 0, "latticeBasis"),
                            [["0", "1"], ["0", "0", "0"]], "generator of wrong length"),
}


@pytest.mark.parametrize("label", sorted(INCONSISTENT))
def test_inconsistent_document_is_bad_input(label, tmp_path, capsys):
    payload, at, value, message = INCONSISTENT[label]
    doc = serialize.document_to_dict(payload)
    parent = doc["payload"]
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = value
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(GrrsError, match=message):
        serialize.loads(path.read_text())
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# JSON numbers that Python reads as infinite floats, which no Fraction holds
INFINITE = ["Infinity", "-Infinity", "1e400"]
INFINITE_AT = {
    "root": (serialize.document_to_dict(build("B2")), ("payload", "roots", 1, 0)),
    "gram": (serialize.document_to_dict(build("B2")), ("payload", "gram", 0, 1)),
    "family": (serialize.document_to_dict(affinize(build("A1"), 1)),
               ("payload", "families", 0, "translate", 0)),
}


@pytest.mark.parametrize("token", INFINITE)
@pytest.mark.parametrize("where", sorted(INFINITE_AT))
def test_infinite_coordinate_is_bad_input(token, where, tmp_path):
    doc, at = copy.deepcopy(INFINITE_AT[where][0]), INFINITE_AT[where][1]
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = "@"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc).replace('"@"', token))
    with pytest.raises(GrrsError):
        serialize.loads(path.read_text())
    for argv in (["check"], ["gaps"], ["orbits"], ["affinize"], ["iso", str(path)]):
        assert main([*argv, str(path)]) == 2


def test_deeply_nested_document_is_bad_input(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["check", str(path)]) == 2


VALID_DOCUMENTS = [
    serialize.document_to_dict(build("B2")),
    serialize.document_to_dict(build("C(1,1)")),
    serialize.document_to_dict(affinize(build("A1"), 1)),
]

json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 3),
        st.sampled_from(["", "0", "1", "-1/2", "1/0", "x", "finite", "symbolic"]),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["payload", "type", "dim", "gram", "roots"]), inner, max_size=3),
    max_leaves=6,
)


def _nodes(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(json_values)
        else:
            del parent[path[-1]]
    return doc


@settings(max_examples=80, deadline=None)
@given(mutated_documents())
def test_mutated_documents_never_give_internal_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main(["check", path]) != 5
        assert main(["iso", path, path]) != 5
