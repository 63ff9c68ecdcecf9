"""The integer JSON codec against the `Fraction` codec it replaced.

`fraction_reference.dumps` and `loads` are the writer and reader that
formatted the `Fraction` views coordinate by coordinate and entered the
public constructors.  On every document below, both codecs give the same
bytes, equal systems, or the same error type and message:

- seeded finite systems over rational Gram matrices, with isotropic,
  duplicated, zero and non-spanning roots;
- seeded symbolic systems: `affinize` at k = 1 and 2, `quotient`,
  `a_nn_x`, and `family` at k = 1..3 with several coset families;
- the documents of both kinds spelled otherwise: unreduced fractions, JSON
  numbers, shuffled and repeated roots;
- every malformed and inconsistent document of `test_serialize_cli`, and
  random edits of the documents above.
"""

import copy
import json
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grrs import serialize
from grrs.catalog import a_nn_x, build, family
from grrs.errors import BadParameters
from grrs.finite import FiniteRootSystem
from grrs.linalg import BilinearSpace, unit_vector, vadd, vscale
from grrs.symbolic import CosetSet, SymbolicRootSystem, affinize, quotient

import fraction_reference as reference
from support import valid_family_params
from test_serialize_cli import INCONSISTENT, MALFORMED, json_values

PARITY = settings(max_examples=60, deadline=None, derandomize=True)


def same_dumps(payload) -> str:
    text = serialize.dumps(payload)
    assert text == reference.dumps(payload)
    return text


def same_loads(text: str):
    """What both readers make of the text: equal payloads written to equal
    bytes, or the same error."""
    try:
        expected = reference.loads(text)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            serialize.loads(text)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return None
    loaded = serialize.loads(text)
    assert loaded == expected
    assert serialize.dumps(loaded) == reference.dumps(expected)
    return loaded


def _families(rng):
    """`family` systems at k = 1..3, each with several coset families."""
    out = []
    for k in (1, 2, 3):
        n = 1 << k
        for cl in ("B3", "C(2,1)", "BC(1,1)", "C2", "BC1"):
            for _ in range(2):
                params = {"B3": {"S": rng.sample(range(n), rng.randint(1, n))},
                          "C(2,1)": {"S": rng.sample(range(n), rng.randint(1, n - 1))},
                          "BC(1,1)": {"S": rng.sample(range(n), rng.randint(1, n - 1)),
                                      "Sp": rng.sample(range(n), rng.randint(1, n))}}.get(cl)
                found = valid_family_params(cl, k, rng, 1) if params is None else [params]
                try:
                    out += [family(cl, k, **p) for p in found]
                except BadParameters:
                    pass
        out.append(family("G2", k, s=rng.randint(0, k)))
    return out


def _symbolic_systems():
    rng = random.Random("codec/symbolic")
    systems = [affinize(build(name), k) for name in ("A1", "B2", "G2", "C(2,1)", "A(1,1)",
                                                    "BC(1,1)", "D(2,1;a=1/2)") for k in (1, 2)]
    g2 = affinize(build("G2"), 2)
    dim = g2.space.dim
    third = vadd(unit_vector(dim, dim - 2), vscale(Q(1, 3), unit_vector(dim, dim - 1)))
    systems += [quotient(g2, [unit_vector(dim, dim - 1)]), quotient(g2, [third])]
    systems += [a_nn_x(1, 1, 3, 0), a_nn_x(2, 1, 3, 1), a_nn_x(1, 2, 5, 1), a_nn_x(3, 1, 2, 0)]
    # two cosets of 3L above every class, and a shifted family
    a1 = affinize(build("A1"), 1)
    two = CosetSet(a1.L, a1.L.scaled(3), (0, 0), [(0, 0), a1.L.basis[0]])
    systems.append(SymbolicRootSystem(a1.space, [(e.lift, two) for e in a1.entries]))
    half = CosetSet(a1.L, a1.L.scaled(2), (0, Q(1, 2)), [(0, 0)])
    systems.append(SymbolicRootSystem(a1.space, [(e.lift, half.shift((0, Q(3, 2))))
                                                 for e in a1.entries]))
    # a translate over a finer denominator than L's, above two cosets of 3L
    halves = CosetSet(a1.L, a1.L.scaled(3), (0, Q(1, 2)), [(0, 0), a1.L.basis[0]])
    systems.append(SymbolicRootSystem(a1.space, [(e.lift, halves) for e in a1.entries]))
    return systems + _families(rng)


SYMBOLIC = _symbolic_systems()
FINITE = [build(name) for name in ("A2", "B3", "G2", "BC2", "C(1,1)", "A(1,1)", "B(1,2)",
                                   "D(2,1;a=1/2)", "G(3)")]
rationals = st.builds(Q, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def finite_systems(draw):
    """A rational Gram matrix, some diagonal entries zero so that unit
    vectors are isotropic, and a few roots, some repeated."""
    dim = draw(st.integers(1, 4))
    gram = [[Q(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = draw(rationals) if i != j or draw(st.booleans()) else Q(0)
    vectors = st.tuples(*[rationals] * dim) | st.sampled_from(
        [unit_vector(dim, i) for i in range(dim)])
    roots = draw(st.lists(vectors, max_size=7))
    roots += [r for r in roots if draw(st.booleans())] + [
        tuple(-x for x in r) for r in roots if draw(st.booleans())]
    return FiniteRootSystem(BilinearSpace(gram), roots)


def _respelled(node, draw):
    """The document with each coordinate spelled another way at random: as
    it is, unreduced, or as a JSON number."""
    if isinstance(node, dict):
        return {key: _respelled(value, draw) for key, value in node.items()}
    if isinstance(node, list):
        return [_respelled(value, draw) for value in node]
    if not isinstance(node, str) or not node.lstrip("-").replace("/", "").isdigit():
        return node
    q, f = Q(node), draw(st.integers(1, 3))
    return draw(st.sampled_from(
        [node, f"{f * q.numerator}/{f * q.denominator}"]
        + ([q.numerator] if q.denominator == 1 else [])
        + ([float(q)] if q.denominator in (1, 2, 4) else [])))


@PARITY
@given(finite_systems(), st.data())
def test_finite_documents(system, data):
    text = same_dumps(system)
    assert same_loads(text) == system
    doc = json.loads(text)
    roots = doc["payload"]["roots"]
    roots += data.draw(st.lists(st.sampled_from(roots), max_size=3)) if roots else []
    data.draw(st.randoms()).shuffle(roots)
    same_loads(json.dumps(_respelled(doc, data.draw)))


@pytest.mark.parametrize("index", range(len(FINITE)))
def test_catalog_documents(index):
    assert same_loads(same_dumps(FINITE[index])) == FINITE[index]


@pytest.mark.parametrize("index", range(len(SYMBOLIC)))
def test_symbolic_documents(index):
    system = SYMBOLIC[index]
    assert same_loads(same_dumps(system)) == system


@PARITY
@given(st.sampled_from(SYMBOLIC), st.data())
def test_respelled_symbolic_documents(system, data):
    doc = _respelled(serialize.document_to_dict(system), data.draw)
    data.draw(st.randoms()).shuffle(doc["payload"]["families"])
    assert same_loads(json.dumps(doc)) == system


@pytest.mark.parametrize("label", sorted(MALFORMED))
def test_malformed_documents(label):
    assert same_loads(json.dumps(MALFORMED[label])) is None


@pytest.mark.parametrize("label", sorted(INCONSISTENT))
def test_inconsistent_documents(label):
    payload, at, value, _ = INCONSISTENT[label]
    doc = serialize.document_to_dict(payload)
    parent = doc["payload"]
    for key in at[:-1]:
        parent = parent[key]
    parent[at[-1]] = value
    assert same_loads(json.dumps(doc)) is None


@pytest.mark.parametrize("grow", [-1, 1])
@pytest.mark.parametrize("at", [("roots", 0), ("gram", 1), ("families", 1, "root"),
                                ("families", 0, "translate"), ("families", 1, "reps", 0),
                                ("families", 0, "latticeBasis", 0),
                                ("families", 1, "modulusBasis", 0)])
def test_rows_of_wrong_length(at, grow):
    """One row of a document made a coordinate shorter or longer."""
    for payload in FINITE[:2] + SYMBOLIC[:4]:
        doc = serialize.document_to_dict(payload)
        row = doc["payload"]
        try:
            for key in at:
                row = row[key]
        except (IndexError, KeyError):
            continue
        if row:
            row[len(row) - 1:] = row[-1:] * (1 + grow)
            same_loads(json.dumps(doc))


def _nodes(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


EDITED = [serialize.document_to_dict(p) for p in FINITE[:3] + SYMBOLIC[::6]]


@PARITY
@given(st.sampled_from(EDITED), st.data())
def test_edited_documents(doc, data):
    """Each edit replaces or deletes one node of a valid document."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_nodes(doc))[1:]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            parent[path[-1]] = data.draw(json_values)
        else:
            del parent[path[-1]]
    same_loads(json.dumps(doc))
