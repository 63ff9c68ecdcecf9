"""Golden digests of canonical JSON.

Each construction below is serialized with `serialize.dumps` and its sha256
compared with a recorded digest, so a change that alters the canonical form
of any of these documents (lifts, families, lattice bases, the cl block)
fails here.  Parsing the text back must give the same bytes.
"""

import hashlib
from fractions import Fraction as Q

import pytest

from grrs import serialize
from grrs.catalog import a_nn_x, build
from grrs.linalg import unit_vector
from grrs.symbolic import affinize, from_finite, quotient

from support import base_change


def _quotient_2_to_1():
    system = affinize(build("B3"), 2)
    dim = system.space.dim
    delta = tuple(a + b for a, b in zip(unit_vector(dim, dim - 2), unit_vector(dim, dim - 1)))
    return quotient(system, [delta])


def _resplit():
    system = affinize(build("G2"), 1)
    first = system.splitting()[0]
    return system.resplit({first: system.family_of_lift(first).modulus.basis[0]})


# rational changes of basis of A(1,1) (det 1 and -1/2): its radical basis
# leaves the lattice of unit vectors
A11_BASE_CHANGES = {
    "A(1,1) base change 1": [[1, Q(1, 2), 0], [0, 1, Q(-2, 3)], [3, 0, 2]],
    "A(1,1) base change 2": [[2, 0, 0], [Q(1, 3), -1, 0], [1, Q(5, 2), Q(1, 4)]],
}

CONSTRUCTIONS = {
    **{
        f"affinize {name} k={k}": (lambda name=name, k=k: affinize(build(name), k))
        for name in ["A2", "B3", "G2", "C(2,1)", "B(1,1)", "D(2,1;a=1/2)"]
        for k in (1, 2)
    },
    "quotient B3 k=2 by delta_1 + delta_2": _quotient_2_to_1,
    "resplit G2 k=1": _resplit,
    "a_nn_x(1, 1, 2)": lambda: a_nn_x(1, 1, 2),
    "a_nn_x(2, 1, 3)": lambda: a_nn_x(2, 1, 3),
    **{f"build {name}": (lambda name=name: build(name)) for name in ["E6", "E7", "E8"]},
    "from_finite A(1,1)": lambda: from_finite(build("A(1,1)")),
    "from_finite A(2,2)": lambda: from_finite(build("A(2,2)")),
    "from_finite A(3,3)": lambda: from_finite(build("A(3,3)")),
    **{
        f"from_finite {label}": (lambda A=A: from_finite(base_change(build("A(1,1)"), A)))
        for label, A in A11_BASE_CHANGES.items()
    },
}

DIGESTS = {
    "a_nn_x(1, 1, 2)": "a1297bcb8608415df3d7faaa4774a01dd7a4f01b4104a4f951f1e888d2f31d19",
    "a_nn_x(2, 1, 3)": "8b3d47a918f36de0b9a95b446b768fce300cf16df67024d341b9e2d9975bd778",
    "affinize A2 k=1": "5c9d5144b016e732bc740a9701274aff45f7cbf8a516ee6f50663756dc1bbd97",
    "affinize A2 k=2": "8352858a029263fe03cf5152ce7785320ef1584a1cf7cd6e4afd3c3919f751e9",
    "affinize B(1,1) k=1": "a4c5bf9a0f997b06f3b75c0c4f49f9ec8b0c1787a17065eec605b4f4681ce49f",
    "affinize B(1,1) k=2": "c1ade3c3a1b9e1ae84d8a96eb013fcdec6d0dc2fbd519119825c3f715cf4d2f0",
    "affinize B3 k=1": "1b723e93db180aeb695318c952abfe12f4717d5b13004e25b9da8f2d4e262fdb",
    "affinize B3 k=2": "c590b7d4aca9c9b5dad37ebbe7341e1388fe4f08c87d94d0298920ebe3ee2379",
    "affinize C(2,1) k=1": "70f1a8c5e5e92959c6bce9d82975ddd5764cb1b4bc706db63b47d98b77117112",
    "affinize C(2,1) k=2": "0267b55722c2a6b54eeb43903245d88ec003c15741ae1d59107c618661578e83",
    "affinize D(2,1;a=1/2) k=1": "cb9607585f812aed75164c951e71eb5f70375cc9450cee88a2c7acaeb22f6eb2",
    "affinize D(2,1;a=1/2) k=2": "ee35cd931ff851f5af30493d4be126277152ccd3f39f10cc4b7d60d73ff3faf7",
    "affinize G2 k=1": "48e0d7ebae10cb0e0855bcd94a78e9ab490dfdb9f25a5ceb501af50002318a7c",
    "affinize G2 k=2": "f2127eaf8344a0deda70977dc1f88fa76b81f336d19b272d02d54f4224d16499",
    "build E6": "4fedb31fd72ddc415e3a9d441b6d82c2d9b6edd972b018d901a369a996cb3666",
    "build E7": "17b6502efc03dabd479e4b52ddf12d42c8f58e6dffc6e2e7ba2ae816ae6bef1e",
    "build E8": "8cf31ae8bfa8bc0d72020c54d48db7cec56b9db22a60a27b95db71d3f00e3689",
    "from_finite A(1,1)": "6688f634a2add9a8e0cfc167cbc1dc415aff529e85615c5753e5dc3a1b7a9a6d",
    "from_finite A(1,1) base change 1": "ccdc6c5b4f77dba76ce744f22cb2ac2cb239f048892a69db4411de8481d379c2",
    "from_finite A(1,1) base change 2": "99035c0f00ecfe62cb1b91f8f0d897707d82ba9b15557103ed1945da7bc40fa7",
    "from_finite A(2,2)": "a47f7327ba28f2baac1acb70289322ed249bd76e25c7abd4d85eb2964ff94f0f",
    "from_finite A(3,3)": "0138d7e2fc0194f9c1d991ee82cad94c73f0f2753f534ad8b0d36e33282c7140",
    "quotient B3 k=2 by delta_1 + delta_2": "1b723e93db180aeb695318c952abfe12f4717d5b13004e25b9da8f2d4e262fdb",
    "resplit G2 k=1": "b372fd111b4b978496e530dd9044fc9b0b656dc0a5ffed56ab05affcc06f440d",
}


@pytest.mark.parametrize("label", sorted(CONSTRUCTIONS))
def test_canonical_json_is_pinned(label):
    text = serialize.dumps(CONSTRUCTIONS[label]())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[label]
    assert serialize.dumps(serialize.loads(text)) == text
