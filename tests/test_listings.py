"""Golden listings and the family -> identify round trip.

`enumerate_classes` is pinned by the sha256 of its canonical JSON for every
classified F_2^k type at k <= 3 and for the cheap types at k = 4, so a
change to the group action or to the order of a listing fails here.  The
round trip builds each listed class with `family` and checks that
`identify` names it again.
"""

import hashlib

import pytest

from grrs import serialize
from grrs.catalog import family
from grrs.classify import F2Subset, enumerate_classes, identify

DIGESTS = {
    ("A1", 1): "e7822903e16debb82e3a073d7983441b488022f81768a4d3699b57c86997b556",
    ("A1", 2): "aea32018dfa769e6a3d584c03d74605b618677e92ab86721c128f0ee062431ae",
    ("A1", 3): "c304ba462e6400301c7add1aeb00b0ae88977a05d426e065465753fb8eeeed44",
    ("B3", 1): "dbd082fca3581c8bd675b6a29e72a724218a7569c50ba1c42c3d7a4fae76d136",
    ("B3", 2): "8a7fbd7a8ebcb0dcf5c98c5bf414663cdadbdf37d9f140c940c2cf0d323ca4b1",
    ("B3", 3): "c67c8746d5059424085724f05f6f7a4fdd5f34eec2caf0de773679722c85268d",
    ("C3", 1): "f1f612b56929c1b96e40a13abb500362918c03ed1e865fae2fc6e82d0c2fbcfc",
    ("C3", 2): "b197d3f151a2600a7546dd392366d111d852a7416a6d714cb949db30334531c4",
    ("C3", 3): "fda7a43ce7b140ae3578f5def04ecdc21fbe5a0bffc8979c755fea25c4ac255f",
    ("C2", 1): "3d7bbb6750644e4802816014d1cb46bdc7eebe3f50b919b9b67cb0aebdfa46cd",
    ("C2", 2): "1b06019ad889531eeb06b7222b81c707d2c42889afd5e99fede7b855509b18fc",
    ("C2", 3): "8faf31eba605b2b2f84e955e3db50b5c60003afe17ea86a69f65043771ba9d4d",
    ("G2", 1): "137004fe0e6cdf3d536aa4a96804b6171c7b9915ea161ac30f0bac57da1a26d3",
    ("G2", 2): "37441ab17400465f478180a9764b555b1541386cb57b22218afe316eb706ebdf",
    ("G2", 3): "0b878a56796a63dfe5ab53c9d9412fcb389dd09369614927802c61934202251c",
    ("F4", 1): "7f930a133d4db4bbce74ba4bb58f38100d5df01490f29a3735eeac17ef375267",
    ("F4", 2): "b28f43455f722582ff13e59d2c3ab7fcc8a5ea49d6b13c2d3ac6a46eb8c379e9",
    ("F4", 3): "1c11bd86229792ec5cbcc7f2250f8e1f15b1c130688e10083a9ee909fb32e488",
    ("B(1,1)", 1): "6668194dc2312a5ff6a3c650d2c30477df9c6c575c522fe52e27862e6d1ae981",
    ("B(1,1)", 2): "49c6b4a89c2d1be1eb4fadd7394c9e9af9a4ef1880d04019a686a6077dc03c1a",
    ("B(1,1)", 3): "39e4eb9ad52ae8b2f544b49a4b615b5bd1989dc3f50f926fd842f3c4c0a7493d",
    ("B(2,1)", 1): "d38d9d15e2f8b4a179056bf61cc46cda609617d9cea52e216ad678da2b8fa4c1",
    ("B(2,1)", 2): "9e7415df1de352de218a2daa3fb201aa27571064f09526f586f539e18ce61963",
    ("B(2,1)", 3): "9bf8d47d381aca03133bcc2ae74bf67c190072f29670bd98b1926432b0edf477",
    ("C(2,1)", 1): "ef78073d02cb50aa88418c070021b6445dcb20d5e1913fd0bddaf994c33d5f59",
    ("C(2,1)", 2): "60bd631d845abf7c131f5196b399fd284c8b33c479febb38ce23455642a269e1",
    ("C(2,1)", 3): "a599cd069446bd6d2e476b0e1b871edb6f49899996f2b4813e14a4e2b2e841c8",
    ("C(2,2)", 1): "92bfae4f2615ded48d5ac0fecfbb1daaa7b1486b54dbb27d781739be1d061760",
    ("C(2,2)", 2): "408401e46cbc0348aba71af645457f059ae1bd1a2e5abc341b656984c855c892",
    ("C(2,2)", 3): "bebad6faaefa25d5d13d93a6a1bee4bccc3beeaafa723f34eb075e86bce8889f",
    ("BC(1,1)", 1): "7ab35d22a103b836b9e4b4b7f5298145a1e0e050b2d7bc5bb8bc83d314c68a42",
    ("BC(1,1)", 2): "574f853463465a63a3ddc9c503b63597c0ad64ab44a0064338355b357df4a469",
    ("BC(1,1)", 3): "7dd594a89259ad99efc93e23b73d6d3b148b3b129ff09ad390081dd52614cf9d",
    ("BC(2,1)", 1): "4aba067908aaf89c83459734ef45daf571aa948f2821f1f25933fe100500b2f7",
    ("BC(2,1)", 2): "460dace21f12beb99ef35e21e4a25f64c61da0c561a5617e33062ebc90089772",
    ("BC(2,1)", 3): "53ecb9532e68783fa119985611ee112b1aa728888c667f57709bca13481f6905",
    ("BC(2,2)", 1): "716bb5597f6dbcd64762327f0413ed629f7bf7f2a788562018694d6e5211be92",
    ("BC(2,2)", 2): "b0c3cb6e4b34ddff90db9c61e13562fa01a0fc8a4e75235b4c8f2365845a1a91",
    ("BC(2,2)", 3): "d61e2edf0cfbed545ecd9e233ff37c5f94c5cce314ea499479711af416bfb080",
    ("A1", 4): "3c472333cfeaa4be6c5329195742840e4c09c45a625d94f653fcd2a3af64b2f1",
    ("B3", 4): "19b02e26a528af3d219ddc1a33f51c284d13a8c36c56d701db2e3f59490fa0ce",
    ("B(1,1)", 4): "bb0cc18a832213bf69dfb366322f20221aef4c9e0a1755c55526d986a8b11291",
    ("C(2,1)", 4): "b4f445fae237c729c1b161aa09e6729c516909e5583e6f5ceda12332ba21f20f",
    ("C(2,2)", 4): "cd331fb4ea33d51ddd9e382c3e8dc20703ce8d9824c3ddaec792ed6352ff100a",
    ("C2", 4): "99aefae681b8710e1d22f9d9809ec6d1422b5cacf49bf59db9f5b419b6e2e84e",
}


@pytest.mark.parametrize("cl,k", sorted(DIGESTS))
def test_listing_is_pinned(cl, k):
    text = serialize.dumps(enumerate_classes(cl, k))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(cl, k)]


def fields(desc):
    """The `family` parameters that carry a listed descriptor's data."""
    tag, *values = desc.data
    if tag == "s":
        return {"s": values[0]}
    names = {"S": ("S",), "S1S2": ("S1", "S2"), "SSp": ("S", "Sp")}[tag]
    return {name: F2Subset(desc.k, mask).points() for name, mask in zip(names, values)}


BC_MM = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: identify reads BC(m,m) second masks against a "
    "presentation-dependent anchor",
)
ROUND_TRIPS = [
    *((cl, k) for cl in ["A1", "B3", "C3", "C2", "G2", "F4", "B(1,1)", "B(2,1)", "C(2,1)", "C(2,2)"]
      for k in (1, 2, 3)),
    *(("BC(2,1)", k) for k in (1, 2)),
    *(pytest.param("BC(1,1)", k, marks=BC_MM) for k in (1, 2)),
    *(pytest.param("BC(2,2)", k, marks=BC_MM) for k in (1, 2)),
]


@pytest.mark.parametrize("cl,k", ROUND_TRIPS)
def test_family_of_each_listed_class_identifies_as_it(cl, k):
    for desc in enumerate_classes(cl, k):
        assert identify(family(desc.cl, k, **fields(desc))) == desc
