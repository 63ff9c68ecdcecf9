"""`identify` across presentations, and the descriptors no listing pins.

The shear oracle: a unimodular change of radical coordinates followed by a
shear x -> x + sum_i x_i t_i into the radical is an isometry, so `identify`
must give the same descriptor before and after.  BC<n> and C(1,1) have no
complete listing, so their descriptors on seeded valid `family` parameters
are pinned by the sha256 of their canonical JSON.
"""

import hashlib
import random

import pytest

from grrs import serialize
from grrs.catalog import family
from grrs.classify import enumerate_classes, identify
from support import radical_change, shear, valid_family_params
from test_listings import fields

ITEM_1 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: canonical_data translates S alone, but a shear "
    "translates S and Sp together",
)
SHEAR_TYPES = [
    "A1", "B3", "C3", "C2", "G2", "F4", "B(1,1)", "B(2,1)", "C(2,1)", "C(2,2)",
    *(pytest.param(cl, marks=ITEM_1) for cl in ("BC(1,1)", "BC(2,1)", "BC(2,2)")),
]


@pytest.mark.parametrize("cl", SHEAR_TYPES)
def test_identify_is_invariant_under_shears(cl):
    rng = random.Random(f"shear/{cl}")
    for k in (1, 2, 3):
        moves = [(i, j) for i in range(k) for j in range(k) if i != j]
        for desc in enumerate_classes(cl, k):
            system = family(desc.cl, k, **fields(desc))
            want = identify(system)
            for den in (2, 3):
                ops = [rng.choice(moves) for _ in range(2 * k)] if moves else []
                moved = shear(radical_change(system, ops), rng, den)
                assert identify(moved) == want, (desc, ops, den)


DIGESTS = {
    ("BC1", 1): "cc780a18ac4917ae2336ed9c0e21acc573d955da71418a5b63a6a53076e9e8b6",
    ("BC1", 2): "49012981c4d51a12a1e63d747b1bf105c7ba337d37ac99d1ceae27045dcae850",
    ("BC2", 1): "02038c03df23bdc6ba98c5023abaf71d46b928a4d22f86d32bb43f1f2e865201",
    ("BC2", 2): "2dbc82fc3f8fca48e36a5ec1338c9c7e3bc918c15c75499bb33227825be7beca",
    ("BC3", 1): "f81676f3f3fb27a3c3ac486518bab73fa2bdc78a4f717ac36b874222fd06bd25",
    ("BC3", 2): "99935c313ae3f5a6967c88dceb8a02acdea20b35c38f47711e77572477cf9cf7",
    ("C(1,1)", 1): "d414b8c7199953afd6008db531375c628c74cfcdf994033772ff995fa209edf0",
    ("C(1,1)", 2): "7d5de5a14876e90e33f11cc930ce0e2fdc70570c56d31a65d452b8374e917a61",
}


@pytest.mark.parametrize("cl,k", sorted(DIGESTS))
def test_unlisted_descriptors_are_pinned(cl, k):
    params = valid_family_params(cl, k, random.Random(f"{cl}/{k}"), 12)
    text = serialize.dumps([identify(family(cl, k, **p)) for p in params])
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[(cl, k)]
