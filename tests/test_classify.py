import functools
import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import grrs
from grrs.catalog import a_nn_x, build, family, type_key
from grrs.classify import (
    ClassDescriptor,
    F2Subset,
    affine_canonical,
    canonical_mask,
    canonical_pair,
    contains_affine_basis,
    enumerate_classes,
    identify,
    kac_moody_name,
    recognize_cl,
)
from grrs.classify import _zero_sum_multisets
from grrs.cli import main
from grrs.errors import BadParameters, KTooLarge, NoName, NotClassified, UnrecognizedCl
from grrs.linalg import Lattice, unit_vector, vadd, vscale
from grrs.symbolic import CosetSet, SymbolicRootSystem, affinize, from_finite


def brute_force_affine_orbit(k, mask):
    """Independent oracle: enumerate AGL(k,2) as matrix/translation pairs."""
    n = 1 << k
    points = list(range(n))

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

    orbit = set()
    for cols in itertools.product(range(n), repeat=k):
        if gf2_rank(cols) != k:
            continue
        table = []
        for p in points:
            img = 0
            for j in range(k):
                if (p >> j) & 1:
                    img ^= cols[j]
            table.append(img)
        for t in points:
            out = 0
            for p in points:
                if (mask >> p) & 1:
                    out |= 1 << (table[p] ^ t)
            orbit.add(out)
    return orbit


class TestAffineCanonical:
    def test_singleton_translates_to_zero(self):
        assert affine_canonical(F2Subset.from_points(1, [1])) == F2Subset(1, 0b01)

    def test_k1_canonical_count(self):
        # brute force over the 3 nonempty subsets of F_2
        canon = {canonical_mask(1, m) for m in (1, 2, 3)}
        assert canon == {0b01, 0b11}

    def test_k2_three_point_transitivity(self):
        masks = [m for m in range(16) if bin(m).count("1") == 3]
        canon = {canonical_mask(2, m) for m in masks}
        assert len(canon) == 1
        oracle = brute_force_affine_orbit(2, masks[0])
        assert set(masks) <= oracle

    def test_matches_brute_force_orbits(self):
        for mask in range(1, 16):
            orbit = brute_force_affine_orbit(2, mask)
            assert canonical_mask(2, mask) == min(orbit)

    def test_idempotent_and_orbit_constant(self):
        rng = random.Random(5)
        k = 2
        gl = []
        for mask in (0b0110, 0b1011, 0b0001, 0b1111, 0b0111):
            c = affine_canonical(F2Subset(k, mask))
            assert affine_canonical(c) == c
            orbit = sorted(brute_force_affine_orbit(k, mask))
            for _ in range(50):
                m2 = orbit[rng.randrange(len(orbit))]
                assert canonical_mask(k, m2) == c.mask

    def test_k_cap(self, monkeypatch):
        with pytest.raises(KTooLarge):
            canonical_mask(5, 1)
        # the cap is fixed; the environment does not lift it
        monkeypatch.setenv("GRRS_MAX_K", "5")
        with pytest.raises(KTooLarge):
            canonical_mask(5, 1)

    def test_masks_outside_the_range_are_rejected(self):
        # a mask names a subset of the 2^k points: 0..2^(2^k) - 1
        with pytest.raises(BadParameters, match=r"0\.\.15"):
            affine_canonical(F2Subset(2, 0b10000))
        for mask in (0b111, 0b100, -1):
            with pytest.raises(BadParameters, match=r"0\.\.3"):
                canonical_mask(1, mask)
            with pytest.raises(BadParameters, match=r"0\.\.3"):
                canonical_pair(1, mask, 0b1, True, False)
            with pytest.raises(BadParameters, match=r"0\.\.3"):
                canonical_pair(1, 0b1, mask, False, True)
        assert canonical_mask(1, 0b11) == 0b11 and canonical_mask(0, 0) == 0

    def test_negative_k(self, capsys):
        with pytest.raises(BadParameters, match=r"0\.\.4"):
            canonical_mask(-1, 1)
        with pytest.raises(BadParameters, match=r"1\.\.4"):
            enumerate_classes("B3", -1)
        assert main(["classify", "--cl", "B3", "--k", "-1"]) == 2
        assert "1..4" in capsys.readouterr().err

    @pytest.mark.parametrize("cl", ["C(2,1)", "C(2,2)", "BC(1,1)", "BC(2,1)", "A1", "B3", "A2"])
    def test_listings_start_at_k_1(self, cl, capsys):
        # no affine system has k = 0; the listing would be empty or name
        # an affinization with no central direction
        with pytest.raises(BadParameters, match=r"1\.\.4"):
            enumerate_classes(cl, 0)
        assert main(["classify", "--cl", cl, "--k", "0"]) == 2
        captured = capsys.readouterr()
        assert "1..4" in captured.err and captured.out == ""
        assert canonical_mask(0, 1) == 1


def _random_affine_image(rng, k, mask):
    """The image of a mask under a random invertible affine map of F_2^k."""
    n = 1 << k
    while True:
        cols = [rng.randrange(1, n) for _ in range(k)]
        table = [0] * n
        for p in range(n):
            for j in range(k):
                if (p >> j) & 1:
                    table[p] ^= cols[j]
        if len(set(table)) == n:
            break
    t = rng.randrange(n)
    return sum(1 << (table[p] ^ t) for p in range(n) if (mask >> p) & 1)


@functools.lru_cache(maxsize=None)
def _gl_tables(k):
    """GL(k,2) as point tables, from all k-tuples of columns that are
    linearly independent (their 2^k combinations are distinct)."""
    n = 1 << k
    tables = []
    for cols in itertools.product(range(n), repeat=k):
        table = []
        for p in range(n):
            img = 0
            for j in range(k):
                if (p >> j) & 1:
                    img ^= cols[j]
            table.append(img)
        if len(set(table)) == n:
            tables.append(table)
    return tables


def _apply_table(table, mask):
    return sum(1 << table[p] for p in range(len(table)) if (mask >> p) & 1)


@functools.lru_cache(maxsize=None)
def _translates(k, mask):
    n = 1 << k
    return frozenset(_apply_table([p ^ t for p in range(n)], mask) for t in range(n))


def brute_force_pair(k, mask1, mask2, translate_second, complement_first):
    """Independent oracle for canonical_pair: every linear map g, then every
    translation (and the complement) of the first image, then every
    translation of the second when `translate_second`.  The lex-least pair
    over a product of choices is the pair of the least choices."""
    full = (1 << (1 << k)) - 1
    best = None
    for g in _gl_tables(k):
        g1, g2 = _apply_table(g, mask1), _apply_table(g, mask2)
        firsts = [g1, full ^ g1] if complement_first else [g1]
        first = min(m for f in firsts for m in _translates(k, f))
        second = min(_translates(k, g2)) if translate_second else g2
        if best is None or (first, second) < best:
            best = (first, second)
    return best


class TestCanonicalOracles:
    FLAGS = list(itertools.product((False, True), repeat=2))

    def test_every_mask_up_to_k3_is_its_orbit_minimum(self):
        for k in (1, 2, 3):
            expected = {}
            for mask in range(1 << (1 << k)):
                if mask not in expected:
                    orbit = brute_force_affine_orbit(k, mask)
                    expected.update(dict.fromkeys(orbit, min(orbit)))
            for mask, least in expected.items():
                assert canonical_mask(k, mask) == least, (k, mask)

    def test_orbit_counts_match_harrison(self):
        # affine classes of subsets of F_2^k (Harrison 1964): 3, 5, 10, 32
        for k, count in ((1, 3), (2, 5), (3, 10)):
            assert len({canonical_mask(k, m) for m in range(1 << (1 << k))}) == count
        # B3 lists every nonempty class once; the empty set is its own class
        assert len({0} | {d.data[1] for d in enumerate_classes("B3", 4)}) == 32

    def test_k4_invariant_under_random_affine_maps(self):
        rng = random.Random(41)
        for _ in range(20):
            mask = rng.randrange(1 << 16)
            image = _random_affine_image(rng, 4, mask)
            assert canonical_mask(4, image) == canonical_mask(4, mask), (mask, image)

    def test_pairs_exhaustive_up_to_k2(self):
        for k in (1, 2):
            n = 1 << (1 << k)
            for m1, m2 in itertools.product(range(n), repeat=2):
                for ts, cf in self.FLAGS:
                    assert canonical_pair(k, m1, m2, ts, cf) == brute_force_pair(
                        k, m1, m2, ts, cf
                    ), (k, m1, m2, ts, cf)

    def test_pairs_seeded_k3(self):
        rng = random.Random(17)
        for _ in range(200):
            m1, m2 = rng.randrange(256), rng.randrange(256)
            for ts, cf in self.FLAGS:
                assert canonical_pair(3, m1, m2, ts, cf) == brute_force_pair(
                    3, m1, m2, ts, cf
                ), (m1, m2, ts, cf)


def _listing_by_identify(cl, k):
    """The enumeration before orbit minima: build every instance with
    `family`, with a first subset through 0, and identify it."""
    n = 1 << k
    full = (1 << n) - 1
    key = type_key(cl)
    seen = {}
    for m1 in range(1, full, 2):
        S = [p for p in range(n) if (m1 >> p) & 1]
        if key.kind == "BC({},{})":
            for m2 in range(1, full + 1):
                Sp = [p for p in range(n) if (m2 >> p) & 1]
                d = identify(family(key, k, S=S, Sp=Sp))
                seen.setdefault(d.data, d)
        else:
            d = identify(family(key, k, S=S))
            seen.setdefault(d.data, d)
    return [seen[data] for data in sorted(seen)]


def _c2_listing_by_all_pairs(k):
    """The enumeration before orbit minima for C2: every pair of masks
    through 0 with S1 + S2 inside S1 and an affine basis in S1."""
    n = 1 << k
    full = (1 << n) - 1
    out = set()
    for m1 in range(1, full + 1, 2):
        pts1 = [p for p in range(n) if (m1 >> p) & 1]
        if not contains_affine_basis(F2Subset(k, m1)):
            continue
        for m2 in range(1, full + 1, 2):
            if all((m1 >> (a ^ b)) & 1 for a in pts1 for b in range(n) if (m2 >> b) & 1):
                out.add(canonical_pair(k, m1, m2, translate_second=True, complement_first=False))
    return [ClassDescriptor("C2", k, ("S1S2",) + p) for p in sorted(out)]


def _cycle_lengths(table):
    seen, lengths = set(), []
    for p in range(len(table)):
        length = 0
        while p not in seen:
            seen.add(p)
            p = table[p]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def burnside_pair_count(k, second, complement_first):
    """Orbits of the pairs (S1, S2), S1 proper and nonempty, S2 nonempty
    when `second` (else absent), under a linear map g on both, a
    translation of S1 and, when `complement_first`, the complement of S1:
    the mean number of fixed pairs over the group (Burnside's lemma)."""
    n = 1 << k
    fixed = size = 0
    for g in _gl_tables(k):
        fixed_second = 2 ** len(_cycle_lengths(g)) - 1 if second else 1
        for t in range(n):
            lengths = _cycle_lengths([g[p] ^ t for p in range(n)])
            fixed += (2 ** len(lengths) - 2) * fixed_second
            if complement_first and all(c % 2 == 0 for c in lengths):
                fixed += 2 ** len(lengths) * fixed_second
            size += 2 if complement_first else 1
    assert fixed % size == 0
    return fixed // size


def brute_force_c2_count(k):
    """Orbits of the C2 pairs: S1 with an affine basis and S2 inside a coset
    of the period group of S1, under a linear map on both and independent
    translations of each; every orbit is listed element by element."""
    n = 1 << k
    pairs = set()
    for m1 in range(1, 1 << n):
        if contains_affine_basis(F2Subset(k, m1)):
            period = [t for t in range(n) if _apply_table([p ^ t for p in range(n)], m1) == m1]
            for bits in range(1 << len(period)):
                m2 = sum(1 << t for j, t in enumerate(period) if (bits >> j) & 1)
                if m2:
                    pairs.update((m1, y) for y in _translates(k, m2))
    orbits = 0
    while pairs:
        m1, m2 = pairs.pop()
        orbits += 1
        for g in _gl_tables(k):
            for x in _translates(k, _apply_table(g, m1)):
                pairs.difference_update((x, y) for y in _translates(k, _apply_table(g, m2)))
    return orbits


class TestPairListing:
    """C(m,n), BC(m,n) and C2 are listed from orbit minima; the enumerations
    they replaced, and orbit counts, are the oracles."""

    @pytest.mark.parametrize("cl", ["C(2,1)", "C(1,2)", "C(2,2)", "BC(1,1)", "BC(2,1)", "BC(1,2)"])
    def test_matches_identify_every_instance(self, cl):
        for k in (1, 2):
            assert enumerate_classes(cl, k) == _listing_by_identify(cl, k), (cl, k)

    def test_c2_matches_all_pairs(self):
        for k in (1, 2, 3):
            assert enumerate_classes("C2", k) == _c2_listing_by_all_pairs(k), k

    def test_k3_counts_match_orbit_counts(self):
        assert len(enumerate_classes("BC(1,1)", 3)) == burnside_pair_count(3, True, True) == 191
        assert len(enumerate_classes("BC(2,1)", 3)) == burnside_pair_count(3, True, False) == 296
        assert len(enumerate_classes("C(2,1)", 3)) == burnside_pair_count(3, False, False) == 8
        assert len(enumerate_classes("C2", 3)) == brute_force_c2_count(3) == 14


def _classify_cli(cl, k):
    src = os.path.dirname(os.path.dirname(grrs.__file__))
    code = "import sys; from grrs.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, "classify", "--cl", cl, "--k", str(k), "--json"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=30,
    )


class TestKCapIsReal:
    """The README promises classification up to k = 4 (BC(m,n) up to k = 3);
    each type must list its classes through the CLI in seconds."""

    @pytest.mark.parametrize("cl, count", [("B3", 31), ("A1", 22), ("C(2,1)", 30), ("C(2,2)", 17)])
    def test_k4_listing(self, cl, count):
        done = _classify_cli(cl, 4)
        assert done.returncode == 0
        listed = [int(d["data"]["S"], 2) for d in json.loads(done.stdout)["payload"]]
        assert len(listed) == count
        assert listed == [d.data[1] for d in enumerate_classes(cl, 4)]
        for mask in listed:
            assert canonical_mask(4, mask) == mask
        full = (1 << 16) - 1
        rng = random.Random(23)
        for _ in range(15):
            mask = rng.randrange(1, 1 << 16)
            canon = canonical_mask(4, mask)
            if cl == "C(2,2)":
                canon = min(canon, canonical_mask(4, full ^ mask))
            wanted = {
                "B3": True,
                "A1": contains_affine_basis(F2Subset(4, mask)),
            }.get(cl, mask != full)
            assert (canon in listed) == wanted, mask

    def test_c2_k4_listing(self):
        done = _classify_cli("C2", 4)
        assert done.returncode == 0
        listed = [(int(d["data"]["S1"], 2), int(d["data"]["S2"], 2))
                  for d in json.loads(done.stdout)["payload"]]
        assert len(listed) == 58
        assert listed == [d.data[1:] for d in enumerate_classes("C2", 4)]
        # seeded valid pairs: S1 a union of cosets of a random subgroup V,
        # S2 a subset of V through 0
        rng = random.Random(29)
        checked = 0
        while checked < 8:
            V = {0}
            for _ in range(rng.randrange(4)):
                v = rng.randrange(16)
                V |= {x ^ v for x in V}
            S1 = {x ^ c for c in range(16) if rng.randrange(2) for x in V}
            S2 = {0} | {x for x in V if rng.randrange(2)}
            m1, m2 = F2Subset.from_points(4, S1).mask, F2Subset.from_points(4, S2).mask
            if m1 and contains_affine_basis(F2Subset(4, m1)):
                assert canonical_pair(4, m1, m2, True, False) in listed, (m1, m2)
                checked += 1

    def test_bc_k3_listing(self):
        done = _classify_cli("BC(1,1)", 3)
        assert done.returncode == 0
        payload = json.loads(done.stdout)["payload"]
        assert len(payload) == 191
        listed = [(int(d["data"]["S"], 2), int(d["data"]["Sp"], 2)) for d in payload]
        assert listed == [d.data[1:] for d in enumerate_classes("BC(1,1)", 3)]
        rng = random.Random(31)
        for _ in range(10):
            m1, m2 = rng.randrange(1, 255), rng.randrange(1, 256)
            assert canonical_pair(3, m1, m2, False, True) in listed, (m1, m2)

    def test_bc_k4_exits_2(self):
        done = _classify_cli("BC(1,1)", 4)
        assert done.returncode == 2
        assert b"listed up to k = 3" in done.stderr


class TestContainsAffineBasis:
    def test_k1(self):
        assert contains_affine_basis(F2Subset.from_points(1, [0, 1]))
        assert not contains_affine_basis(F2Subset.from_points(1, [0]))

    def test_k2_line(self):
        assert not contains_affine_basis(F2Subset.from_points(2, [0, 1]))

    def test_k2_triangle(self):
        assert contains_affine_basis(F2Subset.from_points(2, [0, 1, 2]))
        assert contains_affine_basis(F2Subset.from_points(2, [1, 2, 3]))

    def test_matches_rank_oracle(self):
        # oracle: the F_2 rank of the differences to one point, by pivots
        for k in range(4):
            for mask in range(1 << (1 << k)):
                pts = [p for p in range(1 << k) if mask >> p & 1]
                pivots = {}
                for v in (p ^ pts[0] for p in pts):
                    while v and v.bit_length() in pivots:
                        v ^= pivots[v.bit_length()]
                    if v:
                        pivots[v.bit_length()] = v
                want = bool(pts) and len(pivots) == k
                assert contains_affine_basis(F2Subset(k, mask)) == want, (k, mask)


def _spans_by_span_growth(k, mask):
    """The former `spans_affinely`: translate the set through 0 by its least
    point, then grow the linear span one point at a time as a mask of
    2^k bits."""
    def bits(m):
        return [p for p in range(m.bit_length()) if m >> p & 1]

    def sumset(a, b):
        out = 0
        for y in bits(b):
            for x in bits(a):
                out |= 1 << (x ^ y)
        return out

    zeroed = sumset(mask, mask & -mask)
    span = zeroed & 1
    for p in bits(zeroed):
        if not span >> p & 1:
            span |= sumset(span, 1 << p)
    return span == (1 << (1 << k)) - 1


class TestAffineBasisAtLargeK:
    def test_matches_span_growth_exhaustively(self):
        for k in range(5):
            for mask in range(1 << (1 << k)):
                want = _spans_by_span_growth(k, mask)
                assert contains_affine_basis(F2Subset(k, mask)) == want, (k, mask)

    def test_no_mask_of_all_f2k_is_built(self):
        # a mask holds one bit per point: at k = 99 only small points fit
        assert not contains_affine_basis(F2Subset.from_points(99, [0]))
        assert not contains_affine_basis(F2Subset.from_points(99, range(64)))
        basis = [0] + [1 << i for i in range(20)]
        assert contains_affine_basis(F2Subset.from_points(20, basis))
        assert contains_affine_basis(F2Subset.from_points(20, [p ^ 5 for p in basis]))
        assert not contains_affine_basis(F2Subset.from_points(20, basis[:-1] + [3]))

    def test_family_a1_at_large_k(self):
        with pytest.raises(BadParameters, match="affine basis"):
            family("A1", 99, S={0})
        system = family("A1", 20, S={0} | {1 << i for i in range(20)})
        assert system.kernel_dim == 20 and len(system.entries[0].family.reps) == 21


class TestF2Subset:
    def test_checked_at_construction(self):
        # bit 4 is no point of F_2^2: len() and points() would disagree on it
        with pytest.raises(BadParameters, match=r"mask 19 is outside the range 0\.\.15"):
            F2Subset(2, 0b10011)
        with pytest.raises(BadParameters, match=r"0\.\.3 of subsets of F_2\^1"):
            F2Subset(1, -1)
        with pytest.raises(BadParameters, match="negative"):
            F2Subset(-1, 0)

    def test_k_is_not_capped(self):
        S = F2Subset(5, 0b1000_0000_0000_0001_0000_0001_0001_0111)
        assert S.points() == (0, 1, 2, 4, 8, 16, 31) and len(S) == 7
        assert contains_affine_basis(S)
        assert not contains_affine_basis(F2Subset(5, 0b1_0001_0111))
        with pytest.raises(BadParameters, match=r"0\.\.2\^32 - 1"):
            F2Subset(5, 1 << 32)
        with pytest.raises(KTooLarge):
            affine_canonical(S)

    def test_from_points_reads_like_family(self):
        assert F2Subset.from_points(2, [3, "0", 3]) == F2Subset(2, 0b1001)
        with pytest.raises(BadParameters, match=r"point 5 outside F_2\^2"):
            F2Subset.from_points(2, [5])
        with pytest.raises(BadParameters, match=r"point 0 outside F_2\^-1"):
            F2Subset.from_points(-1, [0])
        with pytest.raises(BadParameters, match=r"point 5 outside F_2\^2"):
            family("B3", 2, S=[5])


class TestEnumerate:
    def test_case_i_single_class(self):
        for name in ("A2", "A5", "D4", "E6", "E7", "E8", "A(2,1)", "C(2)",
                      "D(2,2)", "D(2,1;a=1/2)", "G(3)", "F(4)"):
            descs = enumerate_classes(name, 1)
            assert len(descs) == 1
            assert descs[0].data == ("affinization",)

    def test_two_orbit_counts_k1(self):
        for name in ("B3", "C3", "B(1,1)", "B(2,2)"):
            assert len(enumerate_classes(name, 1)) == 2
        for name in ("G2", "F4"):
            assert len(enumerate_classes(name, 1)) == 2

    def test_a1_counts(self):
        assert len(enumerate_classes("A1", 1)) == 1
        assert len(enumerate_classes("A1", 2)) == 2

    def test_a1_k2_against_oracle(self):
        # oracle: all 16 subsets, keep those containing an affine basis,
        # reduce by brute-forced affine orbits
        good = []
        for mask in range(16):
            pts = [p for p in range(4) if (mask >> p) & 1]
            if not pts:
                continue
            base = pts[0]
            diffs = [p ^ base for p in pts]
            pivots = {}
            for v in diffs:
                cur = v
                while cur:
                    h = cur.bit_length() - 1
                    if h in pivots:
                        cur ^= pivots[h]
                    else:
                        pivots[h] = cur
                        break
            if len(pivots) >= 2:
                good.append(mask)
        reps = {min(brute_force_affine_orbit(2, m)) for m in good}
        assert len(reps) == len(enumerate_classes("A1", 2))

    def test_g2_k2(self):
        descs = enumerate_classes("G2", 2)
        assert [d.data for d in descs] == [("s", 0), ("s", 1), ("s", 2)]

    def test_c2_k1(self):
        assert len(enumerate_classes("C2", 1)) == 2

    def test_bc_and_weak_counts(self):
        assert len(enumerate_classes("BC(1,1)", 1)) == 3
        assert len(enumerate_classes("C(2,1)", 1)) == 1

    @pytest.mark.parametrize("cl, k", [("G2", 5), ("F4", 6), ("A2", 5), ("D4", 7)])
    def test_listings_without_canonical_forms_take_any_k(self, cl, k, capsys):
        # the scale indices and the affinization walk no AGL(k,2) orbit
        descs = enumerate_classes(cl, k)
        if cl in ("G2", "F4"):
            assert descs == [ClassDescriptor(cl, k, ("s", s)) for s in range(k + 1)]
            assert identify(family(cl, k, s=2)) in descs
        else:
            assert descs == [ClassDescriptor(cl, k, ("affinization",))]
        assert main(["classify", "--cl", cl, "--k", str(k)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(descs)
        with pytest.raises(KTooLarge):
            enumerate_classes("B3", k)

    def test_not_classified(self):
        with pytest.raises(NotClassified):
            enumerate_classes("BC2", 1)
        with pytest.raises(NotClassified):
            enumerate_classes("C(1,1)", 1)


class TestRecognize:
    def test_recognizes_catalog_entries(self):
        for name in ("A3", "B3", "C4", "D4", "G2", "F4", "BC2",
                      "A(2,1)", "B(1,2)", "D(2,2)", "G(3)", "F(4)",
                      "C(2,1)", "BC(1,1)", "C(1,1)"):
            got, _, _ = recognize_cl(build(name))
            assert got == name, (name, got)

    def test_low_rank_coincidence(self):
        # C(2) and A(1,0) have the same root system; the A-name is canonical
        got, _, _ = recognize_cl(build("C(2)"))
        assert got == "A(1,0)"
        from grrs.finite import isomorphic_finite
        assert isomorphic_finite(build("C(2)"), build("A(1,0)")) is not None

    def test_d21a_parameter_recovery(self):
        got, _, _ = recognize_cl(build("D(2,1;a=1/2)"))
        assert got.startswith("D(2,1;a=")

    def test_unrecognized(self):
        from grrs.finite import FiniteRootSystem
        from grrs.linalg import standard_space, vec

        junk = FiniteRootSystem(
            standard_space(2), [vec([1, 0]), vec([-1, 0]), vec([3, 1]), vec([-3, -1])]
        )
        with pytest.raises(UnrecognizedCl):
            recognize_cl(junk)


class TestIdentify:
    @pytest.mark.parametrize("cl", ["C(2,1)", "C(2,2)", "BC(1,1)", "B3", "A1", "A2"])
    def test_identify_rejects_k_0(self, cl, tmp_path, capsys):
        # a finite system is not affine; F_2^0 data would name no listed class
        system = from_finite(build(cl))
        with pytest.raises(BadParameters, match="k >= 1"):
            identify(system)
        doc = tmp_path / "finite.json"
        doc.write_text(grrs.serialize.dumps(system))
        assert main(["iso", str(doc), str(doc)]) == 2
        assert "k >= 1" in capsys.readouterr().err

    def test_affinizations_are_case_i(self):
        for name in ("A2", "D4", "A(2,1)", "C(2)", "D(2,1;a=1/2)", "G(3)", "F(4)"):
            d = identify(affinize(build(name), 1))
            assert d.data == ("affinization",)

    def test_b3_classes_and_names(self):
        d0 = identify(family("B3", 1, S={0}))
        d1 = identify(family("B3", 1, S={0, 1}))
        assert d0 != d1
        assert identify(affinize(build("B3"), 1)) == d0
        assert kac_moody_name(d0) == "B_3^(1)"
        assert kac_moody_name(d1) == "D_4^(2)"

    def test_c3_names(self):
        d0 = identify(family("C3", 1, S={0}))
        d1 = identify(family("C3", 1, S={0, 1}))
        assert kac_moody_name(d0) == "A_5^(2)"
        assert kac_moody_name(d1) == "C_3^(1)"
        assert identify(affinize(build("C3"), 1)) == d1

    def test_g2_f4(self):
        assert kac_moody_name(identify(family("G2", 1, s=0))) == "D_4^(3)"
        assert kac_moody_name(identify(family("F4", 1, s=0))) == "E_6^(2)"
        assert kac_moody_name(identify(affinize(build("F4"), 1))) == "F_4^(1)"
        d = enumerate_classes("G2", 2)
        mats = [identify(family("G2", 2, s=s)) for s in range(3)]
        assert mats == d

    @pytest.mark.parametrize("cl", ["G2", "F4"])
    @pytest.mark.parametrize("k", [5, 6])
    def test_g2_f4_take_any_k(self, cl, k):
        # the scale index needs no AGL(k,2) walk, so the k cap does not apply
        for s in (0, 2, k):
            assert identify(family(cl, k, s=s)) == ClassDescriptor(cl, k, ("s", s))

    @staticmethod
    def _g2_with_long_family(gens):
        """family("G2", 2, s=1) with the family above every long root
        replaced by the full lattice on gens (coordinates on b_0, b_1)."""
        system = family("G2", 2, s=1)
        b = [unit_vector(4, 2), unit_vector(4, 3)]
        lattice = Lattice.from_vectors(4, [vadd(vscale(x, b[0]), vscale(y, b[1])) for x, y in gens])
        entries = [
            (e.lift, CosetSet.full_lattice(lattice) if system.space.norm(e.lift) == 3 else e.family)
            for e in system.entries
        ]
        return SymbolicRootSystem(system.space, entries)

    def test_g2_long_family_of_infinite_index(self):
        with pytest.raises(UnrecognizedCl, match="long-root family of infinite index"):
            identify(self._g2_with_long_family([(1, 0)]))

    def test_g2_long_family_index_not_a_power(self):
        with pytest.raises(UnrecognizedCl, match="long-root family index is not a pure power"):
            identify(self._g2_with_long_family([(5, 0), (0, 1)]))
        # 3^4 is a power of 3, but of more than k = 2 factors
        with pytest.raises(UnrecognizedCl, match="long-root family index is not a pure power"):
            identify(self._g2_with_long_family([(9, 0), (0, 9)]))

    def test_b11_names(self):
        d0 = identify(family("B(1,1)", 1, S={0}))
        d1 = identify(family("B(1,1)", 1, S={0, 1}))
        assert kac_moody_name(d0) == "B(1,1)^(1)"
        assert kac_moody_name(d1) == "D(2,1)^(2)"
        assert identify(affinize(build("B(1,1)"), 1)) == d0

    def test_c2_pair(self):
        aff = identify(affinize(build("B2"), 1))
        tw = identify(family("C2", 1, S1={0, 1}, S2={0}))
        assert aff.cl == "C2" and aff != tw
        assert kac_moody_name(aff) == "C_2^(1)"
        assert kac_moody_name(tw) == "A_3^(2)"

    def test_annx_rules(self):
        d13 = identify(a_nn_x(2, 1, 3, 0))
        d23 = identify(a_nn_x(2, 2, 3, 0))
        d12 = identify(a_nn_x(2, 1, 2, 0))
        d14 = identify(a_nn_x(2, 1, 4, 0))
        d34 = identify(a_nn_x(2, 3, 4, 0))
        assert d13 == d23 and d14 == d34
        assert len({d12.data, d13.data, d14.data}) == 3
        assert identify(a_nn_x(2, 1, 3, 1)) == identify(a_nn_x(2, 2, 3, 1))
        d15 = identify(a_nn_x(2, 1, 5, 0))
        d25 = identify(a_nn_x(2, 2, 5, 0))
        assert d15 != d25  # 1/5 and 2/5 are genuinely different classes

    def test_annx_n3_finishes(self):
        # 874 zero-sum multisets among 4-element multisets of 56 lifts
        src = os.path.dirname(os.path.dirname(grrs.__file__))
        code = ("from grrs.catalog import a_nn_x; from grrs.classify import identify; "
                "print(identify(a_nn_x(3, 1, 2)).data)")
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=20)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(("Annx", 2, 1))

    @pytest.mark.parametrize("n, p, q", [(1, 1, 2), (1, 2, 5), (2, 1, 2), (2, 1, 3), (2, 3, 4),
                                         (2, 2, 5)])
    def test_zero_sum_multisets_match_brute_force(self, n, p, q):
        lifts = a_nn_x(n, p, q).lifts
        brute = [
            combo for combo in itertools.combinations_with_replacement(range(len(lifts)), n + 1)
            if all(sum(lifts[i][j] for i in combo) == 0 for j in range(len(lifts[0])))
        ]
        found = _zero_sum_multisets(list(lifts), n + 1)
        assert len(found) == len(set(found))
        assert sorted(found) == brute

    def test_ann_gl_branch(self):
        d = identify(affinize(build("A(2,2)"), 1))
        assert d.data == ("gl",)
        dq = identify(a_nn_x(2, 1, 3, 0))
        assert d != dq

    def test_c11_collapse_with_half(self):
        # the subset form over one point equals the x = 1/2 quotient
        r0 = identify(family("C(1,1)", 1, S={0}))
        ahalf = identify(a_nn_x(1, 1, 2, 0))
        assert r0 == ahalf
        a13 = identify(a_nn_x(1, 1, 3, 0))
        assert r0 != a13

    def test_c11_k2_subset_vs_quotient(self):
        sub = identify(family("C(1,1)", 2, S={0}))
        quo = identify(a_nn_x(1, 1, 2, 1))
        assert sub.data[0] == "C11S"
        assert quo.data[0] == "Annx"
        assert sub != quo

    def test_bc_pair_classes(self):
        i00 = identify(family("BC(1,1)", 1, S={0}, Sp={0}))
        i10 = identify(family("BC(1,1)", 1, S={1}, Sp={0}))
        i01 = identify(family("BC(1,1)", 1, S={0}, Sp={1}))
        i11 = identify(family("BC(1,1)", 1, S={1}, Sp={1}))
        iF = identify(family("BC(1,1)", 1, S={0}, Sp={0, 1}))
        assert i00 == i10 and i01 == i11
        assert len({i00.data, i01.data, iF.data}) == 3
        assert kac_moody_name(iF) == "A(2,2)^(4)"

    def test_bc21_names(self):
        assert kac_moody_name(identify(family("BC(2,1)", 1, S={0}, Sp={0}))) == "A(2,3)^(2)"
        assert kac_moody_name(identify(family("BC(2,1)", 1, S={0}, Sp={1}))) == "A(4,1)^(2)"
        assert kac_moody_name(identify(family("BC(2,1)", 1, S={0}, Sp={0, 1}))) == "A(4,2)^(4)"

    def test_cmn_single_class_name(self):
        c = identify(family("C(2,1)", 1, S={0}))
        assert identify(family("C(2,1)", 1, S={1})) == c
        assert kac_moody_name(c) == "A(3,1)^(2)"

    def test_cmn_complement_collapse(self):
        a = identify(family("C(2,2)", 2, S={0}))
        b = identify(family("C(2,2)", 2, S={1, 2, 3}))
        assert a == b

    def test_every_instance_maps_to_listed(self):
        listed = {d.data for d in enumerate_classes("BC(1,1)", 1)}
        for S in ({0}, {1}):
            for Sp in ({0}, {1}, {0, 1}):
                assert identify(family("BC(1,1)", 1, S=S, Sp=Sp)).data in listed
        listedB = {d.data for d in enumerate_classes("B3", 2)}
        for mask in range(1, 16):
            pts = [p for p in range(4) if (mask >> p) & 1]
            assert identify(family("B3", 2, S=pts)).data in listedB

    def test_invariant_under_resplit(self):
        rng = random.Random(11)
        for sys_ in (a_nn_x(1, 1, 3, 0), family("B3", 1, S={0, 1}),
                     family("BC(1,1)", 1, S={0}, Sp={1}), family("G2", 2, s=1),
                     family("C(2,1)", 2, S={0, 3}), family("C(1,1)", 2, S={0}),
                     family("F4", 2, s=1), family("C2", 2, S1={0, 1, 2, 3}, S2={0, 1})):
            d0 = identify(sys_)
            offsets = {}
            for b in sys_.splitting():
                mem = sys_.family_of_lift(b).members()
                offsets[b] = mem[rng.randrange(len(mem))]
            assert identify(sys_.resplit(offsets)) == d0

    def test_bc_n_partial_descriptors(self):
        d1 = identify(family("BC1", 1, S={0, 1}, H2=[0, 2]))
        d2 = identify(family("BC1", 1, S={0, 1}, H2=[0, 1, 2, 3]))
        assert d1.cl == "BC1" and d1.data[0] == "BCn"
        assert d1 != d2
        d3 = identify(family("BC2", 1, S1={0, 1}, S2={0, 1}, T={0, 1}))
        assert d3.cl == "BC2"

    def test_invariant_under_reserialization(self):
        from grrs import serialize

        for sys_ in (a_nn_x(2, 1, 3, 0), family("C2", 1, S1={0, 1}, S2={0})):
            again = serialize.loads(serialize.dumps(sys_))
            assert identify(again) == identify(sys_)


class TestKacMoodyNames:
    def test_case_i_names(self):
        assert kac_moody_name(ClassDescriptor("A3", 1, ("affinization",))) == "A_3^(1)"
        assert kac_moody_name(ClassDescriptor("A(2,1)", 1, ("affinization",))) == "A(2,1)^(1)"

    def test_no_name_for_higher_k(self):
        with pytest.raises(NoName):
            kac_moody_name(ClassDescriptor("B3", 2, ("S", 1)))

    def test_no_name_for_ann(self):
        with pytest.raises(NoName):
            kac_moody_name(identify(a_nn_x(2, 1, 3, 0)))


CANONICAL_NAMES = [
    "A1", "A3", "B3", "C1", "C2", "D4", "BC2", "E6", "E8", "F4", "G2",
    "A(1,0)", "A(0,0)", "A(2,2)", "A(2,2)_f", "B(1,2)", "C(3)", "D(2,1)", "D(2,1;a=1/2)",
    "D(2,1;a=-3)", "F(4)", "G(3)", "C(1,1)", "C(2,1)", "BC(1,2)",
]

# Names of no type: at the parent commit `enumerate_classes` accepted the
# first five as affinization-only types, and `build` accepted A(-1,2).
REJECTED_NAMES = [
    "E9", "E5", "D1", "Efoo", "D(2,1;a=0)", "A(-1,2)", "D(2,1;a=-1)", "D(2,1;a=1/0)",
    "A0", "B1", "C(1)", "D(1,1)", "B(0,1)", "A(1,2)_f", "B(1,1)_f", "B(1;1)", "Q7", "A(1,1)x",
]


class TestTypeNames:
    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    def test_canonical_spelling_round_trips(self, name):
        key = type_key(name)
        assert str(key) == name
        assert type_key(key) is key

    def test_whitespace_and_rationals_normalize(self):
        assert str(type_key(" B ( 1 , 2 ) ")) == "B(1,2)"
        assert type_key("D(2,1;a=2/4)") == type_key("D(2,1;a=1/2)")
        assert [d.cl for d in enumerate_classes("D(2,1;a=2/4)", 1)] == ["D(2,1;a=-3)"]

    @pytest.mark.parametrize("name", REJECTED_NAMES)
    def test_names_of_no_type_are_rejected(self, name):
        with pytest.raises(BadParameters):
            build(name)
        with pytest.raises(BadParameters):
            enumerate_classes(name, 1)
        assert main(["classify", "--cl", name, "--k", "1"]) == 2
