"""The duality-law scan against its reference, the per-family scan it
replaced, and its bit encoding against the extensional definitions."""
import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sumgames import filters
from sumgames.filters import (
    DualityReport,
    LawLine,
    SetFamily,
    _dual_table,
    _identity_planes,
    _is_superfilter_23,
    _up_closed,
    classify_family,
    plus_dual,
    verify_duality_laws,
)


def _bit_planes(values, width: int) -> list:
    """Transpose ``values`` (ints below 2^width): plane k has bit i set iff
    bit k of values[i] is set."""
    backwards = values[::-1]
    return [int(bytes(48 + ((v >> k) & 1) for v in backwards), 2) for k in range(width)]


def reference_dual(f: int, g: int) -> int:
    """The plus dual of family f over a ground of size g, one subset at a
    time: subset s is in dual(f) iff its complement is not in f."""
    full = (1 << g) - 1
    out = 0
    for s in range(1 << g):
        if not (f >> (full ^ s)) & 1:
            out |= 1 << s
    return out


def reference_filter(f: int, g: int) -> bool:
    """Nonempty, without the empty set, up-closed and closed under
    intersection, tested on all pairs."""
    n_subsets = 1 << g
    ms = [s for s in range(n_subsets) if (f >> s) & 1]
    if not ms or (f & 1):  # empty family, or contains the empty set
        return False
    for s in ms:
        for t in range(n_subsets):
            if s | t == t and not (f >> t) & 1:
                return False
        for t in ms:
            if not (f >> (s & t)) & 1:
                return False
    return True


def reference_superfilter_23(f: int, g: int) -> bool:
    """Up-closed, and every pair of sets whose union is in f has one of
    them in f, tested on all pairs."""
    n_subsets = 1 << g
    for s in range(n_subsets):
        for t in range(n_subsets):
            if (f >> s) & 1 and s | t == t and not (f >> t) & 1:
                return False
    for a in range(n_subsets):
        for b in range(n_subsets):
            if (f >> (a | b)) & 1 and not ((f >> a) & 1 or (f >> b) & 1):
                return False
    return True


def _crossed(duals3) -> list:
    """The ground-4 dual table read off a ground-3 one: with
    f = hi·256 + lo, dual(f) = D(lo)·256 + D(hi)."""
    return [duals3[f & 0xFF] << 8 | duals3[f >> 8] for f in range(1 << 16)]


def reference_duality_laws(ground_size: int, duals=None) -> DualityReport:
    """The reference scan: a dual per family, each law tested on every
    family, no bit planes and no up-closed prefilter.  Exhaustively checks
    the six folklore duality laws over every family of subsets of a ground
    set of the given size.  ``duals``, a table with an entry per family,
    stands in for the plus dual when given.

    Families are bitmasks over the 2^g subsets; there are 2^(2^g) of them.
    Sizes up to 3 check the antitonicity law on all comparable pairs; size
    4 checks it on covering pairs only (equivalent by transitivity).
    Larger grounds are refused: the scan is doubly exponential.
    """
    g = ground_size
    if g < 1 or g > 4:
        raise ValueError("exhaustive regime supports ground sizes 1..4")
    n_subsets = 1 << g
    n_families = 1 << n_subsets
    full = n_subsets - 1  # bitmask of the whole ground set

    comp = [full ^ s for s in range(n_subsets)]

    def members(f: int):
        return [s for s in range(n_subsets) if (f >> s) & 1]

    def is_ultrafilter(f: int) -> bool:
        return reference_filter(f, g) and all((f >> s) & 1 or (f >> comp[s]) & 1
                                              for s in range(n_subsets))

    if duals is None:
        duals = [reference_dual(f, g) for f in range(n_families)]

    def subset_mask(a: int, b: int) -> bool:
        return a | b == b

    # (1) antitonicity of +
    count1 = viol1 = 0
    if g <= 3:
        for f2 in range(n_families):
            sub = f2
            while True:  # enumerate all submasks of f2
                count1 += 1
                if not subset_mask(duals[f2], duals[sub]):
                    viol1 += 1
                if sub == 0:
                    break
                sub = (sub - 1) & f2
    else:
        for f in range(n_families):
            for bit in range(n_subsets):
                if not (f >> bit) & 1:
                    count1 += 1
                    if not subset_mask(duals[f | (1 << bit)], duals[f]):
                        viol1 += 1

    count2 = n_families
    viol2 = sum(1 for f in range(n_families) if duals[duals[f]] != f)

    filters = [f for f in range(n_families) if reference_filter(f, g)]
    count3 = len(filters)
    viol3 = sum(1 for f in filters
                if not (subset_mask(f, duals[f]) and reference_superfilter_23(duals[f], g)))

    sufs = [f for f in range(n_families)
            if f and not (f & 1) and reference_superfilter_23(f, g)]
    count4 = len(sufs)
    viol4 = sum(1 for f in sufs
                if not (reference_filter(duals[f], g) and subset_mask(duals[f], f)))

    count5 = viol5 = 0
    for f in filters:
        d = duals[f]
        for a in members(d):
            for b in members(f):
                count5 += 1
                if not (d >> (a & b)) & 1:
                    viol5 += 1

    ultras = [f for f in range(n_families) if is_ultrafilter(f)]
    count6 = len(ultras)
    viol6 = sum(1 for p in ultras if duals[p] != p)

    lines = [
        LawLine("law-1", "F1 within F2 implies dual(F1) contains dual(F2)", count1, viol1),
        LawLine("law-2", "double dual is the identity", count2, viol2),
        LawLine("law-3", "filter: dual is a (2,3)-superfilter containing it", count3, viol3),
        LawLine("law-4", "superfilter surrogate: dual is a filter contained in it", count4, viol4),
        LawLine("law-5", "A in dual(F), B in F gives A∩B in dual(F)", count5, viol5),
        LawLine("law-6", "ultrafilters are self-dual", count6, viol6),
    ]
    caveats = [
        "freeness and 'all members infinite' are unverifiable on a finite ground; "
        "law 3 quantifies over all filters, law 4 over nonempty (2,3)-superfilters "
        "excluding the empty set",
    ]
    if g == 4:
        caveats.append("law 1 checked on covering pairs (equivalent by transitivity)")
    return DualityReport(g, n_families, lines, caveats)



@pytest.fixture(scope="module")
def reference_reports():
    # the reference at ground 4 takes about a second, so it runs once
    return {g: reference_duality_laws(g) for g in (1, 2, 3, 4)}


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_scan_matches_reference(reference_reports, g):
    # every law's instances and violations, the family count and caveats
    assert (dataclasses.asdict(verify_duality_laws(g))
            == dataclasses.asdict(reference_reports[g]))


def _up_closed_by_definition(g):
    n_subsets = 1 << g
    return {f for f in range(1 << n_subsets)
            if all((f >> t) & 1 for s in range(n_subsets) if (f >> s) & 1
                   for t in range(n_subsets) if s | t == t)}


def _up_closed_families(g):
    n_subsets = 1 << g
    return _up_closed(_bit_planes(range(1 << n_subsets), n_subsets))


def _bits_of(x: int) -> set:
    return {i for i in range(x.bit_length()) if (x >> i) & 1}


def test_up_closed_families_are_counted_by_dedekind_numbers():
    counts = [_up_closed_families(g).bit_count() for g in (1, 2, 3, 4)]
    assert counts == [3, 6, 20, 168]  # M(1..4)
    for g in (1, 2, 3):
        assert _bits_of(_up_closed_families(g)) == _up_closed_by_definition(g)
    # the ground-4 scan's crossing: f = hi·256 + lo is up-closed iff both
    # bytes are and lo lies within hi
    up3 = _bits_of(_up_closed_families(3))
    assert ({hi << 8 | lo for hi in up3 for lo in up3 if lo | hi == hi}
            == _bits_of(_up_closed_families(4)))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_identity_planes_are_the_transposed_identity(g):
    n_subsets = 1 << g
    assert _identity_planes(n_subsets) == _bit_planes(range(1 << n_subsets), n_subsets)


def test_ground_4_scan_peak_memory():
    # the scan once built 65,536-int lists and peaked at 3.39 MiB, which
    # showed in the benchmark's peak RSS; a 65,536-entry dual table and its
    # bit planes then peaked at 1.0 MiB.  Reading the ground-3 table
    # crossed, it peaks at about 9 KiB.
    verify_duality_laws(4)
    tracemalloc.start()
    try:
        verify_duality_laws(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


def test_bit_planes_transpose():
    rng = random.Random(7)
    for width in (4, 8, 16):
        values = [rng.randrange(1 << width) for _ in range(300)]
        planes = _bit_planes(values, width)
        assert len(planes) == width
        for k, plane in enumerate(planes):
            assert plane == sum(((v >> k) & 1) << i for i, v in enumerate(values))


def _subset(s, g):
    return frozenset(i for i in range(g) if (s >> i) & 1)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_dual_table_is_the_plus_dual(g):
    # subset mask s stands for {i : bit i of s}
    n_subsets = 1 << g
    ground = frozenset(range(g))
    table = _dual_table(g)
    assert list(table) == [reference_dual(f, g) for f in range(1 << n_subsets)]
    for f in range(1 << n_subsets):
        fam = SetFamily(ground, frozenset(_subset(s, g) for s in range(n_subsets)
                                          if (f >> s) & 1))
        expected = sum(1 << s for s in range(n_subsets) if _subset(s, g) in plus_dual(fam))
        assert table[f] == expected


def test_crossed_ground_3_table_is_the_ground_4_dual():
    assert _crossed(_dual_table(3)) == [reference_dual(f, 4) for f in range(1 << 16)]


@pytest.mark.parametrize("g", [0, 4, 5])
def test_dual_table_refuses_grounds_it_does_not_cover(g):
    # ground 4 is read crossed: its 65,536-entry table is never built
    with pytest.raises(ValueError):
        _dual_table(g)


def _tampered_reference(table, g: int) -> DualityReport:
    """The reference scan over a ground-3 table, crossed at ground 4."""
    return reference_duality_laws(g, list(table) if g == 3 else _crossed(table))


@pytest.mark.parametrize("g", [3, 4])
def test_one_flipped_dual_breaks_laws_1_and_2(monkeypatch, g):
    mutated = bytearray(_dual_table(3))
    mutated[0b0110] ^= 1
    monkeypatch.setattr(filters, "_dual_table", lambda _g: bytes(mutated))
    by_id = {line.law_id: line for line in verify_duality_laws(g).lines}
    want = {line.law_id: line for line in _tampered_reference(mutated, g).lines}
    assert by_id == want
    assert by_id["law-1"].violations > 0 and by_id["law-2"].violations > 0


# no shrinking: the flips are few already, and each ground-4 reference
# scan takes about half a second
@settings(max_examples=8, derandomize=True, deadline=None, phases=[Phase.generate])
@given(st.lists(st.tuples(st.integers(0, 255), st.integers(0, 7)), min_size=1, max_size=3))
def test_flipped_ground_3_bits_match_the_reference(flips):
    mutated = bytearray(_dual_table(3))
    for f, bit in flips:
        mutated[f] ^= 1 << bit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filters, "_dual_table", lambda _g: bytes(mutated))
        for g in (3, 4):
            assert verify_duality_laws(g).lines == _tampered_reference(mutated, g).lines


def test_superfilter_23_is_the_all_pairs_condition():
    for g in (1, 2, 3):
        for f in range(1 << (1 << g)):
            assert _is_superfilter_23(f, g) is reference_superfilter_23(f, g)
    for f in _bits_of(_up_closed_families(4)):
        assert _is_superfilter_23(f, 4) is reference_superfilter_23(f, 4)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_classify_family_flags_every_family(g):
    full, ground = (1 << g) - 1, frozenset(range(g))
    for f in range(1 << (1 << g)):
        members = [s for s in range(1 << g) if (f >> s) & 1]
        is_filter = reference_filter(f, g)
        is_super = reference_superfilter_23(f, g)
        flags = classify_family(SetFamily(ground, frozenset(_subset(s, g) for s in members)))
        assert (flags.is_filter, flags.is_superfilter, flags.superfilter_surrogate) == (
            is_filter, is_super, is_super and f != 0 and not f & 1)
        assert flags.is_free_filter is (is_filter and not any(
            all((s >> i) & 1 for s in members) for i in range(g)))
        assert flags.is_ultrafilter is (is_filter and all(
            (f >> s) & 1 or (f >> (full ^ s)) & 1 for s in range(1 << g)))
