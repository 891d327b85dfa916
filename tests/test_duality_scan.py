"""The duality-law scan against its reference, the per-family scan it
replaced, and its bit encoding against the extensional definitions."""
import dataclasses
import random
import tracemalloc

import pytest

from sumgames import filters
from sumgames.filters import (
    DualityReport,
    LawLine,
    SetFamily,
    _byte_planes,
    _dual_table,
    _identity_planes,
    _up_closed,
    plus_dual,
    verify_duality_laws,
)


def _bit_planes(values, width: int) -> list:
    """Transpose ``values`` (ints below 2^width): plane k has bit i set iff
    bit k of values[i] is set."""
    planes = []
    for low in range(0, width, 8):
        column = bytes([(v >> low) & 0xFF for v in values])
        planes += _byte_planes(column)[:width - low]
    return planes


def reference_dual(f: int, g: int) -> int:
    """The plus dual of family f over a ground of size g, one subset at a
    time: subset s is in dual(f) iff its complement is not in f."""
    full = (1 << g) - 1
    out = 0
    for s in range(1 << g):
        if not (f >> (full ^ s)) & 1:
            out |= 1 << s
    return out


def reference_duality_laws(ground_size: int) -> DualityReport:
    """The reference scan: a dual per family, each law tested on every
    family, no bit planes and no up-closed prefilter.  Exhaustively checks
    the six folklore duality laws over every family of subsets of a ground
    set of the given size.

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
    supersets = [[t for t in range(n_subsets) if s | t == t] for s in range(n_subsets)]

    def members(f: int):
        return [s for s in range(n_subsets) if (f >> s) & 1]

    def is_filter(f: int) -> bool:
        ms = members(f)
        if not ms or (f & 1):  # empty family, or contains the empty set
            return False
        for s in ms:
            for t in supersets[s]:
                if not (f >> t) & 1:
                    return False
            for t in ms:
                if not (f >> (s & t)) & 1:
                    return False
        return True

    def is_superfilter_23(f: int) -> bool:
        ms = members(f)
        for s in ms:
            for t in supersets[s]:
                if not (f >> t) & 1:
                    return False
        for a in range(n_subsets):
            for b in range(n_subsets):
                if (f >> (a | b)) & 1 and not ((f >> a) & 1 or (f >> b) & 1):
                    return False
        return True

    def is_ultrafilter(f: int) -> bool:
        return is_filter(f) and all((f >> s) & 1 or (f >> comp[s]) & 1
                                    for s in range(n_subsets))

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

    filters = [f for f in range(n_families) if is_filter(f)]
    count3 = len(filters)
    viol3 = sum(1 for f in filters
                if not (subset_mask(f, duals[f]) and is_superfilter_23(duals[f])))

    sufs = [f for f in range(n_families)
            if f and not (f & 1) and is_superfilter_23(f)]
    count4 = len(sufs)
    viol4 = sum(1 for f in sufs if not (is_filter(duals[f]) and subset_mask(duals[f], f)))

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


def test_up_closed_families_are_counted_by_dedekind_numbers():
    counts = [_up_closed_families(g).bit_count() for g in (1, 2, 3, 4)]
    assert counts == [3, 6, 20, 168]  # M(1..4)
    for g in (1, 2, 3):
        x = _up_closed_families(g)
        assert {f for f in range(1 << (1 << g)) if (x >> f) & 1} == _up_closed_by_definition(g)


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_identity_planes_are_the_transposed_identity(g):
    n_subsets = 1 << g
    assert _identity_planes(n_subsets) == _bit_planes(range(1 << n_subsets), n_subsets)


def test_ground_4_scan_peak_memory():
    # the scan once built 65,536-int lists and peaked at 3.39 MiB, which
    # showed in the benchmark's peak RSS
    verify_duality_laws(4)
    tracemalloc.start()
    try:
        verify_duality_laws(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


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


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_dual_table_is_the_plus_dual(g):
    # subset mask s stands for {i : bit i of s}
    n_subsets = 1 << g
    ground = frozenset(range(g))
    table = _dual_table(g)
    assert list(table) == [reference_dual(f, g) for f in range(1 << n_subsets)]
    if g == 4:
        return  # 65,536 extensional plus duals take too long
    for f in range(1 << n_subsets):
        fam = SetFamily(ground, frozenset(_subset(s, g) for s in range(n_subsets)
                                          if (f >> s) & 1))
        expected = sum(1 << s for s in range(n_subsets) if _subset(s, g) in plus_dual(fam))
        assert table[f] == expected


def _covering_pairs_broken_at(duals, f0, n_subsets):
    # (f, f | 1<<b) pairs touching f0 whose duals are not antitone
    pairs = [(f0, f0 | 1 << b) if not (f0 >> b) & 1 else (f0 ^ 1 << b, f0)
             for b in range(n_subsets)]
    return sum(1 for small, big in pairs if duals[big] | duals[small] != duals[small])


def _comparable_pairs_broken(duals):
    n = len(duals)
    return sum(1 for big in range(n) for small in range(n)
               if small | big == big and duals[big] | duals[small] != duals[small])


@pytest.mark.parametrize("g", [3, 4])
def test_one_flipped_dual_breaks_laws_1_and_2(monkeypatch, g):
    f0, bit = 0b0110, 0
    mutated = _dual_table(g)
    d0 = mutated[f0]
    mutated[f0] ^= 1 << bit
    monkeypatch.setattr(filters, "_dual_table", lambda _g: list(mutated))
    by_id = {line.law_id: line for line in verify_duality_laws(g).lines}

    # the only double duals that read the flipped entry are those of f0 and d0
    expected_2 = sum(1 for f in (f0, d0) if mutated[mutated[f]] != f)
    # ground 3 scans every comparable pair; at ground 4 only the covering
    # pairs touching f0 can break, since the true table breaks none
    expected_1 = (_comparable_pairs_broken(mutated) if g <= 3
                  else _covering_pairs_broken_at(mutated, f0, 1 << g))
    assert by_id["law-2"].violations == expected_2 > 0
    assert by_id["law-1"].violations == expected_1 > 0
