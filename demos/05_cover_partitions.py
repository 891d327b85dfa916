#!/usr/bin/env python3
"""The cover-partition search and the encodings built around it.

Given descending covers with no finite subcover, the search assembles
disjoint finite subfamilies whose unions form a monochromatic family with
distinct finite unions that still classifies as a cover of the requested
kind.  The cofinite-sets encoding shows the block-sequence theorems are
the special case where the space is a countable discrete one.
"""
from fractions import Fraction

from sumgames import (
    ElementSequence,
    SearchBudget,
    Verdict,
    chain_check,
    classify_cover,
    encode_cofinite_example,
    finite_sets,
    menger_mt_search,
    mt_search,
    upper_density,
)
from sumgames.coloring import Coloring, constant_coloring, seeded_hash_coloring
from sumgames.covers import CoverKind, Space
from sumgames.partition import (
    ap_family,
    build_constrained_chain,
    density_family,
    discrete_comb_search,
    initial_segment_covers,
)

fin = finite_sets()

print("== partition witness over initial-segment covers ==")
dc = initial_segment_covers(Space.naturals())

def max_parity(s):
    elem = next(iter(s))
    return 1 + (max(elem.data) % 2)

chi_v = Coloring(1, 2, max_parity, name="max-parity")
w = menger_mt_search(dc, chi_v, constant_coloring(2, 1), m=2, d=2,
                     target=CoverKind.LAMBDA, horizon=3,
                     budget=SearchBudget(max_index=14), target_params={"t": 2})
print("  index blocks:", [sorted(b) for b in w.index_blocks])
print("  unions:", [sorted(u.data) for u in w.unions],
      "| vertex color:", w.color_vertex)

print("\n== the cofinite-sets encoding ==")
inst = encode_cofinite_example(8)
print("  the O-cover is point-infinite:",
      classify_cover(inst.cover, CoverKind.LAMBDA, horizon=9, t=2) is Verdict.HOLDS)
print("  escape points certified:", inst.dc.check_escapes(8) == [])
chi = seeded_hash_coloring(2, seed=3, d=2)

def chi_on_unions(s):
    return chi.fn(frozenset(inst.decode_union(u) for u in s))

menger = menger_mt_search(inst.dc, None, Coloring(2, 2, chi_on_unions), m=2, d=2,
                          target=CoverKind.OP, horizon=1,
                          budget=SearchBudget(max_index=8))
direct = mt_search(chi, fin, ElementSequence.from_fn(fin, lambda i: frozenset({i})),
                   m=2, d=2, budget=SearchBudget(max_index=8))
print("  decoded partition blocks:", [sorted(b) for b in inst.decode_witness(menger)])
print("  direct block-search finds:", [sorted(b) for b in direct.blocks])

print("\n== constrained chains: progressions and densities ==")
ap_chain = build_constrained_chain(ap_family)
print("  progression chain:", chain_check(ap_chain, depth=4, window=4).verdict.value)
th = {n: Fraction(1, 2) - Fraction(1, n + 2) for n in range(1, 9)}
dens_chain = build_constrained_chain(lambda n: density_family(th[n]))
print("  density chain    :", chain_check(dens_chain, depth=4, window=4).verdict.value)

print("\n== finite-stage densities ==")
evens = upper_density(lambda k: k % 2 == 0, 20)
print("  evens at stage 20:", evens.stage, "| running max:", evens.running_max)

print("\n== the discrete-space instance ==")
w = discrete_comb_search(5, None, constant_coloring(2, 1), m=2, d=2,
                         budget=SearchBudget(max_index=12), s=2)
print("  unions:", [sorted(u.data) for u in w.unions],
      "| coverage:", w.coverage.value, "| target:", w.target.value)
