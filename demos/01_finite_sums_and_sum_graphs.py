#!/usr/bin/env python3
"""Finite sums, blocks, sumsequences, and sum graphs.

Everything in this package grows out of one definition: for a sequence
a_1, a_2, ... in a semigroup and a nonempty finite index set F, the sum
a_F folds the terms at F's indices in increasing order.  Distinct powers
of two make every a_F distinct (binary representations), which is the
model case of a *proper* sequence.
"""
from sumgames import (
    BlockSequence,
    ElementSequence,
    finite_sets,
    fs_enumerate,
    is_proper_up_to,
    naturals,
    proper_violation,
    sum_hypergraph,
    take_sumsequence,
)

nat = naturals()
fin = finite_sets()

print("== finite sums of (1, 2, 4) ==")
seq = ElementSequence.from_terms(nat, [1, 2, 4])
for block, value in sorted(fs_enumerate(seq, 3).items(), key=lambda kv: sorted(kv[0])):
    print(f"  a_{sorted(block)} = {value}")

print("\n== a sumsequence and its provenance ==")
base = ElementSequence.from_terms(nat, [1, 2, 4, 8, 16, 32])
blocks = BlockSequence((frozenset({1, 2}), frozenset({3, 4}), frozenset({5, 6})))
sub = take_sumsequence(base, blocks)
print("  blocks:", [sorted(b) for b in blocks])
print("  terms :", sub.prefix(3))
print("  FS of the sumsequence is a subset of FS of the base:",
      set(fs_enumerate(sub, 3).values()) <= set(fs_enumerate(base, 6).values()))

print("\n== properness is about comparable blocks ==")
bad = ElementSequence.from_terms(nat, [1, 2, 3])
violation = proper_violation(bad, 3)
print("  (1,2,3) collides:", [sorted(b) for b in violation], " since 1+2 = 3")
good = ElementSequence.from_terms(nat, [1, 2, 4])
print("  (1,2,4) proper up to depth 3:", is_proper_up_to(good, 3))

print("\n== the sum graph (d = 2) and the 3-uniform version ==")
edges = sum_hypergraph(good, 3, 2)
print(f"  {len(edges)} edges at depth 3:", sorted(sorted(e) for e in edges))
deep = ElementSequence.from_terms(nat, [1, 2, 4, 8])
triples = sum_hypergraph(deep, 4, 3)
print(f"  {len(triples)} triples at depth 4, first:", sorted(triples[0]))

print("\n== union semigroups are all idempotent ==")
e = frozenset({1, 2})
print("  {1,2} ∪ {1,2} == {1,2}:", fin.combine(e, e) == e)
const = ElementSequence.from_terms(fin, [e, e, e])
print("  constant sequence improper:", not is_proper_up_to(const, 2),
      "->", [sorted(b) for b in proper_violation(const, 2)])
