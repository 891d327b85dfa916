#!/usr/bin/env python3
"""Witness searches: finite-sums sets, Schur thresholds, sum graphs, and
the proper-or-collapse dichotomy.

Every search returns either a certificate that re-verifies independently
of the search path, or an explicit account of why it stopped (space
exhausted versus budget exhausted).
"""
from sumgames import (
    Collapse,
    ElementSequence,
    Proper,
    SearchBudget,
    finite_sets,
    hindman_search,
    mt_search,
    naturals,
    proper_or_collapse,
    threshold_search,
)
from sumgames.coloring import cardinality_coloring, parity_coloring, seeded_hash_coloring
from sumgames.search import Witness, verify_mt_witness

nat = naturals()
fin = finite_sets()

print("== monochromatic finite sums under the parity coloring ==")
w = hindman_search(parity_coloring(), 2, SearchBudget(max_value=7))
print("  terms:", w.terms, "| FS values:", sorted(w.certificate["fs_values"]),
      "| color:", w.color_vertex)

print("\n== the Schur-type threshold for two colors ==")
rep = threshold_search(2, allow_repeats=True)
print("  least N forcing a monochromatic {x, y, x+y}:", rep.n)
print("  avoider at N-1:", rep.avoider, "(classes {1,4} and {2,3})")
print("  confirmed by the forward-checking enumerator:", rep.confirmed_independent)

print("\n== sum-graph search over the union semigroup ==")
singletons = ElementSequence.from_fn(fin, lambda i: frozenset({i}))
chi = seeded_hash_coloring(2, seed=4, d=2)
w = mt_search(chi, fin, singletons, m=3, d=2, budget=SearchBudget(max_index=8))
if isinstance(w, Witness):
    print("  blocks:", [sorted(b) for b in w.blocks])
    print("  edge color:", w.color_edge,
          "| certificate size:", len(w.certificate["edge_sets"]))
    print("  re-verifies:", verify_mt_witness(w, fin, singletons, chi, 2))

print("\n== the dichotomy: proper sumsequence or idempotent collapse ==")
stabilizing = ElementSequence.from_terms(
    fin, [frozenset({1}), frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2})])
out = proper_or_collapse(stabilizing, depth=4)
assert isinstance(out, Collapse)
print("  stabilizing unions collapse to", sorted(out.element),
      "with e ∪ e = e")

powers = ElementSequence.from_terms(nat, [1, 2, 4, 8, 16])
out = proper_or_collapse(powers, depth=4)
assert isinstance(out, Proper)
print("  powers of two stay proper via blocks", [sorted(b) for b in out.blocks])

print("\n== cardinality coloring forces color 2 on proper witnesses ==")
w = mt_search(cardinality_coloring(2), fin, singletons, m=3, d=2,
              budget=SearchBudget(max_index=6))
print("  edge color:", w.color_edge, "(all endpoints distinct)")
