#!/usr/bin/env python3
"""Filters, superfilters, the plus-dual, star sets, and descending chains.

On a finite ground set everything is decidable outright, so the six
folklore duality laws get checked on every single family.  The scan reads
each dual from a table of the ground-3 duals (the complement of the
family's bit reversal); a ground-4 family is two ground-3 families, its
low and high byte, and its dual is their duals crossed, so antitonicity
and the double dual at ground 4 are settled on the ground-3 table.  The
filter and superfilter laws are tested only on the up-closed families,
since every filter, superfilter and ultrafilter is up-closed.
Over the naturals the objects become membership predicates and the
verdicts become depth-bounded.
"""
from sumgames import (
    ElementSequence,
    Verdict,
    chain_check,
    classify_family,
    fs_tail_chain,
    is_idempotent_filter,
    naturals,
    plus_dual,
    star_set,
    verify_duality_laws,
)
from sumgames.filters import PredicateFilter, family, principal_ultrafilter

nat = naturals()

print("== the plus-dual on a two-point ground ==")
f = family({1, 2}, [{1, 2}])
print("  F = {{1,2}}, F+ =", sorted(sorted(m) for m in plus_dual(f).members))
print("  F++ == F:", plus_dual(plus_dual(f)).members == f.members)

print("\n== classification flags ==")
u = principal_ultrafilter({1, 2, 3}, 2)
flags = classify_family(u)
print("  principal ultrafilter at 2: filter =", flags.is_filter,
      "| ultra =", flags.is_ultrafilter, "| free =", flags.is_free_filter)
print("  note:", flags.infinite_members_condition)

print("\n== exhaustive duality-law scan ==")
report = verify_duality_laws(3)
for line in report.format_lines():
    print(" ", line)

print("\n== star sets over the naturals (window-bounded) ==")
even = lambda x: x % 2 == 0
star = star_set(even, PredicateFilter((even,), name="evens"), nat, window=20)
print("  A = evens, F generated by evens")
print("  members :", star.members)
print("  excluded:", star.failed)

print("\n== the finite-sums tail chain ==")
powers = ElementSequence.from_fn(nat, lambda i: 2 ** (i - 1))
chain = fs_tail_chain(powers)
rep = chain_check(chain, depth=3, window=4)
print("  chain verdict:", rep.verdict.value)
print("  absorption witnesses m per level:", rep.idem_witness_m)
print("  generated filter idempotent:",
      is_idempotent_filter(chain, nat, depth=3, window=4) is Verdict.HOLDS)
