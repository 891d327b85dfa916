"""Filter/superfilter algebra: duality laws, star sets, symbolic chains."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumgames.filters import (
    PredicateFilter,
    SetFamily,
    SymbolicChain,
    all_subsets,
    chain_check,
    classify_family,
    family,
    fs_tail_chain,
    is_idempotent_filter,
    plus_dual,
    principal_ultrafilter,
    star_set,
    verify_duality_laws,
)
from sumgames.semigroups import ElementSequence, finite_sets, naturals
from sumgames.verdicts import Verdict

NAT = naturals()
FIN = finite_sets()


# ---------------------------------------------------------------- plus dual

def test_plus_dual_small():
    f = family({1, 2}, [{1, 2}])
    assert plus_dual(f).members == frozenset({frozenset({1}), frozenset({2}), frozenset({1, 2})})


def test_plus_dual_of_everything_is_empty():
    ground = frozenset({1, 2})
    f = SetFamily(ground, frozenset(all_subsets(ground)))
    assert plus_dual(f).members == frozenset()


def test_double_dual_is_identity():
    f = family({1, 2}, [{1, 2}])
    assert plus_dual(plus_dual(f)).members == f.members


families_2 = st.sets(
    st.frozensets(st.integers(1, 2), max_size=2), max_size=16).map(
        lambda ms: SetFamily(frozenset({1, 2}), frozenset(ms)))


@given(families_2, families_2)
def test_dual_antitone(f1, f2):
    if f1.members <= f2.members:
        assert plus_dual(f2).members <= plus_dual(f1).members


@given(families_2)
def test_double_dual_property(f):
    assert plus_dual(plus_dual(f)).members == f.members


# ---------------------------------------------------------------- classify

def test_classify_principal_ultrafilter():
    flags = classify_family(principal_ultrafilter({1, 2, 3}, 2))
    assert flags.is_filter and flags.is_ultrafilter
    assert not flags.is_free_filter


def test_classify_trivial_filter():
    flags = classify_family(family({1, 2, 3}, [{1, 2, 3}]))
    assert flags.is_filter and not flags.is_free_filter
    assert not flags.is_ultrafilter


def test_classify_superfilter_conditions():
    # Oracle: exhaustive over all unions A1 ∪ A2 (done inside classify).
    # the upward closure of {1} and {2} in {1, 2, 3}
    fam = family({1, 2, 3}, [{1}, {2}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}])
    flags = classify_family(fam)
    assert flags.is_superfilter
    assert flags.superfilter_surrogate
    assert not flags.is_filter  # {1} ∩ {2} = ∅ is not a member
    assert flags.infinite_members_condition == "unverifiable-on-finite-ground"


# ---------------------------------------------------------------- star sets

def test_star_evens_predicate_filter():
    even = lambda x: x % 2 == 0
    report = star_set(even, PredicateFilter((even,), name="evens"), NAT, window=40)
    assert report.members == [b for b in range(1, 41) if b % 2 == 0]
    assert report.failed == [b for b in range(1, 41) if b % 2 == 1]
    assert report.unknown == []


def test_star_of_ground_is_ground():
    ground = frozenset(all_subsets(frozenset({1, 2, 3}))) - {frozenset()}
    fam = SetFamily(frozenset(ground), frozenset([frozenset(ground)]))
    assert star_set(frozenset(ground), fam, FIN) == frozenset(ground)


def test_star_contains_one_predicate():
    # Oracle over sets within {1..5}: every union with a 1-containing set
    # contains 1, so the star of {F : 1 in F} is the whole truncation.
    has_one = lambda s: 1 in s
    report = star_set(has_one, PredicateFilter((has_one,)), FIN, window=31)
    assert report.members == [FIN.enumeration(i) for i in range(1, 32)]
    assert report.failed == [] and report.unknown == []


def test_star_monotone_in_family_and_set():
    ground = frozenset({1, 2, 3})
    subsets = all_subsets(ground)
    small = family(ground, [{1, 2}])
    big = family(ground, [{1, 2}, {1}])
    A = frozenset({1, 2, 3})
    # F within G gives star(A, F) within star(A, G)
    assert star_set(A, small, NAT) <= star_set(A, big, NAT)
    # monotone in A
    for a1 in subsets:
        for a2 in subsets:
            if a1 <= a2:
                assert star_set(a1, small, NAT) <= star_set(a2, small, NAT)


# ---------------------------------------------------------------- idempotence

def test_fs_tail_filter_idempotent():
    # Oracle: verify star(A_n) absorbs a later link by enumeration.
    seq = ElementSequence.from_fn(NAT, lambda i: 2 ** (i - 1))
    chain = fs_tail_chain(seq)
    assert is_idempotent_filter(chain, NAT, depth=4, window=5) is Verdict.HOLDS


def test_trivial_extensional_filter_idempotent():
    ground = frozenset(all_subsets(frozenset({1, 2, 3}))) - {frozenset()}
    fam = SetFamily(frozenset(ground), frozenset([frozenset(ground)]))
    assert is_idempotent_filter(fam, FIN) is Verdict.HOLDS


def test_union_absorbing_filter_idempotent():
    # Ground: the union semigroup on nonempty subsets of {1, 2}.  The sets
    # holding {1, 2} form a filter, and s ∪ {1, 2} = {1, 2} puts every
    # ground element into each member's star set.
    one, two, top = frozenset({1}), frozenset({2}), frozenset({1, 2})
    fam = family({one, two, top}, [{top}, {one, top}, {two, top}, {one, two, top}])
    assert classify_family(fam).is_filter
    assert all(star_set(A, fam, FIN) == fam.ground for A in fam.members)
    assert is_idempotent_filter(fam, FIN) is Verdict.HOLDS


def test_filter_without_absorbing_member_not_idempotent():
    # {{1}, {2}} is a member, but {1} ∪ {2} lies outside it, so its star
    # set is empty and not in the filter.
    one, two, top = frozenset({1}), frozenset({2}), frozenset({1, 2})
    fam = family({one, two, top}, [{one, two}, {one, two, top}])
    assert classify_family(fam).is_filter
    assert star_set(frozenset({one, two}), fam, FIN) == frozenset()
    assert is_idempotent_filter(fam, FIN) is Verdict.FAILS


# ---------------------------------------------------------------- duality laws

def test_duality_laws_ground_2():
    report = verify_duality_laws(2)
    assert report.families_scanned == 16
    assert report.total_violations == 0


def test_duality_laws_ground_3():
    report = verify_duality_laws(3)
    assert report.families_scanned == 256
    assert report.total_violations == 0
    by_id = {line.law_id: line for line in report.lines}
    # the only ultrafilters on a finite ground are the principal ones
    assert by_id["law-6"].instances == 3
    assert all(line.instances > 0 for line in report.lines)


def test_duality_laws_report_lines():
    lines = verify_duality_laws(2).format_lines()
    assert any("law-1" in line for line in lines)
    assert any("caveat" in line for line in lines)


def test_duality_laws_refuses_large_ground():
    with pytest.raises(ValueError):
        verify_duality_laws(5)


def test_principal_ultrafilters_self_dual():
    for p in (1, 2, 3):
        u = principal_ultrafilter({1, 2, 3}, p)
        assert plus_dual(u).members == u.members


# ---------------------------------------------------------------- chains

def test_fs_tail_chain_passes_chain_check():
    seq = ElementSequence.from_fn(NAT, lambda i: 2 ** (i - 1))
    report = chain_check(fs_tail_chain(seq), depth=3, window=4)
    assert report.verdict is Verdict.HOLDS
    assert not report.descending_failures and not report.freeness_failures
    assert set(report.idem_witness_m) == {1, 2, 3}


def test_fs_tail_chain_fin_semigroup():
    seq = ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
    chain = fs_tail_chain(seq)
    assert chain.set_at(3)(frozenset({3, 5}))
    assert not chain.set_at(3)(frozenset({2}))
    report = chain_check(chain, depth=3, window=4)
    assert report.verdict is Verdict.HOLDS


def test_tail_chain_excludes_early_elements():
    seq = ElementSequence.from_fn(NAT, lambda i: 2 ** (i - 1))
    chain = fs_tail_chain(seq)
    assert not chain.set_at(2)(1)
    assert chain.exclusion_index(1) == 2


def test_constant_chain_fails_freeness():
    # A_n = all of N for every n, so no element is ever excluded
    chain = SymbolicChain(NAT, lambda n: lambda x: True, lambda x: None,
                          lambda n, bound: list(range(1, bound + 1)), name="constant")
    report = chain_check(chain, depth=2, window=4)
    assert report.verdict is Verdict.FAILS
    assert report.freeness_failures


def test_symbolic_chain_needs_its_member_sampler():
    # chain_check and the idempotence check sample links only through
    # members_within, so a chain cannot be built without one
    with pytest.raises(TypeError, match="members_within"):
        SymbolicChain(NAT, lambda n: lambda x: True, lambda x: None)


def test_improper_sequence_chain_lacks_freeness_evidence():
    e = frozenset({1})
    seq = ElementSequence.from_fn(FIN, lambda i: e)
    report = chain_check(fs_tail_chain(seq, index_window=4), depth=2, window=3)
    assert report.verdict is Verdict.FAILS
    assert any(w is None for _, w in report.freeness_failures)
