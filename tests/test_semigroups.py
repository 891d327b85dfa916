"""Core finite-sums machinery: blocks, FS enumeration, sumsequences."""
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumgames.semigroups import (
    BlockOrderError,
    BlockSequence,
    ElementSequence,
    ImproperSequenceError,
    block_chains,
    chain_sum_sets,
    chain_table,
    block_less,
    blocks_within,
    finite_sets,
    fs_enumerate,
    indexed_sum,
    is_proper_up_to,
    least_collision,
    make_block,
    naturals,
    proper_violation,
    sum_hypergraph,
    take_sumsequence,
)

from chain_reference import block_chains as recursive_block_chains

NAT = naturals()
FIN = finite_sets()


def nat_seq(*terms):
    return ElementSequence.from_terms(NAT, terms)


def fin_seq(*terms):
    return ElementSequence.from_terms(FIN, [frozenset(t) for t in terms])


# ---------------------------------------------------------------- blocks

def test_block_less():
    assert block_less(make_block({1, 2}), make_block({4, 7}))
    assert not block_less(make_block({1, 5}), make_block({5}))
    assert not block_less(make_block({3}), make_block({1, 9}))


def test_block_sequence_rejects_order_violation():
    with pytest.raises(BlockOrderError):
        BlockSequence((frozenset({1, 3}), frozenset({2})))


def test_make_block_rejects_empty_and_zero():
    with pytest.raises(ValueError):
        make_block(())
    with pytest.raises(ValueError):
        make_block({0, 1})


@given(st.sets(st.integers(1, 8), min_size=1), st.sets(st.integers(1, 8), min_size=1))
def test_block_less_matches_elementwise_definition(f, h):
    # F < H iff every element of F is below every element of H.
    expected = all(a < b for a in f for b in h)
    assert block_less(frozenset(f), frozenset(h)) == expected


def test_blocks_within_count():
    assert len(list(blocks_within(4))) == 15
    assert len(list(blocks_within(0))) == 0


# ---------------------------------------------------------------- indexed sums

def test_indexed_sum_examples():
    assert indexed_sum(nat_seq(1, 2, 4), {1, 3}) == 5
    assert indexed_sum(fin_seq({1}, {2}, {3}), {1, 2, 3}) == frozenset({1, 2, 3})
    assert indexed_sum(nat_seq(7), {1}) == 7


def test_indexed_sum_out_of_range():
    with pytest.raises(IndexError):
        indexed_sum(nat_seq(1, 2), {3})


def test_fs_enumerate_binary():
    sums = fs_enumerate(nat_seq(1, 2, 4), 3)
    assert len(sums) == 7
    assert sorted(sums.values()) == [1, 2, 3, 4, 5, 6, 7]


def test_fs_enumerate_repeats_and_absorption():
    sums = fs_enumerate(nat_seq(1, 1), 2)
    assert sorted(sums.values()) == [1, 1, 2]
    assert sums[frozenset({1})] == sums[frozenset({2})] == 1

    fsums = fs_enumerate(fin_seq({1}, {1, 2}), 2)
    assert sorted(fsums.values(), key=sorted) == [
        frozenset({1}), frozenset({1, 2}), frozenset({1, 2})]


def test_fs_enumerate_zero_is_empty():
    assert fs_enumerate(nat_seq(1), 0) == {}


@given(st.lists(st.integers(1, 50), min_size=1, max_size=6))
def test_fs_enumerate_against_bruteforce(terms):
    # Independent oracle: fold each subset directly.
    seq = nat_seq(*terms)
    n = len(terms)
    sums = fs_enumerate(seq, n)
    assert len(sums) == 2 ** n - 1
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(1, n + 1), r):
            assert sums[frozenset(combo)] == sum(terms[i - 1] for i in combo)


# ---------------------------------------------------------------- sumsequences

def test_take_sumsequence_basic():
    seq = nat_seq(1, 2, 4, 8)
    out = take_sumsequence(seq, BlockSequence((frozenset({1, 2}), frozenset({3, 4}))))
    assert out.prefix(2) == [3, 12]


def test_take_sumsequence_identity_prefix():
    seq = nat_seq(5, 6, 7)
    out = take_sumsequence(seq, BlockSequence((frozenset({1}), frozenset({2}), frozenset({3}))))
    assert out.prefix(3) == [5, 6, 7]


def test_take_sumsequence_fin():
    seq = fin_seq({1}, {2}, {3})
    out = take_sumsequence(seq, BlockSequence((frozenset({1, 2}), frozenset({3}))))
    assert out.prefix(2) == [frozenset({1, 2}), frozenset({3})]


def test_sumsequence_composition_is_transitive():
    # Taking a sumsequence of a sumsequence equals taking one with composed blocks.
    seq = nat_seq(1, 2, 4, 8, 16, 32)
    inner = BlockSequence((frozenset({1, 2}), frozenset({3}), frozenset({4, 5}), frozenset({6})))
    mid = take_sumsequence(seq, inner)
    outer = BlockSequence((frozenset({1, 3}), frozenset({4})))
    final = take_sumsequence(mid, outer)
    composed = BlockSequence((frozenset({1, 2, 4, 5}), frozenset({6})))
    direct = take_sumsequence(seq, composed)
    assert final.prefix(2) == direct.prefix(2) == [27, 32]


@given(st.lists(st.integers(1, 2), min_size=1, max_size=3),
       st.lists(st.integers(1, 9), min_size=6, max_size=6))
def test_sumsequence_sums_are_base_sums_over_block_unions(sizes, terms):
    # b_F = a_{union of the blocks B_i, i in F} for consecutive blocks
    seq = nat_seq(*terms)
    starts = list(itertools.accumulate([1] + sizes))
    blocks = BlockSequence(tuple(frozenset(range(lo, lo + k))
                                 for lo, k in zip(starts, sizes)))
    taken = fs_enumerate(take_sumsequence(seq, blocks), len(blocks))
    base = fs_enumerate(seq, blocks.max_index)
    for F, value in taken.items():
        assert value == base[frozenset().union(*(blocks[i - 1] for i in F))]


def test_fs_of_sumsequence_is_subset():
    seq = nat_seq(1, 2, 4, 8)
    sub = take_sumsequence(seq, BlockSequence((frozenset({1, 2}), frozenset({3, 4}))))
    fs_sub = set(fs_enumerate(sub, 2).values())
    fs_all = set(fs_enumerate(seq, 4).values())
    assert fs_sub <= fs_all


@given(st.lists(st.integers(1, 9), min_size=2, max_size=5))
def test_right_to_left_sum_consistency(terms):
    # a_{F ∪ H} = a_F + a_H for F < H.
    seq = nat_seq(*terms)
    n = len(terms)
    sums = fs_enumerate(seq, n)
    for F, H in block_chains(n, 2):
        combined = NAT.combine(sums[F], sums[H])
        assert sums[F | H] == combined


def test_all_fin_elements_idempotent():
    for i in range(1, 40):
        e = FIN.enumeration(i)
        assert FIN.combine(e, e) == e


# ---------------------------------------------------------------- properness

def test_powers_of_two_proper():
    seq = nat_seq(*(2 ** i for i in range(6)))
    for depth in range(1, 7):
        assert is_proper_up_to(seq, depth)


def test_constant_fin_improper():
    seq = fin_seq({1}, {1})
    assert proper_violation(seq, 2) == (frozenset({1}), frozenset({2}))


def test_least_violation_1_2_3():
    # Oracle: brute force over all block pairs; 1+2=3 collides with a_3.
    seq = nat_seq(1, 2, 3)
    assert proper_violation(seq, 3) == (frozenset({1, 2}), frozenset({3}))


@given(st.lists(st.integers(1, 16), min_size=1, max_size=5))
def test_fs_value_count_bounds(terms):
    # |FS values| <= 2^n - 1, and a full count forces properness.  (The
    # converse fails: properness constrains comparable blocks only, e.g.
    # (1,3,2) is proper yet a_{1,3} = a_2.)
    seq = nat_seq(*terms)
    n = len(terms)
    values = set(fs_enumerate(seq, n).values())
    assert len(values) <= 2 ** n - 1
    if len(values) == 2 ** n - 1:
        assert is_proper_up_to(seq, n)


def _least_collision_oracle(sums):
    # every pair of blocks, no grouping by value
    pairs = [(F, H) for F in sums for H in sums
             if block_less(F, H) and sums[F] == sums[H]]
    return min(pairs, key=lambda p: (sorted(p[0]), sorted(p[1])), default=None)


@given(st.one_of(
    st.lists(st.integers(1, 6), min_size=1, max_size=5).map(lambda ts: nat_seq(*ts)),
    st.lists(st.frozensets(st.integers(1, 3), min_size=1), min_size=1,
             max_size=5).map(lambda ts: fin_seq(*ts))))
def test_least_collision_reads_the_sums_map(seq):
    # small values make most draws improper, so both outcomes are covered
    n = seq.length
    sums = fs_enumerate(seq, n)
    assert least_collision(sums) == proper_violation(seq, n)
    assert least_collision(sums) == _least_collision_oracle(sums)


def test_proper_sequence_with_incomparable_collision():
    seq = nat_seq(1, 3, 2)
    assert is_proper_up_to(seq, 3)
    assert len(set(fs_enumerate(seq, 3).values())) == 6


# ---------------------------------------------------------------- hypergraphs

def test_sum_hypergraph_single_edge():
    assert sum_hypergraph(nat_seq(1, 2), 2, 2) == [frozenset({1, 2})]


def test_sum_hypergraph_depth3_counts():
    # Oracle (frozen): chains F<H inside {1..3} enumerate to exactly 5, and
    # for the proper base (1,2,4) all 5 value edges are distinct.
    seq = nat_seq(1, 2, 4)
    assert len(list(block_chains(3, 2))) == 5
    edges = sum_hypergraph(seq, 3, 2)
    assert len(edges) == 5
    assert frozenset({1, 2}) in edges and frozenset({3, 4}) in edges


def test_sum_hypergraph_d1_is_fs_set():
    seq = nat_seq(1, 2, 4)
    singletons = sum_hypergraph(seq, 3, 1)
    assert sorted(next(iter(s)) for s in singletons) == [1, 2, 3, 4, 5, 6, 7]


def test_chain_sum_sets_list_a_repeated_sum_set_once():
    # a_2 = a_{1,3} = 5 on incomparable blocks, so the chains ({2}, {4}) and
    # ({1, 3}, {4}) share the sum set {5, 20}; the sequence stays proper
    seq = nat_seq(1, 5, 4, 20)
    edges = chain_sum_sets(fs_enumerate(seq, 4), 4, 2)
    assert edges == sum_hypergraph(seq, 4, 2)
    assert len(edges) == len(set(edges)) < len(list(block_chains(4, 2)))
    assert frozenset({5, 20}) in edges


def _chain_sum_sets_regenerated(sums: dict, n: int, d: int) -> list:
    """chain_sum_sets as it was before chain tables: the chains regenerated
    on every call."""
    return list(dict.fromkeys(frozenset(sums[F] for F in chain)
                              for chain in recursive_block_chains(n, d)))


def _random_proper(sg, n, term):
    for _ in range(100):
        seq = ElementSequence.from_terms(sg, [term() for _ in range(n)])
        if is_proper_up_to(seq, n):
            return seq
    raise AssertionError("no proper sequence drawn")


@pytest.mark.parametrize("n", range(9))
def test_chain_table_is_block_chains_built_once(n):
    for d in range(1, 5):
        table = chain_table(n, d)
        assert type(table) is tuple and all(type(chain) is tuple for chain in table)
        assert table == tuple(recursive_block_chains(n, d))
        # one object per block, shared by every chain that holds it
        blocks = [F for chain in table for F in chain]
        assert len(set(map(id, blocks))) == len(set(blocks))
        assert chain_table(n, d) is table
    assert isinstance(chain_table.cache_info().maxsize, int)


@pytest.mark.parametrize("n", range(1, 9))
def test_chain_sum_sets_equal_regenerated_chains(n):
    rng = random.Random(n)
    draws = [(NAT, lambda: rng.randint(1, 10 ** 6)),
             (FIN, lambda: frozenset(rng.sample(range(1, 41), rng.randint(1, 3))))]
    for sg, term in draws:
        for _ in range(5):
            sums = fs_enumerate(_random_proper(sg, n, term), n)
            for d in range(1, 5):
                assert chain_sum_sets(sums, n, d) == _chain_sum_sets_regenerated(sums, n, d)


def test_sum_hypergraph_rejects_improper():
    with pytest.raises(ImproperSequenceError):
        sum_hypergraph(nat_seq(1, 2, 3), 3, 2)


def test_semigroup_sampled_invariants():
    # combine associative and enumeration injective on sampled inputs.
    for sg, upto in ((NAT, 12), (FIN, 12)):
        elems = [sg.enumeration(i) for i in range(1, upto + 1)]
        for a, b, c in itertools.product(elems[:6], repeat=3):
            assert sg.combine(sg.combine(a, b), c) == sg.combine(a, sg.combine(b, c))
        assert len(set(elems)) == upto


def test_generator_backed_memoization():
    calls = []

    def fn(i):
        calls.append(i)
        return 2 ** (i - 1)

    seq = ElementSequence.from_fn(NAT, fn)
    assert seq.term(4) == 8
    assert seq.term(2) == 2
    assert calls == [1, 2, 3, 4]  # memoized: no recomputation
    assert seq.length is None
