"""The incremental prefix check of the block searches against a slow
reference built from public functions only, and pinned node counts."""
import random

import pytest

from sumgames.coloring import mod_coloring, seeded_hash_coloring
from sumgames.covers import CoverKind, Space
from sumgames.partition import initial_segment_covers, menger_mt_search
from sumgames.search import (
    Exhausted,
    SearchBudget,
    _prefix_sums,
    hindman_search,
    mt_search,
)
from sumgames.semigroups import (
    ElementSequence,
    IndexedUnion,
    block_chains,
    finite_sets,
    fs_enumerate,
    indexed_unions,
    naturals,
    proper_violation,
)

NAT = naturals()
FIN = finite_sets()


def reference_accepts(sg, terms, chi_edge, d, chi_vertex) -> bool:
    """The prefix check from scratch: proper, one color on all d-chains of
    sums, one color on all sums."""
    n = len(terms)
    seq = ElementSequence.from_terms(sg, terms)
    if proper_violation(seq, n) is not None:
        return False
    sums = fs_enumerate(seq, n)
    if chi_edge is not None:
        colors = {chi_edge.of_set(frozenset(sums[F] for F in ch))
                  for ch in block_chains(n, d)}
        if len(colors) > 1:
            return False
    if chi_vertex is not None and len({chi_vertex.of(v) for v in sums.values()}) > 1:
        return False
    return True


def fold(sg, terms, chi_edge=None, d=0, chi_vertex=None) -> int:
    """Fold the terms through the incremental check, comparing it with the
    reference at every length; returns the longest accepted length."""
    state = None
    for n in range(1, len(terms) + 1):
        state = _prefix_sums(sg, state, terms[n - 1], chi_edge, d, chi_vertex)
        assert (state is not None) == reference_accepts(
            sg, terms[:n], chi_edge, d, chi_vertex), (terms, n)
        if state is None:
            # a rejected prefix is never extended: no extension may pass
            assert not any(reference_accepts(sg, terms[:j], chi_edge, d, chi_vertex)
                           for j in range(n + 1, len(terms) + 1))
            return n - 1
        assert state.sums == fs_enumerate(ElementSequence.from_terms(sg, terms[:n]), n)
    return len(terms)


def union_semigroup(values):
    return indexed_unions(lambda i: values[i - 1], lambda a, b: a | b)


def random_terms(kind, rng, length=6):
    if kind == "naturals":
        return NAT, [rng.randint(1, 40) for _ in range(length)]
    if kind == "multiples-of-3":
        # mod-3 colorings hold until a term off the multiples of 3 comes
        return NAT, [3 * rng.randint(1, 20) if rng.random() < 0.85
                     else rng.randint(1, 60) for _ in range(length)]
    values = [frozenset(rng.sample(range(1, 7), rng.randint(1, 3)))
              for _ in range(length)]
    if kind == "finite-sets":
        return FIN, values
    return union_semigroup(values), [IndexedUnion(gens=frozenset([i]), value=v)
                                     for i, v in enumerate(values, start=1)]


@pytest.mark.parametrize("sg, terms", [
    # a_2 = a_1 + a_3 on the incomparable blocks {2} and {1, 3}
    (NAT, [1, 5, 4]),
    (FIN, [frozenset({1}), frozenset({1, 2}), frozenset({2})]),
    (union_semigroup([frozenset({1}), frozenset({1, 2}), frozenset({2})]),
     [IndexedUnion(gens=frozenset([i]), value=v) for i, v in
      enumerate([frozenset({1}), frozenset({1, 2}), frozenset({2})], start=1)]),
])
def test_equal_sums_on_incomparable_blocks_stay_proper(sg, terms):
    assert fold(sg, terms) == 3


@pytest.mark.parametrize("sg, terms", [
    (NAT, [1, 2, 3]),                                   # a_{1,2} = a_3
    (NAT, [3, 1, 2]),                                   # a_1 = a_{2,3}
    (FIN, [frozenset({1}), frozenset({2}), frozenset({1, 2})]),
    (FIN, [frozenset({1}), frozenset({1})]),            # a_1 = a_2
])
def test_equal_sums_on_comparable_blocks_are_rejected(sg, terms):
    assert fold(sg, terms) == len(terms) - 1


@pytest.mark.parametrize("vertex", [False, True])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind, coloring", [
    ("naturals", "seeded-hash"), ("naturals", "mod"),
    ("multiples-of-3", "mod"), ("finite-sets", "seeded-hash"),
    ("indexed-unions", "seeded-hash"),
])
def test_incremental_check_matches_reference(kind, coloring, d, vertex):
    reached = []
    for seed in range(100):
        rng = random.Random(seed)
        sg, terms = random_terms(kind, rng)
        if coloring == "mod":
            chi_edge, chi_vertex = mod_coloring(3, d), mod_coloring(3)
        else:
            chi_edge = seeded_hash_coloring(2, seed, d)
            chi_vertex = seeded_hash_coloring(2, seed + 1)
        reached.append(fold(sg, terms, chi_edge, d, chi_vertex if vertex else None))
    # some cases hold on two terms or more, and some are rejected; the
    # multiples of 3 under mod-3 colorings reach all six terms
    assert max(reached) >= (6 if kind == "multiples-of-3" else 2)
    assert min(reached) < 6


@pytest.mark.parametrize("kind", ["naturals", "finite-sets", "indexed-unions"])
def test_incremental_properness_matches_reference(kind):
    for seed in range(60):
        sg, terms = random_terms(kind, random.Random(seed))
        fold(sg, terms)


# Node counts of complete searches, as spent before the prefix check was
# made incremental: the search order, and so every count, is unchanged.
@pytest.mark.parametrize("run, nodes", [
    (lambda: hindman_search(seeded_hash_coloring(2, 0), 4,
                            SearchBudget(max_value=20, node_limit=3000)), 287),
    (lambda: mt_search(seeded_hash_coloring(3, 0, d=3), FIN,
                       ElementSequence.from_fn(FIN, lambda i: frozenset({i})),
                       4, 3, SearchBudget(max_index=8, node_limit=4000)), 1280),
    (lambda: menger_mt_search(initial_segment_covers(Space.naturals()),
                              seeded_hash_coloring(2, 101),
                              seeded_hash_coloring(2, 1, d=2), 3, 2,
                              CoverKind.LAMBDA, 6,
                              SearchBudget(max_index=8, node_limit=20000),
                              target_params={"t": 2, "s": 2, "f": 2}), 1007),
])
def test_complete_searches_spend_pinned_nodes(run, nodes):
    out = run()
    assert isinstance(out, Exhausted) and out.complete
    assert out.nodes == nodes
