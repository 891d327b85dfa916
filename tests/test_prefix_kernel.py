"""The incremental prefix check of the block searches, and the witnesses
built from its state, against slow references built from public functions
only; pinned node counts; tampered witnesses that the verifiers reject."""
import dataclasses
import functools
import gc
import random
import weakref

import pytest

from sumgames import check as check_module
from sumgames import partition as partition_module
from sumgames import search as search_module
from sumgames.coloring import (
    Coloring,
    canonical_key,
    cardinality_coloring,
    constant_coloring,
    mod_coloring,
    parity_coloring,
    reduce_two_dim_to_one,
    seeded_hash_coloring,
)
from sumgames.covers import CoverKind, SSet, Space
from sumgames.filters import fs_tail_chain
from sumgames.partition import (
    PartitionWitness,
    encode_cofinite_example,
    initial_segment_covers,
    menger_mt_search,
    verify_partition_witness,
)
from sumgames.search import (
    Exhausted,
    SearchBudget,
    Witness,
    _chains_ending_at,
    _color,
    _prefix_sums,
    _PrefixState,
    hindman_search,
    mt_search,
    proper_or_collapse,
    verify_mt_witness,
)
from sumgames.semigroups import (
    BlockSequence,
    ElementSequence,
    _block,
    block_chains,
    chain_sum_sets,
    finite_sets,
    fs_enumerate,
    indexed_sum,
    naturals,
    proper_violation,
    sum_hypergraph,
    take_sumsequence,
)

from chain_reference import chains_ending_at

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


def fold(sg, terms, chi_edge=None, d=0, chi_vertex=None, root=None,
         siblings=()) -> int:
    """Fold the terms through the incremental check, comparing it with the
    reference at every length; returns the longest accepted length.

    From ``root`` (by default a new root state of a search over ``sg``
    under the given colorings), as a search would, every parent is also
    extended by each of the ``siblings`` terms first, and each sibling is
    compared with the reference too.  Every state holds the root's
    tables."""
    root = root or _PrefixState.root(sg, chi_edge, d, chi_vertex)
    state = root
    for n in range(1, len(terms) + 1):
        parent = state
        for last in (*siblings, terms[n - 1]):
            state = _prefix_sums(parent, last)
            assert (state is not None) == reference_accepts(
                sg, terms[:n - 1] + [last], chi_edge, d, chi_vertex), (terms, n, last)
            assert state is None or state.tables is root.tables
        if state is None:
            # a rejected prefix is never extended: no extension may pass
            assert not any(reference_accepts(sg, terms[:j], chi_edge, d, chi_vertex)
                           for j in range(n + 1, len(terms) + 1))
            return n - 1
        want = fs_enumerate(ElementSequence.from_terms(sg, terms[:n]), n)
        assert {_block(mask): v for mask, v in enumerate(state.sums, start=1)} == want
        assert state.sums == list(want.values())
    return len(terms)


UNIONS = check_module._UNIONS


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
    return UNIONS, list(map(SSet.finite, values))


@pytest.mark.parametrize("sg, terms", [
    # a_2 = a_1 + a_3 on the incomparable blocks {2} and {1, 3}
    (NAT, [1, 5, 4]),
    (FIN, [frozenset({1}), frozenset({1, 2}), frozenset({2})]),
    (UNIONS, [SSet.finite(v) for v in [{1}, {1, 2}, {2}]]),
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


def reference_cases(test):
    """The kernel-vs-reference cases: kind of terms, coloring, d, vertex."""
    for mark in (
        pytest.mark.parametrize("kind, coloring", [
            ("naturals", "seeded-hash"), ("naturals", "mod"),
            ("multiples-of-3", "mod"), ("finite-sets", "seeded-hash"),
            ("set-unions", "seeded-hash"),
        ]),
        pytest.mark.parametrize("d", [2, 3]),
        pytest.mark.parametrize("vertex", [False, True]),
    ):
        test = mark(test)
    return test


@reference_cases
def test_incremental_check_matches_reference(kind, coloring, d, vertex, shared_keys=False):
    reached, made = [], []
    for seed in range(100):
        rng = random.Random(seed)
        sg, terms = random_terms(kind, rng)
        siblings = random_terms(kind, rng, length=2)[1] if shared_keys else ()
        if coloring == "mod":
            chi_edge, chi_vertex = mod_coloring(3, d), mod_coloring(3)
        else:
            chi_edge = seeded_hash_coloring(2, seed, d)
            chi_vertex = seeded_hash_coloring(2, seed + 1)
        chi_vertex = chi_vertex if vertex else None
        root = _PrefixState.root(sg, chi_edge, d, chi_vertex)
        made.append(root.tables)
        reached.append(fold(sg, terms, chi_edge, d, chi_vertex, root=root,
                            siblings=siblings))
    # some cases hold on two terms or more, and some are rejected; the
    # multiples of 3 under mod-3 colorings reach all six terms
    assert max(reached) >= (6 if kind == "multiples-of-3" else 2)
    assert min(reached) < 6
    if shared_keys:
        # keys are filled only by keyed colorings, and only with canonical keys
        assert any(tables.keys for tables in made) == (coloring == "seeded-hash")
        for tables in made:
            assert all(key == canonical_key(v) for v, key in tables.keys.items())
            # every value has its own bit, and every stored color is the
            # search's coloring's color of the subject that the mask or
            # value stands for
            assert sorted(tables.bits.values()) == [1 << i for i in range(len(tables.bits))]
            value_of = {bit: v for v, bit in tables.bits.items()}
            for mask, color in tables.edge.items():
                members = [v for bit, v in value_of.items() if mask & bit]
                assert color == tables.chi_edge.of_set(frozenset(members))
            assert all(color == tables.chi_vertex.of(v) for v, color in tables.vertex.items())
        # the edge tables are filled, and the vertex tables only under a
        # vertex coloring
        assert any(tables.edge for tables in made)
        assert any(tables.vertex for tables in made) == vertex


@reference_cases
def test_sibling_prefixes_sharing_one_key_table_match_reference(kind, coloring, d, vertex):
    # each parent is extended by two sibling terms before its own: the
    # siblings fill and read the one set of tables of each seed's search,
    # as the prefixes of one search do
    test_incremental_check_matches_reference(kind, coloring, d, vertex, shared_keys=True)


@pytest.mark.parametrize("kind", ["naturals", "finite-sets", "set-unions"])
def test_incremental_properness_matches_reference(kind):
    for seed in range(60):
        sg, terms = random_terms(kind, random.Random(seed))
        fold(sg, terms)


def wide_terms(kind, rng, length=8):
    """Terms over so many values that no two sums of comparable blocks
    coincide, so that every prefix is proper."""
    if kind == "naturals":
        return NAT, [rng.randint(1, 10 ** 9) for _ in range(length)]
    values = [frozenset(rng.sample(range(1, 1000), 3)) for _ in range(length)]
    if kind == "finite-sets":
        return FIN, values
    return UNIONS, list(map(SSet.finite, values))


@pytest.mark.parametrize("kind", ["naturals", "finite-sets", "set-unions"])
def test_sums_are_listed_in_mask_order(kind):
    # the kernel reads the sum over the block with mask j at position j - 1
    for seed in range(10):
        sg, terms = wide_terms(kind, random.Random(seed))
        seq = ElementSequence.from_terms(sg, terms)
        state = _PrefixState.root(sg)
        for n, term in enumerate(terms, start=1):
            state = _prefix_sums(state, term)
            assert state is not None and len(state.sums) == 2 ** n - 1
            for mask in range(1, 2 ** n):
                want = indexed_sum(seq, _block(mask))
                assert state.sums[mask - 1] == want


@pytest.mark.parametrize("kind", ["naturals", "finite-sets", "set-unions"])
def test_extending_a_parent_leaves_its_state_unchanged(kind):
    outcomes = set()
    for seed in range(40):
        rng = random.Random(seed)
        sg, terms = random_terms(kind, rng)
        siblings = random_terms(kind, rng, length=4)[1]
        chi_edge = seeded_hash_coloring(2, seed, 2)
        chi_vertex = seeded_hash_coloring(2, seed + 1)
        state = _PrefixState.root(sg, chi_edge, 2, chi_vertex)
        for term in terms:
            parent = state
            sums, least_max = parent.sums, parent.least_max
            before = (list(sums), list(least_max.items()))
            for last in (*siblings, term):
                child = _prefix_sums(parent, last)
                outcomes.add(child is not None)
                # the same list and dict, in the same order, with the same entries
                assert parent.sums is sums and parent.least_max is least_max
                assert (list(sums), list(least_max.items())) == before
                assert child is None or child.sums is not sums
            state = child
            if state is None:
                break
    assert outcomes == {True, False}


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", range(1, 13))
def test_head_and_other_chains_are_the_new_chains(n, d):
    def decoded(rest, last=0):
        # positions in the parent's sums, then in the sums that n adds
        return tuple(_block(p + 1) for p in rest) + (_block((1 << (n - 1)) + last),)

    head_positions, other_positions = _chains_ending_at(n, d)
    # the lists as they were built before the chain tables, order included
    assert (head_positions, other_positions) == chains_ending_at(n, d)
    assert isinstance(_chains_ending_at.cache_info().maxsize, int)
    if n > 8:
        return  # the frozen lists pin the rest; the sets below cost seconds
    heads = [decoded(rest) for rest in head_positions]
    others = [decoded(rest, last) for last, rest in other_positions]
    new = set(block_chains(n, d)) - set(block_chains(n - 1, d))
    assert len(heads) + len(others) == len(new)
    assert set(heads) | set(others) == new
    assert all(ch[-1] == frozenset([n]) for ch in heads)
    assert all(ch[-1] != frozenset([n]) for ch in others)


def colliding_terms(kind, rng, length=5):
    """Terms over so few values that sums of comparable blocks often
    coincide, so that a chain's sum set has fewer than d elements."""
    if kind == "naturals":
        return NAT, [rng.randint(1, 3) for _ in range(length)]
    values = [frozenset(rng.sample(range(1, 4), rng.randint(1, 2)))
              for _ in range(length)]
    if kind == "finite-sets":
        return FIN, values
    return UNIONS, list(map(SSet.finite, values))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["naturals", "finite-sets", "set-unions"])
def test_color_from_keys_equals_of_set(kind, d):
    shrunk = 0
    for seed in range(40):
        sg, terms = colliding_terms(kind, random.Random(seed))
        chi = seeded_hash_coloring(3, seed, d)
        sums = fs_enumerate(ElementSequence.from_terms(sg, terms), len(terms))
        tables = _PrefixState.root(sg, chi, d).tables
        for ch in block_chains(len(terms), d):
            values = [sums[F] for F in ch]
            want = chi.of_set(frozenset(values))
            assert chi.of_keys([canonical_key(v) for v in values]) == want
            # the kernel's path, which fills the key table as it goes
            assert _color(chi, values, tables) == want
            shrunk += len(set(values)) < d
        assert all(key == canonical_key(v) for v, key in tables.keys.items())
    assert shrunk > 0


def test_cofinite_unions_under_a_hash_coloring_still_raise_type_error():
    # the cofinite sets have no canonical key (SSet.stable_key formats
    # their points as integers); the kernel now asks for the key, and the
    # failure keeps its type
    with pytest.raises(TypeError):
        menger_mt_search(encode_cofinite_example(6).dc, None,
                         seeded_hash_coloring(2, 0, d=2), 2, 2, CoverKind.OP, 1,
                         SearchBudget(max_index=6))


# Searches with pinned node counts, each as its colorings and a run on
# them.  The hindman and mt counts were pinned before the prefix check was
# made incremental, and are unchanged since.  The menger/lambda counts were
# re-pinned when the search began to drop a prefix whose unions can no
# longer meet the target: the complete search spends 640 nodes; the other,
# of the shape of the cover-partition benchmark's menger/lambda template,
# finds its witness at node 266, and its cut run stops one node before it.
def _menger_lambda(chi_edge, node_limit):
    return menger_mt_search(initial_segment_covers(Space.naturals()), None, chi_edge,
                            3, 2, CoverKind.LAMBDA, 6,
                            SearchBudget(max_index=10, node_limit=node_limit))


PINNED_SEARCHES = {
    "hindman": (lambda: [seeded_hash_coloring(2, 0)],
                lambda chi: hindman_search(chi, 4, SearchBudget(max_value=20, node_limit=3000)),
                (True, 287)),
    "mt": (lambda: [seeded_hash_coloring(3, 0, d=3)],
           lambda chi: mt_search(chi, FIN, ElementSequence.from_fn(FIN, lambda i: frozenset({i})),
                                 4, 3, SearchBudget(max_index=8, node_limit=4000)),
           (True, 1280)),
    "menger-lambda-vertex": (
        lambda: [seeded_hash_coloring(2, 101), seeded_hash_coloring(2, 1, d=2)],
        lambda chi_vertex, chi_edge: menger_mt_search(
            initial_segment_covers(Space.naturals()), chi_vertex, chi_edge, 3, 2,
            CoverKind.LAMBDA, 6, SearchBudget(max_index=8, node_limit=20000),
            target_params={"t": 2, "s": 2, "f": 2}),
        (True, 640)),
    "menger-lambda-cut": (lambda: [seeded_hash_coloring(2, 0, d=2)],
                          lambda chi: _menger_lambda(chi, 265), (False, 265)),
}


@pytest.mark.parametrize("case", list(PINNED_SEARCHES))
def test_searches_spend_pinned_nodes(case):
    colorings, run, (complete, nodes) = PINNED_SEARCHES[case]
    out = run(*colorings())
    assert isinstance(out, Exhausted)
    assert (out.complete, out.nodes) == (complete, nodes)


def test_menger_lambda_witness_is_found_at_its_pinned_node():
    w = _menger_lambda(seeded_hash_coloring(2, 0, d=2), 266)
    assert w.to_record() == {
        "index_blocks": [[1], [2, 3, 4, 5, 6], [7]],
        "families": [[1], [2, 3, 4, 5, 6], [7]],
        "color_vertex": None, "color_edge": 2, "target": "lambda", "coverage": "holds"}


# mt witnesses over the powers of two, each found at its pinned node, with
# its terms and edge sets read from the kernel's state; one under a
# seeded-hash vertex coloring (checked through eta, the reduced coloring),
# one under the fs-tails chain.  Each cut run stops one node before.
POW2 = ElementSequence.from_fn(NAT, lambda i: 2 ** (i - 1))
PINNED_MT_WITNESSES = {
    "vertex": (lambda limit: mt_search(
        seeded_hash_coloring(2, 3, d=2), NAT, POW2, 3, 2,
        SearchBudget(max_index=9, node_limit=limit),
        chi_vertex=seeded_hash_coloring(2, 103)), 767,
        {"blocks": [[1, 2, 4], [5], [7]], "terms": [11, 16, 64],
         "color_vertex": 2, "color_edge": 2, "certificate_size": 5},
        [[11, 16], [11, 80], [11, 64], [27, 64], [16, 64]]),
    "fs-tails-pow2": (lambda limit: mt_search(
        seeded_hash_coloring(2, 4, d=2), NAT, POW2, 4, 2,
        SearchBudget(max_index=10, node_limit=limit), chain=fs_tail_chain(POW2)), 2397,
        {"blocks": [[2, 3], [4, 6], [7], [8]], "terms": [6, 40, 64, 128],
         "color_vertex": None, "color_edge": 2, "certificate_size": 17},
        [[6, 40], [6, 104], [6, 232], [6, 168], [6, 64], [6, 192], [6, 128],
         [46, 64], [46, 192], [46, 128], [110, 128], [70, 128], [40, 64],
         [40, 192], [40, 128], [104, 128], [64, 128]]),
}


@pytest.mark.parametrize("case", list(PINNED_MT_WITNESSES))
def test_mt_witness_is_found_at_its_pinned_node(case):
    run, nodes, record, edge_sets = PINNED_MT_WITNESSES[case]
    w = run(nodes)
    assert w.to_record() == record
    assert [sorted(e) for e in w.certificate["edge_sets"]] == edge_sets
    cut = run(nodes - 1)
    assert isinstance(cut, Exhausted)
    assert (cut.complete, cut.nodes) == (False, nodes - 1)


def counted(chi: Coloring) -> tuple:
    """``chi`` with ``fn`` and ``keyed`` wrapped in one counter, and the
    list to which each evaluation appends the ``canonical_key`` of its
    subject."""
    subjects: list = []

    def fn(s):
        subjects.append(canonical_key(s))
        return chi.fn(s)

    def keyed(key):
        subjects.append(key)
        return chi.keyed(key)

    return dataclasses.replace(chi, fn=fn, keyed=keyed), subjects


@pytest.mark.parametrize("case", list(PINNED_SEARCHES))
def test_each_subject_is_colored_once_per_search(case):
    colorings, run, pinned = PINNED_SEARCHES[case]
    wrapped = [counted(chi) for chi in colorings()]
    out = run(*(chi for chi, _ in wrapped))
    assert (out.complete, out.nodes) == pinned
    for _, subjects in wrapped:
        # one evaluation per distinct (coloring, subject) pair
        assert subjects and len(subjects) == len(set(subjects))


# One small instance of each block search, each of which finds its result
KERNEL_SEARCHES = {
    "hindman": lambda: hindman_search(seeded_hash_coloring(2, 0), 3,
                                      SearchBudget(max_value=12)),
    "mt": lambda: mt_search(seeded_hash_coloring(2, 0, d=2), FIN,
                            ElementSequence.from_fn(FIN, lambda i: frozenset({i})),
                            3, 2, SearchBudget(max_index=6)),
    "proper-or-collapse": lambda: proper_or_collapse(
        ElementSequence.from_fn(NAT, lambda i: 2 ** (i - 1)), 4),
    "cover-partition": lambda: menger_mt_search(
        initial_segment_covers(Space.naturals()), None, seeded_hash_coloring(2, 0, d=2),
        2, 2, CoverKind.OP, 2, SearchBudget(max_index=6)),
}


@pytest.mark.parametrize("case", list(KERNEL_SEARCHES))
def test_every_block_search_checks_its_nodes_with_the_shared_kernel(case, monkeypatch):
    # each node of these instances reaches the prefix check, so a search
    # with a check of its own calls the kernel fewer times than it spends
    # nodes; partition imports the kernel by name, so both names are patched
    calls, budgets = [], []

    def counted_kernel(*args, **kwargs):
        calls.append(args)
        return _prefix_sums(*args, **kwargs)

    class Recorded(search_module._NodeBudget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(search_module, "_prefix_sums", counted_kernel)
    monkeypatch.setattr(partition_module, "_prefix_sums", counted_kernel)
    monkeypatch.setattr(search_module, "_NodeBudget", Recorded)
    assert not isinstance(KERNEL_SEARCHES[case](), Exhausted)
    assert len(budgets) == 1 and budgets[0].used >= 2
    assert len(calls) >= budgets[0].used


def test_search_tables_are_freed_when_the_search_returns(monkeypatch):
    made = []
    root = _PrefixState.root

    def tracked_root(*args, **kwargs):
        state = root(*args, **kwargs)
        made.append(weakref.ref(state.tables))
        return state

    monkeypatch.setattr(_PrefixState, "root", staticmethod(tracked_root))
    runs = [lambda colorings=colorings, run=run: run(*colorings())
            for colorings, run, _ in PINNED_SEARCHES.values()]
    runs.append(lambda: _menger_lambda(seeded_hash_coloring(2, 0, d=2), 266))
    gc.disable()
    try:
        for search in runs:
            before = len(made)
            out = search()
            assert len(made) > before and all(ref() is None for ref in made), out
    finally:
        gc.enable()
    # one root per search, and one more for mt_search's base check
    assert len(made) == len(runs) + 1


# ---------------------------------------------------------------- witnesses

def rebuilt_mt_witness(w, base, chi_edge, chi_vertex, d) -> Witness:
    """The mt witness on w's blocks as rebuilt from scratch: take the
    sumsequence, then list its sum sets again."""
    taken = take_sumsequence(base, w.blocks)
    m = len(w.blocks)
    edges = sum_hypergraph(taken, m, d)
    sums = fs_enumerate(taken, m)
    return Witness(
        blocks=w.blocks,
        terms=tuple(taken.prefix(m)),
        color_vertex=chi_vertex.of(next(iter(sums.values()))) if chi_vertex else None,
        color_edge=chi_edge.of_set(edges[0]),
        certificate={"edge_sets": edges},
    )


def rebuilt_partition_witness(w, chi_edge, chi_vertex, d) -> PartitionWitness:
    """The partition witness on w's families as rebuilt from scratch: the
    unions as a sequence of sets under union, then every sum and chain again,
    for the colors."""
    terms = [functools.reduce(SSet.union, (s for _, s in fam)) for fam in w.families]
    m = len(terms)
    sums = fs_enumerate(ElementSequence.from_terms(UNIONS, terms), m)
    edges = [frozenset(sums[F] for F in ch) for ch in block_chains(m, d)]
    return PartitionWitness(
        families=w.families,
        unions=tuple(terms),
        index_blocks=BlockSequence(tuple(frozenset(j for j, _ in fam) for fam in w.families)),
        color_vertex=chi_vertex.of(next(iter(sums.values()))) if chi_vertex else None,
        color_edge=chi_edge.of_set(edges[0]),
        target=w.target,
        coverage=w.coverage,
    )


def assert_same_certificate(got, want):
    assert set(got.certificate["edge_sets"]) == set(want.certificate["edge_sets"])


def min_parity_coloring() -> Coloring:
    # the parity of a finite set's least element: one color on all unions
    # of blocks whose least indices share a parity
    return Coloring(1, 2, lambda s: 1 + min(next(iter(s))) % 2, name="min-parity")


@pytest.mark.parametrize("vertex", [False, True])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("semigroup", ["naturals", "finite-sets"])
def test_mt_witness_from_state_matches_the_rebuilt_one(semigroup, d, vertex):
    if semigroup == "naturals":
        sg, base = NAT, ElementSequence.from_fn(NAT, lambda i: 2 ** (i - 1))
        chi_vertex = parity_coloring() if vertex else None
    else:
        sg, base = FIN, ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
        chi_vertex = min_parity_coloring() if vertex else None
    found = 0
    for seed in range(12):
        chi_edge = seeded_hash_coloring(2, seed, d=d)
        w = mt_search(chi_edge, sg, base, d + 1, d, SearchBudget(max_index=9),
                      chi_vertex=chi_vertex)
        if isinstance(w, Exhausted):
            continue
        found += 1
        want = rebuilt_mt_witness(w, base, chi_edge, chi_vertex, d)
        # the records hold the blocks, terms, colors and certificate_size
        assert w.to_record() == want.to_record()
        assert_same_certificate(w, want)
    assert found >= 6


def _initial_segments(target, vertex):
    dc = initial_segment_covers(Space.naturals())
    return [(dc, seeded_hash_coloring(2, seed, d=2),
             seeded_hash_coloring(2, 100 + seed) if vertex else None,
             3, target, 6, SearchBudget(max_index=10))
            for seed in range(6)]


def _cofinite(coloring):
    return [(encode_cofinite_example(t).dc, coloring, None, m, target, 1,
             SearchBudget(max_index=t))
            for t in (6, 7) for target in (CoverKind.OP, CoverKind.LAMBDA)
            for m in (2, 3)]


@pytest.mark.parametrize("cases", [
    pytest.param(_initial_segments(target, vertex), id=f"{target.value}-{vertex}")
    for target in (CoverKind.LAMBDA, CoverKind.OMEGA, CoverKind.GAMMA)
    for vertex in (False, True)
] + [
    pytest.param(_cofinite(constant_coloring(2)), id="cofinite-constant"),
    pytest.param(_cofinite(cardinality_coloring(2)), id="cofinite-cardinality"),
])
def test_partition_witness_from_state_matches_the_rebuilt_one(cases):
    found = 0
    for dc, chi_edge, chi_vertex, m, target, horizon, budget in cases:
        w = menger_mt_search(dc, chi_vertex, chi_edge, m, 2, target, horizon, budget)
        if isinstance(w, Exhausted):
            continue
        found += 1
        want = rebuilt_partition_witness(w, chi_edge, chi_vertex, 2)
        assert w.to_record() == want.to_record()
        assert w.unions == want.unions
    assert found == len(cases)


# ---------------------------------------------------------------- tampering

def flip(color: int) -> int:
    return 3 - color  # the other color of a 2-palette


MT_BASE = ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
MT_EDGE = seeded_hash_coloring(2, 0, d=2)
MT_VERTEX = min_parity_coloring()


def replace_last_block(w: Witness) -> Witness:
    # a later block, with the terms taken again so that they still agree
    blocks = list(w.blocks)
    blocks[-1] = frozenset({max(blocks[-1]) + 1})
    return dataclasses.replace(
        w, blocks=BlockSequence(tuple(blocks)),
        terms=tuple(indexed_sum(MT_BASE, F) for F in blocks))


@pytest.mark.parametrize("tamper", [
    lambda w: dataclasses.replace(w, color_edge=flip(w.color_edge)),
    lambda w: dataclasses.replace(w, color_vertex=flip(w.color_vertex)),
    replace_last_block,
    lambda w: dataclasses.replace(w, certificate={
        **w.certificate, "edge_sets": w.certificate["edge_sets"][1:]}),
], ids=["color-edge", "color-vertex", "block", "dropped-edge-set"])
def test_tampered_mt_witness_is_rejected(tamper):
    w = mt_search(MT_EDGE, FIN, MT_BASE, 3, 2, SearchBudget(max_index=7),
                  chi_vertex=MT_VERTEX)
    assert isinstance(w, Witness)
    # the verifier builds the two-dimensional reduction itself unless given one
    eta = reduce_two_dim_to_one(MT_VERTEX, MT_EDGE, FIN)
    for given in ({}, {"eta": eta}):
        assert verify_mt_witness(w, FIN, MT_BASE, MT_EDGE, 2, chi_vertex=MT_VERTEX, **given)
        assert not verify_mt_witness(tamper(w), FIN, MT_BASE, MT_EDGE, 2,
                                     chi_vertex=MT_VERTEX, **given)


def test_improper_mt_witness_is_rejected():
    # over the base 1, 2, 3, ... the blocks {1}, {2}, {3} have a_{1,2} = a_3;
    # everything else about the witness is consistent
    sums = fs_enumerate(ElementSequence.from_terms(NAT, [1, 2, 3]), 3)
    w = Witness(blocks=BlockSequence((frozenset({1}), frozenset({2}), frozenset({3}))),
                terms=(1, 2, 3), color_vertex=None, color_edge=1,
                certificate={"edge_sets": chain_sum_sets(sums, 3, 2)})
    assert not verify_mt_witness(w, NAT, ElementSequence.from_fn(NAT, lambda i: i),
                                 constant_coloring(2), 2)


PARTITION_COVERS = initial_segment_covers(Space.naturals())
PARTITION_EDGE = seeded_hash_coloring(2, 0, d=2)
PARTITION_VERTEX = seeded_hash_coloring(2, 100)


def replace_member(w: PartitionWitness) -> PartitionWitness:
    # the last family's first member carries the set of another index
    families = list(w.families)
    (j, _), *rest = families[-1]
    families[-1] = ((j, PARTITION_COVERS.member_set(j + 1)), *rest)
    return dataclasses.replace(w, families=tuple(families))


@pytest.mark.parametrize("tamper", [
    lambda w: dataclasses.replace(w, color_edge=flip(w.color_edge)),
    lambda w: dataclasses.replace(w, color_vertex=flip(w.color_vertex)),
    replace_member,
    lambda w: dataclasses.replace(w, unions=(w.unions[1],) + w.unions[1:]),
    lambda w: dataclasses.replace(w, index_blocks=BlockSequence(w.index_blocks[:-1])),
], ids=["color-edge", "color-vertex", "family-member", "union", "index-blocks"])
def test_tampered_partition_witness_is_rejected(tamper):
    w = menger_mt_search(PARTITION_COVERS, PARTITION_VERTEX, PARTITION_EDGE, 3, 2,
                         CoverKind.LAMBDA, 6, SearchBudget(max_index=10))
    assert isinstance(w, PartitionWitness)
    check = functools.partial(verify_partition_witness, dc=PARTITION_COVERS,
                              chi_edge=PARTITION_EDGE, d=2,
                              chi_vertex=PARTITION_VERTEX, horizon=6)
    assert check(w)
    assert not check(tamper(w))
