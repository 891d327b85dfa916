"""Witness searches: Hindman, Milliken–Taylor, Schur thresholds, dichotomy."""
import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import random
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumgames import search as search_module
from sumgames.check import (
    verify_avoider,
    verify_hindman_witness,
    verify_mt_witness,
    verify_refutation,
)
from sumgames.cli import EXIT_OK, main
from sumgames.coloring import (
    Coloring,
    cardinality_coloring,
    constant_coloring,
    parity_coloring,
    reduce_two_dim_to_one,
    seeded_hash_coloring,
)
from sumgames.search import (
    Collapse,
    DichotomyUnknown,
    Exhausted,
    Proper,
    SearchBudget,
    ThresholdReport,
    Witness,
    hindman_search,
    mt_search,
    proper_or_collapse,
    threshold_search,
    verify_dichotomy,
)
from sumgames.search import (
    _NodeBudget,
    _avoider_exists_fc,
    _candidate_blocks,
    _lex_first_avoider,
    _base_sums,
)
from sumgames.semigroups import (
    BlockSequence,
    CertificateError,
    ElementSequence,
    ImproperSequenceError,
    _block,
    block_key,
    chain_table,
    finite_sets,
    indexed_sum,
    is_proper_up_to,
    naturals,
    proper_violation,
    sum_hypergraph,
    take_sumsequence,
)
from sumgames.filters import fs_tail_chain

NAT = naturals()
FIN = finite_sets()


# ---------------------------------------------------------------- hindman

def test_hindman_parity_small():
    w = hindman_search(parity_coloring(), 2, SearchBudget(max_value=7))
    assert isinstance(w, Witness)
    assert w.terms == (2, 4)
    assert sorted(w.certificate["fs_values"]) == [2, 4, 6]
    assert verify_hindman_witness(w, parity_coloring())


def test_hindman_constant_prefers_proper_witness():
    # (1,2,3) is rejected: a_{1,2} = a_3; the least proper triple is (1,2,4).
    w = hindman_search(constant_coloring(1, 1), 3, SearchBudget(max_value=7))
    assert isinstance(w, Witness)
    assert w.terms == (1, 2, 4)


def test_hindman_known_avoider_exhausts():
    # Oracle: {1,4 | 2,3} admits no monochromatic {x, y, x+y} inside {1..4}.
    chi = Coloring(1, 2, lambda s: {1: 1, 4: 1, 2: 2, 3: 2}[min(s)])
    out = hindman_search(chi, 2, SearchBudget(max_value=4))
    assert isinstance(out, Exhausted)
    assert out.complete


def test_hindman_budget_exhaustion_is_distinct():
    chi = Coloring(1, 2, lambda s: {1: 1, 4: 1, 2: 2, 3: 2}[min(s)])
    out = hindman_search(chi, 2, SearchBudget(max_value=4, node_limit=2))
    assert isinstance(out, Exhausted)
    assert not out.complete


# ---------------------------------------------------------------- mt search

def fin_singletons():
    return ElementSequence.from_fn(FIN, lambda i: frozenset({i}))


def pow2_base(n=8):
    return ElementSequence.from_terms(NAT, [2 ** i for i in range(n)])


def test_mt_constant_fin():
    w = mt_search(constant_coloring(2, 1), FIN, fin_singletons(), m=3, d=2,
                  budget=SearchBudget(max_index=6))
    assert isinstance(w, Witness)
    assert tuple(tuple(sorted(b)) for b in w.blocks) == ((1,), (2,), (3,))
    assert verify_mt_witness(w, FIN, fin_singletons(), constant_coloring(2, 1), 2)


def test_mt_search_caches_only_the_table_its_check_reads():
    # the per-depth chain lists build their (n - 1, d - 1) tables past
    # chain_table's cache, so after a search it holds the (m, d) table of
    # the witness check alone
    chain_table.cache_clear()
    search_module._chains_ending_at.cache_clear()
    w = mt_search(constant_coloring(3, 1), FIN, fin_singletons(), m=5, d=3,
                  budget=SearchBudget(max_index=5))
    assert isinstance(w, Witness)
    info = chain_table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_mt_cardinality_witness_color_two():
    w = mt_search(cardinality_coloring(2), FIN, fin_singletons(), m=3, d=2,
                  budget=SearchBudget(max_index=6))
    assert isinstance(w, Witness)
    assert w.color_edge == 2  # proper: endpoints always distinct


def test_mt_parity_pair_naturals():
    # Oracle: any single depth-2 edge is trivially monochromatic, so the
    # least block pair ({1},{2}) wins; its edge color is parity(1+2).
    chi = parity_coloring(2)
    w = mt_search(chi, NAT, pow2_base(6), m=2, d=2, budget=SearchBudget(max_index=6))
    assert isinstance(w, Witness)
    assert tuple(tuple(sorted(b)) for b in w.blocks) == ((1,), (2,))
    assert w.color_edge == chi.of(1, 2)
    assert verify_mt_witness(w, NAT, pow2_base(6), chi, 2)


def test_mt_improper_base_rejected():
    base = ElementSequence.from_terms(NAT, [1, 2, 3, 9])
    with pytest.raises(ImproperSequenceError):
        mt_search(constant_coloring(2, 1), NAT, base, m=2, d=2,
                  budget=SearchBudget(max_index=4))


def _random_finite_set_base(seed, length=8):
    rng = random.Random(seed)
    return ElementSequence.from_terms(
        finite_sets(), [frozenset(rng.sample(range(1, 7), rng.randint(1, 3)))
                        for _ in range(length)])


def nat_seq(*terms):
    return ElementSequence.from_terms(NAT, terms)


# improper from index 3 and from index 2, each continued by powers of two to
# 8 terms, then random finite sets, most of them improper at some index <= 8
_BASES = ([nat_seq(1, 2, 3, 8, 16, 32, 64, 128), nat_seq(1, 1, 4, 8, 16, 32, 64, 128)]
                   + [_random_finite_set_base(seed) for seed in range(12)])


@pytest.mark.parametrize("base", _BASES + [pow2_base(), nat_seq(1, 3, 2, 9)],
                         ids=lambda base: repr(base))
def test_base_properness_fold_agrees_with_proper_violation(base):
    # None exactly when the base collides; else the sum of every block, by mask
    for hi in range(0, min(8, base.length or 8) + 1):
        sums = _base_sums(base, hi)
        assert (sums is None) == (proper_violation(base, hi) is not None), hi
        if sums is not None:
            assert sums == [indexed_sum(base, _block(mask)) for mask in range(1, 1 << hi)], hi


@pytest.mark.parametrize("sg, base", [(NAT, pow2_base()), (FIN, fin_singletons())],
                         ids=["naturals", "finite-sets"])
@pytest.mark.parametrize("d", [2, 3])
def test_mt_search_reads_block_sums_from_the_base_fold(sg, base, d, monkeypatch):
    def run(seed):
        return mt_search(seeded_hash_coloring(2, seed, d=d), sg, base, 3, d,
                         SearchBudget(max_index=8, node_limit=20000))

    want = [run(seed) for seed in range(4)]

    def no_fold(*_args):
        raise AssertionError("mt_search folded a block sum again")

    monkeypatch.setattr(search_module, "indexed_sum", no_fold)
    assert [run(seed) for seed in range(4)] == want
    assert all(isinstance(w, Witness) for w in want)


@pytest.mark.parametrize("base", _BASES, ids=lambda base: repr(base))
def test_mt_search_rejects_an_improper_base_as_proper_violation_does(base):
    chi = seeded_hash_coloring(2, 1, 2)
    for hi in range(2, 9):
        if proper_violation(base, hi) is None:
            assert mt_search(chi, base.semigroup, base, 2, 2,
                             SearchBudget(max_index=hi)) is not None
        else:
            with pytest.raises(ImproperSequenceError,
                               match=f"base improper up to index {hi}"):
                mt_search(chi, base.semigroup, base, 2, 2, SearchBudget(max_index=hi))


def test_mt_rejects_fewer_blocks_than_d():
    # m blocks hold no chain of d > m blocks, so there is no edge to color
    with pytest.raises(ValueError, match="m=2 < d=3"):
        mt_search(seeded_hash_coloring(2, 1, 3), NAT, pow2_base(), m=2, d=3,
                  budget=SearchBudget(max_index=6))


def test_mt_d3_single_chain_certificate():
    w = mt_search(constant_coloring(3, 1), FIN, fin_singletons(), m=3, d=3,
                  budget=SearchBudget(max_index=5))
    assert isinstance(w, Witness)
    assert len(w.certificate["edge_sets"]) == 1
    assert verify_mt_witness(w, FIN, fin_singletons(), constant_coloring(3, 1), 3)


def test_mt_d3_cardinality_color():
    w = mt_search(cardinality_coloring(3), FIN, fin_singletons(), m=3, d=3,
                  budget=SearchBudget(max_index=5))
    assert isinstance(w, Witness)
    assert w.color_edge == 3


def test_mt_d1_is_fs_search():
    # d = 1 asks for a monochromatic finite-sums set of the sumsequence.
    chi = parity_coloring(1)
    base = ElementSequence.from_terms(NAT, [2, 4, 8, 16, 32])
    w = mt_search(chi, NAT, base, m=2, d=1, budget=SearchBudget(max_index=5))
    assert isinstance(w, Witness)
    assert w.color_edge == 1  # even
    assert len(w.certificate["edge_sets"]) == 3  # singletons of a 2-term FS set
    assert verify_mt_witness(w, NAT, base, chi, 1)


def test_mt_with_vertex_coloring_both_monochromatic():
    chi_v = parity_coloring()
    chi_e = constant_coloring(2, 1)
    base = ElementSequence.from_terms(NAT, [2, 4, 8, 16, 32, 64])
    w = mt_search(chi_e, NAT, base, m=2, d=2,
                  budget=SearchBudget(max_index=6), chi_vertex=chi_v)
    assert isinstance(w, Witness)
    assert w.color_vertex == 1  # everything even
    values = (*w.terms, sum(w.terms))  # the finite sums of two terms
    assert all(v % 2 == 0 for v in values)
    assert verify_mt_witness(w, NAT, base, chi_e, 2, chi_vertex=chi_v)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("sg, base", [(NAT, pow2_base(10)), (FIN, fin_singletons())],
                         ids=["naturals", "finite-sets"])
def test_mt_verdict_is_the_same_with_and_without_eta(sg, base, seed):
    # without eta the verifier builds the reduction from sg, as callers did
    chi_e, chi_v = seeded_hash_coloring(2, seed, d=2), seeded_hash_coloring(2, 100 + seed)
    eta = reduce_two_dim_to_one(chi_v, chi_e, sg)
    w = mt_search(chi_e, sg, base, 3, 2, SearchBudget(max_index=10), chi_vertex=chi_v)
    assert isinstance(w, Witness)
    tampered = dataclasses.replace(w, color_vertex=3 - w.color_vertex)
    for candidate, verdict in ((w, True), (tampered, False)):
        for given in ({}, {"eta": eta}):
            assert verify_mt_witness(candidate, sg, base, chi_e, 2, chi_vertex=chi_v,
                                     **given) is verdict


def test_mt_chain_constraint_membership():
    base = pow2_base(8)
    chain = fs_tail_chain(base)
    w = mt_search(constant_coloring(2, 1), NAT, base, m=2, d=2,
                  budget=SearchBudget(max_index=6), chain=chain)
    assert isinstance(w, Witness)
    for i, term in enumerate(w.terms, start=1):
        assert chain.set_at(i)(term)
    assert verify_mt_witness(w, NAT, base, constant_coloring(2, 1), 2, chain=chain)


@pytest.mark.parametrize("seed", range(4))
def test_mt_chain_on_a_finite_base_stays_in_range(seed):
    # the membership window of fs_tail_chain stops at the last term
    base = pow2_base(8)
    chain = fs_tail_chain(base)
    chi = seeded_hash_coloring(2, seed, d=2)
    out = mt_search(chi, NAT, base, m=3, d=2, budget=SearchBudget(max_index=7),
                    chain=chain)
    if isinstance(out, Witness):
        assert verify_mt_witness(out, NAT, base, chi, 2, chain=chain)
    else:
        assert isinstance(out, Exhausted)
    # the terms past the base change nothing for the powers of two
    endless = ElementSequence.from_fn(NAT, lambda i: 2 ** (i - 1))
    again = mt_search(chi, NAT, endless, m=3, d=2, budget=SearchBudget(max_index=7),
                      chain=fs_tail_chain(endless))
    assert type(again) is type(out)
    if isinstance(out, Witness):
        assert out.blocks == again.blocks


@given(st.integers(0, 2 ** 31))
@settings(max_examples=15, deadline=None)
def test_mt_witnesses_reverify(seed):
    chi = seeded_hash_coloring(2, seed, d=2)
    base = pow2_base(6)
    out = mt_search(chi, NAT, base, m=2, d=2, budget=SearchBudget(max_index=6))
    if isinstance(out, Witness):
        assert verify_mt_witness(out, NAT, base, chi, 2)
    else:
        assert isinstance(out, Exhausted)


# ---------------------------------------------------------------- thresholds

def test_threshold_schur_two_colors_with_repeats():
    # Oracle (frozen): S(2) = 4 (Schur 1916), and {1,4 | 2,3} is the least
    # avoider of {1..4}.
    report = threshold_search(2, allow_repeats=True)
    assert report.found and report.n == 5
    assert report.avoider == {1: 1, 2: 2, 3: 2, 4: 1}  # {1,4 | 2,3}
    assert report.confirmed_independent


def test_threshold_single_color():
    report = threshold_search(1, allow_repeats=True)
    assert report.n == 2
    assert report.confirmed_independent


def test_threshold_no_repeats():
    # Oracle (frozen): the weak Schur number WS(2) = 8 puts the distinct-pair
    # threshold at 9.
    report = threshold_search(2, allow_repeats=False)
    assert report.found and report.n == 9
    assert report.confirmed_independent
    avoider = report.avoider
    for x in range(1, 9):
        for y in range(x + 1, 8 - x + 1):
            assert not (avoider[x] == avoider[y] == avoider[x + y])


def test_threshold_budget_report():
    report = threshold_search(2, allow_repeats=True,
                              budget=SearchBudget(max_value=64, node_limit=5))
    assert not report.found
    assert "budget" in report.note


# Published thresholds: S(1..3) = 1, 4, 13 (Schur 1916; Baumert 1965) and
# the weak Schur numbers WS(1..3) = 2, 8, 23 for distinct x, y.  The node
# counts (DFS plus confirmer) are pinned too: a faster enumerator must
# visit exactly these nodes.  (3, True) is 240 + 69, (2, False) 24 + 18
# and (3, False) 1,105 + 1,641: the DFS hands its last depth to the
# confirmer, whose refutation ends the run, and 103 of those 1,105 nodes
# went to the confirmer's avoiders of {1..17} and {1..20} to {1..23}.
@pytest.mark.parametrize("k, repeats, n, nodes", [
    (1, True, 2, 3), (2, True, 5, 18), (3, True, 14, 309),
    (1, False, 3, 5), (2, False, 9, 42), (3, False, 24, 2_746),
])
def test_threshold_published_values(k, repeats, n, nodes):
    report = threshold_search(k, allow_repeats=repeats)
    assert report.found and report.n == n and report.nodes == nodes
    assert report.confirmed_independent and report.note == ""
    assert sorted(report.avoider) == list(range(1, n))
    assert not _has_mono_triple_reference(report.avoider, n - 1, repeats)


def _has_mono_triple_reference(colors, n, repeats):
    return any(colors[x] == colors[y] == colors[x + y]
               for x in range(1, n + 1) for y in range(1, n - x + 1)
               if repeats or x != y)


def _lex_first_avoider_reference(k, n, repeats):
    """Slow reference: the first avoiding coloring in itertools.product order."""
    for assignment in itertools.product(range(1, k + 1), repeat=n):
        colors = dict(enumerate(assignment, start=1))
        if not _has_mono_triple_reference(colors, n, repeats):
            return colors
    return None


_SMALL_CASES = [(k, repeats, n) for k, top in ((1, 4), (2, 10), (3, 9))
                for repeats in (True, False) for n in range(1, top + 1)]


@pytest.mark.parametrize("k, repeats, n", _SMALL_CASES)
def test_threshold_enumerators_match_bruteforce(k, repeats, n):
    want = _lex_first_avoider_reference(k, n, repeats)
    depth, avoider = _lex_first_avoider(k, n, repeats, _NodeBudget(10 ** 6))
    assert (avoider if depth == n else None) == want
    assert _avoider_exists_fc(k, n, repeats, _NodeBudget(10 ** 6)) is (want is not None)


# The two enumerators as they were before the DFS's forward check and the
# confirmer's one fresh color per branch, kept as frozen references: the
# current ones must give the same answers on no more nodes.
def _lex_first_avoider_frozen(k: int, max_value: int, allow_repeats: bool,
                              nodes: _NodeBudget) -> tuple[int, Optional[dict]]:
    """One depth-first pass over the k-colorings of 1, 2, 3, ... in
    lexicographic order.  Returns ``(depth, avoider)``: the deepest n
    reached and the coloring of {1..n} held when the pass first got there,
    which is the lexicographically least avoider of {1..n}.

    The pass stops at ``max_value`` or when the budget runs out; otherwise
    it has exhausted the tree, so no avoider of {1..depth + 1} exists.

    Colors are broken symmetrically: value v may take a new color only if
    every lower color is already in use.  The least avoider satisfies this
    (swapping two color names would make it smaller otherwise), so the
    result is the least avoider among all colorings.

    Each color tried at a value is one node, one ``nodes.spend()``, also
    when the color is refused because it would complete a monochromatic
    triple; the pass stops at the first spend the budget refuses.  Nodes
    are not counted in a local, since tracers count the ``spend`` calls.
    """
    spend = nodes.spend
    mask = [0] * (k + 1)        # mask[c]: bit v set when v has color c
    forb = [0] * (k + 1)        # forb[c]: bit z set when z = x + y, x, y in c
    colors = [0] * (max_value + 2)
    saved = [0] * (max_value + 2)   # forb[colors[v]] before v was colored
    in_use = [0] * (max_value + 2)  # colors used by 1..v-1
    depth, held = 0, []  # held: colors[1:depth + 1] when depth was first reached
    v = 1 if max_value else 0
    while v:
        c = colors[v]
        bit = 1 << v
        if c:  # undo v's color before trying the next one
            mask[c] ^= bit
            forb[c] = saved[v]
        prior = in_use[v]
        top = prior + 1 if prior < k else k
        c += 1
        while c <= top:
            if not spend():
                return depth, dict(enumerate(held, start=1)) or None
            if not forb[c] & bit:
                break
            c += 1
        if c > top:
            colors[v] = 0
            v -= 1
            continue
        colors[v] = c
        f = saved[v] = forb[c]
        f |= mask[c] << v
        if allow_repeats:
            f |= 1 << (2 * v)
        forb[c] = f
        mask[c] |= bit
        if v > depth:
            depth, held = v, colors[1:v + 1]
            if v == max_value:
                break
        in_use[v + 1] = c if c > prior else prior
        v += 1
    return depth, dict(enumerate(held, start=1)) or None


def _avoider_exists_fc_frozen(k: int, n: int, allow_repeats: bool,
                              nodes: _NodeBudget) -> Optional[bool]:
    """Second, structurally different enumerator: forward checking over
    per-value color domains (bit c - 1 of ``dom[v]`` set while v may still
    take color c), branching on the unassigned value with the fewest colors
    left.  Only color(1) = 1 is fixed.  True if some k-coloring of {1..n}
    avoids every monochromatic {x, y, x+y}, False if none does, None if
    the node budget ran out first."""
    same = [0] * k      # same[c]: bit u set when u has color c + 1
    mirror = [0] * k    # mirror[c]: bit n - u set when u has color c + 1

    def search(dom: list, free: int) -> Optional[bool]:
        if not free:
            return True
        v, size, rest = 0, k + 1, free
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            left = dom[u].bit_count()
            if left < size:
                v, size = u, left
        free ^= 1 << v
        choices = dom[v]
        while choices:
            bit = choices & -choices
            choices ^= bit
            c = bit.bit_length() - 1
            if not nodes.spend():
                return None
            # Every triple that v completes with an earlier value of color
            # c: the sums u + v and the differences |u - v|.
            hit = (same[c] << v) | (same[c] >> v) | (mirror[c] >> (n - v))
            if allow_repeats:
                hit |= 1 << (2 * v)
                if v % 2 == 0:
                    hit |= 1 << (v // 2)
            hit &= free
            child = dom[:] if hit else dom
            wiped = False
            while hit and not wiped:
                low = hit & -hit
                hit ^= low
                w = low.bit_length() - 1
                child[w] &= ~bit
                wiped = not child[w]
            if wiped:
                continue
            same[c] |= 1 << v
            mirror[c] |= 1 << (n - v)
            out = search(child, free)
            same[c] ^= 1 << v
            mirror[c] ^= 1 << (n - v)
            if out is not False:
                return out
        return False

    dom = [(1 << k) - 1] * (n + 1)
    dom[1] = 1
    return search(dom, (1 << (n + 1)) - 2)


@pytest.mark.parametrize("k, repeats", [(k, repeats) for k in (1, 2, 3, 4)
                                        for repeats in (True, False)])
def test_threshold_dfs_matches_frozen_reference(k, repeats):
    # at k = 4 the frozen DFS is cut by its 10^7 nodes from max_value 44 on
    for max_value in range(44 if k == 4 else 41):
        old, new = _NodeBudget(10 ** 7), _NodeBudget(10 ** 7)
        want = _lex_first_avoider_frozen(k, max_value, repeats, old)
        assert _lex_first_avoider(k, max_value, repeats, new) == want
        assert not new.refused and new.used <= old.used


# k and repeats with the threshold: every n up to one past it
@pytest.mark.parametrize("k, repeats, threshold", [
    (1, True, 2), (2, True, 5), (3, True, 14),
    (1, False, 3), (2, False, 9), (3, False, 24),
])
def test_threshold_confirmer_matches_frozen_reference(k, repeats, threshold):
    for n in range(1, threshold + 2):
        old, new = _NodeBudget(10 ** 7), _NodeBudget(10 ** 7)
        want = _avoider_exists_fc_frozen(k, n, repeats, old)
        assert want is (n < threshold)
        assert _avoider_exists_fc(k, n, repeats, new) is want
        assert new.used <= old.used


@pytest.mark.parametrize("k, repeats, max_value, top", [
    (3, True, 64, 978), (3, False, 64, 62_114),
    (4, True, 40, 132_983), (4, False, 64, 60_000),
])
def test_threshold_dfs_cut_reaches_the_frozen_depth(k, repeats, max_value, top):
    # a cut run skips only branches that reach no new depth, so it gets at
    # least as deep as the frozen DFS on the same budget, and holds there
    # the lexicographically least avoider
    complete = functools.cache(lambda depth: _lex_first_avoider_frozen(
        k, depth, repeats, _NodeBudget(10 ** 7)))
    rng = random.Random(top)
    deeper = 0
    for limit in sorted({round(top ** rng.random()) for _ in range(25)}):
        depth, avoider = _lex_first_avoider(k, max_value, repeats, _NodeBudget(limit))
        want = _lex_first_avoider_frozen(k, max_value, repeats, _NodeBudget(limit))[0]
        assert depth >= want
        assert (depth, avoider) == complete(depth)
        deeper += depth > want
    assert deeper


def test_threshold_dfs_obeys_node_limit():
    nodes = _NodeBudget(1000)
    depth, avoider = _lex_first_avoider(4, 40, True, nodes)
    assert nodes.used == 1000 and depth < 40
    assert not _has_mono_triple_reference(avoider, depth, True)
    # the search's asks, which found avoiders of {1..16}, {1..20} and
    # {1..25} in 61 nodes, share its 1000, so its pass gets less deep than
    # the DFS alone
    report = threshold_search(4, budget=SearchBudget(max_value=40, node_limit=1000))
    assert not report.found and report.nodes == 1000
    assert report.note == "budget exhausted at N=25; threshold > 24" and depth == 28
    assert report.avoider == _lex_first_avoider(4, 24, True, _NodeBudget(10 ** 6))[1]
    # a budget entered partly spent stops at the same limit
    nodes = _NodeBudget(1000)
    nodes.used = 400
    assert _lex_first_avoider(4, 40, True, nodes)[0] == 19
    assert nodes.used == 1000 and nodes.refused


@pytest.mark.parametrize("answer, max_value, found, note", [
    # an ask cut by its budget is a cut run, with no threshold found
    (None, 64, False, "budget exhausted at N=24; threshold > 23"),
    # no ask at max_value: the DFS exhausts depth 23, and a confirmation
    # cut by its budget leaves the threshold unconfirmed
    (None, 24, True, "confirmation budget of 10000000 nodes exhausted at N=24"),
    # an avoider where the DFS finds none is a disagreement, not a threshold
    (True, 64, True, "the second enumerator found an avoider of {1..24}"),
])
def test_threshold_confirmation_obeys_node_limit(monkeypatch, answer, max_value, found,
                                                 note):
    nodes = _NodeBudget(100)
    assert _avoider_exists_fc(3, 24, False, nodes) is None
    assert nodes.used == 100
    # a stand-in confirmer answers ``answer`` on {1..24}, and truly below it
    asks = []

    def confirmer(k, n, repeats, budget, proof):
        asks.append(n)
        return answer if n == 24 else _avoider_exists_fc(k, n, repeats, budget, proof)

    monkeypatch.setattr(search_module, "_avoider_exists_fc", confirmer)
    report = threshold_search(3, False, SearchBudget(max_value=max_value))
    assert report.found is found and report.note == note
    assert report.n == (24 if found else None)
    assert not report.confirmed_independent and report.certificate is None
    assert asks == [17, 20, 21, 22, 23, 24]  # each depth is asked once


# Node counts of the two DFS passes the schur benchmark runs most.
@pytest.mark.parametrize("k, max_value, repeats, depth, used", [
    (4, 40, True, 40, 11_559),
    (3, 64, False, 23, 20_582),
])
def test_threshold_dfs_node_counts(k, max_value, repeats, depth, used):
    nodes = _NodeBudget(10 ** 7)
    assert _lex_first_avoider(k, max_value, repeats, nodes)[0] == depth
    assert nodes.used == used and not nodes.refused


@pytest.mark.parametrize("k, repeats, max_value, limit, found, confirmed, nodes, note", [
    # both enumerators spend one node_limit: k = 3 without repeats needs
    # 1,105 nodes, its asks included, before it asks about {1..24} and
    # 1,641 confirmer nodes to refute it, 2,746 in all; an ask cut short
    # is a cut run
    (3, False, 64, 2_746, True, True, 2_746, ""),
    (3, False, 64, 2_745, False, False, 2_745, "budget exhausted at N=24; threshold > 23"),
    (3, False, 64, 2_084, False, False, 2_084, "budget exhausted at N=24; threshold > 23"),
    (3, False, 64, 2_083, False, False, 2_083, "budget exhausted at N=24; threshold > 23"),
    (3, False, 64, 1_105, False, False, 1_105, "budget exhausted at N=24; threshold > 23"),
    (3, False, 64, 1_104, False, False, 1_104, "budget exhausted at N=24; threshold > 23"),
    # at max_value 24 the DFS asks nothing about {1..24}: it exhausts depth
    # 23 in 20,685 nodes, and the confirmer then refutes {1..24}
    (3, False, 24, 22_326, True, True, 22_326, ""),
    (3, False, 24, 22_325, True, False, 22_325,
     "confirmation budget of 22325 nodes exhausted at N=24"),
    (3, False, 24, 22_262, True, False, 22_262,
     "confirmation budget of 22262 nodes exhausted at N=24"),
    (3, False, 24, 20_685, True, False, 20_685,
     "confirmation budget of 20685 nodes exhausted at N=24"),
    (3, False, 24, 20_684, False, False, 20_684, "budget exhausted at N=24; threshold > 23"),
    (3, False, 24, 20_621, False, False, 20_621, "budget exhausted at N=24; threshold > 23"),
    (4, True, 40, 11_716, False, False, 11_716, "no threshold within 40"),
    (4, True, 40, 11_715, False, False, 11_715, "budget exhausted at N=40; threshold > 39"),
    (4, True, 40, 11_623, False, False, 11_623, "budget exhausted at N=40; threshold > 39"),
])
def test_threshold_budget_edges(k, repeats, max_value, limit, found, confirmed, nodes, note):
    report = threshold_search(k, repeats, SearchBudget(max_value=max_value,
                                                       node_limit=limit))
    assert report.found is found and report.nodes == nodes and report.note == note
    assert report.nodes <= limit
    assert report.confirmed_independent is confirmed
    assert (report.certificate is not None) is confirmed
    if found:
        assert report.n == 24


def _threshold_two_passes(k, repeats, max_value):
    """The threshold's record by the flow without asks: a DFS that
    exhausts its last depth, then the confirmer on one past it."""
    nodes = _NodeBudget(10 ** 7)
    depth, avoider = _lex_first_avoider(k, max_value, repeats, nodes)
    assert not nodes.refused
    if depth == max_value:
        return ThresholdReport(False, None, avoider, 0,
                               note=f"no threshold within {max_value}").to_record()
    proof = []
    assert _avoider_exists_fc(k, depth + 1, repeats, nodes, proof) is False
    assert verify_avoider(avoider, k, depth, repeats)
    return ThresholdReport(True, depth + 1, avoider, 0, confirmed_independent=True,
                           certificate=proof).to_record()


@pytest.mark.parametrize("k, repeats", [
    *[(k, r) for k in (1, 2, 3) for r in (True, False)], (4, True),
])
def test_threshold_asks_keep_the_two_pass_record(k, repeats):
    # handing the last depth to the confirmer changes node counts only; at
    # k = 4 the DFS alone does not exhaust depth 44 within its budget
    for max_value in range(41) if k == 4 else [*range(31), 64]:
        report = threshold_search(k, repeats, SearchBudget(max_value=max_value))
        assert report.to_record() == _threshold_two_passes(k, repeats, max_value)


@pytest.mark.parametrize("k, repeats, max_value, asks", [
    (3, False, 64, [17, 20, 21, 22, 23, 24]), (3, False, 24, [17, 20, 21, 22, 23]),
    (3, True, 64, [8, 10, 11, 13, 14]),
])
def test_threshold_dfs_asks_each_depth_once(k, repeats, max_value, asks):
    # a hook that always finds an avoider lets the pass run to its end: it
    # is asked about each depth once, never about max_value, and the pass
    # returns, in as many nodes, what it returns with no hook
    asked, nodes, alone = [], _NodeBudget(10 ** 7), _NodeBudget(10 ** 7)
    out = _lex_first_avoider(k, max_value, repeats, nodes,
                             lambda n: asked.append(n) or True)
    assert out == _lex_first_avoider(k, max_value, repeats, alone)
    assert asked == asks and nodes.used == alone.used


def test_threshold_lets_go_of_the_walks_that_found_an_avoider(monkeypatch):
    # a report keeps only a refutation's list, so the confirmer's walks to
    # an avoider are dropped while the search runs on
    walks = []

    def confirmer(k, n, repeats, budget, proof):
        # no tuple, such as an entry of the search's table of asks, holds
        # the walk of an earlier ask
        assert not [w for w in walks for r in gc.get_referrers(w) if isinstance(r, tuple)]
        exists = _avoider_exists_fc(k, n, repeats, budget, proof)
        if exists:
            walks.append(proof)
        return exists

    monkeypatch.setattr(search_module, "_avoider_exists_fc", confirmer)
    report = threshold_search(3, False)
    assert len(walks) == 5 and all(walks)  # {1..17}, {1..20} to {1..23}
    assert report.confirmed_independent
    assert report.certificate == list(_refutation(3, 24, False)[1])


def test_threshold_four_colors_is_found_and_checked():
    # Oracle (frozen): S(4) = 44 (Baumert 1965), so N = 45.  The DFS reaches
    # depth 44, and the confirmer's refutation of {1..45}, 388,850 of these
    # nodes, ends the run where exhausting depth 44 would not end within
    # the default node_limit
    report = threshold_search(4, True, SearchBudget(max_value=46))
    assert report.found and report.n == 45 and report.nodes == 2_981_636
    assert report.confirmed_independent and report.note == ""
    assert verify_avoider(report.avoider, 4, 44, True)
    assert len(report.certificate) == 388_851 > search_module._MAX_REFUTATION
    assert verify_refutation(report.certificate, 4, 45, True)
    # too long for the record, which is re-run when checked
    assert "certificate" not in report.to_record()


class _CountedBudget(_NodeBudget):
    """Counts calls of ``spend``, the method the benchmark's tracer wraps to
    count search nodes."""

    __slots__ = ("calls",)

    def __init__(self, limit):
        super().__init__(limit)
        self.calls = 0

    def spend(self):
        self.calls += 1
        return super().spend()


# Each case runs to the end in ``used`` nodes, fewer than the frozen
# enumerator's ``frozen``: the DFS's forward check or the confirmer's one
# fresh color skipped a branch.  ``cut`` stops each case before its end.
_LEX, _FC = (_lex_first_avoider, _lex_first_avoider_frozen), (
    _avoider_exists_fc, _avoider_exists_fc_frozen)


@pytest.mark.parametrize("enumerators, args, used, frozen, cut", [
    (_LEX, (4, 40, True), 11_559, 132_983, 1_000),
    (_LEX, (3, 64, False), 20_582, 62_114, 10_000),
    (_LEX, (3, 64, True), 420, 978, 300),
    (_LEX, (2, 64, False), 37, 53, 30),
    (_FC, (3, 24, False), 1_641, 3_280, 1_000),
    (_FC, (3, 14, True), 69, 137, 50),
])
@pytest.mark.parametrize("complete", [True, False])
def test_threshold_enumerators_spend_once_per_node(enumerators, args, used, frozen,
                                                   cut, complete):
    # a loop that counted its nodes locally, or spent again on a branch it
    # cut, would call spend a different number of times than it records
    enumerate_, reference = enumerators
    full = _NodeBudget(10 ** 7)
    reference(*args, full)
    assert full.used == frozen
    nodes = _CountedBudget(10 ** 7 if complete else cut)
    enumerate_(*args, nodes)
    assert nodes.refused is not complete
    assert nodes.used == (used if complete else cut)
    assert nodes.calls == nodes.used + nodes.refused


def test_verify_avoider_accepts_the_search_avoiders():
    for k, repeats, n in ((4, True, 40), (3, False, 23)):
        depth, avoider = _lex_first_avoider(k, n, repeats, _NodeBudget(10 ** 7))
        assert depth == n and verify_avoider(avoider, k, n, repeats)


def test_verify_avoider_refuses_each_tampering():
    # the least avoider of {1..13} under 3 colors, repeats allowed
    good = {1: 1, 2: 2, 3: 2, 4: 1, 5: 3, 6: 3, 7: 1, 8: 3, 9: 3, 10: 1,
            11: 2, 12: 2, 13: 1}
    assert verify_avoider(good, 3, 13, True)

    def tampered(changes):  # a color None drops the value
        return {v: c for v, c in {**good, **changes}.items() if c is not None}

    assert not verify_avoider(tampered({3: 1}), 3, 13, True)     # {1, 3, 4} in color 1
    assert not verify_avoider(tampered({3: 1}), 3, 13, False)
    assert not verify_avoider(tampered({5: None}), 3, 13, True)  # 5 is missing
    assert not verify_avoider(tampered({14: 3}), 3, 13, True)    # 14 is beyond n
    assert not verify_avoider(good, 3, 12, True)                 # so is 13
    assert not verify_avoider(tampered({13: 4}), 3, 13, True)    # no color 4 of 3
    assert not verify_avoider(tampered({13: 0}), 3, 13, True)
    # {4, 4, 8} in one color: a triple only when x = y is allowed; every
    # 2-coloring of {1..8} has one, since S(2) = 4 < 8 = WS(2)
    weak = threshold_search(2, allow_repeats=False).avoider
    assert weak[4] == weak[8]
    assert verify_avoider(weak, 2, 8, False)
    assert not verify_avoider(weak, 2, 8, True)
    # JSON's true and 1.0 compare equal to the color 1, but are not colors
    assert not verify_avoider(tampered({1: True}), 3, 13, True)
    assert not verify_avoider(tampered({1: 1.0}), 3, 13, True)


# k, repeats and the threshold N, for every k <= 3
_THRESHOLDS = [(1, True, 2), (2, True, 5), (3, True, 14),
               (1, False, 3), (2, False, 9), (3, False, 24)]


@functools.cache
def _refutation(k, n, repeats):
    """The confirmer's verdict on {1..n}, its list and its node count."""
    nodes, proof = _NodeBudget(10 ** 7), []
    exists = _avoider_exists_fc(k, n, repeats, nodes, proof)
    return exists, tuple(proof), nodes.used


@pytest.mark.parametrize("k, repeats, threshold", _THRESHOLDS)
def test_refutation_exists_exactly_where_the_confirmer_refutes(k, repeats, threshold):
    for n in range(1, threshold + 1):
        exists, proof, _ = _refutation(k, n, repeats)
        assert exists is (n < threshold)
        assert verify_refutation(list(proof), k, n, repeats) is (n == threshold)
    # one entry for the root and one per confirmer node
    _, proof, nodes = _refutation(k, threshold, repeats)
    assert threshold_search(k, repeats).certificate == list(proof)
    assert len(proof) == 1 + nodes


@pytest.mark.parametrize("k, repeats, threshold", _THRESHOLDS)
def test_verify_refutation_refuses_each_tampering(k, repeats, threshold):
    proof = list(_refutation(k, threshold, repeats)[1])
    assert verify_refutation(proof, k, threshold, repeats)
    assert not verify_refutation(proof[:-1], k, threshold, repeats)
    assert not verify_refutation(proof + [1], k, threshold, repeats)
    assert not verify_refutation(proof, k, threshold - 1, repeats)
    assert not verify_refutation(proof, k + 1, threshold, repeats)
    assert not verify_refutation(proof, k, threshold, not repeats)
    assert not verify_refutation([True] + proof[1:], k, threshold, repeats)
    assert not verify_refutation(proof[:-1] + [float(proof[-1])], k, threshold, repeats)
    assert not verify_refutation([], k, threshold, repeats)


# The confirmer's lists, frozen, so that a change which keeps every verdict
# and node count but reorders the confirmer's tree still fails: the
# refutations that the k <= 3 thresholds carry as certificates, and the
# walk that finds an avoider of {1..44} in 4 colors.
@pytest.mark.parametrize("k, repeats, n, entries, digest", [
    (1, True, 2, 2, "3a316d6d3226f84c1e46e4447fa8d5fd800bff4a1bc6498152523cd4a602b69b"),
    (2, True, 5, 5, "7456d6902acd11be7759d56dd5c850dd2fdafd2ceb2509f46a8c75b20a70883a"),
    (3, True, 14, 70, "07333c9944417b1942c9a34a40c888e3353a1cde76e9615258574c5dde4e3904"),
    (1, False, 3, 3, "a36b1f2c3f84522dd1005145646617d7054c0851e97c72a039c0bdfac9fa07f3"),
    (2, False, 9, 19, "ce5d14c96cb229831779af2f5fba46967185782dae7847724c07569e0c848f1a"),
    (3, False, 24, 1_642, "ff0366ee3a2703a3fa73c7e137ca4051aeee6eda64e6e62b5db2ee929304a9cf"),
    (4, True, 44, 23_757, "9a8ff195f735b0729d696466dcdb4695b954daf7755cdcae7ab931a760675b52"),
])
def test_confirmer_lists_are_frozen(k, repeats, n, entries, digest):
    exists, proof, _ = _refutation(k, n, repeats)
    assert exists is (k == 4) and len(proof) == entries
    assert hashlib.sha256(json.dumps(list(proof)).encode()).hexdigest() == digest


@pytest.mark.parametrize("k, repeats, threshold, i, closing, other", [
    # 9 closes its branch under {1, 2, 4, 8 | 3, 5, 6}; 7 still has a color
    (2, False, 9, 7, 9, 7),
    # 12 closes its branch under {1, 4, 6 | 2, 3, 10 | 5, 7}; 8 still has a color
    (3, True, 14, 8, 12, 8),
])
def test_verify_refutation_refuses_a_closing_value_that_has_a_color(
        k, repeats, threshold, i, closing, other):
    proof = list(_refutation(k, threshold, repeats)[1])
    assert proof[i] == closing
    proof[i] = other
    assert not verify_refutation(proof, k, threshold, repeats)


@pytest.mark.parametrize("k, repeats, threshold", [
    t for t in _THRESHOLDS if t[0] <= 2])
def test_verify_refutation_refuses_every_short_list_below_the_threshold(
        k, repeats, threshold):
    # an avoider of {1..n} exists for n < N, so no list may refute it
    for n in range(threshold):
        for length in range(7):
            for entries in itertools.product(range(1, n + 1), repeat=length):
                assert not verify_refutation(entries, k, n, repeats)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_verify_refutation_refuses_lists_below_the_three_color_threshold(data):
    repeats = data.draw(st.booleans(), "repeats")
    threshold = 14 if repeats else 24
    n = data.draw(st.integers(1, threshold - 1), "n")
    if data.draw(st.booleans(), "from a refutation"):
        # the refutation of {1..N}, its values above n replaced, cut short
        rng = random.Random(data.draw(st.integers(0, 2 ** 16), "seed"))
        proof = [v if v <= n else rng.randint(1, n)
                 for v in _refutation(3, threshold, repeats)[1]]
        entries = proof[:data.draw(st.integers(1, len(proof)), "length")]
    else:
        entries = data.draw(st.lists(st.integers(1, n), max_size=3 * n), "entries")
    assert not verify_refutation(entries, 3, n, repeats)


@pytest.mark.parametrize("run, cap", [
    (lambda: hindman_search(parity_coloring(), 2, SearchBudget(max_value=7, max_index=1)),
     "max_index=1"),
    (lambda: mt_search(constant_coloring(2, 1), FIN, fin_singletons(), m=2, d=2,
                       budget=SearchBudget(max_index=6, max_value=1)), "max_value=1"),
    (lambda: threshold_search(2, True, SearchBudget(max_value=64, max_index=3)),
     "max_index=3"),
    (lambda: proper_or_collapse(ElementSequence.from_fn(NAT, lambda i: i), 5,
                                SearchBudget(max_value=3)), "max_value=3"),
])
def test_search_refuses_a_cap_it_does_not_read(run, cap):
    # each of these ran as if the cap were unset, and returned a witness or
    # a threshold (N = 5 for the last but one)
    with pytest.raises(ValueError, match=f"does not read {cap}$"):
        run()


# Each kind of threshold record reads back as the report that wrote it;
# ``pad`` entries appended to a refutation put it over the cap.
@pytest.mark.parametrize("k, repeats, budget, pad, shape", [
    (3, False, SearchBudget(max_value=64), 0,
     lambda r: r["found"] and len(r["certificate"]) == 1_642),
    (2, True, SearchBudget(max_value=64), search_module._MAX_REFUTATION,
     lambda r: r["found"] and "certificate" not in r),
    (2, True, SearchBudget(max_value=4), 0,
     lambda r: r["note"] == "no threshold within 4"),
    (3, False, SearchBudget(max_value=64, node_limit=2_083), 0,
     lambda r: r["note"].startswith("budget exhausted")),
], ids=["found-with-certificate", "found-over-the-cap", "none-within-max-value",
        "cut-by-budget"])
def test_threshold_record_reads_back(k, repeats, budget, pad, shape):
    report = threshold_search(k, allow_repeats=repeats, budget=budget)
    if pad:
        report.certificate += [1] * pad
    record = report.to_record()
    assert shape(record)
    assert ThresholdReport.from_record(record).to_record() == record


@pytest.mark.parametrize("search", [
    lambda: hindman_search(parity_coloring(), 2, SearchBudget(max_value=7)),
    lambda: mt_search(cardinality_coloring(2), FIN, fin_singletons(), m=3, d=2,
                      budget=SearchBudget(max_index=6)),
], ids=["hindman", "mt-finite-sets"])
def test_witness_record_reads_back(search):
    # every field but the certificate, whose size alone is recorded
    w = search()
    back = Witness.from_record(w.to_record())
    assert back.certificate == {} and w.certificate
    assert dataclasses.replace(back, certificate=w.certificate) == w


def test_threshold_cli_three_colors_no_repeats(capsys):
    assert main(["threshold", "--colors", "3", "--no-repeats"]) == EXIT_OK
    assert '"n": 24' in capsys.readouterr().out


# ---------------------------------------------------------------- certificates

@pytest.mark.parametrize("verifier, run", [
    ("verify_hindman_witness",
     lambda: hindman_search(parity_coloring(), 2, SearchBudget(max_value=7))),
    ("verify_mt_witness",
     lambda: mt_search(constant_coloring(2, 1), FIN, fin_singletons(), m=2, d=2,
                       budget=SearchBudget(max_index=4))),
])
def test_rejected_certificate_raises(monkeypatch, verifier, run):
    monkeypatch.setattr(search_module, verifier, lambda *a, **kw: False)
    with pytest.raises(CertificateError):
        run()


@pytest.mark.parametrize("terms", [(1, 2, 3), (1, 1)], ids=["a12-eq-a3", "a1-eq-a2"])
def test_improper_hindman_witness_is_rejected(terms):
    # a_{1,2} = a_3, or a_1 = a_2: equal sums on comparable blocks, although
    # the colors and the certificate's finite sums are all consistent
    values = [sum(c) for r in range(1, len(terms) + 1)
              for c in itertools.combinations(terms, r)]
    w = Witness(blocks=None, terms=terms, color_vertex=1, color_edge=None,
                certificate={"fs_values": values})
    assert not verify_hindman_witness(w, constant_coloring(1))


# ---------------------------------------------------------------- dichotomy

def test_collapse_constant_fin():
    seq = ElementSequence.from_fn(FIN, lambda i: frozenset({1}))
    out = proper_or_collapse(seq, depth=3)
    assert isinstance(out, Collapse)
    assert out.element == frozenset({1})
    assert verify_dichotomy(out, seq)


def test_proper_powers_identity_blocks():
    seq = pow2_base(6)
    out = proper_or_collapse(seq, depth=4)
    assert isinstance(out, Proper)
    assert tuple(tuple(sorted(b)) for b in out.blocks) == ((1,), (2,), (3,))
    assert verify_dichotomy(out, seq)


def test_collapse_stabilizing_unions():
    # Oracle: unions stabilize at {1,2} from index 2 on.
    terms = [frozenset({1}), frozenset({1, 2}), frozenset({1, 2}), frozenset({1, 2})]
    seq = ElementSequence.from_terms(FIN, terms)
    out = proper_or_collapse(seq, depth=4)
    assert isinstance(out, Collapse)
    assert out.element == frozenset({1, 2})
    assert verify_dichotomy(out, seq)


def test_dichotomy_never_returns_false_collapse_on_naturals():
    # (1,1,...) has equal pairs but 1 + 1 != 1: no collapse certificate.
    seq = ElementSequence.from_terms(NAT, [1, 1, 1, 1])
    out = proper_or_collapse(seq, depth=4)
    assert not isinstance(out, Collapse)
    assert verify_dichotomy(out, seq)


def test_dichotomy_max_index_must_be_depth():
    # the blocks lie inside {1..depth}: a smaller max_index is not obeyed
    seq = pow2_base(6)
    with pytest.raises(ValueError, match="max_index=3"):
        proper_or_collapse(seq, 5, SearchBudget(max_index=3))
    outs = [proper_or_collapse(seq, 5, budget)
            for budget in (None, SearchBudget(), SearchBudget(max_index=5))]
    assert outs[0] == outs[1] == outs[2] and isinstance(outs[0], Proper)


@pytest.mark.parametrize("sg, terms, kind", [
    (naturals(), [1, 2, 3, 4, 5], Proper),
    (finite_sets(), [frozenset({1})] * 4, Collapse),
], ids=["proper", "collapse"])
def test_dichotomy_record_reads_back(sg, terms, kind):
    seq = ElementSequence.from_terms(sg, terms)
    out = proper_or_collapse(seq, len(terms))
    assert isinstance(out, kind)
    record = out.to_record()
    back = Proper.from_record(record, seq) if kind is Proper else Collapse.from_record(record)
    assert back == out and back.to_record() == record


@given(st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_dichotomy_certificates_verify(seed):
    import random

    rng = random.Random(seed)
    terms = [frozenset(rng.sample(range(1, 7), rng.randint(1, 3))) for _ in range(5)]
    seq = ElementSequence.from_terms(FIN, terms)
    out = proper_or_collapse(seq, depth=5)
    assert verify_dichotomy(out, seq)


# ------------------------------------------------ differential oracles

def brute_force_hindman(chi, m, n_max):
    """All increasing m-tuples in lexicographic order; first proper
    monochromatic one wins."""
    import itertools as it

    for terms in it.combinations(range(1, n_max + 1), m):
        seq = nat_seq_terms(terms)
        sums = fs_enumerate_all(seq, m)
        if max(sums.values()) > n_max:
            continue
        if len({chi.of(v) for v in sums.values()}) != 1:
            continue
        from sumgames.semigroups import proper_violation

        if proper_violation(seq, m) is not None:
            continue
        return terms
    return None


def nat_seq_terms(terms):
    return ElementSequence.from_terms(NAT, list(terms))


def fs_enumerate_all(seq, n):
    from sumgames.semigroups import fs_enumerate

    return fs_enumerate(seq, n)


@given(st.integers(0, 2 ** 31), st.integers(2, 3), st.integers(6, 14))
@settings(max_examples=40, deadline=None)
def test_hindman_matches_bruteforce(seed, m, n_max):
    chi = seeded_hash_coloring(2, seed, d=1)
    got = hindman_search(chi, m, SearchBudget(max_value=n_max))
    expected = brute_force_hindman(chi, m, n_max)
    if expected is None:
        assert isinstance(got, Exhausted) and got.complete
    else:
        assert isinstance(got, Witness)
        assert got.terms == expected


def brute_force_mt_pairs(chi, base, hi):
    """All block pairs F < H in the search's (max, lex) order; first pair
    with a monochromatic depth-2 hypergraph of a proper taken sequence."""
    from sumgames.semigroups import (fs_enumerate, block_chains, indexed_sum,
                                     proper_violation)

    for F in sorted_candidate_blocks(1, hi - 1):
        for H in sorted_candidate_blocks(max(F) + 1, hi):
            taken = ElementSequence.from_terms(
                base.semigroup, [indexed_sum(base, F), indexed_sum(base, H)])
            if proper_violation(taken, 2) is not None:
                continue
            sums = fs_enumerate(taken, 2)
            colors = {chi.of_set(frozenset(sums[G] for G in ch))
                      for ch in block_chains(2, 2)}
            if len(colors) == 1:
                return (F, H)
    return None


def sorted_candidate_blocks(lo, hi):
    """Every block inside {lo..hi}, built and sorted by (max index, sorted
    tuple): the order that ``_candidate_blocks`` generates directly."""
    for k in range(lo, hi + 1):
        mids = range(lo, k)
        blocks = [frozenset(c) | {k} for r in range(len(mids) + 1)
                  for c in itertools.combinations(mids, r)]
        yield from sorted(blocks, key=block_key)


def test_candidate_blocks_are_generated_in_sorted_order():
    for hi in range(0, 13):
        for lo in range(1, hi + 2):
            got = [_block(mask) for mask in _candidate_blocks(lo, hi)]
            assert got == list(sorted_candidate_blocks(lo, hi))


@given(st.integers(0, 2 ** 31))
@settings(max_examples=25, deadline=None)
def test_mt_matches_bruteforce_pairs(seed):
    chi = seeded_hash_coloring(3, seed, d=2)
    base = pow2_base(6)
    got = mt_search(chi, NAT, base, m=2, d=2, budget=SearchBudget(max_index=6))
    expected = brute_force_mt_pairs(chi, base, 6)
    if expected is None:
        assert isinstance(got, Exhausted) and got.complete
    else:
        assert isinstance(got, Witness)
        assert tuple(got.blocks) == expected


# ------------------------------------------------ driver against verify_*
#
# The searches share one depth-first driver.  Each search below must return
# the first candidate, in the driver's order, that the matching independent
# verifier accepts; candidates are enumerated by brute force with itertools.

@functools.lru_cache(maxsize=None)
def chains_least_max_first(hi, m):
    """Every chain F_1 < ... < F_m inside {1..hi}, ordered by the sequence
    of block keys (max F, sorted F): the order of the block searches."""
    chains = []
    for labels in itertools.product(range(m + 1), repeat=hi):
        blocks = tuple(frozenset(i for i, b in enumerate(labels, start=1) if b == j)
                       for j in range(1, m + 1))
        if all(blocks) and all(max(F) < min(H) for F, H in zip(blocks, blocks[1:])):
            chains.append(blocks)
    return sorted(chains, key=lambda ch: [(max(F), sorted(F)) for F in ch])


def first_verified_hindman(chi, m, max_value):
    # increasing tuples in lexicographic order: the order of hindman_search
    for terms in itertools.combinations(range(1, max_value + 1), m):
        if sum(terms) > max_value:
            continue  # some finite sum leaves {1..max_value}
        if not is_proper_up_to(ElementSequence.from_terms(NAT, terms), m):
            continue
        values = [sum(c) for r in range(1, m + 1)
                  for c in itertools.combinations(terms, r)]
        w = Witness(blocks=None, terms=terms, color_vertex=chi.of(terms[0]),
                    color_edge=None, certificate={"fs_values": values})
        if verify_hindman_witness(w, chi):
            return terms
    return None


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k, m, max_value", [(2, 2, 8), (2, 3, 12), (3, 2, 12),
                                             (3, 3, 12)])
def test_hindman_first_witness_is_first_verified(seed, k, m, max_value):
    chi = seeded_hash_coloring(k, seed, d=1)
    got = hindman_search(chi, m, SearchBudget(max_value=max_value))
    want = first_verified_hindman(chi, m, max_value)
    if want is None:
        assert isinstance(got, Exhausted) and got.complete
    else:
        assert isinstance(got, Witness) and got.terms == want


def first_verified_mt(chi, sg, base, m, d, hi, chain):
    for blocks in chains_least_max_first(hi, m):
        taken = take_sumsequence(base, BlockSequence(blocks))
        if not is_proper_up_to(taken, m):
            continue  # verify_mt_witness rejects it; sum_hypergraph raises
        edges = sum_hypergraph(taken, m, d)
        w = Witness(blocks=BlockSequence(blocks), terms=tuple(taken.prefix(m)),
                    color_vertex=None, color_edge=chi.of_set(edges[0]),
                    certificate={"edge_sets": edges})
        if verify_mt_witness(w, sg, base, chi, d, chain=chain):
            return blocks
    return None


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("use_chain", [False, True])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("d, m", [(2, 3), (3, 4)])
@pytest.mark.parametrize("semigroup", ["naturals", "finite-sets"])
def test_mt_first_witness_is_first_verified(semigroup, d, m, k, use_chain, seed):
    # generator-backed bases: fs_tail_chain looks past max_index
    sg, base = ((NAT, ElementSequence.from_fn(NAT, lambda i: 2 ** (i - 1)))
                if semigroup == "naturals" else (FIN, fin_singletons()))
    chain = fs_tail_chain(base) if use_chain else None
    chi = seeded_hash_coloring(k, seed, d=d)
    hi = 7
    got = mt_search(chi, sg, base, m, d, SearchBudget(max_index=hi), chain=chain)
    want = first_verified_mt(chi, sg, base, m, d, hi, chain)
    if want is None:
        assert isinstance(got, Exhausted) and got.complete
    else:
        assert isinstance(got, Witness) and tuple(got.blocks) == want


def first_verified_dichotomy(seq, depth):
    m = min(3, depth)
    for blocks in chains_least_max_first(depth, m):
        bseq = BlockSequence(blocks)
        terms = tuple(take_sumsequence(seq, bseq).prefix(m))
        for candidate in (Proper(blocks=bseq, terms=terms),
                          Collapse(element=terms[0], blocks=bseq)):
            if verify_dichotomy(candidate, seq):
                return candidate
    return None


@pytest.mark.parametrize("seed", range(24))
def test_dichotomy_first_result_is_first_verified(seed):
    import random

    rng = random.Random(seed)
    depth = rng.randint(3, 6)
    # few generators, so that collapses and misses occur beside proper ones
    terms = [frozenset(rng.sample(range(1, 4), rng.randint(1, 2)))
             for _ in range(depth)]
    seq = ElementSequence.from_terms(FIN, terms)
    got = proper_or_collapse(seq, depth)
    want = first_verified_dichotomy(seq, depth)
    if want is None:
        assert isinstance(got, DichotomyUnknown) and got.complete
    else:
        assert type(got) is type(want) and got.blocks == want.blocks


# (verdict, blocks, nodes) of each dichotomy run above, or ("unknown",
# complete, nodes), at full budget and at a node limit of 3: pinned before
# the proper branch ran on the shared prefix check.  The nodes of a run
# that finds its result are those it spent up to that result.
PINNED_DICHOTOMY = {
    0: (("proper", [[1], [2], [4]], 5), ("unknown", False, 3)),
    1: (("proper", [[1], [2, 3], [4]], 7), ("unknown", False, 3)),
    2: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    3: (("proper", [[1], [2, 3], [4]], 7), ("unknown", False, 3)),
    4: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    5: (("collapse", [[1], [2], [3, 5]], 7), ("unknown", False, 3)),
    6: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    7: (("proper", [[1], [2], [3, 4]], 4), ("unknown", False, 3)),
    8: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    9: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    10: (("unknown", True, 3), ("unknown", True, 3)),
    11: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    12: (("proper", [[2], [3, 4], [5]], 101), ("unknown", False, 3)),
    13: (("collapse", [[1], [2, 3], [4, 5]], 12), ("unknown", False, 3)),
    14: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    15: (("unknown", True, 15), ("unknown", False, 3)),
    16: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    17: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    18: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    19: (("unknown", True, 3), ("unknown", True, 3)),
    20: (("collapse", [[1], [2], [4]], 5), ("unknown", False, 3)),
    21: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
    22: (("proper", [[1], [2], [3, 4]], 4), ("unknown", False, 3)),
    23: (("proper", [[1], [2], [3]], 3), ("proper", [[1], [2], [3]], 3)),
}


def dichotomy_outcome(result, nodes: int) -> tuple:
    if isinstance(result, DichotomyUnknown):
        assert result.nodes == nodes
        return "unknown", result.complete, nodes
    return type(result).__name__.lower(), [sorted(b) for b in result.blocks], nodes


@pytest.mark.parametrize("seed", range(24))
def test_dichotomy_spends_pinned_nodes(seed, monkeypatch):
    budgets = []

    class Recorded(_NodeBudget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(search_module, "_NodeBudget", Recorded)
    rng = random.Random(seed)
    depth = rng.randint(3, 6)
    terms = [frozenset(rng.sample(range(1, 4), rng.randint(1, 2)))
             for _ in range(depth)]
    seq = ElementSequence.from_terms(FIN, terms)
    got = []
    for limit in (10 ** 7, 3):
        out = proper_or_collapse(seq, depth, SearchBudget(max_index=depth, node_limit=limit))
        got.append(dichotomy_outcome(out, budgets[-1].used))
    assert len(budgets) == 2
    assert tuple(got) == PINNED_DICHOTOMY[seed]


@pytest.mark.parametrize("run, need", [
    # (1, 2, 3) is improper, so the least witness (1, 2, 4) is the 4th node
    (lambda b: hindman_search(constant_coloring(1, 1), 3,
                              SearchBudget(max_value=7, node_limit=b)), 4),
    (lambda b: mt_search(constant_coloring(2, 1), FIN, fin_singletons(), m=3, d=2,
                         budget=SearchBudget(max_index=6, node_limit=b)), 3),
    (lambda b: proper_or_collapse(ElementSequence.from_fn(FIN, lambda i: frozenset({1})),
                                  3, SearchBudget(max_index=3, node_limit=b)), 3),
])
def test_capped_run_spends_exactly_its_limit(run, need):
    out = run(need - 1)
    assert isinstance(out, (Exhausted, DichotomyUnknown))
    assert not out.complete and out.nodes == need - 1
    assert not isinstance(run(need), (Exhausted, DichotomyUnknown))
