"""Witness searches: Hindman, Milliken–Taylor, Schur thresholds, dichotomy."""
import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumgames import search as search_module
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
    Witness,
    hindman_search,
    mt_search,
    proper_or_collapse,
    threshold_search,
    verify_dichotomy,
    verify_hindman_witness,
    verify_mt_witness,
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
# visit exactly these nodes.
@pytest.mark.parametrize("k, repeats, n, nodes", [
    (1, True, 2, 3), (2, True, 5, 15), (3, True, 14, 1_115),
    (1, False, 3, 5), (2, False, 9, 71), (3, False, 24, 65_394),
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


def test_threshold_dfs_obeys_node_limit():
    nodes = _NodeBudget(1000)
    depth, avoider = _lex_first_avoider(4, 40, True, nodes)
    assert nodes.used == 1000 and depth < 40
    assert not _has_mono_triple_reference(avoider, depth, True)
    report = threshold_search(4, budget=SearchBudget(max_value=40, node_limit=1000))
    assert not report.found and report.nodes == 1000
    assert report.note == f"budget exhausted at N={depth + 1}; threshold > {depth}"
    # a budget entered partly spent stops at the same limit
    nodes = _NodeBudget(1000)
    nodes.used = 400
    assert _lex_first_avoider(4, 40, True, nodes)[0] == 19
    assert nodes.used == 1000 and nodes.refused


def test_threshold_confirmation_obeys_node_limit(monkeypatch):
    nodes = _NodeBudget(100)
    assert _avoider_exists_fc(3, 24, False, nodes) is None
    assert nodes.used == 100
    # A confirmation cut by its budget leaves the threshold unconfirmed.
    monkeypatch.setattr(search_module, "_avoider_exists_fc",
                        lambda k, n, repeats, budget: None)
    report = threshold_search(3, allow_repeats=False)
    assert report.found and report.n == 24
    assert not report.confirmed_independent
    assert "confirmation budget" in report.note


# Node counts of the two DFS passes the schur benchmark runs most.
@pytest.mark.parametrize("k, max_value, repeats, depth, used", [
    (4, 40, True, 40, 132_983),
    (3, 64, False, 23, 62_114),
])
def test_threshold_dfs_node_counts(k, max_value, repeats, depth, used):
    nodes = _NodeBudget(10 ** 7)
    assert _lex_first_avoider(k, max_value, repeats, nodes)[0] == depth
    assert nodes.used == used and not nodes.refused


@pytest.mark.parametrize("k, repeats, max_value, limit, found, nodes, note", [
    # node_limit caps each enumerator alone, so the report's 65,394 nodes
    # (62,114 DFS + 3,280 confirmer) exceed it
    (3, False, 64, 62_114, True, 65_394, ""),
    (3, False, 64, 62_113, False, 62_113, "budget exhausted at N=24; threshold > 23"),
    (4, True, 40, 132_983, False, 132_983, "no threshold within 40"),
    (4, True, 40, 132_982, False, 132_982, "budget exhausted at N=40; threshold > 39"),
])
def test_threshold_budget_edges(k, repeats, max_value, limit, found, nodes, note):
    report = threshold_search(k, repeats, SearchBudget(max_value=max_value,
                                                       node_limit=limit))
    assert report.found is found and report.nodes == nodes and report.note == note
    assert report.confirmed_independent is found
    if found:
        assert report.n == 24


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


@pytest.mark.parametrize("enumerate_, args", [
    (_lex_first_avoider, (4, 40, True)),
    (_lex_first_avoider, (3, 64, False)),
    (_avoider_exists_fc, (3, 24, False)),
    (_avoider_exists_fc, (3, 14, True)),
])
@pytest.mark.parametrize("limit", [10 ** 7, 100])
def test_threshold_enumerators_spend_once_per_node(enumerate_, args, limit):
    # a loop that counted its nodes locally would call spend fewer times
    # than it records as used
    nodes = _CountedBudget(limit)
    enumerate_(*args, nodes)
    assert nodes.refused is (limit == 100)
    assert nodes.calls == nodes.used + nodes.refused


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
