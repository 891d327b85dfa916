"""Witness searches: Hindman, Milliken–Taylor, Schur thresholds, dichotomy."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumgames import search as search_module
from sumgames.cli import EXIT_OK, main
from sumgames.coloring import (
    cardinality_coloring,
    constant_coloring,
    parity_coloring,
    seeded_hash_coloring,
    table_coloring,
)
from sumgames.search import (
    Collapse,
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
from sumgames.search import _NodeBudget, _avoider_exists_fc, _lex_first_avoider
from sumgames.semigroups import (
    CertificateError,
    ElementSequence,
    ImproperSequenceError,
    finite_sets,
    naturals,
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
    chi = table_coloring({1: 1, 4: 1, 2: 2, 3: 2}, d=1, k=2)
    out = hindman_search(chi, 2, SearchBudget(max_value=4))
    assert isinstance(out, Exhausted)
    assert out.complete


def test_hindman_budget_exhaustion_is_distinct():
    chi = table_coloring({1: 1, 4: 1, 2: 2, 3: 2}, d=1, k=2)
    out = hindman_search(chi, 2, SearchBudget(max_value=4, node_limit=2))
    assert isinstance(out, Exhausted)
    assert not out.complete


def test_hindman_parallel_matches_sequential():
    chi = seeded_hash_coloring(2, seed=11, d=1)
    seq = hindman_search(chi, 2, SearchBudget(max_value=20))
    par = hindman_search(chi, 2, SearchBudget(max_value=20, parallelism=4))
    assert isinstance(seq, Witness) and isinstance(par, Witness)
    assert seq.terms == par.terms


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
    values = w.certificate["fs_values"]
    assert all(v % 2 == 0 for v in values)
    assert verify_mt_witness(w, NAT, base, chi_e, 2, chi_vertex=chi_v)


def test_mt_chain_constraint_membership():
    base = pow2_base(8)
    chain = fs_tail_chain(base)
    w = mt_search(constant_coloring(2, 1), NAT, base, m=2, d=2,
                  budget=SearchBudget(max_index=6), chain=chain)
    assert isinstance(w, Witness)
    for i, term in enumerate(w.terms, start=1):
        assert chain.set_at(i)(term)
    assert verify_mt_witness(w, NAT, base, constant_coloring(2, 1), 2, chain=chain)


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
# the weak Schur numbers WS(1..3) = 2, 8, 23 for distinct x, y.
@pytest.mark.parametrize("k, repeats, n", [
    (1, True, 2), (2, True, 5), (3, True, 14),
    (1, False, 3), (2, False, 9), (3, False, 24),
])
def test_threshold_published_values(k, repeats, n):
    report = threshold_search(k, allow_repeats=repeats)
    assert report.found and report.n == n
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
    assert nodes.used == 1001 and depth < 40
    assert not _has_mono_triple_reference(avoider, depth, True)
    report = threshold_search(4, budget=SearchBudget(max_value=40, node_limit=1000))
    assert not report.found and report.nodes == 1001
    assert report.note == f"budget exhausted at N={depth + 1}; threshold > {depth}"


def test_threshold_confirmation_obeys_node_limit(monkeypatch):
    nodes = _NodeBudget(100)
    assert _avoider_exists_fc(3, 24, False, nodes) is None
    assert nodes.used == 101
    # A confirmation cut by its budget leaves the threshold unconfirmed.
    monkeypatch.setattr(search_module, "_avoider_exists_fc",
                        lambda k, n, repeats, budget: None)
    report = threshold_search(3, allow_repeats=False)
    assert report.found and report.n == 24
    assert not report.confirmed_independent
    assert "confirmation budget" in report.note


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
    from sumgames.search import _candidate_blocks
    from sumgames.semigroups import (BlockSequence, fs_enumerate,
                                     block_chains, indexed_sum,
                                     proper_violation)

    for F in _candidate_blocks(1, hi - 1):
        for H in _candidate_blocks(max(F) + 1, hi):
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
