"""Cover-partition search, the cofinite encoding, constrained chains."""
from fractions import Fraction

import pytest

from sumgames import partition as partition_module
from sumgames.coloring import (
    Coloring,
    cardinality_coloring,
    constant_coloring,
    seeded_hash_coloring,
)
from sumgames.covers import CoverKind, Space, classify_cover
from sumgames.filters import chain_check
from sumgames.partition import (
    PartitionWitness,
    ap_family,
    build_constrained_chain,
    density_family,
    discrete_comb_search,
    encode_cofinite_example,
    initial_segment_covers,
    menger_mt_search,
    singleton_family,
    upper_density,
    verify_partition_witness,
)
from sumgames.search import Exhausted, SearchBudget, mt_search
from sumgames.semigroups import CertificateError, ElementSequence, finite_sets
from sumgames.verdicts import Verdict

NATS = Space.naturals()
FIN = finite_sets()


def max_parity_vertex() -> Coloring:
    def fn(s):
        elem = next(iter(s))
        return 1 + (max(elem.value.data) % 2)

    return Coloring(1, 2, fn, name="max-parity")


# ---------------------------------------------------------------- menger search

def test_menger_interval_instance_small_horizon():
    # Oracle (frozen): at horizon 3 the least witness has unions
    # [0..2] and [0..4], both of even max.
    dc = initial_segment_covers(NATS)
    out = menger_mt_search(dc, max_parity_vertex(), constant_coloring(2, 1),
                           m=2, d=2, target=CoverKind.LAMBDA, horizon=3,
                           budget=SearchBudget(max_index=14),
                           target_params={"t": 2})
    assert isinstance(out, PartitionWitness)
    assert [sorted(u.data) for u in out.unions] == [[0, 1, 2], [0, 1, 2, 3, 4]]
    assert out.color_vertex == 1
    assert verify_partition_witness(out, dc, constant_coloring(2, 1), 2,
                                    chi_vertex=max_parity_vertex(), horizon=3, t=2)


def test_menger_interval_instance_horizon_10():
    # Oracle (frozen): coverage at horizon 10 forces wider unions.
    dc = initial_segment_covers(NATS)
    out = menger_mt_search(dc, max_parity_vertex(), constant_coloring(2, 1),
                           m=2, d=2, target=CoverKind.LAMBDA, horizon=10,
                           budget=SearchBudget(max_index=12),
                           target_params={"t": 2})
    assert isinstance(out, PartitionWitness)
    assert [max(u.data) for u in out.unions] == [9, 11]


def test_menger_constant_coloring_first_blocks():
    dc = initial_segment_covers(NATS)
    out = menger_mt_search(dc, None, constant_coloring(2, 1), m=2, d=2,
                           target=CoverKind.OP, horizon=2,
                           budget=SearchBudget(max_index=8))
    assert isinstance(out, PartitionWitness)
    assert [sorted(b) for b in out.index_blocks] == [[1], [2]]


def test_menger_exhaustion_reports_best_depth():
    dc = initial_segment_covers(NATS)
    out = menger_mt_search(dc, None, constant_coloring(2, 1), m=3, d=2,
                           target=CoverKind.LAMBDA, horizon=30,
                           budget=SearchBudget(max_index=5),
                           target_params={"t": 2})
    assert isinstance(out, Exhausted)
    assert "best depth" in out.note


def test_partition_witness_disjointness_and_order():
    dc = initial_segment_covers(NATS)
    out = menger_mt_search(dc, None, cardinality_coloring(2), m=3, d=2,
                           target=CoverKind.OP, horizon=2,
                           budget=SearchBudget(max_index=9))
    assert isinstance(out, PartitionWitness)
    seen = set()
    for fam in out.families:
        indices = {j for j, _ in fam}
        assert not indices & seen
        seen |= indices
    assert out.color_edge == 2


# ---------------------------------------------------------------- cofinite encoding

def test_cofinite_isomorphism():
    inst = encode_cofinite_example(5)
    for F in (frozenset({1, 3}), frozenset({2}), frozenset({1, 4, 5})):
        union = None
        for n in sorted(F):
            union = inst.o_set(n) if union is None else union.union(inst.o_set(n))
        assert inst.decode_union(union) == F


def test_cofinite_cover_is_point_infinite():
    inst = encode_cofinite_example(8)
    assert classify_cover(inst.cover, CoverKind.LAMBDA, horizon=9, t=2) is Verdict.HOLDS


def test_cofinite_has_no_finite_subcover_escapes():
    inst = encode_cofinite_example(6)
    assert inst.dc.check_escapes(6) == []


def test_rejected_partition_certificate_raises(monkeypatch):
    monkeypatch.setattr(partition_module, "verify_partition_witness",
                        lambda *a, **kw: False)
    inst = encode_cofinite_example(6)
    with pytest.raises(CertificateError):
        menger_mt_search(inst.dc, None, constant_coloring(2, 1), m=2, d=2,
                         target=CoverKind.OP, horizon=1,
                         budget=SearchBudget(max_index=6))


def test_cofinite_roundtrip_against_direct_search():
    # Oracle: the same seeded pair coloring drives both searches; the
    # decoded partition certificate must equal the direct block certificate.
    for seed in (3, 17):
        chi = seeded_hash_coloring(2, seed, d=2)
        inst = encode_cofinite_example(8)

        def chi_on_unions(s, _chi=chi, _inst=inst):
            return _chi.fn(frozenset(_inst.decode_union(u.value) for u in s))

        chi_prime = Coloring(2, 2, chi_on_unions, name="decoded")
        base = ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
        budget = SearchBudget(max_index=8)
        direct = mt_search(chi, FIN, base, m=2, d=2, budget=budget)
        menger = menger_mt_search(inst.dc, None, chi_prime, m=2, d=2,
                                  target=CoverKind.OP, horizon=1, budget=budget)
        if isinstance(direct, Exhausted):
            assert isinstance(menger, Exhausted)
        else:
            decoded = inst.decode_witness(menger)
            assert tuple(decoded) == tuple(direct.blocks)


# ---------------------------------------------------------------- chains

def test_ap_chain_passes_chain_check():
    chain = build_constrained_chain(lambda i: i, lambda n: ap_family(lambda i: i, n))
    report = chain_check(chain, depth=4, window=4)
    assert report.verdict is Verdict.HOLDS


def test_density_chain_passes_chain_check():
    thresholds = {n: Fraction(1, 2) - Fraction(1, n + 2) for n in range(1, 9)}
    chain = build_constrained_chain(
        lambda i: i, lambda n: density_family(lambda i: i, thresholds[n]))
    report = chain_check(chain, depth=4, window=4)
    assert report.verdict is Verdict.HOLDS


def test_singleton_families_fail_descension():
    # {{a_n}} levels do not refine each other, so the honest check fails.
    chain = build_constrained_chain(lambda i: i,
                                    lambda n: singleton_family(lambda i: i, n))
    report = chain_check(chain, depth=3, window=3)
    assert report.verdict is Verdict.FAILS
    assert report.descending_failures


def test_chain_constrained_search_satisfies_membership():
    chain = build_constrained_chain(lambda i: i, lambda n: ap_family(lambda i: i, n))
    base = ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
    out = mt_search(constant_coloring(2, 1), FIN, base, m=3, d=2,
                    budget=SearchBudget(max_index=9), chain=chain)
    assert not isinstance(out, Exhausted)
    for n, term in enumerate(out.terms, start=1):
        assert ap_family(lambda i: i, n).has_member_inside(term)


def test_ap_family_detection():
    fam = ap_family(lambda i: i, 3)
    assert fam.has_member_inside(frozenset({1, 5, 9, 12}))
    assert not fam.has_member_inside(frozenset({1, 2, 4, 8}))
    assert fam.has_member_inside(fam.member_in_tail(5))


def test_density_family_detection():
    fam = density_family(lambda i: 2 * i, Fraction(1, 3))
    w = fam.member_in_tail(4)
    assert fam.has_member_inside(w)
    assert min(w) >= 8


def test_density_witness_union_reaches_threshold():
    # A chain-constrained witness's union of terms carries the certified
    # stage density: some prefix beats the last level's threshold.
    thresholds = {n: Fraction(1, 2) - Fraction(1, n + 2) for n in range(1, 9)}
    chain = build_constrained_chain(
        lambda i: i, lambda n: density_family(lambda i: i, thresholds[n]))
    base = ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
    out = mt_search(constant_coloring(2, 1), FIN, base, m=3, d=2,
                    budget=SearchBudget(max_index=12), chain=chain)
    assert not isinstance(out, Exhausted)
    union = frozenset().union(*out.terms)
    stage = upper_density(lambda k: k in union, max(union))
    assert stage.running_max > thresholds[3]


def test_menger_parallel_matches_sequential():
    dc = initial_segment_covers(NATS)
    kwargs = dict(m=2, d=2, target=CoverKind.OP, horizon=2)
    seq = menger_mt_search(dc, None, constant_coloring(2, 1),
                           budget=SearchBudget(max_index=8), **kwargs)
    par = menger_mt_search(dc, None, constant_coloring(2, 1),
                           budget=SearchBudget(max_index=8, parallelism=4),
                           **kwargs)
    assert isinstance(seq, PartitionWitness) and isinstance(par, PartitionWitness)
    assert seq.to_record() == par.to_record()


# ---------------------------------------------------------------- densities

def test_upper_density_stages():
    evens = upper_density(lambda k: k % 2 == 0, 10)
    assert evens.stage == Fraction(1, 2)
    single = upper_density(lambda k: k == 1, 10)
    assert single.stage == Fraction(1, 10)
    assert single.running_max == Fraction(1, 1)
    assert upper_density(lambda k: True, 7).stage == 1


# ---------------------------------------------------------------- discrete

def test_discrete_comb_search_omega():
    out = discrete_comb_search(5, None, constant_coloring(2, 1), m=2, d=2,
                               budget=SearchBudget(max_index=12), s=2)
    assert isinstance(out, PartitionWitness)
    assert out.target is CoverKind.OMEGA
    # every pair of points {0..4} sits inside one of the unions
    points = NATS.points_up_to(5)
    for a in points:
        for b in points:
            assert any(u.contains(a) and u.contains(b) for u in out.unions)


def test_discrete_comb_search_cardinality_edge():
    out = discrete_comb_search(4, None, cardinality_coloring(2), m=2, d=2,
                               budget=SearchBudget(max_index=12), s=2)
    assert isinstance(out, PartitionWitness)
    assert out.color_edge == 2


def test_discrete_comb_search_seeded():
    out = discrete_comb_search(6, None, seeded_hash_coloring(2, 5, d=2),
                               m=3, d=2, budget=SearchBudget(max_index=14), s=2)
    assert isinstance(out, (PartitionWitness, Exhausted))
