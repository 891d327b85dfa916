"""Cover-partition search, the cofinite encoding, constrained chains."""
import functools
import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumgames import check as check_module
from sumgames import partition as partition_module
from sumgames.coloring import (
    Coloring,
    cardinality_coloring,
    constant_coloring,
    seeded_hash_coloring,
)
from sumgames.covers import Cover, CoverKind, SSet, Space, classify_cover
from sumgames.filters import chain_check
from sumgames.partition import (
    DescendingCovers,
    FiniteSetFamily,
    PartitionWitness,
    ap_family,
    build_constrained_chain,
    density_family,
    discrete_comb_search,
    encode_cofinite_example,
    initial_segment_covers,
    menger_mt_search,
    upper_density,
    verify_partition_witness,
)
from sumgames.search import (
    Exhausted,
    SearchBudget,
    _chain_candidates,
    _depth_first,
    _prefix_sums,
    _PrefixState,
    mt_search,
)
from sumgames.semigroups import CertificateError, ElementSequence, _block, _mask, finite_sets
from sumgames.verdicts import Verdict

NATS = Space.naturals()
FIN = finite_sets()


def max_parity_vertex() -> Coloring:
    def fn(s):
        elem = next(iter(s))
        return 1 + (max(elem.data) % 2)

    return Coloring(1, 2, fn, name="max-parity")


# ---------------------------------------------------------------- cover membership

def scanned_allowed_indices(dc, n, hi):
    """``allowed_indices`` as a scan of U_n's prefix for each U_1-index,
    the reference for its set lookup."""
    base = dc.cover_at(1)
    cn = dc.cover_at(n)
    hi = min(hi, base.prefix_length(hi))
    cn_sets = cn.prefix(min(cn.prefix_length(hi), base.prefix_length(hi)))
    out = []
    for j in range(n, hi + 1):
        u = base.set_at(j)
        if any(u == s for s in cn_sets):
            out.append(j)
    return out


def scanned_check_descension(dc, depth, hi):
    """``check_descension`` as a scan of U_n's prefix for each member of
    U_{n+1}, the reference for its set lookup."""
    bad = []
    wide = hi + depth + 4
    for n in range(1, depth + 1):
        upper = dc.cover_at(n)
        lower = dc.cover_at(n + 1)
        upper_sets = upper.prefix(min(upper.prefix_length(wide), wide))
        for s in lower.prefix(min(lower.prefix_length(hi), hi)):
            if not any(s == u for u in upper_sets):
                bad.append((n, s))
    return bad


def finite_pair(u1, u2):
    """Descending covers U_1 = u1 and U_n = u2 for every n >= 2."""
    space = Space.finite_points(range(8))
    covers = {1: Cover(space, sets=u1), 2: Cover(space, sets=u2)}
    return DescendingCovers(space=space, cover_at=lambda n: covers[min(n, 2)],
                            escape_point=lambda n: 7)


A, B, C, D, E, X, Y = (SSet.finite({p}) for p in range(7))


def membership_instances():
    yield initial_segment_covers(NATS), range(1, 5), range(1, 15)
    for t in range(3, 8):
        yield encode_cofinite_example(t).dc, range(1, t + 1), range(1, t + 3)
    yield finite_pair([A, B, C, D, E], [D, E, C, B]), range(1, 3), range(1, 7)
    # U_2 holds members that U_1 lacks, so descension fails
    yield finite_pair([A, B, C, D, E], [X, D, Y, B]), range(1, 3), range(1, 7)


def test_membership_lookups_equal_the_scans():
    for dc, ns, his in membership_instances():
        for hi in his:
            for n in ns:
                assert dc.allowed_indices(n, hi) == scanned_allowed_indices(dc, n, hi)
            for depth in (1, 2, 3):
                assert (dc.check_descension(depth, hi)
                        == scanned_check_descension(dc, depth, hi))


def test_membership_reads_u_n_past_hi():
    # B is the 4th member of U_2, past hi = 3, and still a member of U_2:
    # a U_n prefix cut at hi would drop index 2
    dc = finite_pair([A, B, C, D, E], [D, E, C, B])
    assert dc.allowed_indices(2, 3) == [2, 3]
    broken = finite_pair([A, B, C, D, E], [X, D, Y, B])
    assert broken.check_descension(2, 4) == [(1, X), (1, Y)]


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


def test_custom_colorings_are_given_sset_members():
    # a coloring without a canonical key sees each union as its set, in
    # the search and in the verifier alike
    seen = {"vertex": [], "edge": []}

    def recorder(kind):
        def fn(s):
            seen[kind].extend(s)
            return 1
        return Coloring(1 if kind == "vertex" else 2, 1, fn, name=kind)

    out = menger_mt_search(initial_segment_covers(NATS), recorder("vertex"),
                           recorder("edge"), m=2, d=2, target=CoverKind.LAMBDA,
                           horizon=3, budget=SearchBudget(max_index=8),
                           target_params={"t": 1})
    assert isinstance(out, PartitionWitness)
    for members in seen.values():
        assert members and all(type(x) is SSet for x in members)
        assert set(out.unions) <= set(members)


def test_menger_constant_coloring_first_blocks():
    dc = initial_segment_covers(NATS)
    out = menger_mt_search(dc, None, constant_coloring(2, 1), m=2, d=2,
                           target=CoverKind.OP, horizon=2,
                           budget=SearchBudget(max_index=8))
    assert isinstance(out, PartitionWitness)
    assert [sorted(b) for b in out.index_blocks] == [[1], [2]]


def test_menger_refuses_max_value_it_does_not_read():
    with pytest.raises(ValueError, match="menger_mt_search does not read max_value=4$"):
        menger_mt_search(initial_segment_covers(NATS), None, constant_coloring(2, 1),
                         m=2, d=2, target=CoverKind.OP, horizon=2,
                         budget=SearchBudget(max_index=8, max_value=4))


def test_menger_exhaustion_reports_best_depth():
    dc = initial_segment_covers(NATS)
    out = menger_mt_search(dc, None, constant_coloring(2, 1), m=3, d=2,
                           target=CoverKind.LAMBDA, horizon=30,
                           budget=SearchBudget(max_index=5),
                           target_params={"t": 2})
    assert isinstance(out, Exhausted)
    assert "best depth" in out.note


def test_menger_rejects_fewer_rounds_than_d():
    with pytest.raises(ValueError, match="m=2 < d=3"):
        menger_mt_search(initial_segment_covers(NATS), None, seeded_hash_coloring(2, 1, 3),
                         m=2, d=3, target=CoverKind.OP, horizon=2,
                         budget=SearchBudget(max_index=6))


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


def test_partition_checker_reads_allowed_indices_from_the_definition(monkeypatch):
    # Round n may use U_1-index j when j >= n and U_1's j-th set is a member
    # of U_n.  The checker reads both from the covers, so breaking
    # allowed_indices, the search's source of candidates, to allow every
    # index changes none of its verdicts.
    space = Space.finite_points(range(4))
    a, b, c = SSet.finite({0, 1}), SSet.finite({1, 2}), SSet.finite({0, 1, 2})
    first = Cover(space, sets=[a, b, c])

    def covers(second: list) -> DescendingCovers:
        return DescendingCovers(space, lambda n: first if n == 1 else Cover(space, sets=second),
                                escape_point=lambda n: n)

    def witness(*indices) -> PartitionWitness:
        # one U_1-index per round; the index blocks as a tuple, which may
        # list them out of order
        sets = [first.set_at(j) for j in indices]
        return PartitionWitness(families=tuple(((j, s),) for j, s in zip(indices, sets)),
                                unions=tuple(sets),
                                index_blocks=tuple(frozenset({j}) for j in indices),
                                color_vertex=None, color_edge=1, target=CoverKind.OP,
                                coverage=Verdict.HOLDS)

    cases = [(witness(1, 2), [a, b, c]),
             (witness(1, 2), [a, c]),     # {1, 2} is not a member of U_2
             (witness(2, 1), [a, b, c])]  # index 1 cannot serve round 2

    def verdicts() -> list:
        return [verify_partition_witness(w, covers(second), constant_coloring(2, 1), 2,
                                         horizon=3) for w, second in cases]

    assert verdicts() == [True, False, False]
    monkeypatch.setattr(DescendingCovers, "allowed_indices",
                        lambda self, n, hi: list(range(1, hi + 1)))
    assert verdicts() == [True, False, False]


def test_cofinite_roundtrip_against_direct_search():
    # Oracle: the same seeded pair coloring drives both searches; the
    # decoded partition certificate must equal the direct block certificate.
    for seed in (3, 17):
        chi = seeded_hash_coloring(2, seed, d=2)
        inst = encode_cofinite_example(8)

        def chi_on_unions(s, _chi=chi, _inst=inst):
            return _chi.fn(frozenset(_inst.decode_union(u) for u in s))

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
    chain = build_constrained_chain(ap_family)
    report = chain_check(chain, depth=4, window=4)
    assert report.verdict is Verdict.HOLDS


def test_density_chain_passes_chain_check():
    thresholds = {n: Fraction(1, 2) - Fraction(1, n + 2) for n in range(1, 9)}
    chain = build_constrained_chain(lambda n: density_family(thresholds[n]))
    report = chain_check(chain, depth=4, window=4)
    assert report.verdict is Verdict.HOLDS


def test_singleton_families_fail_descension():
    # {{a_n}} levels do not refine each other, so the honest check fails.
    def singleton(n):
        return FiniteSetFamily(has_member_inside=lambda F: n in F,
                               member_in_tail=lambda k: frozenset({max(k, n)}),
                               name=f"singleton-{n}")

    chain = build_constrained_chain(singleton)
    report = chain_check(chain, depth=3, window=3)
    assert report.verdict is Verdict.FAILS
    assert report.descending_failures


def test_chain_constrained_search_satisfies_membership():
    chain = build_constrained_chain(ap_family)
    base = ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
    out = mt_search(constant_coloring(2, 1), FIN, base, m=3, d=2,
                    budget=SearchBudget(max_index=9), chain=chain)
    assert not isinstance(out, Exhausted)
    for n, term in enumerate(out.terms, start=1):
        assert ap_family(n).has_member_inside(term)


def test_ap_family_detection():
    fam = ap_family(3)
    assert fam.has_member_inside(frozenset({1, 5, 9, 12}))
    assert not fam.has_member_inside(frozenset({1, 2, 4, 8}))
    assert fam.has_member_inside(fam.member_in_tail(5))
    # tail witnesses are progressions of step 1, at most _AP_WINDOW = 64 long
    assert ap_family(64).member_in_tail(5) == frozenset(range(5, 69))
    with pytest.raises(ValueError, match="length 65"):
        ap_family(65).member_in_tail(1)


def test_density_family_detection():
    fam = density_family(Fraction(1, 3))
    # the shortest run from 4 above density 1/3: 2 / 5
    assert fam.member_in_tail(4) == frozenset({4, 5})
    assert fam.has_member_inside(frozenset({4, 5, 40}))
    assert not fam.has_member_inside(frozenset({4, 40}))
    with pytest.raises(ValueError, match="never exceeded density 1"):
        density_family(Fraction(1)).member_in_tail(1)


def test_chain_membership_is_its_definition():
    # A_n holds the nonempty finite F with min F >= n that contain a member
    # of the n-th family, whatever the chain was asked before
    probes = [frozenset({600}), frozenset(range(1, 401)), frozenset({600}),
              frozenset({3, 5, 7, 1000}), frozenset({2, 3}), frozenset(), 600]
    levels = range(1, 5)
    chain = build_constrained_chain(ap_family)
    asked = [[chain.set_at(n)(x) for n in levels] for x in probes]
    fresh = [[build_constrained_chain(ap_family).set_at(n)(x) for n in levels]
             for x in probes]
    assert asked == fresh == [
        [True, False, False, False],
        [True, False, False, False],
        [True, False, False, False],
        [True, True, True, False],
        [True, True, False, False],
        [False] * 4,
        [False] * 4,
    ]


def test_chain_exclusion_index_is_least_element_plus_one():
    chain = build_constrained_chain(ap_family)
    for x in (frozenset({1}), frozenset({4, 9}), frozenset({10 ** 6})):
        assert chain.exclusion_index(x) == min(x) + 1
        assert not chain.set_at(min(x) + 1)(x)
    assert chain.exclusion_index(frozenset()) == chain.exclusion_index(7) == 1


def test_density_witness_union_reaches_threshold():
    # A chain-constrained witness's union of terms carries the certified
    # stage density: some prefix beats the last level's threshold.
    thresholds = {n: Fraction(1, 2) - Fraction(1, n + 2) for n in range(1, 9)}
    chain = build_constrained_chain(lambda n: density_family(thresholds[n]))
    base = ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
    out = mt_search(constant_coloring(2, 1), FIN, base, m=3, d=2,
                    budget=SearchBudget(max_index=12), chain=chain)
    assert not isinstance(out, Exhausted)
    union = frozenset().union(*out.terms)
    stage = upper_density(lambda k: k in union, max(union))
    assert stage.running_max > thresholds[3]


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
    def run(node_limit):
        return discrete_comb_search(6, None, seeded_hash_coloring(2, 5, d=2), m=3, d=2,
                                    budget=SearchBudget(max_index=14, node_limit=node_limit),
                                    s=2)

    # pinned before the kernel colored each subject once: the witness is
    # found at node 258, so a budget of 257 nodes is cut one node short
    out = run(258)
    assert out.to_record() == {
        "index_blocks": [[1], [2], list(range(3, 12))],
        "families": [[1], [2], list(range(3, 12))],
        "color_vertex": None, "color_edge": 1, "target": "omega", "coverage": "holds"}
    assert [sorted(u.data) for u in out.unions] == [[0, 1], [0, 1, 2], list(range(12))]
    cut = run(257)
    assert isinstance(cut, Exhausted) and (cut.complete, cut.nodes) == (False, 257)


# ---------------------------------------------------------------- pinned searches

def _pinned_runs() -> dict:
    """Seeded Menger searches: initial segments under the λ, ω and γ
    targets with and without a vertex coloring, the cofinite instance
    under constant and cardinality colorings, and the discrete instance
    with a vertex coloring, once with its node budget cut."""
    runs = {}
    for target in (CoverKind.LAMBDA, CoverKind.OMEGA, CoverKind.GAMMA):
        for vertex in (False, True):
            for seed in range(6):
                runs[f"segments-{target.value}-{'vertex' if vertex else 'edge'}-{seed}"] = (
                    lambda target=target, vertex=vertex, seed=seed: menger_mt_search(
                        initial_segment_covers(NATS),
                        seeded_hash_coloring(2, 100 + seed) if vertex else None,
                        seeded_hash_coloring(2, seed, d=2), 3, 2, target, 6,
                        SearchBudget(max_index=10)))
    for name, chi in (("constant", constant_coloring(2)),
                      ("cardinality", cardinality_coloring(2))):
        for t in (6, 7):
            for target in (CoverKind.OP, CoverKind.LAMBDA):
                for m in (2, 3):
                    runs[f"cofinite-{name}-{t}-{target.value}-{m}"] = (
                        lambda chi=chi, t=t, target=target, m=m: menger_mt_search(
                            encode_cofinite_example(t).dc, None, chi, m, 2, target, 1,
                            SearchBudget(max_index=t)))
    for K in (4, 5):
        for seed in range(6):
            runs[f"comb-{K}-{seed}"] = lambda K=K, seed=seed: discrete_comb_search(
                K, seeded_hash_coloring(2, 100 + seed), seeded_hash_coloring(2, seed, d=2),
                4, 2, SearchBudget(max_index=10))
    runs["comb-5-cut"] = lambda: discrete_comb_search(
        5, seeded_hash_coloring(2, 101), seeded_hash_coloring(2, 1, d=2), 4, 2,
        SearchBudget(max_index=10, node_limit=1000))
    return runs


PINNED_RUNS = _pinned_runs()

# Results of the runs above before the search listed its candidates as
# index blocks: ("exhausted", complete, nodes), or a witness's families,
# vertex and edge colors, target, coverage and a digest of its unions.
PINNED_RESULTS = {
    'segments-lambda-edge-0': ([[1], [2, 3, 4, 5, 6], [7]], None, 2, 'lambda', 'holds', 'cf40ba43981888a8'),
    'segments-lambda-edge-1': ([[1], [2, 3, 4, 5], [6]], None, 1, 'lambda', 'holds', '837d06ce745e5d84'),
    'segments-lambda-edge-2': ([[1], [2, 3, 4, 5], [6, 7]], None, 1, 'lambda', 'holds', 'bb8ec9eadbe3f6bd'),
    'segments-lambda-edge-3': ([[1], [2, 3, 4, 5, 6], [7, 8, 9]], None, 1, 'lambda', 'holds', 'c2aff000d4fc744e'),
    'segments-lambda-edge-4': ([[1], [2, 3, 4, 5], [6]], None, 2, 'lambda', 'holds', '837d06ce745e5d84'),
    'segments-lambda-edge-5': ([[1], [2, 3, 4, 5], [6, 7, 8, 9]], None, 2, 'lambda', 'holds', '5d8954a61e0cf004'),
    'segments-lambda-vertex-0': ([[1, 2], [3, 4, 5], [6]], 2, 1, 'lambda', 'holds', 'd26df3dee2870cfe'),
    'segments-lambda-vertex-1': ([[1], [2, 3, 4, 5], [6, 7, 8, 9]], 1, 1, 'lambda', 'holds', '5d8954a61e0cf004'),
    'segments-lambda-vertex-2': ([[1], [2, 3, 4, 5], [6, 7]], 2, 1, 'lambda', 'holds', 'bb8ec9eadbe3f6bd'),
    'segments-lambda-vertex-3': ([[1, 2], [3, 4, 5, 6], [7]], 2, 2, 'lambda', 'holds', 'ddb3eed3b186b137'),
    'segments-lambda-vertex-4': ([[1], [2, 3, 4, 5], [6, 7]], 2, 2, 'lambda', 'holds', 'bb8ec9eadbe3f6bd'),
    'segments-lambda-vertex-5': ([[1, 2, 3, 4], [5, 6], [7]], 1, 1, 'lambda', 'holds', '633a53e4dc0729d4'),
    'segments-omega-edge-0': ([[1], [2, 3, 4, 5, 6], [7]], None, 2, 'omega', 'holds', 'cf40ba43981888a8'),
    'segments-omega-edge-1': ([[1], [2], [3, 4, 5, 6]], None, 1, 'omega', 'holds', 'af693263f0c4c6d4'),
    'segments-omega-edge-2': ([[1], [2], [3, 4, 5, 6, 7]], None, 1, 'omega', 'holds', '8f56e9029b991d84'),
    'segments-omega-edge-3': ([[1], [2], [3, 4, 5]], None, 1, 'omega', 'holds', '84175fb2a666ae7c'),
    'segments-omega-edge-4': ([[1], [2], [3, 4, 5]], None, 2, 'omega', 'holds', '84175fb2a666ae7c'),
    'segments-omega-edge-5': ([[1], [2, 3], [4, 5, 6, 7, 8, 9, 10]], None, 1, 'omega', 'holds', '4002e7e70ea305f0'),
    'segments-omega-vertex-0': ([[1, 2], [3], [4, 5, 6]], 2, 1, 'omega', 'holds', '7c39d1ea137175da'),
    'segments-omega-vertex-1': ([[1], [2], [3, 4, 5, 6, 7, 8, 9]], 1, 1, 'omega', 'holds', '05e3372034d3cdfb'),
    'segments-omega-vertex-2': ([[1], [2, 3], [4, 5, 6]], 2, 2, 'omega', 'holds', 'd2e0282c82551bfb'),
    'segments-omega-vertex-3': ([[1, 2], [3, 4, 5, 6], [7]], 2, 2, 'omega', 'holds', 'ddb3eed3b186b137'),
    'segments-omega-vertex-4': ([[1], [2, 3], [4, 5]], 2, 2, 'omega', 'holds', 'b20a04e2a3567f48'),
    'segments-omega-vertex-5': ([[1], [2, 3, 4], [5, 6, 7, 8]], 1, 2, 'omega', 'holds', 'a59a27961622991a'),
    'segments-gamma-edge-0': ([[1], [2, 3, 4, 5, 6], [7]], None, 2, 'gamma', 'holds', 'cf40ba43981888a8'),
    'segments-gamma-edge-1': ([[1], [2], [3, 4, 5, 6]], None, 1, 'gamma', 'holds', 'af693263f0c4c6d4'),
    'segments-gamma-edge-2': ([[1], [2], [3, 4, 5, 6, 7]], None, 1, 'gamma', 'holds', '8f56e9029b991d84'),
    'segments-gamma-edge-3': ([[1], [2], [3, 4, 5]], None, 1, 'gamma', 'holds', '84175fb2a666ae7c'),
    'segments-gamma-edge-4': ([[1], [2], [3, 4, 5]], None, 2, 'gamma', 'holds', '84175fb2a666ae7c'),
    'segments-gamma-edge-5': ([[1], [2, 3], [4, 5, 6, 7, 8, 9, 10]], None, 1, 'gamma', 'holds', '4002e7e70ea305f0'),
    'segments-gamma-vertex-0': ([[1, 2], [3], [4, 5, 6]], 2, 1, 'gamma', 'holds', '7c39d1ea137175da'),
    'segments-gamma-vertex-1': ([[1], [2], [3, 4, 5, 6, 7, 8, 9]], 1, 1, 'gamma', 'holds', '05e3372034d3cdfb'),
    'segments-gamma-vertex-2': ([[1], [2, 3], [4, 5, 6]], 2, 2, 'gamma', 'holds', 'd2e0282c82551bfb'),
    'segments-gamma-vertex-3': ([[1, 2], [3, 4, 5, 6], [7]], 2, 2, 'gamma', 'holds', 'ddb3eed3b186b137'),
    'segments-gamma-vertex-4': ([[1], [2, 3], [4, 5]], 2, 2, 'gamma', 'holds', 'b20a04e2a3567f48'),
    'segments-gamma-vertex-5': ([[1], [2, 3, 4], [5, 6, 7, 8]], 1, 2, 'gamma', 'holds', 'a59a27961622991a'),
    'cofinite-constant-6-op-2': ([[1], [2]], None, 1, 'op', 'holds', 'accdb034c67ff0b8'),
    'cofinite-constant-6-op-3': ([[1], [2], [3]], None, 1, 'op', 'holds', '38f80be6f91684fa'),
    'cofinite-constant-6-lambda-2': ([[1], [2]], None, 1, 'lambda', 'holds', 'accdb034c67ff0b8'),
    'cofinite-constant-6-lambda-3': ([[1], [2], [3]], None, 1, 'lambda', 'holds', '38f80be6f91684fa'),
    'cofinite-constant-7-op-2': ([[1], [2]], None, 1, 'op', 'holds', '50c8021c2482c1b3'),
    'cofinite-constant-7-op-3': ([[1], [2], [3]], None, 1, 'op', 'holds', '554c104e9d70173f'),
    'cofinite-constant-7-lambda-2': ([[1], [2]], None, 1, 'lambda', 'holds', '50c8021c2482c1b3'),
    'cofinite-constant-7-lambda-3': ([[1], [2], [3]], None, 1, 'lambda', 'holds', '554c104e9d70173f'),
    'cofinite-cardinality-6-op-2': ([[1], [2]], None, 2, 'op', 'holds', 'accdb034c67ff0b8'),
    'cofinite-cardinality-6-op-3': ([[1], [2], [3]], None, 2, 'op', 'holds', '38f80be6f91684fa'),
    'cofinite-cardinality-6-lambda-2': ([[1], [2]], None, 2, 'lambda', 'holds', 'accdb034c67ff0b8'),
    'cofinite-cardinality-6-lambda-3': ([[1], [2], [3]], None, 2, 'lambda', 'holds', '38f80be6f91684fa'),
    'cofinite-cardinality-7-op-2': ([[1], [2]], None, 2, 'op', 'holds', '50c8021c2482c1b3'),
    'cofinite-cardinality-7-op-3': ([[1], [2], [3]], None, 2, 'op', 'holds', '554c104e9d70173f'),
    'cofinite-cardinality-7-lambda-2': ([[1], [2]], None, 2, 'lambda', 'holds', '50c8021c2482c1b3'),
    'cofinite-cardinality-7-lambda-3': ([[1], [2], [3]], None, 2, 'lambda', 'holds', '554c104e9d70173f'),
    'comb-4-0': ([[1, 2, 3], [4], [5, 6, 7], [8, 9]], 2, 1, 'omega', 'holds', '90dd5c6aab94e2e0'),
    'comb-4-1': ('exhausted', True, 2853),
    'comb-4-2': ('exhausted', True, 2642),
    'comb-4-3': ('exhausted', True, 2458),
    'comb-4-4': ([[1], [2, 3], [4, 5], [6, 7]], 2, 2, 'omega', 'holds', '9c75e6c840b5ac73'),
    'comb-4-5': ([[1, 2, 3, 4, 5, 6], [7], [8], [9]], 1, 1, 'omega', 'holds', '2bd923d87a2173b3'),
    'comb-5-0': ([[1, 2, 3], [4], [5, 6, 7], [8, 9]], 2, 1, 'omega', 'holds', '90dd5c6aab94e2e0'),
    'comb-5-1': ('exhausted', True, 2853),
    'comb-5-2': ('exhausted', True, 2642),
    'comb-5-3': ('exhausted', True, 2458),
    'comb-5-4': ([[1], [2, 3], [4, 5], [6, 7]], 2, 2, 'omega', 'holds', '9c75e6c840b5ac73'),
    'comb-5-5': ([[1, 2, 3, 4, 5, 6], [7], [8], [9]], 1, 1, 'omega', 'holds', '2bd923d87a2173b3'),
    'comb-5-cut': ('exhausted', False, 1000),
}


def unions_digest(unions) -> str:
    form = [[u.kind, sorted(json.dumps(sorted(p) if isinstance(p, frozenset) else p)
                            for p in u.data)] for u in unions]
    return hashlib.sha256(json.dumps(form).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", list(PINNED_RUNS))
def test_menger_search_results_are_pinned(case):
    out = PINNED_RUNS[case]()
    want = PINNED_RESULTS[case]
    if want[0] == "exhausted":
        assert isinstance(out, Exhausted)
        assert ("exhausted", out.complete, out.nodes) == want
        return
    families, color_vertex, color_edge, target, coverage, digest = want
    assert out.to_record() == {
        "index_blocks": families, "families": families,
        "color_vertex": color_vertex, "color_edge": color_edge,
        "target": target, "coverage": coverage,
    }
    assert unions_digest(out.unions) == digest


def test_pinned_searches_include_exhausted_ones():
    outcomes = [want[:2] for want in PINNED_RESULTS.values() if want[0] == "exhausted"]
    assert outcomes.count(("exhausted", True)) >= 3
    assert ("exhausted", False) in outcomes


# ---------------------------------------------------------------- point masks

def reference_menger_search(dc, chi_vertex, chi_edge, m, d, target, horizon,
                            budget, **target_params):
    """The search on union values, as it ran before unions became point
    masks: each V_n an SSet, held and compared by value, the
    escape points tested with ``contains``, and the cover of every
    full-depth node classified anew.  Under lambda and gamma, a prefix r
    rounds short is dropped when its distinct unions and r sets that each
    hold every point, their best completion, do not classify HOLDS.
    Returns the driver's ``Exhausted``, or the witness's (blocks, unions,
    vertex color, edge color, coverage)."""
    hi = min(budget.max_index, dc.cover_at(1).prefix_length(budget.max_index))
    escapes = [dc.escape_point(n) for n in range(1, m + 1)]
    allowed = {n: _mask(dc.allowed_indices(n, hi)) for n in range(1, m + 1)}
    chains = _chain_candidates(hi, m)
    union_of = functools.cache(lambda F: functools.reduce(
        SSet.union, map(dc.member_set, _block(F))))

    def candidates(blocks):
        return (F for F in chains(blocks) if not F & ~allowed[len(blocks) + 1])

    def check(blocks, parent):
        term = union_of(blocks[-1])
        if not all(term.contains(x) for x in escapes[:len(blocks) - 1]):
            return None
        if len(blocks) < m and target in (CoverKind.LAMBDA, CoverKind.GAMMA):
            unions = list(dict.fromkeys(map(union_of, blocks)))
            best = Cover(dc.space, sets=unions + [SSet.cofinite(())] * (m - len(blocks)))
            if classify_cover(best, target, horizon, **target_params) is not Verdict.HOLDS:
                return None
        return _prefix_sums(parent, term)

    def finish(blocks, state):
        unions = tuple(state.sums[(1 << (n - 1)) - 1] for n in range(1, m + 1))
        cover = Cover(dc.space, sets=list(dict.fromkeys(unions)), name="reference")
        coverage = classify_cover(cover, target, horizon, **target_params)
        if coverage is not Verdict.HOLDS:
            return None
        return ([sorted(_block(F)) for F in blocks], unions, state.vertex_color,
                state.edge_color, coverage)

    return _depth_first(m, candidates, check, finish, budget.node_limit,
                        _PrefixState.root(check_module._UNIONS, chi_edge, d, chi_vertex))


def assert_same_as_reference(dc, chi_vertex, chi_edge, m, target, horizon, budget,
                             **target_params) -> bool:
    """The search and its value-path reference agree; True on a witness."""
    args = (dc, chi_vertex, chi_edge, m, 2, target, horizon, budget)
    want = reference_menger_search(*args, **target_params)
    got = menger_mt_search(*args, target_params=target_params)
    if isinstance(want, Exhausted):
        assert isinstance(got, Exhausted)
        assert (got.complete, got.nodes) == (want.complete, want.nodes)
        return False
    blocks, unions, color_vertex, color_edge, coverage = want
    assert got.to_record() == {
        "index_blocks": blocks, "families": blocks, "color_vertex": color_vertex,
        "color_edge": color_edge, "target": target.value, "coverage": coverage.value}
    assert got.unions == unions
    assert [u.kind for u in got.unions] == [u.kind for u in unions]
    return True


@pytest.mark.parametrize("vertex", [False, True])
@pytest.mark.parametrize("target", list(CoverKind))
def test_mask_search_equals_the_value_search_on_initial_segments(target, vertex):
    found = 0
    for seed in range(6):
        for max_index in range(6, 12):
            found += assert_same_as_reference(
                initial_segment_covers(NATS),
                seeded_hash_coloring(2, 100 + seed) if vertex else None,
                seeded_hash_coloring(2, seed, d=2), 3, target, 6,
                SearchBudget(max_index=max_index))
    assert found  # not every run exhausts


@pytest.mark.parametrize("chi", [constant_coloring(2), cardinality_coloring(2)],
                         ids=lambda chi: chi.name)
def test_mask_search_equals_the_value_search_on_cofinite_sets(chi):
    for t in range(4, 8):
        dc = encode_cofinite_example(t).dc
        for target in CoverKind:
            for m in (2, 3):
                assert_same_as_reference(dc, None, chi, m, target, 4,
                                         SearchBudget(max_index=t))


def escaping_covers() -> DescendingCovers:
    """One cover U_n = U_1 of S_j = {j, 3j mod 10} over the points 1..9,
    whose escape points x_n = 7n mod 10 prune: V_2 must hold 7 and V_3
    both 7 and 4, which only some blocks give."""
    space = Space.finite_points(range(1, 10))
    cover = Cover(space, sets=[SSet.finite({j, 3 * j % 10}) for j in range(1, 10)])
    return DescendingCovers(space=space, cover_at=lambda n: cover,
                            escape_point=lambda n: 7 * n % 10)


@pytest.mark.parametrize("target", list(CoverKind))
def test_mask_search_equals_the_value_search_where_escape_points_prune(target):
    colorings = [(None, constant_coloring(2))] + [
        (seeded_hash_coloring(2, 100 + seed), seeded_hash_coloring(2, seed, d=2))
        for seed in range(6)]
    for chi_vertex, chi_edge in colorings:
        for horizon in (2, 5, 9):
            for t in (1, 2, 3):
                assert_same_as_reference(escaping_covers(), chi_vertex, chi_edge, 3, target,
                                         horizon, SearchBudget(max_index=9), t=t, s=t, f=t)


def test_mask_search_equals_the_value_search_when_cut():
    cut = SearchBudget(max_index=10, node_limit=300)
    assert not assert_same_as_reference(
        initial_segment_covers(NATS), seeded_hash_coloring(2, 101),
        seeded_hash_coloring(2, 1, d=2), 4, CoverKind.OMEGA, 5, cut, s=2)


_POINTS = st.integers(0, 12)
_SSETS = st.builds(lambda cofinite, points: (SSet.cofinite if cofinite else SSet.finite)(points),
                   st.booleans(), st.frozensets(_POINTS, max_size=6))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(_SSETS, min_size=2, max_size=5))
def test_point_masks_encode_union_membership_and_decode(sets):
    masks = partition_module._PointMasks()
    for a, b in zip(sets, sets[1:]):
        assert masks.encode(a) | masks.encode(b) == masks.encode(a.union(b))
    for s in sets:
        mask = masks.encode(s)
        assert masks.decode(mask) == s
        assert all(bool(mask & masks.point(p)) == s.contains(p) for p in range(14))
    # equal sets and only equal sets share a mask
    assert (len({masks.encode(s) for s in sets}) == len(set(sets)))
