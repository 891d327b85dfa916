"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
criterion pins its tolerance and time budget in the test body.
"""
import random
import time
from fractions import Fraction

from sumgames.coloring import (
    cardinality_coloring,
    constant_coloring,
    seeded_hash_coloring,
)
from sumgames.covers import Cover, CoverKind, SSet, Space, classify_cover
from sumgames.filters import chain_check, verify_duality_laws
from sumgames.games import (
    CoverMove,
    Mode,
    Outcome,
    SetMove,
    Strategy,
    collapse_selections,
    convert_gfin_to_g1,
    diagonal_transfer,
    filter_intersection_bob,
    judge,
    meets_all_generators,
    play,
    point_multiplicity,
)
from sumgames.partition import (
    PartitionWitness,
    ap_family,
    build_constrained_chain,
    density_family,
    encode_cofinite_example,
    menger_mt_search,
)
from sumgames.search import (
    Collapse,
    Exhausted,
    Proper,
    SearchBudget,
    Witness,
    mt_search,
    proper_or_collapse,
    threshold_search,
    verify_dichotomy,
    verify_mt_witness,
)
from sumgames.semigroups import (
    ElementSequence,
    finite_sets,
    fs_enumerate,
    sum_hypergraph,
    take_sumsequence,
    naturals,
)
from sumgames.coloring import Coloring
from sumgames.verdicts import Verdict

NAT = naturals()
FIN = finite_sets()


def report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_1_fs_correctness():
    start = time.monotonic()
    seq = ElementSequence.from_terms(NAT, [2 ** i for i in range(8)])
    sums = fs_enumerate(seq, 8)
    elapsed = time.monotonic() - start
    ok = (len(sums) == 255
          and sorted(sums.values()) == list(range(1, 256))
          and elapsed < 1.0)
    report(1, "finite sums of (1,2,...,128) enumerate {1..255}", ok,
           f"{elapsed:.3f}s")


def test_criterion_2_duality_laws():
    start = time.monotonic()
    r2 = verify_duality_laws(2)
    r3 = verify_duality_laws(3)
    elapsed = time.monotonic() - start
    ok = (r2.families_scanned == 16 and r3.families_scanned == 256
          and r2.total_violations == 0 and r3.total_violations == 0
          and len(r2.lines) == 6 and len(r3.lines) == 6
          and elapsed < 10.0)
    report(2, "duality laws exhaustive at ground sizes 2 and 3", ok,
           f"{r2.families_scanned}+{r3.families_scanned} families, {elapsed:.2f}s")


def test_criterion_3_schur_oracle():
    start = time.monotonic()
    r = threshold_search(2, allow_repeats=True)
    elapsed = time.monotonic() - start
    ok = (r.found and r.n == 5
          and r.avoider == {1: 1, 2: 2, 3: 2, 4: 1}
          and r.confirmed_independent
          and elapsed < 5.0)
    report(3, "threshold 5 with avoider {1,4|2,3}, independently confirmed",
           ok, f"{elapsed:.2f}s")


def test_criterion_4_dichotomy_certificates():
    start = time.monotonic()
    bad = 0
    outcomes = {"proper": 0, "collapse": 0, "unknown": 0}
    for seed in range(1000):
        rng = random.Random(seed)
        terms = [frozenset(rng.sample(range(1, 7), rng.randint(1, 3)))
                 for _ in range(5)]
        seq = ElementSequence.from_terms(FIN, terms)
        out = proper_or_collapse(seq, depth=5)
        if isinstance(out, Proper):
            outcomes["proper"] += 1
        elif isinstance(out, Collapse):
            outcomes["collapse"] += 1
            if FIN.combine(out.element, out.element) != out.element:
                bad += 1
        else:
            outcomes["unknown"] += 1
        if not verify_dichotomy(out, seq):
            bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 30.0
    report(4, "1000 seeded dichotomy verdicts re-verify", ok,
           f"{outcomes}, {elapsed:.1f}s")


def test_criterion_5_reduction_guarantee():
    # Full-depth (m=4) witnesses over a random pair of colorings are
    # essentially impossible at this truncation, so the depth-2 searches
    # over the same base keep the verification non-vacuous.
    base = ElementSequence.from_terms(NAT, [1, 2, 4, 8])
    violations = 0
    found = {2: 0, 4: 0}
    for seed in range(50):
        chi_v = seeded_hash_coloring(2, seed, d=1)
        chi_e = seeded_hash_coloring(2, seed + 1000, d=2)
        for m in (4, 2):
            out = mt_search(chi_e, NAT, base, m=m, d=2,
                            budget=SearchBudget(max_index=4),
                            chi_vertex=chi_v)
            if isinstance(out, Witness):
                found[m] += 1
                taken = take_sumsequence(base, out.blocks)
                fs_vals = fs_enumerate(taken, m).values()
                edges = sum_hypergraph(taken, m, 2)
                if len({chi_v.of(v) for v in fs_vals}) != 1:
                    violations += 1
                if len({chi_e.of(e) for e in edges}) != 1:
                    violations += 1
    ok = violations == 0 and found[2] > 0
    report(5, "reduction witnesses have both structures monochromatic",
           ok, f"witnesses by depth {found}, {violations} violations")


def test_criterion_6_filter_game():
    def tail(n):
        return SSet.cofinite(range(n))

    bob = filter_intersection_bob(tail)
    illegal = 0
    losses = 0
    plays = 0
    for k in range(20):
        rng = random.Random(k)

        def alice_move(history, _rng=rng, _k=k):
            drop = frozenset(_rng.sample(range(0, 40), _rng.randint(0, 4)))
            return SetMove(SSet.cofinite(drop))

        alice = Strategy("alice", alice_move)
        for horizon in (4, 8, 16, 32):
            t = play(alice, bob, rounds=horizon, mode=Mode.G1)
            plays += 1
            if t.illegal is not None:
                illegal += 1
                continue
            target = meets_all_generators(tail, horizon)
            if judge(t, target, horizon=horizon) is not Outcome.BOB_WINS:
                losses += 1
    ok = illegal == 0 and losses == 0
    report(6, "filter-strategy Bob wins legally at every horizon", ok,
           f"{plays} plays, {illegal} illegal, {losses} losses")


def test_criterion_7_strategy_transfers():
    # finite-selection conversion: multiplicity preserved on 10 seeded plays
    space = Space.naturals()
    horizon = 16
    points = space.points_up_to(horizon)
    bad_mult = 0
    for seed in range(10):
        inner = Strategy("alice", lambda hist: CoverMove(
            tuple(SSet.interval(0, i) for i in range(1, 4 * horizon + 8))))
        rng = random.Random(seed)

        def bob_move(history, move, _rng=rng):
            k = _rng.randint(1, min(3, len(move.sets)))
            return tuple(move.sets[:k])

        t = play(convert_gfin_to_g1(inner), Strategy("bob", bob_move),
                 rounds=horizon, mode=Mode.GFIN)
        assert t.illegal is None
        union_mult = point_multiplicity(t.selections(), points)
        col_mult = point_multiplicity(collapse_selections(t), points)
        for p in points:
            if union_mult[p] >= 2 and col_mult[p] < 2:
                bad_mult += 1

    # diagonal transfer: ascending diagonals, finite-to-one surjective f
    diag_ok = True
    for n in (1, 2, 3):
        def tree(sigma):
            stretch = 1 + (len(sigma) % 2)
            return Cover(space, set_fn=lambda i, s=stretch: SSet.interval(0, s * i),
                         name=f"stretch-{stretch}")

        cover, extractor = diagonal_transfer(tree, n, space)
        if classify_cover(cover, CoverKind.ASC, 10) is not Verdict.HOLDS:
            diag_ok = False
        rec = extractor([cover.set_at(i) for i in range(1, 9)])
        if not (rec.f_is_finite_to_one() and rec.f_is_surjective()):
            diag_ok = False
    ok = bad_mult == 0 and diag_ok
    report(7, "both strategy transfers preserve their invariants", ok,
           f"multiplicity breaks: {bad_mult}, diagonal ok: {diag_ok}")


def test_criterion_8_cover_partition_roundtrip():
    start = time.monotonic()
    inst = encode_cofinite_example(8)
    base = ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
    budget = SearchBudget(max_index=8)
    mismatches = 0
    both_found = 0
    both_exhausted = 0
    for seed in range(20):
        chi = seeded_hash_coloring(2, seed, d=2)

        def chi_on_unions(s, _chi=chi):
            return _chi.fn(frozenset(inst.decode_union(u) for u in s))

        chi_prime = Coloring(2, 2, chi_on_unions, name="decoded")
        direct = mt_search(chi, FIN, base, m=2, d=2, budget=budget)
        menger = menger_mt_search(inst.dc, None, chi_prime, m=2, d=2,
                                  target=CoverKind.OP, horizon=1, budget=budget)
        if isinstance(direct, Witness) and isinstance(menger, PartitionWitness):
            both_found += 1
            if tuple(inst.decode_witness(menger)) != tuple(direct.blocks):
                mismatches += 1
        elif isinstance(direct, Exhausted) and isinstance(menger, Exhausted):
            both_exhausted += 1
        else:
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 120.0
    report(8, "cofinite encoding round trip matches direct block search", ok,
           f"{both_found} matched, {both_exhausted} both exhausted, {elapsed:.1f}s")


def test_criterion_9_three_dimensional_search():
    base = ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
    w = mt_search(constant_coloring(3, 1), FIN, base, m=3, d=3,
                  budget=SearchBudget(max_index=5))
    ok = (isinstance(w, Witness)
          and len(w.certificate["edge_sets"]) == 1
          and verify_mt_witness(w, FIN, base, constant_coloring(3, 1), 3))
    w_card = mt_search(cardinality_coloring(3), FIN, base, m=3, d=3,
                       budget=SearchBudget(max_index=5))
    ok = ok and isinstance(w_card, Witness) and w_card.color_edge == 3
    report(9, "d=3 hypergraph witnesses re-verify with the expected colors", ok)


def test_criterion_10_constrained_and_density_chains():
    ap_chain = build_constrained_chain(ap_family)
    ap_report = chain_check(ap_chain, depth=4, window=4)

    thresholds = {n: Fraction(1, 2) - Fraction(1, n + 2) for n in range(1, 10)}
    dens_chain = build_constrained_chain(lambda n: density_family(thresholds[n]))
    dens_report = chain_check(dens_chain, depth=4, window=4)

    base = ElementSequence.from_fn(FIN, lambda i: frozenset({i}))
    found = 0
    membership_failures = 0
    for seed in range(20):
        chi = seeded_hash_coloring(2, seed, d=2)
        out = mt_search(chi, FIN, base, m=3, d=2,
                        budget=SearchBudget(max_index=10), chain=ap_chain)
        if isinstance(out, Witness):
            found += 1
            for n, term in enumerate(out.terms, start=1):
                if not ap_family(n).has_member_inside(term):
                    membership_failures += 1
    ok = (ap_report.verdict is Verdict.HOLDS
          and dens_report.verdict is Verdict.HOLDS
          and membership_failures == 0 and found > 0)
    report(10, "constrained and density chains check out; block membership holds",
           ok, f"chains hold, {found}/20 witnesses, {membership_failures} misses")
