"""Game referee, judging, strategy transfers."""
import pytest

from sumgames.covers import Cover, CoverKind, SSet, Space, classify_cover
from sumgames.games import (
    CoverMove,
    GameTranscript,
    Mode,
    Outcome,
    PlayReconstruction,
    SetMove,
    Strategy,
    _sigma_level,
    collapse_selections,
    convert_gfin_to_g1,
    diagonal_cover,
    diagonal_transfer,
    filter_intersection_bob,
    first_bob,
    judge,
    largest_of,
    meets_all_generators,
    play,
    point_multiplicity,
    reconstruct_parallel_plays,
    scripted_alice,
)
from sumgames.verdicts import Verdict

NATS = Space.naturals()


def tail(n: int) -> SSet:
    return SSet.cofinite(range(n))


def interval_move(hi: int, count: int = 6) -> CoverMove:
    return CoverMove(tuple(SSet.interval(0, i) for i in range(1, count + 1)))


# ---------------------------------------------------------------- referee

def test_constant_alice_first_bob_legal():
    alice = scripted_alice([SetMove(SSet.cofinite({0}))])
    t = play(alice, first_bob(), rounds=5, mode=Mode.G1)
    assert t.illegal is None
    assert t.selections() == [1] * 5


def test_illegal_bob_move_recorded():
    alice = scripted_alice([SetMove(SSet.finite({3, 4}))])
    cheat = Strategy("bob", lambda hist, move: 99)
    t = play(alice, cheat, rounds=3, mode=Mode.G1)
    assert t.illegal is not None
    assert t.illegal.offender == "bob"
    assert t.illegal.round_index == 0
    assert judge(t, lambda sel: True, horizon=4) is Outcome.ALICE_WINS


def test_gfin_move_that_is_not_a_collection_is_illegal():
    # first_bob answers a cover with one member, not a finite selection
    t = play(scripted_alice([interval_move(6)]), first_bob(), rounds=3, mode=Mode.GFIN)
    assert t.illegal is not None and t.illegal.offender == "bob"
    assert t.illegal.round_index == 0 and "not iterable" in t.illegal.reason
    assert judge(t, lambda sel: True, horizon=3) is Outcome.ALICE_WINS


def test_gfin_referee_checks_every_pick():
    alice = scripted_alice([interval_move(6)])
    bad = Strategy("bob", lambda hist, move: (move.sets[0], SSet.finite({77})))
    t = play(alice, bad, rounds=2, mode=Mode.GFIN)
    assert t.illegal is not None and t.illegal.offender == "bob"


def test_referee_soundness_on_accepted_transcripts():
    alice = scripted_alice([interval_move(4), interval_move(8), interval_move(12)])
    bob = Strategy("bob", lambda hist, move: move.sets[min(len(hist), len(move.sets) - 1)])
    t = play(alice, bob, rounds=3, mode=Mode.G1)
    assert t.illegal is None
    for r in t.rounds:
        assert r.alice.legal_pick(r.bob)


# ---------------------------------------------------------------- judging

def test_judge_ascending_selection_wins_op():
    alice = scripted_alice([interval_move(6, count=8)])
    bob = Strategy("bob", lambda hist, move: move.sets[len(hist)])
    t = play(alice, bob, rounds=8, mode=Mode.G1)
    assert judge(t, CoverKind.OP, horizon=8, space=NATS) is Outcome.BOB_WINS


def test_judge_empty_selection_loses():
    t = GameTranscript(mode=Mode.GFIN)
    assert judge(t, CoverKind.OP, horizon=4, space=NATS) is Outcome.ALICE_WINS


def test_judge_partial_coverage_loses_at_horizon():
    alice = scripted_alice([CoverMove((SSet.interval(0, 3), SSet.interval(0, 3)))])
    bob = first_bob()
    t = play(alice, bob, rounds=2, mode=Mode.G1)
    assert judge(t, CoverKind.OP, horizon=8, space=NATS) is Outcome.ALICE_WINS


def test_judge_ascending_selection_wins_asc_and_omega():
    alice = scripted_alice([interval_move(6, count=6)])
    bob = Strategy("bob", lambda hist, move: move.sets[len(hist)])
    t = play(alice, bob, rounds=6, mode=Mode.G1)
    assert judge(t, CoverKind.ASC, horizon=6, space=NATS) is Outcome.BOB_WINS
    assert judge(t, CoverKind.OMEGA, horizon=6, space=NATS, s=2) is Outcome.BOB_WINS


def test_judge_counts_a_repeated_selection_once():
    # four picks of [0, 1] cover the horizon once, not four times
    t = play(scripted_alice([interval_move(6)]), first_bob(), rounds=4, mode=Mode.G1)
    assert t.selections() == [SSet.interval(0, 1)] * 4
    assert judge(t, CoverKind.OP, horizon=2, space=NATS) is Outcome.BOB_WINS
    assert judge(t, CoverKind.LAMBDA, horizon=2, space=NATS) is Outcome.ALICE_WINS


def test_judge_cover_target_needs_the_space():
    t = play(scripted_alice([interval_move(6)]), first_bob(), rounds=2, mode=Mode.G1)
    with pytest.raises(ValueError, match="space"):
        judge(t, CoverKind.OP, horizon=2)


# ---------------------------------------------------------------- filter game

def test_filter_bob_wins_at_every_horizon():
    # Alice plays members of the dual family (sets meeting every tail);
    # Bob picks from A_n ∩ B_n and his selections meet every generator.
    alices = [
        scripted_alice([SetMove(SSet.cofinite({1, 2, 3}))]),
        scripted_alice([SetMove(tail(5)), SetMove(tail(9)), SetMove(SSet.cofinite({0, 4}))]),
        Strategy("alice", lambda hist: SetMove(SSet.cofinite(set(range(len(hist) % 3))))),
    ]
    bob = filter_intersection_bob(tail)
    for alice in alices:
        for horizon in (4, 8, 16):
            t = play(alice, bob, rounds=horizon, mode=Mode.G1)
            assert t.illegal is None
            target = meets_all_generators(tail, horizon)
            assert judge(t, target, horizon=horizon) is Outcome.BOB_WINS


# ---------------------------------------------------------------- conversion

def ascending_alice() -> Strategy:
    return scripted_alice([CoverMove(tuple(SSet.interval(0, i) for i in range(1, 13)))])


def test_converted_alice_is_a_strategy_playing_alice():
    alice = convert_gfin_to_g1(ascending_alice())
    assert isinstance(alice, Strategy) and alice.side == "alice"
    first = alice.move([])
    assert isinstance(first, CoverMove)
    with pytest.raises(ValueError, match="must play Alice"):
        convert_gfin_to_g1(first_bob())


def test_converted_identity_on_singletons():
    bob = Strategy("bob", lambda hist, move: (move.sets[0],))
    t = play(convert_gfin_to_g1(ascending_alice()), bob, rounds=3, mode=Mode.GFIN)
    assert t.illegal is None
    collapsed = collapse_selections(t)
    assert collapsed == [r.bob[0] for r in t.rounds]


def test_converted_removes_chosen_sets():
    bob = Strategy("bob", lambda hist, move: (move.sets[0], move.sets[1]))
    t = play(convert_gfin_to_g1(ascending_alice()), bob, rounds=3, mode=Mode.GFIN)
    assert t.illegal is None
    seen = set()
    for r in t.rounds:
        for s in r.bob:
            assert s not in seen  # disjointness by thinning
            seen.add(s)


def test_largest_of_uses_containment():
    picks = (SSet.interval(0, 2), SSet.interval(0, 7), SSet.interval(0, 4))
    assert largest_of(picks) == SSet.interval(0, 7)
    assert largest_of((SSet.cofinite({1}), SSet.interval(0, 99))) == SSet.cofinite({1})


def test_converted_multiplicity_inheritance_horizon_6():
    # Replay both transcripts and compare point multiplicities.
    bob = Strategy("bob", lambda hist, move: tuple(move.sets[:2]))
    t = play(convert_gfin_to_g1(ascending_alice()), bob, rounds=6, mode=Mode.GFIN)
    assert t.illegal is None
    points = NATS.points_up_to(6)
    union_mult = point_multiplicity(t.selections(), points)
    collapsed_mult = point_multiplicity(collapse_selections(t), points)
    for p in points:
        if union_mult[p] >= 2:
            assert collapsed_mult[p] >= 2


# ---------------------------------------------------------------- diagonal

def constant_tree(sigma):
    return Cover(NATS, set_fn=lambda i: SSet.interval(0, i))


def shifted_tree(sigma):
    # two distinct ascending interval covers depending on the path parity
    stretch = 1 + (len(sigma) % 2)
    return Cover(NATS, set_fn=lambda i, s=stretch: SSet.interval(0, s * i),
                 name=f"stretch-{stretch}")


def test_diagonal_cover_constant_tree():
    v2 = diagonal_cover(constant_tree, 2, NATS)
    assert v2.set_at(3) == SSet.interval(0, 3)
    assert classify_cover(v2, CoverKind.ASC, 8) is Verdict.HOLDS


def test_diagonal_cover_pointwise_min():
    v2 = diagonal_cover(shifted_tree, 2, NATS)
    # intersection over paths of both stretches is the smaller interval
    assert v2.set_at(4) == SSet.interval(0, 4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diagonal_cover_asks_each_tree_cover_once(n):
    asked = []

    def tree(sigma):
        asked.append(sigma)
        return shifted_tree(sigma)

    v = diagonal_cover(tree, n, NATS)
    sets = [v.set_at(m) for m in range(1, 9)]
    assert sorted(asked) == sorted(_sigma_level(n))
    # n >= 1 has a path of each parity, so the smaller stretch wins
    assert sets == [SSet.interval(0, m) for m in range(1, 9)]


def test_diagonal_transfer_reconstruction():
    cover, extractor = diagonal_transfer(constant_tree, 2, NATS)
    selections = [cover.set_at(i) for i in range(1, 9)]
    rec = extractor(selections)
    assert rec.f_is_finite_to_one()
    assert rec.f_is_surjective()
    assert len(rec.odd_play) + len(rec.even_play) == len(rec.picks)
    # picked sets are pairwise distinct
    picked = [p[2] for p in rec.picks]
    assert len(picked) == len({s.stable_key() for s in picked})


def test_diagonal_transfer_two_covers_horizon_8():
    cover, extractor = diagonal_transfer(shifted_tree, 2, NATS)
    selections = [cover.set_at(i) for i in range(1, 9)]
    rec = extractor(selections)
    assert rec.f_is_finite_to_one()
    assert rec.f_is_surjective()
    for j, i in rec.f_map.items():
        assert selections[j - 1].issubset(rec.picks[i - 1][2])


def test_diagonal_reconstruction_rejects_non_refining():
    with pytest.raises(ValueError):
        reconstruct_parallel_plays(constant_tree, [SSet.cofinite(set())])


def test_tree_gap_raises():
    def gappy(sigma):
        return None if sigma else Cover(NATS, set_fn=lambda i: SSet.interval(0, i))

    v1 = diagonal_cover(gappy, 1, NATS)
    with pytest.raises(KeyError):
        v1.set_at(1)
    with pytest.raises(KeyError):
        v1.set_at(1)


# The full reconstruction for fixed selection lists.  Every run ends with a
# note, also when the selections run out.
def plateau_tree(sigma):
    # consecutive members repeat a set, so a fresh pick skips the equal one
    return Cover(NATS, set_fn=lambda i: SSet.interval(0, (i + 1) // 2))


I = SSet.interval
RECONSTRUCTIONS = {
    # duplicates inside the batch 2..4 and across batches; selections run out
    "batches": (constant_tree,
                [I(0, 4), I(0, 1), I(0, 1), I(0, 4), I(0, 9), I(0, 2), I(0, 9),
                 I(0, 10), I(0, 3)],
                PlayReconstruction(
                    picks=[((), 4, I(0, 4)), ((), 5, I(0, 5)), ((4,), 9, I(0, 9)),
                           ((5,), 10, I(0, 10))],
                    odd_play=[I(0, 4), I(0, 9)], even_play=[I(0, 5), I(0, 10)],
                    f_map={1: 1, 2: 2, 5: 3, 6: 4, 8: 4, 9: 4},
                    batch_sizes={1: 1, 2: 3, 3: 1, 4: 4},
                    note="selections exhausted before step 5")),
    "only-duplicates": (constant_tree,
                        [I(0, 2), I(0, 5), I(0, 2), I(0, 5), I(0, 2), I(0, 5)],
                        PlayReconstruction(
                            picks=[((), 2, I(0, 2)), ((), 5, I(0, 5))],
                            odd_play=[I(0, 2)], even_play=[I(0, 5)],
                            f_map={1: 1, 2: 2}, batch_sizes={1: 1, 2: 1},
                            note="no new selection in the batch at step 3")),
    # the last member searched is the 32nd
    "no-fresh-member": (constant_tree, [I(0, 1), I(0, 32), I(0, 33)],
                        PlayReconstruction(
                            picks=[((), 2, I(0, 2)), ((), 32, I(0, 32))],
                            odd_play=[I(0, 2)], even_play=[I(0, 32)],
                            f_map={1: 1, 2: 2}, batch_sizes={1: 1, 2: 1},
                            note="no fresh containing member found at step 3")),
    "skips-picked-set": (plateau_tree, [I(0, 1), I(0, 2), I(0, 0), I(0, 3)],
                         PlayReconstruction(
                             picks=[((), 2, I(0, 1)), ((), 3, I(0, 2)),
                                    ((2,), 5, I(0, 3)), ((3,), 7, I(0, 4))],
                             odd_play=[I(0, 1), I(0, 3)], even_play=[I(0, 2), I(0, 4)],
                             f_map={1: 1, 2: 2, 3: 3, 4: 4},
                             batch_sizes={1: 1, 2: 1, 3: 1, 4: 1},
                             note="selections exhausted before step 5")),
}


@pytest.mark.parametrize("name", sorted(RECONSTRUCTIONS))
def test_reconstruction_pinned(name):
    tree, selections, expected = RECONSTRUCTIONS[name]
    assert reconstruct_parallel_plays(tree, selections) == expected


@pytest.mark.parametrize("tree, selections, error, message", [
    (constant_tree, [], ValueError, "no selections to reconstruct from"),
    (constant_tree, [SSet.cofinite(())], ValueError,
     "first selection does not refine the opening cover: "
     "no fresh containing member found at step 1"),
    (lambda sigma: None if sigma else constant_tree(sigma),
     [I(0, 1), I(0, 2), I(0, 3)], KeyError, "strategy tree gap at \\(2,\\)"),
])
def test_reconstruction_errors_pinned(tree, selections, error, message):
    with pytest.raises(error, match=message):
        reconstruct_parallel_plays(tree, selections)
