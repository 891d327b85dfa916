#!/usr/bin/env python3
"""Selection games: the referee, a winning Bob, and the two transfers.

Alice plays a collection each inning, Bob selects from it; the referee
rejects anything outside the rules, so accepted transcripts are sound by
construction.  The two transfer constructions turn strategies of one game
into strategies of another while preserving what the winner achieved.
"""
from sumgames import (
    Mode,
    classify_cover,
    collapse_selections,
    convert_gfin_to_g1,
    diagonal_transfer,
    judge,
    play,
)
from sumgames.covers import Cover, CoverKind, SSet, Space
from sumgames.games import (
    CoverMove,
    SetMove,
    Strategy,
    filter_intersection_bob,
    meets_all_generators,
    point_multiplicity,
    scripted_alice,
)
from sumgames.verdicts import Verdict

space = Space.naturals()

print("== a single-selection game against the tail filter ==")
tail = lambda n: SSet.cofinite(range(n))
alice = scripted_alice([SetMove(SSet.cofinite({0, 3})),
                        SetMove(tail(5)),
                        SetMove(SSet.cofinite({1}))])
bob = filter_intersection_bob(tail)
t = play(alice, bob, rounds=8, mode=Mode.G1)
print("  Bob's picks:", t.selections())
print("  outcome:", judge(t, meets_all_generators(tail, 8), horizon=8).value)

print("\n== an illegal move is caught and loses ==")
cheater = Strategy("bob", lambda hist, move: 0)  # 0 is excluded below
t = play(scripted_alice([SetMove(SSet.cofinite({0}))]), cheater, 3, Mode.G1)
print("  illegal:", t.illegal.offender, "at round", t.illegal.round_index)
print("  judged:", judge(t, lambda sel: True, horizon=4).value)

print("\n== collapsing finite selections to single ones ==")
inner = scripted_alice([CoverMove(tuple(SSet.interval(0, i) for i in range(1, 40)))])
bob3 = Strategy("bob", lambda hist, move: tuple(move.sets[:3]))
t = play(convert_gfin_to_g1(inner), bob3, rounds=8, mode=Mode.GFIN)
points = space.points_up_to(8)
union_mult = point_multiplicity(t.selections(), points)
collapsed = collapse_selections(t)
col_mult = point_multiplicity(collapsed, points)
print("  union multiplicities    :", [union_mult[p] for p in points])
print("  collapsed multiplicities:", [col_mult[p] for p in points])

print("\n== the diagonal strategy-tree transfer ==")
def tree(sigma):
    stretch = 1 + (len(sigma) % 2)
    return Cover(space, set_fn=lambda i, s=stretch: SSet.interval(0, s * i),
                 name=f"stretch-{stretch}")

cover, extract = diagonal_transfer(tree, 2, space)
print("  diagonal cover ascending:",
      classify_cover(cover, CoverKind.ASC, 8) is Verdict.HOLDS)
rec = extract([cover.set_at(i) for i in range(1, 9)])
print("  picks:", [(list(sigma), m) for sigma, m, _ in rec.picks])
print("  f finite-to-one:", rec.f_is_finite_to_one(),
      "| surjective:", rec.f_is_surjective())
print("  odd-play length:", len(rec.odd_play), "| even-play length:", len(rec.even_play))
