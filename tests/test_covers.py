"""Space subsets and cover classification."""
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from sumgames.covers import (
    Cover,
    CoverKind,
    SSet,
    Space,
    classify_cover,
    completion_floor,
)
from sumgames.verdicts import Verdict

NATS = Space.naturals()


# ---------------------------------------------------------------- SSet

def test_sset_contains_and_restrict():
    a = SSet.finite({1, 2, 3})
    b = SSet.cofinite({2})
    assert a.contains(2) and not b.contains(2)
    assert a.restrict(range(5)) == frozenset({1, 2, 3})
    assert b.restrict(range(4)) == frozenset({0, 1, 3})


def test_sset_algebra():
    fin = SSet.finite({1, 2})
    cof = SSet.cofinite({2, 5})
    assert fin.union(cof) == SSet.cofinite({5})
    assert fin.intersect(cof) == SSet.finite({1})
    assert SSet.cofinite({1}).intersect(SSet.cofinite({2})) == SSet.cofinite({1, 2})
    assert SSet.finite({1}).union(SSet.finite({2})) == SSet.finite({1, 2})


def test_sset_subset_relations():
    assert SSet.finite({1}).issubset(SSet.cofinite({2}))
    assert not SSet.finite({2}).issubset(SSet.cofinite({2}))
    assert not SSet.cofinite(set()).issubset(SSet.finite({1, 2, 3}))
    assert SSet.cofinite({1, 2}).issubset(SSet.cofinite({1}))
    assert SSet.interval(0, 3).strict_subset(SSet.interval(0, 5))


def test_sset_least():
    assert SSet.cofinite({0, 1, 2}).least() == 3
    assert SSet.finite({4, 9}).least() == 4


@given(st.frozensets(st.integers(0, 8)), st.frozensets(st.integers(0, 8)),
       st.integers(5, 12))
def test_sset_algebra_matches_pointwise(xs, ys, h):
    pts = range(h)
    fin, cof = SSet.finite(xs), SSet.cofinite(ys)
    assert fin.union(cof).restrict(pts) == fin.restrict(pts) | cof.restrict(pts)
    assert fin.intersect(cof).restrict(pts) == fin.restrict(pts) & cof.restrict(pts)


_SSETS = st.builds(SSet, st.sampled_from(["finite", "cofinite"]),
                   st.frozensets(st.integers(0, 8)))


@given(_SSETS, _SSETS)
def test_sset_issubset_matches_pointwise(a, b):
    # the sets differ only below 9, and a cofinite set holds 9
    assert a.issubset(b) == all(b.contains(p) for p in range(10) if a.contains(p))


# ---------------------------------------------------------------- classify

def test_intervals_are_ascending():
    intervals = Cover(NATS, set_fn=lambda i: SSet.interval(0, i))
    assert classify_cover(intervals, CoverKind.ASC, 10) is Verdict.HOLDS


def test_cofinite_sets_are_gamma():
    cofinite = Cover(NATS, set_fn=lambda i: SSet.cofinite({i}))
    assert classify_cover(cofinite, CoverKind.GAMMA, 10, f=1) is Verdict.HOLDS


def test_gamma_fails_definitively_on_repeated_exclusion():
    c = Cover(NATS, set_fn=lambda i: SSet.cofinite({0}), name="always-skip-0")
    assert classify_cover(c, CoverKind.GAMMA, 6, f=1) is Verdict.FAILS


def test_lambda_multiplicity():
    cofinite = Cover(NATS, set_fn=lambda i: SSet.cofinite({i}))
    assert classify_cover(cofinite, CoverKind.LAMBDA, 8, t=2) is Verdict.HOLDS
    pair_cover = Cover(NATS, sets=[SSet.interval(0, 9), SSet.interval(0, 9)])
    # a finite cover that reaches multiplicity 2 only through duplicates
    assert classify_cover(pair_cover, CoverKind.LAMBDA, 10, t=3) is Verdict.FAILS
    # two interleaved point-finite halves: odd positions sweep [2j, 2j+1],
    # even positions {0}, [1,2], [3,4], ...; together every point is met twice
    sets = []
    for j in range(8):
        sets.append(SSet.interval(2 * j, 2 * j + 1))
        sets.append(SSet.finite({0}) if j == 0 else SSet.interval(2 * j - 1, 2 * j))
    assert classify_cover(Cover(NATS, sets=sets), CoverKind.LAMBDA, 8, t=2) is Verdict.HOLDS


def test_lambda_unknown_on_short_generator_prefix():
    c = Cover(NATS, set_fn=lambda i: SSet.finite({i - 1}), name="singletons")
    assert classify_cover(c, CoverKind.LAMBDA, 6, t=2) is Verdict.UNKNOWN


def test_omega_interval_cover():
    # Every pair of points lands in a long enough interval, and finite
    # intervals are never the whole naturals (intensionally).
    intervals = Cover(NATS, set_fn=lambda i: SSet.interval(0, i))
    assert classify_cover(intervals, CoverKind.OMEGA, 8, s=2) is Verdict.HOLDS


def test_omega_rejects_whole_space_member():
    c = Cover(NATS, sets=[SSet.cofinite(set()), SSet.interval(0, 3)])
    assert classify_cover(c, CoverKind.OMEGA, 4, s=1) is Verdict.FAILS


def test_op_cover_detection():
    missing = Cover(NATS, sets=[SSet.interval(1, 9)])
    assert classify_cover(missing, CoverKind.OP, 10) is Verdict.FAILS
    intervals = Cover(NATS, set_fn=lambda i: SSet.interval(0, i))
    assert classify_cover(intervals, CoverKind.OP, 10) is Verdict.HOLDS


def test_asc_fails_on_constant_finite_cover():
    c = Cover(NATS, sets=[SSet.interval(0, 9)] * 3)
    assert classify_cover(c, CoverKind.ASC, 10) is Verdict.FAILS


def test_finite_space_cover_reads_every_point():
    # horizon 0 reads all points of a finite space
    space = Space.finite_points(range(4))
    c = Cover(space, sets=[SSet.finite({0, 1}), SSet.finite({2, 3}), SSet.finite({1, 2})])
    assert classify_cover(c, CoverKind.OP, 0) is Verdict.HOLDS


def test_finite_space_non_cover_fails_definitively():
    space = Space.finite_points(range(3))
    c = Cover(space, sets=[SSet.finite({1, 2})])
    assert classify_cover(c, CoverKind.OP, 0) is Verdict.FAILS


def test_pointwise_intersection_of_ascending_covers_is_ascending():
    a = Cover(NATS, set_fn=lambda i: SSet.interval(0, i))
    b = Cover(NATS, set_fn=lambda i: SSet.interval(0, 2 * i))
    both = Cover(NATS, set_fn=lambda i: a.set_at(i).intersect(b.set_at(i)))
    assert both.set_at(4) == SSet.interval(0, 4)
    assert classify_cover(both, CoverKind.ASC, 8) is Verdict.HOLDS


def test_omega_wide_interval_cover():
    wide = Cover(NATS, set_fn=lambda i: SSet.interval(0, i + 2))
    assert classify_cover(wide, CoverKind.OMEGA, 6, s=2) is Verdict.HOLDS


def test_gamma_counts_exclusions_against_f():
    # each point is left out by one set of the first cover, but 0 and 1
    # are each left out by every other set of the second
    once = Cover(NATS, set_fn=lambda i: SSet.cofinite({i}))
    assert classify_cover(once, CoverKind.GAMMA, 6, f=2) is Verdict.HOLDS
    alternating = Cover(NATS, set_fn=lambda i: SSet.cofinite({i % 2}))
    assert classify_cover(alternating, CoverKind.GAMMA, 6, f=2) is Verdict.FAILS


def test_lambda_and_omega_verdicts_never_restrict_a_set(monkeypatch):
    # only the op, asc and gamma verdicts read whether the sets cover the
    # horizon points, so only they may restrict a set to those points
    covers = [
        (Cover(NATS, set_fn=lambda i: SSet.cofinite({i})), 8),
        (Cover(NATS, set_fn=lambda i: SSet.interval(0, i)), 8),
        (Cover(NATS, sets=[SSet.interval(0, 9), SSet.interval(0, 9)]), 10),
        (Cover(NATS, set_fn=lambda i: SSet.finite({i - 1}), name="singletons"), 6),
        (Cover(NATS, sets=[SSet.cofinite(set()), SSet.interval(0, 3)]), 4),
        (Cover(Space.finite_points(range(4)),
               sets=[SSet.finite({0, 1}), SSet.finite({2, 3}), SSet.finite({1, 2})]), 0),
    ]
    cases = [(c, kind, h, params) for c, h in covers
             for kind, params in ((CoverKind.LAMBDA, {"t": 2}), (CoverKind.LAMBDA, {"t": 3}),
                                  (CoverKind.OMEGA, {"s": 1}), (CoverKind.OMEGA, {"s": 2}))]
    want = [classify_cover(c, kind, h, **params) for c, kind, h, params in cases]
    assert set(want) == {Verdict.HOLDS, Verdict.FAILS, Verdict.UNKNOWN}

    def restrict(self, points):
        raise AssertionError("restrict called")

    monkeypatch.setattr(SSet, "restrict", restrict)
    assert [classify_cover(c, kind, h, **params) for c, kind, h, params in cases] == want


# ---------------------------------------------------------------- completion floor

FIVE = Space.finite_points(range(5))
_SUBSETS = st.frozensets(st.integers(0, 4)).map(SSet.finite)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_SUBSETS, unique=True, max_size=4), st.lists(_SUBSETS, unique=True, max_size=5),
       st.integers(0, 3), st.integers(0, 5))
def test_completion_floor_refuses_only_prefixes_that_cannot_hold(prefix, pool, r, horizon):
    # when a horizon point lies in fewer of the prefix's sets than the
    # floor, no r sets of the pool complete the prefix to a cover that holds
    points = FIVE.points_up_to(horizon)
    completions = [list(dict.fromkeys(prefix + list(more)))
                   for more in itertools.combinations(pool, r)]
    for kind in CoverKind:
        for t, f in itertools.product((1, 2, 3), repeat=2):
            floor = completion_floor(kind, len(prefix), r, t=t, f=f)
            if floor is None or all(sum(s.contains(p) for s in prefix) >= floor
                                    for p in points):
                continue
            for sets in completions:
                verdict = classify_cover(Cover(FIVE, sets=sets), kind, horizon, t=t, f=f)
                assert verdict is not Verdict.HOLDS, (kind, t, f, sets)
