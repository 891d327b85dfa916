"""Spaces, their subsets, covers, and the cover-family classifiers.

Executable instances are discrete: finite point sets, or the symbolic
naturals where sets are either finite or cofinite (finite complement).
The classical cover families are parameterized into finite-horizon
surrogates: point-infinite (Λ) by a multiplicity threshold t, γ by an
exclusion threshold f, ω by a subset-size threshold s, and ascending by a
minimum strict-chain length.  Verdicts are three-valued; a finite horizon
never certifies the infinite statement.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .verdicts import Verdict


@dataclass(frozen=True)
class SSet:
    """A subset of a space: finite extensional, or cofinite over the
    symbolic naturals (held as its finite complement)."""

    kind: str          # "finite" | "cofinite"
    data: frozenset    # the set itself, or the excluded complement

    def __post_init__(self):
        if self.kind not in ("finite", "cofinite"):
            raise ValueError(f"unknown SSet kind {self.kind!r}")
        object.__setattr__(self, "data", frozenset(self.data))

    @classmethod
    def finite(cls, items: Iterable) -> "SSet":
        return cls("finite", frozenset(items))

    @classmethod
    def interval(cls, lo: int, hi: int) -> "SSet":
        return cls("finite", frozenset(range(lo, hi + 1)))

    @classmethod
    def cofinite(cls, excluded: Iterable) -> "SSet":
        return cls("cofinite", frozenset(excluded))

    def contains(self, p) -> bool:
        return (p in self.data) if self.kind == "finite" else (p not in self.data)

    def restrict(self, points: Sequence) -> frozenset:
        return frozenset(p for p in points if self.contains(p))

    @property
    def is_whole_naturals(self) -> bool:
        return self.kind == "cofinite" and not self.data

    def union(self, other: "SSet") -> "SSet":
        if self.kind == "finite" and other.kind == "finite":
            return SSet.finite(self.data | other.data)
        if self.kind == "cofinite" and other.kind == "cofinite":
            return SSet.cofinite(self.data & other.data)
        fin, cof = (self, other) if self.kind == "finite" else (other, self)
        return SSet.cofinite(cof.data - fin.data)

    def intersect(self, other: "SSet") -> "SSet":
        if self.kind == "finite" and other.kind == "finite":
            return SSet.finite(self.data & other.data)
        if self.kind == "cofinite" and other.kind == "cofinite":
            return SSet.cofinite(self.data | other.data)
        fin, cof = (self, other) if self.kind == "finite" else (other, self)
        return SSet.finite(p for p in fin.data if cof.contains(p))

    def issubset(self, other: "SSet") -> bool:
        if self.kind == "finite":
            if other.kind == "finite":
                return self.data <= other.data
            return self.data.isdisjoint(other.data)
        if other.kind == "finite":
            return False  # a cofinite set of naturals is infinite
        return other.data <= self.data

    def strict_subset(self, other: "SSet") -> bool:
        return self.issubset(other) and self != other

    def least(self):
        """Least natural number in the set (symbolic-naturals sets only)."""
        if self.kind == "finite":
            if not self.data:
                raise ValueError("empty finite set has no least element")
            return min(self.data)
        x = 0
        while x in self.data:
            x += 1
        return x

    def size_key(self) -> tuple:
        # cofinite sets dominate all finite ones; fewer exclusions = bigger
        if self.kind == "cofinite":
            return (1, -len(self.data))
        return (0, len(self.data))

    def stable_key(self) -> bytes:
        # A set is colored only as a cover union, and recorded reports hold
        # the colors of union keys tagged "u:", so the key carries the tag.
        inner = b",".join(b"%d" % x for x in sorted(self.data))
        return b"u:" + self.kind.encode() + b"{" + inner + b"}"

    def __repr__(self):
        inside = sorted(self.data)
        return f"~{inside}" if self.kind == "cofinite" else f"{inside}"


@dataclass(frozen=True)
class Space:
    """A discrete space: an explicit finite point set, or the symbolic
    naturals sampled up to a horizon."""

    kind: str                      # "finite" | "naturals"
    points: Optional[tuple] = None

    @classmethod
    def finite_points(cls, points: Iterable) -> "Space":
        return cls("finite", tuple(points))

    @classmethod
    def naturals(cls) -> "Space":
        return cls("naturals")

    def points_up_to(self, horizon: int) -> tuple:
        if self.kind == "finite":
            return self.points[:horizon] if horizon else self.points
        return tuple(range(horizon))

    def whole_set(self, sset: SSet) -> bool:
        """Is the set the whole space?  Intensional for the naturals."""
        if self.kind == "naturals":
            return sset.is_whole_naturals
        return all(sset.contains(p) for p in self.points)


class CoverKind(enum.Enum):
    OP = "op"            # a (countable) cover
    ASC = "asc"          # contains an ascending cover
    LAMBDA = "lambda"    # point-infinite (>= t members per point)
    OMEGA = "omega"      # every small finite subset inside one member
    GAMMA = "gamma"      # each point outside <= f members


class Cover:
    """A sequence of space subsets.  Finite list or generator-backed
    (1-based ``set_fn``)."""

    def __init__(self, space: Space, sets: Optional[Sequence[SSet]] = None,
                 set_fn: Optional[Callable[[int], SSet]] = None,
                 name: str = ""):
        if (sets is None) == (set_fn is None):
            raise ValueError("exactly one of sets/set_fn required")
        self.space = space
        self._sets = list(sets) if sets is not None else []
        self._set_fn = set_fn
        self.name = name

    @property
    def length(self) -> Optional[int]:
        return None if self._set_fn else len(self._sets)

    def set_at(self, i: int) -> SSet:
        if i < 1:
            raise IndexError("cover sets are 1-based")
        if self._set_fn is not None:
            while len(self._sets) < i:
                self._sets.append(self._set_fn(len(self._sets) + 1))
            return self._sets[i - 1]
        if i > len(self._sets):
            raise IndexError(f"cover has only {len(self._sets)} sets")
        return self._sets[i - 1]

    def prefix(self, n: int) -> list:
        return [self.set_at(i) for i in range(1, n + 1)]

    def prefix_length(self, horizon: int) -> int:
        return self.length if self.length is not None else horizon

    def __repr__(self):
        return f"Cover({self.name or 'anonymous'})"


# the fewest sets in a strictly ascending chain that counts as ascending
_MIN_CHAIN = 2


def _ascending_chain_exists(sets: list, points: tuple) -> bool:
    """Longest strict-superset chain over horizon restrictions that ends in
    a covering set; strictness skips stalls automatically.

    Only subsequences of the given enumeration are considered; covers whose
    ascending subcover appears under a reordering can be missed at small
    horizons.
    """
    restr = [s.restrict(points) for s in sets]
    target = frozenset(points)
    n = len(sets)
    best = [1] * n
    for i in range(n):
        for j in range(i):
            if restr[j] < restr[i]:
                best[i] = max(best[i], best[j] + 1)
    return any(best[i] >= _MIN_CHAIN and restr[i] == target for i in range(n))


def _covered(sets: Sequence[SSet], points: tuple) -> bool:
    """True iff the sets together hold every one of the points."""
    covered = set()
    for ss in sets:
        covered.update(ss.restrict(points))
    return covered >= set(points)


def classify_cover(cover: Cover, kind: CoverKind, horizon: int, *,
                   t: int = 2, s: int = 2, f: int = 2) -> Verdict:
    """Classify a cover prefix against a family at the given horizon.

    Failures are definitive only where adding more sets cannot help
    (finite covers, or the gamma exclusion count); positive verdicts mean
    "holds at this horizon".
    """
    points = cover.space.points_up_to(horizon)
    n_sets = cover.prefix_length(horizon)
    sets = cover.prefix(n_sets)
    finite_cover = cover.length is not None
    short_fail = Verdict.FAILS if finite_cover else Verdict.UNKNOWN

    if kind is CoverKind.OP:
        return Verdict.HOLDS if _covered(sets, points) else short_fail

    if kind is CoverKind.ASC:
        if not _covered(sets, points):
            return short_fail
        return (Verdict.HOLDS
                if _ascending_chain_exists(sets, points) else short_fail)

    if kind is CoverKind.LAMBDA:
        mult = {p: sum(1 for ss in sets if ss.contains(p)) for p in points}
        return Verdict.HOLDS if all(v >= t for v in mult.values()) else short_fail

    if kind is CoverKind.OMEGA:
        if any(cover.space.whole_set(ss) for ss in sets):
            return Verdict.FAILS
        for r in range(1, s + 1):
            for combo in itertools.combinations(points, r):
                if not any(all(ss.contains(p) for p in combo) for ss in sets):
                    return short_fail
        return Verdict.HOLDS

    if kind is CoverKind.GAMMA:
        # exclusion counts only grow with the prefix, so > f is definitive
        for p in points:
            if sum(1 for ss in sets if not ss.contains(p)) > f:
                return Verdict.FAILS
        return Verdict.HOLDS if _covered(sets, points) else short_fail

    raise ValueError(f"unknown cover kind {kind!r}")


# the target parameters' defaults, as classify_cover states them
_TARGET_DEFAULTS = classify_cover.__kwdefaults__


def completion_floor(kind: CoverKind, n_sets: int, r: int,
                     **target_params) -> Optional[int]:
    """The fewest of ``n_sets`` distinct sets that every horizon point must
    lie in, for r more distinct sets to complete them to a cover that
    ``classify_cover`` finds HOLDS; None where the family gives no bound.

    lambda: each later set adds at most 1 to a point's multiplicity, so a
    point in fewer than t - r of the sets ends in fewer than t.  gamma: a
    point's exclusions only grow, so a point outside more than f of the
    sets, that is in fewer than n_sets - f, stays outside more than f.  op
    and asc have no bound, since later sets may still cover every point.
    Nor has omega: its one definitive failure is a member equal to the
    whole space, which no union of the initial-segment or cofinite covers
    is.  t and f default as ``classify_cover`` states them.
    """
    params = {**_TARGET_DEFAULTS, **target_params}
    if kind is CoverKind.LAMBDA:
        return params["t"] - r
    if kind is CoverKind.GAMMA:
        return n_sets - params["f"]
    return None
