"""Finitized cover-partition search: monochromatic unions of disjoint finite
subfamilies of descending covers, with coverage side conditions.

Where the abstract argument consults an idempotent ultrafilter to choose
the next set, the search backtracks over candidate subfamilies instead and
re-verifies the finished certificate independently; the choice oracle is
the only non-constructive ingredient, so nothing else is lost.  Includes
the cofinite-sets encoding that recovers the classical block-sequence
theorems, constrained-family and density chains, and the discrete-space
combinatorial instance.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from .check import verify_partition_witness
from .coloring import Coloring
from .covers import Cover, CoverKind, SSet, Space, classify_cover, completion_floor
from .filters import SymbolicChain
from .search import (
    Exhausted,
    SearchBudget,
    _chain_candidates,
    _depth_first,
    _MASK_UNIONS,
    _prefix_sums,
    _PrefixState,
)
from .semigroups import (
    BlockSequence,
    CertificateError,
    _block,
    _mask,
    finite_sets,
)
from .verdicts import Verdict


@dataclass
class DescendingCovers:
    """Covers U_1 ⊇ U_2 ⊇ ... over one space, with an escape-point witness
    certifying that U_1 has no finite subcover (x_n avoids the union of its
    first n members)."""

    space: Space
    cover_at: Callable[[int], Cover]
    escape_point: Callable[[int], Any]

    def __post_init__(self):
        # Each cover is built once: a Cover keeps the sets it has generated,
        # so member_set and allowed_indices reuse them instead of building
        # a new Cover and regenerating its sets on every call.
        self.cover_at = functools.lru_cache(maxsize=None)(self.cover_at)

    def member_set(self, j: int) -> SSet:
        return self.cover_at(1).set_at(j)

    def allowed_indices(self, n: int, hi: int) -> list:
        """U_1-indices j >= n whose set is (extensionally) a member of U_n."""
        base = self.cover_at(1)
        cn = self.cover_at(n)
        hi = min(hi, base.prefix_length(hi))
        cn_sets = set(cn.prefix(min(cn.prefix_length(hi), base.prefix_length(hi))))
        return [j for j in range(n, hi + 1) if base.set_at(j) in cn_sets]

    def check_descension(self, depth: int, hi: int) -> list:
        """Sampled violations: members of U_{n+1} missing from U_n.  The
        upper cover is matched on a longer prefix, since descending tails
        shift members outward."""
        bad = []
        wide = hi + depth + 4
        for n in range(1, depth + 1):
            upper = self.cover_at(n)
            lower = self.cover_at(n + 1)
            upper_sets = set(upper.prefix(min(upper.prefix_length(wide), wide)))
            bad.extend((n, s) for s in lower.prefix(min(lower.prefix_length(hi), hi))
                       if s not in upper_sets)
        return bad

    def check_escapes(self, n_max: int) -> list:
        base = self.cover_at(1)
        bad = []
        for n in range(1, n_max + 1):
            x = self.escape_point(n)
            if any(base.set_at(i).contains(x) for i in range(1, n + 1)):
                bad.append((n, x))
        return bad


@dataclass
class PartitionWitness:
    """Disjoint finite subfamilies with monochromatic distinct unions.

    ``families`` holds (U_1-index, set) pairs per round; ``index_blocks``
    is the block sequence of those indices.
    """

    families: tuple                      # tuple over rounds of ((j, SSet), ...)
    unions: tuple                        # the V_n, as SSets
    index_blocks: BlockSequence
    color_vertex: Optional[int]
    color_edge: int
    target: CoverKind
    coverage: Verdict

    def to_record(self) -> dict:
        return {
            "index_blocks": [sorted(b) for b in self.index_blocks],
            "families": [[j for j, _ in fam] for fam in self.families],
            "color_vertex": self.color_vertex,
            "color_edge": self.color_edge,
            "target": self.target.value,
            "coverage": self.coverage.value,
        }

    @classmethod
    def from_record(cls, record: dict, dc: DescendingCovers) -> "PartitionWitness":
        """The witness that ``to_record`` wrote as ``record``: each family's
        sets are read from U_1 through ``dc.member_set``, and the unions
        are built from them."""
        families = tuple(tuple((j, dc.member_set(j)) for j in fam)
                         for fam in record["families"])
        return cls(
            families=families,
            unions=tuple(functools.reduce(SSet.union, (s for _, s in fam))
                         for fam in families),
            index_blocks=BlockSequence(tuple(record["index_blocks"])),
            color_vertex=record["color_vertex"],
            color_edge=record["color_edge"],
            target=CoverKind(record["target"]),
            coverage=Verdict(record["coverage"]),
        )


class _PointMasks:
    """The sets of one search as ints.  Each point gets one bit, in order
    of first sight; a finite set is the OR of its points' bits, a cofinite
    one ``~`` of its excluded points' mask.  By two's complement, union is
    ``|`` in every case (~c | ~d = ~(c & d), ~c | f = ~(c & ~f)), p lies in
    a set iff the set's mask has p's bit, and equal sets have equal masks
    while distinct sets have distinct ones.

    Masks are built and read a byte and a digit at a time, so that their
    cost stays linear in the number of points."""

    __slots__ = ("index", "points", "decoded")

    def __init__(self):
        self.index: dict = {}
        self.points: list = []
        self.decoded: dict = {}

    def _index_of(self, p) -> int:
        i = self.index.get(p)
        if i is None:
            i = self.index[p] = len(self.points)
            self.points.append(p)
        return i

    def point(self, p) -> int:
        return 1 << self._index_of(p)

    def encode(self, s: SSet) -> int:
        indices = [self._index_of(p) for p in s.data]
        buf = bytearray(len(self.points) // 8 + 1)
        for i in indices:
            buf[i >> 3] |= 1 << (i & 7)
        mask = int.from_bytes(buf, "little")
        return mask if s.kind == "finite" else ~mask

    def decode(self, mask: int) -> SSet:
        """The set of a mask, as the value that the colorings see."""
        out = self.decoded.get(mask)
        if out is None:
            digits = bin(~mask if mask < 0 else mask)[:1:-1]  # bit i is digit i
            points = itertools.compress(self.points, map("1".__eq__, digits))
            out = self.decoded[mask] = (SSet.cofinite(points) if mask < 0
                                        else SSet.finite(points))
        return out


def _in_at_least(masks, count: int) -> int:
    """The mask of the points that lie in at least ``count`` of the masks."""
    levels = [-1] + [0] * count  # levels[j]: the points in at least j masks
    for v in masks:
        for j in range(count, 0, -1):
            levels[j] |= levels[j - 1] & v
    return levels[count]


def menger_mt_search(dc: DescendingCovers, chi_vertex: Optional[Coloring],
                     chi_edge: Coloring, m: int, d: int, target: CoverKind,
                     horizon: int, budget: SearchBudget,
                     target_params: Optional[dict] = None):
    """Find disjoint finite subfamilies F_n of U_n (members drawn from the
    tail of U_1's enumeration, unions forced to contain the escape points
    gathered so far) whose unions form a monochromatic, distinct,
    target-classified family.  Backtracking stands in for the abstract
    proof's ultrafilter choices; the certificate is re-verified from
    scratch before being returned.

    The F_n are index blocks F_1 < ... < F_m of U_1-indices, listed as the
    block searches list their chains, with F_n drawn from the indices of
    U_n's members.  A budget that sets ``max_value``, which this search does
    not read, raises ValueError.

    A prefix of n < m unions is dropped, after its escape points and before
    any of its sums is colored, when ``completion_floor`` shows that no
    m - n more unions make the target hold: under lambda, a horizon point
    lies in fewer than t - (m - n) of its distinct unions; under gamma, one
    lies outside more than f of them.  The prefix costs its node, its
    subtree none, and the other nodes keep their order: the first witness
    and a complete exhaustion are those of the search without the cut, and
    a run cut by ``node_limit`` finds its witness no later.  An exhaustion's
    note, the best depth reached, counts the deepest prefix that passed
    every check, this one too."""
    if m < d:
        raise ValueError(f"m={m} < d={d}: m rounds hold no chain of d unions")
    budget.require_unset("menger_mt_search", "max_value")
    hi = min(budget.max_index, dc.cover_at(1).prefix_length(budget.max_index))
    if hi < m:
        raise ValueError("max_index must allow m rounds")
    tparams = dict(target_params or {})
    bad = dc.check_descension(min(m, 3), hi)
    if bad:
        raise ValueError(f"descension fails on samples: {bad[:3]}")
    escapes = [dc.escape_point(n) for n in range(1, m + 1)]
    allowed = {n: _mask(dc.allowed_indices(n, hi)) for n in range(1, m + 1)}
    member_set = dc.cover_at(1).set_at
    chains = _chain_candidates(hi, m)
    best_depth = 0
    # the unions are held as point masks; a coloring sees them decoded
    masks = _PointMasks()
    # need[n - 1]: the mask of the escape points x_1..x_{n-1}
    need = list(itertools.accumulate(map(masks.point, escapes[:-1]), operator.or_,
                                     initial=0))
    member_mask = functools.cache(lambda j: masks.encode(member_set(j)))
    horizon_mask = functools.reduce(operator.or_, map(
        masks.point, dc.space.points_up_to(horizon)), 0)
    # floors[n]: the fewest of n unions that each horizon point must lie in
    # for m - n more to meet the target; 0 where the target gives no bound,
    # and at n = m, where finish classifies the cover
    floors = [max(completion_floor(target, n, m - n, **tparams) or 0, 0)
              for n in range(m)] + [0]
    # the coverage verdict of each tuple of unions V_1..V_m
    verdicts: dict = {}

    def candidates(blocks: list):
        pool = allowed[len(blocks) + 1]
        return (F for F in chains(blocks) if not F & ~pool)

    @functools.cache
    def union_of(F: int) -> int:
        # V_n depends on the index block alone: build it once
        return functools.reduce(operator.or_, map(member_mask, _block(F)))

    def check(blocks: list, parent):
        nonlocal best_depth
        term = union_of(blocks[-1])
        # the escape points x_1..x_{n-1} must lie in the new union V_n
        if term & need[len(blocks) - 1] != need[len(blocks) - 1]:
            return None
        # a horizon point below the floor: no m - n more unions can make
        # V_1..V_m meet the target.  The unions count as distinct, since
        # _prefix_sums refuses a term equal to an earlier one before it
        # colors anything.
        least = floors[len(blocks)]
        if least and horizon_mask & ~_in_at_least(map(union_of, blocks), least):
            return None
        state = _prefix_sums(parent, term)
        if state is not None:
            best_depth = max(best_depth, len(blocks))
        return state

    def finish(blocks: list, state):
        heads = tuple(state.sums[(1 << (n - 1)) - 1] for n in range(1, m + 1))
        # the cover is a function of the ordered unions, so of their masks
        coverage = verdicts.get(heads)
        if coverage is None:
            sets = [masks.decode(v) for v in dict.fromkeys(heads)]
            cover = Cover(dc.space, sets=sets, name="partition-unions")
            coverage = verdicts[heads] = classify_cover(cover, target, horizon, **tparams)
        if coverage is not Verdict.HOLDS:
            return None
        unions = tuple(map(masks.decode, heads))
        blocks = list(map(_block, blocks))
        return PartitionWitness(
            families=tuple(tuple((j, member_set(j)) for j in sorted(F)) for F in blocks),
            unions=unions,
            index_blocks=BlockSequence(tuple(blocks)),
            color_vertex=state.vertex_color,
            color_edge=state.edge_color,
            target=target,
            coverage=coverage,
        )

    out = _depth_first(m, candidates, check, finish, budget.node_limit,
                       _PrefixState.root(_MASK_UNIONS, chi_edge, d, chi_vertex,
                                         masks.decode))
    if isinstance(out, Exhausted):
        out.note = f"best depth reached: {best_depth} of {m}"
        return out
    if not verify_partition_witness(out, dc, chi_edge, d, chi_vertex=chi_vertex,
                                    horizon=horizon, **tparams):
        raise CertificateError("menger_mt_search produced a witness that "
                               "fails verify_partition_witness")
    return out


# ---------------------------------------------------------------------------
# the cofinite-sets encoding (recovering the classical block statement)
# ---------------------------------------------------------------------------

@dataclass
class CofiniteInstance:
    """The space of cofinite subsets of the naturals, truncated: points are
    the finite complements inside {1..truncation}, ordered by size then
    lexicographically.  O_n = the sets whose complement misses n."""

    truncation: int
    space: Space
    cover: Cover
    dc: DescendingCovers

    def o_set(self, n: int) -> SSet:
        return self.cover.set_at(n)

    def decode_union(self, s: SSet) -> frozenset:
        """Invert F -> O_F via the co-singleton points."""
        t = self.truncation
        out = set()
        for n in range(1, t + 1):
            co_single = frozenset(set(range(1, t + 1)) - {n})
            if s.contains(co_single):
                out.add(n)
        return frozenset(out)

    def decode_witness(self, w: PartitionWitness) -> BlockSequence:
        return BlockSequence(tuple(self.decode_union(u) for u in w.unions))


def encode_cofinite_example(truncation: int) -> CofiniteInstance:
    """Build the truncated cofinite-sets instance: the point-infinite cover
    {O_n} with no finite subcover, constant descending, whose block
    structure mirrors unions of finite index sets."""
    if truncation < 1:
        raise ValueError("truncation >= 1 required")
    t = truncation
    points = sorted(
        (frozenset(c) for r in range(t + 1)
         for c in itertools.combinations(range(1, t + 1), r)),
        key=lambda K: (len(K), tuple(sorted(K))))
    space = Space.finite_points(points)

    def o_set(n: int) -> SSet:
        if n > t:
            raise IndexError(f"cover has {t} sets at this truncation")
        return SSet.finite(frozenset(K for K in points if n not in K))

    cover = Cover(space, sets=[o_set(n) for n in range(1, t + 1)], name="O")

    def escape(n: int) -> frozenset:
        if n > t:
            raise IndexError("escape point beyond truncation")
        return frozenset(range(1, n + 1))

    dc = DescendingCovers(space=space, cover_at=lambda n: cover,
                          escape_point=escape)
    return CofiniteInstance(truncation=t, space=space, cover=cover, dc=dc)


# ---------------------------------------------------------------------------
# constrained families and densities
# ---------------------------------------------------------------------------

@dataclass
class FiniteSetFamily:
    """A family of finite subsets of the naturals, used as a per-level
    constraint: detection of a member inside a finite set, plus a witness
    producing a member inside any cofinite tail."""

    has_member_inside: Callable[[frozenset], bool]
    member_in_tail: Callable[[int], frozenset]
    name: str = ""


# the most terms a tail witness of ap_family or density_family may have
_AP_WINDOW = 64
_DENSITY_WINDOW = 256


def ap_family(length: int) -> FiniteSetFamily:
    """Arithmetic progressions of the given length in the naturals; the one in
    the tail {k, k+1, ...} is range(k, k + length), for lengths up to 64."""

    def has_ap(F: frozenset) -> bool:
        if length == 1:
            return bool(F)
        elems = sorted(F)
        for start in elems:
            for step in range(1, (elems[-1] - start) // (length - 1) + 1):
                if all(start + t * step in F for t in range(length)):
                    return True
        return False

    def in_tail(k: int) -> frozenset:
        if length > _AP_WINDOW:
            raise ValueError(f"no progression of length {length} within {_AP_WINDOW} terms")
        return frozenset(range(k, k + length))

    return FiniteSetFamily(has_ap, in_tail, name=f"ap-{length}")


def density_family(threshold: Fraction) -> FiniteSetFamily:
    """Finite sets of naturals whose density |F| / max F exceeds the
    threshold; the one in the tail {k, k+1, ...} is the shortest run
    k .. k + j - 1 with j / (k + j - 1) above it, for j up to 256."""

    def dense_inside(F: frozenset) -> bool:
        # best subfamily is always a prefix: {u in F : u <= v} for some v
        for i, v in enumerate(sorted(F), start=1):
            if Fraction(i, v) > threshold:
                return True
        return False

    def in_tail(k: int) -> frozenset:
        for j in range(1, _DENSITY_WINDOW + 1):
            if Fraction(j, k + j - 1) > threshold:
                return frozenset(range(k, k + j))
        raise ValueError(f"tail never exceeded density {threshold} in the window")

    return FiniteSetFamily(dense_inside, in_tail, name=f"density>{threshold}")


# the links whose tail witnesses build_constrained_chain probes up front
_PROBE_DEPTH = 4


def build_constrained_chain(families: Callable[[int], FiniteSetFamily]) -> SymbolicChain:
    """The chain A_n = {nonempty finite F of naturals with min F >= n that
    contains a member of the n-th family}, over finite sets with union.

    Each level is a subsemigroup of the union semigroup (supersets keep
    their members), so the levels absorb later ones.  Descension needs the
    families to refine each other: every member of the (n+1)-st family must
    contain a member of the n-th, as progressions and density families do;
    chain_check flags families without that property.  The hypothesis that
    every cofinite tail meets each family is probed through the tail
    witnesses up front.  A set x lies outside A_n from n = min x + 1 on,
    its exclusion index.  A_n is sampled from the n-th family's tail
    witness w at n, for the ap chain only up to n = 64, and w with
    max w + 1, ..., max w + i added.
    """
    sg = finite_sets()

    for n in range(1, _PROBE_DEPTH + 1):
        fam = families(n)
        w = fam.member_in_tail(n)  # raises if the hypothesis witness is missing
        if not fam.has_member_inside(w):
            raise ValueError(f"family {fam.name} witness is not its own member")

    def set_at(n: int):
        return lambda F: (isinstance(F, frozenset) and bool(F) and min(F) >= n
                          and families(n).has_member_inside(F))

    def exclusion_index(x) -> int:
        if not isinstance(x, frozenset) or not x:
            return 1
        return min(x) + 1

    def members_within(n: int, bound: int) -> list:
        w = families(n).member_in_tail(n)
        top = max(w)
        return [w | frozenset(range(top + 1, top + 1 + i))
                for i in range(max(2, min(bound, 4)))]

    return SymbolicChain(sg, set_at, exclusion_index, members_within,
                         name="constrained")


@dataclass
class DensityStage:
    n: int
    count: int
    stage: Fraction
    running_max: Fraction


def upper_density(member: Callable[[int], bool], n: int) -> DensityStage:
    """The finite-stage density |A ∩ {1..n}| / n plus the running maximum of
    the stage values (the limsup itself is not computable; stages only give
    lower evidence)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    count = 0
    best = Fraction(0)
    stage = Fraction(0)
    for k in range(1, n + 1):
        if member(k):
            count += 1
        stage = Fraction(count, k)
        if stage > best:
            best = stage
    return DensityStage(n=n, count=count, stage=stage, running_max=best)


# ---------------------------------------------------------------------------
# discrete combinatorial instance
# ---------------------------------------------------------------------------

def initial_segment_covers(space: Space) -> DescendingCovers:
    """U_n = the initial segments [0..k] for k >= n: descending, point-
    infinite over the naturals, no finite subcover.  The U_1-index j
    carries [0..j], and x_n = n + 1 escapes [0..1] ∪ ... ∪ [0..n]."""

    def cover_at(n: int) -> Cover:
        return Cover(space, set_fn=lambda i, _n=n: SSet.interval(0, _n - 1 + i),
                     name=f"segments>={n}")

    return DescendingCovers(space=space, cover_at=cover_at,
                            escape_point=lambda n: n + 1)


def discrete_comb_search(K: int, chi_vertex: Optional[Coloring],
                         chi_edge: Coloring, m: int, d: int,
                         budget: SearchBudget, s: int = 2,
                         dc: Optional[DescendingCovers] = None):
    """The discrete-space instance: points {0..K-1} sampled from the
    symbolic naturals, target small-subsets coverage (every finite subset
    of the space inside some union)."""
    space = Space.naturals()
    dc = dc or initial_segment_covers(space)
    return menger_mt_search(dc, chi_vertex, chi_edge, m, d,
                            target=CoverKind.OMEGA, horizon=K, budget=budget,
                            target_params={"s": s})
