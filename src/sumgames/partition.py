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

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional, Sequence

from .coloring import Coloring
from .covers import Cover, CoverKind, SSet, Space, classify_cover
from .filters import SymbolicChain
from .search import Exhausted, SearchBudget, _NodeBudget, _candidate_blocks, _run_split
from .semigroups import (
    BlockSequence,
    CertificateError,
    ElementSequence,
    IndexedUnion,
    block_chains,
    fs_enumerate,
    proper_violation,
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

    def member_set(self, j: int) -> SSet:
        return self.cover_at(1).set_at(j)

    def base_prefix_length(self, hi: int) -> int:
        base = self.cover_at(1)
        return base.length if base.length is not None else hi

    def allowed_indices(self, n: int, hi: int) -> list:
        """U_1-indices j >= n whose set is (extensionally) a member of U_n."""
        base = self.cover_at(1)
        cn = self.cover_at(n)
        hi = min(hi, self.base_prefix_length(hi))
        cn_sets = cn.prefix(min(cn.prefix_length(hi), self.base_prefix_length(hi)))
        out = []
        for j in range(n, hi + 1):
            u = base.set_at(j)
            if any(u == s for s in cn_sets):
                out.append(j)
        return out

    def check_descension(self, depth: int, hi: int) -> list:
        """Sampled violations: members of U_{n+1} missing from U_n.  The
        upper cover is matched on a longer prefix, since descending tails
        shift members outward."""
        bad = []
        wide = hi + depth + 4
        for n in range(1, depth + 1):
            upper = self.cover_at(n)
            lower = self.cover_at(n + 1)
            upper_sets = upper.prefix(min(upper.prefix_length(wide), wide))
            for s in lower.prefix(min(lower.prefix_length(hi), hi)):
                if not any(s == u for u in upper_sets):
                    bad.append((n, s))
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
    is the block sequence of those indices when the block order was
    requested; the certificate records every checked union and d-set.
    """

    families: tuple                      # tuple over rounds of ((j, SSet), ...)
    unions: tuple                        # the V_n, as SSets
    index_blocks: Optional[BlockSequence]
    color_vertex: Optional[int]
    color_edge: int
    target: CoverKind
    coverage: Verdict
    certificate: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "index_blocks": [sorted(b) for b in self.index_blocks] if self.index_blocks else None,
            "families": [[j for j, _ in fam] for fam in self.families],
            "color_vertex": self.color_vertex,
            "color_edge": self.color_edge,
            "target": self.target.value,
            "coverage": self.coverage.value,
        }


def _union_semigroup_terms(dc: DescendingCovers, families: Sequence) -> list:
    """The V_n as indexed-union semigroup elements (generator indices plus
    extensional set value, so equality is extensional)."""
    terms = []
    for fam in families:
        gens = frozenset(j for j, _ in fam)
        acc: Optional[SSet] = None
        for _, s in fam:
            acc = s if acc is None else acc.union(s)
        terms.append(IndexedUnion(gens=gens, value=acc))
    return terms


def _union_element_sequence(dc, families) -> ElementSequence:
    from .semigroups import indexed_unions

    sg = indexed_unions(lambda j: dc.member_set(j), lambda a, b: a.union(b))
    return ElementSequence.from_terms(sg, _union_semigroup_terms(dc, families))


def _prefix_ok(dc, families, chi_edge, chi_vertex, d, escapes) -> bool:
    n = len(families)
    for i, x in enumerate(escapes[:n], start=1):
        # x_1..x_{n-1} must lie in V_n for every later round
        for later in range(i + 1, n + 1):
            fam = families[later - 1]
            v = None
            for _, s in fam:
                v = s if v is None else v.union(s)
            if not v.contains(x):
                return False
    seq = _union_element_sequence(dc, families)
    if proper_violation(seq, n) is not None:
        return False
    sums = fs_enumerate(seq, n)
    colors = set()
    for ch in block_chains(n, d):
        colors.add(chi_edge.of_set(frozenset(sums[F] for F in ch)))
        if len(colors) > 1:
            return False
    if chi_vertex is not None:
        if len({chi_vertex.of(v) for v in sums.values()}) > 1:
            return False
    return True


def menger_mt_search(dc: DescendingCovers, chi_vertex: Optional[Coloring],
                     chi_edge: Coloring, m: int, d: int, target: CoverKind,
                     horizon: int, budget: SearchBudget,
                     require_block_order: bool = True,
                     target_params: Optional[dict] = None):
    """Find disjoint finite subfamilies F_n of U_n (members drawn from the
    tail of U_1's enumeration, unions forced to contain the escape points
    gathered so far) whose unions form a monochromatic, distinct,
    target-classified family.  Backtracking stands in for the abstract
    proof's ultrafilter choices; the certificate is re-verified from
    scratch before being returned."""
    hi = min(budget.max_index, dc.base_prefix_length(budget.max_index))
    if hi < m:
        raise ValueError("max_index must allow m rounds")
    tparams = dict(target_params or {})
    bad = dc.check_descension(min(m, 3), hi)
    if bad:
        raise ValueError(f"descension fails on samples: {bad[:3]}")
    escapes = [dc.escape_point(n) for n in range(1, m + 1)]
    allowed = {n: set(dc.allowed_indices(n, hi)) for n in range(1, m + 1)}
    best_depth = 0

    def candidate_fams(rnd: int, lo: int, used: set):
        cap = hi - (m - rnd) if require_block_order else hi
        for F in _candidate_blocks(lo, cap):
            if (set(F) <= allowed[rnd]) and not (set(F) & used):
                yield tuple((j, dc.member_set(j)) for j in sorted(F))

    def extend(families: list, used: set, nodes: _NodeBudget):
        nonlocal best_depth
        if not nodes.spend():
            return None
        n = len(families)
        best_depth = max(best_depth, n)
        if n == m:
            unions = tuple(_union_semigroup_terms(dc, families))
            distinct_sets = []
            for u in unions:
                if u.value not in distinct_sets:
                    distinct_sets.append(u.value)
            cover = Cover(dc.space, sets=distinct_sets, name="partition-unions")
            coverage = classify_cover(cover, target, horizon, **tparams)
            if coverage is not Verdict.HOLDS:
                return "prune"
            return _build_partition_witness(
                dc, families, chi_vertex, chi_edge, d, target, coverage)
        rnd = n + 1
        if families and require_block_order:
            lo = max(rnd, max(j for j, _ in families[-1]) + 1)
        else:
            lo = rnd
        for fam in candidate_fams(rnd, lo, used):
            if not _prefix_ok(dc, families + [fam], chi_edge, chi_vertex, d, escapes):
                continue
            out = extend(families + [fam], used | {j for j, _ in fam}, nodes)
            if out is None or isinstance(out, PartitionWitness):
                return out
        return "prune"

    def explore_first(fam, nodes: _NodeBudget):
        if not _prefix_ok(dc, [fam], chi_edge, chi_vertex, d, escapes):
            return "prune"
        return extend([fam], {j for j, _ in fam}, nodes)

    firsts = list(candidate_fams(1, 1, set()))
    out = _run_split(firsts, explore_first, budget,
                     key=lambda w: tuple(tuple(sorted(j for j, _ in fam))
                                         for fam in w.families),
                     witness_type=PartitionWitness)
    if isinstance(out, PartitionWitness):
        if not verify_partition_witness(out, dc, chi_edge, d, chi_vertex=chi_vertex,
                                        horizon=horizon, **tparams):
            raise CertificateError("menger_mt_search produced a witness that "
                                   "fails verify_partition_witness")
        return out
    return Exhausted(out.complete, out.nodes,
                     note=f"best depth reached: {best_depth} of {m}")


def _build_partition_witness(dc, families, chi_vertex, chi_edge, d, target,
                             coverage) -> PartitionWitness:
    m = len(families)
    seq = _union_element_sequence(dc, families)
    sums = fs_enumerate(seq, m)
    edges = [frozenset(sums[F] for F in ch) for ch in block_chains(m, d)]
    color_edge = chi_edge.of_set(edges[0])
    color_vertex = (chi_vertex.of(next(iter(sums.values())))
                    if chi_vertex is not None else None)
    try:
        index_blocks = BlockSequence(tuple(frozenset(j for j, _ in fam)
                                           for fam in families))
    except Exception:
        index_blocks = None
    return PartitionWitness(
        families=tuple(families),
        unions=tuple(t.value for t in _union_semigroup_terms(dc, families)),
        index_blocks=index_blocks,
        color_vertex=color_vertex,
        color_edge=color_edge,
        target=target,
        coverage=coverage,
        certificate={
            "d": d,
            "edge_sets": edges,
            "fs_values": list(sums.values()),
        },
    )


def verify_partition_witness(w: PartitionWitness, dc: DescendingCovers,
                             chi_edge: Coloring, d: int,
                             chi_vertex: Optional[Coloring] = None,
                             horizon: int = 8, **target_params) -> bool:
    """Independent recheck of every clause of the partition theorem's
    conclusion on the finished witness."""
    m = len(w.families)
    used: set = set()
    for n, fam in enumerate(w.families, start=1):
        indices = {j for j, _ in fam}
        if not indices or (indices & used):
            return False
        used |= indices
        allowed = set(dc.allowed_indices(n, max(indices)))
        if not indices <= allowed:
            return False
        for j, s in fam:
            if dc.member_set(j) != s:
                return False
    if w.index_blocks is not None:
        blocks = list(w.index_blocks)
        if [frozenset(j for j, _ in fam) for fam in w.families] != blocks:
            return False
    # escape points gathered so far lie in every later union
    for i in range(1, m + 1):
        x = dc.escape_point(i)
        for later in range(i + 1, m + 1):
            if not w.unions[later - 1].contains(x):
                return False
    seq = _union_element_sequence(dc, w.families)
    if proper_violation(seq, m) is not None:
        return False
    sums = fs_enumerate(seq, m)
    edges = [frozenset(sums[F] for F in ch) for ch in block_chains(m, d)]
    if {chi_edge.of_set(e) for e in edges} != {w.color_edge}:
        return False
    if chi_vertex is not None:
        if {chi_vertex.of(v) for v in sums.values()} != {w.color_vertex}:
            return False
    distinct = []
    for u in w.unions:
        if u not in distinct:
            distinct.append(u)
    cover = Cover(dc.space, sets=distinct, name="verify")
    return classify_cover(cover, w.target, horizon, **target_params) is w.coverage


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

    def point(self, complement: Iterable) -> frozenset:
        return frozenset(complement)

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


def singleton_family(a_enum: Callable[[int], int], n: int) -> FiniteSetFamily:
    return FiniteSetFamily(
        has_member_inside=lambda F: a_enum(n) in F,
        member_in_tail=lambda k: frozenset({a_enum(max(k, n))}),
        name=f"singleton-{n}")


def ap_family(a_enum: Callable[[int], int], length: int,
              window: int = 64) -> FiniteSetFamily:
    """Arithmetic progressions of the given length inside the enumerated set."""

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
        values = [a_enum(i) for i in range(k, k + window)]
        present = set(values)
        for start in values:
            for step in range(1, (values[-1] - start) // max(1, length - 1) + 1 if length > 1 else 2):
                if all(start + t * step in present for t in range(length)):
                    return frozenset(start + t * step for t in range(length))
        raise ValueError(f"no progression of length {length} in the sampled tail")

    return FiniteSetFamily(has_ap, in_tail, name=f"ap-{length}")


def density_family(a_enum: Callable[[int], int], threshold: Fraction,
                   window: int = 256) -> FiniteSetFamily:
    """Finite sets whose density |F| / max F exceeds the threshold."""

    def dense_inside(F: frozenset) -> bool:
        # best subfamily is always a prefix: {u in F : u <= v} for some v
        for i, v in enumerate(sorted(F), start=1):
            if Fraction(i, v) > threshold:
                return True
        return False

    def in_tail(k: int) -> frozenset:
        got: list = []
        for i in range(k, k + window):
            got.append(a_enum(i))
            if Fraction(len(got), got[-1]) > threshold:
                return frozenset(got)
        raise ValueError(f"tail never exceeded density {threshold} in the window")

    return FiniteSetFamily(dense_inside, in_tail, name=f"density>{threshold}")


def build_constrained_chain(a_enum: Callable[[int], int],
                            families: Callable[[int], FiniteSetFamily],
                            probe_depth: int = 4) -> SymbolicChain:
    """The chain A_n = {finite F inside the tail {a_n, a_{n+1}, ...} that
    contains a member of the n-th family}.

    Each level is a subsemigroup of the union semigroup (supersets keep
    their members), so the levels absorb later ones.  Descension needs the
    families to refine each other: every member of the (n+1)-st family must
    contain a member of the n-th, as progressions and density families do;
    chain_check flags families without that property.  The hypothesis that
    every cofinite tail meets each family is probed through the tail
    witnesses up front.
    """
    from .semigroups import finite_sets

    sg = finite_sets()

    for n in range(1, probe_depth + 1):
        fam = families(n)
        w = fam.member_in_tail(n)  # raises if the hypothesis witness is missing
        if not fam.has_member_inside(w):
            raise ValueError(f"family {fam.name} witness is not its own member")

    tail_cache: dict = {}

    def tail_holds(n: int, F: frozenset) -> bool:
        span = max(len(F), 1) + 320
        have = tail_cache.get(n)
        if have is None or have[0] < span:
            have = (span, {a_enum(i) for i in range(n, n + span)})
            tail_cache[n] = have
        return F <= have[1]

    def set_at(n: int):
        def pred(F, _n=n) -> bool:
            if not isinstance(F, frozenset) or not F:
                return False
            if not tail_holds(_n, F):
                return False
            return families(_n).has_member_inside(F)

        return pred

    def exclusion_index(x) -> Optional[int]:
        if not isinstance(x, frozenset) or not x:
            return 1
        lo = min(x)
        n = 1
        while a_enum(n) <= lo:
            n += 1
            if n > 10 ** 6:
                return None
        return n

    def members_within(n: int, bound: int) -> list:
        base = set(families(n).member_in_tail(n))
        out = [frozenset(base)]
        nxt = max(base)
        k = n
        while len(out) < max(2, min(bound, 4)):
            while a_enum(k) <= nxt:
                k += 1
            nxt = a_enum(k)
            base = base | {nxt}
            out.append(frozenset(base))
        return out

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
