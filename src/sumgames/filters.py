"""Filters and superfilters: extensional families over finite ground sets,
the plus-dual, the star operator, idempotence predicates, and symbolic
descending chains with bounded-depth verification.

The infinite theory's "free" (empty total intersection) and "all members
infinite" are not satisfiable literally on a finite ground set; the
classifiers report those as explicit caveats instead of silently weakening
the definitions, and the duality-law scanner states which finite surrogate
it quantifies over.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .semigroups import ElementSequence, Semigroup, fs_enumerate
from .verdicts import Verdict, all_verdicts


# ---------------------------------------------------------------------------
# extensional families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SetFamily:
    """A family of subsets of a finite ground set, given extensionally."""

    ground: frozenset
    members: frozenset

    def __post_init__(self):
        members = frozenset(frozenset(m) for m in self.members)
        object.__setattr__(self, "members", members)
        for m in members:
            if not m <= self.ground:
                raise ValueError(f"member {sorted(m)} escapes the ground set")

    def __contains__(self, s) -> bool:
        return frozenset(s) in self.members

    def __len__(self):
        return len(self.members)


def family(ground: Iterable, members: Iterable) -> SetFamily:
    return SetFamily(frozenset(ground), frozenset(frozenset(m) for m in members))


def all_subsets(ground: frozenset) -> list:
    out = [frozenset()]
    for r in range(1, len(ground) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(sorted(ground), r))
    return out


def principal_ultrafilter(ground: Iterable, point) -> SetFamily:
    ground = frozenset(ground)
    return SetFamily(ground, frozenset(s for s in all_subsets(ground) if point in s))


def plus_dual(fam: SetFamily) -> SetFamily:
    """F+ = {A : complement of A not in F}, over the same ground set."""
    members = frozenset(
        s for s in all_subsets(fam.ground) if (fam.ground - s) not in fam.members)
    return SetFamily(fam.ground, members)


@dataclass
class FamilyFlags:
    """What an extensional family is.  is_superfilter covers only the
    upward-closure and union-splitting conditions; the "all members are
    infinite" condition has no finite-ground meaning and is reported as a
    caveat, with ``superfilter_surrogate`` (nonempty, empty set excluded)
    as the finite stand-in used by the duality laws."""

    is_filter: bool
    is_free_filter: bool
    is_superfilter: bool
    is_ultrafilter: bool
    superfilter_surrogate: bool
    infinite_members_condition: str = "unverifiable-on-finite-ground"


# A family over a ground of g points is also an int f with bit s set iff it
# holds the subset whose g-bit mask is s.

@functools.cache
def _supersets(g: int) -> tuple:
    """For each subset mask s of a g-point ground, the masks that contain s."""
    n_subsets = 1 << g
    return tuple([t for t in range(n_subsets) if s | t == t] for s in range(n_subsets))


def _members(f: int, g: int) -> list:
    return [s for s in range(1 << g) if (f >> s) & 1]


def _is_filter(f: int, g: int) -> bool:
    """Nonempty, without the empty set, up-closed and closed under
    intersection."""
    ms = _members(f, g)
    if not ms or (f & 1):  # empty family, or contains the empty set
        return False
    supersets = _supersets(g)
    for s in ms:
        for t in supersets[s]:
            if not (f >> t) & 1:
                return False
        for t in ms:
            if not (f >> (s & t)) & 1:
                return False
    return True


def _is_superfilter_23(f: int, g: int) -> bool:
    """Up-closed, and a member union of two sets has one of them in f,
    that is, the non-members are closed under union.  Since they are
    down-closed, they are so exactly when the union of them all is one."""
    supersets = _supersets(g)
    for s in _members(f, g):
        for t in supersets[s]:
            if not (f >> t) & 1:
                return False
    outside = [s for s in range(1 << g) if not (f >> s) & 1]
    return not outside or not (f >> functools.reduce(operator.or_, outside)) & 1


def _holds_each_or_complement(f: int, g: int) -> bool:
    """f holds every subset or its complement; a filter that does is an
    ultrafilter."""
    full = (1 << g) - 1
    return all((f >> s) & 1 or (f >> (full ^ s)) & 1 for s in range(1 << g))


def classify_family(fam: SetFamily) -> FamilyFlags:
    g = len(fam.ground)
    bit = {x: 1 << i for i, x in enumerate(fam.ground)}
    masks = [sum(bit[x] for x in m) for m in fam.members]
    f = sum(1 << s for s in masks)
    is_filter = _is_filter(f, g)
    total = functools.reduce(operator.and_, masks, (1 << g) - 1)
    is_super = _is_superfilter_23(f, g)
    return FamilyFlags(
        is_filter=is_filter,
        is_free_filter=is_filter and not total,
        is_superfilter=is_super,
        is_ultrafilter=is_filter and _holds_each_or_complement(f, g),
        superfilter_surrogate=is_super and f != 0 and not f & 1,
    )


# ---------------------------------------------------------------------------
# the star operator
# ---------------------------------------------------------------------------

@dataclass
class StarReport:
    """Depth-bounded star set: definite members, definite non-members, and
    elements the window could not decide."""

    members: list
    failed: list
    unknown: list


@dataclass(frozen=True)
class PredicateFilter:
    """A filter presented by finitely many generating-set predicates.

    Membership in the generated filter is "contains some generator"; since
    b + C ⊆ A only gets harder as C grows, the star set is decided on the
    generators alone.
    """

    generators: tuple
    name: str = ""


def star_set(A, fam, sg: Semigroup, window: int = 0):
    """A*(F) = {b : b + C ⊆ A for some C in F}.

    Extensional regime (SetFamily): exact, returns a frozenset of ground
    elements; combine results falling outside the ground never land in A.
    Symbolic regime (PredicateFilter): A is a membership predicate,
    candidates b and samples c range over the semigroup enumeration up to
    ``window``; returns a StarReport with three-valued per-element verdicts.
    """
    if isinstance(fam, SetFamily):
        return frozenset(
            b for b in fam.ground
            if any(all(sg.combine(b, c) in A for c in C) for C in fam.members))
    if window <= 0:
        raise ValueError("symbolic star needs a positive window")
    if not isinstance(fam, PredicateFilter):
        raise TypeError(f"unsupported family type {type(fam).__name__}")

    a_pred = A if callable(A) else (lambda x, _s=frozenset(A): x in _s)
    candidates = [sg.enumeration(i) for i in range(1, window + 1)]
    members, failed, unknown = [], [], []
    for b in candidates:
        best = Verdict.FAILS
        for pred in fam.generators:
            samples = [c for c in candidates if pred(c)]
            if not samples:
                best = Verdict.UNKNOWN
                continue
            if all(a_pred(sg.combine(b, c)) for c in samples):
                best = Verdict.HOLDS
                break
        {Verdict.HOLDS: members, Verdict.FAILS: failed, Verdict.UNKNOWN: unknown}[best].append(b)
    return StarReport(members, failed, unknown)


def is_idempotent_filter(fam, sg: Semigroup, depth: int = 0, window: int = 0) -> Verdict:
    """A filter is idempotent when each member's star set is again in it.

    Extensional: checked exactly on every member.  Chains: each sampled
    link A_n must have its star contain all sampled members of some link
    A_m (m up to depth + 1).
    """
    if isinstance(fam, SetFamily):
        for A in fam.members:
            if star_set(A, fam, sg) not in fam.members:
                return Verdict.FAILS
        return Verdict.HOLDS
    if isinstance(fam, SymbolicChain):
        absorbed = _absorption(fam, window)[2]
        return all_verdicts([
            Verdict.HOLDS if any(absorbed(n, m) for m in range(n + 1, depth + 2))
            else Verdict.UNKNOWN for n in range(1, depth + 1)])
    raise TypeError(f"unsupported family type {type(fam).__name__}")


# ---------------------------------------------------------------------------
# exhaustive duality laws
# ---------------------------------------------------------------------------

@dataclass
class LawLine:
    law_id: str
    description: str
    instances: int
    violations: int


@dataclass
class DualityReport:
    ground_size: int
    families_scanned: int
    lines: list
    caveats: list

    @property
    def total_violations(self) -> int:
        return sum(line.violations for line in self.lines)

    def format_lines(self) -> list:
        out = [f"ground size {self.ground_size}: {self.families_scanned} families scanned"]
        for line in self.lines:
            out.append(f"{line.law_id}: {line.description} | instances={line.instances} "
                       f"violations={line.violations}")
        out.extend(f"caveat: {c}" for c in self.caveats)
        return out

    def __str__(self):
        return "\n".join(self.format_lines())


def _dual_table(g: int) -> bytes:
    """dual(f) for every family f over a ground of size g (1..3).

    A family is a bitmask over the 2^g subset masks; bit s of dual(f) is
    set iff f lacks the complement full ^ s = 2^g - 1 - s.  So dual(f) is
    the complement of the 2^g-bit reversal of f, one byte per family.
    Ground 4 reads its duals as two crossed ground-3 duals (see
    ``verify_duality_laws``), so no table of its 65,536 families is built.
    """
    if g < 1 or g > 3:
        raise ValueError("dual tables cover ground sizes 1..3")
    width = 1 << g
    mask = (1 << width) - 1
    return bytes(mask ^ int(f"{f:0{width}b}"[::-1], 2) for f in range(1 << width))


def _identity_planes(n_subsets: int) -> list:
    """Plane s has bit f set iff family f holds subset s, in closed form:
    2^s families without s, then 2^s with it, repeated."""
    planes = []
    for s in range(n_subsets):
        run = 1 << s
        plane, period = ((1 << run) - 1) << run, 2 * run
        while period < 1 << n_subsets:
            plane |= plane << period
            period *= 2
        planes.append(plane)
    return planes


def _up_closed(member: list) -> int:
    """The up-closed families, as one int with a bit per family: those
    that hold s | 1<<i whenever they hold s.  ``member[s]`` has a bit per
    family, set iff the family holds subset s."""
    n_subsets = len(member)
    escapes = 0
    for s in range(n_subsets):
        for i in range(n_subsets.bit_length() - 1):
            if not (s >> i) & 1:
                escapes |= member[s] & ~member[s | 1 << i]
    return ((1 << (1 << n_subsets)) - 1) & ~escapes


def _set_bits(x: int):
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def verify_duality_laws(ground_size: int) -> DualityReport:
    """Exhaustively check the six folklore duality laws over every family
    of subsets of a ground set of the given size.

    Families are bitmasks over the 2^g subsets; there are 2^(2^g) of them.
    Sizes up to 3 read their duals from one table and check the
    antitonicity law on all comparable pairs.  Size 4 builds no table of
    its own: with f = hi·256 + lo, bit s of dual(f) reads bit 15 - s of f,
    which lies in the other byte, so dual(f) = D(lo)·256 + D(hi) for the
    ground-3 dual D.  Laws 1 and 2 then reduce to D: a covering pair of
    ground 4 (equivalent to all comparable pairs by transitivity) adds a
    bit to one byte and keeps the other, so it breaks antitonicity exactly
    when D breaks the matching ground-3 covering pair, and dual(dual(f)) is
    f exactly when D∘D fixes both bytes.  Laws 3 to 6 quantify over
    filters, superfilters and ultrafilters, which are all up-closed, so
    they test only the up-closed families; at size 4 these are the crossed
    pairs lo ⊆ hi of up-closed ground-3 families.  Larger grounds are
    refused: the scan is doubly exponential.
    """
    g = ground_size
    if g < 1 or g > 4:
        raise ValueError("exhaustive regime supports ground sizes 1..4")
    n_subsets = 1 << g
    n_families = 1 << n_subsets
    crossed = g == 4
    duals = _dual_table(min(g, 3))
    up_closed = list(_set_bits(_up_closed(_identity_planes(min(n_subsets, 8)))))

    def subset_mask(a: int, b: int) -> bool:
        return a | b == b

    # (1) antitonicity of +
    if crossed:
        broken = sum(1 for b in range(8) for x in range(256)
                     if not (x >> b) & 1 and not subset_mask(duals[x | 1 << b], duals[x]))
        # each ground-3 pair stands for one ground-4 pair per value of the
        # other byte, in either byte
        count1, viol1 = n_families * n_subsets // 2, 2 * 256 * broken

        def dual(f: int) -> int:
            return duals[f & 0xFF] << 8 | duals[f >> 8]

        # f is up-closed iff both bytes are and lo ⊆ hi: a subset s in lo,
        # which lacks point 3, needs s + {3}, which is s in hi
        up_closed = [hi << 8 | lo for hi in up_closed for lo in up_closed
                     if subset_mask(lo, hi)]
    else:
        dual = duals.__getitem__
        count1 = viol1 = 0
        for f2 in range(n_families):
            sub = f2
            while True:  # enumerate all submasks of f2
                count1 += 1
                if not subset_mask(duals[f2], duals[sub]):
                    viol1 += 1
                if sub == 0:
                    break
                sub = (sub - 1) & f2

    # (2) at size 4, dual(dual(f)) is f iff D∘D fixes both bytes of f
    fixed = sum(1 for x in range(len(duals)) if duals[duals[x]] == x)
    count2, viol2 = n_families, n_families - fixed ** (2 if crossed else 1)

    filters = [f for f in up_closed if _is_filter(f, g)]
    count3 = len(filters)
    viol3 = sum(1 for f in filters
                if not (subset_mask(f, dual(f)) and _is_superfilter_23(dual(f), g)))

    sufs = [f for f in up_closed if f and not (f & 1) and _is_superfilter_23(f, g)]
    count4 = len(sufs)
    viol4 = sum(1 for f in sufs
                if not (_is_filter(dual(f), g) and subset_mask(dual(f), f)))

    count5 = viol5 = 0
    for f in filters:
        d = dual(f)
        for a in _members(d, g):
            for b in _members(f, g):
                count5 += 1
                if not (d >> (a & b)) & 1:
                    viol5 += 1

    ultras = [f for f in filters if _holds_each_or_complement(f, g)]
    count6 = len(ultras)
    viol6 = sum(1 for p in ultras if dual(p) != p)

    lines = [
        LawLine("law-1", "F1 within F2 implies dual(F1) contains dual(F2)", count1, viol1),
        LawLine("law-2", "double dual is the identity", count2, viol2),
        LawLine("law-3", "filter: dual is a (2,3)-superfilter containing it", count3, viol3),
        LawLine("law-4", "superfilter surrogate: dual is a filter contained in it", count4, viol4),
        LawLine("law-5", "A in dual(F), B in F gives A∩B in dual(F)", count5, viol5),
        LawLine("law-6", "ultrafilters are self-dual", count6, viol6),
    ]
    caveats = [
        "freeness and 'all members infinite' are unverifiable on a finite ground; "
        "law 3 quantifies over all filters, law 4 over nonempty (2,3)-superfilters "
        "excluding the empty set",
    ]
    if g == 4:
        caveats.append("law 1 checked on covering pairs (equivalent by transitivity)")
    return DualityReport(g, n_families, lines, caveats)


# ---------------------------------------------------------------------------
# symbolic chains
# ---------------------------------------------------------------------------

@dataclass
class SymbolicChain:
    """A descending sequence A_1 ⊇ A_2 ⊇ ... over a countable ground,
    presented by membership predicates, with explicit freeness witnesses.

    ``exclusion_index(x)`` must name an n with x not in A_n (sampled
    freeness evidence; an empty total intersection is not decidable by
    sampling).  ``members_within(n, bound)`` produces sampled members
    of A_n with about ``bound`` units of work.
    """

    semigroup: Semigroup
    set_at: Callable[[int], Callable[[Any], bool]]
    exclusion_index: Callable[[Any], Optional[int]]
    members_within: Callable[[int, int], list]
    name: str = ""


@dataclass
class ChainReport:
    verdict: Verdict
    descending_failures: list
    freeness_failures: list
    idem_witness_m: dict
    notes: list = field(default_factory=list)


def _absorption(chain: SymbolicChain, window: int):
    """``(samples, holds, absorbed)`` for a chain: the sampled members of
    A_n, whether x is in A_n, and whether A_m lies in the star of A_n on
    the samples, that is, every sampled a in A_m has some k in
    m + 1 .. m + window + 1 with a + A_k ⊆ A_n.  Each is computed once per
    pair of arguments: the idempotence searches ask for the same links and
    sums again and again."""
    samples = functools.cache(lambda n: chain.members_within(n, window))
    holds = functools.cache(lambda n, x: chain.set_at(n)(x))

    def lands(n: int, a, k: int) -> bool:
        # a + A_k ⊆ A_n on the samples of A_k
        cs = samples(k)
        return bool(cs) and all(holds(n, chain.semigroup.combine(a, c)) for c in cs)

    @functools.cache
    def absorbed(n: int, m: int) -> bool:
        sampled = samples(m)
        return bool(sampled) and all(
            any(lands(n, a, k) for k in range(m + 1, m + window + 2)) for a in sampled)

    return samples, holds, absorbed


def chain_check(chain: SymbolicChain, depth: int, window: int = 6) -> ChainReport:
    """Verify a symbolic chain up to the given depth: descension and
    freeness on samples, and the elementwise idempotence condition: for
    every n there is m > n such that each sampled a in A_m has k > m with
    a + A_k ⊆ A_m.  Returns the witnessing m map.  Each sample list and
    each membership is computed once per call.
    """
    samples, holds, absorbed = _absorption(chain, window)

    descending_failures = []
    for n in range(1, depth + 1):
        for x in samples(n + 1):
            if not holds(n, x):
                descending_failures.append((n, x))

    freeness_failures = []
    for x in samples(1):
        n = chain.exclusion_index(x)
        if n is None:
            freeness_failures.append((x, None))
        elif holds(n, x):
            freeness_failures.append((x, n))

    # Level m is self-absorbing when A_m lies in the star of A_m; the chain
    # condition for n then holds with any self-absorbing m > n (A_m ⊆ A_n
    # puts A_m inside the star of A_n).
    idem_m: dict = {}
    idem_verdicts = []
    for n in range(1, depth + 1):
        level_verdict = Verdict.UNKNOWN
        for m in range(n + 1, depth + 2):
            if absorbed(m, m):
                idem_m[n] = m
                level_verdict = Verdict.HOLDS
                break
        idem_verdicts.append(level_verdict)

    notes = []
    if descending_failures:
        verdict = Verdict.FAILS
        notes.append("descension fails on samples")
    elif freeness_failures:
        verdict = Verdict.FAILS
        notes.append("freeness evidence unavailable or wrong")
    else:
        verdict = all_verdicts(idem_verdicts)
        if verdict is not Verdict.HOLDS:
            notes.append("idempotence witnesses not found within window")
    return ChainReport(verdict, descending_failures, freeness_failures, idem_m, notes)


def fs_tail_chain(seq: ElementSequence, index_window: int = 8) -> SymbolicChain:
    """The chain A_n = FS(a_n, a_{n+1}, ...), cut to the finite sums of the
    window a_n .. a_{n + index_window - 1}, which stops at the last term of
    a finite sequence.  Each link's sums are enumerated once, on the first
    question about it; membership is then a set lookup.

    Freeness witnesses come from properness: for a proper sequence each
    element is eventually outside the tails.  For improper sequences the
    witness function reports None and chain_check flags the chain.
    """
    sg = seq.semigroup

    def window_sums(n: int, width: int) -> dict:
        # the sums of a_n .. a_{n + width - 1}, keyed by block of offsets
        if seq.length is not None:
            width = min(width, seq.length + 1 - n)
        return fs_enumerate(
            ElementSequence.from_fn(sg, lambda i: seq.term(n + i - 1)), width)

    @functools.cache
    def link(n: int) -> frozenset:
        return frozenset(window_sums(n, index_window).values())

    def set_at(n: int):
        return lambda x: x in link(n)

    def exclusion_index(x) -> Optional[int]:
        for n in range(1, index_window * 2 + 2):
            if x not in link(n):
                return n
        return None

    def members_within(n: int, bound: int) -> list:
        # at most index_window - 1 terms, so that the samples of A_{n+1}
        # lie inside the window that decides membership in A_n
        sums = window_sums(n, min(bound, index_window - 1))
        seen, out = set(), []
        for F in sorted(sums, key=lambda F: (len(F), tuple(sorted(F)))):
            v = sums[F]
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out

    return SymbolicChain(sg, set_at, exclusion_index, members_within, name="fs-tails")
