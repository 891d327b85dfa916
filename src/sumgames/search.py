"""Backtracking and exhaustive searches for finitary monochromatic witnesses:
Hindman-style finite sums, Milliken–Taylor sum (hyper)graphs, Schur-type
thresholds, and the proper-or-collapse dichotomy.

Searches extend block sequences greedily by least max index, backtracking on
color conflict, so the first witness found is the least one in that order.
Exhausting the truncated search space is reported separately from running
out of node budget: the theorems only promise witnesses in the infinite
limit, so a truncated miss never refutes anything.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from .check import (
    verify_avoider,
    verify_collapse,
    verify_hindman_witness,
    verify_mt_witness,
    verify_proper,
)
from .coloring import Coloring, canonical_key
from .semigroups import (
    BlockSequence,
    CertificateError,
    ElementSequence,
    ImproperSequenceError,
    Semigroup,
    _block,
    _mask,
    block_key,
    chain_sum_sets,
    chain_table,
    indexed_sum,
    naturals,
)

_NATS = naturals()


@dataclass(frozen=True)
class SearchBudget:
    """Caps for a search: value / index truncation and node limit.

    Every search runs sequentially in one thread and visits its nodes in a
    fixed order, so its result depends on these caps alone.  Each search
    reads ``node_limit`` and at most one truncation, and raises ValueError
    for a budget that sets a truncation it does not read.
    """

    max_value: int = 0
    max_index: int = 0
    node_limit: int = 10 ** 7

    def __post_init__(self):
        if self.node_limit < 1:
            raise ValueError("node_limit must be positive")
        if self.max_value < 0 or self.max_index < 0:
            raise ValueError("truncations cannot be negative")

    def require_unset(self, search: str, cap: str) -> None:
        """Raise ValueError if ``cap`` is set: ``search`` does not read it,
        so it would run as if it were 0."""
        value = getattr(self, cap)
        if value:
            raise ValueError(f"{search} does not read {cap}={value}")


@dataclass
class Witness:
    """A verified monochromatic structure.

    ``certificate`` holds the checked sets: ``edge_sets``, every sum set of
    a d-chain, for a block search, and ``fs_values``, every finite sum, for
    a Hindman search.  So the result can be re-checked with no knowledge of
    the search path that produced it.
    """

    blocks: Optional[BlockSequence]
    terms: Optional[tuple]
    color_vertex: Optional[int]
    color_edge: Optional[int]
    certificate: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        cert = self.certificate
        size = len(cert.get("edge_sets") or cert.get("fs_values") or ())
        # a term is a number or a finite set, whose members are listed in text order
        terms = [sorted(t, key=repr) if isinstance(t, frozenset) else t
                 for t in self.terms] if self.terms else None
        return {
            "blocks": [sorted(b) for b in self.blocks] if self.blocks else None,
            "terms": terms,
            "color_vertex": self.color_vertex,
            "color_edge": self.color_edge,
            "certificate_size": size,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Witness":
        """The witness that ``to_record`` wrote as ``record``, a term listed
        as a set read back as a frozenset.  The record holds only the size
        of the certificate, so it comes back empty."""
        return cls(BlockSequence(tuple(record["blocks"])),
                   tuple(frozenset(t) if isinstance(t, list) else t for t in record["terms"]),
                   record["color_vertex"], record["color_edge"])


@dataclass
class Exhausted:
    """No witness: either the truncated space is fully searched
    (``complete``) or the node budget ran out first."""

    complete: bool
    nodes: int
    note: str = ""

    def to_record(self) -> dict:
        return {"complete": self.complete, "nodes": self.nodes}


@dataclass
class Proper:
    blocks: BlockSequence
    terms: tuple

    def to_record(self) -> dict:
        return {"verdict": "proper", "blocks": [sorted(b) for b in self.blocks]}

    @classmethod
    def from_record(cls, record: dict, seq: ElementSequence) -> "Proper":
        """The run that ``to_record`` wrote, its terms summed from ``seq``."""
        blocks = BlockSequence(tuple(record["blocks"]))
        return cls(blocks, tuple(indexed_sum(seq, F) for F in blocks))


@dataclass
class Collapse:
    element: Any
    blocks: BlockSequence

    def to_record(self) -> dict:
        return {"verdict": "collapse", "element": sorted(self.element),
                "blocks": [sorted(b) for b in self.blocks]}

    @classmethod
    def from_record(cls, record: dict) -> "Collapse":
        return cls(frozenset(record["element"]), BlockSequence(tuple(record["blocks"])))


@dataclass
class DichotomyUnknown:
    nodes: int
    complete: bool

    def to_record(self) -> dict:
        return {"verdict": "unknown-at-depth", "nodes": self.nodes}


class _NodeBudget:
    """Counts nodes up to ``limit``; ``refused`` records that one more was
    asked for, so a run that stops there is not a complete one."""

    __slots__ = ("limit", "used", "refused")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.refused = False

    def spend(self) -> bool:
        if self.used >= self.limit:
            self.refused = True
            return False
        self.used += 1
        return True


# ---------------------------------------------------------------------------
# shared driver
# ---------------------------------------------------------------------------

def _depth_first(m: int, candidates: Callable, check: Callable,
                 finish: Callable, node_limit: int, root=None):
    """The one depth-first loop of the block searches, and the only place
    where they spend nodes.

    ``candidates(prefix)`` lists the items that may extend a prefix, in
    search order; every extended prefix costs one node.  ``check(prefix,
    parent)`` gets the state that ``check`` returned for the prefix without
    its last item (``root`` for the empty prefix), and returns the extended
    prefix's state, or None to prune it; so a check pays only for what the
    last item adds.  A prefix of length ``m`` goes to ``finish(prefix, state)``,
    whose first non-None value ends the search.  When ``check`` holds on
    every prefix of an accepted sequence, that value belongs to the least
    accepted sequence in search order.  Without one, the result is
    ``Exhausted``: complete unless a node was refused.
    """
    nodes = _NodeBudget(node_limit)
    prefix: list = []

    def extend(parent):
        for item in candidates(prefix):
            if not nodes.spend():
                return None
            prefix.append(item)
            state = check(prefix, parent)
            if state is not None:
                out = finish(prefix, state) if len(prefix) == m else extend(state)
                if out is not None or nodes.refused:
                    return out
            prefix.pop()
        return None

    out = extend(root)
    # extend holds itself through its closure: break that cycle, so that the
    # closures of the search, and the tables they hold, are freed on return
    # rather than at the next collection of cyclic garbage
    del extend
    if out is not None:
        return out
    if nodes.refused:
        return Exhausted(False, nodes.used, "node budget exhausted")
    return Exhausted(True, nodes.used)


# One search reads n = 1 .. m <= 12 at one d, and a bound below m would
# rebuild lists as it moves between depths; 24 keeps two values of d at
# m = 12, in at most 11 MB.
@functools.lru_cache(maxsize=24)
def _chains_ending_at(n: int, d: int) -> tuple:
    """The chains F_1 < ... < F_d inside {1..n} whose last block holds n:
    the d-chains that a prefix of n terms has and its parent lacks.

    Returned as two tuples: the head chains, whose last block is {n}, and
    the others, whose last block is F | {n} for a block F inside {1..n-1}.
    A head chain's members other than the term are sums of the parent.
    Chains are given as list positions in ``_prefix_sums``: a head chain as
    those of F_1 .. F_{d-1} in the parent's sums (mask - 1), any other as
    ``(last, rest)``, with ``rest`` so and ``last`` the position of F_d in
    the sums that n adds (mask - 2^(n-1)).  The heads are the chains of
    ``chain_table(n - 1, d - 1)``, one tuple each, and F | {n}, in block
    order, pairs with those of them inside {1..min(F)-1}, in table order."""
    top = 1 << (n - 1)
    table = chain_table.__wrapped__(n - 1, d - 1)  # read once: kept out of the cache
    heads = tuple(tuple(_mask(F) - 1 for F in chain) for chain in table)
    ends = [max(chain[-1]) if chain else 0 for chain in table]
    below = [tuple(rest for rest, end in zip(heads, ends) if end <= k)
             for k in range(n - 1)]
    order = sorted(range(1, top), key=lambda last: block_key(_block(last | top)))
    others = tuple((last, rest) for last in order
                   for rest in below[(last & -last).bit_length() - 1])
    return heads, others


@functools.lru_cache(maxsize=None)
def _least_indices(n: int) -> tuple:
    """The least index of each block inside {1..n-1}: entry j - 1 for mask j."""
    return tuple((j & -j).bit_length() for j in range(1, 1 << (n - 1)))


@dataclass(eq=False)
class _SearchTables:
    """What one search fixes before its first node, and the tables that
    all its prefix states share.  ``sg`` combines the sums; ``chi_edge``
    colors the sum sets of the d-chains and ``chi_vertex`` the sums, when
    set; ``decode``, when set, maps a sum as the search holds it to the
    value that a coloring sees.

    ``bits`` interns each sum value to a bit, ``1 << id``, the first time
    the kernel builds it under ``chi_edge``, so a chain's subject is the
    OR of its members' bits: equal member sets give equal masks, and a
    repeated member is one member, as in a set.  ``edge`` maps masks to
    their colors, ``vertex`` sums to theirs, and ``keys`` holds the
    ``canonical_key`` of each value that a keyed coloring has been given,
    so that a search colors each distinct subject once."""

    sg: Semigroup
    chi_edge: Optional[Coloring]
    d: int
    chi_vertex: Optional[Coloring]
    decode: Optional[Callable]
    bits: dict = field(default_factory=dict, init=False)
    keys: dict = field(default_factory=dict, init=False)
    edge: dict = field(default_factory=dict, init=False)
    vertex: dict = field(default_factory=dict, init=False)


@dataclass(slots=True)
class _PrefixState:
    """What the prefix check knows about a prefix of n terms: its finite
    sums and the interned bit of each (under an edge coloring; else the
    root's empty list), as lists whose entry mask - 1 is that block's; the
    least max index of a block with each sum value; and the one edge and
    vertex color seen so far (None before the first).

    ``tables`` holds the search's fixed inputs and its interned bits and
    colors: ``root`` makes them, and every later state holds the same
    ``_SearchTables``.
    """

    n: int
    sums: list
    least_max: dict
    masks: list
    edge_color: Optional[int]
    vertex_color: Optional[int]
    tables: _SearchTables

    @classmethod
    def root(cls, sg: Semigroup, chi_edge: Optional[Coloring] = None, d: int = 0,
             chi_vertex: Optional[Coloring] = None,
             decode: Optional[Callable] = None) -> "_PrefixState":
        """The state of the empty prefix of a search with these fixed
        inputs, with new tables."""
        return cls(0, [], {}, [], None, None,
                   _SearchTables(sg, chi_edge, d, chi_vertex, decode))


def _color(chi: Coloring, members: list, tables: _SearchTables) -> int:
    """``chi`` on the set of ``members``, each mapped through the search's
    ``decode`` when it has one; a keyed coloring is given their keys from
    ``tables.keys``, which gains the keys it lacked."""
    decode = tables.decode
    if chi.keyed is None:
        return chi.of_set(frozenset(members if decode is None else map(decode, members)))
    keys, member_keys = tables.keys, []
    for v in members:
        key = keys.get(v)
        if key is None:
            key = keys[v] = canonical_key(v if decode is None else decode(v))
        member_keys.append(key)
    return chi.of_keys(member_keys)


def _prefix_sums(parent: _PrefixState, term) -> Optional[_PrefixState]:
    """The prefix check of the Hindman, Milliken–Taylor, proper-or-collapse
    and cover-partition searches, extended by one term.

    ``parent`` is the state of the first n - 1 terms (the search's root
    when n = 1), which passed this check; its tables fix the rest.  Only
    the 2^(n-1) sums of blocks holding n are new.  Most prefixes fail, so
    the checks run cheapest first, and nothing is copied until all hold:

    1. properness of the term: every older block lies below {n}, so an
       older sum equal to the term collides;
    2. ``chi_vertex`` on the term: it shares the parent's color;
    3. ``chi_edge`` on the head chains of ``_chains_ending_at(n, d)``, whose
       last block is {n}: they read only the parent's sums and the term.
       Their members are d distinct values, since the parent is proper and
       step 1 held, so the arity check of the coloring cannot fire there,
       as it cannot on the chains of step 5;
    4. properness of the other new sums, H = F | {n} for each block F of
       the parent in mask order: H collides when a block below min(H) has
       the same sum, that is when the parent's least max index of a block
       with that sum lies below min(F).  A new sum can collide only with
       an older one: two blocks holding n are incomparable;
    5. ``chi_edge`` on the other new chains, then ``chi_vertex`` on the other
       new sums;
    6. only then are the parent's lists copied and extended by the new
       sums, which belong to the masks 2^(n-1) .. 2^n - 1, and its
       ``least_max`` copied.  The parent's state is never changed.

    Every color is read from the search's tables, and a coloring is called
    only on a subject that its table lacks.

    Returns the state of the n terms, or None if a check fails.
    """
    n, tables = parent.n + 1, parent.tables
    older, least_max = parent.sums, parent.least_max
    if term in least_max:
        return None
    chi_edge, chi_vertex = tables.chi_edge, tables.chi_vertex
    vertex_color = parent.vertex_color
    if chi_vertex is not None:
        vertex_colors = tables.vertex
        vertex_color = vertex_colors.get(term)
        if vertex_color is None:
            vertex_color = vertex_colors[term] = _color(chi_vertex, [term], tables)
        if parent.vertex_color not in (None, vertex_color):
            return None
    edge_color, masks = parent.edge_color, parent.masks
    if chi_edge is not None:
        bits, edge_colors = tables.bits, tables.edge
        term_bit = bits.get(term)
        if term_bit is None:
            term_bit = bits[term] = 1 << len(bits)
        heads, others = _chains_ending_at(n, tables.d)
        for rest in heads:
            mask = term_bit
            for p in rest:
                mask |= masks[p]
            c = edge_colors.get(mask)
            if c is None:
                c = edge_colors[mask] = _color(
                    chi_edge, [older[p] for p in rest] + [term], tables)
            if edge_color is None:
                edge_color = c
            elif c != edge_color:
                return None
    added = [term]
    combine = tables.sg.combine
    for low, v in zip(_least_indices(n), older):
        v = combine(v, term)
        if least_max.get(v, n) < low:
            return None
        added.append(v)
    # a new chain or sum is checked only once a head chain or the term has
    # fixed the color
    if chi_edge is not None:
        new_masks = []
        for v in added:
            bit = bits.get(v)
            if bit is None:
                bit = bits[v] = 1 << len(bits)
            new_masks.append(bit)
        for last, rest in others:
            mask = new_masks[last]
            for p in rest:
                mask |= masks[p]
            c = edge_colors.get(mask)
            if c is None:
                c = edge_colors[mask] = _color(
                    chi_edge, [older[p] for p in rest] + [added[last]], tables)
            if c != edge_color:
                return None
        masks = masks + new_masks
    if chi_vertex is not None:
        for v in itertools.islice(added, 1, None):
            c = vertex_colors.get(v)
            if c is None:
                c = vertex_colors[v] = _color(chi_vertex, [v], tables)
            if c != vertex_color:
                return None
    least = dict.fromkeys(added, n)  # an older value keeps its entry
    least.update(least_max)
    return _PrefixState(n, older + added, least, masks, edge_color, vertex_color, tables)


def _base_sums(seq: ElementSequence, n: int) -> Optional[list]:
    """The sums of the first ``n`` terms of ``seq``, entry mask - 1 for each
    block's, or None if ``proper_violation(seq, n)`` finds a collision;
    built by the prefix check with no colorings, so that it stops at the
    first collision and never sorts blocks to find the least one."""
    state = _PrefixState.root(seq.semigroup)
    for i in range(1, n + 1):
        state = _prefix_sums(state, seq.term(i))
        if state is None:
            return None
    return state.sums


def _chain_candidates(hi: int, m: int) -> Callable:
    """Candidates for chains F_1 < ... < F_m inside {1..hi}: blocks above
    the last one that leave an index for each block still to come."""

    def candidates(blocks: list) -> Iterator[int]:
        lo = blocks[-1].bit_length() + 1 if blocks else 1
        return _candidate_blocks(lo, hi - (m - len(blocks) - 1))

    return candidates


# ---------------------------------------------------------------------------
# Hindman search over an integer interval
# ---------------------------------------------------------------------------

def hindman_search(chi: Coloring, m: int, budget: SearchBudget):
    """Find a_1 < ... < a_m with FS(a_1..a_m) inside {1..max_value},
    monochromatic under the vertex coloring, and proper (no block-sum
    collisions: repeated values would collapse the structure).  A budget
    that sets ``max_index``, which this search does not read, raises
    ValueError."""
    if chi.arity != 1:
        raise ValueError("hindman_search expects a vertex coloring")
    budget.require_unset("hindman_search", "max_index")
    n_max = budget.max_value
    if not 1 <= m <= n_max:
        raise ValueError("need 1 <= m <= max_value")

    def candidates(terms: list) -> range:
        # the largest finite sum, that of all terms, stays within n_max
        return range(terms[-1] + 1 if terms else 1, n_max - sum(terms) + 1)

    def finish(terms: list, state: _PrefixState) -> Witness:
        return Witness(
            blocks=BlockSequence(tuple(frozenset([i]) for i in range(1, m + 1))),
            terms=tuple(terms),
            color_vertex=state.vertex_color,
            color_edge=None,
            certificate={"fs_values": sorted(state.sums)},
        )

    result = _depth_first(
        m, candidates,
        lambda terms, parent: _prefix_sums(parent, terms[-1]),
        finish, budget.node_limit, _PrefixState.root(_NATS, chi_vertex=chi))
    if isinstance(result, Witness) and not verify_hindman_witness(result, chi):
        raise CertificateError("hindman_search produced a witness that fails "
                               "verify_hindman_witness")
    return result


# ---------------------------------------------------------------------------
# Milliken–Taylor style block search
# ---------------------------------------------------------------------------

def _candidate_blocks(lo: int, hi: int) -> Iterator[int]:
    """Masks of the blocks inside {lo..hi} ordered by max index first, then
    by sorted tuple: the greedy least-max order the searches use.

    The blocks with max index k are generated in that order, one at a
    time: {lo..k} first, and after a block whose indices below k are
    ``below``, drop its largest index j of those and, if j + 1 < k, add
    j + 1..k - 1.  So a block is followed by the least block that sorts
    after it, and {k} comes last."""
    for k in range(lo, hi + 1):
        top = 1 << (k - 1)
        below = top - (1 << (lo - 1))
        while True:
            yield below | top
            if not below:
                break
            j = below.bit_length()
            below ^= 1 << (j - 1)
            below |= top - (1 << j)


def mt_search(chi_edge: Coloring, sg: Semigroup, base: ElementSequence,
              m: int, d: int, budget: SearchBudget,
              chain=None, chi_vertex: Optional[Coloring] = None):
    """Blocks F_1 < ... < F_m over the base whose induced sumsequence has a
    monochromatic depth-m sum d-hypergraph.

    With a vertex coloring (d = 2) the acceptance condition routes through
    the two-dimensional reduction: the combined coloring must be
    monochromatic, which at finite depth is enforced as "finite-sums set
    vertex-monochromatic and sum graph edge-monochromatic".  With a chain
    over ``sg``, the n-th block sum must lie in the chain's n-th set.
    The blocks lie in {1..``budget.max_index``}; a budget that sets
    ``max_value``, which this search does not read, raises ValueError.
    """
    if chi_edge.arity != d:
        raise ValueError(f"edge coloring arity {chi_edge.arity} != d={d}")
    if m < d:
        raise ValueError(f"m={m} < d={d}: m blocks hold no chain of d blocks")
    if chain is not None and chain.semigroup.kind != sg.kind:
        raise ValueError(f"chain over {chain.semigroup.kind} cannot hold sums over {sg.kind}")
    budget.require_unset("mt_search", "max_value")
    hi = budget.max_index
    if hi < m:
        raise ValueError("max_index must allow m blocks")
    block_sums = _base_sums(base, hi)
    if block_sums is None:
        raise ImproperSequenceError(f"base improper up to index {hi}")

    def check(blocks: list, parent: _PrefixState) -> Optional[_PrefixState]:
        term = block_sums[blocks[-1] - 1]
        if chain is not None and not chain.set_at(len(blocks))(term):
            return None
        return _prefix_sums(parent, term)

    def finish(blocks: list, state: _PrefixState) -> Witness:
        sums = dict(zip(map(_block, itertools.count(1)), state.sums))
        return Witness(
            blocks=BlockSequence(tuple(map(_block, blocks))),
            terms=tuple(sums[frozenset([i])] for i in range(1, m + 1)),
            color_vertex=state.vertex_color,
            color_edge=state.edge_color,
            certificate={"edge_sets": chain_sum_sets(sums, m, d)},
        )

    result = _depth_first(m, _chain_candidates(hi, m), check, finish, budget.node_limit,
                          _PrefixState.root(sg, chi_edge, d, chi_vertex))
    if isinstance(result, Witness) and not verify_mt_witness(
            result, sg, base, chi_edge, d, chi_vertex=chi_vertex, chain=chain):
        raise CertificateError("mt_search produced a witness that fails "
                               "verify_mt_witness")
    return result


# ---------------------------------------------------------------------------
# Schur-type thresholds
# ---------------------------------------------------------------------------

# A found threshold's record carries the confirmer's refutation of {1..N}
# up to this many entries, one per confirmer node and one for its root.
# k <= 3 needs at most 1,642 (6 KB, checked in 3 ms); k = 4 at N = 45
# needs 388,851, 1.5 MB of JSON that takes 1.3 s to check.  The cap keeps
# a record under about 0.4 MB and its check under about 0.35 s; a longer
# refutation is left out, and its record is re-run.
_MAX_REFUTATION = 100_000


@dataclass
class ThresholdReport:
    """The outcome of ``threshold_search``.  A found and confirmed
    threshold n carries both halves of its proof: ``avoider``, which
    ``verify_avoider`` checks on {1..n-1}, and ``certificate``, the
    confirmer's refutation of {1..n}, which ``verify_refutation`` checks.
    Other reports have no certificate."""

    found: bool
    n: Optional[int]
    avoider: Optional[dict]          # coloring of {1..n-1} with no mono triple
    nodes: int
    confirmed_independent: bool = False
    note: str = ""
    certificate: Optional[list] = None

    def to_record(self) -> dict:
        """Every field but ``nodes``; a certificate over the cap is left out."""
        record = {
            "found": self.found,
            "n": self.n,
            "avoider": {str(k): v for k, v in (self.avoider or {}).items()},
            "confirmed_independent": self.confirmed_independent,
            "note": self.note,
        }
        if self.certificate is not None and len(self.certificate) <= _MAX_REFUTATION:
            record["certificate"] = self.certificate
        return record

    @classmethod
    def from_record(cls, record: dict) -> "ThresholdReport":
        """The report that ``to_record`` wrote as ``record``, with 0 nodes."""
        return cls(record["found"], record["n"],
                   {int(v): c for v, c in record["avoider"].items()}, 0,
                   record["confirmed_independent"], record["note"],
                   record.get("certificate"))


@functools.cache
def _rivals(k: int) -> tuple:
    """Entry c holds the colors 1..k other than c."""
    return tuple(tuple(d for d in range(1, k + 1) if d != c) for c in range(k + 1))


def _lex_first_avoider(k: int, max_value: int, allow_repeats: bool,
                       nodes: _NodeBudget,
                       ask: Optional[Callable[[int], Optional[bool]]] = None,
                       ) -> tuple[int, Optional[dict]]:
    """One depth-first pass over the k-colorings of 1, 2, 3, ... in
    lexicographic order.  Returns ``(depth, avoider)``: the deepest n
    reached and the coloring of {1..n} held when the pass first got there,
    which is the lexicographically least avoider of {1..n}.

    The pass stops at ``max_value``, when the budget runs out, or on an
    answer of ``ask`` other than True; otherwise it has exhausted the tree,
    so no avoider of {1..depth + 1} exists.

    ``ask(n)`` says whether {1..n} has an avoider: True, False, or None
    when the budget ran out first.  Without it the pass must exhaust the
    tree to prove its last depth, which may cost far more than reaching
    it.  So the first time the pass fails to color depth + 1 it asks
    ``ask(depth + 1)``, at most once per depth and never when depth + 1
    is ``max_value``, where the pass ends either way.  On True it goes on;
    on False or None it stops, and the caller, which keeps the answer,
    tells the two apart.

    Colors are broken symmetrically: value v may take a new color only if
    every lower color is already in use.  The least avoider satisfies this
    (swapping two color names would make it smaller otherwise), so the
    result is the least avoider among all colorings.

    A forward check skips branches that cannot change the result.  Once
    every color is in use, if the color of v newly forbids some z with
    v < z <= depth + 1 that every other color forbids too, no extension
    colors z, since forbidden sets only grow; so nothing below v gets
    deeper than ``depth``, and v takes its next color at once.  A complete
    pass returns what it would without the check.  A pass cut by the budget
    visits a subsequence of those nodes, so it reaches at least as deep on
    the same budget.

    Each color tried at a value is one node, one ``nodes.spend()``, also
    when the color is refused because it would complete a monochromatic
    triple; a skipped branch spends nothing further.  The pass stops at
    the first spend the budget refuses.  Nodes are not counted in a local,
    since tracers count the ``spend`` calls.
    """
    spend = nodes.spend
    mask = [0] * (k + 1)        # mask[c]: bit v set when v has color c
    forb = [0] * (k + 1)        # forb[c]: bit z set when z = x + y, x, y in c
    colors = [0] * (max_value + 2)
    saved = [0] * (max_value + 2)   # forb[colors[v]] before v was colored
    in_use = [0] * (max_value + 2)  # colors used by 1..v-1
    depth, held = 0, []  # held: colors[1:depth + 1] when depth was first reached
    reached = 3          # bits 0..depth + 1
    rivals = _rivals(k)
    pending = False      # depth + 1 has not failed yet, and will be asked
    v = 1 if max_value else 0
    while v:
        c = colors[v]
        bit = 1 << v
        if c:  # undo v's color before trying the next one
            mask[c] ^= bit
            forb[c] = saved[v]
        prior = in_use[v]
        top = prior + 1 if prior < k else k
        c += 1
        while c <= top:
            if not spend():
                return depth, dict(enumerate(held, start=1)) or None
            if not forb[c] & bit:
                break
            c += 1
        if c > top:
            colors[v] = 0
            v -= 1
            # the first value closed at a depth is depth + 1 itself
            if pending:
                pending = False
                if not ask(depth + 1):  # refuted, or the budget ran out
                    break
            continue
        colors[v] = c
        old = saved[v] = forb[c]
        f = old | mask[c] << v
        if allow_repeats:
            f |= 1 << (2 * v)
        forb[c] = f
        mask[c] |= bit
        if c > prior:
            prior = c
        if v > depth:
            depth, held = v, colors[1:v + 1]
            if v == max_value:
                break
            reached = (bit << 2) - 1
            pending = ask is not None and v + 1 < max_value
        elif prior == k:
            # c newly forbids only values above v; one of them up to
            # depth + 1 that every other color forbids too is reached by no
            # extension
            z = (f ^ old) & reached
            if z:
                for d in rivals[c]:
                    z &= forb[d]
                    if not z:
                        break
                else:
                    continue  # the next pass undoes c and tries c + 1
        in_use[v + 1] = prior
        v += 1
    return depth, dict(enumerate(held, start=1)) or None


def _avoider_exists_fc(k: int, n: int, allow_repeats: bool,
                       nodes: _NodeBudget, proof: Optional[list] = None) -> Optional[bool]:
    """Second, structurally different enumerator: forward checking over
    per-value color domains (bit c - 1 of ``dom[v]`` set while v may still
    take color c), branching on the least unassigned value with the fewest
    colors left.  A color that wipes out a domain closes its branch, so no
    unassigned value has 0 colors left, and the scan stops at the first
    value with 1.  The colors that no assigned value uses yet have pruned
    no domain, so they are interchangeable: each branch tries the least of
    them and none of the others.  Each color tried is one node, one
    ``nodes.spend()``, also when it wipes out a domain.  True if some
    k-coloring of {1..n} avoids every monochromatic {x, y, x+y}, False if
    none does, None if the node budget ran out first.

    The values it meets are appended to ``proof`` in preorder: the value
    each branch splits on, and the value whose domain a color wipes out,
    so one entry for the root and one per node.  After False the list is
    a refutation that ``verify_refutation`` checks."""
    same = [0] * k      # same[c]: bit u set when u has color c + 1
    mirror = [0] * k    # mirror[c]: bit n - u set when u has color c + 1
    record = (proof if proof is not None else []).append

    def search(dom: list, free: int, fresh: int) -> Optional[bool]:
        if not free:
            return True
        v, size, rest = 0, k + 1, free
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            left = dom[u].bit_count()
            if left < size:
                v, size = u, left
                if left == 1:  # no free value has 0 colors left
                    break
        free ^= 1 << v
        record(v)
        # the fresh colors are in every domain and interchangeable: keep
        # only the least of them
        choices = dom[v] ^ (fresh & (fresh - 1))
        while choices:
            bit = choices & -choices
            choices ^= bit
            c = bit.bit_length() - 1
            if not nodes.spend():
                return None
            # Every triple that v completes with an earlier value of color
            # c: the sums u + v and the differences |u - v|.
            hit = (same[c] << v) | (same[c] >> v) | (mirror[c] >> (n - v))
            if allow_repeats:
                hit |= 1 << (2 * v)
                if v % 2 == 0:
                    hit |= 1 << (v // 2)
            hit &= free
            child = dom[:] if hit else dom
            wiped = False
            while hit and not wiped:
                low = hit & -hit
                hit ^= low
                w = low.bit_length() - 1
                child[w] &= ~bit
                wiped = not child[w]
            if wiped:
                record(w)
                continue
            same[c] |= 1 << v
            mirror[c] |= 1 << (n - v)
            out = search(child, free, fresh & ~bit)
            same[c] ^= 1 << v
            mirror[c] ^= 1 << (n - v)
            if out is not False:
                return out
        return False

    full = (1 << k) - 1
    return search([full] * (n + 1), (1 << (n + 1)) - 2, full)


def threshold_search(k: int, allow_repeats: bool = True,
                     budget: Optional[SearchBudget] = None) -> ThresholdReport:
    """Least N such that every k-coloring of {1..N} has a monochromatic
    {x, y, x+y} (x = y only when repeats are allowed), plus the least
    avoiding coloring of {1..N-1} in lexicographic order.

    One depth-first pass over 1, 2, ... up to ``budget.max_value`` finds
    the avoider: the first one it meets at each depth is the least.  A
    second enumerator, forward checking over color domains, settles the
    last depth: the first time the pass fails to color depth + 1, it asks
    whether {1..depth + 1} has an avoider, and stops on its refutation
    instead of exhausting that depth itself.  So N is found either by that
    refutation or by a pass that exhausts the tree, after which the second
    enumerator is asked about {1..N} unless it was already.  A found N is
    ``confirmed_independent`` only when the second enumerator refuted
    {1..N} and ``verify_avoider`` accepts the avoider of {1..N-1}, the two
    halves of the proof; ``note`` says which did not hold.  A confirmed
    report keeps that refutation as its ``certificate``, one entry per node
    of the second enumerator and one for its root, so that
    ``verify_refutation`` can check N without a search.  Both enumerators
    spend one budget of ``budget.node_limit`` nodes, and ``nodes`` counts
    both, the asks that found an avoider too; an ask cut by the budget
    ends the run as a cut pass does, with no threshold found.  Both skip
    branches that cannot change their answer (see each enumerator).  A
    budget that sets ``max_index``, which this search does not read,
    raises ValueError.
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    budget = budget or SearchBudget(max_value=64)
    budget.require_unset("threshold_search", "max_index")
    nodes = _NodeBudget(budget.node_limit)
    # n: the confirmer's answer on {1..n}, and its list if that is a
    # refutation, the only list a report keeps
    asked: dict = {}

    def confirm(n: int) -> Optional[bool]:
        if n not in asked:
            proof: list = []
            exists = _avoider_exists_fc(k, n, allow_repeats, nodes, proof)
            asked[n] = exists, proof if exists is False else None
        return asked[n][0]

    depth, avoider = _lex_first_avoider(k, budget.max_value, allow_repeats, nodes, confirm)
    if depth == budget.max_value:
        return ThresholdReport(False, None, avoider, nodes.used,
                               note=f"no threshold within {budget.max_value}")
    n = depth + 1
    # an ask that ran out of budget stops the pass as a refused spend does
    if nodes.refused or n in asked and asked[n][0] is None:
        return ThresholdReport(False, None, avoider, nodes.used,
                               note=f"budget exhausted at N={n}; threshold > {depth}")
    exists = confirm(n)
    proof = asked[n][1]
    if exists is None:
        note = f"confirmation budget of {nodes.limit} nodes exhausted at N={n}"
    elif exists:
        note = f"the second enumerator found an avoider of {{1..{n}}}"
    elif not verify_avoider(avoider, k, depth, allow_repeats):
        note = f"the avoider of {{1..{depth}}} fails verify_avoider"
    else:
        note = ""
    return ThresholdReport(True, n, avoider, nodes.used,
                           confirmed_independent=not note, note=note,
                           certificate=None if note else proof)


# ---------------------------------------------------------------------------
# proper-or-collapse dichotomy
# ---------------------------------------------------------------------------

def proper_or_collapse(seq: ElementSequence, depth: int,
                       budget: Optional[SearchBudget] = None):
    """Either a block sequence inducing a proper sumsequence, or a collapse
    element e with e + e = e.

    Searches chains of min(3, depth) blocks inside {1..depth} whose pairs of
    blocks F < H have all sums distinct (proper) or all equal (collapse).
    The proper branch is ``_prefix_sums`` with no coloring.  At two terms
    that check refuses the second only when it equals the first, e; the
    collapse branch then accepts only terms equal to e, and returns a
    collapse only once e + e = e checks out, so returned collapse
    certificates always verify.  The budget's ``node_limit`` caps the
    search; ``depth`` bounds the blocks, so a ``max_index`` other than 0 or
    ``depth`` raises ValueError, as does any ``max_value``.
    """
    budget = budget or SearchBudget()
    budget.require_unset("proper_or_collapse", "max_value")
    if budget.max_index not in (0, depth):
        raise ValueError(f"max_index={budget.max_index} differs from depth={depth}, "
                         "which bounds the blocks")
    m = min(3, depth)
    if m < 2:
        raise ValueError("dichotomy needs depth >= 2")
    if seq.length is not None and seq.length < depth:
        raise ValueError(f"depth={depth} needs {depth} terms, the sequence has "
                         f"{seq.length}")
    sg = seq.semigroup
    # the sum over a block depends on the block alone: take it once
    block_sum = functools.cache(lambda F: indexed_sum(seq, _block(F)))

    def check(blocks: list, parent):
        term = block_sum(blocks[-1])
        if not isinstance(parent, _PrefixState):  # collapse branch: parent is e
            return parent if term == parent else None
        state = _prefix_sums(parent, term)
        # refused at two terms: the second term is the first, e
        return term if state is None and len(blocks) == 2 else state

    def finish(blocks: list, state):
        bseq = BlockSequence(tuple(map(_block, blocks)))
        if isinstance(state, _PrefixState):
            return Proper(blocks=bseq, terms=tuple(map(block_sum, blocks)))
        if sg.combine(state, state) == state:
            return Collapse(element=state, blocks=bseq)
        return None

    out = _depth_first(m, _chain_candidates(depth, m), check, finish,
                       budget.node_limit, _PrefixState.root(sg))
    if isinstance(out, Exhausted):
        return DichotomyUnknown(nodes=out.nodes, complete=out.complete)
    return out


def verify_dichotomy(result, seq: ElementSequence) -> bool:
    """Re-verify a dichotomy certificate against the original sequence.

    Only ``Proper`` and ``Collapse`` results carry a certificate.  Any
    ``DichotomyUnknown`` is accepted unchecked: its claim that no chain was
    found can be checked only by running the search again."""
    if isinstance(result, Proper):
        return verify_proper(result, seq)
    if isinstance(result, Collapse):
        return verify_collapse(result, seq)
    return isinstance(result, DichotomyUnknown)
