"""Semigroups, block-indexed finite sums, sumsequences and sum hypergraphs.

The engine room: everything else in the package is built on folding an
associative operation over blocks (nonempty finite index sets) of a term
sequence.  Blocks are 1-based throughout.  ``F < H`` between blocks means
``max(F) < min(H)``.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

Block = frozenset  # nonempty frozenset of 1-based indices


class SumgamesError(Exception):
    """Base class for errors raised by this package."""


class ImproperSequenceError(SumgamesError):
    """A sequence required to be proper has colliding block sums."""


class BlockOrderError(SumgamesError):
    """Blocks violate the max < min order."""


class CertificateError(SumgamesError):
    """A search produced a certificate that its own verifier rejects."""


def make_block(indices: Iterable[int]) -> Block:
    b = frozenset(int(i) for i in indices)
    if not b:
        raise ValueError("blocks are nonempty")
    if min(b) < 1:
        raise ValueError("block indices are 1-based")
    return b


def block_less(F: Block, H: Block) -> bool:
    """The block order: every index of F below every index of H."""
    return max(F) < min(H)


def block_key(F: Block) -> tuple:
    """Canonical sort key for a block (sorted index tuple)."""
    return tuple(sorted(F))


def blocks_within(n: int) -> Iterator[Block]:
    """All nonempty blocks inside {1..n}, in canonical (sorted-tuple) order."""
    universe = range(1, n + 1)
    out = []
    for r in range(1, n + 1):
        out.extend(frozenset(c) for c in itertools.combinations(universe, r))
    return iter(sorted(out, key=block_key))


def block_chains(n: int, d: int) -> Iterator[tuple]:
    """All chains F_1 < ... < F_d of blocks inside {1..n}, in canonical
    order; every chain that holds a block holds the same object."""
    blocks = [(F, min(F), max(F)) for F in blocks_within(n)]
    # tails[lo]: the chains of the length built so far inside {lo..n}
    tails = [((),)] * (n + 2)
    for _ in range(d):
        tails = [tuple((F,) + rest for F, least, top in blocks if least >= lo
                       for rest in tails[top + 1])
                 for lo in range(n + 2)]
    return iter(tails[1])


@dataclass(frozen=True)
class Semigroup:
    """An associative structure with equality and, optionally, an
    enumeration order.

    ``enumeration(i)`` (1-based) injects the naturals into the elements;
    ``rank`` inverts it where defined.  The rank order is what "min" means
    for the vertex-coloring reduction: every element has finitely many
    enumeration-smaller elements.  A semigroup whose elements are only
    combined and compared leaves both None.
    """

    kind: str
    combine: Callable[[Any, Any], Any]
    enumeration: Optional[Callable[[int], Any]] = None
    rank: Optional[Callable[[Any], int]] = None

    def fold(self, items) -> Any:
        items = list(items)
        if not items:
            raise ValueError("cannot fold an empty block")
        acc = items[0]
        for x in items[1:]:
            acc = self.combine(acc, x)  # left-to-right, matching a_{i1}+...+a_{ik}
        return acc


def _block(mask: int) -> Block:
    """The block of a mask: index i is in it iff bit i - 1 is, so 1 -> {1},
    2 -> {2}, 3 -> {1, 2}, ..."""
    digits = bin(mask)[:1:-1]  # bit i - 1 is digit i - 1
    return frozenset(itertools.compress(itertools.count(1), map("1".__eq__, digits)))


def _mask(F: Iterable[int]) -> int:
    """The mask of a block, inverse to ``_block``."""
    return sum(1 << (j - 1) for j in F)


def naturals() -> Semigroup:
    """(N, +) with N = {1, 2, ...}; enumeration is the identity."""
    return Semigroup(
        kind="naturals-with-addition",
        combine=operator.add,
        enumeration=lambda i: i,
        rank=lambda x: x,
    )


def finite_sets() -> Semigroup:
    """(Fin, ∪): nonempty finite subsets of N under union.

    Every element is idempotent (e ∪ e = e), which is what makes the
    proper/collapse dichotomy interesting here.  Enumeration is by binary
    encoding: rank(F) = sum of 2^(j-1) over j in F.
    """
    return Semigroup(
        kind="finite-sets-with-union",
        combine=operator.or_,
        enumeration=_block,
        rank=_mask,
    )


@dataclass(frozen=True)
class BlockSequence:
    """Finite sequence of blocks in the block order F_1 < F_2 < ..."""

    blocks: tuple

    def __post_init__(self):
        bs = tuple(make_block(b) for b in self.blocks)
        object.__setattr__(self, "blocks", bs)
        for a, b in zip(bs, bs[1:]):
            if not block_less(a, b):
                raise BlockOrderError(f"blocks out of order: {sorted(a)} !< {sorted(b)}")

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, i):
        return self.blocks[i]

    def __iter__(self):
        return iter(self.blocks)

    @property
    def max_index(self) -> int:
        return max(self.blocks[-1]) if self.blocks else 0


class ElementSequence:
    """A 1-based sequence of semigroup elements.

    Either a finite tuple of terms or generator-backed (``term_fn``), in
    which case terms are memoized up to the largest index touched.
    """

    def __init__(self, semigroup: Semigroup, terms=None, term_fn=None):
        if (terms is None) == (term_fn is None):
            raise ValueError("exactly one of terms/term_fn required")
        self.semigroup = semigroup
        self._terms = list(terms) if terms is not None else []
        self._term_fn = term_fn

    @classmethod
    def from_terms(cls, semigroup: Semigroup, terms) -> "ElementSequence":
        return cls(semigroup, terms=list(terms))

    @classmethod
    def from_fn(cls, semigroup: Semigroup, term_fn) -> "ElementSequence":
        return cls(semigroup, term_fn=term_fn)

    @property
    def length(self) -> Optional[int]:
        """Number of terms for finite sequences, None when generator-backed."""
        return None if self._term_fn else len(self._terms)

    def term(self, i: int):
        if i < 1:
            raise IndexError("term indices are 1-based")
        if self._term_fn is not None:
            while len(self._terms) < i:
                self._terms.append(self._term_fn(len(self._terms) + 1))
            return self._terms[i - 1]
        if i > len(self._terms):
            raise IndexError(f"term {i} out of range (length {len(self._terms)})")
        return self._terms[i - 1]

    def prefix(self, n: int) -> list:
        return [self.term(i) for i in range(1, n + 1)]

    def __repr__(self):
        shown = self._terms[:6]
        tail = ", ..." if (self._term_fn or len(self._terms) > 6) else ""
        return f"ElementSequence({shown}{tail})"


def indexed_sum(seq: ElementSequence, F: Block):
    """a_F: the combine-fold of seq's terms at F's indices, in increasing order."""
    F = make_block(F)
    return seq.semigroup.fold(seq.term(i) for i in sorted(F))


def fs_enumerate(seq: ElementSequence, n: int) -> dict:
    """All finite sums a_F for nonempty F ⊆ {1..n}, keyed by block.

    Returns 2^n - 1 entries; n = 0 gives the empty mapping.  Computed
    incrementally: a_{F ∪ {j}} = a_F + a_j for every F already listed,
    since each of them lies inside {1..j-1}.
    """
    combine = seq.semigroup.combine
    sums: dict = {}
    for j in range(1, n + 1):
        aj, head = seq.term(j), frozenset([j])
        new = {head: aj}
        for F, val in sums.items():
            new[F | head] = combine(val, aj)
        sums.update(new)
    return sums


def take_sumsequence(seq: ElementSequence, blocks: BlockSequence) -> ElementSequence:
    """The sumsequence a_{F_1}, a_{F_2}, ... of seq over the blocks."""
    return ElementSequence.from_terms(seq.semigroup, [indexed_sum(seq, F) for F in blocks])


def proper_violation(seq: ElementSequence, depth: int):
    """Least pair of blocks F < H within {1..depth} with a_F == a_H, or None.

    "Least" is lexicographic on the pair of sorted index tuples.
    """
    return least_collision(fs_enumerate(seq, depth))


def least_collision(sums: dict):
    """Least pair of blocks F < H with sums[F] == sums[H], or None, for a
    map from blocks to their sums such as ``fs_enumerate`` returns.

    "Least" is as in ``proper_violation``.  Only blocks sharing a value can
    collide, so the scan groups by value first instead of walking all pairs.
    """
    groups: dict = {}
    for F, v in sums.items():
        groups.setdefault(v, []).append(F)
    best = None
    best_key = None
    for blocks in groups.values():
        if len(blocks) < 2:
            continue
        for F in blocks:
            for H in blocks:
                if block_less(F, H):
                    key = (block_key(F), block_key(H))
                    if best_key is None or key < best_key:
                        best, best_key = (F, H), key
    return best


def is_proper_up_to(seq: ElementSequence, depth: int) -> bool:
    """True iff a_F != a_H for all blocks F < H within {1..depth}."""
    return proper_violation(seq, depth) is None


# A table stays after the check that built it.  A command asks for n <= 12
# (search-mt's m), where the largest table, d = 4, holds 65,537 chains in
# 6 MB and the eight largest 27 MB.  Each benchmark workload checks against
# two or three tables, and reads up to seven more once, to build the search's
# cached per-depth lists; so eight keep the checked tables and bound what stays.
@functools.lru_cache(maxsize=8)
def chain_table(n: int, d: int) -> tuple:
    """``block_chains(n, d)`` as a tuple, built once per (n, d).  Immutable,
    so no caller can alter what another reads."""
    return tuple(block_chains(n, d))


def chain_sum_sets(sums: dict, n: int, d: int) -> list:
    """The distinct sum sets {a_{F_1}, ..., a_{F_d}} over block chains
    F_1 < ... < F_d inside {1..n}, in canonical chain order, read from
    ``sums``, which maps every block inside {1..n} to its sum."""
    return list(dict.fromkeys(frozenset(map(sums.__getitem__, chain))
                              for chain in chain_table(n, d)))


def sum_hypergraph(seq: ElementSequence, depth: int, d: int) -> list:
    """All d-element sum sets {a_{F_1}, ..., a_{F_d}} over block chains
    F_1 < ... < F_d inside {1..depth}, deduplicated, in canonical order.

    d = 1 gives the finite-sums set (as singletons), d = 2 the sum graph.
    Rejects sequences that are improper at this depth: colliding sums
    would degenerate the edge sets.
    """
    if d < 1:
        raise ValueError("d >= 1 required")
    sums = fs_enumerate(seq, depth)
    bad = least_collision(sums)
    if bad is not None:
        raise ImproperSequenceError(
            f"sequence improper at depth {depth}: a_F == a_H for "
            f"F={sorted(bad[0])}, H={sorted(bad[1])}")
    return chain_sum_sets(sums, depth, d)
