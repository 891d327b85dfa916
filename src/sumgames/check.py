"""Certificate checkers: each decides with no search whether a recorded
structure or proof holds, re-deriving every clause from its definition.
They share no code with the searches, so a defect in a search cannot make
its check agree: this module imports only the standard library,
``coloring``, ``covers``, ``semigroups`` and ``verdicts``, and no result
class; it reads each witness by attribute."""
from __future__ import annotations

import functools
from collections import Counter
from typing import Optional

from .coloring import Coloring, reduce_two_dim_to_one
from .covers import Cover, SSet, classify_cover
from .semigroups import (
    ElementSequence,
    Semigroup,
    chain_sum_sets,
    fs_enumerate,
    is_proper_up_to,
    least_collision,
    naturals,
    take_sumsequence,
)

_NATS = naturals()

# the semigroup of the unions V_n of a cover-partition witness
_UNIONS = Semigroup(kind="set-union", combine=SSet.union)


def _recheck_sums(seq: ElementSequence, d: int, chi_edge: Optional[Coloring],
                  color_edge, chi_vertex: Optional[Coloring] = None,
                  color_vertex=None) -> Optional[tuple[dict, list]]:
    """The recheck that the Hindman, block and cover-partition verifiers
    share.

    ``seq`` holds the m terms re-derived from a witness's terms, blocks or
    families, never taken from search state.  They must be proper; with
    ``chi_edge``, every sum set of a d-chain must have the color
    ``color_edge``; and, with ``chi_vertex``, every finite sum the color
    ``color_vertex``.  Returns the finite sums by block and the edge sets
    (none without ``chi_edge``), or None if a check fails.
    """
    m = seq.length
    sums = fs_enumerate(seq, m)
    if least_collision(sums) is not None:
        return None
    edges = []
    if chi_edge is not None:
        edges = chain_sum_sets(sums, m, d)
        if {chi_edge.of_set(e) for e in edges} != {color_edge}:
            return None
    if chi_vertex is not None and {chi_vertex.of(v) for v in sums.values()} != {color_vertex}:
        return None
    return sums, edges


def verify_hindman_witness(w, chi: Coloring) -> bool:
    """Independent recheck: re-enumerate every finite sum from the terms,
    which must be proper and of the one color ``w.color_vertex``, and
    compare the sums with the certificate's."""
    checked = _recheck_sums(ElementSequence.from_terms(_NATS, w.terms), 1, None,
                            None, chi, w.color_vertex)
    return (checked is not None
            and sorted(checked[0].values()) == sorted(w.certificate["fs_values"]))


def verify_mt_witness(w, sg: Semigroup, base: ElementSequence,
                      chi_edge: Coloring, d: int,
                      chi_vertex: Optional[Coloring] = None,
                      chain=None, eta: Optional[Coloring] = None) -> bool:
    """Re-verify a witness from scratch: recompute the sumsequence from the
    blocks, re-enumerate the hypergraph, recheck every color and membership.
    With a vertex coloring, the edge sets must also have one color under
    ``eta``, which defaults to the two-dimensional reduction of the
    colorings over ``sg`` when d = 2."""
    taken = take_sumsequence(base, w.blocks)
    if tuple(taken.prefix(len(w.blocks))) != w.terms:
        return False
    checked = _recheck_sums(taken, d, chi_edge, w.color_edge, chi_vertex, w.color_vertex)
    if checked is None:
        return False
    edges = checked[1]
    if Counter(edges) != Counter(w.certificate["edge_sets"]):
        return False
    if eta is None and chi_vertex is not None and d == 2:
        eta = reduce_two_dim_to_one(chi_vertex, chi_edge, sg)
    if chi_vertex is not None and eta is not None and len({eta.of(e) for e in edges}) != 1:
        return False
    if chain is not None:
        for i, b in enumerate(w.terms, start=1):
            if not chain.set_at(i)(b):
                return False
    return True


def verify_proper(result, seq: ElementSequence) -> bool:
    """A proper run: its terms are the block sums of ``seq``, and proper."""
    taken = take_sumsequence(seq, result.blocks)
    return (tuple(taken.prefix(len(result.blocks))) == result.terms
            and is_proper_up_to(taken, len(result.blocks)))


def verify_collapse(result, seq: ElementSequence) -> bool:
    """A collapse: every finite sum of its blocks is the element e = e + e."""
    taken = take_sumsequence(seq, result.blocks)
    vals = set(fs_enumerate(taken, len(result.blocks)).values())
    return (vals == {result.element}
            and seq.semigroup.combine(result.element, result.element) == result.element)


def verify_partition_witness(w, dc, chi_edge: Coloring, d: int,
                             chi_vertex: Optional[Coloring] = None,
                             horizon: int = 8, **target_params) -> bool:
    """Independent recheck of every clause of the partition theorem's
    conclusion on the finished witness.  Round n may use U_1-index j when
    j >= n and U_1's j-th set is a member of U_n, read as far as the round's
    largest index or the end of U_1 or U_n, whichever comes first."""
    m = len(w.families)
    base = dc.cover_at(1)
    used: set = set()
    for n, fam in enumerate(w.families, start=1):
        indices = {j for j, _ in fam}
        if not indices or (indices & used):
            return False
        used |= indices
        hi, cover = max(indices), dc.cover_at(n)
        if min(indices) < n or hi > base.prefix_length(hi):
            return False
        members = set(cover.prefix(min(cover.prefix_length(hi), base.prefix_length(hi))))
        for j, s in fam:
            if dc.member_set(j) != s or s not in members:
                return False
    if [frozenset(j for j, _ in fam) for fam in w.families] != list(w.index_blocks):
        return False
    terms = [functools.reduce(SSet.union, (s for _, s in fam)) for fam in w.families]
    if tuple(w.unions) != tuple(terms):
        return False
    # escape points gathered so far lie in every later union
    for i in range(1, m + 1):
        x = dc.escape_point(i)
        for later in range(i + 1, m + 1):
            if not w.unions[later - 1].contains(x):
                return False
    seq = ElementSequence.from_terms(_UNIONS, terms)
    if _recheck_sums(seq, d, chi_edge, w.color_edge, chi_vertex, w.color_vertex) is None:
        return False
    cover = Cover(dc.space, sets=list(dict.fromkeys(w.unions)), name="verify")
    return classify_cover(cover, w.target, horizon, **target_params) is w.coverage


def _has_mono_triple(colors: dict, n: int, allow_repeats: bool) -> bool:
    for x in range(1, n + 1):
        y_start = x if allow_repeats else x + 1
        for y in range(y_start, n - x + 1):
            if colors[x] == colors[y] == colors[x + y]:
                return True
    return False


def verify_avoider(avoider: dict, k: int, n: int, allow_repeats: bool) -> bool:
    """Check an avoider with no search: it colors exactly {1..n}, with
    colors 1..k, each a plain int, and has no monochromatic {x, y, x+y}
    (x = y only when repeats are allowed).  So every k-coloring threshold
    exceeds n."""
    return (set(avoider) == set(range(1, n + 1))
            and all(type(c) is int and 0 < c <= k for c in avoider.values())
            and not _has_mono_triple(avoider, n, allow_repeats))


def verify_refutation(certificate, k: int, n: int, allow_repeats: bool) -> bool:
    """Check a refutation with no search: True only if it proves that every
    k-coloring of {1..n} has a monochromatic {x, y, x+y} (x = y only when
    repeats are allowed), so the threshold is at most n.

    The certificate lists the nodes of a search tree in preorder, one
    value per node, each a plain int in 1..n that the node's ancestors
    left uncolored.  A node whose value has no color left closes its
    branch.  Otherwise it has one child per color left to it, in
    increasing order: each color in use, then the least color not in use,
    which stands for all of them since none colors anything yet.  A child
    gives the value its color and goes on with the next entry.  The
    certificate holds when every branch is closed as the list ends."""
    entries = iter(certificate)
    mask = [0] * (k + 1)    # mask[c]: bit u set when u has color c
    mirror = [0] * (k + 1)  # mirror[c]: bit n - u set when u has color c
    forb = [0] * (k + 1)    # forb[c]: bit z set when z would complete a triple in c
    colored, top = 0, 0     # top: colors 1..top are in use
    stack = []  # colored nodes: (value, colors left, its color, forb of it before, top before)
    while True:
        v = next(entries, None)
        if type(v) is not int or not 0 < v <= n or colored >> v & 1:
            return False
        bit = 1 << v
        # the colors left to v, largest first: those in use, then one fresh
        left = [c for c in range(min(top + 1, k), 0, -1) if not forb[c] & bit]
        while not left:  # a closed branch: back to the deepest node with a color left
            if not stack:  # every branch is closed, and no entry may be left over
                return not any(True for _ in entries)
            v, left, c, before, top = stack.pop()
            forb[c] = before
            bit = 1 << v
            mask[c] ^= bit
            mirror[c] ^= 1 << (n - v)
            colored ^= bit
        c = left.pop()
        f = forb[c]
        stack.append((v, left, c, f, top))
        # z completes a triple with v and some u of color c when z is u + v
        # or |u - v|, and with repeats when z is 2v or v / 2
        f |= mask[c] << v | mask[c] >> v | mirror[c] >> (n - v)
        if allow_repeats:
            f |= 1 << (2 * v)
            if v % 2 == 0:
                f |= 1 << (v // 2)
        forb[c] = f
        mask[c] |= bit
        mirror[c] |= 1 << (n - v)
        colored |= bit
        if c > top:
            top = c
