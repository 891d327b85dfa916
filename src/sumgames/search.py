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

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from .coloring import Coloring, canonical_key, cardinality_coloring, reduce_two_dim_to_one
from .semigroups import (
    BlockSequence,
    CertificateError,
    ElementSequence,
    ImproperSequenceError,
    Semigroup,
    block_chains,
    block_key,
    fs_enumerate,
    indexed_sum,
    is_proper_up_to,
    naturals,
    proper_violation,
    sum_hypergraph,
    take_sumsequence,
)

_NATS = naturals()


@dataclass(frozen=True)
class SearchBudget:
    """Caps for a search: value / index truncation, node limit, parallelism."""

    max_value: int = 0
    max_index: int = 0
    node_limit: int = 10 ** 7
    parallelism: int = 1

    def __post_init__(self):
        if self.node_limit < 1 or self.parallelism < 1:
            raise ValueError("node_limit and parallelism must be positive")
        if self.max_value < 0 or self.max_index < 0:
            raise ValueError("truncations cannot be negative")


@dataclass
class Witness:
    """A verified monochromatic structure.

    ``certificate`` holds every checked set, so the result can be re-checked
    with no knowledge of the search path that produced it.
    """

    blocks: Optional[BlockSequence]
    terms: Optional[tuple]
    color_vertex: Optional[int]
    color_edge: Optional[int]
    certificate: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        def enc(x):
            if isinstance(x, frozenset):
                return sorted((enc(v) for v in x), key=repr)
            if isinstance(x, (list, tuple)):
                return [enc(v) for v in x]
            if isinstance(x, dict):
                return {str(k): enc(v) for k, v in x.items()}
            if hasattr(x, "gens"):
                return {"gens": sorted(x.gens)}
            return x

        cert = self.certificate
        size = len(cert.get("edge_sets") or cert.get("vertex_sets") or ())
        return {
            "blocks": [sorted(b) for b in self.blocks] if self.blocks else None,
            "terms": enc(self.terms) if self.terms else None,
            "color_vertex": self.color_vertex,
            "color_edge": self.color_edge,
            "certificate_size": size,
        }


@dataclass
class Exhausted:
    """No witness: either the truncated space is fully searched
    (``complete``) or the node budget ran out first."""

    complete: bool
    nodes: int
    note: str = ""


@dataclass
class Proper:
    blocks: BlockSequence
    terms: tuple


@dataclass
class Collapse:
    element: Any
    blocks: BlockSequence


@dataclass
class DichotomyUnknown:
    nodes: int
    complete: bool


class _NodeBudget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        self.used += 1
        return self.used <= self.limit


# ---------------------------------------------------------------------------
# Hindman search over an integer interval
# ---------------------------------------------------------------------------

def hindman_search(chi: Coloring, m: int, budget: SearchBudget):
    """Find a_1 < ... < a_m with FS(a_1..a_m) inside {1..max_value},
    monochromatic under the vertex coloring, and proper (no block-sum
    collisions: repeated values would collapse the structure)."""
    if chi.arity != 1:
        raise ValueError("hindman_search expects a vertex coloring")
    n_max = budget.max_value
    if not 1 <= m <= n_max:
        raise ValueError("need 1 <= m <= max_value")

    def explore(first: int, nodes: _NodeBudget):
        return _extend_hindman(chi, [first], m, n_max, nodes)

    result = _run_split(range(1, n_max + 1), explore, budget,
                        key=lambda w: tuple(w.terms))
    if isinstance(result, Witness) and not verify_hindman_witness(result, chi):
        raise CertificateError("hindman_search produced a witness that fails "
                               "verify_hindman_witness")
    return result


def _extend_hindman(chi: Coloring, terms: list, m: int, n_max: int,
                    nodes: _NodeBudget):
    if not nodes.spend():
        return None  # budget exhausted in this branch
    seq = ElementSequence.from_terms(_NATS, terms)
    n = len(terms)
    sums = fs_enumerate(seq, n)
    if max(sums.values()) > n_max:
        return "prune"
    if len({chi.of(v) for v in sums.values()}) > 1:
        return "prune"
    if proper_violation(seq, n) is not None:
        return "prune"
    if n == m:
        color = chi.of(terms[0])
        return Witness(
            blocks=BlockSequence(tuple(frozenset([i]) for i in range(1, m + 1))),
            terms=tuple(terms),
            color_vertex=color,
            color_edge=None,
            certificate={"d": 1, "fs_values": sorted(sums.values()),
                         "vertex_sets": [frozenset([v]) for v in sums.values()]},
        )
    for nxt in range(terms[-1] + 1, n_max + 1):
        out = _extend_hindman(chi, terms + [nxt], m, n_max, nodes)
        if isinstance(out, Witness) or out is None:
            return out
    return "prune"


def verify_hindman_witness(w: Witness, chi: Coloring) -> bool:
    """Independent recheck: re-enumerate every finite sum from the terms."""
    terms = list(w.terms)
    values = []
    for r in range(1, len(terms) + 1):
        for combo in itertools.combinations(terms, r):
            values.append(sum(combo))
    return (sorted(values) == sorted(w.certificate["fs_values"])
            and {chi.of(v) for v in values} == {w.color_vertex})


# ---------------------------------------------------------------------------
# Milliken–Taylor style block search
# ---------------------------------------------------------------------------

def _candidate_blocks(lo: int, hi: int) -> Iterator[frozenset]:
    """Blocks inside {lo..hi} ordered by max index first, then by sorted
    tuple: the greedy least-max order the searches use."""
    for k in range(lo, hi + 1):
        mids = list(range(lo, k))
        cands = [frozenset(c) | {k}
                 for r in range(len(mids) + 1)
                 for c in itertools.combinations(mids, r)]
        for f in sorted(cands, key=block_key):
            yield f


def mt_search(chi_edge: Coloring, sg: Semigroup, base: ElementSequence,
              m: int, d: int, budget: SearchBudget,
              chain=None, chi_vertex: Optional[Coloring] = None):
    """Blocks F_1 < ... < F_m over the base whose induced sumsequence has a
    monochromatic depth-m sum d-hypergraph.

    With a vertex coloring (d = 2) the acceptance condition routes through
    the two-dimensional reduction: the combined coloring must be
    monochromatic, which at finite depth is enforced as "finite-sums set
    vertex-monochromatic and sum graph edge-monochromatic".  With a chain,
    the n-th block sum must lie in the chain's n-th set.
    """
    if chi_edge.arity != d:
        raise ValueError(f"edge coloring arity {chi_edge.arity} != d={d}")
    hi = budget.max_index
    if hi < m:
        raise ValueError("max_index must allow m blocks")
    if proper_violation(base, hi) is not None:
        raise ImproperSequenceError(f"base improper up to index {hi}")
    eta = (reduce_two_dim_to_one(chi_vertex, chi_edge, sg)
           if (chi_vertex is not None and d == 2) else None)

    def explore(first: frozenset, nodes: _NodeBudget):
        return _extend_mt(chi_edge, chi_vertex, sg, base, [first], m, d, hi,
                          chain, nodes)

    result = _run_split(list(_candidate_blocks(1, hi - m + 1)), explore, budget,
                        key=lambda w: tuple(block_key(b) for b in w.blocks))
    if isinstance(result, Witness) and not verify_mt_witness(
            result, sg, base, chi_edge, d, chi_vertex=chi_vertex, chain=chain, eta=eta):
        raise CertificateError("mt_search produced a witness that fails "
                               "verify_mt_witness")
    return result


def _taken_ok(chi_edge, chi_vertex, sg, taken_terms, d, chain):
    """Monochromaticity + properness + chain membership for a prefix."""
    seq = ElementSequence.from_terms(sg, taken_terms)
    n = len(taken_terms)
    if chain is not None:
        for i, b in enumerate(taken_terms, start=1):
            if not chain.set_at(i)(b):
                return False
    if proper_violation(seq, n) is not None:
        return False
    sums = fs_enumerate(seq, n)
    edge_colors = set()
    for ch in block_chains(n, d):
        edge_colors.add(chi_edge.of_set(frozenset(sums[F] for F in ch)))
        if len(edge_colors) > 1:
            return False
    if chi_vertex is not None:
        if len({chi_vertex.of(v) for v in sums.values()}) > 1:
            return False
    return True


def _extend_mt(chi_edge, chi_vertex, sg, base, blocks, m, d, hi, chain,
               nodes: _NodeBudget):
    if not nodes.spend():
        return None
    taken = [indexed_sum(base, F) for F in blocks]
    if not _taken_ok(chi_edge, chi_vertex, sg, taken, d, chain):
        return "prune"
    n = len(blocks)
    if n == m:
        return _build_mt_witness(chi_edge, chi_vertex, sg, base, blocks, d)
    lo = max(blocks[-1]) + 1
    for F in _candidate_blocks(lo, hi - (m - n - 1)):
        out = _extend_mt(chi_edge, chi_vertex, sg, base, blocks + [F], m, d,
                         hi, chain, nodes)
        if isinstance(out, Witness) or out is None:
            return out
    return "prune"


def _build_mt_witness(chi_edge, chi_vertex, sg, base, blocks, d) -> Witness:
    bseq = BlockSequence(tuple(blocks))
    taken = take_sumsequence(base, bseq)
    m = len(blocks)
    edges = sum_hypergraph(taken, m, d)
    sums = fs_enumerate(taken, m)
    color_edge = chi_edge.of_set(edges[0])
    color_vertex = chi_vertex.of(next(iter(sums.values()))) if chi_vertex else None
    return Witness(
        blocks=bseq,
        terms=tuple(taken.prefix(m)),
        color_vertex=color_vertex,
        color_edge=color_edge,
        certificate={
            "d": d,
            "edge_sets": edges,
            "fs_values": list(sums.values()),
        },
    )


def verify_mt_witness(w: Witness, sg: Semigroup, base: ElementSequence,
                      chi_edge: Coloring, d: int,
                      chi_vertex: Optional[Coloring] = None,
                      chain=None, eta: Optional[Coloring] = None) -> bool:
    """Re-verify a witness from scratch: recompute the sumsequence from the
    blocks, re-enumerate the hypergraph, recheck every color and membership."""
    taken = take_sumsequence(base, w.blocks)
    m = len(w.blocks)
    if tuple(taken.prefix(m)) != w.terms:
        return False
    if not is_proper_up_to(taken, m):
        return False
    edges = sum_hypergraph(taken, m, d)
    if sorted(map(sorted_key, edges)) != sorted(map(sorted_key, w.certificate["edge_sets"])):
        return False
    if {chi_edge.of_set(e) for e in edges} != {w.color_edge}:
        return False
    if chi_vertex is not None:
        values = fs_enumerate(taken, m).values()
        if {chi_vertex.of(v) for v in values} != {w.color_vertex}:
            return False
        if eta is not None and len({eta.of(e) for e in edges}) != 1:
            return False
    if chain is not None:
        for i, b in enumerate(w.terms, start=1):
            if not chain.set_at(i)(b):
                return False
    return True


def sorted_key(edge: frozenset):
    # frozenset elements only order partially, so sort by canonical bytes
    return tuple(sorted(canonical_key(v) for v in edge))


# ---------------------------------------------------------------------------
# Schur-type thresholds
# ---------------------------------------------------------------------------

@dataclass
class ThresholdReport:
    found: bool
    n: Optional[int]
    avoider: Optional[dict]          # coloring of {1..n-1} with no mono triple
    nodes: int
    confirmed_independent: bool = False
    note: str = ""


def _has_mono_triple(colors: dict, n: int, allow_repeats: bool) -> bool:
    for x in range(1, n + 1):
        y_start = x if allow_repeats else x + 1
        for y in range(y_start, n - x + 1):
            if colors[x] == colors[y] == colors[x + y]:
                return True
    return False


def _lex_first_avoider(k: int, max_value: int, allow_repeats: bool,
                       nodes: _NodeBudget) -> tuple[int, Optional[dict]]:
    """One depth-first pass over the k-colorings of 1, 2, 3, ... in
    lexicographic order.  Returns ``(depth, avoider)``: the deepest n
    reached and the coloring of {1..n} held when the pass first got there,
    which is the lexicographically least avoider of {1..n}.

    The pass stops at ``max_value`` or when the budget runs out; otherwise
    it has exhausted the tree, so no avoider of {1..depth + 1} exists.

    Colors are broken symmetrically: value v may take a new color only if
    every lower color is already in use.  The least avoider satisfies this
    (swapping two color names would make it smaller otherwise), so the
    result is the least avoider among all colorings.
    """
    mask = [0] * (k + 1)        # mask[c]: bit v set when v has color c
    forb = [0] * (k + 1)        # forb[c]: bit z set when z = x + y, x, y in c
    colors = [0] * (max_value + 2)
    saved = [0] * (max_value + 2)   # forb[colors[v]] before v was colored
    in_use = [0] * (max_value + 2)  # colors used by 1..v-1
    depth, avoider = 0, None
    v = 1 if max_value else 0
    while v:
        c = colors[v]
        if c:  # undo v's color before trying the next one
            mask[c] ^= 1 << v
            forb[c] = saved[v]
        top = min(k, in_use[v] + 1)
        c += 1
        while c <= top:
            if not nodes.spend():
                return depth, avoider
            if not forb[c] >> v & 1:
                break
            c += 1
        if c > top:
            colors[v] = 0
            v -= 1
            continue
        colors[v] = c
        saved[v] = forb[c]
        forb[c] |= mask[c] << v
        if allow_repeats:
            forb[c] |= 1 << (2 * v)
        mask[c] |= 1 << v
        if v > depth:
            depth, avoider = v, {i: colors[i] for i in range(1, v + 1)}
            if v == max_value:
                return depth, avoider
        in_use[v + 1] = max(in_use[v], c)
        v += 1
    return depth, avoider


def _avoider_exists_fc(k: int, n: int, allow_repeats: bool,
                       nodes: _NodeBudget) -> Optional[bool]:
    """Second, structurally different enumerator: forward checking over
    per-value color domains (bit c - 1 of ``dom[v]`` set while v may still
    take color c), branching on the unassigned value with the fewest colors
    left.  Only color(1) = 1 is fixed.  True if some k-coloring of {1..n}
    avoids every monochromatic {x, y, x+y}, False if none does, None if
    the node budget ran out first."""
    same = [0] * k      # same[c]: bit u set when u has color c + 1
    mirror = [0] * k    # mirror[c]: bit n - u set when u has color c + 1

    def search(dom: list, free: int) -> Optional[bool]:
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
        free ^= 1 << v
        choices = dom[v]
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
                continue
            same[c] |= 1 << v
            mirror[c] |= 1 << (n - v)
            out = search(child, free)
            same[c] ^= 1 << v
            mirror[c] ^= 1 << (n - v)
            if out is not False:
                return out
        return False

    dom = [(1 << k) - 1] * (n + 1)
    dom[1] = 1
    return search(dom, (1 << (n + 1)) - 2)


def threshold_search(k: int, m: int = 2, allow_repeats: bool = True,
                     budget: Optional[SearchBudget] = None) -> ThresholdReport:
    """Least N such that every k-coloring of {1..N} has a monochromatic
    {x, y, x+y} (x = y only when repeats are allowed), plus the least
    avoiding coloring of {1..N-1} in lexicographic order.

    One depth-first pass over 1, 2, ... up to ``budget.max_value`` finds
    both: it records the first avoider at each depth, and when it exhausts
    the tree at depth N - 1, N is the threshold.  A second enumerator,
    forward checking over color domains with its own node budget, then
    confirms that {1..N} has no avoider, and the avoider of {1..N-1} is
    rechecked triple by triple; ``confirmed_independent`` is set only when
    both hold, and ``note`` says which did not.  ``nodes`` counts both
    enumerators.
    """
    if m != 2:
        raise ValueError("threshold_search handles the pair form (m = 2)")
    if k < 1:
        raise ValueError("k >= 1 required")
    budget = budget or SearchBudget(max_value=64)
    nodes = _NodeBudget(budget.node_limit)
    depth, avoider = _lex_first_avoider(k, budget.max_value, allow_repeats, nodes)
    if depth == budget.max_value:
        return ThresholdReport(False, None, avoider, nodes.used,
                               note=f"no threshold within {budget.max_value}")
    if nodes.used > nodes.limit:
        return ThresholdReport(False, None, avoider, nodes.used,
                               note=f"budget exhausted at N={depth + 1}; "
                                    f"threshold > {depth}")
    n = depth + 1
    confirm = _NodeBudget(budget.node_limit)
    exists = _avoider_exists_fc(k, n, allow_repeats, confirm)
    if exists is None:
        note = f"confirmation budget of {confirm.limit} nodes exhausted at N={n}"
    elif exists:
        note = f"the second enumerator found an avoider of {{1..{n}}}"
    elif _has_mono_triple(avoider, depth, allow_repeats):
        note = f"the avoider of {{1..{depth}}} has a monochromatic triple"
    else:
        note = ""
    return ThresholdReport(True, n, avoider, nodes.used + confirm.used,
                           confirmed_independent=not note, note=note)


# ---------------------------------------------------------------------------
# proper-or-collapse dichotomy
# ---------------------------------------------------------------------------

def proper_or_collapse(seq: ElementSequence, depth: int,
                       budget: Optional[SearchBudget] = None):
    """Either a block sequence inducing a proper sumsequence, or a collapse
    element e with e + e = e: the cardinality pair coloring decides which.

    Searches block chains of length min(3, depth) inside {1..depth}; a
    color-1 (all sums equal) chain is only accepted once e + e = e checks
    out, so returned collapse certificates always verify.
    """
    budget = budget or SearchBudget(max_index=depth)
    m = min(3, depth)
    if m < 2:
        raise ValueError("dichotomy needs depth >= 2")
    card = cardinality_coloring(2)
    sg = seq.semigroup
    nodes = _NodeBudget(budget.node_limit)
    complete = True

    def extend(blocks: list):
        nonlocal complete
        if not nodes.spend():
            complete = False
            return None
        taken = [indexed_sum(seq, F) for F in blocks]
        n = len(blocks)
        tseq = ElementSequence.from_terms(sg, taken)
        sums = fs_enumerate(tseq, n)
        colors = {card.of_set(frozenset({sums[F], sums[H]}))
                  for F, H in block_chains(n, 2)}
        if len(colors) > 1:
            return "prune"
        if n == m:
            bseq = BlockSequence(tuple(blocks))
            if colors == {2}:
                if is_proper_up_to(tseq, m):
                    return Proper(blocks=bseq, terms=tuple(taken))
                return "prune"
            if colors == {1}:
                e = taken[0]
                if all(t == e for t in taken) and sg.combine(e, e) == e:
                    return Collapse(element=e, blocks=bseq)
                return "prune"
            return "prune"
        lo = (max(blocks[-1]) + 1) if blocks else 1
        for F in _candidate_blocks(lo, depth - (m - n - 1)):
            out = extend(blocks + [F])
            if out is None or isinstance(out, (Proper, Collapse)):
                return out
        return "prune"

    out = extend([])
    if isinstance(out, (Proper, Collapse)):
        return out
    return DichotomyUnknown(nodes=nodes.used, complete=complete)


def verify_dichotomy(result, seq: ElementSequence) -> bool:
    """Re-verify a dichotomy certificate against the original sequence."""
    sg = seq.semigroup
    if isinstance(result, Proper):
        taken = take_sumsequence(seq, result.blocks)
        return (tuple(taken.prefix(len(result.blocks))) == result.terms
                and is_proper_up_to(taken, len(result.blocks)))
    if isinstance(result, Collapse):
        taken = take_sumsequence(seq, result.blocks)
        vals = set(fs_enumerate(taken, len(result.blocks)).values())
        return vals == {result.element} and sg.combine(result.element, result.element) == result.element
    return isinstance(result, DichotomyUnknown)


# ---------------------------------------------------------------------------
# shared driver
# ---------------------------------------------------------------------------

def _run_split(first_choices, explore: Callable, budget: SearchBudget, key,
               witness_type: type = Witness):
    """Run the search sequentially, or split on the first choice across a
    thread pool and merge deterministically by taking the least witness."""
    if budget.parallelism <= 1:
        nodes = _NodeBudget(budget.node_limit)
        for choice in first_choices:
            out = explore(choice, nodes)
            if isinstance(out, witness_type):
                return out
            if out is None:
                return Exhausted(False, nodes.used, "node budget exhausted")
        return Exhausted(True, nodes.used)

    choices = list(first_choices)
    share = max(1, budget.node_limit // max(1, len(choices)))
    budgets = [_NodeBudget(share) for _ in choices]
    with ThreadPoolExecutor(max_workers=budget.parallelism) as pool:
        outs = list(pool.map(lambda cb: explore(cb[0], cb[1]), zip(choices, budgets)))
    nodes = sum(b.used for b in budgets)
    witnesses = [o for o in outs if isinstance(o, witness_type)]
    if witnesses:
        return min(witnesses, key=key)
    if any(o is None for o in outs):
        return Exhausted(False, nodes, "node budget exhausted in some branch")
    return Exhausted(True, nodes)
