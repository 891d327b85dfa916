"""Frozen slow references for the block-chain enumeration: the recursive,
sorting enumerator and the per-depth chain lists built from it, as they
were before both came from ``semigroups.chain_table``.  Tests compare the
live code against these, so they must not change with it."""
import itertools

from sumgames.semigroups import _mask, block_key


def blocks_within(n: int, lo: int = 1):
    """All nonempty blocks inside {lo..n}, in canonical (sorted-tuple) order."""
    universe = range(lo, n + 1)
    out = []
    for r in range(1, n - lo + 2):
        out.extend(frozenset(c) for c in itertools.combinations(universe, r))
    return iter(sorted(out, key=block_key))


def block_chains(n: int, d: int, lo: int = 1):
    """All chains F_1 < ... < F_d of blocks inside {lo..n}, canonical order."""
    if d == 0:
        yield ()
        return
    for F in blocks_within(n, lo):
        if d == 1:
            yield (F,)
        else:
            for rest in block_chains(n, d - 1, lo=max(F) + 1):
                yield (F,) + rest


def chains_ending_at(n: int, d: int) -> tuple:
    """``search._chains_ending_at(n, d)``: the head chains and the others
    of the new d-chains of a prefix of n terms, as list positions."""
    head, top = frozenset([n]), 1 << (n - 1)

    def positions(blocks) -> tuple:
        return tuple(_mask(F) - 1 for F in blocks)

    heads = tuple(map(positions, block_chains(n - 1, d - 1)))
    others = tuple((_mask(L) - top, positions(rest))
                   for L in blocks_within(n) if n in L and L != head
                   for rest in block_chains(min(L) - 1, d - 1))
    return heads, others
