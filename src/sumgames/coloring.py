"""Finite colorings of elements, pairs and d-subsets, with the reduction
that moves coloring problems between dimensions.

A coloring of arity d is evaluated on the *set* of its d arguments, so a
pair whose endpoints coincide is seen as a singleton (this is what makes
the cardinality coloring the proper/collapse detector).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .semigroups import Semigroup


def canonical_key(x: Any) -> bytes:
    """Stable byte encoding of an element, for seeded hash colorings."""
    # the two common exact types first; a bool is not one, so it still
    # gets b"b:" from the ladder below
    if type(x) is int:
        return b"i:%d" % x
    if type(x) is frozenset:
        return _set_key({canonical_key(v) for v in x})
    if isinstance(x, bool):
        return b"b:%d" % int(x)
    if isinstance(x, int):
        return b"i:%d" % x
    if isinstance(x, str):
        return b"t:" + x.encode()
    if isinstance(x, (frozenset, set)):
        return _set_key({canonical_key(v) for v in x})
    if isinstance(x, tuple):
        return b"(" + b",".join(canonical_key(v) for v in x) + b")"
    # Last resort: objects that define their own stable key.
    key = getattr(x, "stable_key", None)
    if key is not None:
        return key() if callable(key) else key
    raise TypeError(f"no canonical encoding for {type(x).__name__}")


def _set_key(member_keys: set) -> bytes:
    """The canonical key of a set, from the set of its members' keys."""
    return b"s{" + b",".join(sorted(member_keys)) + b"}"


@dataclass(frozen=True, eq=False)
class Coloring:
    """Total finite-range function on d-element sets, range {1..k}.

    ``keyed``, when set, is ``fn`` as a function of the subject's
    ``canonical_key``: ``fn(s) == keyed(canonical_key(s))``.  It lets a
    caller that already holds its members' keys color the subject through
    ``of_keys`` without encoding the members again.

    A coloring compares and hashes by identity, as its ``fn`` does.
    """

    arity: int
    palette: int
    fn: Callable[[frozenset], int]
    name: str = ""
    keyed: Optional[Callable[[bytes], int]] = field(default=None, repr=False)

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity >= 1 required")
        if self.palette < 1:
            raise ValueError("palette size >= 1 required")

    def of_set(self, subject: frozenset) -> int:
        """Color of an already-assembled subject set (1..arity elements)."""
        if not 1 <= len(subject) <= self.arity:
            raise ValueError(f"expected 1..{self.arity} distinct elements, got {len(subject)}")
        c = self.fn(subject)
        if not 1 <= c <= self.palette:
            raise ValueError(f"color {c} outside palette 1..{self.palette}")
        return c

    def of_keys(self, member_keys: Iterable[bytes]) -> int:
        """``of_set`` of the subject whose members have the given canonical
        keys, for a coloring with ``keyed``.  A repeated key is one member,
        as a repeated element is in a set, so the arity check counts the
        distinct keys.  A set of keys is read as it is, not copied, so the
        kernel of the block searches hands over the set it collects."""
        parts = member_keys if type(member_keys) is set else set(member_keys)
        if not 1 <= len(parts) <= self.arity:
            raise ValueError(f"expected 1..{self.arity} distinct elements, got {len(parts)}")
        # _set_key(parts), inlined: this runs once per subject a search colors
        c = self.keyed(b"s{" + b",".join(sorted(parts)) + b"}")
        if not 1 <= c <= self.palette:
            raise ValueError(f"color {c} outside palette 1..{self.palette}")
        return c

    def of(self, *elements) -> int:
        """Color of the set of the given elements (at most arity many).

        A single frozenset argument to an arity > 1 coloring is taken as
        the subject set itself; for arity 1 it is the element.  Callers
        holding a pre-built subject set should use ``of_set``.
        """
        if len(elements) == 1 and isinstance(elements[0], frozenset) and self.arity > 1:
            return self.of_set(elements[0])
        return self.of_set(frozenset(elements))

    __call__ = of


def constant_coloring(d: int = 1, k: int = 1, color: int = 1) -> Coloring:
    if not 1 <= color <= k:
        raise ValueError(f"color {color} outside palette 1..{k}")
    return Coloring(d, k, lambda s: color, name=f"const-{color}")


def parity_coloring(d: int = 1) -> Coloring:
    """Color 1 for even, 2 for odd; for d > 1 the parity of the sum."""
    return Coloring(d, 2, lambda s: 1 + (sum(s) % 2), name="parity")


def mod_coloring(k: int, d: int = 1) -> Coloring:
    return Coloring(d, k, lambda s: 1 + (sum(s) % k), name=f"mod-{k}")


def cardinality_coloring(d: int) -> Coloring:
    """Colors a d-set by how many distinct elements it actually has.

    On pairs this is the proper/collapse detector: color 2 means the
    endpoints differ, color 1 means they collapsed.
    """
    return Coloring(d, d, len, name=f"cardinality-{d}")


def seeded_hash_coloring(k: int, seed: int, d: int = 1) -> Coloring:
    """Reproducible pseudo-random coloring driven by a single seed: the
    seed-keyed blake2b digest of the subject's ``canonical_key``, reduced
    mod k.  The keyed hash is set up once and copied for each subject."""
    prepared = hashlib.blake2b(key=b"%d" % seed, digest_size=8)

    def keyed(key: bytes) -> int:
        h = prepared.copy()
        h.update(key)
        return 1 + int.from_bytes(h.digest(), "big") % k

    return Coloring(d, k, lambda s: keyed(canonical_key(s)),
                    name=f"seeded-hash-{k}/{seed}", keyed=keyed)


def product_coloring(c1: Coloring, c2: Coloring) -> Coloring:
    """Pair coloring (c1, c2) encoded as (c1-1)*k2 + c2, palette k1*k2."""
    if c1.arity != c2.arity:
        raise ValueError(f"arity mismatch: {c1.arity} != {c2.arity}")
    k2 = c2.palette
    return Coloring(
        c1.arity,
        c1.palette * k2,
        lambda s: (c1.fn(s) - 1) * k2 + c2.fn(s),
        name=f"({c1.name} x {c2.name})",
    )


def reduce_two_dim_to_one(chi_vertex: Coloring, chi_edge: Coloring, sg: Semigroup) -> Coloring:
    """Collapse a vertex coloring and an edge coloring into one edge coloring.

    The first coordinate colors a pair by the vertex color of its
    enumeration-smaller endpoint; a sequence whose sum graph is
    monochromatic for the result then has (in the limit) a monochromatic
    finite-sums set and a monochromatic sum graph for the originals.
    """
    if chi_vertex.arity != 1:
        raise ValueError("vertex coloring must have arity 1")

    def kappa(s: frozenset) -> int:
        least = min(s, key=sg.rank)
        return chi_vertex.fn(frozenset([least]))

    kappa_coloring = Coloring(2, chi_vertex.palette, kappa, name=f"min[{chi_vertex.name}]")
    edge2 = chi_edge if chi_edge.arity == 2 else Coloring(2, chi_edge.palette, chi_edge.fn, chi_edge.name)
    return product_coloring(kappa_coloring, edge2)

