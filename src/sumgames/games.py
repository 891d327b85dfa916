"""Two-player selection games: the referee, transcripts, judging, and the
two strategy-transfer constructions.

Alice plays a collection each inning (a set of points, or a cover); Bob
selects one element (single-selection game) or finitely many
(finite-selection game).  The referee validates every move against the
preceding Alice move, so accepted transcripts satisfy the containment
condition by construction.  Games are finite-horizon: a win verdict at
horizon H never claims the infinite-game outcome.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .covers import Cover, CoverKind, SSet, Space, classify_cover
from .verdicts import Verdict


class Mode(enum.Enum):
    G1 = "g1"      # Bob picks one element per inning
    GFIN = "gfin"  # Bob picks a finite subset per inning


@dataclass
class SetMove:
    """Alice plays a set of points."""

    sset: SSet

    def legal_pick(self, item) -> bool:
        return self.sset.contains(item)


@dataclass
class CoverMove:
    """Alice plays a cover, materialized as a prefix of member sets."""

    sets: tuple

    def legal_pick(self, item) -> bool:
        return any(item == s for s in self.sets)


@dataclass
class Round:
    alice: object
    bob: object  # a single item (G1) or a tuple of items (GFIN)


@dataclass
class IllegalMove:
    round_index: int
    offender: str
    reason: str


@dataclass
class GameTranscript:
    mode: Mode
    rounds: list = field(default_factory=list)
    illegal: Optional[IllegalMove] = None

    def selections(self) -> list:
        out = []
        for r in self.rounds:
            if self.mode is Mode.GFIN:
                out.extend(r.bob)
            else:
                out.append(r.bob)
        return out


@dataclass
class Strategy:
    """A deterministic move function.  Alice's sees the completed rounds;
    Bob's also sees Alice's current move."""

    side: str
    move: Callable

    def __post_init__(self):
        if self.side not in ("alice", "bob"):
            raise ValueError("side must be 'alice' or 'bob'")


def play(alice: Strategy, bob: Strategy, rounds: int, mode: Mode) -> GameTranscript:
    """Referee-validated play of the requested length."""
    t = GameTranscript(mode=mode)
    for idx in range(rounds):
        try:
            a_move = alice.move(t.rounds)
        except Exception as exc:  # a strategy crash is an illegal move
            t.illegal = IllegalMove(idx, "alice", f"strategy failure: {exc}")
            return t
        if not isinstance(a_move, (SetMove, CoverMove)):
            t.illegal = IllegalMove(idx, "alice", "move is not a SetMove/CoverMove")
            return t
        try:
            b_move = bob.move(t.rounds, a_move)
            # a finite selection that is not a collection of picks fails here
            picks = tuple(b_move) if mode is Mode.GFIN else (b_move,)
        except Exception as exc:
            t.illegal = IllegalMove(idx, "bob", f"strategy failure: {exc}")
            return t
        if not all(a_move.legal_pick(p) for p in picks):
            t.illegal = IllegalMove(idx, "bob", "selection outside Alice's move")
            return t
        t.rounds.append(Round(a_move, picks if mode is Mode.GFIN else b_move))
    return t


class Outcome(enum.Enum):
    BOB_WINS = "bob-wins"
    ALICE_WINS = "alice-wins"
    UNKNOWN = "unknown-at-depth"


def judge(t: GameTranscript, target, /, horizon: int, space: Optional[Space] = None,
          **params) -> Outcome:
    """Apply the target family to Bob's selection set.

    ``target`` is a CoverKind (selections must be sets; they are assembled
    into a cover and classified) or a predicate on the selection list
    returning bool or Verdict.  An illegal move loses for the offender.
    The transcript and target are positional-only, so ``params`` may hold
    the classifier's threshold ``t``.
    """
    if t.illegal is not None:
        return Outcome.ALICE_WINS if t.illegal.offender == "bob" else Outcome.BOB_WINS
    sel = t.selections()
    if not sel:
        return Outcome.ALICE_WINS
    if isinstance(target, CoverKind):
        if space is None:
            raise ValueError("judging a cover target needs the space")
        if not all(isinstance(s, SSet) for s in sel):
            raise TypeError("a cover target judges set selections; Bob selected points")
        # distinct sets only: a cover is a family
        cover = Cover(space, sets=list(dict.fromkeys(sel)), name="selections")
        verdict = classify_cover(cover, target, horizon, **params)
    else:
        verdict = target(sel)
        if isinstance(verdict, bool):
            verdict = Verdict.HOLDS if verdict else Verdict.FAILS
    if verdict is Verdict.HOLDS:
        return Outcome.BOB_WINS
    if verdict is Verdict.FAILS:
        return Outcome.ALICE_WINS
    return Outcome.UNKNOWN


# ---------------------------------------------------------------------------
# stock strategies
# ---------------------------------------------------------------------------

def scripted_alice(moves: Sequence) -> Strategy:
    """Plays the given moves in order, repeating the last one after."""
    moves = list(moves)

    def fn(history):
        i = min(len(history), len(moves) - 1)
        return moves[i]

    return Strategy("alice", fn)


def first_bob() -> Strategy:
    """Picks the least point (set moves) or the first member (cover moves)."""

    def fn(history, a_move):
        if isinstance(a_move, SetMove):
            return a_move.sset.least()
        return a_move.sets[0]

    return Strategy("bob", fn)


def filter_intersection_bob(generating_sets: Callable[[int], SSet]) -> Strategy:
    """The countably-generated-filter strategy: with the filter generated by
    descending sets B_1 ⊇ B_2 ⊇ ..., Bob answers Alice's dual-family set
    A_n with the least element of A_n ∩ B_n, so his selections meet every
    generator."""

    def fn(history, a_move):
        n = len(history) + 1
        both = a_move.sset.intersect(generating_sets(n))
        return both.least()

    return Strategy("bob", fn)


def meets_all_generators(generating_sets: Callable[[int], SSet],
                         horizon: int) -> Callable:
    """Judge target for the dual family at horizon: the selection set meets
    every generator B_1..B_horizon."""

    def pred(selections) -> bool:
        return all(any(generating_sets(n).contains(x) for x in selections)
                   for n in range(1, horizon + 1))

    return pred


# ---------------------------------------------------------------------------
# finite-selection -> single-selection strategy conversion
# ---------------------------------------------------------------------------

def _thin_ascending(sets: Sequence[SSet]) -> list:
    """Greedy strict-ascending subsequence (the proof's thinning)."""
    out: list = []
    for s in sets:
        if not out or out[-1].strict_subset(s):
            out.append(s)
    return out


def largest_of(picks: Sequence[SSet]) -> SSet:
    """The containment-largest of finitely many picks from one ascending
    cover (a chain, so size comparison decides)."""
    return max(picks, key=lambda s: s.size_key())


def convert_gfin_to_g1(alice_single: Strategy) -> Strategy:
    """The finite-selection Alice built from a single-selection Alice; the
    name reflects the game reduction (finite choices collapse to single
    ones before the inner strategy is consulted).

    Each inning the inner strategy's proposed cover is thinned to an
    ascending one and stripped of everything Bob already picked; when Bob
    picks several sets, only the largest is reported back to the inner
    strategy.  ``collapse_selections`` gives those largest picks for
    comparing the two plays.
    """
    if alice_single.side != "alice":
        raise ValueError("inner strategy must play Alice")

    def move(history) -> CoverMove:
        proposed = alice_single.move([Round(r.alice, largest_of(r.bob)) for r in history])
        if not isinstance(proposed, CoverMove):
            raise ValueError("conversion expects cover moves")
        chosen = {s for r in history for s in r.bob}
        remaining = [s for s in _thin_ascending(proposed.sets) if s not in chosen]
        if not remaining:
            raise ValueError("thinning removed every member; cover exhausted")
        return CoverMove(tuple(remaining))

    return Strategy("alice", move)


def collapse_selections(t: GameTranscript) -> list:
    """The largest pick of each inning of a finite-selection play: what the
    converted Alice reports back to her inner strategy."""
    return [largest_of(r.bob) for r in t.rounds if r.bob]


def point_multiplicity(sets: Sequence[SSet], points: Sequence) -> dict:
    return {p: sum(1 for s in sets if s.contains(p)) for p in points}


# ---------------------------------------------------------------------------
# the diagonal strategy-tree transfer
# ---------------------------------------------------------------------------

def _sigma_level(n: int) -> list:
    """All index sequences of length <= n over {1..n} (the empty sequence
    encodes Alice's opening cover)."""
    out = [()]
    level = [()]
    for _ in range(n):
        level = [s + (i,) for s in level for i in range(1, n + 1)]
        out.extend(level)
    return out


def diagonal_cover(tree: Callable[[tuple], Cover], n: int, space: Space) -> Cover:
    """The n-th diagonal cover: its m-th set is the intersection of the
    m-th sets of every tree cover at index sequences of length <= n over
    {1..n}.  Ascending when every tree cover is."""
    sigmas = _sigma_level(n)
    tree = functools.cache(tree)  # so each tree cover keeps the sets it built

    def set_at(m: int) -> SSet:
        acc = None
        for sigma in sigmas:
            cover = tree(sigma)
            if cover is None:
                raise KeyError(f"strategy tree gap at {sigma}")
            s = cover.set_at(m)
            acc = s if acc is None else acc.intersect(s)
        return acc

    return Cover(space, set_fn=set_at, name=f"diag-{n}")


@dataclass
class PlayReconstruction:
    picks: list            # (sigma, m_index, SSet) in pick order
    odd_play: list         # picked sets along the odd-path game
    even_play: list
    f_map: dict            # selection position j -> pick position i
    batch_sizes: dict      # pick position -> fiber bound from block lengths
    note: str = ""

    def f_is_finite_to_one(self) -> bool:
        fibers: dict = {}
        for j, i in self.f_map.items():
            fibers.setdefault(i, []).append(j)
        return all(len(v) <= self.batch_sizes[i] for i, v in fibers.items())

    def f_is_surjective(self) -> bool:
        return set(self.f_map.values()) == set(range(1, len(self.picks) + 1))


# the last index of a strategy's cover searched for a fresh pick
_COVER_BOUND = 32


def reconstruct_parallel_plays(tree: Callable[[tuple], Cover],
                               selections: Sequence[SSet]) -> PlayReconstruction:
    """Replay the two-plays construction from diagonal-cover selections.

    Step 1 picks a member of the opening cover containing the first
    selection; step i >= 2 picks, from the cover the strategy answers along
    the odd or even path, a fresh member containing the batch of selections
    between the previous two pick indices.  The batches tile the
    selections: step 1 absorbs selection 1, step 2 absorbs 2..m_1 and step
    i absorbs m_{i-2}+1..m_{i-1}.  So a selection is new, not a duplicate
    of an earlier set, exactly when it is the first occurrence of its value.
    Each new selection is assigned to the pick that absorbed its batch,
    which is the finite-to-one surjection of the construction; a batch
    with no new selection ends the replay.
    """
    V = list(selections)
    M = len(V)
    if M == 0:
        raise ValueError("no selections to reconstruct from")
    first: dict = {}
    for j, v in enumerate(V, start=1):
        first.setdefault(v, j)

    picks: list = []          # (sigma, m_index, sset) in pick order
    f_map: dict = {}
    batch_sizes: dict = {}
    absorbed = 0              # the selections 1..absorbed are in batches
    while True:
        step = len(picks) + 1
        if absorbed == M:
            note = f"selections exhausted before step {step}"
            break
        last = picks[-1][1] if picks else 1  # m_{i-1}; step 1 ends at selection 1
        batch = range(absorbed + 1, min(last, M) + 1)
        # the m-indices picked along this step's path, odd or even
        sigma = tuple(m for _, m, _ in picks[len(picks) % 2::2])
        cover = tree(sigma)
        if cover is None:
            raise KeyError(f"strategy tree gap at {sigma}")
        needed = functools.reduce(SSet.union, (V[j - 1] for j in batch))
        for m in range(last + 1, _COVER_BOUND + 1):
            u = cover.set_at(m)
            if needed.issubset(u) and all(u != p for _, _, p in picks):
                break
        else:
            note = f"no fresh containing member found at step {step}"
            break
        fiber = {j: step for j in batch if first[V[j - 1]] == j}
        if not fiber:
            note = f"no new selection in the batch at step {step}"
            break
        picks.append((sigma, m, u))
        f_map.update(fiber)
        batch_sizes[step] = len(batch)
        absorbed = batch[-1]

    if not picks:
        raise ValueError(
            "first selection does not refine the opening cover: " + note)
    return PlayReconstruction(
        picks=picks,
        odd_play=[p[2] for p in picks[0::2]],
        even_play=[p[2] for p in picks[1::2]],
        f_map=f_map,
        batch_sizes=batch_sizes,
        note=note,
    )


def diagonal_transfer(tree: Callable[[tuple], Cover], n: int, space: Space):
    """The n-th diagonal cover plus the extractor that rebuilds the two
    parallel plays from selections out of the diagonal covers."""
    cover = diagonal_cover(tree, n, space)

    def extractor(selections: Sequence[SSet]) -> PlayReconstruction:
        return reconstruct_parallel_plays(tree, selections)

    return cover, extractor
