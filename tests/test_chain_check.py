"""chain_check and the idempotence check of a chain against the uncached
checks they replaced, the number of sample lists and memberships
chain_check asks the chain for, fs-tails chains at windows past the
membership window, and fs-tails membership against the block search it
replaced."""
import collections
import dataclasses
import hashlib
import shlex
from typing import Optional

import pytest

from sumgames import cli
from sumgames.filters import (
    ChainReport,
    SymbolicChain,
    chain_check,
    fs_tail_chain,
    is_idempotent_filter,
)
from sumgames.semigroups import ElementSequence, finite_sets, fs_enumerate, naturals
from sumgames.verdicts import Verdict, all_verdicts

NAT = naturals()
FIN = finite_sets()


def reference_chain_check(chain: SymbolicChain, depth: int, window: int = 6) -> ChainReport:
    """The reference check: every sample list and every membership asked of
    the chain each time it is needed.  Verifies a symbolic chain up to the
    given depth: descension and freeness on samples, and the elementwise
    idempotence condition: for every n there is m > n such that each
    sampled a in A_m has k > m with a + A_k ⊆ A_m."""
    descending_failures = []
    for n in range(1, depth + 1):
        pred_n = chain.set_at(n)
        for x in chain.members_within(n + 1, window):
            if not pred_n(x):
                descending_failures.append((n, x))

    freeness_failures = []
    for x in chain.members_within(1, window):
        n = chain.exclusion_index(x)
        if n is None:
            freeness_failures.append((x, None))
        elif chain.set_at(n)(x):
            freeness_failures.append((x, n))

    idem_m: dict = {}
    self_absorbing: dict = {}

    def absorbs(m: int) -> bool:
        if m in self_absorbing:
            return self_absorbing[m]
        pred_m = chain.set_at(m)
        sampled = chain.members_within(m, window)
        ok = bool(sampled)
        for a in sampled:
            k_found = None
            for k in range(m + 1, m + window + 2):
                cs = chain.members_within(k, window)
                if cs and all(pred_m(chain.semigroup.combine(a, c)) for c in cs):
                    k_found = k
                    break
            if k_found is None:
                ok = False
                break
        self_absorbing[m] = ok
        return ok

    idem_verdicts = []
    for n in range(1, depth + 1):
        level_verdict = Verdict.UNKNOWN
        for m in range(n + 1, depth + 2):
            if absorbs(m):
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


def _pow2():
    return ElementSequence.from_fn(NAT, lambda i: 2 ** (i - 1))


def _singletons():
    return ElementSequence.from_fn(finite_sets(), lambda i: frozenset({i}))


def _short():
    # shorter than the samples of every window from 4 on
    return ElementSequence.from_terms(NAT, [1, 2, 4])


CHAINS = {
    "fs-tails-pow2": lambda: fs_tail_chain(_pow2()),
    "fs-tails-singletons": lambda: fs_tail_chain(_singletons()),
    "fs-tails-short": lambda: fs_tail_chain(_short()),
    "ap": lambda: cli._chain_from_name("ap", cli._DENSITY_DELTA),
    "density": lambda: cli._chain_from_name("density", cli._DENSITY_DELTA),
    # A_n = the evens for every n: fails freeness
    "constant": lambda: SymbolicChain(
        NAT, lambda n: lambda x: x % 2 == 0, lambda x: None,
        lambda n, bound: list(range(2, bound + 1, 2)), name="constant"),
}


@pytest.mark.parametrize("name", list(CHAINS))
def test_chain_check_matches_reference(name):
    chain = CHAINS[name]()
    for window in range(1, 8):
        for depth in range(1, 5):
            assert (dataclasses.asdict(chain_check(chain, depth, window))
                    == dataclasses.asdict(reference_chain_check(chain, depth, window))), \
                (window, depth)


def reference_is_idempotent_chain(chain: SymbolicChain, depth: int, window: int) -> Verdict:
    """The reference idempotence check of a chain, with nothing cached: each
    sampled link A_n must have its star contain all sampled members of some
    link A_m, m up to depth + 1."""
    verdicts = []
    for n in range(1, depth + 1):
        pred_n = chain.set_at(n)
        best = Verdict.UNKNOWN
        for m in range(n + 1, depth + 2):
            sampled = chain.members_within(m, window)
            if not sampled:
                continue
            # star(A_n) contains A_m when each sampled a in A_m has some
            # link A_k with a + A_k ⊆ A_n
            ok = True
            for a in sampled:
                if not any(
                    cs and all(pred_n(chain.semigroup.combine(a, c)) for c in cs)
                    for cs in (chain.members_within(k, window)
                               for k in range(m + 1, m + window + 2))):
                    ok = False
                    break
            if ok:
                best = Verdict.HOLDS
                break
        verdicts.append(best)
    return all_verdicts(verdicts)


@pytest.mark.parametrize("name", list(CHAINS))
def test_is_idempotent_filter_matches_reference(name):
    chain = CHAINS[name]()
    for window in range(2, 7):
        for depth in range(1, 6):
            assert (is_idempotent_filter(chain, chain.semigroup, depth, window)
                    is reference_is_idempotent_chain(chain, depth, window)), (window, depth)


@pytest.mark.parametrize("name", ["fs-tails-pow2", "fs-tails-singletons", "density"])
def test_chain_check_asks_each_sample_and_membership_once(name):
    chain = CHAINS[name]()
    memberships, samples = collections.Counter(), collections.Counter()

    def set_at(n):
        def pred(x):
            memberships[(n, x)] += 1
            return chain.set_at(n)(x)
        return pred

    def members_within(n, bound):
        samples[(n, bound)] += 1
        return chain.members_within(n, bound)

    counted = dataclasses.replace(chain, set_at=set_at, members_within=members_within)
    report = chain_check(counted, depth=3, window=4)
    assert dataclasses.asdict(report) == dataclasses.asdict(chain_check(chain, 3, 4))
    assert max(memberships.values()) == 1 and max(samples.values()) == 1


@pytest.mark.parametrize("base", [_pow2, _singletons, _short], ids=["pow2", "singletons", "short"])
def test_fs_tails_never_fail_at_any_window(base):
    # samples of A_{n+1} once reached a_{n+8}, one index past the
    # 8-index window that decides membership in A_n, and every window
    # from 8 on reported 384 descension failures
    chain = fs_tail_chain(base())
    for window in range(1, 13):
        for depth in range(1, 5):
            report = chain_check(chain, depth, window)
            assert report.verdict is not Verdict.FAILS, (window, depth)
            assert not report.descending_failures and not report.freeness_failures


def reference_fs_tail_chain(seq: ElementSequence, index_window: int = 8) -> SymbolicChain:
    """The reference fs-tails chain: membership in A_n decided by a
    depth-first search for a block of {n .. n + index_window - 1}, cut at
    the last term of a finite sequence, whose sum is x; a partial sum that
    exceeds x (naturals) or is no subset of it (unions) is not extended.
    Every question runs its own search."""
    sg = seq.semigroup

    def window_end(n: int) -> int:
        # one past the last index the window reads
        end = n + index_window
        return end if seq.length is None else min(end, seq.length + 1)

    def cannot_extend(partial, x) -> bool:
        if isinstance(partial, int) and isinstance(x, int):
            return partial > x
        if isinstance(partial, frozenset) and isinstance(x, frozenset):
            return not partial <= x
        return False

    def member(n: int, x) -> bool:
        def dfs(i_pos: int, partial) -> bool:
            if partial is not None:
                if partial == x:
                    return True
                if cannot_extend(partial, x):
                    return False
            for j_pos in range(i_pos, window_end(n)):
                term = seq.term(j_pos)
                nxt = term if partial is None else sg.combine(partial, term)
                if dfs(j_pos + 1, nxt):
                    return True
            return False

        return dfs(n, None)

    def exclusion_index(x) -> Optional[int]:
        for n in range(1, index_window * 2 + 2):
            if not member(n, x):
                return n
        return None

    def members_within(n: int, bound: int) -> list:
        w = min(bound, index_window - 1, window_end(n) - n)
        sums = fs_enumerate(
            ElementSequence.from_fn(sg, lambda i, _n=n: seq.term(_n + i - 1)), w)
        seen, out = set(), []
        for F in sorted(sums, key=lambda F: (len(F), tuple(sorted(F)))):
            v = sums[F]
            if v not in seen:
                seen.add(v)
                out.append(v)
        return out

    return SymbolicChain(sg, lambda n: lambda x, _n=n: member(_n, x), exclusion_index,
                         members_within, name="fs-tails")


def _constant_one():
    # improper: every finite sum is {1}
    return ElementSequence.from_fn(FIN, lambda i: frozenset({1}))


_TAIL_CASES = ([(base, w) for base in (_pow2, _singletons, _short) for w in range(1, 9)]
               + [(_constant_one, 4)])


def _probes(seq: ElementSequence, window: int) -> list:
    """Every window sum of A_1 .. A_3, then an empty sum, a value of the
    other semigroup and, where the sequence has a term past A_1's window,
    the sum a_1 + a_{window+1}."""
    probes = set()
    for n in range(1, 4):
        width = window if seq.length is None else min(window, seq.length + 1 - n)
        tail = ElementSequence.from_fn(seq.semigroup, lambda i, _n=n: seq.term(_n + i - 1))
        probes.update(fs_enumerate(tail, width).values())
    if seq.semigroup.kind == NAT.kind:
        probes, extra = sorted(probes), [0, frozenset({1})]
    else:
        probes, extra = sorted(probes, key=sorted), [frozenset(), 1]
    if seq.length is None or window < seq.length:
        extra.append(seq.semigroup.combine(seq.term(1), seq.term(window + 1)))
    return probes + extra


@pytest.mark.parametrize("base, window", _TAIL_CASES,
                         ids=[f"{b.__name__.strip('_')}-w{w}" for b, w in _TAIL_CASES])
def test_fs_tail_chain_matches_block_search(base, window):
    chain = fs_tail_chain(base(), index_window=window)
    ref = reference_fs_tail_chain(base(), index_window=window)
    probes = _probes(base(), window)
    for n in range(1, 2 * window + 2):
        held, ref_held = chain.set_at(n), ref.set_at(n)
        assert [held(x) for x in probes] == [ref_held(x) for x in probes], n
        for bound in range(1, window + 2):
            assert chain.members_within(n, bound) == ref.members_within(n, bound), (n, bound)
    assert ([chain.exclusion_index(x) for x in probes]
            == [ref.exclusion_index(x) for x in probes])


@pytest.mark.parametrize("base", [_pow2, _singletons], ids=["pow2", "singletons"])
def test_fs_tail_chain_builds_each_link_once(base):
    # a search per membership question would combine terms on every question
    seq, calls = base(), []

    def combine(a, b):
        calls.append(1)
        return seq.semigroup.combine(a, b)

    counted = dataclasses.replace(seq.semigroup, combine=combine)
    chain = fs_tail_chain(ElementSequence.from_fn(counted, seq.term))
    sums = chain.members_within(1, 7)        # the sums over {1..7}
    per_link = 2 ** 8 - 1 - 8                # combines that enumerate 8 terms
    calls.clear()
    assert chain.set_at(2)(sums[1]) and len(calls) == per_link
    assert [chain.set_at(2)(x) for x in sums].count(False) == 2 ** 6
    assert len(calls) == per_link
    # the sum over F leaves at A_{min(F)+1}: A_1 .. A_8, each built once
    for _ in range(2):
        assert {chain.exclusion_index(x) for x in sums} == set(range(2, 9))
    assert len(calls) == 8 * per_link


# Reports of the ap and density chains over a grid of depths, windows and
# deltas, as sha256 digests (first 16 hex digits) of the command's stdout
# and stderr.  They pin the chains' samples, memberships and exclusion
# indices end to end; density at delta 9/10 and depth 62 is a config error
# that names chain-check.delta and the depth.
CHAIN_CHECK_GRID = [
    *(f"--chain {chain} --depth {depth} --window {window}"
      for chain in ("ap", "density") for depth in (1, 4, 12, 62) for window in (1, 4, 32)),
    *(f"--chain density --delta {delta} --depth {depth} --window 4"
      for delta in ("1/10", "1/2", "9/10") for depth in (3, 62)),
]
SEARCH_MT = "search-mt --semigroup finite-sets --base singletons --d 2"
SEARCH_MT_GRID = [
    f"--chain {chain} --m {m} --max-index {max_index} --seed {seed} --edge-coloring {coloring}"
    for chain in ("ap", "density") for m in (2, 3, 4) for max_index in (6, 12)
    for seed in (0, 1)
    for coloring in ("constant", "seeded-hash-k:2")
]


def report_digests(command: str, grid: list, capsys) -> dict:
    out = {}
    for args in grid:
        code = cli.main(shlex.split(f"{command} {args}"))
        stdout, stderr = capsys.readouterr()
        out[args] = (code, hashlib.sha256((stdout + stderr).encode()).hexdigest()[:16])
    return out


PINNED_CHAIN_CHECK = {
    "--chain ap --depth 1 --window 1": (0, "fee75147853e4e26"),
    "--chain ap --depth 1 --window 4": (0, "de9e90f02085b4dc"),
    "--chain ap --depth 1 --window 32": (0, "77af7c41f6d07700"),
    "--chain ap --depth 4 --window 1": (0, "064d4ae7867f885c"),
    "--chain ap --depth 4 --window 4": (0, "dc4d5587debfc986"),
    "--chain ap --depth 4 --window 32": (0, "c2f6729c647f9f8a"),
    "--chain ap --depth 12 --window 1": (0, "947890edab5d9fdc"),
    "--chain ap --depth 12 --window 4": (0, "c6bb9e5c0e699d64"),
    "--chain ap --depth 12 --window 32": (0, "6f5420baeb8861de"),
    "--chain ap --depth 62 --window 1": (0, "46563c1737dbea86"),
    "--chain ap --depth 62 --window 4": (0, "124992330b7157e0"),
    "--chain ap --depth 62 --window 32": (0, "d0cee2d15473e42c"),
    "--chain density --depth 1 --window 1": (0, "8d803908ee9dd537"),
    "--chain density --depth 1 --window 4": (0, "53ab7e48965911cf"),
    "--chain density --depth 1 --window 32": (0, "aec0d9a59e1d5d12"),
    "--chain density --depth 4 --window 1": (0, "2525515d4c900645"),
    "--chain density --depth 4 --window 4": (0, "2323aef46761f631"),
    "--chain density --depth 4 --window 32": (0, "8f2904f69394ffb2"),
    "--chain density --depth 12 --window 1": (0, "29fdce8aa07266ce"),
    "--chain density --depth 12 --window 4": (0, "48780b499fd2af67"),
    "--chain density --depth 12 --window 32": (0, "6d95cb2278547389"),
    "--chain density --depth 62 --window 1": (0, "849ab627856ddb98"),
    "--chain density --depth 62 --window 4": (0, "5094258d902cd1f4"),
    "--chain density --depth 62 --window 32": (0, "ccd387a09f2b6891"),
    "--chain density --delta 1/10 --depth 3 --window 4": (0, "bfa30d6e318aaa82"),
    "--chain density --delta 1/10 --depth 62 --window 4": (0, "012f436a148ab37c"),
    "--chain density --delta 1/2 --depth 3 --window 4": (0, "c69d1b0200760cab"),
    "--chain density --delta 1/2 --depth 62 --window 4": (0, "b43e447b3f4d8f38"),
    "--chain density --delta 9/10 --depth 3 --window 4": (0, "200b1069b4767a16"),
    "--chain density --delta 9/10 --depth 62 --window 4": (3, "e7aa7b702cc1a6d8"),
}

PINNED_SEARCH_MT = {
    "--chain ap --m 2 --max-index 6 --seed 0 --edge-coloring constant": (0, "152a9dd1bd585db8"),
    "--chain ap --m 2 --max-index 6 --seed 0 --edge-coloring seeded-hash-k:2": (0, "272250d2e9279eec"),
    "--chain ap --m 2 --max-index 6 --seed 1 --edge-coloring constant": (0, "f866f5a8d8ec8a8c"),
    "--chain ap --m 2 --max-index 6 --seed 1 --edge-coloring seeded-hash-k:2": (0, "691833e62d1b851d"),
    "--chain ap --m 2 --max-index 12 --seed 0 --edge-coloring constant": (0, "917b7f92c2397095"),
    "--chain ap --m 2 --max-index 12 --seed 0 --edge-coloring seeded-hash-k:2": (0, "d677b035da55a493"),
    "--chain ap --m 2 --max-index 12 --seed 1 --edge-coloring constant": (0, "dfdd776e5b6480d2"),
    "--chain ap --m 2 --max-index 12 --seed 1 --edge-coloring seeded-hash-k:2": (0, "2116bf40fcc3a71a"),
    "--chain ap --m 3 --max-index 6 --seed 0 --edge-coloring constant": (0, "a4c824c64519a1e0"),
    "--chain ap --m 3 --max-index 6 --seed 0 --edge-coloring seeded-hash-k:2": (1, "8a8908bf31528e45"),
    "--chain ap --m 3 --max-index 6 --seed 1 --edge-coloring constant": (0, "1e488307d6cdf1ce"),
    "--chain ap --m 3 --max-index 6 --seed 1 --edge-coloring seeded-hash-k:2": (1, "4d35bb34467b9a75"),
    "--chain ap --m 3 --max-index 12 --seed 0 --edge-coloring constant": (0, "de5eb13c29692f98"),
    "--chain ap --m 3 --max-index 12 --seed 0 --edge-coloring seeded-hash-k:2": (0, "d16074dc90985bf8"),
    "--chain ap --m 3 --max-index 12 --seed 1 --edge-coloring constant": (0, "017c4d6e14df7d0c"),
    "--chain ap --m 3 --max-index 12 --seed 1 --edge-coloring seeded-hash-k:2": (0, "d0b5cfc8976fbf24"),
    "--chain ap --m 4 --max-index 6 --seed 0 --edge-coloring constant": (1, "88a90e52b5c92359"),
    "--chain ap --m 4 --max-index 6 --seed 0 --edge-coloring seeded-hash-k:2": (1, "dbda0604f7088d8d"),
    "--chain ap --m 4 --max-index 6 --seed 1 --edge-coloring constant": (1, "d0bc5c0fb1afdad6"),
    "--chain ap --m 4 --max-index 6 --seed 1 --edge-coloring seeded-hash-k:2": (1, "fef696c29311055e"),
    "--chain ap --m 4 --max-index 12 --seed 0 --edge-coloring constant": (0, "c54ece5980eac166"),
    "--chain ap --m 4 --max-index 12 --seed 0 --edge-coloring seeded-hash-k:2": (1, "01777a6424960783"),
    "--chain ap --m 4 --max-index 12 --seed 1 --edge-coloring constant": (0, "118b851a63f65821"),
    "--chain ap --m 4 --max-index 12 --seed 1 --edge-coloring seeded-hash-k:2": (1, "173bbaaefb93cb39"),
    "--chain density --m 2 --max-index 6 --seed 0 --edge-coloring constant": (0, "559dff43f5529995"),
    "--chain density --m 2 --max-index 6 --seed 0 --edge-coloring seeded-hash-k:2": (0, "1fddde701d15b4ba"),
    "--chain density --m 2 --max-index 6 --seed 1 --edge-coloring constant": (0, "e01b78015459f432"),
    "--chain density --m 2 --max-index 6 --seed 1 --edge-coloring seeded-hash-k:2": (0, "5c0f6d2227d81012"),
    "--chain density --m 2 --max-index 12 --seed 0 --edge-coloring constant": (0, "07f16a45e7c0f403"),
    "--chain density --m 2 --max-index 12 --seed 0 --edge-coloring seeded-hash-k:2": (0, "d250c1b88bfc04b2"),
    "--chain density --m 2 --max-index 12 --seed 1 --edge-coloring constant": (0, "f67f6751bad82bc8"),
    "--chain density --m 2 --max-index 12 --seed 1 --edge-coloring seeded-hash-k:2": (0, "422106bdc72dca92"),
    "--chain density --m 3 --max-index 6 --seed 0 --edge-coloring constant": (0, "44f34651b268e2f6"),
    "--chain density --m 3 --max-index 6 --seed 0 --edge-coloring seeded-hash-k:2": (0, "e7485c93b6471a4f"),
    "--chain density --m 3 --max-index 6 --seed 1 --edge-coloring constant": (0, "51a8f22691db0460"),
    "--chain density --m 3 --max-index 6 --seed 1 --edge-coloring seeded-hash-k:2": (0, "b0b51d0cf6894ea5"),
    "--chain density --m 3 --max-index 12 --seed 0 --edge-coloring constant": (0, "43168893f7ea32f3"),
    "--chain density --m 3 --max-index 12 --seed 0 --edge-coloring seeded-hash-k:2": (0, "875f4318df1fc505"),
    "--chain density --m 3 --max-index 12 --seed 1 --edge-coloring constant": (0, "5887a544309a7bc7"),
    "--chain density --m 3 --max-index 12 --seed 1 --edge-coloring seeded-hash-k:2": (0, "b37145615d84ff16"),
    "--chain density --m 4 --max-index 6 --seed 0 --edge-coloring constant": (0, "cd0bcb036f55a56a"),
    "--chain density --m 4 --max-index 6 --seed 0 --edge-coloring seeded-hash-k:2": (1, "a6b86df78a2e9290"),
    "--chain density --m 4 --max-index 6 --seed 1 --edge-coloring constant": (0, "c9cf14eea88376be"),
    "--chain density --m 4 --max-index 6 --seed 1 --edge-coloring seeded-hash-k:2": (1, "1d353c79c1c4d4f8"),
    "--chain density --m 4 --max-index 12 --seed 0 --edge-coloring constant": (0, "30338ae04c11570d"),
    "--chain density --m 4 --max-index 12 --seed 0 --edge-coloring seeded-hash-k:2": (1, "8b0954fea29385aa"),
    "--chain density --m 4 --max-index 12 --seed 1 --edge-coloring constant": (0, "36c4c1e88e8421cb"),
    "--chain density --m 4 --max-index 12 --seed 1 --edge-coloring seeded-hash-k:2": (1, "76bbe0a432770ddd"),
}


def test_chain_check_reports_are_pinned(capsys):
    assert report_digests("chain-check", CHAIN_CHECK_GRID, capsys) == PINNED_CHAIN_CHECK


def test_search_mt_chain_reports_are_pinned(capsys):
    assert report_digests(SEARCH_MT, SEARCH_MT_GRID, capsys) == PINNED_SEARCH_MT
