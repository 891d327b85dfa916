"""chain_check against the uncached check it replaced, the number of
sample lists and memberships it asks the chain for, and fs-tails chains
at windows past the membership window."""
import collections
import dataclasses

import pytest

from sumgames import cli
from sumgames.filters import (
    ChainReport,
    SymbolicChain,
    chain_check,
    constant_chain,
    fs_tail_chain,
)
from sumgames.semigroups import ElementSequence, finite_sets, naturals
from sumgames.verdicts import Verdict, all_verdicts

NAT = naturals()


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
    idem_k: dict = {}
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
            idem_k[(m, repr(a))] = k_found
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
    return ChainReport(verdict, descending_failures, freeness_failures, idem_m, idem_k, notes)


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
    "constant": lambda: constant_chain(NAT, lambda x: x % 2 == 0),
}


@pytest.mark.parametrize("name", list(CHAINS))
def test_chain_check_matches_reference(name):
    chain = CHAINS[name]()
    for window in range(1, 8):
        for depth in range(1, 5):
            assert (dataclasses.asdict(chain_check(chain, depth, window))
                    == dataclasses.asdict(reference_chain_check(chain, depth, window))), \
                (window, depth)


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

    counted = dataclasses.replace(chain, set_at=set_at, members_within_fn=members_within)
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
