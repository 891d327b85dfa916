"""Colorings, the product encoding, and the two-dim to one-dim reduction."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumgames.coloring import (
    Coloring,
    canonical_key,
    cardinality_coloring,
    constant_coloring,
    mod_coloring,
    parity_coloring,
    product_coloring,
    reduce_two_dim_to_one,
    seeded_hash_coloring,
)
from sumgames.covers import SSet
from sumgames.semigroups import (
    ElementSequence,
    block_chains,
    finite_sets,
    fs_enumerate,
    naturals,
    sum_hypergraph,
)

NAT = naturals()


def nat_seq(*terms):
    return ElementSequence.from_terms(NAT, terms)


def test_product_of_trivial_colorings_is_trivial():
    c = product_coloring(constant_coloring(1, 1), constant_coloring(1, 1))
    assert c.palette == 1
    assert c.of(17) == 1


def test_product_encoding_formula():
    c1 = constant_coloring(1, 2, color=2)
    c2 = constant_coloring(1, 3, color=3)
    c = product_coloring(c1, c2)
    assert c.palette == 6
    assert c.of(5) == 6  # (2-1)*3 + 3
    assert divmod(6 - 1, 3) == (2 - 1, 3 - 1)


def test_product_palette_squares():
    chi = parity_coloring()
    c = product_coloring(chi, chi)
    assert c.palette == chi.palette ** 2  # range representable as {1..k^2}


def test_product_arity_mismatch():
    with pytest.raises(ValueError):
        product_coloring(parity_coloring(1), cardinality_coloring(2))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 1000))
def test_product_roundtrip(k1, k2, x):
    c1 = mod_coloring(k1)
    c2 = mod_coloring(k2)
    c = product_coloring(c1, c2)
    assert divmod(c.of(x) - 1, k2) == (c1.of(x) - 1, c2.of(x) - 1)


def test_cardinality_coloring():
    c = cardinality_coloring(2)
    assert c.of(3, 3) == 1
    assert c.of(3, 4) == 2
    assert cardinality_coloring(1).of(99) == 1


def test_seeded_hash_coloring_is_stable_and_seeded():
    a = seeded_hash_coloring(3, seed=7, d=2)
    b = seeded_hash_coloring(3, seed=7, d=2)
    c = seeded_hash_coloring(3, seed=8, d=2)
    pair = (frozenset({1, 2}), frozenset({4}))
    assert a.of(*pair) == b.of(*pair)
    colors_a = [a.of(i, i + 1) for i in range(1, 40)]
    colors_c = [c.of(i, i + 1) for i in range(1, 40)]
    assert colors_a != colors_c
    assert set(colors_a) <= {1, 2, 3}


# Subjects by arity: ints, finite sets and cover unions (finite, cofinite
# and empty SSets), each arity with a subject whose repeated member leaves
# fewer distinct elements.
_PINNED_SUBJECTS = {
    1: [(0,), (7,), (frozenset({1, 2}),), (SSet.finite({2, 5}),)],
    2: [(1, 2), (3, 3), (frozenset({1}), frozenset({1, 2})),
        (frozenset({4}), frozenset({4})), (SSet.cofinite({2}), SSet.finite(()))],
    3: [(1, 2, 3), (5, 5, 6), (frozenset({1}), frozenset({2}), frozenset({1, 2})),
        (SSet.finite({1}), SSet.cofinite({3, 4}), SSet.finite({1}))],
}

# Colors recorded from the one-shot blake2b of each subject's canonical
# key.  With k = 2^64 a color is 1 + the whole 8-byte digest.  The colors
# of the cover unions were recorded when a union was colored through a
# wrapper that tagged its key "u:", which SSet.stable_key now carries.
_PINNED_COLORS = {
    (1, 2 ** 64, 0): [13497886511360789929, 883224033771040098,
                      8036132106499998744, 9857372631757525013],
    (1, 2 ** 64, 7): [14086592587047670246, 16624795421078394125,
                      15549625001343988107, 3764709807659051174],
    (1, 3, 11): [2, 2, 3, 3],
    (2, 2 ** 64, 0): [9756053930474291107, 1041201026910729238, 14294224937084540432,
                      9511531036507360782, 1206649727543628984],
    (2, 2 ** 64, 7): [6744857363710415945, 16534179885595071500, 5871204791939811555,
                      3508112761123862321, 11969251481037126779],
    (2, 3, 11): [2, 2, 1, 1, 3],
    (3, 2 ** 64, 0): [11121640973538028847, 7368573481353514243,
                      345628844687495554, 6083198460699684135],
    (3, 2 ** 64, 7): [1413916252626741815, 3684397607728151482,
                      430901976947518182, 13637883874498179336],
    (3, 3, 11): [1, 3, 3, 1],
}


@pytest.mark.parametrize("d, k, seed", sorted(_PINNED_COLORS))
def test_seeded_hash_colors_are_pinned(d, k, seed):
    chi = seeded_hash_coloring(k, seed, d)
    subjects = _PINNED_SUBJECTS[d]
    assert [chi.of(*s) for s in subjects] == _PINNED_COLORS[d, k, seed]
    # the keyed entry point gives the same colors from the members' keys
    assert [chi.of_keys([canonical_key(x) for x in s])
            for s in subjects] == _PINNED_COLORS[d, k, seed]


def test_keyed_entry_point_keeps_the_checks_of_of_set():
    chi = seeded_hash_coloring(2, 0, d=2)
    one, two, three = (canonical_key(x) for x in (1, 2, 3))
    # the arity check counts distinct keys, as of_set counts distinct elements
    assert chi.of_keys([one, one, two]) == chi.of_set(frozenset({1, 2}))
    with pytest.raises(ValueError, match="expected 1..2 distinct elements, got 3"):
        chi.of_keys([one, two, three])
    with pytest.raises(ValueError, match="got 0"):
        chi.of_keys([])
    wild = Coloring(1, 2, lambda s: 3, keyed=lambda key: 3)
    with pytest.raises(ValueError, match="color 3 outside palette 1..2"):
        wild.of_keys([one])


def test_constant_color_outside_the_palette_is_refused():
    for color in (0, 4):
        with pytest.raises(ValueError, match=f"color {color} outside palette 1..3"):
            constant_coloring(1, 3, color)


# ------------------------------------------------ two-dim -> one-dim

def test_reduction_of_constants_is_constant():
    eta = reduce_two_dim_to_one(constant_coloring(1, 1), constant_coloring(2, 1), NAT)
    assert eta.of(3, 9) == 1


def test_reduction_kappa_uses_enumeration_min():
    eta = reduce_two_dim_to_one(parity_coloring(), constant_coloring(2, 1), NAT)
    # kappa component of {1, 2} is parity(1) = odd = 2.
    assert divmod(eta.of(1, 2) - 1, 1) == (2 - 1, 0)


def test_reduction_even_base_monochromatic():
    # Oracle: enumerate all depth-3 edges and 7 FS vertices of (2,4,8).
    seq = nat_seq(2, 4, 8)
    chi_v = parity_coloring()
    eta = reduce_two_dim_to_one(chi_v, constant_coloring(2, 1), NAT)
    edges = sum_hypergraph(seq, 3, 2)
    assert len(edges) == 5
    assert len({eta.of(e) for e in edges}) == 1
    fs_values = fs_enumerate(seq, 3).values()
    assert len(fs_values) == 7
    assert {chi_v.of(v) for v in fs_values} == {1}


@given(st.integers(0, 2 ** 31), st.integers(2, 3))
def test_reduction_guarantee_finite_shadow(seed, k):
    """The finite content of the reduction guarantee.

    For an eta-monochromatic sum graph of an increasing proper base:
    the edge component is chi_edge-monochromatic outright, and every
    vertex that is the smaller endpoint of some edge carries the kappa
    color.  (The enumeration-maximal vertices have no later partner at
    finite depth, so only the limit argument pins them.)
    """
    chi_v = seeded_hash_coloring(k, seed, d=1)
    chi_e = seeded_hash_coloring(k, seed + 1, d=2)
    eta = reduce_two_dim_to_one(chi_v, chi_e, NAT)
    seq = nat_seq(1, 2, 4, 8)
    sums = fs_enumerate(seq, 4)
    edges = [(sums[F], sums[H]) for F, H in block_chains(4, 2)]
    eta_colors = {eta.of(a, b) for a, b in edges}
    if len(eta_colors) == 1:
        kappa, edge_color = (c + 1 for c in divmod(next(iter(eta_colors)) - 1, chi_e.palette))
        assert {chi_e.of(a, b) for a, b in edges} == {edge_color}
        pinned = {min(a, b) for a, b in edges}
        assert {chi_v.of(v) for v in pinned} == {kappa}


def test_collapse_detector_on_sumsequence():
    # Cardinality color 1 along a sumsequence forces the collapse element.
    fin = finite_sets()
    seq = ElementSequence.from_terms(fin, [frozenset({1})] * 4)
    sums = fs_enumerate(seq, 3)
    card = cardinality_coloring(2)
    colors = {card.of(sums[F], sums[H]) for F, H in block_chains(3, 2)}
    assert colors == {1}
    e = sums[frozenset({1})]
    assert fin.combine(e, e) == e
