"""Finite-sums combinatorics, filter algebra, and selection games.

A combinatorial engine for block-indexed finite sums and their
monochromatic structures: exhaustive and backtracking witness searches,
filter/superfilter duality over finite grounds, symbolic descending
chains, referee-validated selection games with strategy transfers, and a
finitized cover-partition search, all with independently re-verifiable
certificates.
"""

from .semigroups import (
    Block,
    BlockSequence,
    ElementSequence,
    Semigroup,
    block_less,
    finite_sets,
    fs_enumerate,
    indexed_sum,
    is_proper_up_to,
    naturals,
    proper_violation,
    sum_hypergraph,
    take_sumsequence,
)
from .coloring import (
    Coloring,
    cardinality_coloring,
    constant_coloring,
    mod_coloring,
    parity_coloring,
    product_coloring,
    reduce_two_dim_to_one,
    seeded_hash_coloring,
)
from .filters import (
    SetFamily,
    SymbolicChain,
    chain_check,
    classify_family,
    fs_tail_chain,
    is_idempotent_filter,
    plus_dual,
    star_set,
    verify_duality_laws,
)
from .search import (
    Collapse,
    Exhausted,
    Proper,
    SearchBudget,
    Witness,
    hindman_search,
    mt_search,
    proper_or_collapse,
    threshold_search,
    verify_dichotomy,
)
from .check import (
    verify_avoider,
    verify_hindman_witness,
    verify_mt_witness,
    verify_partition_witness,
    verify_refutation,
)
from .covers import (
    Cover,
    CoverKind,
    SSet,
    Space,
    classify_cover,
)
from .games import (
    GameTranscript,
    Mode,
    Outcome,
    Strategy,
    collapse_selections,
    convert_gfin_to_g1,
    diagonal_transfer,
    judge,
    play,
)
from .partition import (
    DescendingCovers,
    PartitionWitness,
    build_constrained_chain,
    discrete_comb_search,
    encode_cofinite_example,
    menger_mt_search,
    upper_density,
)
from .verdicts import Verdict

__version__ = "0.1.0"
