"""Exact character evaluations on partial permutations via ribbon combinatorics.

The package computes irreducible symmetric-group character sums over the
permutations extending a partial permutation (I, J), by expanding the
associated atomic symmetric function in the Schur basis: a path power sum for
the path components, classical power sums for the cycles, and ribbon
combinatorics throughout. Everything is exact (integers and fractions).
"""

from pathmn.characters import (
    CharacterTable,
    PolynomialityReport,
    atomic_schur,
    char_eval,
    char_eval_direct,
    character_table,
    coefficient_polynomiality,
    support_check,
)
from pathmn.errors import GuardError, OracleMismatch, ParseError
from pathmn.oracles import (
    alternant_char,
    array_weight,
    brute_atomic,
    standard_word_arrays,
    swap_unstable,
    unstable_pairs,
    word_array_path_expansion,
)
from pathmn.partial_perm import (
    GraphType,
    IndicatorTerm,
    PartialPermutation,
    decompose,
    embed,
    format_pp,
    local_dimension,
    pack,
    parse_pp,
    pp_from_graph_type,
)
from pathmn.partitions import (
    canonical_order,
    check_composition,
    check_partition,
    conjugate,
    contains,
    enumerate_set_partitions,
    format_partition,
    is_partition,
    mult_factorial,
    multiplicities,
    multinomial,
    pad_column,
    pad_row,
    parse_composition,
    parse_partition,
    partitions_of,
    syt_count,
    z_mu,
)
from pathmn.ribbons import (
    MonotonicTiling,
    RibbonAddition,
    add_ribbons,
    clear_caches,
    enumerate_monotonic,
    frozen_set,
    path_chi,
    render_tiling,
    skew_mn,
    stable_expansion,
    tiling_from_type_depth,
    tiling_tally,
)
from pathmn.statistics import (
    ClassFunction,
    Statistic,
    builtin,
    class_eval,
    eval_pointwise,
    make_statistic,
    stat_from_json,
    stat_product,
    stat_to_json,
    symmetrize,
    variance_on_class,
)
from pathmn.symfunc import (
    PATH,
    POWER,
    SCHUR,
    SymExpansion,
    mult_by_power,
    p_in_path_basis,
    path_power_in_p,
    path_power_to_schur,
    power_to_schur,
)

__version__ = "0.1.0"
