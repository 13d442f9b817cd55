"""Exact machinery for partitions of the naturals with matching weighted
representation counts on the set and its complement."""

from .bounds import (
    CASE_INTERVAL,
    CASE_SMALL_SHIFT,
    INCONCLUSIVE,
    UNSAT,
    BoundScan,
    Decomposition,
    SearchOutcome,
    WitnessRecord,
    bound_array,
    bound_scan,
    decompositions,
    extract_witness,
    flog,
    guaranteed_bound,
    nonexistence_search,
    validate_certificate,
    witness_list,
)
from .core import (
    COMPLEMENT,
    SET,
    ChiTable,
    WeightPair,
    classic_halves,
    classic_rep,
    rep_difference,
    rep_values,
)
from .errors import (
    DomainError,
    EnumerationCapExceeded,
    InvalidSeed,
    NoWitness,
    PreconditionError,
    QueryBeyondPrefix,
)
from .partitions import (
    ENUMERATION_CAP,
    BlockParityReport,
    SeedAssignment,
    StructureReport,
    chain_threshold,
    enumerate_seeds,
    extend_seed,
    prefix_search,
    side_counts,
    verify_block_parity,
    verify_equality,
    verify_structure,
)

__version__ = "0.1.0"
