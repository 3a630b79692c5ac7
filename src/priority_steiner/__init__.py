"""Priority Steiner tree library.

Edge-weighted and node-weighted priority Steiner problems: greedy
approximation solvers with worst-case guarantees, exact brute-force oracles
at desk scale, deterministic instance generators including the known
worst-case family for greedy merging, and spider-decomposition machinery
for verifying the node-weighted guarantee.
"""

from .instances import (
    EdgeRateSolution,
    PnwstInstance,
    PriorityGraph,
    PstInstance,
    VertexRateSolution,
    canonical_edge,
    check_feasible,
    forced_rates,
    solution_weight,
    subdivide_to_node_weighted,
    validate_instance,
)
from .paths import PathResult, edge_rate_search, node_rate_search, stopped_search
from .pst import (
    PstRunReport,
    attach_by_priority,
    attach_to_higher_priority,
    best_of,
    per_level_union,
    remove_cycles,
)
from .pnwst import (
    IterationRecord,
    MergeCandidate,
    PnwstRunReport,
    RateForest,
    apply_merge,
    greedy_merge,
    init_rate_forest,
    minimize_merge_ratio,
)
from .spiders import (
    RateSpider,
    RateTree,
    SpiderDecomposition,
    decompose_rate_spiders,
    is_marked_optimized,
    marked_optimize,
    verify_decomposition,
    verify_spider,
)
from .oracle import (
    InstanceTooLargeError,
    OracleResult,
    exact_pnwst,
    exact_pst,
)
from .generators import (
    GeneratorSpec,
    StableRng,
    gen_proportional_pst,
    gen_random_pnwst,
    gen_random_pst,
    gen_tightness_pnwst,
)

__version__ = "0.1.0"
