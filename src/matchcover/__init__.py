"""Cover the edges of an r-graph with k perfect matchings, certified exactly.

The pipeline: parse or generate a multigraph, check the odd-cut
condition, run the greedy cover (fast or exact-lemma mode), and read
off per-step certificates; exhaustive oracles (exact best coverage,
excessive index, double-cover search) validate everything at desk
scale.  All arithmetic is exact rational.
"""

from .bounds import (
    approx_decimal,
    bound_table,
    format_fraction,
    geometric_bound,
    product_bound,
    small_k_bound,
    w_k_entry,
)
from .cover import (
    EXACT_LEMMA,
    FAST,
    CoverReport,
    CoverState,
    CutFamilyAudit,
    IterationCertificate,
    audit_cut_invariants,
    audits_pass,
    greedy_cover,
)
from .errors import (
    CapExceededError,
    EdgeListError,
    GeneratorError,
    LemmaViolationError,
    MatchCoverError,
    MembershipFailure,
    NoPerfectMatchingError,
    NotRegularError,
    NotRGraphError,
    UncoverableEdgeError,
)
from .exact import (
    DoubleCoverResult,
    ExactCoverage,
    ExcessiveIndexResult,
    bf_double_cover,
    excessive_index,
    m_exact,
)
from .fractional import (
    ConvexDecomposition,
    FractionalOneFactor,
    MembershipReport,
    Multicoloring,
    decompose,
    multicoloring,
    uniform,
    verify_membership,
)
from .generators import (
    bridge_pair,
    dipole,
    from_spec,
    generator_names,
    k4,
    k33,
    petersen,
    prism,
    random_regular,
)
from .lpfeas import solve_nonneg
from .matching import (
    Matching,
    enumerate_perfect_matchings,
    max_weight_perfect_matching,
)
from .multigraph import Multigraph, parse_edge_list, serialize
from .oddcuts import (
    OddCutResult,
    is_r_graph,
    min_odd_cut,
    odd_cuts_at_least,
    tight_odd_cuts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
