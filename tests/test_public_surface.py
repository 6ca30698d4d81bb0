"""The package's public names, and the entry points the benchmark calls.

Adding or removing a public name is a deliberate edit of PUBLIC below.
"""

import matchcover
import matchcover.cli

PUBLIC = [
    "CapExceededError", "ConvexDecomposition", "CoverReport", "CoverState",
    "CutFamilyAudit", "DoubleCoverResult", "EXACT_LEMMA", "EdgeListError",
    "ExactCoverage", "ExcessiveIndexResult", "FAST", "FractionalOneFactor",
    "GeneratorError", "IterationCertificate", "LemmaViolationError",
    "MatchCoverError", "Matching", "MembershipFailure", "MembershipReport",
    "Multicoloring", "Multigraph", "NoPerfectMatchingError", "NotRGraphError",
    "NotRegularError", "OddCutResult", "UncoverableEdgeError", "approx_decimal",
    "audit_cut_invariants", "audits_pass", "bf_double_cover", "bound_table",
    "bounds", "bridge_pair", "cover", "decompose", "dipole",
    "enumerate_perfect_matchings", "errors", "exact", "excessive_index",
    "format_fraction", "fractional", "from_spec", "generator_names", "generators",
    "geometric_bound", "greedy_cover", "is_r_graph", "k33", "k4", "lpfeas",
    "m_exact", "matching", "max_weight_perfect_matching", "min_odd_cut",
    "multicoloring", "multigraph", "oddcuts",
    "parse_edge_list", "petersen", "prism", "product_bound", "random_regular",
    "serialize", "small_k_bound", "solve_nonneg", "tight_odd_cuts", "uniform",
    "verify_membership", "w_k_entry",
]

# What perfbench/workloads.py reads off the package at call time.
BENCHMARK_NAMES = {
    "greedy_cover", "decompose", "uniform", "multicoloring", "random_regular",
    "FAST", "EXACT_LEMMA", "Multigraph", "cli.main",
}


def test_public_names_are_the_listed_ones():
    assert matchcover.__all__ == PUBLIC


def test_benchmark_entry_points_exist():
    for dotted in BENCHMARK_NAMES:
        owner, _, name = dotted.rpartition(".")
        assert hasattr(matchcover.cli if owner else matchcover, name), dotted

