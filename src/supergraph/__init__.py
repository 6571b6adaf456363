"""Super-vertex random graphs G(N, K, p).

Start from a configuration K of super-vertex sizes (k_i super-vertices of
size i). Two super-vertices of sizes i and j connect with probability
1 - (1-p)^(i*j), independently across pairs: the chance that at least one
edge of an underlying G(n, p) lands between their vertex sets. The package
samples this model, analyzes components and degrees, evaluates the
closed-form predictions (connectivity limit, giant-component fixed point,
mixed-Poisson degree law), and verifies them by Monte Carlo.
"""

from .config import (LimitProfile, SizeConfiguration, derive_counts,
                     empirical_profile, parse_configuration, parse_inline,
                     power_law_configuration, serialize_configuration)
from .graph import (ComponentSummary, connected_components, degree_histogram,
                    is_connected, isolated_count, largest_component_fraction)
from .montecarlo import (ExperimentPlan, ExperimentReport,
                         run_connectivity_experiment, run_degree_experiment,
                         run_experiment, run_giant_experiment, total_variation)
from .sampler import (ModelParams, SuperGraph, edge_probability, resolve_p,
                      sample_constructive, sample_direct, write_edge_list)
from .theory import (GiantSolution, critical_threshold, degree_pmf_cutoff,
                     degree_pmf_head, expected_isolated, is_supercritical,
                     limit_connectivity_probability, limit_kernel,
                     mixed_poisson_pmf, mixed_poisson_tail, poisson_pmf,
                     solve_giant_fraction, variance_isolated)

__version__ = "0.1.0"

__all__ = [
    "LimitProfile", "SizeConfiguration", "derive_counts", "empirical_profile",
    "parse_configuration", "parse_inline", "power_law_configuration",
    "serialize_configuration",
    "ComponentSummary", "connected_components", "degree_histogram",
    "is_connected", "isolated_count", "largest_component_fraction",
    "ExperimentPlan", "ExperimentReport", "run_connectivity_experiment",
    "run_degree_experiment", "run_experiment", "run_giant_experiment",
    "total_variation",
    "ModelParams", "SuperGraph", "edge_probability", "resolve_p",
    "sample_constructive", "sample_direct", "write_edge_list",
    "GiantSolution", "critical_threshold", "degree_pmf_cutoff", "degree_pmf_head",
    "expected_isolated", "is_supercritical", "limit_connectivity_probability",
    "limit_kernel", "mixed_poisson_pmf", "mixed_poisson_tail", "poisson_pmf",
    "solve_giant_fraction", "variance_isolated",
]
