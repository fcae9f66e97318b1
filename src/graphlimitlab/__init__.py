"""graphlimitlab: a desk-scale laboratory for graph limits.

Step graphons with exact block measures, graphon entropy, cut-norm and
cut-distance estimation, W-random sampling with exact monotone couplings,
and exact counting / uniform sampling of forbidden-subgraph graph classes.
"""

from .census import (
    CountResult,
    count_labeled,
    count_result,
    count_unlabeled,
    census_representatives,
    exact_uniform_sample,
    labeled_class_masks,
    mcmc_ensemble,
    mcmc_sample,
    mcmc_trace,
    membership_table,
    speed_exponent,
)
from .errors import BudgetError, ValidationError
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    estimate_distance_to_block_target,
    run_convergence,
    run_coupling_demo,
    run_entropy_audit,
    run_speed,
)
from .graphon import (
    AlignmentMode,
    StepGraphon,
    StepKernel,
    binary_entropy,
    cap_at_half,
    common_refinement,
    cut_distance,
    cut_norm,
    cut_norm_estimate,
    difference_kernel,
    empirical_graphon,
    entropy,
    graphon_from_json_dict,
    graphon_to_json_dict,
    load_graphon,
    make_wrs,
    pointwise_leq,
    save_graphon,
)
from .graphs import (
    CrsWitness,
    ForbiddenFamily,
    PartKind,
    SimpleGraph,
    all_pairs,
    automorphism_count,
    canonical_key,
    chromatic_number,
    coloring_number,
    contains_subgraph,
    crs_member,
    from_graph6,
    graph_from_mask,
    is_family_free,
    load_family,
    to_graph6,
)
from .rng import CounterStream, SampleSeed, SequentialDraws
from .sampler import sample_coupled, sample_wrandom

__version__ = "0.1.0"
