"""rolewire: role-aware graph rewiring via approximate equitable partitions.

The library groups nodes by structural role (tolerance-relaxed equitable
partitions), augments the graph with one virtual representative per role,
and evaluates the rewiring with spectral role-lift diagnostics, effective
resistance, two-hop class similarity, and a linear-GNN teacher-student
harness.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    DisconnectedError,
    DivergenceError,
    EmptyGraphError,
    EmptyLabelsError,
    InputError,
    NegativeInputError,
    NoEligibleNodesError,
    NonSymmetricError,
    NumericError,
    ParseError,
    RolewireError,
    SelfLoopError,
    SizeMismatchError,
    UsageError,
)
from .graph import (
    Graph,
    NodeData,
    UNLABELED,
    degree_percentile,
    dump_edge_list,
    graph_from_edges,
    is_connected,
    load_edge_list,
    one_hot_labels,
    two_hop_neighbors,
)
from .partition import (
    Partition,
    QuotientPair,
    color_refinement_oracle,
    quotient,
    random_partition,
    refine_eps_be,
    validate_aep,
)
from .rewire import (
    RewiredGraph,
    Variant,
    augment_features,
    build_rewired,
)
from .spectral import (
    SrlReport,
    bound_error,
    commutator_norm,
    normalized_shift,
    per_role_lift,
    role_basis,
    role_energies,
    rotate_basis,
    rotated_role_basis,
    srl_report,
    symmetric_eig,
)
from .metrics import (
    EpsCandidate,
    evaluate_candidates,
    mean_effective_resistance,
    pearson,
    select_epsilon,
    srl_star,
    two_hop_class_similarity,
)
from .teacher_student import (
    LinearGnnWeights,
    TrainConfig,
    TsResult,
    forward,
    gaussian_init,
    run_ts_experiment,
    teacher_labels,
    train_student,
)
from .generators import FAMILIES, make_dataset, make_graph
