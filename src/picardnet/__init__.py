"""picardnet: multilevel Picard estimation of semilinear Kolmogorov
terminal-value problems, with mechanical construction of the ReLU
networks that replay the estimator under frozen randomness, and the
bound-conformance checks that go with both."""

from .analysis import (
    CheckReport,
    GrowthRecipe,
    GrowthReport,
    desk_growth_recipe,
    fullerror_bound,
    fullerror_bracket,
    fullerror_check,
    growth_fit,
    lyapunov_bound,
    lyapunov_check,
    lyapunov_phi,
    paper_growth_recipe,
    perturbation_bound,
    perturbation_check,
    suggest_lyapunov_constants,
)
from .builder import (
    ArchitecturePrediction,
    BuildSizeError,
    BuiltMlpNetwork,
    PARAM_GUARD,
    ProblemNetworks,
    SigmaNetworkFamily,
    bracket_template,
    build_euler_network,
    build_mlp_network,
    build_mlp_root,
    euler_architecture,
    mlp_depth_identity,
    predict_architecture,
    sigma_family_constant,
    sigma_family_linear,
)
from .indexrng import (
    FrozenSample,
    IndexPath,
    brownian_path,
    child,
    standard_normals,
    uniform01,
    uniform_time,
)
from .mlp import (
    MlpConfig,
    ROOT_PATH,
    SemilinearProblem,
    mlp_estimate,
    mlp_rmse,
)
from .nets import (
    Architecture,
    NetworkError,
    ReluNetwork,
    affine_network,
    architecture,
    compose,
    compose_architecture,
    compose_chain,
    compose_copies,
    copies_architecture,
    extend_depth,
    identity_architecture,
    identity_network,
    max_width,
    network_from_dict,
    network_to_dict,
    param_count,
    realize,
    realize_sum,
    sum_architecture,
    sum_networks,
    zero_network,
)
from .problems import (
    CatalogEntry,
    PerturbationSpec,
    catalog_entry,
    max_network,
    network_encodings,
    pwl_network,
)
from .sde import (
    NumericFailure,
    TimeGrid,
    effective_breakpoints,
    euler_evaluate,
    uniform_grid,
)

__version__ = "0.1.0"
