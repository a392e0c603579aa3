"""Desk-scale numerics for loop vertex representations of matrix models.

Partition functions, effective actions, and tree expansions for the
N x N Hermitian (beta = 2) and real-symmetric (beta = 1) ensembles with
interaction lambda Tr H^(2p).
"""

__version__ = "0.1.0"

from .errors import LoopVertexError
from .fusscatalan import FussCatalanParams, fc_eval_many
from .scalarmaps import Coupling, eval_map, inverse_residual
from .contour import KeyholeContour, build_keyhole, holo_apply
from .matrixcore import EnsembleSpec, SpectralData, eigh
from .action import (
    ActionValue,
    action_S,
    action_split,
    action_gradient,
    action_hessian,
    resolvent_entries,
    sigma_contour,
    jacobian_check,
)
from .partition import (
    PartitionEstimate,
    z_direct,
    z_lvr,
    free_energy,
    topological_free_energy,
    gaussian_moment_exact,
)
from .trees import (
    LabeledTree,
    WeakeningVector,
    AmplitudeEstimate,
    enumerate_trees,
    bkar_x_matrix,
    tree_amplitude,
    single_vertex_amplitude,
    lve_truncated_F,
)
from .bounds import BoundReport, all_bound_suites

__all__ = [
    "__version__",
    "LoopVertexError",
    "FussCatalanParams",
    "fc_eval_many",
    "Coupling",
    "eval_map",
    "inverse_residual",
    "KeyholeContour",
    "build_keyhole",
    "holo_apply",
    "EnsembleSpec",
    "SpectralData",
    "eigh",
    "ActionValue",
    "action_S",
    "action_split",
    "action_gradient",
    "action_hessian",
    "resolvent_entries",
    "sigma_contour",
    "jacobian_check",
    "PartitionEstimate",
    "z_direct",
    "z_lvr",
    "free_energy",
    "topological_free_energy",
    "gaussian_moment_exact",
    "LabeledTree",
    "WeakeningVector",
    "AmplitudeEstimate",
    "enumerate_trees",
    "bkar_x_matrix",
    "tree_amplitude",
    "single_vertex_amplitude",
    "lve_truncated_F",
    "BoundReport",
    "all_bound_suites",
]
