"""GLM math substrate: losses, regularizers, objective, local solvers."""

from .dual import (DUAL_LOSSES, DUAL_SOLVERS, DualLoss, DualSolverSpec,
                   certified_gap, dual_local_solve, get_dual_loss,
                   make_dual_spec, require_dual_capable)
from .evaluation import BinaryMetrics, evaluate_binary, roc_auc
from .kernels import (apply_update_inplace, dual_epoch, dual_row_norms,
                      lazy_epoch_plan, permuted_epoch)
from .lazy_update import ScaledVector
from .local_solvers import (LocalStats, apply_update, gd_step, mgd_epoch,
                            sample_batch, sgd_epoch, use_reference_kernels)
from .losses import (LOSSES, HingeLoss, LogisticLoss, Loss,
                     SquaredHingeLoss, SquaredLoss, get_loss)
from .model import (ARTIFACT_FORMAT, ARTIFACT_VERSION, ArtifactError,
                    GLMModel, read_artifact_meta)
from .objective import Objective
from .regularizers import (REGULARIZERS, L1Regularizer, L2Regularizer,
                           NoRegularizer, Regularizer, get_regularizer)
from .schedules import (ConstantLR, InvSqrtLR, InvTimeLR, LearningRate,
                        get_schedule)

__all__ = [
    "Loss", "HingeLoss", "LogisticLoss", "SquaredHingeLoss", "SquaredLoss",
    "get_loss", "LOSSES",
    "BinaryMetrics", "evaluate_binary", "roc_auc",
    "Regularizer", "NoRegularizer", "L1Regularizer", "L2Regularizer",
    "get_regularizer", "REGULARIZERS",
    "Objective", "GLMModel", "ScaledVector",
    "ArtifactError", "ARTIFACT_FORMAT", "ARTIFACT_VERSION",
    "read_artifact_meta",
    "LocalStats", "gd_step", "mgd_epoch", "sgd_epoch", "sample_batch",
    "apply_update", "use_reference_kernels",
    "apply_update_inplace", "lazy_epoch_plan",
    "permuted_epoch", "dual_epoch", "dual_row_norms",
    "DualLoss", "DualSolverSpec", "DUAL_LOSSES", "DUAL_SOLVERS",
    "get_dual_loss", "make_dual_spec", "require_dual_capable",
    "dual_local_solve", "certified_gap",
    "LearningRate", "ConstantLR", "InvSqrtLR", "InvTimeLR", "get_schedule",
]
