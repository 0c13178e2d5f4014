"""Exact-arithmetic genus-two partition-function data from sewing two tori.

The package computes, over exact rationals, the modular-form expansions,
Virasoro vacuum descendants, torus 1-point operators, sewing-moment
matrices and period data that enter the genus-two partition function of a
vertex operator algebra built by gluing two tori, and mechanically checks
the torus-degeneration identities relating them to any finite order.
"""

from .series import (
    EisensteinPoly,
    NotQuasiModular,
    QSeries,
    QuasiModularPoly,
    SeriesError,
    bernoulli,
    eisenstein,
    eisenstein_poly,
    eta_normalized,
    qd,
    to_quasimodular,
)
from .virasoro import (
    CPoly,
    VirState,
    alpha_coefficients,
    apply_mode,
    beta_coefficients,
    lambda_vector,
    lambda_vector_direct,
    partitions_of_weight,
)
from .zhu import (
    BasePartition,
    DiffOp,
    one_point,
    specialize,
    structure_check,
    to_theta_basis,
    to_z_basis,
)
from .sewing import (
    AMatrix,
    PeriodData,
    a2_degenerate,
    a_matrix,
    degenerate_tau,
    log_det_I_minus,
    period_matrix,
    resolvent_11,
    weighted_resolvent_11,
)
from .genus2 import (
    ModulePair,
    OperatorEpsSeries,
    degeneration_sum,
    taylor_shift,
    verify_detHi,
    verify_heisenberg_degeneration,
    verify_theta_degeneration,
    z2_heisenberg,
    z2_heisenberg_degenerate,
    z2_module_degenerate,
    z2_module_pair,
)
from .reports import Check, Report

__version__ = "0.1.0"
