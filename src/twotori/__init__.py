"""Exact-arithmetic genus-two partition-function data from sewing two tori.

The package computes, over exact rationals, the modular-form expansions,
Virasoro vacuum descendants, torus 1-point operators, sewing-moment
matrices and period data that enter the genus-two partition function of a
vertex operator algebra built by gluing two tori, and mechanically checks
the torus-degeneration identities relating them to any finite order.

The names below load their submodule on first use (PEP 562), so a command
that never touches, say, the Zhu recursion never compiles it.
"""

from importlib import import_module

_EXPORTS = {
    "ring": ("EisensteinPoly", "SeriesError", "bernoulli", "eisenstein_poly"),
    "series": ("NotQuasiModular", "QSeries", "QuasiModularPoly", "eisenstein",
               "eta_normalized", "qd", "to_quasimodular"),
    "virasoro": ("CPoly", "VirState", "alpha_coefficients", "apply_mode",
                 "beta_coefficients", "lambda_vector", "lambda_vector_direct",
                 "partitions_of_weight"),
    "zhu": ("BasePartition", "DiffOp", "one_point", "specialize", "structure_check",
            "to_theta_basis", "to_z_basis"),
    "sewing": ("AMatrix", "PeriodData", "a2_degenerate", "a_matrix", "degenerate_tau",
               "log_det_I_minus", "period_matrix", "resolvent_11", "weighted_resolvent_11"),
    "genus2": ("ModulePair", "OperatorEpsSeries", "degeneration_sum", "taylor_shift",
               "verify_detHi", "verify_heisenberg_degeneration", "verify_theta_degeneration",
               "z2_heisenberg", "z2_heisenberg_degenerate", "z2_module_degenerate",
               "z2_module_pair"),
    "reports": ("Check", "Report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
