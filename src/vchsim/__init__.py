"""Desk-scale simulator for a singular/degenerate viscous Cahn-Hilliard
system, stepped by a delay-decoupled two-stage scheme with a regularized
monotone graph and a floored mobility, and instrumented with the energy,
positivity, boundedness, and contraction checks the underlying theory
suggests.

The names below are re-exported lazily (PEP 562): a module is imported on
first access to one of its names, so each command loads only the modules
it runs."""

from importlib import import_module

_EXPORTS = {
    "constitutive": (
        "ClampIndicator", "ConstantCoupling", "ConstantMobility",
        "K_tau_array", "Laws", "LinearCoupling", "LogGraph", "Potential",
        "TanhPowerMobility", "yosida_array",
    ),
    "diagnostics": (
        "ContractionSeries", "contraction_metric", "ledger_columns",
    ),
    "mesh": (
        "Grid", "ScalarField", "dirichlet_energy", "field_of", "integrate",
        "read_snapshot", "write_snapshot",
    ),
    "config": ("Config", "ConfigError", "build_run", "parse_config",
               "render_config"),
    "stepper": (
        "SimState", "SolverConfig", "StepReport", "Trajectory",
        "ValidationError", "iterate", "run", "step", "step_mu", "step_rho",
    ),
    "studies": (
        "degenerate_demo", "homogeneous_oracle", "perturbation_pairs",
        "tau_refinement",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
