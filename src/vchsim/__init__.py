"""Desk-scale simulator for a singular/degenerate viscous Cahn-Hilliard
system, stepped by a delay-decoupled two-stage scheme with a regularized
monotone graph and a floored mobility, and instrumented with the energy,
positivity, boundedness, and contraction checks the underlying theory
suggests."""

from .constitutive import (
    ClampIndicator,
    CouplingLaw,
    K_tau_array,
    Laws,
    LogGraph,
    MobilityLaw,
    Potential,
    f_total,
    make_clamp_potential,
    make_constant_coupling,
    make_constant_mobility,
    make_linear_coupling,
    make_log_potential,
    make_tanh_power_mobility,
    yosida_array,
)
from .diagnostics import (
    ContractionSeries,
    EnergyLedger,
    boundedness_report,
    contraction_metric,
    formulation_residuals,
    mu_energy_ledger,
    rho_energy_ledger,
)
from .mesh import (
    Grid,
    ScalarField,
    dirichlet_energy,
    field_of,
    integrate,
    read_snapshot,
    write_snapshot,
)
from .config import Config, ConfigError, build_run, parse_config, render_config
from .stepper import (
    SimState,
    SolverConfig,
    StepReport,
    Trajectory,
    ValidationError,
    iterate,
    run,
    step,
    step_mu,
    step_rho,
)
from .studies import (
    OrderTable,
    StudySpec,
    degenerate_demo,
    homogeneous_oracle,
    perturbation_pairs,
    tau_refinement,
)

__version__ = "0.1.0"
