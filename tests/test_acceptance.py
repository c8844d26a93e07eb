"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Every test records a PASS/FAIL line (printed in the terminal summary) with
the measured quantities, then asserts.  Runtime budgets are asserted where
stated.
"""

import time
from dataclasses import replace

import numpy as np

from vchsim.cli import simulate_to_dir
from vchsim.config import Config, build_run
from vchsim.diagnostics import contraction_metric, ledger_columns
from vchsim.mesh import ScalarField, field_of
from vchsim.stepper import (
    SimState,
    initial_state,
    run,
    step_mu,
    step_rho,
)
from vchsim.studies import degenerate_demo, homogeneous_oracle, tau_refinement

from conftest import record_acceptance
from oracles import fit_order, oracle_gaps


def run_cfg(config: Config):
    _, cfg, laws, initial = build_run(config)
    return run(cfg, laws, initial), laws, cfg


def random_suite_configs(count: int, seed: int = 20260810):
    """Randomized admissible configs covering both potentials and both
    mobilities, n <= 64, N <= 200, nonnegative initial potential."""
    rng = np.random.default_rng(seed)
    potentials = ["clamp", "log"]
    mobilities = ["constant", "tanhpow"]
    out = []
    for i in range(count):
        dim = 1 if rng.random() < 0.75 else 2
        n = int(rng.integers(8, 65)) if dim == 1 else int(rng.integers(6, 17))
        N = int(rng.integers(5, 201))
        T = float(rng.uniform(0.1, 1.0))
        pot = potentials[i % 2]
        mob = mobilities[(i // 2) % 2]
        kappa0 = float(rng.uniform(0.5, 2.0))
        if mob == "constant" and T / N > kappa0:
            N = int(np.ceil(T / kappa0)) + 1
        kind = rng.choice(["constant", "bump", "cosine"])
        if kind == "constant":
            mu0 = ("constant", float(rng.uniform(0.0, 2.0)))
        elif kind == "bump":
            mu0 = ("bump", 0.5, float(rng.uniform(0.1, 0.4)),
                   float(rng.uniform(0.1, 2.0)))
        else:
            mean = float(rng.uniform(0.3, 1.5))
            mu0 = ("cosine", mean, float(rng.uniform(0.0, mean)))
        out.append(Config(
            dim=dim, n=n, T=T, N=N, potential=pot,
            alpha1=float(rng.uniform(0.2, 1.0)),
            alpha2=float(rng.uniform(0.0, 3.0)),
            mobility=mob, kappa0=kappa0, m=float(rng.uniform(1.5, 3.0)),
            coupling=str(rng.choice(["linear", "constant"])),
            g0=float(rng.uniform(0.0, 1.0)),
            mu0=mu0, rho0=("cosine", 0.5, float(rng.uniform(0.0, 0.35)))))
    return out


def test_criterion_1_positivity():
    t0 = time.monotonic()
    worst = 0.0
    configs = random_suite_configs(52)
    for config in configs:
        traj, _, _ = run_cfg(config)
        worst = min(worst, min(s.mu.min() for s in traj.states))
    elapsed = time.monotonic() - t0
    ok = worst >= -1e-10 and elapsed <= 120.0
    record_acceptance(1, ok, f"{len(configs)} runs, min mu = {worst:.3e} "
                             f">= -1e-10, {elapsed:.1f}s <= 120s")
    assert worst >= -1e-10
    assert elapsed <= 120.0


def test_criterion_2_constraint_exactness():
    violations = 0
    checked = 0
    saturated_nodes = 0
    for mu_amp, rho_rec in [(2.0, ("cosine", 0.5, 0.45)),
                            (50.0, ("constant", 0.9)),
                            (0.5, ("cosine", 0.5, 0.2))]:
        config = Config(dim=1, n=32, T=0.5, N=24, potential="clamp",
                        alpha2=2.0, coupling="linear",
                        mu0=("bump", 0.5, 0.3, mu_amp), rho0=rho_rec)
        traj, _, _ = run_cfg(config)
        for state in traj.states[1:]:
            rho, xi = state.rho.values, state.xi.values
            checked += rho.size
            inside = (rho >= 0.0) & (rho <= 1.0)
            interior = (rho > 0.0) & (rho < 1.0)
            good_signs = (np.all(xi[interior] == 0.0)
                          and np.all(xi[rho == 1.0] >= 0.0)
                          and np.all(xi[rho == 0.0] <= 0.0))
            if not (np.all(inside) and good_signs):
                violations += 1
            saturated_nodes += int(np.sum(rho == 1.0) + np.sum(rho == 0.0))
    ok = violations == 0 and saturated_nodes > 0
    record_acceptance(2, ok, f"{checked} node-steps, zero-tolerance bounds and "
                             f"sign conditions, {saturated_nodes} saturated "
                             f"node-steps exercised")
    assert violations == 0
    assert saturated_nodes > 0


DECOUPLED_CONFIGS = [
    Config(dim=1, n=48, T=0.5, N=40, potential="clamp", coupling="constant",
           g0=0.0, mobility="constant", kappa0=1.0,
           mu0=("bump", 0.5, 0.35, 1.0), rho0=("cosine", 0.5, 0.2)),
    Config(dim=1, n=32, T=0.5, N=32, potential="log", coupling="constant",
           g0=0.4, mobility="tanhpow", m=2.0,
           mu0=("cosine", 1.0, 0.8), rho0=("cosine", 0.5, 0.2)),
    Config(dim=2, n=10, T=0.25, N=16, potential="clamp", coupling="constant",
           g0=0.2, mobility="constant", kappa0=1.5,
           mu0=("bump", 0.5, 0.3, 1.0), rho0=("cosine", 0.5, 0.2)),
]


def test_criterion_3_mu_energy_dissipation():
    worst_oneside = -np.inf
    for config in DECOUPLED_CONFIGS:
        traj, laws, _ = run_cfg(config)
        led = ledger_columns(traj, laws)
        E0 = led["E_mu"][0]
        worst_oneside = max(worst_oneside, float(
            np.max(led["E_mu"] + led["diss_cum"] - E0) / E0))
    # exact identity for the pure heat member
    traj, laws, _ = run_cfg(DECOUPLED_CONFIGS[0])
    led = ledger_columns(traj, laws)
    E0 = led["E_mu"][0]
    ident = float(np.max(np.abs(led["E_mu"] + led["diss_cum"]
                                + led["extra_cum"] - E0)) / E0)
    ok = worst_oneside <= 1e-9 and ident <= 1e-9
    record_acceptance(3, ok, f"one-sided excess {worst_oneside:.2e} <= 1e-9, "
                             f"heat identity defect {ident:.2e} <= 1e-9")
    assert worst_oneside <= 1e-9
    assert ident <= 1e-9


def test_criterion_4_homogeneous_oracle():
    t0 = time.monotonic()
    config = Config(dim=1, n=4, length=1.0, T=1.0, potential="log",
                    alpha1=0.5, alpha2=2.0, coupling="linear",
                    mobility="constant", kappa0=1.0, mu0=("constant", 1.0),
                    rho0=("constant", 0.5), study="homogeneous_oracle")
    reports = {}
    for N in (1000, 2000):
        member = replace(config, N=N)
        reports[N] = oracle_gaps(member, homogeneous_oracle(member))
    err_coarse = max(reports[1000]["err_mu"], reports[1000]["err_rho"])
    err_fine = max(reports[2000]["err_mu"], reports[2000]["err_rho"])
    ratio = err_coarse / err_fine
    inv_ratio = (reports[1000]["drift_stepper"]
                 / reports[2000]["drift_stepper"])
    oracle_drift = max(r["drift_oracle"] for r in reports.values())
    elapsed = time.monotonic() - t0
    ok = (err_coarse <= 2e-3 and 1.7 <= ratio <= 2.3
          and 1.7 <= inv_ratio <= 2.3 and oracle_drift <= 1e-9
          and elapsed <= 30.0)
    record_acceptance(4, ok, f"err(tau=1e-3) = {err_coarse:.2e} <= 2e-3, "
                             f"halving ratio {ratio:.2f}, invariant ratio "
                             f"{inv_ratio:.2f} in [1.7, 2.3], oracle drift "
                             f"{oracle_drift:.1e}, {elapsed:.1f}s <= 30s")
    assert err_coarse <= 2e-3
    assert 1.7 <= ratio <= 2.3
    assert 1.7 <= inv_ratio <= 2.3
    assert oracle_drift <= 1e-9
    assert elapsed <= 30.0


def test_criterion_5_tau_refinement_order():
    t0 = time.monotonic()
    linear = Config(dim=1, n=32, T=0.5, N=16, potential="log", alpha1=1.0,
                    alpha2=0.5, coupling="constant", g0=0.0,
                    mobility="constant", kappa0=1.0,
                    mu0=("cosine", 1.0, 0.5), rho0=("cosine", 0.5, 0.25))
    coupled = Config(dim=1, n=32, T=0.5, N=16, potential="log", alpha1=1.0,
                     alpha2=0.5, coupling="linear", mobility="constant",
                     kappa0=1.0, mu0=("cosine", 1.0, 0.5),
                     rho0=("cosine", 0.5, 0.25))
    sweep = {"study": "tau_refinement", "study_values": (16, 32, 64, 128),
             "study_reference": 512}
    orders = []
    for base in (linear, coupled):
        rows = tau_refinement(replace(base, **sweep))
        orders.append(fit_order([row["n_steps"] for row in rows],
                                [row["error"] for row in rows]))
    lin, cpl = orders
    elapsed = time.monotonic() - t0
    ok = 0.9 <= lin <= 1.1 and cpl >= 0.8 and elapsed <= 60.0
    record_acceptance(5, ok, f"linear order {lin:.3f} in [0.9, 1.1], coupled "
                             f"order {cpl:.3f} >= 0.8, {elapsed:.1f}s <= 60s")
    assert 0.9 <= lin <= 1.1
    assert cpl >= 0.8
    assert elapsed <= 60.0


# constant mobility, where the uniqueness argument contracts in z
UNIQUENESS_CONFIG = Config(dim=1, n=24, T=0.5, N=16, potential="log",
                           alpha1=0.5, alpha2=2.0, coupling="linear",
                           mobility="constant", kappa0=1.0,
                           mu0=("constant", 1.0), rho0=("cosine", 0.5, 0.2))


def test_criterion_6_uniqueness_contraction_proxy(tmp_path):
    # bitwise-identical artifacts for identical configs
    config = UNIQUENESS_CONFIG
    simulate_to_dir(config, tmp_path / "a")
    simulate_to_dir(config, tmp_path / "b")
    manifests_equal = ((tmp_path / "a" / "manifest.txt").read_bytes()
                       == (tmp_path / "b" / "manifest.txt").read_bytes())

    # quadratic scaling of the squared-gap metric under data perturbations
    grid, cfg, laws, (mu0, rho0) = build_run(config)
    direction = np.random.default_rng(99).standard_normal(grid.shape)
    direction /= np.max(np.abs(direction))
    base_traj = run(cfg, laws, (mu0, rho0))
    finals = {}
    rates = {}
    for amp in (1e-6, 5e-7):
        pert = field_of(grid, mu0.values + amp * direction)
        series = contraction_metric(base_traj, run(cfg, laws, (pert, rho0)),
                                    laws)
        finals[amp] = float(series.total[-1])
        rates[amp] = series.growth_rate(cfg.tau)
    ratio = finals[1e-6] / finals[5e-7]
    growth_c = max(rates.values())
    ok = manifests_equal and 3.6 <= ratio <= 4.4 and np.isfinite(growth_c)
    record_acceptance(6, ok, f"manifests identical: {manifests_equal}, metric "
                             f"ratio {ratio:.3f} in [3.6, 4.4], growth "
                             f"exponent C = {growth_c:.3f} (finite)")
    assert manifests_equal
    assert 3.6 <= ratio <= 4.4
    assert np.isfinite(growth_c)


def test_criterion_7_boundedness():
    # decoupled run with data in [0, 1]: discrete maximum principle
    heat = Config(dim=1, n=32, T=0.5, N=32, potential="clamp",
                  coupling="constant", g0=0.3, mobility="constant", kappa0=1.0,
                  mu0=("cosine", 0.5, 0.5), rho0=("cosine", 0.5, 0.2))
    traj, _, _ = run_cfg(heat)
    sup_heat = max(s.mu.max() for s in traj.states)

    # coupled bounded-data run: sup finite and stable under step halving
    sups = {}
    coupled = Config(dim=1, n=32, T=0.5, N=64, potential="log", alpha1=0.5,
                     alpha2=2.0, coupling="linear", mobility="constant",
                     kappa0=1.0, mu0=("cosine", 1.0, 0.5),
                     rho0=("cosine", 0.5, 0.2))
    for N in (64, 128):
        traj_c, _, _ = run_cfg(replace(coupled, N=N))
        sups[N] = max(s.mu.max() for s in traj_c.states)
    rel_change = abs(sups[64] - sups[128]) / sups[128]
    ok = sup_heat <= 1.0 + 1e-9 and np.isfinite(sups[64]) and rel_change <= 0.05
    record_acceptance(7, ok, f"decoupled sup {sup_heat:.12f} <= 1 + 1e-9, "
                             f"coupled sup {sups[64]:.6f} finite, halving "
                             f"change {rel_change:.2%} <= 5%")
    assert sup_heat <= 1.0 + 1e-9
    assert np.isfinite(sups[64])
    assert rel_change <= 0.05


def test_criterion_8_degenerate_regime():
    t0 = time.monotonic()
    base = Config(dim=1, n=128, length=4.0, T=1.0, N=64, potential="clamp",
                  coupling="constant", g0=0.0, mobility="tanhpow", m=2.0,
                  mu0=("bump", 2.0, 0.25, 1.0), rho0=("constant", 0.5),
                  study="degenerate_demo", study_values=(64, 128, 256))
    rows = degenerate_demo(base, threshold=0.05)
    control_larger = all(row["radius_control"] > row["radius"] for row in rows)
    finals = [[row["radius"] for row in rows if row["n_steps"] == n][-1]
              for n in base.study_values]
    floor_monotone = all(b <= a for a, b in zip(finals, finals[1:]))
    ktau_bounded = all(np.isfinite(row["ktau_vnorm_sup"]) for row in rows)
    elapsed = time.monotonic() - t0
    ok = control_larger and floor_monotone and ktau_bounded and elapsed <= 60.0
    record_acceptance(8, ok, f"control strictly wider at all sampled times: "
                             f"{control_larger}, final radius over shrinking "
                             f"floors {finals} nonincreasing: {floor_monotone}, "
                             f"{elapsed:.1f}s <= 60s")
    assert control_larger
    assert floor_monotone
    assert ktau_bounded
    assert elapsed <= 60.0


def growing_interval_run(cfg, laws, initial) -> list:
    """Growing-interval oracle built on the two stages: at outer round n,
    re-solve the first n steps from scratch, feeding step k the potential
    of step k - 1 read from the previous round's states.  Costs O(N^2)
    steps; returns the last round's states."""
    state0 = initial_state(initial[0], initial[1], cfg, laws)
    prev_round = [state0]
    for n in range(1, cfg.n_steps + 1):
        current = [state0]
        for k in range(1, n + 1):
            state = current[-1]
            rho_new, xi_new, _, _ = step_rho(state, prev_round[k - 1].mu,
                                             cfg, laws)
            dt_rho = ScalarField(state.grid,
                                 (rho_new.values - state.rho.values) / cfg.tau)
            mu_new, _, _ = step_mu(state, rho_new, dt_rho, cfg, laws)
            current.append(SimState(t=state.t + cfg.tau, mu=mu_new,
                                    rho=rho_new, xi=xi_new, dt_rho=dt_rho))
        prev_round = current
    return prev_round


def test_criterion_9_scheme_equivalence_golden(tmp_path):
    config = Config(dim=1, n=16, T=0.25, N=8, potential="log", alpha1=0.5,
                    alpha2=2.0, coupling="linear", mobility="constant",
                    kappa0=1.0, mu0=("bump", 0.5, 0.4, 1.0),
                    rho0=("cosine", 0.5, 0.2))
    _, cfg, laws, initial = build_run(config)
    rolling = run(cfg, laws, initial).states
    literal = growing_interval_run(cfg, laws, initial)
    fields_equal = len(rolling) == len(literal) and all(
        np.array_equal(a.mu.values, b.mu.values)
        and np.array_equal(a.rho.values, b.rho.values)
        and np.array_equal(a.xi.values, b.xi.values)
        for a, b in zip(rolling, literal))

    # the written artifacts agree bit for bit as well
    from vchsim.cli import write_manifest
    from vchsim.mesh import write_snapshot
    for name, states in (("roll", rolling), ("lit", literal)):
        d = tmp_path / name
        d.mkdir()
        for n, state in enumerate(states):
            write_snapshot(d / f"state_{n:05d}_mu.txt", state.mu, state.t)
            write_snapshot(d / f"state_{n:05d}_rho.txt", state.rho, state.t)
            write_snapshot(d / f"state_{n:05d}_xi.txt", state.xi, state.t)
        write_manifest(d)
    manifests_equal = ((tmp_path / "roll" / "manifest.txt").read_bytes()
                       == (tmp_path / "lit" / "manifest.txt").read_bytes())
    ok = fields_equal and manifests_equal
    record_acceptance(9, ok, f"N=8 rolling vs growing-interval re-solve: "
                             f"states bitwise equal: {fields_equal}, manifests "
                             f"equal: {manifests_equal}")
    assert fields_equal
    assert manifests_equal


def cell_averages(values: np.ndarray, n: int) -> np.ndarray:
    """Averages of a cell-centred field over the cells of the grid with n
    nodes per axis, each of which holds whole cells of the field's grid."""
    r = values.shape[0] // n
    blocks = values.reshape(sum(((n, r) for _ in values.shape), ()))
    return blocks.mean(axis=tuple(range(1, 2 * values.ndim, 2)))


H_ORDER_BASE = Config(T=0.05, N=16, potential="log", coupling="linear",
                      mu0=("cosine", 1.0, 0.3), rho0=("cosine", 0.5, 0.2))
# case -> (config, grid sizes, reference grid size); the same tau on every
# grid, so the error is the spatial one
H_ORDER_CASES = {
    "1-D log + constant": (H_ORDER_BASE, (16, 32, 64, 128), 512),
    "1-D log + tanhpow": (replace(H_ORDER_BASE, mobility="tanhpow"),
                          (16, 32, 64, 128), 512),
    "1-D clamp": (replace(H_ORDER_BASE, potential="clamp", alpha2=2.0,
                          rho0=("cosine", 0.5, 0.45)), (16, 32, 64, 128), 512),
    "2-D log + constant": (replace(H_ORDER_BASE, dim=2), (8, 16, 32), 128),
}


# (n, N) refined jointly, tau ~ h^2, and the bound on the contraction
# exponent at every level
CONTRACTION_REFINEMENT = ((24, 16), (48, 64), (96, 256), (192, 1024))
CONTRACTION_C_MAX = -5.0


def contraction_exponent(n: int, N: int):
    """Growth exponent C of the two-run metric in z = mu sqrt(eps + 2 g(rho))
    of criterion 6's config on (n, N), the second run's mu0 perturbed by
    1e-6 cos(3 pi x)."""
    grid, cfg, laws, (mu0, rho0) = build_run(
        replace(UNIQUENESS_CONFIG, n=n, N=N))
    (x,) = grid.coordinates()
    perturbed = field_of(grid, mu0.values + 1e-6 * np.cos(3 * np.pi * x))
    series = contraction_metric(run(cfg, laws, (mu0, rho0)),
                                run(cfg, laws, (perturbed, rho0)), laws)
    return series.growth_rate(cfg.tau)


def test_criterion_10_second_order_in_h():
    # the max-norm error of the final mu and rho against the cell averages
    # of the finest run falls fourfold each time h halves: a one-sided
    # boundary face rule, a wrong ghost closure or a misordered DCT mode
    # drops an order somewhere.  Under refinement the constant-mobility
    # contraction in z holds with an exponent bounded away from 0
    # (-12.96, -5.92, -6.53, -7.20 as measured); a potential stage with
    # its reaction coefficients b+ and b- swapped reads near -2.7
    t0 = time.monotonic()
    orders = {}
    for case, (config, sizes, reference) in H_ORDER_CASES.items():
        finest = run_cfg(replace(config, n=reference))[0].states[-1]
        errors = []
        for n in sizes:
            final = run_cfg(replace(config, n=n))[0].states[-1]
            errors.append(max(
                float(np.max(np.abs(getattr(final, name).values
                                    - cell_averages(
                                        getattr(finest, name).values, n))))
                for name in ("mu", "rho")))
        orders[case] = [float(np.log2(a / b))
                        for a, b in zip(errors, errors[1:])]
    exponents = [contraction_exponent(n, N) for n, N in CONTRACTION_REFINEMENT]
    elapsed = time.monotonic() - t0
    in_band = all(1.8 <= order <= 2.2
                  for row in orders.values() for order in row)
    contracts = all(c is not None and c <= CONTRACTION_C_MAX
                    for c in exponents)
    ok = in_band and contracts and elapsed <= 10.0
    record_acceptance(10, ok, "h-orders " + "; ".join(
        f"{case} " + " / ".join(f"{order:.2f}" for order in row)
        for case, row in orders.items())
        + " in [1.8, 2.2]; contraction exponents C = " + " / ".join(
            "none" if c is None else f"{c:.2f}" for c in exponents)
        + f" <= {CONTRACTION_C_MAX:g} at (n, N) = " + ", ".join(
            f"({n}, {N})" for n, N in CONTRACTION_REFINEMENT)
        + f"; {elapsed:.1f}s <= 10s")
    assert in_band, orders
    assert contracts, exponents
    assert elapsed <= 10.0
