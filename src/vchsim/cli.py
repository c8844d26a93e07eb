"""Command-line front end: simulate, diagnose, study, validate.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 diagnostic violation.  All floating-point output is written with 17
significant digits, and every output directory gets a manifest of content
checksums, so identical runs are identical byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import (
    Config,
    ConfigError,
    build_run,
    parse_config,
    render_config,
)
# formulation_residuals and the two ledgers are not called here; they stay
# cli attributes because perfbench/traced.py wraps them by name
from .diagnostics import (
    REPORT_COLUMNS,
    SERIES_COLUMNS,
    LedgerFold,
    formulation_residuals,
    mu_energy_ledger,
    rho_energy_ledger,
)
from .mesh import ScalarField, field_of, read_snapshot, write_snapshot
from .stepper import (
    SimState,
    SolverFailure,
    Trajectory,
    ValidationError,
    iterate,
    validate_initial_data,
)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _csv_row(row, columns) -> str:
    return ",".join(_fmt(row[c]) for c in columns) + "\n"


def write_series(path, rows, columns=SERIES_COLUMNS) -> None:
    """CSV with a fixed column order and lossless float formatting."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(_csv_row(row, columns) for row in rows)


def _sha256(path: Path) -> str:
    # imported here: hashlib maps libcrypto, which validate does not need
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(outdir) -> Path:
    """Checksum every file in the directory into manifest.txt (sorted)."""
    outdir = Path(outdir)
    lines = []
    for p in sorted(outdir.iterdir()):
        if p.name == "manifest.txt" or p.is_dir():
            continue
        lines.append(f"{_sha256(p)}  {p.name}")
    manifest = outdir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def verify_manifest(rundir) -> list:
    """Check every file manifest.txt lists against its checksum; returns one
    problem per file that is missing or has changed (empty when all match).
    An unreadable or malformed manifest is an input error."""
    manifest = Path(rundir) / "manifest.txt"
    try:
        lines = manifest.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {str(manifest)!r}: {exc}") from exc
    problems = []
    for line in lines:
        digest, sep, name = line.partition("  ")
        if not (sep and name):
            raise ConfigError(f"malformed manifest line {line!r} in "
                              f"{str(manifest)!r}")
        path = manifest.parent / name
        if not path.is_file():
            problems.append(f"manifest: {name} is missing")
        elif _sha256(path) != digest:
            problems.append(f"manifest: checksum mismatch for {name}")
    return problems


def _write_state(outdir: Path, n: int, state: SimState) -> None:
    for name in ("mu", "rho", "xi"):
        write_snapshot(outdir / f"state_{n:05d}_{name}.txt",
                       getattr(state, name), state.t)


def simulate_to_dir(config: Config, outdir) -> Trajectory:
    """Run a config and write the canonical artifact set into a directory:
    the rendered config, series.csv, per-step field snapshots at the
    configured stride, and the checksum manifest.

    The run is streamed: each series.csv row and each due snapshot is
    written as its step lands, and only the previous and the current state
    are held.  Returns a trajectory of the final state and every step's
    report.  On a solver failure the completed steps' rows and snapshots
    stay, the last completed state is written, failure.txt records the
    failed step, the manifest is written, and the failure is re-raised.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _grid, cfg, laws, initial = build_run(config)
    steps = iterate(cfg, laws, initial)  # checks the data before any file
    (outdir / "config.txt").write_text(render_config(config))
    stride, last = config.snapshot_stride, cfg.n_steps
    fold = LedgerFold(cfg, laws)
    reports = []
    try:
        with open(outdir / "series.csv", "w") as fh:
            fh.write(",".join(SERIES_COLUMNS) + "\n")
            for n, (state, report) in enumerate(steps):
                fh.write(_csv_row(fold.row(state, report), SERIES_COLUMNS))
                if stride and n % stride == 0 or n in (0, last):
                    _write_state(outdir, n, state)
                if report is not None:
                    reports.append(report)
    except SolverFailure as exc:
        # rewriting a snapshot already due gives the same bytes
        _write_state(outdir, fold.step, fold.prev)
        (outdir / "failure.txt").write_text(
            f"step = {exc.step}\nt = {exc.t:.17g}\nmessage = {exc}\n")
        write_manifest(outdir)
        raise
    write_manifest(outdir)
    return Trajectory([fold.prev], reports, cfg=cfg)


def read_states(rundir, grid, cfg):
    """Yield each state stored in a simulate output directory, in step
    order.  Only the previous state is kept, to difference ``dt_rho``.

    Ledgers need every step, so the directory must have been written with
    snapshot_stride = 1.  A run that failed (it left a failure.txt) has no
    complete trajectory and is refused before any snapshot is read.
    """
    rundir = Path(rundir)
    failure = rundir / "failure.txt"
    if failure.exists():
        step = next((line.partition(" = ")[2]
                     for line in failure.read_text().splitlines()
                     if line.startswith("step = ")), "?")
        raise ConfigError(f"the run failed at step {step} (see {failure.name}); "
                          f"diagnose needs a completed run")
    prev = None
    for n in range(cfg.n_steps + 1):
        snaps = []
        for name in ("mu", "rho", "xi"):
            path = rundir / f"state_{n:05d}_{name}.txt"
            if not path.exists():
                raise ConfigError(
                    f"trajectory is incomplete (missing {path.name}); "
                    f"diagnose needs snapshot_stride = 1")
            try:
                field, t = read_snapshot(path)
            except (OSError, ValueError) as exc:
                raise ConfigError(
                    f"cannot read snapshot {str(path)!r}: {exc}") from exc
            if field.grid != grid:
                raise ConfigError(f"snapshot {str(path)!r} was written for "
                                  f"grid {field.grid}, run uses {grid}")
            snaps.append((field, t))
        (mu, t), (rho, _), (xi, _) = snaps
        dt_rho = (field_of(grid, 0.0) if prev is None else ScalarField(
            grid, (rho.values - prev.rho.values) / cfg.tau))
        prev = SimState(t=t, mu=mu, rho=rho, xi=xi, dt_rho=dt_rho)
        yield prev


def load_trajectory(rundir):
    """Rebuild (trajectory, laws, config) from a simulate output directory:
    the states of :func:`read_states`, collected."""
    rundir = Path(rundir)
    config = _load_config(rundir / "config.txt")
    grid, cfg, laws, _initial = build_run(config)
    return Trajectory(list(read_states(rundir, grid, cfg)), cfg=cfg), laws, config


def diagnose_to_report(rundir, report_path) -> list:
    """Compute the full diagnostic report for a stored run; returns the list
    of violated checks (empty when the run is clean).  The run's files are
    first checked against manifest.txt; a missing or changed file is
    reported as a violation, and nothing is loaded or diagnosed.

    The snapshots are then read in one pass that holds two states, and
    the ledger fold (the one behind series.csv, here with the residuals)
    makes each report.csv row; the gates read the rows, and a NaN counts
    as a violation.  report.csv is written once the last state has been
    read, so an unreadable run leaves no report.
    """
    tampered = verify_manifest(rundir)
    if tampered:
        return tampered
    rundir = Path(rundir)
    config = _load_config(rundir / "config.txt")
    grid, cfg, laws, _initial = build_run(config)
    fold = LedgerFold(cfg, laws, residuals=True)
    rows = [fold.row(state) for state in read_states(rundir, grid, cfg)]
    write_series(report_path, rows, REPORT_COLUMNS)

    def column(name):
        return np.array([row[name] for row in rows])

    violations = []
    min_mu = column("min_mu").min()
    if not min_mu >= -10.0 * cfg.linear_tol:
        violations.append(f"positivity: min mu = {min_mu:.3e} "
                          f"below -10*linear_tol")
    solver_band = 10.0 * (cfg.newton_tol + cfg.linear_tol)
    if not column("res_mu_native").max() <= solver_band:
        violations.append("native potential-stage residual exceeds the solver band")
    if not column("res_rho_native").max() <= solver_band:
        violations.append("native order-parameter residual exceeds the solver band")
    if np.any(np.isinf(column("F_rho"))):
        violations.append("free energy infinite: rho escaped the potential domain")
    for name in ("E_mu", "diss"):
        if not np.all(np.isfinite(column(name))):
            violations.append("non-finite ledger entry")
            break
    if not np.isfinite(column("max_mu").max()):
        violations.append("potential unbounded over the run")
    return violations


def run_study(config: Config, outdir) -> None:
    # imported here: only the study command needs the experiment suites
    from .studies import (
        StudySpec,
        degenerate_demo,
        homogeneous_oracle,
        perturbation_pairs,
        tau_refinement,
    )

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.txt").write_text(render_config(config))
    if config.study == "tau_refinement":
        spec = StudySpec(base=config, values=tuple(config.study_values),
                         reference=config.study_reference)
        table = tau_refinement(spec)
        rows = [{"n_steps": v, "error": e,
                 "order": o if o is not None else float("nan")}
                for v, e, o in table.rows]
        write_series(outdir / "orders.csv", rows, ("n_steps", "error", "order"))
    elif config.study == "homogeneous_oracle":
        grid, cfg, laws, (mu0, rho0) = build_run(config)
        if np.ptp(mu0.values) or np.ptp(rho0.values):
            raise ConfigError("the oracle study needs spatially constant data")
        report = homogeneous_oracle(grid, cfg, laws,
                                    float(mu0.values.flat[0]),
                                    float(rho0.values.flat[0]))
        rows = [{"t": report.t[i],
                 "mu_stepper": report.mu_stepper[i],
                 "rho_stepper": report.rho_stepper[i],
                 "mu_oracle": report.mu_oracle[i],
                 "rho_oracle": report.rho_oracle[i]}
                for i in range(len(report.t))]
        write_series(outdir / "oracle.csv", rows,
                     ("t", "mu_stepper", "rho_stepper", "mu_oracle", "rho_oracle"))
    elif config.study == "degenerate_demo":
        report = degenerate_demo(config, step_counts=config.study_values)
        rows = []
        for n_steps in report.step_counts:
            for i, t in enumerate(report.sample_times):
                rows.append({"n_steps": n_steps, "t": t,
                             "radius": report.radii[n_steps][i],
                             "radius_control": report.control_radii[n_steps][i],
                             "ktau_vnorm_sup": report.ktau_vnorm_sup[n_steps]})
        write_series(outdir / "degenerate.csv", rows,
                     ("n_steps", "t", "radius", "radius_control", "ktau_vnorm_sup"))
    elif config.study == "perturbation":
        report = perturbation_pairs(config, tuple(config.perturb_amplitude * v
                                                  for v in config.study_values),
                                    seed=config.perturb_seed)
        rows = [{"amplitude": a, "final_metric": m,
                 "growth_rate": r if r is not None else float("nan")}
                for a, m, r in zip(report.amplitudes, report.final_metrics,
                                   report.growth_rates)]
        write_series(outdir / "perturbation.csv", rows,
                     ("amplitude", "final_metric", "growth_rate"))
    else:
        raise ConfigError("config has no study block")
    write_manifest(outdir)


# ---------------------------------------------------------------------------


def _load_config(path) -> Config:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from exc
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vchsim",
        description="Desk-scale simulator for a singular/degenerate viscous "
                    "Cahn-Hilliard system with delay-decoupled stepping.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a config and write artifacts")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)

    p_diag = sub.add_parser("diagnose", help="post-hoc checks on a stored run")
    p_diag.add_argument("--traj", required=True)
    p_diag.add_argument("--out", required=True)

    p_study = sub.add_parser("study", help="run the study block of a config")
    p_study.add_argument("--spec", required=True)
    p_study.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="parse and hypothesis-check only")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            config = _load_config(args.config)
            simulate_to_dir(config, args.out)
        elif args.command == "validate":
            config = _load_config(args.config)
            _grid, cfg, laws, (mu0, rho0) = build_run(config)
            validate_initial_data(mu0, rho0, cfg, laws)
            print("config ok")
        elif args.command == "study":
            config = _load_config(args.spec)
            run_study(config, args.out)
        elif args.command == "diagnose":
            violations = diagnose_to_report(args.traj, args.out)
            if violations:
                for v in violations:
                    print(f"violation: {v}", file=sys.stderr)
                return 4
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
