"""Command-line front end: simulate, diagnose, study, validate.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 diagnostic violation.  Floating-point output is lossless: CSVs and
headers are written with ``%.17g``, field snapshots in the fixed 18-digit
layout of :func:`vchsim.mesh.write_snapshot`.  Every output directory gets
a manifest of content checksums, so identical runs are identical byte for
byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import (
    Config,
    ConfigError,
    build_model,
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
    LINEAR_TOL,
    NEWTON_TOL,
    SimState,
    SolverFailure,
    Trajectory,
    ValidationError,
    iterate,
    validate_initial_data,
)


def _fmt(value) -> str:
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
    # the interpreter's built-in SHA-256 (_sha2 from Python 3.12, _sha256
    # before): hashlib's OpenSSL backend maps libcrypto, 3.6 MB of resident
    # memory that set the peak of simulate and diagnose.  Same digest.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # an interpreter built without them
        from hashlib import sha256
    return sha256(path.read_bytes()).hexdigest()


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


def _read_manifest(rundir) -> dict:
    """The checksum manifest.txt lists for each file name.  An unreadable or
    malformed manifest is an input error; so is a listed name that is not a
    bare file name, which could point outside the run directory."""
    manifest = Path(rundir) / "manifest.txt"
    try:
        lines = manifest.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {str(manifest)!r}: "
                          f"{exc.strerror}") from exc
    listed = {}
    for line in lines:
        digest, sep, name = line.partition("  ")
        if not sep or name in ("", "..") or Path(name).name != name:
            raise ConfigError(f"malformed manifest line {line!r} in "
                              f"{str(manifest)!r}")
        listed[name] = digest
    return listed


def verify_manifest(rundir) -> list:
    """Check every file manifest.txt lists against its checksum; returns one
    problem per file that is missing or has changed (empty when all match).
    An unreadable or malformed manifest is an input error."""
    return _changed(Path(rundir), _read_manifest(rundir))


def _changed(rundir: Path, listed: dict) -> list:
    """:func:`verify_manifest` of an already parsed listing."""
    problems = []
    for name, digest in listed.items():
        path = rundir / name
        if not path.is_file():
            problems.append(f"manifest: {name} is missing")
        elif _sha256(path) != digest:
            problems.append(f"manifest: checksum mismatch for {name}")
    return problems


def _unlisted(rundir: Path, listed: dict, names) -> list:
    """One problem per file of ``names`` that is in the directory but not
    in the manifest's listing, so that no file is read unchecked."""
    return [f"manifest: {name} is not listed" for name in names
            if name not in listed and (rundir / name).exists()]


# the state fields each stored step writes, one snapshot file each
_SNAPSHOT_FIELDS = ("mu", "rho", "xi")


def _snapshot_name(n: int, name: str) -> str:
    return f"state_{n:05d}_{name}.txt"


def _write_state(outdir: Path, n: int, state: SimState) -> None:
    for name in _SNAPSHOT_FIELDS:
        write_snapshot(outdir / _snapshot_name(n, name),
                       getattr(state, name), state.t)


def _check_out_dir(outdir: Path) -> None:
    """Reject an --out directory that could not be made, before any work:
    the nearest of it and its parents that exists must be a directory."""
    existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write output directory {str(outdir)!r}: "
                          f"{str(existing)!r} is not a directory")


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
    A run rejected by its data rules, or an --out that cannot be a
    directory, writes nothing, not even the directory.
    """
    outdir = Path(outdir)
    _check_out_dir(outdir)
    _grid, cfg, laws, initial = build_run(config)
    steps = iterate(cfg, laws, initial)  # checks the data before any file
    outdir.mkdir(parents=True, exist_ok=True)
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
        raise ConfigError(f"the run failed at step {step} (see failure.txt); "
                          f"diagnose needs a completed run")
    prev = None
    for n in range(cfg.n_steps + 1):
        snaps = []
        for name in _SNAPSHOT_FIELDS:
            path = rundir / _snapshot_name(n, name)
            if not path.exists():
                raise ConfigError(
                    f"trajectory is incomplete (missing {path.name}); "
                    f"diagnose needs snapshot_stride = 1")
            try:
                snaps.append(read_snapshot(path, grid))
            except (OSError, ValueError) as exc:
                raise ConfigError(
                    f"cannot read snapshot {str(path)!r}: "
                    f"{ConfigError.reason(exc)}") from exc
        (mu, t), (rho, _), (xi, _) = snaps
        dt_rho = (field_of(grid, 0.0) if prev is None else ScalarField(
            grid, (rho.values - prev.rho.values) / cfg.tau))
        prev = SimState(t=t, mu=mu, rho=rho, xi=xi, dt_rho=dt_rho)
        yield prev


def load_trajectory(rundir):
    """Rebuild (trajectory, laws, config) from a simulate output directory
    alone: the states of :func:`read_states`, collected."""
    rundir = Path(rundir)
    config = _load_config(rundir / "config.txt")
    grid, cfg, laws = build_model(config)
    return Trajectory(list(read_states(rundir, grid, cfg)), cfg=cfg), laws, config


def diagnose_to_report(rundir, report_path) -> list:
    """Compute the full diagnostic report for a stored run from its
    directory alone (the initial data are not rebuilt); returns the list
    of violated checks (empty when the run is clean).  A report path that
    is a directory, or whose directory does not exist, is an input error
    found before any file is read.  The run's files are then checked
    against manifest.txt; a missing or changed file, and a
    file diagnose reads (config.txt, each snapshot) that the manifest does
    not list, is reported as a violation, and nothing is loaded or
    diagnosed.

    The snapshots are then read in one pass that holds two states, and
    the ledger fold (the one behind series.csv, here with the residuals)
    makes each report.csv row; the gates read the rows against the
    stepper's stopping targets, ``NEWTON_TOL`` and ``LINEAR_TOL``, and a
    NaN counts as a violation.  report.csv is written once the last state
    has been read, so an unreadable run leaves no report.
    """
    rundir, report_path = Path(rundir), Path(report_path)
    if report_path.is_dir() or not report_path.parent.is_dir():
        raise ConfigError(f"cannot write report {str(report_path)!r}: not "
                          f"a file in an existing directory")
    listed = _read_manifest(rundir)
    tampered = (_changed(rundir, listed)
                + _unlisted(rundir, listed, ["config.txt"]))
    if tampered:
        return tampered
    config = _load_config(rundir / "config.txt")
    grid, cfg, laws = build_model(config)
    tampered = _unlisted(rundir, listed, [_snapshot_name(n, name)
                                          for n in range(cfg.n_steps + 1)
                                          for name in _SNAPSHOT_FIELDS])
    if tampered:
        return tampered
    fold = LedgerFold(cfg, laws, residuals=True)
    rows = [fold.row(state) for state in read_states(rundir, grid, cfg)]
    write_series(report_path, rows, REPORT_COLUMNS)

    def column(name):
        return np.array([row[name] for row in rows])

    violations = []
    min_mu = column("min_mu").min()
    if not min_mu >= -10.0 * LINEAR_TOL:
        violations.append(f"positivity: min mu = {min_mu:.3e} "
                          f"below -10*LINEAR_TOL")
    solver_band = 10.0 * (NEWTON_TOL + LINEAR_TOL)
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
    """Run the study block of a config, then write config.txt, the study's
    table and the manifest into a directory.  Each study checks its rules
    and every member's data before its first step, and the directory is
    made only once the study has run, so a rejected study writes nothing;
    an --out that cannot be a directory is rejected before the first
    member runs.  A solver failure leaves only config.txt and is
    re-raised."""
    # imported here: only the study command needs the experiment suites
    from .studies import STUDIES

    outdir = Path(outdir)
    _check_out_dir(outdir)
    if config.study not in STUDIES:
        raise ConfigError("config has no study block")
    name, columns, study = STUDIES[config.study]

    def start():
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "config.txt").write_text(render_config(config))

    try:
        rows = study(config)
    except SolverFailure:
        start()
        raise
    start()
    write_series(outdir / name, rows, columns)
    write_manifest(outdir)


# ---------------------------------------------------------------------------


def _load_config(path) -> Config:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {str(path)!r}: "
                          f"{exc.strerror}") from exc
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
            simulate_to_dir(_load_config(args.config), args.out)
        elif args.command == "validate":
            _grid, cfg, laws, (mu0, rho0) = build_run(_load_config(args.config))
            validate_initial_data(mu0, rho0, cfg, laws)
            print("config ok")
        elif args.command == "study":
            run_study(_load_config(args.spec), args.out)
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
