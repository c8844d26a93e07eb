import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vchsim import cli, diagnostics, stepper, studies
from vchsim.cli import main, simulate_to_dir, write_manifest, write_series
from vchsim.config import (
    Config,
    ConfigError,
    build_field,
    build_grid,
    build_run,
    parse_config,
    render_config,
)
from vchsim.diagnostics import (
    formulation_residuals,
    mu_energy_ledger,
    rho_energy_ledger,
)
from vchsim.mesh import read_snapshot


MINIMAL = "n = 16\nT = 0.5\nN = 8\n"
SRC = Path(__file__).resolve().parents[1] / "src"
LOG_TANHPOW_2D = ("dim = 2\nn = 12\nT = 0.1\nN = 6\npotential = log\n"
                  "coupling = linear\nmobility = tanhpow\nm = 2.5\n"
                  "mu0 = bump 0.5 0.3 1\nrho0 = cosine 0.5 0.2\n")


def _csv_columns(path) -> dict:
    """Column name -> list of the column's text values."""
    header, *rows = Path(path).read_text().splitlines()
    return {name: list(values) for name, values
            in zip(header.split(","), zip(*(row.split(",") for row in rows)))}


class TestParseConfig:
    def test_minimal_file_gets_documented_defaults(self):
        c = parse_config(MINIMAL)
        assert c.dim == 1
        assert c.potential == "clamp"
        assert c.mobility == "constant" and c.kappa0 == 1.0
        assert c.epsilon == 1.0 and c.delta == 1.0
        assert c.tau == 0.0625

    def test_comments_and_blank_lines(self):
        c = parse_config("# a comment\n\nn = 16  # trailing\nT = 0.5\nN = 8\n")
        assert c.n == 16

    def test_negative_constant_mu0_rejected(self):
        with pytest.raises(ConfigError, match=r"\(hpzero\)"):
            parse_config(MINIMAL + "mu0 = constant -0.5\n")

    def test_inconsistent_tau_rejected(self):
        with pytest.raises(ConfigError, match="tau = T/N"):
            parse_config("n = 16\nT = 1\nN = 7\ntau = 0.2\n")

    def test_consistent_tau_accepted(self):
        c = parse_config("n = 16\nT = 1\nN = 8\ntau = 0.125\n")
        assert c.tau == 0.125

    def test_unknown_key_is_hard_error_with_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("n = 16\nwhatever = 3\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("n = 16\nT = 0.5\nthis is not a pair\n")

    def test_nonpositive_kappa0_rejected(self):
        with pytest.raises(ConfigError, match=r"\(hpcost\)"):
            parse_config(MINIMAL + "kappa0 = 0\n")

    def test_negative_g0_rejected(self):
        with pytest.raises(ConfigError, match=r"\(hpfg\)"):
            parse_config(MINIMAL + "coupling = constant\ng0 = -1\n")

    # each rule lives in the layer that owns the value; parse_config still
    # rejects it, with the same rule code, under every law that reads it
    @pytest.mark.parametrize("extra,message", [
        ("dim = 3\n", "dim must be 1 or 2"),
        ("n = 2\n", "at least 3 nodes"),
        ("length = 0\n", "length must be positive"),
        ("T = -1\n", "final time must be nonnegative"),
        ("N = -1\n", "step count must be nonnegative"),
        ("N = 0\n", "N = 0 is admitted only with T = 0"),
        ("epsilon = 0\n", "epsilon and delta must be positive"),
        ("delta = -1\n", "epsilon and delta must be positive"),
        ("face_average = geometric\n", "face_average"),
        ("newton_tol = 0\n", "tolerances must be positive"),
        ("potential = log\nalpha1 = 0\n", "alpha1 must be positive"),
        ("mobility = constant\nkappa0 = 0\n", r"\(hpcost\): kappa0"),
        ("mobility = tanhpow\nm = 1\n", r"\(hpcost\): tanh-power"),
        ("coupling = constant\ng0 = -0.5\n", r"\(hpfg\)"),
        ("mu0 = bump 0.5 0.2 -1\n", r"\(hpzero\): mu0"),
        ("mu0 = cosine 0.1 0.5\n", r"\(hpzero\): mu0"),
        ("mu0 = constant nan\n", "mu0 has non-finite values"),
        ("potential = clamp\nrho0 = constant 1.5\n", r"\(hpzero\): rho0"),
        ("potential = log\nrho0 = constant -0.1\n", r"\(hpzero\): rho0"),
        ("yosida_lambda = -1\n", "yosida_lambda must be positive"),
        ("mobility_floor_tau = -0.5\n", "mobility_floor_tau must be nonneg"),
        ("newton_max_iter = 0\n", "newton_max_iter must be at least 1"),
        ("linear_max_iter = -5\n", "linear_max_iter must be at least 1"),
    ])
    def test_layer_rules_rejected_with_their_code(self, extra, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL + extra)

    @pytest.mark.parametrize("extra", [
        "yosida_lambda = 0\n", "mobility_floor_tau = -1\n",
        "linear_max_iter = 0\n",
        # parameters of a law that is not selected are not read
        "mobility = tanhpow\nkappa0 = 0\n", "coupling = linear\ng0 = -1\n",
        "potential = clamp\nalpha1 = 0\n", "mobility = constant\nm = 1\n",
    ])
    def test_sentinels_and_unread_parameters_accepted(self, extra):
        parse_config(MINIMAL + extra)

    def test_sentinels_tie_to_the_step(self):
        _grid, cfg, _laws, _initial = build_run(parse_config(MINIMAL))
        assert cfg.yosida_lambda == cfg.mobility_floor_tau == cfg.tau
        assert cfg.linear_max_iter is None
        _grid, cfg, _laws, _initial = build_run(parse_config(
            MINIMAL + "yosida_lambda = 0.5\nmobility_floor_tau = 0\n"
                      "linear_max_iter = 7\n"))
        assert (cfg.yosida_lambda, cfg.mobility_floor_tau,
                cfg.linear_max_iter) == (0.5, 0.0, 7)

    @pytest.mark.parametrize("cfg", [
        Config(),
        Config(dim=2, n=12, T=0.25, N=4, potential="log", mobility="tanhpow",
               m=2.5, mu0=("bump", 0.5, 0.25, 1.5), rho0=("cosine", 0.5, 0.2)),
        Config(coupling="constant", g0=0.7, sign_split_reaction=False,
               snapshot_stride=4, study="tau_refinement",
               study_values=(16.0, 32.0, 64.0)),
        Config(mu0=("file", "some/path.txt")),
    ])
    def test_parse_render_round_trip(self, cfg):
        assert parse_config(render_config(cfg)) == cfg

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_law_random_configs(self, data):
        pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False,
                        allow_infinity=False)
        mu0 = data.draw(st.one_of(
            st.tuples(st.just("constant"), pos),
            st.tuples(st.just("bump"), pos, pos, pos),
            st.tuples(st.just("cosine"), pos,
                      st.floats(min_value=0.0, max_value=1e-3))))
        cfg = Config(
            dim=data.draw(st.sampled_from([1, 2])),
            n=data.draw(st.integers(3, 128)),
            length=data.draw(pos),
            T=data.draw(pos),
            N=data.draw(st.integers(1, 512)),
            potential=data.draw(st.sampled_from(["clamp", "log"])),
            alpha1=data.draw(pos),
            alpha2=data.draw(pos),
            mobility=data.draw(st.sampled_from(["constant", "tanhpow"])),
            kappa0=data.draw(pos),
            m=data.draw(st.floats(min_value=1.001, max_value=5.0)),
            coupling=data.draw(st.sampled_from(["linear", "constant"])),
            g0=data.draw(pos),
            sign_split_reaction=data.draw(st.booleans()),
            face_average=data.draw(st.sampled_from(["arithmetic", "harmonic"])),
            mu0=mu0,
            snapshot_stride=data.draw(st.integers(0, 16)),
        )
        assert parse_config(render_config(cfg)) == cfg


class TestInitialDataRecipes:
    def test_bump_is_compactly_supported(self):
        c = Config(n=64, mu0=("bump", 0.5, 0.2, 2.0))
        field = build_field(c.mu0, build_grid(c))
        x = build_grid(c).coordinates()
        outside = np.abs(x - 0.5) >= 0.2
        assert np.all(field.values[outside] == 0.0)
        assert field.max() == pytest.approx(2.0, rel=7e-3)

    def test_cosine_profile_in_2d(self):
        c = Config(dim=2, n=8, mu0=("cosine", 1.0, 0.5))
        field = build_field(c.mu0, build_grid(c))
        assert field.values.shape == (8, 8)
        assert field.min() >= 0.0

    def test_file_recipe_roundtrips(self, tmp_path):
        from vchsim.mesh import write_snapshot, field_of
        c = Config(n=16)
        grid = build_grid(c)
        orig = field_of(grid, np.linspace(0.0, 1.0, 16))
        path = tmp_path / "mu0.txt"
        write_snapshot(path, orig, 0.0)
        back = build_field(("file", str(path)), grid)
        assert np.array_equal(back.values, orig.values)

    def test_file_recipe_grid_mismatch(self, tmp_path):
        from vchsim.mesh import write_snapshot, field_of
        wrong = build_grid(Config(n=8))
        path = tmp_path / "mu0.txt"
        write_snapshot(path, field_of(wrong, 1.0), 0.0)
        with pytest.raises(ConfigError, match="grid"):
            build_field(("file", str(path)), build_grid(Config(n=16)))


class TestWriters:
    def test_empty_rows_gives_header_only(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series(path, [], columns=("a", "b"))
        assert path.read_text() == "a,b\n"

    def test_identical_runs_have_identical_manifests(self, tmp_path):
        cfg = parse_config(MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        simulate_to_dir(cfg, tmp_path / "r1")
        simulate_to_dir(cfg, tmp_path / "r2")
        m1 = (tmp_path / "r1" / "manifest.txt").read_text()
        m2 = (tmp_path / "r2" / "manifest.txt").read_text()
        assert m1 == m2
        assert "series.csv" in m1 and "state_00000_mu.txt" in m1

    def test_simulate_holds_two_states(self, tmp_path, monkeypatch):
        # each snapshot is written as its step lands, from a loop that
        # keeps only the previous and the current state
        real_write = cli.write_snapshot
        live = []

        def counting_write(*args):
            live.append(sum(isinstance(o, stepper.SimState)
                            for o in gc.get_objects()))
            real_write(*args)

        monkeypatch.setattr(cli, "write_snapshot", counting_write)
        gc.collect()
        simulate_to_dir(parse_config("n = 16\nT = 0.5\nN = 64\n"
                                     "snapshot_stride = 1\n"), tmp_path / "run")
        assert len(live) == 3 * 65
        assert max(live) <= 3

    def test_diagnose_holds_two_states(self, tmp_path, monkeypatch):
        # diagnose reads the snapshots in one pass that keeps only the
        # previous and the current state
        simulate_to_dir(parse_config("n = 16\nT = 0.5\nN = 64\n"
                                     "snapshot_stride = 1\n"), tmp_path / "run")
        real_read = cli.read_snapshot
        live = []

        def counting_read(*args):
            live.append(sum(isinstance(o, stepper.SimState)
                            for o in gc.get_objects()))
            return real_read(*args)

        monkeypatch.setattr(cli, "read_snapshot", counting_read)
        gc.collect()
        assert cli.diagnose_to_report(tmp_path / "run", tmp_path / "rep.csv") == []
        assert len(live) == 3 * 65
        assert max(live) <= 3

    def test_report_matches_the_whole_trajectory_folds(self, tmp_path):
        # the one-pass report reproduces, bit for bit, the ledgers and
        # residuals folded over the collected trajectory
        simulate_to_dir(parse_config(
            "dim = 2\nn = 12\nT = 0.1\nN = 6\npotential = log\n"
            "coupling = linear\nmobility = tanhpow\nm = 2.5\n"
            "mu0 = bump 0.5 0.3 1\nrho0 = cosine 0.5 0.2\n"), tmp_path / "run")
        cli.diagnose_to_report(tmp_path / "run", tmp_path / "rep.csv")
        traj, laws, _ = cli.load_trajectory(tmp_path / "run")
        led = mu_energy_ledger(traj, laws)
        rho_led = rho_energy_ledger(traj, laws)
        res = formulation_residuals(traj, laws)
        expected = {
            "t": traj.times(), "E_mu": led.E_mu, "diss": led.diss,
            "extra": led.extra, "cross": led.cross,
            "mu_energy_resid": led.resid, "F_rho": rho_led.F_rho,
            "visc_cum": rho_led.visc_cum, "work_cum": rho_led.work_cum,
            "rho_violation": rho_led.violation,
            "min_mu": [s.mu.min() for s in traj.states],
            "max_mu": [s.mu.max() for s in traj.states],
            "res_mu_native": res.mu_native,
            "res_mu_kirchhoff": res.mu_kirchhoff,
            "res_rho_native": res.rho_native, "res_rho_strong": res.rho_strong,
        }
        header, *rows = (tmp_path / "rep.csv").read_text().splitlines()
        columns = dict(zip(header.split(","),
                           zip(*(row.split(",") for row in rows))))
        assert len(rows) == 7
        for name, values in expected.items():
            assert list(columns[name]) == [f"{v:.17g}" for v in values], name

    def test_series_and_report_come_from_one_fold(self, tmp_path):
        # the columns the two files share agree digit for digit, and
        # series.csv's diss_cum is the running sum of report.csv's diss
        simulate_to_dir(parse_config(LOG_TANHPOW_2D), tmp_path / "run")
        cli.diagnose_to_report(tmp_path / "run", tmp_path / "rep.csv")
        series = _csv_columns(tmp_path / "run" / "series.csv")
        report = _csv_columns(tmp_path / "rep.csv")
        assert len(series["E_mu"]) == 7
        assert series["E_mu"] == report["E_mu"]
        assert series["F_rho"] == report["F_rho"]
        diss = np.array([float(v) for v in report["diss"]])
        assert series["diss_cum"] == [f"{v:.17g}" for v in np.cumsum(diss)]

    def test_coefficients_are_formed_once_per_step(self, tmp_path,
                                                   monkeypatch):
        # the ledger and the residuals share each step's coefficient
        # fields; simulate forms them once more, in step_mu
        calls = {"diagnostics": 0, "stepper": 0}
        for module in (diagnostics, stepper):
            real = module.mu_system_coefficients

            def counting(*args, _name=module.__name__.split(".")[1],
                         _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, "mu_system_coefficients", counting)
        path = tmp_path / "c.txt"
        path.write_text("dim = 2\nn = 12\nT = 0.02\nN = 12\npotential = log\n"
                        "mobility = tanhpow\nm = 2\n"
                        "mu0 = bump 0.5 0.3 1\nrho0 = cosine 0.5 0.2\n")
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert calls == {"diagnostics": 12, "stepper": 12}
        calls.update(diagnostics=0, stepper=0)
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep.csv")]) == 0
        assert calls == {"diagnostics": 12, "stepper": 0}

    def test_snapshot_roundtrip_through_run_dir(self, tmp_path):
        cfg = parse_config(MINIMAL)
        traj = simulate_to_dir(cfg, tmp_path / "run")
        back, t = read_snapshot(tmp_path / "run" / "state_00008_mu.txt")
        assert np.array_equal(back.values, traj.states[-1].mu.values)
        assert t == traj.states[-1].t


class TestCliExitCodes:
    def _write(self, tmp_path, text, name="c.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL)
        assert main(["validate", "--config", path]) == 0

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL + "mu0 = constant -1\n")
        assert main(["validate", "--config", path]) == 2
        assert "hpzero" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,message", [
        ("rho0 = constant 1.5\n", "hpzero"),
        ("T = 1\nN = 2\nkappa0 = 0.1\n", "kappa_sup"),
    ])
    def test_validate_runs_the_simulate_data_checks(self, tmp_path, capsys,
                                                    extra, message):
        path = self._write(tmp_path, "n = 16\n" + extra)
        assert main(["validate", "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert main(["simulate", "--config", path, "--out",
                     str(tmp_path / "out")]) == 2

    RUN = ("validate", "simulate")

    @pytest.mark.parametrize("commands,extra,message", [
        (RUN, "yosida_lambda = -1\n", "yosida_lambda must be positive"),
        (RUN, "mobility_floor_tau = -0.5\n",
         "mobility_floor_tau must be nonnegative"),
        (RUN, "newton_max_iter = 0\n", "newton_max_iter must be at least 1"),
        (RUN, "linear_max_iter = -5\n", "linear_max_iter must be at least 1"),
        (("study",), "study = tau_refinement\nstudy_values = 8 16\n",
         "at least 3 sweep values"),
        (("study",), "study = tau_refinement\nstudy_values = 8 32 16\n",
         "strictly monotone"),
        (("study",), "mobility = tanhpow\nstudy = tau_refinement\n"
                     "study_values = 8 16 32\n", "nondegenerate mobility"),
        (("study",), "mu0 = bump 0.5 0.2 1\nstudy = degenerate_demo\n"
                     "study_values = 8 16\n", "tanh-power mobility"),
        (("study",), "study = tau_refinement\nstudy_values = 8 16 inf\n",
         "positive whole numbers, got inf"),
        (("study",), "study = tau_refinement\nstudy_values = 8 16.5 32\n",
         "positive whole numbers, got 16.5"),
        (("study",), "mobility = tanhpow\nmu0 = bump 0.5 0.2 1\n"
                     "study = degenerate_demo\nstudy_values = 8 16.5 32\n",
         "positive whole numbers, got 16.5"),
        (("study",), "mu0 = constant 0.001\nstudy = perturbation\n"
                     "study_values = 1\nperturb_amplitude = 10\n",
         "(hpzero): mu0"),
        (RUN, "mu0 = file {tmp}/absent.txt\n", "absent.txt"),
        (RUN, "mu0 = file {tmp}/malformed.txt\n", "malformed snapshot header"),
        (("diagnose absent",), "", "absent"),
        (("diagnose corrupt",), "", "state_00004_mu.txt"),
        (("diagnose regrid",), "", "was written for grid"),
    ], ids=["yosida_lambda", "mobility_floor_tau", "newton_max_iter",
            "linear_max_iter", "two_values", "non_monotone",
            "refinement_degenerate", "demo_constant", "refinement_inf_steps",
            "refinement_fractional_steps", "demo_fractional_steps",
            "perturbation_negative",
            "missing_mu0_file", "malformed_mu0_file", "missing_traj",
            "corrupt_snapshot", "snapshot_on_other_grid"])
    def test_input_errors_exit_2_before_any_step(self, tmp_path, capsys,
                                                 monkeypatch, commands,
                                                 extra, message):
        (tmp_path / "malformed.txt").write_text("1 16\n0.5\n")
        path = self._write(tmp_path, MINIMAL + extra.format(tmp=tmp_path))
        if commands[0] in ("diagnose corrupt", "diagnose regrid"):
            rundir = tmp_path / commands[0].split()[1]
            assert main(["simulate", "--config", path,
                         "--out", str(rundir)]) == 0
            snap = rundir / "state_00004_mu.txt"
            lines = snap.read_text().splitlines()
            if commands[0] == "diagnose corrupt":
                lines[3] = "not-a-number"
            else:
                lines = ["1 8 1 0.25"] + lines[1:9]
            snap.write_text("\n".join(lines) + "\n")
            # re-checksum, so that the edit reaches the snapshot reader
            write_manifest(rundir)

        def no_step(*_args):
            raise AssertionError("a step ran before the rejection")

        monkeypatch.setattr(stepper, "step", no_step)
        monkeypatch.setattr(studies, "run", no_step)
        for command in commands:
            if command == "validate":
                argv = ["validate", "--config", path]
            elif command == "study":
                argv = ["study", "--spec", path, "--out", str(tmp_path / "s")]
            elif command == "simulate":
                argv = ["simulate", "--config", path,
                        "--out", str(tmp_path / "out")]
            else:
                argv = ["diagnose", "--traj",
                        str(tmp_path / command.split()[1]),
                        "--out", str(tmp_path / "rep.csv")]
            assert main(argv) == 2, command
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and message in err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.txt")]) == 2

    def test_solver_failure_exits_3(self, tmp_path, capsys):
        # one Newton iteration cannot absorb a violent forcing
        text = ("n = 16\nT = 0.5\nN = 2\npotential = log\nalpha2 = 50\n"
                "newton_max_iter = 1\nmu0 = constant 10\nrho0 = constant 0.5\n")
        path = self._write(tmp_path, text)
        assert main(["simulate", "--config", path, "--out",
                     str(tmp_path / "out")]) == 3

    def test_solver_failure_leaves_evidence(self, tmp_path, capsys,
                                            monkeypatch):
        real_step_mu = stepper.step_mu
        calls = []

        def failing_third_call(*args):
            calls.append(1)
            if len(calls) == 3:
                raise stepper.StepFailure("forced mu-stage failure", 1.0)
            return real_step_mu(*args)

        monkeypatch.setattr(stepper, "step_mu", failing_third_call)
        path = self._write(tmp_path, MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        assert "forced mu-stage failure" in capsys.readouterr().err
        snapshots = sorted(p.name for p in out.glob("state_*"))
        assert snapshots == [f"state_{n:05d}_{name}.txt" for n in range(3)
                             for name in ("mu", "rho", "xi")]
        series = (out / "series.csv").read_text().splitlines()
        assert series[0].startswith("step,t,E_mu")
        assert [row.split(",")[0] for row in series[1:]] == ["0", "1", "2"]
        failure = (out / "failure.txt").read_text().splitlines()
        t2 = float(series[3].split(",")[1])
        assert failure[:2] == ["step = 3", f"t = {t2:.17g}"]
        assert failure[2].startswith("message = run aborted at t = ")
        assert "forced mu-stage failure" in failure[2]
        assert cli.verify_manifest(out) == []
        assert "failure.txt" in (out / "manifest.txt").read_text()

    def test_diagnose_of_a_failed_run_names_failure_txt(self, tmp_path,
                                                        capsys):
        text = ("n = 16\nT = 0.5\nN = 2\npotential = log\nalpha2 = 50\n"
                "newton_max_iter = 1\nmu0 = constant 10\nrho0 = constant 0.5\n")
        path = self._write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        failed = (out / "failure.txt").read_text().splitlines()[0]
        assert failed.startswith("step = ")
        capsys.readouterr()
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep.csv")]) == 2
        err = capsys.readouterr().err
        assert (f"the run failed at step {failed[len('step = '):]} "
                f"(see failure.txt)") in err
        assert "snapshot_stride" not in err
        assert not (tmp_path / "rep.csv").exists()

    def test_simulate_and_diagnose_clean_run(self, tmp_path):
        path = self._write(tmp_path, MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep.csv")]) == 0
        header = (tmp_path / "rep.csv").read_text().splitlines()[0]
        assert header.startswith("step,t,E_mu")

    def test_doctored_trajectory_exits_4(self, tmp_path, capsys):
        path = self._write(tmp_path, MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        main(["simulate", "--config", path, "--out", str(out)])
        # corrupt one potential snapshot with a negative excursion and
        # re-checksum, so that the edit reaches the positivity gate
        snap = out / "state_00004_mu.txt"
        lines = snap.read_text().splitlines()
        lines[3] = "-1.0"
        snap.write_text("\n".join(lines) + "\n")
        write_manifest(out)
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep.csv")]) == 4
        assert "violation: positivity" in capsys.readouterr().err

    def test_nan_in_a_snapshot_exits_4(self, tmp_path, capsys):
        # a NaN in xi makes the order-parameter residuals NaN; the solver
        # band gate counts it as a violation
        path = self._write(tmp_path, MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        main(["simulate", "--config", path, "--out", str(out)])
        snap = out / "state_00004_xi.txt"
        lines = snap.read_text().splitlines()
        lines[3] = "nan"
        snap.write_text("\n".join(lines) + "\n")
        write_manifest(out)
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep.csv")]) == 4
        assert ("violation: native order-parameter residual exceeds the "
                "solver band") in capsys.readouterr().err
        report = _csv_columns(tmp_path / "rep.csv")
        assert report["res_rho_native"][4] == "nan"

    @pytest.mark.parametrize("edit", ["changed", "deleted"])
    def test_run_files_are_checked_against_the_manifest(self, tmp_path,
                                                        capsys, monkeypatch,
                                                        edit):
        path = self._write(tmp_path, MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        snap = out / "state_00004_mu.txt"
        if edit == "changed":
            # a harmless edit the snapshot reader would accept
            snap.write_text(snap.read_text() + "\n")
        else:
            snap.unlink()

        def no_read(*_args):
            raise AssertionError("a snapshot was read before the check")

        monkeypatch.setattr(cli, "read_snapshot", no_read)
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep.csv")]) == 4
        expected = {"changed": "checksum mismatch for state_00004_mu.txt",
                    "deleted": "state_00004_mu.txt is missing"}[edit]
        assert f"violation: manifest: {expected}" in capsys.readouterr().err
        assert not (tmp_path / "rep.csv").exists()

    def test_study_subcommand_writes_orders(self, tmp_path):
        text = ("n = 24\nT = 0.5\nN = 8\npotential = log\nalpha1 = 1\n"
                "alpha2 = 0.5\ncoupling = constant\ng0 = 0\n"
                "mu0 = cosine 1 0.5\nrho0 = cosine 0.5 0.25\n"
                "study = tau_refinement\nstudy_values = 8 16 32\n"
                "study_reference = 64\n")
        path = self._write(tmp_path, text)
        out = tmp_path / "study"
        assert main(["study", "--spec", path, "--out", str(out)]) == 0
        orders = (out / "orders.csv").read_text().splitlines()
        assert orders[0] == "n_steps,error,order"
        assert len(orders) == 4

    def test_study_subcommand_oracle(self, tmp_path):
        text = ("n = 4\nT = 0.5\nN = 50\npotential = log\ncoupling = linear\n"
                "mu0 = constant 1\nrho0 = constant 0.5\n"
                "study = homogeneous_oracle\n")
        path = self._write(tmp_path, text)
        out = tmp_path / "study"
        assert main(["study", "--spec", path, "--out", str(out)]) == 0
        lines = (out / "oracle.csv").read_text().splitlines()
        assert lines[0] == "t,mu_stepper,rho_stepper,mu_oracle,rho_oracle"
        assert len(lines) == 52

    def test_study_subcommand_oracle_rejects_nonconstant_data(self, tmp_path):
        text = ("n = 8\nT = 0.5\nN = 10\nmu0 = cosine 1 0.5\n"
                "rho0 = constant 0.5\nstudy = homogeneous_oracle\n")
        path = self._write(tmp_path, text)
        assert main(["study", "--spec", path,
                     "--out", str(tmp_path / "s")]) == 2

    def test_study_subcommand_degenerate(self, tmp_path):
        text = ("n = 48\nlength = 4\nT = 0.5\nN = 16\npotential = clamp\n"
                "coupling = constant\ng0 = 0\nmobility = tanhpow\nm = 2\n"
                "mu0 = bump 2 0.25 1\nrho0 = constant 0.5\n"
                "study = degenerate_demo\nstudy_values = 16 32\n")
        path = self._write(tmp_path, text)
        out = tmp_path / "study"
        assert main(["study", "--spec", path, "--out", str(out)]) == 0
        lines = (out / "degenerate.csv").read_text().splitlines()
        assert lines[0] == "n_steps,t,radius,radius_control,ktau_vnorm_sup"
        assert len(lines) == 1 + 2 * 8

    def test_study_subcommand_perturbation(self, tmp_path):
        text = ("n = 16\nT = 0.25\nN = 8\npotential = log\ncoupling = linear\n"
                "mu0 = constant 1\nrho0 = cosine 0.5 0.2\n"
                "study = perturbation\nstudy_values = 1 0.5\n"
                "perturb_amplitude = 1e-6\nperturb_seed = 5\n")
        path = self._write(tmp_path, text)
        out = tmp_path / "study"
        assert main(["study", "--spec", path, "--out", str(out)]) == 0
        lines = (out / "perturbation.csv").read_text().splitlines()
        assert lines[0] == "amplitude,final_metric,growth_rate"
        assert len(lines) == 3


class TestImportBudget:
    """Each command loads only the scipy, hashlib and package modules it
    uses: which
    modules a fresh ``python -m vchsim.cli`` process imports, read from its
    ``-X importtime`` report (which modules, not how long they take)."""

    @staticmethod
    def _modules(cwd, *args) -> set:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "vchsim.cli", *args],
            cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return {line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}

    @classmethod
    def _scipy_modules(cls, cwd, *args) -> set:
        return {name for name in cls._modules(cwd, *args)
                if name.split(".")[0] == "scipy"}

    def test_run_commands(self, tmp_path):
        # delta/tau = 16 outweighs the concave part 2 alpha2 = 4, so every
        # rho-stage Jacobian is SPD and SuperLU (scipy.sparse) is not needed;
        # the DCT preconditioner is numpy matrix products
        (tmp_path / "c.txt").write_text(MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        validate = self._modules(tmp_path, "validate", "--config", "c.txt")
        # hashlib maps libcrypto; only the manifest checksums need it
        assert not {"hashlib", "_hashlib"} & validate
        simulate = self._modules(tmp_path, "simulate", "--config", "c.txt",
                                 "--out", "run")
        diagnose = self._modules(tmp_path, "diagnose", "--traj", "run",
                                 "--out", "rep.csv")
        for loaded in (validate, simulate, diagnose):
            assert not {name for name in loaded if name.split(".")[0] == "scipy"}
            # the experiment suites and the quadrature rule's
            # numpy.polynomial load only where they are used
            assert not {"vchsim.studies", "numpy.polynomial"} & loaded

    def test_indefinite_jacobian_loads_the_sparse_solver(self, tmp_path):
        # log potential, delta = 0.1: delta/tau + min d < 0 at the first
        # Newton iteration, so SuperLU takes the step
        (tmp_path / "c.txt").write_text(
            "dim = 2\nn = 16\nT = 1.0\nN = 4\npotential = log\ndelta = 0.1\n"
            "mu0 = bump 0.5 0.2 1.0\nrho0 = cosine 0.5 0.2\n")
        loaded = self._scipy_modules(tmp_path, "simulate", "--config", "c.txt",
                                     "--out", "run")
        assert {"scipy.sparse", "scipy.sparse.linalg"} <= loaded
        assert not {"scipy.fft", "scipy.integrate"} & loaded

    def test_oracle_study_loads_the_ode_integrator(self, tmp_path):
        (tmp_path / "s.txt").write_text(
            "n = 4\nT = 0.1\nN = 10\npotential = log\ncoupling = linear\n"
            "mu0 = constant 1\nrho0 = constant 0.5\n"
            "study = homogeneous_oracle\n")
        loaded = self._modules(tmp_path, "study", "--spec", "s.txt",
                               "--out", "study")
        assert {"scipy.integrate", "vchsim.studies"} <= loaded


class TestBlasThreads:
    """The CG sums avoid BLAS ``ddot``, whose multithreaded sum changes with
    the thread count, so a run's manifest does not depend on it.  16384
    nodes (2-D 128^2) is long enough for OpenBLAS to split a ``ddot``."""

    def test_manifest_is_the_same_under_one_and_two_threads(self, tmp_path):
        config = ("dim = 2\nn = 128\nT = 0.0025\nN = 2\npotential = log\n"
                  "mu0 = bump 0.5 0.2 1.0\nrho0 = cosine 0.5 0.2\n")
        manifests = []
        for threads in ("1", "2"):
            cwd = tmp_path / f"threads{threads}"
            cwd.mkdir()
            (cwd / "c.txt").write_text(config)
            proc = subprocess.run(
                [sys.executable, "-m", "vchsim.cli", "simulate",
                 "--config", "c.txt", "--out", "run"],
                cwd=cwd, capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC),
                         OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr[-2000:]
            manifests.append((cwd / "run" / "manifest.txt").read_text())
        assert manifests[0] == manifests[1]
