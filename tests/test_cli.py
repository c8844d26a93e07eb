import gc
import hashlib
import os
import subprocess
import sys
import re
import warnings
from dataclasses import replace
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
    build_model,
    build_run,
    parse_config,
    render_config,
)
from vchsim.diagnostics import REPORT_COLUMNS, ledger_columns
from vchsim.mesh import read_snapshot


MINIMAL = "n = 16\nT = 0.5\nN = 8\n"
SRC = Path(__file__).resolve().parents[1] / "src"
# a run directory (1-D, n = 8, N = 2) written when the manifest checksums
# came from hashlib
HASHLIB_RUN = Path(__file__).resolve().parent / "data" / "hashlib_run"
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
        assert build_model(c)[1].tau == 0.0625

    def test_comments_and_blank_lines(self):
        c = parse_config("# a comment\n\nn = 16  # trailing\nT = 0.5\nN = 8\n")
        assert c.n == 16

    def test_inconsistent_tau_rejected(self):
        with pytest.raises(ConfigError, match="tau = T/N"):
            parse_config("n = 16\nT = 1\nN = 7\ntau = 0.2\n")

    def test_consistent_tau_accepted(self):
        c = parse_config("n = 16\nT = 1\nN = 8\ntau = 0.125\n")
        assert build_model(c)[1].tau == 0.125

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
    # (the data rules wait for the run: TestCliExitCodes)
    @pytest.mark.parametrize("extra,message", [
        ("dim = 3\n", "dim must be 1 or 2"),
        ("n = 2\n", "at least 3 nodes"),
        ("length = 0\n", "length must be positive"),
        ("T = -1\n", "final time must be nonnegative"),
        ("N = -1\n", "step count must be nonnegative"),
        ("N = 0\n", "N = 0 is admitted only with T = 0"),
        ("epsilon = 0\n", "epsilon and delta must be positive"),
        ("delta = -1\n", "epsilon and delta must be positive"),
        ("face_average = geometric\n", "face_average was removed"),
        ("newton_tol = 0\n", "newton_tol was removed"),
        ("linear_tol = 1e-9\n", "linear_tol was removed"),
        ("potential = log\nalpha1 = 0\n", "alpha1 must be positive"),
        ("mobility = constant\nkappa0 = 0\n", r"\(hpcost\): kappa0"),
        ("mobility = tanhpow\nm = 1\n", r"\(hpcost\): tanh-power"),
        ("coupling = constant\ng0 = -0.5\n", r"\(hpfg\)"),
        ("yosida_lambda = -1\n", "yosida_lambda was removed"),
        ("mobility_floor_tau = -0.5\n", "mobility_floor_tau was removed"),
        ("newton_max_iter = 0\n", "newton_max_iter was removed"),
        ("linear_max_iter = 7\n", "linear_max_iter was removed"),
        ("delta = inf\n", "delta must be finite, got 'inf'"),
        ("length = inf\n", "length must be finite, got 'inf'"),
        ("T = nan\n", "T must be finite, got 'nan'"),
    ])
    def test_layer_rules_rejected_with_their_code(self, extra, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL + extra)

    @pytest.mark.parametrize("line,message", [
        ("mu0 =", "line 4: empty initial-data recipe for 'mu0'"),
        ("mu0 = constant", "line 4: 'mu0 = constant <value>'"),
        ("rho0 = constant 0.5 0.5", "line 4: 'rho0 = constant <value>'"),
        ("mu0 = bump 0.5 0.2", "line 4: 'mu0 = bump <center> <radius> "
                               "<amplitude>'"),
        ("rho0 = cosine 0.5", "line 4: 'rho0 = cosine <mean> <amplitude>'"),
        ("mu0 = file", "line 4: 'mu0 = file <path>'"),
        ("mu0 = file a.txt b.txt", "line 4: 'mu0 = file <path>'"),
    ], ids=["empty", "constant_short", "constant_long", "bump", "cosine",
            "file_short", "file_long"])
    def test_recipe_syntax_rejected_with_its_line(self, line, message):
        with pytest.raises(ConfigError) as caught:
            parse_config(MINIMAL + line + "\n")
        assert str(caught.value) == message

    @pytest.mark.parametrize("extra", [
        # the retired keys at the values earlier versions rendered
        "yosida_lambda = 0\n", "mobility_floor_tau = -1\n",
        # parameters of a law that is not selected are not read
        "mobility = tanhpow\nkappa0 = 0\n", "coupling = linear\ng0 = -1\n",
        "potential = clamp\nalpha1 = 0\n", "mobility = constant\nm = 1\n",
    ])
    def test_sentinels_and_unread_parameters_accepted(self, extra):
        parse_config(MINIMAL + extra)  # the text itself is accepted

    # earlier versions wrote these keys into every run's config.txt
    @pytest.mark.parametrize("extra", [
        "sign_split_reaction = true\n", "sign_split_reaction = On\n",
        "sign_split_reaction = 1\n", "sign_split_reaction = yes\n",
        "face_average = arithmetic\n", "linear_max_iter = 0\n",
        "yosida_lambda = 0\n", "mobility_floor_tau = -1\n",
        "newton_max_iter = 50\n", "newton_tol = 1e-10\n",
        "linear_tol = 9.9999999999999994e-12\n",
        "yosida_lambda = 0\nmobility_floor_tau = -1\nnewton_max_iter = 50\n"
        "newton_tol = 1e-10\nlinear_tol = 9.9999999999999994e-12\n",
        # as render_config wrote it, and as the benchmark configs write it
        "perturb_amplitude = 9.9999999999999995e-07\n",
        "perturb_amplitude = 1e-06\n",
    ])
    def test_retired_keys_accepted_at_the_one_scheme(self, extra):
        assert parse_config(MINIMAL + extra) == parse_config(MINIMAL)

    @pytest.mark.parametrize("value,message", [
        ({"potential": "foo"}, "potential must be one of"),
        ({"mobility": "foo"}, "mobility must be one of"),
        ({"coupling": "foo"}, "coupling must be one of"),
        ({"snapshot_stride": -1}, "snapshot_stride must be nonnegative"),
        ({"study": "foo"}, "study must be one of"),
        ({"study": "perturbation"}, "study block needs study_values"),
    ], ids=["potential", "mobility", "coupling", "stride", "study",
            "study_without_values"])
    def test_config_rejects_its_own_bad_values(self, value, message):
        # no Config holds them, the copies a study makes included
        with pytest.raises(ConfigError, match=message):
            Config(**value)
        with pytest.raises(ConfigError, match=message):
            replace(Config(), **value)

    def test_sentinels_tie_to_the_step(self):
        # the Yosida parameter and the mobility floor are the step; with
        # no step the parameter is 1 and the floor 0
        _grid, cfg, _laws, _initial = build_run(parse_config(MINIMAL))
        assert cfg.yosida_lambda == cfg.mobility_floor_tau == cfg.tau == 1 / 16
        _grid, cfg, _laws, _initial = build_run(parse_config(
            "n = 16\nT = 0\nN = 0\n"))
        assert (cfg.yosida_lambda, cfg.mobility_floor_tau) == (1.0, 0.0)

    @pytest.mark.parametrize("cfg", [
        Config(),
        Config(dim=2, n=12, T=0.25, N=4, potential="log", mobility="tanhpow",
               m=2.5, mu0=("bump", 0.5, 0.25, 1.5), rho0=("cosine", 0.5, 0.2)),
        Config(coupling="constant", g0=0.7, snapshot_stride=4,
               study="tau_refinement", study_values=(16.0, 32.0, 64.0)),
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
            mu0=mu0,
            snapshot_stride=data.draw(st.integers(0, 16)),
        )
        assert parse_config(render_config(cfg)) == cfg


class TestInitialDataRecipes:
    def test_bump_is_compactly_supported(self):
        c = Config(n=64, mu0=("bump", 0.5, 0.2, 2.0))
        field = build_field(c.mu0, build_model(c)[0])
        x = build_model(c)[0].coordinates()
        outside = np.abs(x - 0.5) >= 0.2
        assert np.all(field.values[outside] == 0.0)
        assert field.max() == pytest.approx(2.0, rel=7e-3)

    def test_cosine_profile_in_2d(self):
        c = Config(dim=2, n=8, mu0=("cosine", 1.0, 0.5))
        field = build_field(c.mu0, build_model(c)[0])
        assert field.values.shape == (8, 8)
        assert field.min() >= 0.0

    def test_file_recipe_roundtrips(self, tmp_path):
        from vchsim.mesh import write_snapshot, field_of
        c = Config(n=16)
        grid = build_model(c)[0]
        orig = field_of(grid, np.linspace(0.0, 1.0, 16))
        path = tmp_path / "mu0.txt"
        write_snapshot(path, orig, 0.0)
        back = build_field(("file", str(path)), grid)
        assert np.array_equal(back.values, orig.values)

    def test_file_recipe_grid_mismatch(self, tmp_path):
        from vchsim.mesh import write_snapshot, field_of
        wrong = build_model(Config(n=8))[0]
        path = tmp_path / "mu0.txt"
        write_snapshot(path, field_of(wrong, 1.0), 0.0)
        with pytest.raises(ConfigError, match="grid"):
            build_field(("file", str(path)), build_model(Config(n=16))[0])


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
        simulate_to_dir(parse_config(LOG_TANHPOW_2D), tmp_path / "run")
        cli.diagnose_to_report(tmp_path / "run", tmp_path / "rep.csv")
        traj, laws, _ = cli.load_trajectory(tmp_path / "run")
        ledger = ledger_columns(traj, laws)
        report = _csv_columns(tmp_path / "rep.csv")
        assert len(report["step"]) == 7
        for name in REPORT_COLUMNS:
            assert report[name] == [f"{v:.17g}" for v in ledger[name]], name

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
        (RUN, "yosida_lambda = 0.5\n", "line 4: yosida_lambda was removed"),
        (RUN, "mobility_floor_tau = 0\n",
         "line 4: mobility_floor_tau was removed"),
        (RUN, "newton_max_iter = 1\n", "line 4: newton_max_iter was removed"),
        (RUN, "linear_max_iter = 7\n", "linear_max_iter was removed"),
        (RUN, "T = 4\nN = 2\nmobility = tanhpow\n",
         "violates the smallness assumption tau <= kappa_sup"),
        (RUN, "N = 2\n", "violates delta/tau != 2 alpha2 for the clamp "
                        "potential"),
        (("study",), "", "config has no study block"),
        (("study",), "study = tau_refinement\nstudy_values = 4 8 12\n"
                     "study_reference = 64\n",
         "study_reference = 64 must be a multiple of every member step count"),
        (("study",), "mobility = tanhpow\nmu0 = bump 0.5 0.2 1\n"
                     "study = degenerate_demo\nstudy_values = 12 16\n",
         "divisible by the sample count 8"),
        (("study",), "study = tau_refinement\nstudy_values = 8 16\n",
         "at least 3 sweep values"),
        (("study",), "study = tau_refinement\nstudy_values = 8 32 16\n",
         "strictly monotone"),
        (("study",), "mobility = tanhpow\nstudy = tau_refinement\n"
                     "study_values = 8 16 32\n", "nondegenerate mobility"),
        (("study",), "mu0 = bump 0.5 0.2 1\nstudy = degenerate_demo\n"
                     "study_values = 8 16\n", "tanh-power mobility"),
        (("study",), "mobility = tanhpow\nstudy = degenerate_demo\n"
                     "study_values = 8 16\n",
         "the demo expects a compact bump over a zero background"),
        (("study",), "study = tau_refinement\nstudy_values = 8 16 inf\n",
         "positive whole numbers, got inf"),
        (("study",), "study = tau_refinement\nstudy_values = 8 16.5 32\n",
         "positive whole numbers, got 16.5"),
        (("study",), "mobility = tanhpow\nmu0 = bump 0.5 0.2 1\n"
                     "study = degenerate_demo\nstudy_values = 8 16.5 32\n",
         "positive whole numbers, got 16.5"),
        (("study",), "mu0 = constant 0.001\nstudy = perturbation\n"
                     "study_values = 1e7\n",
         "(hpzero): mu0"),
        (("validate", "study"), "study = perturbation\nstudy_values = 1 0.5\n"
                                "perturb_seed = -1\n",
         "perturb_seed must be nonnegative"),
        (RUN, "mu0 = constant abc\n", "line 4: bad value for 'mu0'"),
        (RUN, "tau = abc\n", "line 4: bad value for 'tau'"),
        (RUN, "epsilon = inf\n", "line 4: epsilon must be finite"),
        (RUN, "mu0 = bump 0.5 0 1\n", "bump radius must be positive"),
        (RUN, "mu0 = constant 1e300\n",
         "the initial energy E_mu = 0.5 int (eps + 2 g(rho0)) mu0^2 is not "
         "finite (max mu0 1e+300)"),
        (RUN, "mu0 = file {tmp}/absent.txt\n", "absent.txt"),
        (RUN, "mu0 = file {tmp}/malformed.txt\n", "malformed snapshot header"),
        (RUN, "mu0 = file {tmp}/regrid.txt\n", "was written for grid"),
        (("diagnose absent",), "", "absent"),
        (("diagnose corrupt",), "", "state_00004_mu.txt"),
        (("diagnose regrid",), "", "was written for grid"),
    ], ids=["yosida_lambda", "mobility_floor_tau", "newton_max_iter",
            "linear_max_iter", "step_above_kappa_sup", "singular_clamp",
            "no_study_block", "reference_not_a_multiple",
            "demo_steps_not_divisible", "two_values", "non_monotone",
            "refinement_degenerate", "demo_constant", "demo_not_a_bump",
            "refinement_inf_steps",
            "refinement_fractional_steps", "demo_fractional_steps",
            "perturbation_negative", "negative_perturb_seed",
            "malformed_recipe_number",
            "malformed_tau", "non_finite_float", "zero_bump_radius",
            "initial_energy_overflow",
            "missing_mu0_file", "malformed_mu0_file", "mu0_file_on_other_grid",
            "missing_traj",
            "corrupt_snapshot", "snapshot_on_other_grid"])
    def test_input_errors_exit_2_before_any_step(self, tmp_path, capsys,
                                                 monkeypatch, commands,
                                                 extra, message):
        (tmp_path / "malformed.txt").write_text("1 16\n0.5\n")
        # an 8-node field whose values do not parse: the grid is checked first
        (tmp_path / "regrid.txt").write_text("1 8 1 0\n" + "x\n" * 8)
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
        # each rejection comes before any arithmetic that could warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for command in commands:
                if command == "validate":
                    argv = ["validate", "--config", path]
                elif command == "study":
                    argv = ["study", "--spec", path,
                            "--out", str(tmp_path / "s")]
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
        # a rejected command writes nothing, not even its output directory
        for written in ("out", "s", "rep.csv"):
            assert not (tmp_path / written).exists(), written

    @pytest.mark.parametrize("case", ["mu0_file_on_other_grid",
                                      "corrupt_snapshot",
                                      "snapshot_on_other_grid",
                                      "missing_mu0_file", "missing_config",
                                      "missing_run_directory"])
    def test_snapshot_errors_name_the_path_once(self, tmp_path, capsys, case):
        # the reader's own errors, and an OSError's reason, leave the path
        # to the message that wraps them
        if case in ("mu0_file_on_other_grid", "missing_mu0_file"):
            snap = tmp_path / "regrid.txt"
            if case == "mu0_file_on_other_grid":
                snap.write_text("1 8 1 0\n" + "0.5\n" * 8)
            argv = ["validate", "--config",
                    self._write(tmp_path, MINIMAL + f"mu0 = file {snap}\n")]
        elif case == "missing_config":
            snap = tmp_path / "absent.txt"
            argv = ["validate", "--config", str(snap)]
        elif case == "missing_run_directory":
            snap = tmp_path / "absent"
            argv = ["diagnose", "--traj", str(snap),
                    "--out", str(tmp_path / "rep.csv")]
        else:
            rundir = tmp_path / "run"
            assert main(["simulate", "--config", self._write(tmp_path, MINIMAL),
                         "--out", str(rundir)]) == 0
            snap = rundir / "state_00004_mu.txt"
            lines = snap.read_text().splitlines()
            lines = (lines[:3] + ["not-a-number"] + lines[4:]
                     if case == "corrupt_snapshot" else
                     ["1 8 1 0.25"] + lines[1:9])
            snap.write_text("\n".join(lines) + "\n")
            write_manifest(rundir)
            argv = ["diagnose", "--traj", str(rundir),
                    "--out", str(tmp_path / "rep.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.count(str(snap)) == 1

    # the data rules run where the run fixes its data and step, not when
    # the file is parsed
    @pytest.mark.parametrize("extra,message", [
        ("mu0 = constant -0.5\n", r"\(hpzero\): mu0"),
        ("mu0 = bump 0.5 0.2 -1\n", r"\(hpzero\): mu0"),
        ("mu0 = cosine 0.1 0.5\n", r"\(hpzero\): mu0"),
        ("mu0 = constant nan\n", "mu0 has non-finite values"),
        ("potential = clamp\nrho0 = constant 1.5\n", r"\(hpzero\): rho0"),
        ("potential = log\nrho0 = constant -0.1\n", r"\(hpzero\): rho0"),
        ("mu0 = bump 0.5 -0.3 1\n", "bump radius must be positive, got -0.3"),
    ], ids=["negative_constant_mu0", "negative_bump_mu0",
            "negative_cosine_mu0", "nan_mu0", "clamp_rho0_above_1",
            "log_rho0_below_0", "negative_bump_radius"])
    def test_data_rules_wait_for_the_run(self, tmp_path, capsys,
                                         extra, message):
        path = self._write(tmp_path, MINIMAL + extra)
        parse_config(MINIMAL + extra)  # the text itself is accepted
        out = tmp_path / "out"
        assert main(["validate", "--config", path]) == 2
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith("config error: ")
        assert re.search(message, err[0])
        assert not out.exists()

    @pytest.mark.parametrize("command,out", [
        ("simulate --config", "afile"), ("simulate --config", "afile/sub"),
        ("study --spec", "afile"), ("diagnose --traj", "adir"),
        ("diagnose --traj", "missing/rep.csv"),
    ], ids=["simulate_to_a_file", "simulate_under_a_file", "study_to_a_file",
            "diagnose_to_a_directory", "diagnose_into_a_missing_directory"])
    def test_unwritable_out_exits_2_with_one_line(self, tmp_path, capsys,
                                                  monkeypatch, command, out):
        path = self._write(tmp_path, MINIMAL + "study = tau_refinement\n"
                                              "study_values = 8 16 32\n"
                                              "study_reference = 64\n")
        run = tmp_path / "run"
        assert main(["simulate", "--config", path, "--out", str(run)]) == 0
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "adir").mkdir()
        before = sorted(tmp_path.rglob("*"))

        def no_step(*_args):
            raise AssertionError("a step ran before the rejection")

        monkeypatch.setattr(stepper, "step", no_step)
        monkeypatch.setattr(studies, "run", no_step)
        source = str(run) if command.startswith("diagnose") else path
        assert main([*command.split(), source,
                     "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot write")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "afile").read_text() == "kept\n"

    @staticmethod
    def _count_calls(monkeypatch, *functions) -> dict:
        """Count the calls of each function, under every name by which a
        vchsim module holds it."""
        counts = {f.__name__: 0 for f in functions}
        for function in functions:
            def counted(*args, _function=function):
                counts[_function.__name__] += 1
                return _function(*args)

            for name, module in list(sys.modules.items()):
                if name.startswith("vchsim"):
                    for attr, value in list(vars(module).items()):
                        if value is function:
                            monkeypatch.setattr(module, attr, counted)
        return counts

    @pytest.mark.parametrize("command,expected", [
        ("validate", (1, 2)), ("simulate", (1, 2)), ("diagnose", (0, 0))])
    def test_one_evaluation_of_the_data_rules(self, tmp_path, monkeypatch,
                                              command, expected):
        # validate and simulate check the data once and build each initial
        # field once; diagnose needs neither
        from vchsim import config as config_mod

        path = self._write(tmp_path, MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        if command == "diagnose":
            assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        counts = self._count_calls(monkeypatch, stepper.validate_initial_data,
                                   config_mod.build_field)
        argv = {"validate": ["validate", "--config", path],
                "simulate": ["simulate", "--config", path, "--out", str(out)],
                "diagnose": ["diagnose", "--traj", str(out),
                             "--out", str(tmp_path / "rep.csv")]}[command]
        assert main(argv) == 0
        assert (counts["validate_initial_data"],
                counts["build_field"]) == expected

    @pytest.mark.parametrize("case", ["file_moved", "other_directory"])
    def test_diagnose_needs_only_the_run_directory(self, tmp_path,
                                                   monkeypatch, case):
        # a run whose mu0 was read from a file is diagnosed after that file
        # moves, or from a working directory where its path means nothing
        from vchsim.mesh import field_of, write_snapshot

        data = tmp_path / "data"
        data.mkdir()
        grid = build_model(parse_config(MINIMAL))[0]
        write_snapshot(data / "mu0.txt",
                       field_of(grid, 1.0 + 0.5 * grid.coordinates()), 0.0)
        monkeypatch.chdir(data)
        recipe = "mu0.txt" if case == "other_directory" else data / "mu0.txt"
        path = self._write(tmp_path, MINIMAL + f"mu0 = file {recipe}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep.csv")]) == 0
        if case == "file_moved":
            (data / "mu0.txt").rename(tmp_path / "moved.txt")
        else:
            monkeypatch.chdir(tmp_path)
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep_after.csv")]) == 0
        assert ((tmp_path / "rep_after.csv").read_bytes()
                == (tmp_path / "rep.csv").read_bytes())

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.txt")]) == 2

    def test_solver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        # one Newton iteration cannot absorb a violent forcing
        monkeypatch.setattr(stepper, "NEWTON_MAX_ITER", 1)
        text = ("n = 16\nT = 0.5\nN = 2\npotential = log\nalpha2 = 50\n"
                "mu0 = constant 10\nrho0 = constant 0.5\n")
        path = self._write(tmp_path, text)
        assert main(["simulate", "--config", path, "--out",
                     str(tmp_path / "out")]) == 3

    def test_singular_rho_jacobian_is_named(self, tmp_path, capsys):
        # default clamp potential with tau = 1/4: delta/tau = 4 = 2 alpha2,
        # so inside [0, 1] delta/tau + d is 0 and the Jacobian is the
        # singular -L; the data rules reject the config before any step
        path = self._write(tmp_path, "n = 8\nT = 0.5\nN = 2\n")
        out = tmp_path / "out"
        assert main(["validate", "--config", path]) == 2
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0] == ("config error: violates delta/tau != 2 alpha2 for "
                          "the clamp potential: the rho-stage Jacobian is "
                          "singular inside [0, 1] (delta/tau = 4 = 2 alpha2)")
        assert not out.exists()

    @pytest.mark.parametrize("stage", ["rho", "mu"])
    def test_arithmetic_failure_in_a_stage_leaves_evidence(
            self, tmp_path, capsys, monkeypatch, stage):
        # a division by zero inside a stage, such as a Givens rotation of
        # MINRES after its residual norm overflowed
        def dividing_by_zero(*_args):
            return 1.0 / 0.0

        monkeypatch.setattr(stepper, f"step_{stage}", dividing_by_zero)
        path = self._write(tmp_path, "n = 8\nT = 0.1\nN = 2\n")
        assert main(["validate", "--config", path]) == 0
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", path,
                         "--out", str(out)]) == 3
        assert caught == []
        assert (f"arithmetic failure in the {stage} stage: float division "
                f"by zero" in capsys.readouterr().err)
        failure = (out / "failure.txt").read_text().splitlines()
        assert failure[0] == "step = 1"
        assert f"arithmetic failure in the {stage} stage" in failure[2]
        assert cli.verify_manifest(out) == []
        assert "failure.txt" in (out / "manifest.txt").read_text()

    def test_capped_conjugate_gradients_leave_evidence(self, tmp_path, capsys,
                                                       monkeypatch):
        # at a cap of one iteration MINRES still meets its target on this
        # run's first rho stage, and CG does not meet its own
        monkeypatch.setattr(stepper, "_krylov_cap", lambda _grid: 1)
        path = self._write(tmp_path, "n = 8\nT = 0.1\nN = 2\n"
                                     "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        assert ("conjugate gradients did not converge in the mu stage"
                in capsys.readouterr().err)
        failure = (out / "failure.txt").read_text().splitlines()
        assert failure[0] == "step = 1"
        assert ("conjugate gradients did not converge in the mu stage"
                in failure[2])
        assert cli.verify_manifest(out) == []

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
                                                        capsys, monkeypatch):
        monkeypatch.setattr(stepper, "NEWTON_MAX_ITER", 1)
        text = ("n = 16\nT = 0.5\nN = 2\npotential = log\nalpha2 = 50\n"
                "mu0 = constant 10\nrho0 = constant 0.5\n")
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

    @pytest.mark.parametrize("line", ["sign_split_reaction = false\n",
                                      "face_average = harmonic\n",
                                      "yosida_lambda = 0.5\n",
                                      "newton_tol = 1e-6\n",
                                      "linear_tol = 1e-8\n",
                                      "perturb_amplitude = 1e-6\n"])
    def test_retired_key_at_another_value_exits_2(self, tmp_path, capsys,
                                                  line):
        path = self._write(tmp_path, MINIMAL + line)
        assert main(["validate", "--config", path]) == 2
        key = line.partition(" =")[0]
        assert (f"config error: line 4: {key} was removed"
                in capsys.readouterr().err)

    def test_run_with_the_retired_keys_diagnoses(self, tmp_path):
        # config.txt as earlier versions rendered it, re-checksummed: the
        # report is the one of the run as written
        path = self._write(tmp_path, MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep.csv")]) == 0
        config_txt = out / "config.txt"
        text = config_txt.read_text()
        text = text.replace(
            "\nmu0 =",
            "\nyosida_lambda = 0\nnewton_tol = 1e-10\nnewton_max_iter = 50\n"
            "linear_tol = 9.9999999999999994e-12\nlinear_max_iter = 0\n"
            "sign_split_reaction = true\nmobility_floor_tau = -1\n"
            "face_average = arithmetic\n"
            "perturb_amplitude = 9.9999999999999995e-07\nmu0 =")
        assert text.count("\n") == config_txt.read_text().count("\n") + 9
        config_txt.write_text(text)
        write_manifest(out)
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep_retired.csv")]) == 0
        assert ((tmp_path / "rep_retired.csv").read_bytes()
                == (tmp_path / "rep.csv").read_bytes())

    def test_simulate_and_diagnose_clean_run(self, tmp_path):
        path = self._write(tmp_path, MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        # a file diagnose does not read need not be in the manifest
        (out / "notes.txt").write_text("unrelated\n")
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

    def test_unbounded_potential_exits_4(self, tmp_path, capsys):
        # an infinite potential value makes that step's E_mu and diss
        # non-finite and the run's max mu infinite; both gates name it.
        # The residuals then difference infinities, which numpy warns of
        path = self._write(tmp_path, MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        main(["simulate", "--config", path, "--out", str(out)])
        snap = out / "state_00004_mu.txt"
        lines = snap.read_text().splitlines()
        lines[3] = "inf"
        snap.write_text("\n".join(lines) + "\n")
        write_manifest(out)
        with pytest.warns(RuntimeWarning, match="invalid value encountered"):
            assert main(["diagnose", "--traj", str(out),
                         "--out", str(tmp_path / "rep.csv")]) == 4
        err = capsys.readouterr().err
        assert "violation: non-finite ledger entry" in err
        assert "violation: potential unbounded over the run" in err

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

    @pytest.mark.parametrize("edit", ["changed", "deleted", "unlisted",
                                      "config unlisted", "manifest emptied",
                                      "lists an absolute path",
                                      "lists a parent path"])
    def test_run_files_are_checked_against_the_manifest(self, tmp_path,
                                                        capsys, monkeypatch,
                                                        edit):
        path = self._write(tmp_path, MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        snap = out / "state_00004_mu.txt"
        manifest = out / "manifest.txt"
        if edit == "changed":
            # a harmless edit the snapshot reader would accept
            snap.write_text(snap.read_text() + "\n")
        elif edit == "deleted":
            snap.unlink()
        elif edit == "manifest emptied":
            manifest.write_text("")
        elif edit.startswith("lists"):
            # a file outside the run directory, named two ways
            outside = tmp_path / "tiny.txt"
            outside.write_text("x\n")
            name = outside if edit == "lists an absolute path" else "../tiny.txt"
            manifest.write_text(manifest.read_text() + f"0000  {name}\n")
        else:
            # the file stays as written; only its manifest line goes
            name = "config.txt" if edit == "config unlisted" else snap.name
            manifest.write_text("".join(
                line for line in manifest.read_text().splitlines(True)
                if not line.endswith(f"  {name}\n")))

        def no_read(*_args):
            raise AssertionError("a snapshot was read before the check")

        monkeypatch.setattr(cli, "read_snapshot", no_read)
        hashed = []
        sha256 = cli._sha256
        monkeypatch.setattr(cli, "_sha256",
                            lambda path: hashed.append(path) or sha256(path))
        tampered, malformed = "violation: manifest: ", "config error: "
        code, message = {
            "changed": (4, f"{tampered}checksum mismatch for {snap.name}"),
            "deleted": (4, f"{tampered}{snap.name} is missing"),
            "unlisted": (4, f"{tampered}{snap.name} is not listed"),
            "config unlisted": (4, f"{tampered}config.txt is not listed"),
            "manifest emptied": (4, f"{tampered}config.txt is not listed"),
            "lists an absolute path": (2, f"{malformed}malformed manifest line"),
            "lists a parent path": (2, f"{malformed}malformed manifest line"),
        }[edit]
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep.csv")]) == code
        assert message in capsys.readouterr().err
        assert not (tmp_path / "rep.csv").exists()
        if code == 2:
            # an input error, found before any file is hashed
            assert hashed == []

    def test_run_without_every_snapshot_exits_2(self, tmp_path, capsys):
        # the snapshots a stride-0 run never wrote are absent, not unlisted
        path = self._write(tmp_path, MINIMAL + "snapshot_stride = 0\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert main(["diagnose", "--traj", str(out),
                     "--out", str(tmp_path / "rep.csv")]) == 2
        assert ("trajectory is incomplete (missing state_00001_mu.txt)"
                in capsys.readouterr().err)

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

    def test_zero_step_oracle_study_writes_the_initial_row(self, tmp_path):
        text = ("n = 4\nT = 0\nN = 0\npotential = log\n"
                "mu0 = constant 1\nrho0 = constant 0.5\n"
                "study = homogeneous_oracle\n")
        path = self._write(tmp_path, text)
        out = tmp_path / "study"
        assert main(["study", "--spec", path, "--out", str(out)]) == 0
        assert (out / "oracle.csv").read_text().splitlines() == [
            "t,mu_stepper,rho_stepper,mu_oracle,rho_oracle", "0,1,0.5,1,0.5"]

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
                "perturb_seed = 5\n")
        path = self._write(tmp_path, text)
        out = tmp_path / "study"
        assert main(["study", "--spec", path, "--out", str(out)]) == 0
        lines = (out / "perturbation.csv").read_text().splitlines()
        assert lines[0] == "amplitude,final_metric,growth_rate"
        assert len(lines) == 3

    def test_failed_study_leaves_its_config(self, tmp_path, capsys,
                                            monkeypatch):
        # a rejected study writes nothing; one whose member run fails
        # leaves config.txt as the record of what was run
        def failing_run(*_args):
            raise stepper.SolverFailure("forced member failure", 1, 0.0)

        monkeypatch.setattr(studies, "run", failing_run)
        text = MINIMAL + ("study = tau_refinement\nstudy_values = 8 16 32\n"
                          "study_reference = 64\n")
        path = self._write(tmp_path, text)
        out = tmp_path / "study"
        assert main(["study", "--spec", path, "--out", str(out)]) == 3
        assert "forced member failure" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["config.txt"]
        assert (parse_config((out / "config.txt").read_text())
                == parse_config(text))


class TestManifestDigest:
    """manifest.txt lines are plain SHA-256 digests, so a run written while
    the checksums came from hashlib still verifies."""

    def test_lines_are_hashlib_sha256(self, tmp_path):
        config = parse_config((HASHLIB_RUN / "config.txt").read_text())
        simulate_to_dir(config, tmp_path / "run")
        for rundir in (tmp_path / "run", HASHLIB_RUN):
            lines = (rundir / "manifest.txt").read_text().splitlines()
            assert len(lines) == 11
            for line in lines:
                digest, _, name = line.partition("  ")
                assert digest == hashlib.sha256(
                    (rundir / name).read_bytes()).hexdigest()

    def test_run_written_with_hashlib_verifies(self):
        assert cli.verify_manifest(HASHLIB_RUN) == []


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
        # the rho stage's MINRES and its DCT preconditioner are numpy alone
        (tmp_path / "c.txt").write_text(MINIMAL + "mu0 = bump 0.25 0.2 1\n")
        validate = self._modules(tmp_path, "validate", "--config", "c.txt")
        assert not {"hashlib", "_hashlib"} & validate
        simulate = self._modules(tmp_path, "simulate", "--config", "c.txt",
                                 "--out", "run")
        diagnose = self._modules(tmp_path, "diagnose", "--traj", "run",
                                 "--out", "rep.csv")
        # _hashlib maps OpenSSL's libcrypto; the manifest checksums use the
        # interpreter's built-in SHA-256
        assert "_hashlib" not in simulate | diagnose
        for loaded in (validate, simulate, diagnose):
            assert not {name for name in loaded if name.split(".")[0] == "scipy"}
            # the experiment suites and the quadrature rule's
            # numpy.polynomial load only where they are used
            assert not {"vchsim.studies", "numpy.polynomial"} & loaded

    def test_indefinite_jacobian_loads_no_scipy(self, tmp_path):
        # log potential, delta = 0.1: delta/tau + min d < 0 at the first
        # Newton iteration, and MINRES takes the step with numpy alone
        (tmp_path / "c.txt").write_text(
            "dim = 2\nn = 16\nT = 1.0\nN = 4\npotential = log\ndelta = 0.1\n"
            "mu0 = bump 0.5 0.2 1.0\nrho0 = cosine 0.5 0.2\n")
        loaded = self._scipy_modules(tmp_path, "simulate", "--config", "c.txt",
                                     "--out", "run")
        assert not loaded

    def test_oracle_study_loads_the_ode_integrator(self, tmp_path):
        (tmp_path / "s.txt").write_text(
            "n = 4\nT = 0.1\nN = 10\npotential = log\ncoupling = linear\n"
            "mu0 = constant 1\nrho0 = constant 0.5\n"
            "study = homogeneous_oracle\n")
        loaded = self._modules(tmp_path, "study", "--spec", "s.txt",
                               "--out", "study")
        assert {"scipy.integrate", "vchsim.studies"} <= loaded


class TestBlasThreads:
    """The Krylov sums avoid BLAS ``ddot``, whose multithreaded sum changes
    with the thread count, so a run's manifest does not depend on it.  16384
    nodes (2-D 128^2) is long enough for OpenBLAS to split a ``ddot``."""

    @staticmethod
    def _manifests(tmp_path, config) -> list:
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
        return manifests

    def test_manifest_is_the_same_under_one_and_two_threads(self, tmp_path):
        config = ("dim = 2\nn = 128\nT = 0.0025\nN = 2\npotential = log\n"
                  "mu0 = bump 0.5 0.2 1.0\nrho0 = cosine 0.5 0.2\n")
        manifests = self._manifests(tmp_path, config)
        assert manifests[0] == manifests[1]

    def test_indefinite_manifest_is_the_same_under_one_and_two_threads(
            self, tmp_path):
        # delta/tau + min d < 0: MINRES meets indefinite Jacobians
        config = ("dim = 2\nn = 128\nT = 0.5\nN = 2\npotential = log\n"
                  "delta = 0.1\nmu0 = bump 0.5 0.2 1.0\n"
                  "rho0 = cosine 0.5 0.2\n")
        manifests = self._manifests(tmp_path, config)
        assert manifests[0] == manifests[1]


def _dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, whose
    kernel set OPENBLAS_CORETYPE picks at load time."""
    build = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = build.get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _cpu_has(*features) -> bool:
    """Whether numpy reports every one of ``features`` available here."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return all(__cpu_features__.get(f) for f in features)


# numpy's SIMD dispatch levels above AVX2 (numpy 2.x names)
NPY_AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


class TestKernelSwitches:
    """Where bitwise manifests hold across CPU kernels (docs/diagnostics.md):
    a run's manifest is the same when numpy runs its AVX2 loops in place of
    its AVX-512 ones, and, in 2-D, when OpenBLAS runs its Haswell (AVX2)
    kernels.  The 1-D DCT apply is a BLAS matrix-vector product, whose
    Haswell kernel sums in another order, so 1-D runs are not pinned to the
    BLAS kernel."""

    CONFIGS = {
        "2d": ("dim = 2\nn = 16\nT = 0.1\nN = 8\npotential = log\n"
               "mobility = tanhpow\nmu0 = bump 0.5 0.2 1.0\n"
               "rho0 = cosine 0.5 0.2\n"),
        "1d": ("n = 64\nT = 0.1\nN = 8\npotential = log\nmobility = tanhpow\n"
               "mu0 = bump 0.5 0.2 1.0\nrho0 = cosine 0.5 0.2\n"),
    }

    @staticmethod
    def _manifest(tmp_path, name, config, **env) -> str:
        cwd = tmp_path / name
        cwd.mkdir()
        (cwd / "c.txt").write_text(config)
        proc = subprocess.run(
            [sys.executable, "-m", "vchsim.cli", "simulate",
             "--config", "c.txt", "--out", "run"],
            cwd=cwd, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                     **env))
        assert proc.returncode == 0, proc.stderr[-2000:]
        return (cwd / "run" / "manifest.txt").read_text()

    def test_2d_manifest_is_the_same_under_the_haswell_blas_kernels(
            self, tmp_path):
        if not _dynamic_openblas():
            pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                        "OPENBLAS_CORETYPE selects nothing")
        if not _cpu_has("AVX2", "FMA3"):
            pytest.skip("the CPU cannot run the Haswell kernels")
        config = self.CONFIGS["2d"]
        assert (self._manifest(tmp_path, "haswell", config,
                               OPENBLAS_CORETYPE="Haswell")
                == self._manifest(tmp_path, "default", config))

    @pytest.mark.parametrize("dim", ["1d", "2d"])
    def test_manifest_is_the_same_without_numpy_avx512_loops(self, tmp_path,
                                                             dim):
        if not _cpu_has(*NPY_AVX512):
            pytest.skip(f"numpy does not run {' '.join(NPY_AVX512)} loops "
                        f"here, so there is nothing to switch off")
        config = self.CONFIGS[dim]
        assert (self._manifest(tmp_path, "avx2", config,
                               NPY_DISABLE_CPU_FEATURES=" ".join(NPY_AVX512))
                == self._manifest(tmp_path, "default", config))
