"""Traced run: per-layer spans, self times and layer microbenchmarks.

Runs in the benchmark's own process against the source tree.  Spans are
recorded only from this file: around the calls the traced driver makes,
and around module functions the CLI and the studies call, by swapping the
module attribute for a recording wrapper for the duration of the run.
Nothing inside the program is edited.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
from vchsim import cli, constitutive as cons, diagnostics, mesh, stepper, studies
from vchsim import config as config_mod

import workloads

# Where a workload's stepper dominates, the step spans must cover this share
# of the traced simulate time, or the spans miss where the time goes.
MIN_STEP_SHARE = {"grid2d_const": 0.85}


class Tracer:
    """In-memory span recorder.  A span is (name, start, end, parent span,
    run id) plus any counts recorded at the same boundary."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.run_id = ""

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def patched(self, targets):
        """Wrap ``module.attr`` in a span for each (module, attr, span name,
        counter) target; counter(result, args) returns counts to record."""
        saved = []
        for module, attr, name, counter in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, counter))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counter is not None:
                    rec.update(counter(result, args))
            return result
        return traced

    def of(self, name: str, run: str) -> list:
        return [s for s in self.spans if s["name"] == name and s["run"] == run]

    def total(self, name: str, run: str) -> float:
        return sum(s["end"] - s["start"] for s in self.of(name, run))

    def under(self, name: str, root: str, run: str) -> float:
        """Summed duration of ``name`` spans that have a ``root`` ancestor."""
        total = 0.0
        for s in self.of(name, run):
            parent = s["parent"]
            while parent is not None and self.spans[parent]["name"] != root:
                parent = self.spans[parent]["parent"]
            if parent is not None:
                total += s["end"] - s["start"]
        return total

    def self_times(self) -> dict:
        """Per (run, span name): summed duration minus the part covered by
        child spans (children never overlap: one thread, one stack)."""
        child_time = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        out = {}
        for s in self.spans:
            key = f"{s['run']}:{s['name']}"
            out[key] = out.get(key, 0.0) + (s["end"] - s["start"]
                                            - child_time.get(s["id"], 0.0))
        return out


def _layer_targets():
    """Module functions the CLI path calls by module-global name."""
    def newton(result, _args):
        return {"newton_iters": result[2]}

    def cg(result, _args):
        return {"cg_iters": result[1]}

    return [
        (stepper, "step_rho", "stepper.step_rho", newton),
        (stepper, "step_mu", "stepper.step_mu", cg),
        (studies, "run", "studies.member_run", None),
        (studies, "contraction_metric", "diagnostics.contraction_metric", None),
        (diagnostics, "mu_energy_ledger", "diagnostics.mu_energy_ledger", None),
        (diagnostics, "rho_energy_ledger", "diagnostics.rho_energy_ledger", None),
        (diagnostics, "K_tau_array", "constitutive.K_tau_array", None),
        (cli, "load_trajectory", "cli.load_trajectory", None),
        (cli, "read_snapshot", "mesh.read_snapshot", None),
        (cli, "mu_energy_ledger", "diagnostics.mu_energy_ledger", None),
        (cli, "rho_energy_ledger", "diagnostics.rho_energy_ledger", None),
        (cli, "formulation_residuals", "diagnostics.formulation_residuals", None),
        (cli, "write_manifest", "cli.write_manifest", None),
    ]


# ---------------------------------------------------------------------------
# traced driver


def drive(tracer: Tracer, config, outdir: Path):
    """What ``simulate_to_dir`` does, with the step loop in the benchmark:
    build_run, then step_rho and step_mu per step.  The delayed potential
    of each step is the previous state's mu, held here; neither ``run``
    nor ``delayed_mu`` is called.  Step and manifest spans come from the
    wrappers ``Tracer.patched`` installs on the stepper and cli modules."""
    outdir.mkdir(parents=True, exist_ok=True)
    with tracer.span("config.build_run"):
        _grid, cfg, laws, (mu0, rho0) = config_mod.build_run(config)
    stepper.validate_initial_data(mu0, rho0, cfg, laws)
    state = stepper.initial_state(mu0, rho0, cfg, laws)
    states, reports = [state], []
    for _ in range(cfg.n_steps):
        mu_prev = state.mu
        rho_new, xi_new, n_iters, n_res = stepper.step_rho(
            state, mu_prev, cfg, laws)
        dt_rho = mesh.ScalarField(state.grid,
                                  (rho_new.values - state.rho.values) / cfg.tau)
        mu_new, cg_iters, cg_res = stepper.step_mu(state, rho_new, dt_rho,
                                                   cfg, laws)
        state = stepper.SimState(t=state.t + cfg.tau, mu=mu_new, rho=rho_new,
                                 xi=xi_new, dt_rho=dt_rho)
        states.append(state)
        reports.append(stepper.StepReport(
            newton_iters=n_iters, newton_residual=n_res,
            linear_iters=cg_iters, linear_residual=cg_res,
            min_mu=mu_new.min(), max_mu=mu_new.max(),
            rho_range=(rho_new.min(), rho_new.max())))
    traj = stepper.Trajectory(states, reports, cfg=cfg)

    (outdir / "config.txt").write_text(config_mod.render_config(config))
    with tracer.span("diagnostics.series_rows"):
        rows = diagnostics.series_rows(traj, laws)
    cli.write_series(outdir / "series.csv", rows)
    stride, last = config.snapshot_stride, len(states) - 1
    for n, st in enumerate(states):
        if stride and (n % stride == 0 or n == last) or n in (0, last):
            for name in ("mu", "rho", "xi"):
                path = outdir / f"state_{n:05d}_{name}.txt"
                with tracer.span("mesh.write_snapshot") as rec:
                    mesh.write_snapshot(path, getattr(st, name), st.t)
                rec["bytes"] = path.stat().st_size
    cli.write_manifest(outdir)
    return traj


def same_state(a, b) -> bool:
    return all(np.array_equal(getattr(a, f).values, getattr(b, f).values)
               for f in ("mu", "rho", "xi", "dt_rho"))


# ---------------------------------------------------------------------------
# workload paths, traced and untraced


def _parse(text):
    return config_mod.parse_config(text)


def run_path(tracer: Tracer, wl, work: Path, traced: bool) -> tuple:
    """One pass of the workload in process.  Returns (seconds, problems,
    final trajectory of the driver or of simulate_to_dir)."""
    tag = "traced" if traced else "plain"
    out = work / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    problems = []
    traj = None
    t0 = time.perf_counter()
    if wl.name in ("grid2d_const", "pipeline_degenerate"):
        config = _parse(wl.configs["run.txt"])
        sim = out / "sim"
        if traced:
            with tracer.span("cli.simulate"):
                traj = drive(tracer, config, sim)
        else:
            traj = cli.simulate_to_dir(config, sim)
        if wl.name == "pipeline_degenerate":
            with tracer.span("cli.diagnose") if traced else nullcontext():
                violations = cli.diagnose_to_report(sim, out / "report.csv")
            problems += [f"diagnose: {v}" for v in violations]
    else:
        for op in wl.ops:
            config = _parse(wl.configs[op.config])
            with tracer.span("cli.study") if traced else nullcontext():
                cli.run_study(config, out / op.args[-1])
    elapsed = time.perf_counter() - t0
    for op in wl.ops:
        problems += workloads.check_op(op, out, wl.configs)
    return elapsed, problems, traj


def bitwise_check(tracer: Tracer, wl, work: Path, plain_traj, traced_traj) -> list:
    """The driver must reproduce ``run`` bit for bit before any span is
    reported.  For simulate workloads this compares the two in-process
    passes (simulate_to_dir uses run) and their manifests; the study
    workload drives its perturbation base config against run directly."""
    if plain_traj is not None:
        same = same_state(plain_traj.states[-1], traced_traj.states[-1])
        manifests = [(work / tag / "sim" / "manifest.txt").read_bytes()
                     for tag in ("plain", "traced")]
        if not same or manifests[0] != manifests[1]:
            return ["traced driver differs from run (final state or manifest)"]
        return []
    config = _parse(wl.configs["perturbation.txt"])
    tracer.run_id = "check"
    traj = drive(tracer, config, work / "check")
    _grid, cfg, laws, initial = config_mod.build_run(config)
    ref = stepper.run(cfg, laws, initial)
    if not same_state(traj.states[-1], ref.states[-1]):
        return ["traced driver differs from run (final state)"]
    return []


def fixture(tracer: Tracer, work: Path, seed: int) -> None:
    """A small simulate + diagnose + study under run id "fixture", so every
    layer metric is measured on every workload; a workload whose own path
    reaches a layer reports the path's figure instead."""
    p = workloads.Params.from_seed(seed)
    tracer.run_id = "fixture"
    sim_cfg = _parse(workloads.render(
        {"dim": 2, "n": 16, "T": 0.02, "N": 4, "potential": "log",
         "mobility": "tanhpow", "m": 2, "snapshot_stride": 1,
         **workloads._ic(p)}))
    study_cfg = _parse(workloads.render(
        {"dim": 1, "n": 32, "T": 0.5, "N": 16, "potential": "log",
         "coupling": "linear", "mobility": "constant",
         "mu0": f"cosine 1.0 {p.cos_amp}", "rho0": f"cosine 0.5 {p.cos_amp}",
         "study": "perturbation", "study_values": "1 0.5",
         "perturb_amplitude": 1e-6}))
    out = work / "fixture"
    shutil.rmtree(out, ignore_errors=True)
    with tracer.span("cli.simulate"):
        drive(tracer, sim_cfg, out / "sim")
    with tracer.span("cli.diagnose"):
        cli.diagnose_to_report(out / "sim", out / "report.csv")
    with tracer.span("cli.study"):
        cli.run_study(study_cfg, out / "study")


# ---------------------------------------------------------------------------
# layer microbenchmarks


def per_call(fn, budget: float = 0.25, batches: int = 5) -> float:
    """Median seconds per call over ``batches`` batches of about
    ``budget / batches`` seconds each (after one warm-up call)."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(budget / batches / once))
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times)


def div_k_grad_counts(n: int) -> tuple:
    """Computed (not measured) flops and compulsory bytes of one 2-D
    div_k_grad_arrays apply on an n x n grid.  Per axis: n(n-1) faces cost
    a difference, a face mean (2 flops) and a flux (2 flops); every node
    then costs a divergence difference, a division and an accumulate.
    Compulsory traffic: read k and u, write the result, 8 bytes each."""
    faces = n * (n - 1)
    flops = 2 * (5 * faces + 3 * n * n)
    return flops, 3 * 8 * n * n


def microbenchmarks(wl, work: Path, seed: int) -> dict:
    p = workloads.Params.from_seed(seed)
    rng = np.random.default_rng(seed)

    def bump(grid):
        x, y = grid.coordinates()
        d2 = (x - p.center) ** 2 + (y - p.center) ** 2
        return p.amplitude * np.maximum(0.0, 1.0 - d2 / p.radius ** 2) ** 2

    out = {}
    for n in (64, 128):
        grid = mesh.Grid(2, n, 1.0)
        k = 1.0 + bump(grid)
        u = bump(grid) + 0.01 * rng.standard_normal(grid.shape)
        t = per_call(lambda: mesh.div_k_grad_arrays(grid, k, u, False))
        key = "mesh.div_k_grad_us" if n == 128 else "mesh.div_k_grad_64_us"
        out[key] = t * 1e6
    out["mesh.div_k_grad_flops"], out["mesh.div_k_grad_bytes"] = div_k_grad_counts(128)

    graph = cons.LogGraph(alpha1=0.5)
    y = 0.5 + p.cos_amp * np.cos(np.linspace(0.0, np.pi, 100_000)) \
        + 0.01 * rng.standard_normal(100_000)
    out["constitutive.log_resolvent_us"] = per_call(
        lambda: graph.resolvent_array(0.5 / 32, y)) * 1e6

    # m = 2 (the pipeline's law) has a closed form; other exponents fall
    # back to per-node quadrature, timed on a 32^2 field.
    mu = bump(mesh.Grid(2, 64, 1.0))
    mob = cons.make_tanh_power_mobility(2.0)
    out["constitutive.K_tau_array_s"] = per_call(
        lambda: cons.K_tau_array(mob, 0.02 / 12, mu))
    mu = bump(mesh.Grid(2, 32, 1.0))
    mob = cons.make_tanh_power_mobility(2.5)
    out["constitutive.K_tau_array_m25_s"] = per_call(
        lambda: cons.K_tau_array(mob, 0.02 / 12, mu))

    grid = mesh.Grid(2, 128, 1.0)
    field = mesh.ScalarField(grid, bump(grid))
    path = work / "micro_snapshot.txt"
    out["mesh.write_snapshot_128_ms"] = per_call(
        lambda: mesh.write_snapshot(path, field, 0.125)) * 1e3
    out["mesh.read_snapshot_128_ms"] = per_call(
        lambda: mesh.read_snapshot(path)) * 1e3
    os.remove(path)

    config = _parse(wl.configs[wl.setup_config])
    out["config.build_run_s"] = per_call(lambda: config_mod.build_run(config))
    return out


# ---------------------------------------------------------------------------


def traced_run(wl, work: Path, seed: int) -> tuple:
    """Untraced pass, traced pass, bitwise check, fixture, microbenchmarks.
    Returns (metrics, problems, tracer, details)."""
    tracer = Tracer()
    plain_s, problems, plain_traj = run_path(tracer, wl, work, traced=False)
    tracer.run_id = "path"
    with tracer.patched(_layer_targets()):
        traced_s, traced_problems, traced_traj = run_path(tracer, wl, work,
                                                          traced=True)
        problems += traced_problems
        problems += bitwise_check(tracer, wl, work, plain_traj, traced_traj)
        fixture(tracer, work, seed)
    if problems:
        return {}, problems, tracer, {}
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    metrics.update(microbenchmarks(wl, work, seed))
    details = {"untraced_s": plain_s, "traced_s": traced_s,
               "path_spans": len([s for s in tracer.spans if s["run"] == "path"]),
               "span_cost_s": span_cost(),
               "sources": _sources(tracer)}
    return metrics, problems, tracer, details


def span_cost() -> float:
    """Seconds one recorded span adds to a call (a wrapped no-op against a
    bare one), to set beside the measured traced-untraced difference."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrapper(noop, "noop", None)
    cost = per_call(wrapped, budget=0.01) - per_call(noop, budget=0.01)
    return max(cost, 0.0)


SOURCED = {
    "mesh.write_snapshot_s": ("mesh.write_snapshot",),
    "cli.write_manifest_s": ("cli.write_manifest",),
    "diagnostics.series_rows_s": ("diagnostics.series_rows",),
    "mesh.read_snapshot_s": ("mesh.read_snapshot",),
    "cli.load_trajectory_s": ("cli.load_trajectory",),
    "diagnostics.ledgers_s": ("diagnostics.mu_energy_ledger",
                              "diagnostics.rho_energy_ledger"),
    "diagnostics.formulation_residuals_s": ("diagnostics.formulation_residuals",),
}


def _source(tracer: Tracer, names) -> str:
    """The workload's own path when it reaches the layer, else the fixture."""
    return "path" if any(tracer.of(n, "path") for n in names) else "fixture"


def _sources(tracer: Tracer) -> dict:
    out = {k: _source(tracer, names) for k, names in SOURCED.items()}
    out["mesh.snapshot_bytes"] = out["mesh.write_snapshot_s"]
    out["studies"] = _source(tracer, ("studies.member_run",))
    return out


def layer_metrics(tracer: Tracer) -> dict:
    m = {}
    for key, names in SOURCED.items():
        run = _source(tracer, names)
        m[key] = sum(tracer.total(n, run) for n in names)
    run = _source(tracer, ("mesh.write_snapshot",))
    m["mesh.snapshot_bytes"] = sum(s["bytes"] for s in
                                   tracer.of("mesh.write_snapshot", run))

    rho = tracer.of("stepper.step_rho", "path")
    mu = tracer.of("stepper.step_mu", "path")
    m["stepper.step_rho_ms"] = 1e3 * tracer.total("stepper.step_rho", "path") / len(rho)
    m["stepper.newton_iters"] = statistics.fmean(s["newton_iters"] for s in rho)
    m["stepper.step_mu_ms"] = 1e3 * tracer.total("stepper.step_mu", "path") / len(mu)
    m["stepper.cg_iters"] = statistics.fmean(s["cg_iters"] for s in mu)
    root = "cli.study" if tracer.of("cli.study", "path") else "cli.simulate"
    m["stepper.step_share"] = _step_time(tracer, root, "path") / tracer.total(root, "path")

    run = _source(tracer, ("studies.member_run",))
    m["studies.member_runs"] = len(tracer.of("studies.member_run", run))
    m["studies.self_s"] = (tracer.total("cli.study", run)
                           - _step_time(tracer, "cli.study", run))
    return m


def _step_time(tracer: Tracer, root: str, run: str) -> float:
    return (tracer.under("stepper.step_rho", root, run)
            + tracer.under("stepper.step_mu", root, run))
