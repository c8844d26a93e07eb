"""Seeded workload definitions and the output checks applied to them.

A workload is a list of CLI operations (one pass) plus the checks every
pass's outputs must satisfy.  The seed draws only initial-data parameters;
grid, laws and step counts are fixed per workload, so the work per pass
does not depend on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 0

# Final mu and rho must match the stored reference to this absolute
# tolerance: solver scale, not bitwise.  The solvers stop at newton_tol =
# 1e-10 and linear_tol = 1e-11; loosening both a hundredfold moved the
# stored samples by at most 6e-14, and a 1e-6 relative error in each mu
# update moves them by 4e-6.  1e-7 leaves room for a different stopping
# rule or solver and is far below the discretization error (tau ~ 1e-3).
REFERENCE_ATOL = 1e-7

# series.csv checks: nonnegativity of mu to solver scale, rho in [0, 1].
MIN_MU_FLOOR = -1e-10

NAMES = ("grid2d_const", "pipeline_degenerate", "line1d_suite")


@dataclass(frozen=True)
class Params:
    """Initial-data parameters drawn from the seed (admissible ranges:
    nonnegative bump inside the box, rho0 strictly inside (0, 1))."""

    center: float
    radius: float
    amplitude: float
    cos_amp: float

    @classmethod
    def from_seed(cls, seed: int) -> "Params":
        rng = random.Random(seed)
        return cls(center=round(rng.uniform(0.4, 0.6), 4),
                   radius=round(rng.uniform(0.15, 0.3), 4),
                   amplitude=round(rng.uniform(0.5, 1.5), 4),
                   cos_amp=round(rng.uniform(0.1, 0.3), 4))


def render(keys: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


@dataclass
class Op:
    """One CLI call: ``vchsim <args>``.  ``kind`` is simulate, diagnose,
    study or validate; ``check`` names the output check to apply."""

    name: str
    kind: str
    args: list
    check: str = ""
    config: str = ""        # config file name the op reads, if any


@dataclass
class Workload:
    name: str
    configs: dict                      # file name -> config text
    setup_config: str                  # config validated for setup_s
    ops: list                          # one pass
    probes: list = field(default_factory=list)   # untimed reach probes
    reference: str = ""                # simulate op compared with reference.json


def _ic(p: Params, length: float = 1.0) -> dict:
    return {"mu0": f"bump {p.center * length} {p.radius} {p.amplitude}",
            "rho0": f"cosine 0.5 {p.cos_amp}"}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Configs and operations of one workload for one seed.

    ``smoke`` shrinks grids and step counts so the whole harness runs in a
    few seconds; it is for the harness's own test, never for measurement.
    """
    p = Params.from_seed(seed)
    if name == "grid2d_const":
        # 2-D 128^2, constant mobility, no intermediate snapshots: the
        # stepper (SuperLU rho stage, Jacobi-CG mu stage) dominates.
        cfg = {"dim": 2, "n": 16 if smoke else 128, "T": 0.01,
               "N": 2 if smoke else 8, "potential": "log",
               "mobility": "constant", "snapshot_stride": 0, **_ic(p)}
        configs = {"run.txt": render(cfg)}
        ops = [Op("simulate", "simulate",
                  ["simulate", "--config", "run.txt", "--out", "sim"],
                  check="simulate", config="run.txt")]
        return Workload(name, configs, "run.txt", ops, reference="simulate")
    if name == "pipeline_degenerate":
        # 2-D 64^2 under degenerate tanhpow mobility, every step written
        # and then read back by diagnose: snapshot I/O, ledgers and the
        # formulation residuals weigh as much as the stepper.
        cfg = {"dim": 2, "n": 12 if smoke else 64, "T": 0.02,
               "N": 3 if smoke else 12, "potential": "log",
               "mobility": "tanhpow", "m": 2, "snapshot_stride": 1, **_ic(p)}
        configs = {"run.txt": render(cfg)}
        ops = [Op("simulate", "simulate",
                  ["simulate", "--config", "run.txt", "--out", "sim"],
                  check="simulate", config="run.txt"),
               Op("diagnose", "diagnose",
                  ["diagnose", "--traj", "sim", "--out", "report.csv"],
                  check="diagnose")]
        return Workload(name, configs, "run.txt", ops, reference="simulate")
    if name == "line1d_suite":
        # Thousands of tiny 1-D steps: per-call overhead (graph resolvent,
        # sparse assembly, process start) outweighs linear algebra.
        n_small = 16 if smoke else 64
        base = {"dim": 1, "potential": "log", "coupling": "linear",
                "mobility": "constant"}
        pert = {**base, "n": n_small, "T": 0.5, "N": 8 if smoke else 16,
                "mu0": f"cosine 1.0 {p.cos_amp}",
                "rho0": f"cosine 0.5 {p.cos_amp}",
                "study": "perturbation", "study_values": "1 0.5",
                "perturb_amplitude": 1e-6, "perturb_seed": seed % 1000}
        # smooth data, as in acceptance criterion 5: a narrow bump is still
        # pre-asymptotic at these step counts
        tau = {**base, "n": n_small, "T": 0.5, "N": 16,
               "mu0": f"cosine 1.0 {p.cos_amp}",
               "rho0": f"cosine 0.5 {p.cos_amp}",
               "study": "tau_refinement",
               "study_values": "4 8 16 32",
               "study_reference": 64 if smoke else 128}
        deg = {"dim": 1, "n": 32 if smoke else 128, "length": 4.0, "T": 1.0,
               "N": 64, "potential": "clamp", "coupling": "constant",
               "g0": 0.0, "mobility": "tanhpow", "m": 2,
               "mu0": f"bump {p.center * 4.0} {p.radius} {p.amplitude}",
               "rho0": "constant 0.5", "study": "degenerate_demo",
               "study_values": "16 32 64"}
        configs = {"perturbation.txt": render(pert),
                   "tau.txt": render(tau),
                   "degenerate.txt": render(deg)}
        ops = [Op(f"study_{stem}", "study",
                  ["study", "--spec", f"{stem}.txt", "--out", f"study_{stem}"],
                  check=stem, config=f"{stem}.txt")
               for stem in ("perturbation", "tau", "degenerate")]
        # Reach probe: 1-D log + tanhpow at n = 1024 and 2048 on default
        # tolerances.  Validation accepts both; whether they run is the
        # question they answer.  Never shrink these sizes.
        probes = []
        for n in (1024, 2048):
            fname = f"probe_{n}.txt"
            configs[fname] = render({"dim": 1, "n": n, "T": 0.05, "N": 8,
                                     "potential": "log", "mobility": "tanhpow",
                                     "m": 2, "snapshot_stride": 0, **_ic(p)})
            probes.append(Op(f"probe_{n}", "simulate",
                             ["simulate", "--config", fname, "--out",
                              f"probe_{n}"], check="simulate", config=fname))
        return Workload(name, configs, "tau.txt", ops, probes=probes)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems (empty when the output holds)


def read_csv(path: Path) -> dict:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, v in zip(header, line.split(",")):
            cols[h].append(float(v))
    return {h: np.array(v) for h, v in cols.items()}


def read_field(path: Path) -> np.ndarray:
    """Values of a snapshot file (header line, then one value per line)."""
    lines = path.read_text().splitlines()
    dim, n = (int(v) for v in lines[0].split()[:2])
    shape = (n,) if dim == 1 else (n, n)
    return np.array([float(v) for v in lines[1:]]).reshape(shape)


def final_fields(outdir: Path) -> dict:
    last = sorted(outdir.glob("state_*_mu.txt"))[-1].name.split("_")[1]
    return {name: read_field(outdir / f"state_{last}_{name}.txt")
            for name in ("mu", "rho")}


def check_simulate(outdir: Path) -> list:
    problems = []
    s = read_csv(outdir / "series.csv")
    if s["min_mu"].min() < MIN_MU_FLOOR:
        problems.append(f"series.csv: min_mu {s['min_mu'].min():.3e} < {MIN_MU_FLOOR}")
    if s["min_rho"].min() < 0.0 or s["max_rho"].max() > 1.0:
        problems.append("series.csv: rho leaves [0, 1]")
    fields = final_fields(outdir)
    if not all(np.all(np.isfinite(v)) for v in fields.values()):
        problems.append("final fields are not finite")
    return problems


def check_diagnose(report: Path, n_steps: int) -> list:
    rows = read_csv(report)
    if len(rows["step"]) != n_steps + 1:
        return [f"report.csv has {len(rows['step'])} rows, want {n_steps + 1}"]
    return []


def fit_order(counts, errors) -> float:
    """Least-squares slope of log error against log step count."""
    x = np.log(np.asarray(counts, dtype=float))
    y = np.log(np.asarray(errors, dtype=float))
    return float(-np.polyfit(x, y, 1)[0])


def check_study(stem: str, outdir: Path) -> list:
    """The study properties the acceptance suite asserts (criteria 5, 6, 8)."""
    if stem == "perturbation":
        t = read_csv(outdir / "perturbation.csv")
        ratio = t["final_metric"][0] / t["final_metric"][1]
        problems = []
        if not 3.6 <= ratio <= 4.4:
            problems.append(f"perturbation: metric ratio {ratio:.3f} not in [3.6, 4.4]")
        if not np.all(np.isfinite(t["growth_rate"])):
            problems.append("perturbation: growth rate not finite")
        return problems
    if stem == "tau":
        t = read_csv(outdir / "orders.csv")
        order = fit_order(t["n_steps"], t["error"])
        return [] if order >= 0.8 else [f"tau_refinement: order {order:.3f} < 0.8"]
    if stem == "degenerate":
        t = read_csv(outdir / "degenerate.csv")
        problems = []
        if not np.all(t["radius_control"] > t["radius"]):
            problems.append("degenerate: control not strictly wider")
        counts = sorted(set(t["n_steps"]))
        finals = [t["radius"][t["n_steps"] == c][-1] for c in counts]
        if any(b > a for a, b in zip(finals, finals[1:])):
            problems.append(f"degenerate: final radii {finals} increase")
        if not np.all(np.isfinite(t["ktau_vnorm_sup"])):
            problems.append("degenerate: Kirchhoff norm not finite")
        return problems
    raise ValueError(stem)


def check_op(op: Op, workdir: Path, configs: dict) -> list:
    if op.check == "simulate":
        return check_simulate(workdir / op.args[-1])
    if op.check == "diagnose":
        n_steps = int(_config_value(configs["run.txt"], "N"))
        return check_diagnose(workdir / op.args[-1], n_steps)
    return check_study(op.check, workdir / op.args[-1])


def _config_value(text: str, key: str) -> str:
    for line in text.splitlines():
        k, _, v = line.partition("=")
        if k.strip() == key:
            return v.strip()
    raise KeyError(key)


# ---------------------------------------------------------------------------
# stored reference of final fields


def _subsample(values: np.ndarray) -> np.ndarray:
    stride = max(1, values.shape[0] // 16)
    idx = slice(stride // 2, None, stride)
    return values[(idx,) * values.ndim]


def reference_entry(outdir: Path) -> dict:
    fields = final_fields(outdir)
    return {name: {"min": float(v.min()), "max": float(v.max()),
                   "sample": _subsample(v).ravel().tolist()}
            for name, v in fields.items()}


def check_reference(workload: str, outdir: Path) -> list:
    stored = json.loads(REFERENCE_FILE.read_text())[workload]
    got = reference_entry(outdir)
    problems = []
    for name in ("mu", "rho"):
        ref, cur = stored[name], got[name]
        diff = max(abs(cur["min"] - ref["min"]), abs(cur["max"] - ref["max"]),
                   float(np.max(np.abs(np.array(cur["sample"])
                                       - np.array(ref["sample"])))))
        if not diff <= REFERENCE_ATOL:
            problems.append(f"final {name} differs from reference by "
                            f"{diff:.3e} > {REFERENCE_ATOL:g}")
    return problems


def write_reference(entries: dict) -> None:
    REFERENCE_FILE.write_text(json.dumps(
        {"seed": REFERENCE_SEED, "atol": REFERENCE_ATOL, **entries},
        indent=1) + "\n")
