#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the vchsim CLI.

    python3 perfbench/run.py --workload grid2d_const --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25   # every workload, one table

With ``--trace 0`` the harness drives ``python -m vchsim.cli`` as child
processes, one at a time: a closed loop with one client.  It times a
fresh-process ``validate`` several times (set-up), then repeats passes of
the workload's CLI calls until ``--seconds`` are used, checking every
output.  With ``--trace 1`` it runs the workload in process under a span
tracer and adds the layer microbenchmarks (see traced.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(commit, host, versions, seed, generated configs, every sample) is written
to perfbench/out/BENCH_<workload>_seed<seed>[_trace].json.
"""

from __future__ import annotations

import os

# Fixed BLAS threading for this process and every child: at most nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0


@dataclass
class Sample:
    op: str
    kind: str
    seconds: float
    rss_mb: float
    returncode: int
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and not self.problems


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_cli(args: list, cwd: Path, name: str) -> Sample:
    """Run ``python -m vchsim.cli <args>`` and wait for it; wall time from
    start to reap, peak RSS from the child's own rusage."""
    cmd = [sys.executable, "-m", "vchsim.cli", *args]
    with open(cwd / f"{name}.out", "wb") as out, open(cwd / f"{name}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        tail = (cwd / f"{name}.err").read_text(errors="replace").strip()
        problems.append(f"exit {proc.returncode}: {tail.splitlines()[-1] if tail else ''}")
    return Sample(name, args[0], elapsed, usage.ru_maxrss / 1024.0,
                  proc.returncode, problems)


def run_op(op, cwd: Path, configs: dict) -> Sample:
    sample = run_cli(op.args, cwd, op.name)
    sample.kind = op.kind
    if sample.returncode == 0:
        try:
            sample.problems += workloads.check_op(op, cwd, configs)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            sample.problems.append(f"unreadable output: {exc!r}")
    return sample


def write_configs(wl, where: Path) -> None:
    where.mkdir(parents=True, exist_ok=True)
    for fname, text in wl.configs.items():
        (where / fname).write_text(text)


def manifests(wl, passdir: Path) -> dict:
    return {op.name: (passdir / op.args[-1] / "manifest.txt").read_bytes()
            for op in wl.ops if op.kind in ("simulate", "study")}


# ---------------------------------------------------------------------------
# statistics


def tail(values: list) -> tuple:
    """Highest of p50/p90/p95/p99 with at least ten samples beyond it
    (nearest rank); (None, None) when there are fewer than 20 samples."""
    xs = sorted(values)
    best = (None, None)
    for q in (50, 90, 95, 99):
        rank = math.ceil(q / 100 * len(xs))
        if rank >= 1 and len(xs) - rank >= 10:
            best = (q, xs[rank - 1])
    return best


def describe(values: list, unit: str) -> str:
    if not values:
        return "n/a"
    q, v = tail(values)
    tail_txt = f"p{q} {v:.4g}" if q else "no tail percentile (n < 20)"
    return f"median {statistics.median(values):.4g} {unit}, {tail_txt}, n={len(values)}"


# ---------------------------------------------------------------------------
# untraced end-to-end run


def end_to_end(wl, seed: int, seconds: float, smoke: bool) -> dict:
    work = OUT / f"{wl.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    write_configs(wl, work)
    samples = {"setup": [], "reference": [], "pass": [], "probe": []}

    for i in range(2 if smoke else SETUP_REPEATS):
        samples["setup"].append(run_cli(["validate", "--config", wl.setup_config],
                                        work, f"validate{i}"))

    # Untimed warm-up: the workload's simulate on the reference seed, whose
    # final fields must match the stored reference.  Smoke sizes have none.
    if wl.reference and not smoke:
        ref = workloads.build(wl.name, workloads.REFERENCE_SEED)
        refdir = work / "reference"
        write_configs(ref, refdir)
        sim = next(op for op in ref.ops if op.name == wl.reference)
        sample = run_op(sim, refdir, ref.configs)
        samples["reference"].append(sample)
        if sample.ok:
            sample.problems += workloads.check_reference(wl.name,
                                                         refdir / sim.args[-1])

    pass_times, first_manifests = [], None
    loop_start = time.perf_counter()
    while True:
        k = len(pass_times)
        passdir = work / f"pass{k}"
        write_configs(wl, passdir)
        ops = [run_op(op, passdir, wl.configs) for op in wl.ops]
        samples["pass"].extend(ops)
        pass_times.append(sum(s.seconds for s in ops))
        if all(s.ok for s in ops):
            got = manifests(wl, passdir)
            if first_manifests is None:
                first_manifests = got
            for s in ops:
                if s.op in got and got[s.op] != first_manifests[s.op]:
                    s.problems.append(f"pass {k}: manifest differs from pass 0 (same seed)")
        if k > 0:
            shutil.rmtree(passdir)
        # at least two passes, so that one seed's manifest is seen to repeat
        elapsed = time.perf_counter() - loop_start
        if k >= 1 and elapsed + statistics.median(pass_times) > seconds:
            break

    for op in wl.probes:
        samples["probe"].append(run_op(op, work, wl.configs))

    measured = samples["setup"] + samples["reference"] + samples["pass"]
    failed = [s for s in measured if not s.ok]
    problems = [f"{s.op}: {p}" for s in failed for p in s.problems]
    ok_passes = [s for s in samples["pass"] if s.ok]
    metrics = {
        "setup_s": statistics.median(s.seconds for s in samples["setup"]),
        "pass_s": statistics.median(pass_times),
        "peak_rss_mb": max(s.rss_mb for s in ok_passes) if ok_passes else float("nan"),
    }
    by_kind = {kind: [s.seconds for s in ok_passes if s.kind == kind]
               for kind in ("simulate", "diagnose", "study")}
    # study_s sums the workload's study calls within one pass
    n_study = sum(op.kind == "study" for op in wl.ops)
    if by_kind["study"] and n_study:
        by_kind["study"] = [sum(by_kind["study"][i:i + n_study])
                            for i in range(0, len(by_kind["study"]), n_study)]
    all_ops = measured + samples["probe"]
    report = {
        "setup_s": describe([s.seconds for s in samples["setup"]], "s"),
        "simulate_s": describe(by_kind["simulate"], "s"),
        "diagnose_s": describe(by_kind["diagnose"], "s"),
        "study_s": describe(by_kind["study"], "s"),
        "pass_s": describe(pass_times, "s"),
        "peak_rss_mb": f"{metrics['peak_rss_mb']:.1f} MB",
        "failed_frac": f"{sum(not s.ok for s in all_ops)}/{len(all_ops)} = "
                       f"{sum(not s.ok for s in all_ops) / len(all_ops):.3f} ratio"
                       + (" (reach probes included)" if wl.probes else ""),
    }
    probe_notes = [f"{s.op}: {'ok' if s.ok else '; '.join(s.problems)}"
                   for s in samples["probe"]]
    return {"correct": not problems, "attempted": len(measured),
            "failed": len(failed), "metrics": metrics, "report": report,
            "problems": problems, "probes": probe_notes,
            "samples": {k: [asdict(s) for s in v] for k, v in samples.items()}}


# ---------------------------------------------------------------------------
# traced run


def run_traced(wl, seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    import traced  # imports vchsim from the source tree
    work = OUT / f"{wl.name}-seed{seed}-trace"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    metrics, problems, tracer, details = traced.traced_run(wl, work, seed)
    self_times = tracer.self_times()
    (OUT / f"trace_{wl.name}_seed{seed}.json").write_text(json.dumps(
        {"spans": tracer.spans, "self_s": self_times}, indent=0))
    layers = {}
    for key, t in self_times.items():
        run, name = key.split(":", 1)
        if run == "path":
            layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + t
    report = {k: f"{v:.6g}" for k, v in metrics.items()}
    report.update({f"self {k}": f"{v:.4f} s" for k, v in sorted(layers.items())})
    if details:
        report["tracing overhead"] = (
            f"{details['traced_s']:.3f} s traced vs {details['untraced_s']:.3f} s "
            f"untraced in process ({metrics['trace.overhead_frac']:+.1%}); "
            f"computed: {details['path_spans']} spans x "
            f"{details['span_cost_s'] * 1e6:.2f} us = "
            f"{details['path_spans'] * details['span_cost_s'] * 1e3:.2f} ms")
        report["from the fixture"] = ", ".join(
            k for k, v in details["sources"].items() if v != "path") or "none"
        if metrics["stepper.step_share"] < traced.MIN_STEP_SHARE.get(wl.name, 0.0):
            report["NOTE"] = (f"step spans cover only {metrics['stepper.step_share']:.1%}"
                              f" of the traced simulate time")
    n_ops = len(wl.ops)
    return {"correct": not problems, "attempted": n_ops,
            "failed": n_ops if problems else 0, "metrics": metrics,
            "report": report, "problems": problems}


# ---------------------------------------------------------------------------


def declared(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def emit(metrics: dict, units: dict, prefix: str = "") -> dict:
    """Declared metrics in declared order; a metric a failed run could not
    measure is left out (the run already reports correct = false)."""
    return {prefix + name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics and math.isfinite(metrics[name])}


def commit_hash() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or "unknown"


def run_record(wl, seed: int, seconds: float, trace: int, result: dict) -> Path:
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit_hash(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS, "platform": platform.platform(),
        "configs": wl.configs, **{k: v for k, v in result.items()},
    }
    suffix = "_trace" if trace else ""
    path = OUT / f"BENCH_{wl.name}_seed{seed}{suffix}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    wl = workloads.build(name, seed, smoke)
    result = run_traced(wl, seed) if trace else end_to_end(wl, seed, seconds, smoke)
    path = run_record(wl, seed, seconds, trace, result)
    print(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'})")
    for key, text in result["report"].items():
        print(f"  {key}: {text}")
    for note in result.get("probes", []):
        print(f"  probe {note}")
    for p in result["problems"]:
        print(f"  PROBLEM {p}")
    print(f"  record: {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, for the harness's own test only")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json from the reference seed")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child (see run_cli)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "vchsim" / "cli.py").is_file():
        print(f"vchsim sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference()

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    units = declared(args.trace)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {n: run_one(n, args.seed, args.seconds, args.trace, args.smoke)
               for n in names}
    metrics = {}
    for n, r in results.items():
        metrics.update(emit(r["metrics"], units,
                            f"{n}." if args.workload == "all" else ""))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


def write_reference() -> int:
    """Simulate each reference workload at the reference seed and store its
    final fields; run only when the scheme's results are meant to change."""
    entries = {}
    for name in workloads.NAMES:
        wl = workloads.build(name, workloads.REFERENCE_SEED)
        if not wl.reference:
            continue
        where = OUT / f"{name}-reference"
        shutil.rmtree(where, ignore_errors=True)
        write_configs(wl, where)
        op = next(op for op in wl.ops if op.name == wl.reference)
        sample = run_op(op, where, wl.configs)
        if not sample.ok:
            print(f"{name}: {sample.problems}", file=sys.stderr)
            return 1
        entries[name] = workloads.reference_entry(where / op.args[-1])
    workloads.write_reference(entries)
    print(f"wrote {workloads.REFERENCE_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
