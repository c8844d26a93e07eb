"""The program surface the benchmark's traced run depends on.

``perfbench/traced.py`` reads and patches module attributes of the package
by name; its own smoke test is slow and outside the default test paths.
These checks fail fast when such a name is renamed or deleted, and confirm
that its step loop ``traced.drive`` still reproduces ``run`` bit for bit.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from vchsim import diagnostics, mesh
from vchsim.config import build_run, parse_config
from vchsim.stepper import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import traced  # noqa: E402  (imported from the benchmark directory)


def test_every_patched_target_exists():
    for module, attr, _span, _counter in traced._layer_targets():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_the_whole_trajectory_ledger_names_are_one_function():
    # traced.py wraps three names that no command calls; each is the one
    # whole-run ledger
    for name in ("mu_energy_ledger", "rho_energy_ledger",
                 "formulation_residuals"):
        assert getattr(diagnostics, name) is diagnostics.ledger_columns, name


def test_every_package_attribute_it_reads_exists():
    # every ``alias.name`` in traced.py whose alias is a package module
    tree = ast.parse((PERFBENCH / "traced.py").read_text())
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and getattr(getattr(traced, node.value.id, None), "__name__",
                        "").startswith("vchsim")}
    assert ("stepper", "step_rho") in used
    missing = [f"{alias}.{attr}" for alias, attr in sorted(used)
               if not hasattr(getattr(traced, alias), attr)]
    assert not missing


def test_traced_step_loop_matches_run_bitwise(tmp_path):
    config = parse_config("n = 8\nT = 0.25\nN = 2\nmu0 = bump 0.5 0.3 1\n"
                          "rho0 = cosine 0.5 0.2\n")
    traj = traced.drive(traced.Tracer(), config, tmp_path / "sim")
    _grid, cfg, laws, initial = build_run(config)
    ref = run(cfg, laws, initial)
    assert len(traj) == len(ref) == 3
    assert traced.same_state(traj.states[-1], ref.states[-1])
    assert (tmp_path / "sim" / "manifest.txt").exists()


def test_positional_flux_call_is_the_arithmetic_operator():
    # traced.py times mesh.div_k_grad_arrays(grid, k, u, False); the fourth
    # argument is kept for that call and selects nothing
    grid = mesh.Grid(2, 9, 1.0)
    rng = np.random.default_rng(5)
    k = rng.uniform(0.0, 2.0, grid.shape)
    u = rng.standard_normal(grid.shape)
    assert np.array_equal(mesh.div_k_grad_arrays(grid, k, u, False),
                          mesh.div_faces(mesh.face_weights(grid, k), u))
    with pytest.raises(ValueError, match="harmonic face averaging was removed"):
        mesh.div_k_grad_arrays(grid, k, u, harmonic=True)
