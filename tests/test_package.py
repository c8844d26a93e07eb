"""The package re-exports its library names lazily (PEP 562): importing
``vchsim`` loads no submodule, and a name loads its module on first use.
It imports no scipy, its stepper reads node values flat only in its inner
product, the rho stage's free energy has one definition, and only the
retired-key table names the solver tolerances that were once config
keys."""

import ast
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import vchsim

SRC = Path(__file__).resolve().parents[1] / "src"


def test_readme_import_line_works():
    from vchsim import build_run, ledger_columns, parse_config, run

    assert parse_config is import_module("vchsim.config").parse_config
    assert build_run is import_module("vchsim.config").build_run
    assert run is import_module("vchsim.stepper").run
    assert ledger_columns is import_module("vchsim.diagnostics").ledger_columns


def test_every_reexported_name_is_its_module_attribute():
    for module, names in vchsim._EXPORTS.items():
        for name in names:
            assert getattr(vchsim, name) is getattr(
                import_module(f"vchsim.{module}"), name), name


def test_dir_lists_the_reexported_names():
    listed = dir(vchsim)
    assert set(vchsim.__all__) <= set(listed)
    assert {"parse_config", "build_run", "run", "ledger_columns",
            "tau_refinement", "__version__"} <= set(listed)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        vchsim.no_such_name  # noqa: B018
    assert not hasattr(vchsim, "no_such_name")


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, vchsim; print(sorted(m for m in "
         "sys.modules if m.startswith('vchsim')))"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['vchsim']"


def _enclosed(node, kinds, function=None):
    """(enclosing function name, node) for every node of ``kinds`` in a
    tree."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, kinds):
            yield function, child
        inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))
                 else function)
        yield from _enclosed(child, kinds, inner)


def test_the_package_imports_no_scipy():
    sites = []
    for path in sorted((SRC / "vchsim").glob("*.py")):
        for function, node in _enclosed(ast.parse(path.read_text()),
                                        (ast.Import, ast.ImportFrom)):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import) else [node.module or ""])
            if any(name.split(".")[0] == "scipy" for name in names):
                sites.append((path.stem, function, node.lineno))
    # the solvers and the ODE oracle are numpy alone; scipy is the tests'
    # independent reference
    assert sites == []
    assert not hasattr(import_module("vchsim.mesh"), "laplacian_matrix")


def test_the_stepper_reads_node_values_flat_only_in_its_inner_product():
    # node values keep the grid's shape through both stages, the operator,
    # the preconditioners and the Krylov loops; _dot alone ravels them
    tree = ast.parse((SRC / "vchsim" / "stepper.py").read_text())
    sites = [(function, node.func.attr)
             for function, node in _enclosed(tree, ast.Call)
             if isinstance(node.func, ast.Attribute)
             and node.func.attr in ("ravel", "reshape", "flatten")]
    assert sites == [("_dot", "ravel"), ("_dot", "ravel")]


def test_the_free_energy_has_one_definition():
    # the line search and the ledger both read stepper.free_energy, the one
    # caller of the Moreau envelope; the unregularized f1 + f2, infinite
    # outside [0, 1], is gone
    sites = []
    for path in sorted((SRC / "vchsim").glob("*.py")):
        sites += [(path.stem, function) for function, node
                  in _enclosed(ast.parse(path.read_text()), ast.Call)
                  if isinstance(node.func, ast.Attribute)
                  and node.func.attr == "envelope"]
    assert sites == [("stepper", "free_energy")]
    tree = ast.parse((SRC / "vchsim" / "constitutive.py").read_text())
    potential = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "Potential")
    assert "value" not in {node.name for node in potential.body
                           if isinstance(node, ast.FunctionDef)}


def test_only_the_retired_key_table_names_the_old_tolerance_keys():
    # the stopping targets live in the stepper alone (NEWTON_TOL,
    # LINEAR_TOL); config reads the old keys only so stored runs parse
    hits = []
    for path in sorted((SRC / "vchsim").glob("*.py")):
        text = path.read_text()
        table = range(0)
        if path.stem == "config":
            node = next(node for node in ast.parse(text).body
                        if isinstance(node, ast.Assign) and getattr(
                            node.targets[0], "id", None) == "_RETIRED_KEYS")
            table = range(node.lineno, node.end_lineno + 1)
        hits += [(path.stem, lineno)
                 for lineno, line in enumerate(text.splitlines(), start=1)
                 if re.search("newton_tol|linear_tol", line)
                 and lineno not in table]
    assert hits == []
