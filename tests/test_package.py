"""The package re-exports its library names lazily (PEP 562): importing
``vchsim`` loads no submodule, and a name loads its module on first use."""

import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import vchsim

SRC = Path(__file__).resolve().parents[1] / "src"


def test_readme_import_line_works():
    from vchsim import build_run, mu_energy_ledger, parse_config, run

    assert parse_config is import_module("vchsim.config").parse_config
    assert build_run is import_module("vchsim.config").build_run
    assert run is import_module("vchsim.stepper").run
    assert mu_energy_ledger is import_module("vchsim.diagnostics").mu_energy_ledger


def test_every_reexported_name_is_its_module_attribute():
    for module, names in vchsim._EXPORTS.items():
        for name in names:
            assert getattr(vchsim, name) is getattr(
                import_module(f"vchsim.{module}"), name), name


def test_dir_lists_the_reexported_names():
    listed = dir(vchsim)
    assert set(vchsim.__all__) <= set(listed)
    assert {"parse_config", "build_run", "run", "mu_energy_ledger",
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
