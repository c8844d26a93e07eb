"""Flat key-value run configuration.

The on-disk format is line-oriented ``key = value`` with ``#`` comments,
chosen so configs stay diff-friendly and language-agnostic.  Parsing is
strict: unknown keys are hard errors, and every rejection names the
violated validation rule (the parenthesized rule codes used throughout the
docs, e.g. ``(hpzero)`` for nonnegative initial potential data).

See docs/config.md for the full key table and defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import constitutive as laws_mod
from .mesh import Grid, ScalarField, field_of, read_snapshot
from .stepper import SolverConfig, ValidationError


class ConfigError(ValidationError):
    """Malformed or invalid configuration text or input file."""

    @staticmethod
    def reason(exc: Exception) -> str:
        """Why an input file could not be read, without its path: an
        OSError's message repeats the path its wrapping message names."""
        return exc.strerror if isinstance(exc, OSError) else str(exc)


_POTENTIALS = ("clamp", "log")
_MOBILITIES = ("constant", "tanhpow")
_COUPLINGS = ("linear", "constant")
_STUDIES = ("", "tau_refinement", "homogeneous_oracle", "degenerate_demo",
            "perturbation")


@dataclass(frozen=True)
class Config:
    """Everything one run (or one study) needs, as plain values.  The
    config's own values are checked here, so no instance, a study's
    ``replace`` copies included, holds an unknown name; the rules of the
    layers it builds are those of :func:`build_model`."""

    # grid
    dim: int = 1
    n: int = 32
    length: float = 1.0
    # time discretization
    T: float = 1.0
    N: int = 64
    # constitutive selections
    potential: str = "clamp"
    alpha1: float = 0.5
    alpha2: float = 2.0
    mobility: str = "constant"
    kappa0: float = 1.0
    m: float = 2.0
    epsilon: float = 1.0
    delta: float = 1.0
    coupling: str = "linear"
    g0: float = 0.0
    # initial data recipes
    mu0: tuple = ("constant", 1.0)
    rho0: tuple = ("constant", 0.5)
    # output
    snapshot_stride: int = 1
    # optional study block
    study: str = ""
    study_values: tuple = ()
    study_reference: int = 512
    perturb_seed: int = 0

    def __post_init__(self):
        for key, names in (("potential", _POTENTIALS),
                           ("mobility", _MOBILITIES), ("coupling", _COUPLINGS)):
            if getattr(self, key) not in names:
                raise ConfigError(f"{key} must be one of {names}")
        if self.snapshot_stride < 0:
            raise ConfigError("snapshot_stride must be nonnegative")
        if self.perturb_seed < 0:
            raise ConfigError("perturb_seed must be nonnegative")
        if self.study not in _STUDIES:
            raise ConfigError(f"study must be one of {_STUDIES[1:]} or absent")
        if (self.study not in ("", "homogeneous_oracle")
                and not self.study_values):
            raise ConfigError("study block needs study_values")


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


# Keys that earlier versions wrote into every run's config.txt, which its
# manifest freezes.  Each is read only at the value that selected what the
# scheme now always does: key -> (accepts raw value, what it always does).
_RETIRED_KEYS = {
    "sign_split_reaction": (
        lambda raw: raw.lower() in ("true", "1", "yes", "on"),
        "the potential stage always splits the reaction by sign"),
    "face_average": (
        lambda raw: raw == "arithmetic",
        "the potential stage always averages face mobilities arithmetically"),
    "linear_max_iter": (
        lambda raw: raw == "0",
        "both Krylov solves always stop after 10 nodes + 100 iterations"),
    "yosida_lambda": (
        lambda raw: raw == "0",
        "the Yosida parameter is always the step tau (1 when N = 0)"),
    "newton_max_iter": (
        lambda raw: raw == "50",
        "Newton always stops after 50 iterations"),
    "mobility_floor_tau": (
        lambda raw: raw == "-1",
        "the mobility floor is always the step tau"),
    "newton_tol": (
        lambda raw: raw == "1e-10",
        "Newton always stops at the max-norm residual 1e-10"),
    "linear_tol": (
        lambda raw: raw == "9.9999999999999994e-12",
        "the potential stage always stops at the solution error 1e-11"),
    "perturb_amplitude": (
        lambda raw: raw in ("9.9999999999999995e-07", "1e-06"),
        "the perturbation study's amplitudes are always 1e-6 times "
        "study_values"),
}


def _number(convert, raw: str, key: str, lineno: int):
    """``convert(raw)``, with a malformed number reported as a ConfigError
    that names its line."""
    try:
        return convert(raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc


def _parse_recipe(raw: str, key: str, lineno: int) -> tuple:
    parts = raw.split()
    if not parts:
        raise ConfigError(f"line {lineno}: empty initial-data recipe for '{key}'")
    kind, *args = parts
    if kind not in _RECIPES:
        raise ConfigError(
            f"line {lineno}: unknown initial-data recipe {kind!r} for '{key}'")
    if len(args) != len(_RECIPES[kind][0]):
        raise ConfigError(f"line {lineno}: '{key} = {_usage(kind)}'")
    if kind != "file":
        args = [_number(float, arg, key, lineno) for arg in args]
    return (kind, *args)


def parse_config(text: str) -> Config:
    """Parse and validate configuration text; reject anything off-spec.
    The rules of the grid, solver config and laws come from
    :func:`build_model`, re-raised as a ConfigError with the same message;
    the data rules wait for the run, which fixes the data and the step."""
    overrides = {}
    explicit_tau = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key == "tau":
            explicit_tau = (_number(float, raw, key, lineno), lineno)
            continue
        if key in _RETIRED_KEYS:
            accepts, scheme = _RETIRED_KEYS[key]
            if not accepts(raw):
                raise ConfigError(
                    f"line {lineno}: {key} was removed; {scheme}, got {raw!r}")
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        ftype = _FIELD_TYPES[key]
        if key in ("mu0", "rho0"):
            overrides[key] = _parse_recipe(raw, key, lineno)
        elif ftype == "int":
            overrides[key] = _number(int, raw, key, lineno)
        elif ftype == "float":
            overrides[key] = _number(float, raw, key, lineno)
            if not math.isfinite(overrides[key]):
                raise ConfigError(
                    f"line {lineno}: {key} must be finite, got {raw!r}")
        elif ftype == "tuple":
            overrides[key] = tuple(_number(float, v, key, lineno)
                                   for v in raw.split())
        else:
            overrides[key] = raw
    config = Config(**overrides)
    if explicit_tau is not None:
        value, lineno = explicit_tau
        if config.N <= 0 or value != config.T / config.N:
            raise ConfigError(
                f"line {lineno}: violates tau = T/N: tau = {value!r} "
                f"but T/N = {config.T / config.N if config.N else float('nan')!r}")
    try:
        build_model(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


def render_config(config: Config) -> str:
    """Canonical text for a config; parse(render(c)) == c."""
    lines = []
    for f in fields(Config):
        value = getattr(config, f.name)
        if isinstance(value, float):
            rendered = f"{value:.17g}"
        elif isinstance(value, tuple):
            # a recipe's kind and file path are words, every other entry a
            # number
            rendered = " ".join(
                part if isinstance(part, str) else f"{part:.17g}" for part in value)
        else:
            rendered = str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# builders


def build_laws(config: Config) -> laws_mod.Laws:
    graph = (laws_mod.ClampIndicator() if config.potential == "clamp"
             else laws_mod.LogGraph(config.alpha1))
    coupling = (laws_mod.LinearCoupling() if config.coupling == "linear"
                else laws_mod.ConstantCoupling(config.g0))
    mobility = (laws_mod.ConstantMobility(config.kappa0)
                if config.mobility == "constant"
                else laws_mod.TanhPowerMobility(config.m))
    return laws_mod.Laws(potential=laws_mod.Potential(graph, config.alpha2),
                         coupling=coupling, mobility=mobility)


def _bump(grid: Grid, center, radius, amplitude) -> ScalarField:
    if not radius > 0:
        raise ConfigError(f"bump radius must be positive, got {radius!r}")
    dist2 = sum((x - center) ** 2 for x in grid.coordinates())
    profile = np.maximum(0.0, 1.0 - dist2 / radius ** 2) ** 2
    return field_of(grid, amplitude * profile)


def _cosine(grid: Grid, mean, amplitude) -> ScalarField:
    freq = np.pi / grid.length
    profile = math.prod(np.cos(freq * x) for x in grid.coordinates())
    return field_of(grid, mean + amplitude * profile)


def _file(grid: Grid, path) -> ScalarField:
    try:
        return read_snapshot(path, grid)[0]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read initial-data file {path!r}: "
                          f"{ConfigError.reason(exc)}") from exc


# The initial-data recipes, kind -> (argument names, builder): the text
# ``<key> = <kind> <arguments>`` parses to the tuple ``(kind, *arguments)``,
# and ``builder(grid, *arguments)`` makes its field.  Every argument is a
# number but ``file``'s path.
_RECIPES = {
    "constant": (("value",), field_of),
    "bump": (("center", "radius", "amplitude"), _bump),
    "cosine": (("mean", "amplitude"), _cosine),
    "file": (("path",), _file),
}


def _usage(kind: str) -> str:
    return " ".join([kind] + [f"<{name}>" for name in _RECIPES[kind][0]])


def build_field(recipe: tuple, grid: Grid) -> ScalarField:
    """The field of a recipe tuple ``(kind, *arguments)``, as parse_config
    reads it or code writes it."""
    kind, *args = recipe or (None,)
    if kind not in _RECIPES:
        raise ConfigError(f"unknown initial-data recipe {kind!r}")
    if len(args) != len(_RECIPES[kind][0]):
        raise ConfigError(f"initial-data recipe must be '{_usage(kind)}', "
                          f"got {recipe!r}")
    return _RECIPES[kind][1](grid, *args)


def build_model(config: Config):
    """(grid, solver config, laws) of a config: value constructors, each
    checking its own layer's rules, that build no arrays."""
    return (Grid(config.dim, config.n, config.length),
            SolverConfig(T=config.T, n_steps=config.N, epsilon=config.epsilon,
                         delta=config.delta),
            build_laws(config))


def build_run(config: Config):
    """Materialize (grid, solver config, laws, (mu0, rho0)) from a config:
    :func:`build_model` and the two initial fields."""
    grid, cfg, laws = build_model(config)
    return grid, cfg, laws, (build_field(config.mu0, grid),
                             build_field(config.rho0, grid))
