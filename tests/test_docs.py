"""docs/config.md and the config parser name the same keys: every key the
parser reads is documented, and every row of a key table is a key it
reads (a field of ``Config``, ``tau``, or a retired key).  Its recipe
block names the recipe table's kinds, each with its arguments in order.
Every message of its validation table is one the package raises, and
every owning layer it names is an attribute of the package.
docs/diagnostics.md documents exactly the columns report.csv prints, and
the library's whole-run ledger is keyed by those names; docs/studies.md
documents exactly the columns each study table prints.  Every solver
value the two docs quote is the stepper's, and every constant of the
homogeneous oracle that docs/studies.md quotes is the oracle's."""

import ast
import re
from dataclasses import fields
from importlib import import_module
from pathlib import Path

from vchsim import config, stepper, studies
from vchsim.diagnostics import REPORT_COLUMNS, SERIES_COLUMNS, ledger_columns
from vchsim.mesh import Grid
from vchsim.stepper import run
from vchsim.studies import STUDIES

CONFIG_MD = Path(__file__).resolve().parents[1] / "docs" / "config.md"
DIAGNOSTICS_MD = CONFIG_MD.with_name("diagnostics.md")
STUDIES_MD = CONFIG_MD.with_name("studies.md")


def _key_rows(text: str) -> list:
    """First cell of every body row of the tables whose header's first
    column is ``key``: the key name when the cell is one backticked name,
    else the cell itself."""
    rows, in_key_table = [], False
    for line in text.splitlines():
        if not line.startswith("|"):
            in_key_table = False
            continue
        first = line.split("|")[1].strip()
        if first == "key":
            in_key_table = True
        elif in_key_table and not set(first) <= set("-: "):
            match = re.fullmatch(r"`(\w+)`", first)
            rows.append(match.group(1) if match else first)
    return rows


def test_every_key_the_parser_reads_is_documented():
    text = CONFIG_MD.read_text()
    keys = [f.name for f in fields(config.Config)] + ["tau"]
    assert [key for key in keys if f"`{key}`" not in text] == []


def test_every_key_row_is_a_key_the_parser_reads():
    rows = _key_rows(CONFIG_MD.read_text())
    known = ({f.name for f in fields(config.Config)} | {"tau"}
             | set(config._RETIRED_KEYS))
    assert [row for row in rows if row not in known] == []
    assert set(config._RETIRED_KEYS) <= set(rows)


def test_recipe_block_is_the_recipe_table():
    # the usage lines under "## Initial data", one per kind in table order,
    # each with its argument names in order
    section = CONFIG_MD.read_text().split("## Initial data\n")[1]
    block = section.split("```\n")[1].splitlines()
    documented = [re.fullmatch(r"mu0 = (\w+)((?: <\w+>)*)",
                               line.split("#")[0].strip()).groups()
                  for line in block]
    assert [(kind, re.findall(r"<(\w+)>", args))
            for kind, args in documented] == [
        (kind, list(names))
        for kind, (names, _build) in config._RECIPES.items()]


def _validation_column(text: str, column: int) -> list:
    """Every backticked entry of one column of the validation table of
    docs/config.md (the table whose header is ``rule | owning layer |
    message``)."""
    entries, in_table = [], False
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if cells[:3] == ["rule", "owning layer", "message"]:
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and not set(cells[0]) <= set("-: "):
            entries += re.findall(r"`([^`]+)`", cells[column])
    return entries


def _source_strings() -> str:
    """Every string literal of the package, one per line, with a NUL where
    an f-string formats a value; implicitly concatenated literals are one
    string, as the parser joins them."""
    strings = []
    for path in sorted((CONFIG_MD.parents[1] / "src" / "vchsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                strings.append("".join(
                    part.value if isinstance(part, ast.Constant) else "\0"
                    for part in node.values))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.append(node.value)
    return "\n".join(strings)


def test_every_documented_rejection_message_is_raised_by_the_code():
    # placeholders (<k>, <key>) and elisions (...) stand for the values a
    # message is formatted with; every literal piece between them must be
    # in one string literal of the package
    source = _source_strings()
    messages = _validation_column(CONFIG_MD.read_text(), 2)
    assert len(messages) >= 25
    missing = [(message, piece) for message in messages
               for piece in re.split(r"<[^>]*>|\.\.\.", message)
               if piece.strip() and piece.strip() not in source]
    assert missing == []


def test_every_owning_layer_is_an_attribute_of_the_package():
    layers = _validation_column(CONFIG_MD.read_text(), 1)
    assert len(layers) >= 20
    missing = []
    for layer in layers:
        module, _, attr = layer.partition(".")
        try:
            getattr(import_module(f"vchsim.{module}"), attr)
        except (ImportError, AttributeError):
            missing.append(layer)
    assert missing == []


def test_report_columns_are_documented():
    # the first cells of the report.csv table's body rows, in table order
    section = DIAGNOSTICS_MD.read_text().split("## report.csv columns\n\n")[1]
    table = section.split("\n\n")[0].splitlines()[2:]
    documented = [name for line in table
                  for name in re.findall(r"`(\w+)`", line.split("|")[1])]
    assert documented == list(REPORT_COLUMNS)
    _grid, cfg, laws, initial = config.build_run(config.parse_config(
        "n = 8\nT = 0.25\nN = 2\nmu0 = bump 0.5 0.3 1\n"))
    ledger = ledger_columns(run(cfg, laws, initial), laws)
    assert set(REPORT_COLUMNS) | set(SERIES_COLUMNS) <= set(ledger)
    assert all(len(column) == 3 for column in ledger.values())


def test_study_columns_are_documented():
    # the first cells of the body rows of the table under each study's
    # heading, in table order
    text = STUDIES_MD.read_text()
    for study, (name, columns, _study) in STUDIES.items():
        section = text.split(f"## {name} (`study = {study}`)\n")[1]
        table = [line for line in section.split("\n## ")[0].splitlines()
                 if line.startswith("|")][2:]
        documented = [column for line in table
                      for column in re.findall(r"`(\w+)`", line.split("|")[1])]
        assert documented == list(columns), study


def _significant(quoted: str) -> int:
    """Significant digits of a quoted decimal such as ``1.1e-9`` or ``50``."""
    mantissa = re.split(r"[eE]", quoted)[0]
    return len(re.sub(r"\D", "", mantissa).lstrip("0")) or 1


def _evaluate(expr: str) -> float:
    """A documented expression of stepper constants, such as
    ``10 (stepper.NEWTON_TOL + stepper.LINEAR_TOL)``; the docs write a
    product by juxtaposition."""
    expr = re.sub(r"stepper\.(\w+)",
                  lambda m: repr(getattr(stepper, m.group(1))), expr)
    expr = re.sub(r"(?<=[\d)]) (?=[\d(])", " * ", expr)
    return eval(expr, {"__builtins__": {}})


def test_quoted_solver_constants_are_the_steppers():
    # `stepper.NAME = v` and `v` (`stepper.NAME`) quote a constant, which
    # must equal it exactly; `expr` (`v`) quotes a value derived from the
    # constants, which must equal it to the digits shown; `a nodes + b`
    # quotes the Krylov cap, which must be the stepper's on every grid
    named, derived, caps = [], [], []
    for path in (CONFIG_MD, DIAGNOSTICS_MD):
        text = path.read_text()
        named += re.findall(r"`stepper\.(\w+) = ([^`]+)`", text)
        named += [(name, value) for value, name in re.findall(
            r"`([^`]+)`\s+\(`stepper\.(\w+)`\)", text)]
        derived += re.findall(r"`([^`]*stepper\.[^`]*)`\s+\(`([^`]+)`\)",
                              text)
        caps += re.findall(r"`(\d+ nodes \+ \d+)`", text)
    assert {name for name, _ in named} == {
        "NEWTON_TOL", "LINEAR_TOL", "NEWTON_MAX_ITER", "DCT_CONTRAST_MAX"}
    assert [(name, value) for name, value in named
            if float(value) != getattr(stepper, name)] == []
    assert len(derived) == 2
    assert [(expr, value) for expr, value in derived
            if float(f"{_evaluate(expr):.{_significant(value)}g}")
            != float(value)] == []
    assert caps
    for grid in (Grid(1, 40, 1.0), Grid(2, 12, 1.0)):
        assert [cap for cap in caps
                if _evaluate(cap.replace("nodes", str(grid.num_nodes)))
                != stepper._krylov_cap(grid)] == []


def test_quoted_oracle_constants_are_the_oracles():
    # `v` (`studies.NAME`) quotes a constant of the reduced-system oracle,
    # which must equal it exactly
    named = [(name, value) for value, name in re.findall(
        r"`([^`]+)`\s+\(`studies\.(\w+)`\)", STUDIES_MD.read_text())]
    assert {name for name, _ in named} == {
        "ODE_MAX_STEP", "_ODE_NEWTON_TOL", "_ODE_NEWTON_ITERS",
        "_ODE_ERROR_TOL", "_ODE_MAX_HALVINGS"}
    assert [(name, value) for name, value in named
            if float(value) != getattr(studies, name)] == []
