"""docs/config.md and the config parser name the same keys: every key the
parser reads is documented, and every row of a key table is a key it
reads (a field of ``Config``, ``tau``, or a retired key)."""

import re
from dataclasses import fields
from pathlib import Path

from vchsim import config

CONFIG_MD = Path(__file__).resolve().parents[1] / "docs" / "config.md"


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
