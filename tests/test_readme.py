"""The README's "Library surface" table names only what `arcline` exports."""

import os
import re

import arcline

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def surface_names() -> list[str]:
    """Every backticked name in the table's rows, cut at any "("."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("## Library surface", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("|")][2:]
    return [code.split("(", 1)[0].strip()
            for row in rows for code in re.findall(r"`([^`]+)`", row)]


def test_library_surface_names_resolve():
    names = surface_names()
    assert len(names) > 30 and "synthesize" in names
    missing = [name for name in names if not hasattr(arcline, name)]
    assert not missing, f"README names {missing}, which arcline does not export"
