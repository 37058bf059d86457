"""README.md's Layout table names each module of the package once, in a few
words: what a module does and how is said in its own docstrings."""
import pkgutil
from pathlib import Path

import holopulse

_README = Path(__file__).resolve().parent.parent / "README.md"


def _layout_table() -> list:
    """The lines of the table under README.md's `## Layout` heading."""
    section = _README.read_text(encoding="utf-8").split("\n## Layout\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("|")]


def test_the_layout_table_has_one_short_row_per_module():
    table = _layout_table()
    names = [row.split("|")[1].strip().strip("`") for row in table[2:]]
    modules = [f"holopulse.{info.name}" for info in pkgutil.iter_modules(holopulse.__path__)]
    assert sorted(names) == sorted(modules)
    words = sum(len(line.replace("|", " ").split()) for line in table)
    assert words < 250
