"""README's table of memos names every memo of the cyclopel modules with
its bound, and its count sentence gives their number."""

from __future__ import annotations

import re
from pathlib import Path

from oracles import memos

README = Path(__file__).resolve().parent.parent / "README.md"


def _table() -> dict[str, int]:
    """module.function -> bound of the rows of the memo table.  A bare name
    belongs to the module of the row's first name, parentheses hold
    remarks, and the bound column starts with the bound."""
    bounds = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            row = re.findall(r"`([\w.]+)`", cells[1].split("(")[0])
            module = row[0].split(".")[0]
            bound = int(re.match(r"\s*(\d+)", cells[3])[1])
            bounds.update((n if "." in n else f"{module}.{n}", bound) for n in row)
    return bounds


def test_readme_memo_table_lists_every_memo():
    found = {
        f"{m.__module__.removeprefix('cyclopel.')}.{m.__name__}": m.cache_parameters()["maxsize"]
        for m in memos()
    }
    assert all(isinstance(bound, int) for bound in found.values()), found
    assert found == _table()
    counts = re.findall(r"These (\d+) are the only memos", README.read_text(encoding="utf-8"))
    assert counts == [str(len(found))]
