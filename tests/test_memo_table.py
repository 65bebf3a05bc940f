"""README's table of memos names every lru_cache of the cyclopel modules,
and its count sentence gives their number."""

from __future__ import annotations

import importlib
import pkgutil
import re
import sys
from pathlib import Path

import cyclopel

README = Path(__file__).resolve().parent.parent / "README.md"


def _memos() -> set[str]:
    """module.function of every lru_cache-wrapped function, found as
    tests/test_golden.py's _clear_memos finds them."""
    for info in pkgutil.iter_modules(cyclopel.__path__):
        importlib.import_module(f"cyclopel.{info.name}")
    found = set()
    for name, module in list(sys.modules.items()):
        if name == "cyclopel" or name.startswith("cyclopel."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found.add(f"{value.__module__.removeprefix('cyclopel.')}.{value.__name__}")
    return found


def _table() -> set[str]:
    """Names in the first column of the memo table; a bare name belongs to
    the module of the row's first name, and parentheses hold remarks."""
    names = set()
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            cell = line.split("|")[1].split("(")[0]
            row = re.findall(r"`([\w.]+)`", cell)
            module = row[0].split(".")[0]
            names.update(n if "." in n else f"{module}.{n}" for n in row)
    return names


def test_readme_memo_table_lists_every_memo():
    memos = _memos()
    assert memos == _table()
    counts = re.findall(r"These (\d+) are the only memos", README.read_text(encoding="utf-8"))
    assert counts == [str(len(memos))]
