"""Rules every module of the package keeps, read off its syntax trees:

- no assert statement: asserts vanish under python -O, so invariant
  checks raise typed errors instead;
- no shared numeric state: no assignment to the prec or dps of mpmath's
  mp or iv context, no mp or iv workprec or workdps, and no decimal
  getcontext or setcontext, so the library is safe in threads and its
  results do not depend on its caller's contexts;
- every public module-level function is used or imported somewhere in
  the package, or is in the __all__ of the command-line module, which the
  package does not import;
- every name in the __all__ of a module, the package's own included, is
  bound at the top level of that module, so each export resolves.

The CI workflow runs this file as its own step."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import cyclopel

_CONTEXTS = ("mp", "iv")


def _is_context(node: ast.expr) -> bool:
    return ast.unparse(node).split(".")[-1] in _CONTEXTS


def _breaches(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(rule, "file:line: what") for every breach of the rules in sources,
    a map of each module's path in the package to its text."""
    found, used, api, public = [], set(), set(), []
    for name, text in sorted(sources.items()):
        tree = ast.parse(text, name)
        bound, exports = set(), []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                public.append((f"{name}:{node.lineno}", node.name))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
                if [ast.unparse(t) for t in targets] == ["__all__"]:
                    exports = [(f"{name}:{node.lineno}", e) for e in ast.literal_eval(node.value)]
        found += [("export", f"{where}: __all__ names {e}, which the module does not bind")
                  for where, e in exports if e not in bound]
        if name == "cli.py":
            api.update(e for _, e in exports)
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if node.attr in ("workprec", "workdps") and _is_context(node.value):
                    found.append(("numeric state", f"{where}: uses {ast.unparse(node)}"))
            if isinstance(node, ast.Assert):
                found.append(("assert", f"{where}: assert statement"))
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in (n for target in targets for n in ast.walk(target)):
                    if isinstance(t, ast.Attribute) and t.attr in ("prec", "dps") and _is_context(t.value):
                        found.append(("numeric state", f"{where}: assigns {ast.unparse(t)}"))
            if isinstance(node, ast.Call):
                if ast.unparse(node.func).split(".")[-1] in ("getcontext", "setcontext"):
                    found.append(("numeric state", f"{where}: calls {ast.unparse(node.func)}"))
    for where, function in public:
        if function not in used and function not in api:
            found.append(("unused", f"{where}: {function} is used nowhere in the package"))
    return found


@pytest.fixture(scope="module")
def package_breaches() -> list[tuple[str, str]]:
    root = Path(cyclopel.__file__).resolve().parent
    sources = {
        path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(root.rglob("*.py"))
    }
    assert {"cli.py", "embeddings.py", "polarization.py"} <= set(sources)
    return _breaches(sources)


def test_no_assert_statement(package_breaches):
    assert [where for rule, where in package_breaches if rule == "assert"] == []


def test_no_shared_numeric_state(package_breaches):
    assert [where for rule, where in package_breaches if rule == "numeric state"] == []


def test_every_public_function_is_used(package_breaches):
    assert [where for rule, where in package_breaches if rule == "unused"] == []


def test_every_export_resolves(package_breaches):
    assert [where for rule, where in package_breaches if rule == "export"] == []


@pytest.mark.parametrize(
    "text, rule",
    [
        ("def _check(x):\n    assert x\n", "assert"),
        ("import mpmath\nmpmath.mp.prec = 100\n", "numeric state"),
        ("from mpmath import iv\niv.dps += 10\n", "numeric state"),
        ("from mpmath import iv\nwith iv.workprec(200):\n    pass\n", "numeric state"),
        ("from mpmath import mp\nwith mp.workdps(50):\n    pass\n", "numeric state"),
        ("import decimal\ndecimal.getcontext().prec = 50\n", "numeric state"),
        ("from decimal import Context, setcontext\nsetcontext(Context())\n", "numeric state"),
        ("def helper():\n    return 1\n", "unused"),
        ("from .other import kept\n__all__ = ['kept', 'gone']\n", "export"),
    ],
    ids=["assert", "mp-prec", "iv-dps", "iv-workprec", "mp-workdps", "getcontext", "setcontext",
         "unused", "export"],
)
def test_each_rule_finds_its_breach(text, rule):
    sources = {"cli.py": "__all__ = ['main']\n\n\ndef main():\n    return 0\n", "module.py": text}
    assert [r for r, _ in _breaches(sources)] == [rule]


def test_private_contexts_and_used_functions_pass():
    text = (
        "from decimal import localcontext\n"
        "from mpmath.ctx_iv import MPIntervalContext\n\n\n"
        "def render(x):\n"
        "    ctx = MPIntervalContext()\n"
        "    ctx.prec = 128\n"
        "    with localcontext() as dec:\n"
        "        dec.prec = 20\n"
        "        return ctx, dec\n"
    )
    sources = {"cli.py": "from .module import render\n__all__ = ['main']\n\n\ndef main():\n    return render\n",
               "module.py": text}
    assert _breaches(sources) == []
