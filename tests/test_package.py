import ast
import re
import types
from pathlib import Path

import congames

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(congames).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(congames.__all__) == public
    assert len(congames.__all__) == len(public) == 46


def test_every_unexported_definition_has_a_use():
    """Every function, method and class in src/congames that is neither a dunder
    nor in congames.__all__ appears as a whole word somewhere else: in
    src/congames outside its own definition, in scripts/ or in perfbench/*.py.

    The guard is a floor, not a proof of use: it matches names, not bindings,
    so a local variable or another definition sharing a dead method's name
    hides it.
    """
    sources = sorted((ROOT / "src" / "congames").glob("*.py"))
    texts = {path: path.read_text() for path in sources}
    others = [
        path.read_text()
        for pattern in ("scripts/*.py", "perfbench/*.py")
        for path in sorted(ROOT.glob(pattern))
    ]
    unused = []
    for path, text in texts.items():
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in congames.__all__:
                continue
            rest = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            word = re.compile(rf"\b{re.escape(name)}\b")
            haystacks = [rest, *(t for p, t in texts.items() if p != path), *others]
            if not any(word.search(h) for h in haystacks):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
