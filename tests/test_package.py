import ast
import importlib
import re
import tomllib
import types
from pathlib import Path

import congames
import congames.checks
import congames.cli

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_every_public_name():
    public = {
        name
        for name, value in vars(congames).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(congames.__all__) == public
    assert len(congames.__all__) == len(public) == 43


def _imports_checks(node: ast.AST) -> bool:
    """Whether an import statement loads congames.checks, relatively or by name."""
    if isinstance(node, ast.Import):
        return any(alias.name == "congames.checks" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = "." * node.level + (node.module or "")
    if module in (".", "congames"):
        return any(alias.name == "checks" for alias in node.names)
    return module in (".checks", "congames.checks")


def test_checks_import_no_solver_and_only_the_cli_imports_checks():
    """The theorem checks bind no oracle or dynamics runner, and no module but
    the CLI and the package itself imports them."""
    solvers = {
        "run_bulletin",
        "run_bandit",
        "reference_minimizer",
        "min_average_cost",
        "min_max_cost",
        "minimize_edge_separable",
        "_epigraph_barrier",
    }
    assert solvers.isdisjoint(vars(congames.checks))
    importers = {
        path.name
        for path in (ROOT / "src" / "congames").glob("*.py")
        if any(_imports_checks(node) for node in ast.walk(ast.parse(path.read_text())))
    }
    assert importers == {"cli.py", "__init__.py"}


# The functions in tests/ kept as copies of an earlier implementation, each with
# the recorded mutant that no other test kills.
KEPT_COPIES = {
    "test_minimize.py::_np_roots_line_search": "complex eigenvalues with |imag| < 1 taken as "
    "real roots in minimize._line_search (`abs(r.imag) < 1.0`)",
}


def test_no_test_keeps_a_copy_of_an_earlier_implementation():
    """The spec (tests/spec.py) pins the math and the goldens pin the bits, so no
    function in tests/ is documented as an earlier implementation kept as a
    reference unless KEPT_COPIES names the mutant that only it kills."""
    copy = re.compile(r"as it was|kept as the (reference|oracle)")
    found = {
        f"{path.name}::{node.name}"
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and copy.search(" ".join(str(ast.get_docstring(node)).split()))
    }
    assert found == set(KEPT_COPIES)


def test_console_script_resolves_to_cli_main():
    """The installed `congames` command runs cli.main (tier-1 imports from src/,
    so a stale [project.scripts] entry would otherwise go unnoticed)."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["congames"]
    module, _, attr = entry.partition(":")
    assert getattr(importlib.import_module(module), attr) is congames.cli.main


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


def test_every_dataclass_field_is_read():
    """Every field of a @dataclass in src/congames is read as `.name` somewhere
    in src/congames, scripts/, perfbench/*.py or tests/.

    A floor, like the check above: it matches attribute names, not the class
    they belong to, so a method or attribute of another class with the same
    name hides an unread field.
    """
    patterns = ("src/congames/*.py", "scripts/*.py", "perfbench/*.py", "tests/*.py")
    trees = [ast.parse(path.read_text()) for p in patterns for path in sorted(ROOT.glob(p))]
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for path in sorted((ROOT / "src" / "congames").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if item.target.id not in read:
                        unread.append(f"{path.name}:{item.lineno} {node.name}.{item.target.id}")
    assert unread == []


def _positional_extremum_calls(source: str) -> list[int]:
    """Lines where np.minimum or np.maximum, or a name assigned one of them, is
    called with more than two positional arguments."""
    tree = ast.parse(source)
    names = {"np.minimum", "np.maximum"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                else:
                    pairs = [(target, node.value)]
                names |= {ast.unparse(t) for t, v in pairs if ast.unparse(v) in names}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in names
        and (len(node.args) > 2 or any(isinstance(a, ast.Starred) for a in node.args))
    ]


def test_min_and_max_take_out_as_a_keyword():
    """numpy 2.4 deprecates a third positional argument to np.minimum and
    np.maximum; pytest turns that warning into an error only on the calls a test
    runs, so every call in the package is read here."""
    sample = "lo, add = np.minimum, np.add\nlo(a, b, c)\nnp.maximum(a, b, out=c)\nadd(a, b, c)\n"
    assert _positional_extremum_calls(sample) == [2]
    found = {
        f"{path.name}:{line}"
        for path in sorted((ROOT / "src" / "congames").glob("*.py"))
        for line in _positional_extremum_calls(path.read_text())
    }
    assert found == set()
