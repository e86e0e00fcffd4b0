"""The package namespace: every module's public names, each re-exported once."""

import ast
import importlib
import importlib.metadata
import pkgutil
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qillum
from qillum import gaussian, link, montecarlo, protocol, receivers

ROOT = Path(__file__).resolve().parent.parent


def test_package_all_is_the_union_of_the_module_alls():
    modules = (gaussian, protocol, receivers, montecarlo, link)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert qillum.__all__ == ["__version__", *names]
    for module in modules:
        for name in module.__all__:
            assert getattr(qillum, name) is getattr(module, name)


def test_every_module_level_array_is_read_only():
    """A writable module-level array is state that any caller can change for every later call."""
    modules = [qillum] + [
        importlib.import_module(f"qillum.{info.name}")
        for info in pkgutil.iter_modules(qillum.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    arrays = [
        (f"{module.__name__}.{name}", value)
        for module in modules
        for name, value in vars(module).items()
        if isinstance(value, np.ndarray)
    ]
    assert arrays
    assert [name for name, value in arrays if value.flags.writeable] == []


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads as an ``ast.Name``.

    ``from __future__`` and star imports are exempt, and so is a name the
    module lists in ``__all__`` (a re-export).
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= {
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


def test_no_file_imports_a_name_it_never_uses():
    files = [
        path
        for pattern in ("src/qillum/*.py", "tests/*.py", "demos/*.py")
        for path in sorted(ROOT.glob(pattern))
    ]
    assert files
    assert [entry for path in files for entry in _unused_imports(path)] == []


def _module_level_private_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each private function, class or constant ``tree`` defines at module level."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            targets = []
        found += [(name, node.lineno) for name in targets if name.startswith("_") and not name.startswith("__")]
    return found


def test_no_private_name_in_src_goes_unread():
    """A helper a deletion leaves behind: defined at module level, read nowhere under src/.

    A read is a loaded ``ast.Name`` or an attribute access (``module._name``)
    in any file of the package.
    """
    files = sorted(ROOT.glob("src/qillum/*.py"))
    assert files
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(name, f"{path.relative_to(ROOT)}:{line}: {name}") for name, line in _module_level_private_names(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert [where for name, where in defined if name not in read] == []


def _one_statement_helpers_with_one_caller(files: list[Path]) -> list[str]:
    """Module-level, undecorated private functions worth inlining.

    Each one's body, apart from its docstring, is one statement, and the
    files call it from exactly one place (a call of ``_name`` or of
    ``module._name``).
    """
    helpers: dict[str, str] = {}
    calls: Counter[str] = Counter()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and not node.decorator_list
                and len(node.body) - (ast.get_docstring(node) is not None) == 1
            ):
                helpers[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls[node.func.id] += 1
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                calls[node.func.attr] += 1
    return [where for name, where in helpers.items() if calls[name] == 1]


def test_no_one_statement_private_helper_has_a_single_caller():
    """A one-statement wrapper with one call site reads better inlined at that site."""
    files = sorted(ROOT.glob("src/qillum/*.py"))
    assert files
    assert _one_statement_helpers_with_one_caller(files) == []


def test_only_gaussian_imports_numbers():
    """``numbers`` serves the one type rule for counts and reals, ``gaussian._real`` and ``_count``.

    Another module importing it is a second copy of that rule in the making.
    """
    importers = [
        path.name
        for path in sorted(ROOT.glob("src/qillum/*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(alias.name == "numbers" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "numbers"
    ]
    assert importers == ["gaussian.py"]


def _defaulted_parameters(arguments: ast.arguments) -> list[str]:
    """The names of the parameters that ``arguments`` gives a default."""
    positional = arguments.posonlyargs + arguments.args
    named = positional[len(positional) - len(arguments.defaults):]
    named += [arg for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults) if default is not None]
    return [arg.arg for arg in named]


def test_the_recipe_imports_nothing_and_takes_sqrt_without_a_default():
    """``_recipe`` runs on floats, mpmath and sympy alike only while it imports nothing and is always handed its ``sqrt``.

    An import could pull numpy into it, and a default ``sqrt=math.sqrt``
    would quietly round an mpmath number to float.
    """
    tree = ast.parse((ROOT / "src/qillum/_recipe.py").read_text())
    nodes = list(ast.walk(tree))
    assert [node.lineno for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))] == []
    arguments = [node for node in nodes if isinstance(node, ast.arguments)]
    assert any(arg.arg == "sqrt" for node in arguments for arg in node.posonlyargs + node.args + node.kwonlyargs)
    assert [node for node in arguments if "sqrt" in _defaulted_parameters(node)] == []


def test_cli_forms_no_receiver_bound_or_model():
    """The CLI presents library results: ``security_margin`` and ``run_mc`` form every bound and model it prints.

    A receivers function that forms a bound or a model, named in cli.py, is
    the CLI re-deriving a result the library already returns.
    """
    tree = ast.parse((ROOT / "src/qillum/cli.py").read_text())
    named = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert named & {"alice_optimum_bounds", "eve_optimum_bounds", "opa_bhattacharyya", "opa_model"} == set()


def _requirement_names(requirements: list[str]) -> set[str]:
    """The distribution names of pyproject.toml requirement strings, lower-cased."""
    return {re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower() for requirement in requirements}


def _third_party_imports(pattern: str, own: set[str]) -> set[str]:
    """The top-level modules the files matching ``pattern`` import by an absolute import, less the standard library and ``own``."""
    imported = set()
    for path in sorted(ROOT.glob(pattern)):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported - set(sys.stdlib_module_names) - own


def test_every_third_party_module_the_tests_import_is_a_declared_dependency():
    """Each module a test file imports is the standard library's, the repository's own, or from a distribution pyproject.toml lists.

    Declared means a runtime dependency or one in the ``test`` extra, so a
    dependency moved between the two still has to be declared in one.
    """
    tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = _requirement_names(project["dependencies"] + project["optional-dependencies"]["test"])
    own = {"qillum"} | {path.stem for folder in ("tests", "bench") for path in (ROOT / folder).glob("*.py")}
    third_party = _third_party_imports("tests/*.py", own)
    distributions = importlib.metadata.packages_distributions()
    assert third_party
    assert {name: distributions.get(name) for name in third_party if not {d.lower() for d in distributions.get(name, [])} & declared} == {}


def test_the_runtime_dependencies_are_the_distributions_src_imports():
    """pyproject.toml's runtime dependencies are exactly the distributions of the third-party modules src/ imports: numpy.

    So a test-only reference such as scipy cannot creep into the package
    unnoticed, and no runtime dependency stays declared once unused.
    """
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    distributions = importlib.metadata.packages_distributions()
    imported = {d.lower() for name in _third_party_imports("src/qillum/*.py", {"qillum"}) for d in distributions.get(name, [name])}
    assert imported == _requirement_names(project["dependencies"]) == {"numpy"}
