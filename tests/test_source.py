import ast
from pathlib import Path

import uncrossed


def test_no_assert_statements_in_package():
    # integrity checks must raise explicitly: `python -O` strips asserts
    package = Path(uncrossed.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert len(list(package.glob("*.py"))) >= 8
    assert offenders == []


def _imported_modules(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _called(call) -> str | None:
    # the called name: f of f(...) and of mod.f(...)
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_no_dataclasses_typing_or_generated_classes_in_package():
    # the records are plain classes: importing the package loads neither
    # dataclasses (which pulls in inspect) nor typing, and no class is
    # built from generated source
    package = Path(uncrossed.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}: import {name}"
                      for name in sorted(_imported_modules(tree) & {"dataclasses", "typing"})]
        offenders += [f"{path.name}:{node.lineno}: {_called(node)}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and _called(node) in ("exec", "eval", "namedtuple")]
    assert len(list(package.glob("*.py"))) >= 8
    assert offenders == []
