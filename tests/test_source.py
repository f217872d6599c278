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
