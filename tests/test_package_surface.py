"""Every public module-level function and class of the package, and every
public method of those classes, has a caller outside the tests: a reference
from the package itself, from scripts/ or from the benchmark harness in
perfbench/.  Code that only tests reach is deleted, not kept as library
surface."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _public(nodes):
    return [node for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def public_definitions(package):
    """(qualified name, name) of each public def and class at a module's top
    level and of each public method of those classes."""
    for path in sorted(package.glob("*.py")):
        for node in _public(ast.parse(path.read_text(encoding="utf-8")).body):
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    yield f"{path.stem}.{node.name}.{method.name}", method.name


def referenced_names(paths):
    """Every identifier the files read, import or reach as an attribute;
    names inside strings and comments do not count."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def orphans(root):
    """Qualified name of each public definition under root/src/gaslab that no
    package module, script or non-test harness file names."""
    package = root / "src" / "gaslab"
    callers = [*package.glob("*.py"), *(root / "scripts").glob("*.py"),
               *(p for p in (root / "perfbench").glob("*.py")
                 if not p.name.startswith("test_"))]
    used = referenced_names(callers)
    return [qualified for qualified, name in public_definitions(package)
            if name not in used]


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert orphans(ROOT) == []


def test_orphan_guard_lists_a_definition_only_tests_call(tmp_path):
    package = tmp_path / "src" / "gaslab"
    package.mkdir(parents=True)
    (tmp_path / "scripts").mkdir()
    (tmp_path / "perfbench").mkdir()
    (package / "ops.py").write_text(
        'def used(y):\n    """orphan(y) is mentioned here only."""\n    return y\n\n\n'
        "def orphan(y):\n    return used(y)\n\n\n"
        "class Unraised(ValueError):\n    pass\n\n\n"
        "class Spec:\n    def kept(self):\n        return self\n\n"
        "    def dropped(self):\n        return self.kept()\n")
    (tmp_path / "scripts" / "run.py").write_text(
        "from gaslab.ops import Spec, used\nused(Spec())\n")
    (tmp_path / "perfbench" / "test_ops.py").write_text(
        "from gaslab.ops import orphan, Unraised\n")
    assert orphans(tmp_path) == ["ops.orphan", "ops.Unraised", "ops.Spec.dropped"]
