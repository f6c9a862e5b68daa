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


# tags whose norm only `gaslab norms` reads: the homogenization study may give
# the bounded-variation seminorms a reader (ROADMAP item 7), or they go
UNREAD_TAGS = {"WH", "WHst"}


def named_norm_calls(norms_path):
    """{tag: name of the function its NAMED_NORMS entry calls}."""
    for node in ast.parse(norms_path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["NAMED_NORMS"]):
            return {key.value: value.body.func.id
                    for key, value in zip(node.value.keys, node.value.values)}
    raise AssertionError(f"{norms_path} assigns no NAMED_NORMS dict")


def registry_faults(package, unread=UNREAD_TAGS):
    """Each NAMED_NORMS tag that calls the function of an earlier tag, or a
    function no other package module names (outside `unread`)."""
    read = referenced_names(p for p in package.glob("*.py") if p.name != "norms.py")
    faults, first = [], {}
    for tag, fn in named_norm_calls(package / "norms.py").items():
        if fn in first:
            faults.append(f"{tag} calls {fn}, as {first[fn]} does")
        first.setdefault(fn, tag)
        if fn not in read and tag not in unread:
            faults.append(f"{tag} calls {fn}, which only norms names")
    return faults


def test_every_named_norm_has_its_own_function_and_a_reader():
    assert registry_faults(ROOT / "src" / "gaslab") == []


def test_registry_guard_lists_aliases_and_unread_norms(tmp_path):
    (tmp_path / "norms.py").write_text(
        "def lqr(w, q, r):\n    return w\n\n\ndef c0(w):\n    return w\n\n\n"
        "def wh(w):\n    return w\n\n\n"
        "NAMED_NORMS = {\n"
        '    "Lq": lambda w, q=2.0: lqr(w, q, q),\n'
        '    "Lqr": lambda w, q=2.0, r=2.0: lqr(w, q, r),\n'
        '    "C0": lambda w: c0(w),\n'
        '    "WH": lambda w: wh(w),\n'
        "}\n")
    (tmp_path / "studies.py").write_text("from .norms import lqr\n")
    assert registry_faults(tmp_path, unread=set()) == [
        "Lqr calls lqr, as Lq does", "C0 calls c0, which only norms names",
        "WH calls wh, which only norms names"]
    assert registry_faults(tmp_path) == ["Lqr calls lqr, as Lq does",
                                         "C0 calls c0, which only norms names"]
