"""Source hygiene, checked with the standard library's ast module: every
public name resolves, no module imports a name it never uses, no src
function takes a parameter it never reads, every top-level function and
class of src is referenced by the program itself (not by tests alone)
outside its own definition, every attribute src stores on self is read
somewhere, src stores no _-prefixed attribute on another object, and only
the modules that build systems import a system class."""

import ast
import pathlib
from collections import Counter

import spdominance

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
# what keeps a src definition alive: src past the package's re-exports in
# __init__, the demos and the benchmark's scripts (read, not checked)
PROGRAM = sorted([p for p in SOURCES if not p.is_relative_to(ROOT / "tests")
                  and p.name != "__init__.py"] + list((ROOT / "perfbench").glob("*.py")))


def unused_imports(path):
    """'file:line: name' for each imported name the module never reads. A
    name listed in the module's __all__ counts as read."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def unused_parameters(path):
    """'file:line: function.parameter' for each parameter of a function or
    lambda that its body never reads. Dunder methods are exempt: their
    signatures are protocols (numpy passes __array__ a copy flag)."""
    hits = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(fn, "name", "<lambda>")
        if name.startswith("__") and name.endswith("__"):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        hits += [f"{path.relative_to(ROOT)}:{fn.lineno}: {name}.{p.arg}"
                 for p in params if p.arg not in read]
    return hits


def references(tree):
    """Each name a tree refers to: names it reads, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unreferenced_definitions(sources):
    """'file:line: name' for each top-level function or class of src in
    sources that no file of sources refers to, apart from its own body
    (recursion)."""
    trees = {path: ast.parse(path.read_text()) for path in sources}
    refs = Counter(name for tree in trees.values() for name in references(tree))
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for path, tree in trees.items() if path.is_relative_to(ROOT / "src")
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and refs[node.name] == Counter(references(node))[node.name]]


def self_attribute_stores(path):
    """(name, 'file:line: name') for each self.<name> = ... store in a file."""
    return [(node.attr, f"{path.relative_to(ROOT)}:{node.lineno}: {node.attr}")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"]


def private_stores_off_self(path):
    """'file:line: target' for each store of a _-prefixed attribute on an
    object other than self, such as a module caching its state on a system."""
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr.startswith("_")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")]


SYSTEM_CLASSES = {"LinearSPSystem", "NonlinearSPSystem"}
# the modules that define, build or re-export the system classes; every other
# module reads a system through the attributes both kinds share
SYSTEM_BUILDERS = {"systems.py", "cli.py", "__init__.py"}


def system_class_imports(path):
    """'file:line: name' for each system class a module imports."""
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in SYSTEM_CLASSES]


def attribute_reads(tree):
    """Each attribute name a tree reads: as .name, or through getattr or
    hasattr with a literal name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_public_names_resolve():
    assert [name for name in spdominance.__all__ if not hasattr(spdominance, name)] == []


def test_no_unused_imports():
    assert SOURCES
    assert [hit for path in SOURCES for hit in unused_imports(path)] == []


def test_no_unused_parameters():
    src = [path for path in SOURCES if path.is_relative_to(ROOT / "src")]
    assert src
    assert [hit for path in src for hit in unused_parameters(path)] == []


def test_every_src_definition_is_referenced():
    assert unreferenced_definitions(PROGRAM) == []


def test_every_src_attribute_is_read():
    read = {name for path in SOURCES for name in attribute_reads(ast.parse(path.read_text()))}
    src = [path for path in SOURCES if path.is_relative_to(ROOT / "src")]
    assert src
    assert [hit for path in src for name, hit in self_attribute_stores(path)
            if name not in read] == []


def test_src_stores_no_private_attribute_on_another_object():
    src = [path for path in SOURCES if path.is_relative_to(ROOT / "src")]
    assert src
    assert [hit for path in src for hit in private_stores_off_self(path)] == []


def test_only_system_builders_import_a_system_class():
    src = [path for path in SOURCES if path.is_relative_to(ROOT / "src")
           and path.name not in SYSTEM_BUILDERS]
    assert src
    assert [hit for path in src for hit in system_class_imports(path)] == []
