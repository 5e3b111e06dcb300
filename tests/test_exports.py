"""The package's public names: every export resolves and none is stale,
no module imports a name it never uses, no private name of the package is
left unread by it, and no function only passes its parameters on."""

import ast
from pathlib import Path

import fermigte
from fermigte import bisep, geometry


def test_every_export_resolves():
    assert len(set(fermigte.__all__)) == len(fermigte.__all__)
    for name in fermigte.__all__:
        assert getattr(fermigte, name) is not None, name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from fermigte import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fermigte.__all__)


def test_shapes_have_one_constructor():
    # a configuration is scaled(kfr, <family>_shape(...), dim)
    for name in ("collinear", "isosceles", "polar", "equilateral"):
        assert not hasattr(fermigte, name) and not hasattr(geometry, name)
        assert hasattr(geometry, f"{name}_shape")


def test_bisep_defines_no_types():
    # a section is (r_plus, r3) and its hexagon a tuple of vertices
    owned = [v for v in vars(bisep).values() if isinstance(v, type) and v.__module__ == bisep.__name__]
    assert owned == []


def _unused_imports(path: Path) -> list[str]:
    """Each name the module imports and never reads, as "file:line name";
    the names in its __all__ count as read, and a ``# noqa`` line is skipped."""
    source = path.read_text()
    lines = source.splitlines()
    imported, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src").rglob("*.py")) + sorted((root / "tests").glob("*.py"))
    paths += sorted((root / "scripts").glob("*.py"))
    assert [u for p in paths for u in _unused_imports(p)] == []


def _private_names(path: Path) -> dict[str, int]:
    """The module-level private functions, classes and assigned names of a
    module (dunder names aside), each with its line."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((n, node.lineno) for n in names if n.startswith("_") and not n.startswith("__"))
    return out


def test_no_unused_private_names():
    # a private helper that only the tests read is dead code of the package
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "fermigte").glob("*.py"))
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = [
        f"{p.name}:{line} {name}" for p in paths for name, line in _private_names(p).items()
        if name not in read
    ]
    assert unused == []


def _pass_throughs(source: str) -> list[str]:
    """Each module-level function whose body, docstring aside, is a single
    ``return g(<its own parameters, in order>)``, as "line name"."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call, params = body[0].value, node.args.posonlyargs + node.args.args
        if (
            isinstance(call, ast.Call)
            and not call.keywords
            and [ast.unparse(a) for a in call.args] == [p.arg for p in params]
        ):
            out.append(f"{node.lineno} {node.name}")
    return out


def test_pass_through_scan_flags_an_alias():
    source = (
        "def alias(value, other):\n    \"\"\"Doc.\"\"\"\n    return f.g(value, other)\n\n\n"
        "def reorders(a, b):\n    return g(b, a)\n\n\n"
        "def adds(a):\n    return g(a, 1)\n\n\n"
        "def works(a):\n    b = a\n    return g(b)\n"
    )
    assert _pass_throughs(source) == ["1 alias"]


def test_no_pass_through_functions():
    # a function that only hands its parameters to another is the other one
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "fermigte").glob("*.py"))
    assert [f"{p.name}:{f}" for p in paths for f in _pass_throughs(p.read_text())] == []
