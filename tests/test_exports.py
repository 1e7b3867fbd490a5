import ast
import pathlib
import types

import schrod1d

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = pathlib.Path(schrod1d.__file__).resolve().parent


def test_public_namespace_is_exactly_all():
    # a name imported into the package but left out of __all__, or one
    # kept in __all__ after its object is gone, fails here
    missing = [n for n in schrod1d.__all__ if not hasattr(schrod1d, n)]
    assert missing == []
    public = {n for n, v in vars(schrod1d).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert sorted(public) == sorted(schrod1d.__all__)


def _unused_imports(path):
    """Names bound by the module-level imports of a file that the file never
    reads; names listed in __all__ count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted("%s:%d %s" % (path.name, line, name)
                  for name, line in bound.items() if name not in used)


def test_module_imports_are_used():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(files) > 20
    assert [u for f in files for u in _unused_imports(f)] == []
