"""Every module-level import of a dampedjc module is used in that module,
and every module-level private function or class is used in the package.

No linter runs on this repository, so an import or a helper left behind by
a deleted code path would otherwise stay.  The only imports exempt are the
bindings that perfbench/tracing.py wraps in a module (its LAYERS), which
must stay bound there although the module may not call them; LAYERS is read
from the file, nothing is installed.  The closed forms and the modules
under them import nothing from scipy.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dampedjc"
TRACING = ROOT / "perfbench" / "tracing.py"


def _traced_bindings(monkeypatch) -> set:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)   # for its dataclass
    spec.loader.exec_module(tracing)
    return {(module, attr) for _, attr, modules, _ in tracing.LAYERS for module in modules}


def _imports(tree: ast.Module) -> list:
    """(line, module, bound name) of each module-level import but __future__'s."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [(node.lineno, a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, "." * node.level + (node.module or ""), a.asname or a.name)
                    for a in node.names]
    return out


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {name: line for line, _, name in _imports(tree)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _dead_private(sources: dict) -> list:
    """(file, line, name) of each module-level _private function or class
    that no statement of the sources names, other than its own definition."""
    defined, used = [], set()
    for file, source in sources.items():
        for node in ast.parse(source).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                defined.append((file, node.lineno, node.name))
                names.discard(node.name)
            used |= names
    return [d for d in defined if d[2] not in used]


def _scipy_imports(source: str) -> list:
    return [(line, module) for line, module, _ in _imports(ast.parse(source))
            if module.split(".")[0] == "scipy"]


def test_unused_imports_finds_a_dead_binding():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\nx = loads(os)\n"
    assert _unused_imports(source) == [(1, "math"), (3, "d")]


def test_no_module_keeps_an_unused_import(monkeypatch):
    traced = _traced_bindings(monkeypatch)
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    dead = [f"{path.name}:{line}: {name}"
            for path in modules
            for line, name in _unused_imports(path.read_text(encoding="utf-8"))
            if (path.stem, name) not in traced]
    assert dead == [], "unused imports: " + ", ".join(dead)


def test_dead_private_finds_an_unreferenced_helper():
    sources = {"a.py": "def _used():\n    pass\n\ndef _loop():\n    return _loop()\n\n"
                       "class _Gone:\n    pass\n",
               "b.py": "import a\nx = a._used()\n"}
    assert _dead_private(sources) == [("a.py", 4, "_loop"), ("a.py", 7, "_Gone")]


def test_no_private_helper_is_dead():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    dead = [f"{file}:{line}: {name}" for file, line, name in _dead_private(sources)]
    assert dead == [], "unreferenced private helpers: " + ", ".join(dead)


def test_core_modules_import_no_scipy():
    # the closed forms, Fock states, parameters and errors run on numpy alone
    assert _scipy_imports("import scipy.sparse as sp\nfrom .fock import x\n"
                          "from scipy.linalg import expm\n") == [(1, "scipy.sparse"),
                                                                  (3, "scipy.linalg")]
    for name in ("analytic.py", "errors.py", "fock.py", "params.py"):
        assert _scipy_imports((PACKAGE / name).read_text(encoding="utf-8")) == [], name
