"""Every ``repro`` module is imported by something outside the tests.

A module that only tests reach is code nothing runs: it still has to be
read, kept consistent and loaded by ``import repro``.  This one-pass AST
scan over ``src/repro``, ``benchmarks/``, ``examples/`` and
``perfbench/`` fails naming each such module.

A module is reached when another scanned file imports it
(``import repro.a.b``, ``from repro.a.b import x``, ``from repro.a import b``)
or imports one of its names through a package (``from repro.a import x``
where ``repro/a/__init__.py`` re-exports ``x`` from ``repro.a.b``).  A
package ``__init__`` that only re-exports a name does not use it; one
that reads the name in its own code (a registry, say) does.  The scan
does not follow imports transitively.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
SCANNED = (PACKAGE, ROOT / "benchmarks", ROOT / "examples", ROOT / "perfbench")

#: (module, why it stays although nothing outside the tests imports it)
EXEMPT = (
    ("serving.chaos", "the CI serving-chaos job drives it through tests/test_serving_chaos.py"),
    ("apps.conjugate_gradient", "warm CG is a workload the ROADMAP's north star names"),
)


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _modules() -> dict:
    """Dotted name -> path of every module and package in ``repro``."""
    return {_module_name(path): path for path in PACKAGE.rglob("*.py")}


def _loaded_names(tree: ast.AST) -> set:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _repro_imports(tree: ast.AST):
    """(module, name or None, bound alias) of every ``repro`` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name, alias.asname or alias.name


def _reexports(modules: dict) -> dict:
    """package -> {name it binds: (module, name)} from its ``__init__``."""
    table = {}
    for module, path in modules.items():
        if path.name == "__init__.py":
            tree = ast.parse(path.read_text())
            table[module] = {
                bound: (source, name)
                for source, name, bound in _repro_imports(tree)
                if name is not None
            }
    return table


def _resolve(module: str, name, modules: dict, reexports: dict) -> str:
    """The module that ``from module import name`` reaches."""
    while name is not None and module in reexports:
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if name not in reexports[module]:
            break
        module, name = reexports[module][name]
    return module


def unreached_modules(exempt=EXEMPT) -> list:
    modules = _modules()
    reexports = _reexports(modules)
    reached = {f"repro.{module}" for module, _ in exempt}
    for root in SCANNED:
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text())
            used = _loaded_names(tree) if path.name == "__init__.py" else None
            targets = set()
            for module, name, bound in _repro_imports(tree):
                if used is not None and bound not in used:
                    continue  # a package __init__'s pure re-export
                targets |= {module, _resolve(module, name, modules, reexports)}
            if path.is_relative_to(PACKAGE):
                targets.discard(_module_name(path))
            reached |= targets
    return sorted(
        module[len("repro."):]
        for module, path in modules.items()
        if path.name not in ("__init__.py", "__main__.py") and module not in reached
    )


def test_every_module_is_reached_outside_the_tests():
    unreached = unreached_modules()
    assert not unreached, (
        "modules that only tests import; delete them or use them: "
        + ", ".join(unreached)
    )


def test_every_exemption_names_a_module_the_scan_misses():
    modules = _modules()
    for module, _ in EXEMPT:
        assert f"repro.{module}" in modules, f"exempt module {module} does not exist"
    missed = set(unreached_modules(exempt=()))
    stale = [module for module, _ in EXEMPT if module not in missed]
    assert not stale, f"exempt modules that something now imports: {stale}"
