"""Only the resolver reads ``REPRO_*`` variables.

``repro.api.resolve_config`` applies the precedence rule (explicit value >
``REPRO_*`` variable > default) and pins every engine's settings.  A second
reader elsewhere in the package would be consulted at another time, or
parse the value differently, and the two would disagree on the same
environment.  This scan fails on any ``os.environ`` / ``os.getenv`` read
outside ``repro/api.py`` whose key is not a literal naming some other
variable.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
RESOLVER = PACKAGE / "api.py"


def _env_reads(tree: ast.AST):
    """(line, key) of every environment access; key is None when not a literal."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        is_environ = (
            isinstance(node, ast.Attribute) and node.attr in ("environ", "environb")
        ) or (isinstance(node, ast.Name) and node.id in ("environ", "environb"))
        is_getenv = (
            isinstance(node, ast.Attribute) and node.attr == "getenv"
        ) or (isinstance(node, ast.Name) and node.id == "getenv")
        if not (is_environ or is_getenv):
            continue
        parent = parents.get(node)
        if is_environ and isinstance(parent, ast.Attribute):  # environ.get(...)
            parent = parents.get(parent)
        args = (
            [parent.slice] if isinstance(parent, ast.Subscript)
            else parent.args if isinstance(parent, ast.Call) else []
        )
        key = args[0] if args else None
        literal = key.value if isinstance(key, ast.Constant) else None
        yield node.lineno, literal


def _offending_lines(source: str) -> list:
    """Lines reading the environment with a REPRO_* or non-literal key."""
    return sorted({
        line
        for line, key in _env_reads(ast.parse(source))
        if not (isinstance(key, str) and not key.startswith("REPRO_"))
    })


def _offenders(path: pathlib.Path) -> list:
    where = path.relative_to(PACKAGE.parent)
    return [f"{where}:{line}" for line in _offending_lines(path.read_text())]


def test_only_the_resolver_reads_repro_variables():
    offenders = [
        where
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != RESOLVER
        for where in _offenders(path)
    ]
    assert offenders == [], (
        "REPRO_* variables are read only by repro.api.resolve_config; "
        f"found other reads at {offenders}"
    )


def test_scan_sees_the_resolver_and_flags_each_read_form():
    assert _offenders(RESOLVER), "the scan no longer sees the resolver's reads"
    probe = (
        "import os\n"
        "from os import environ, getenv\n"
        "VAR = 'REPRO_BACKEND'\n"
        "a = os.environ.get('REPRO_BACKEND')\n"
        "b = os.environ[VAR]\n"
        "c = os.getenv('REPRO_TELEMETRY')\n"
        "d = environ.get(VAR)\n"
        "e = getenv(VAR)\n"
        "f = os.environ.get('HOME')\n"
    )
    # Every read on lines 4-8 is flagged; the literal non-REPRO key on
    # line 9 is not.
    assert _offending_lines(probe) == [4, 5, 6, 7, 8]
