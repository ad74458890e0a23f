"""Every span in the package has a literal name.

The paper accounts for the accelerator phase by phase (step 1, the DRAM
round trip, the step-2 merge), and so do the engine's spans: one per
phase, with per-stripe and per-class counts carried as attributes of
the phase span.  A span name built at run time (``span(f"...[{i}]")``)
is how a span per stripe or per radix class gets opened, multiplying
the spans of a run by the stripe count.  This scan fails on any
``span(...)`` call in the package whose name is not a string literal.
"""

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent


def _span_names(source: str):
    """(line, name) of every ``span(...)`` call; name is None when not a literal."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "span"
        ):
            first = node.args[0] if node.args else None
            literal = first.value if isinstance(first, ast.Constant) else None
            yield node.lineno, literal if isinstance(literal, str) else None


def _sites(path: pathlib.Path) -> list:
    where = path.relative_to(PACKAGE.parent)
    return [(f"{where}:{line}", name) for line, name in _span_names(path.read_text())]


def test_every_span_name_is_a_string_literal():
    sites = [site for path in sorted(PACKAGE.rglob("*.py")) for site in _sites(path)]
    assert len(sites) >= 10, "the scan no longer sees the engine's spans"
    offenders = [where for where, name in sites if name is None]
    assert offenders == [], (
        "span names are literals, one per phase; per-item counts belong in "
        f"the span's attributes. Computed names at {offenders}"
    )


def test_scan_flags_each_computed_name_form():
    probe = (
        "from repro.telemetry import span\n"
        "i, label = 3, 'step1'\n"
        "a = span('step1', n_stripes=4)\n"
        "b = span(f'step1.stripe[{i}]')\n"
        "c = span(label)\n"
        "d = span('inject.' + str(i))\n"
        "e = span()\n"
    )
    assert [line for line, name in _span_names(probe) if name is None] == [4, 5, 6, 7]
    assert [name for _, name in _span_names(probe) if name] == ["step1"]
