"""Every public function, class and module-level constant of `src/wvlab` has
a caller.

A public top-level name that nothing in `src/` references outside its own
definition or assignment, and that no code of `perfbench/` names, is dead code:
it belongs in `tests/oracles.py` if a test checks other code with it, and
nowhere otherwise. The allowlist holds the jitter, pixelation and saturating-detector
functions, which no command writes yet: a `detector` block of the `noise`
command is planned to ship them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"jitter_fisher", "pixelated_fisher_ratio", "pixelation_info_ratio",
           "saturating_response", "readout_distribution", "saturated_fisher"}


def _referenced(node) -> set[str]:
    """Names read or bound anywhere under `node`, as a bare name or as an
    attribute; import statements and docstrings do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _named_in_code(tree) -> set[str]:
    """Names `tree` reads, binds or spells as a string constant of one or more
    dotted identifiers (`tracer.FUNCTIONS` names the functions it wraps as
    strings); words of docstrings, comments and messages do not count."""
    words = {part for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)
             and all(part.isidentifier() for part in n.value.split("."))
             for part in n.value.split(".")}
    return _referenced(tree) | words


def _own(top) -> set[str]:
    """The names a top-level statement defines: a function or class, or the
    plain names an assignment binds."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def unreferenced_public_names() -> set[str]:
    defined, used = [], set()
    for path in sorted((ROOT / "src" / "wvlab").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _own(top)
            defined += [name for name in own if not name.startswith("_")]
            # a definition's references to its own name are not callers
            used |= _referenced(top) - own
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        used |= _named_in_code(ast.parse(path.read_text(encoding="utf-8")))
    return {name for name in defined if name not in used}


def test_every_public_name_has_a_caller():
    assert unreferenced_public_names() == ALLOWED
