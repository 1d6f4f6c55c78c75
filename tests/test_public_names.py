"""Every public function, class and module-level constant of `src/wvlab` has
a caller.

A public top-level name that nothing in `src/` references outside its own
definition or assignment, and that `perfbench/` does not name, is dead code:
it belongs in `tests/oracles.py` if a test checks other code with it, and
nowhere otherwise. The allowlist holds the jitter, pixelation and saturating-detector
functions, which no command writes yet: a `detector` block of the `noise`
command is planned to ship them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"jitter_fisher", "pixelated_fisher_ratio", "pixelation_info_ratio",
           "saturating_response", "readout_distribution", "saturated_fisher"}


def _referenced(node) -> set[str]:
    """Names read or bound anywhere under `node`, as a bare name or as an
    attribute; import statements and docstrings do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


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
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").rglob("*"))
                      if p.suffix in (".py", ".md"))
    return {name for name in defined
            if name not in used and not re.search(rf"\b{re.escape(name)}\b", bench)}


def test_every_public_name_has_a_caller():
    assert unreferenced_public_names() == ALLOWED
