"""The five shipped scenarios and the six `crb_plans` Monte Carlo plans
reproduce their committed outputs bitwise.

`tests/golden/<command>/` holds every file each command wrote (`estimate` at
`--seed 7`), `tests/golden/crb_plans/seed_<n>.json` the plans' reports at
seeds 1-3, and `tests/golden/regen.py` rewrites them. The plans are built by
`regen.crb_plans`, not imported from the benchmark. On a mismatch the
failure names each file and each key or column that changed, with its
maximum relative change and that change in ulps, so a roundoff change reads
apart from a real one. It also says when the running numpy differs from the
one the files were made with.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from golden import regen

GOLDEN = Path(regen.__file__).resolve().parent


def _value(x):
    try:
        return float(x)
    except ValueError:
        return x


def _by_key(data: bytes, suffix: str) -> dict[str, list]:
    """Every value of an output file under its CSV column or JSON key path;
    the items of a JSON list share the list's key."""
    text = data.decode("utf-8")
    if suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        return {col: [_value(row[i]) for row in rows] for i, col in enumerate(header)}
    flat: dict[str, list] = {}

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        else:
            flat.setdefault(key, []).append(node)

    walk(json.loads(text), "")
    return flat


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def differences(got: bytes, want: bytes, suffix: str) -> list[str]:
    """One line per key or column whose values differ."""
    new, old = _by_key(got, suffix), _by_key(want, suffix)
    out = []
    for key in sorted(set(new) | set(old)):
        a, b = new.get(key), old.get(key)
        if a is None or b is None:
            out.append(f"{key}: {'not in the committed file' if b is None else 'missing'}")
            continue
        if len(a) != len(b):
            out.append(f"{key}: {len(a)} values, committed {len(b)}")
            continue
        rel = ulps = 0.0
        other = 0
        for x, y in zip(a, b):
            if x == y or (x != x and y != y):
                continue
            if _finite(x) and _finite(y):
                d = abs(x - y)
                rel = max(rel, d / abs(y) if y else math.inf)
                ulps = max(ulps, d / float(np.spacing(abs(float(y)))))
            else:
                other += 1
        if rel:
            out.append(f"{key}: max relative change {rel:.3g} ({ulps:.0f} ulp)")
        if other:
            out.append(f"{key}: {other} non-numeric or non-finite values changed")
    return out


def compare(got_root: Path, names) -> list[str]:
    """One line per file, key or column of got_root/<name>/ that differs
    from the committed GOLDEN/<name>/, and the numpy versions if any does."""
    problems = []
    for cmd in names:
        got_dir, want_dir = got_root / cmd, GOLDEN / cmd
        got = {p.name for p in got_dir.iterdir()}
        want = {p.name for p in want_dir.iterdir()}
        if got != want:
            problems.append(f"{cmd}: wrote {sorted(got)}, committed {sorted(want)}")
        for name in sorted(got & want):
            a, b = (got_dir / name).read_bytes(), (want_dir / name).read_bytes()
            if a != b:
                lines = differences(a, b, Path(name).suffix) or ["bytes differ, every value equal"]
                problems += [f"{cmd}/{name} {line}" for line in lines]
    if problems:
        made = json.loads(regen.VERSION_FILE.read_text())
        if made != regen.numpy_version():
            problems.append(f"the golden files were made with numpy {made['numpy']}, "
                            f"this run has numpy {regen.numpy_version()['numpy']}")
    return problems


def test_shipped_scenarios_match_the_golden_outputs(tmp_path):
    status = regen.run_scenarios(tmp_path)
    assert status == {cmd: 0 for cmd, _, _ in regen.SCENARIOS}
    problems = compare(tmp_path, [cmd for cmd, _, _ in regen.SCENARIOS])
    assert not problems, "\n".join(problems)


def test_crb_plans_match_the_golden_reports(tmp_path):
    regen.run_crb_plans(tmp_path)
    problems = compare(tmp_path, ["crb_plans"])
    assert not problems, "\n".join(problems)
