"""The five shipped scenarios and the six `crb_plans` Monte Carlo plans
reproduce their committed outputs bitwise.

`tests/golden/<command>/` holds every file each command wrote (`estimate` at
`--seed 7`), `tests/golden/crb_plans/seed_<n>.json` the plans' reports at
seeds 1-3, and `tests/golden/regen.py` rewrites them. The plans are built by
`regen.crb_plans`, not imported from the benchmark. On a mismatch the
failure names each file and each key or column that changed, with its
maximum relative change and that change in ulps (`regen.compare`), so a
roundoff change reads apart from a real one. It also says when the running
numpy differs from the one the files were made with.

The scenarios run with the FFT grid chain switched off: every name of it
that a module of the package binds raises when called. The chain is an
oracle of the tests; no shipped command reaches it.
"""

import sys

import wvlab.cli  # noqa: F401  (loads every module of the package)
from golden import regen

GRID_CHAIN = ("evolve_joint", "postselect", "to_grid", "quadrature_marginal", "fourier_pair")


def test_shipped_scenarios_match_the_golden_outputs(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a shipped command reached the FFT grid chain")

    bound = [(module, name) for module_name, module in list(sys.modules.items())
             if module_name.split(".")[0] == "wvlab" for name in GRID_CHAIN
             if hasattr(module, name)]
    assert {name for _, name in bound} == set(GRID_CHAIN)
    for module, name in bound:
        monkeypatch.setattr(module, name, unreachable)
    status = regen.run_scenarios(tmp_path)
    assert status == {cmd: 0 for cmd, _, _ in regen.SCENARIOS}
    problems = regen.compare(tmp_path, [cmd for cmd, _, _ in regen.SCENARIOS])
    assert not problems, "\n".join(problems)


def test_crb_plans_match_the_golden_reports(tmp_path):
    regen.run_crb_plans(tmp_path)
    problems = regen.compare(tmp_path, ["crb_plans"])
    assert not problems, "\n".join(problems)
