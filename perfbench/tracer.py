"""Timing and counting wrappers around wvlab's public functions.

The wrappers live in the benchmark, not in the program. Each one replaces a
function in every loaded wvlab module namespace that holds it, because a name
bound by ``from .x import f`` is a separate reference: a call through it would
otherwise go uncounted. Every call appends one record

    (round, scope, name, parent, start, seconds, size)

to a list kept in memory. ``parent`` is the innermost wrapped call that was
active, ``scope`` and ``round`` are set by the workload, and ``size`` is the
model length N for the noise solves and the bytes of each dense covariance
built (8 N^2, computed from the array, not measured from the allocator).
"""

from __future__ import annotations

import statistics
import sys
import time

FUNCTIONS = {
    "coupling": ("evolve_joint", "postselect"),
    "meter": ("quadrature_marginal", "to_grid"),
    "infometrics": ("classical_fisher", "info_budget"),
    "schemes": ("standard_scheme", "phase_space_scheme"),
    "estimate": ("run_experiment", "sample", "substream", "mle_grid", "mle_weights"),
    "noise": ("covariance", "cm_fisher_correlated", "amr_variance_exact"),
}
METHODS = {
    "infometrics": ("ParamDistribution", ("probabilities",)),
    "cli": ("RunWriter", ("write_table", "write_json", "finish")),
}
FAMILY_EVAL = "infometrics.ParamDistribution.probabilities"
WRITERS = tuple(f"cli.RunWriter.{m}" for m in METHODS["cli"][1])


def _size(name, args, result):
    if name == "noise.covariance":
        return int(result.nbytes)
    if name in ("noise.cm_fisher_correlated", "noise.amr_variance_exact"):
        return int(args[0].n)
    if name == "estimate.mle_weights":
        return int(args[0].shape[0])
    return 0


class Tracer:
    def __init__(self):
        self.records: list[tuple] = []
        self.round = 0
        self.scope = ""
        self._stack: list[str] = []

    def wrap(self, name, fn):
        records, stack = self.records, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else ""
            stack.append(name)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                seconds = time.perf_counter() - start
                stack.pop()
                records.append(
                    (self.round, self.scope, name, parent, start, seconds,
                     _size(name, args, result) if result is not None else 0)
                )

        return wrapper

    def install(self) -> None:
        """Wrap every listed function in every loaded wvlab module."""
        mods = [m for k, m in sys.modules.items() if k == "wvlab" or k.startswith("wvlab.")]
        for modname, names in FUNCTIONS.items():
            home = sys.modules.get("wvlab." + modname)
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{modname}.{fname}", orig)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
        for modname, (cls_name, methods) in METHODS.items():
            home = sys.modules.get("wvlab." + modname)
            if home is None:  # cli is imported only by the command line
                continue
            cls = getattr(home, cls_name)
            for meth in methods:
                setattr(cls, meth, self.wrap(f"{modname}.{cls_name}.{meth}", getattr(cls, meth)))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(records, rounds: int, cli_main: dict, bytes_written: int) -> dict:
    """Per-layer metrics from the records of a traced run.

    Times are medians per call over the whole run; counts are those of round
    0, since every round repeats the same operations. A layer the workload
    does not reach reads 0.
    """
    first = [r for r in records if r[0] == 0]

    def secs(name, size=None):
        return _median([r[5] for r in records if r[2] == name and (size is None or r[6] == size)])

    def count(name, parent=None):
        return sum(1 for r in first if r[2] == name and (parent is None or r[3] == parent))

    def trial_gap(name, scope, parent="estimate.run_experiment"):
        # start-to-start interval of a call made once per trial
        gaps = []
        for k in range(rounds):
            starts = sorted(r[4] for r in records
                            if r[0] == k and r[1] == scope and r[2] == name and r[3] == parent)
            gaps += [b - a for a, b in zip(starts, starts[1:])]
        return _median(gaps)

    def ratio(num, den):
        return num / den if den else 0.0

    writer_s = [sum(r[5] for r in records if r[0] == k and r[2] in WRITERS and r[3] not in WRITERS)
                for k in range(rounds)]
    fisher = count("infometrics.classical_fisher")
    grid_trials = count("estimate.mle_grid")
    s, c = "s", "count"
    metrics = {
        **{f"cli.main.{cmd}_s": (_median(cli_main.get(cmd, [])), s)
           for cmd in ("shift", "budget", "noise", "scheme", "estimate")},
        "cli.write_s": (_median(writer_s), s),
        "cli.bytes_written": (bytes_written, "bytes"),
        "schemes.standard_scheme_s": (secs("schemes.standard_scheme"), s),
        "schemes.phase_space_scheme_s": (secs("schemes.phase_space_scheme"), s),
        "schemes.family_eval_s": (secs(FAMILY_EVAL), s),
        "schemes.family_evals": (count(FAMILY_EVAL), c),
        "infometrics.classical_fisher_s": (secs("infometrics.classical_fisher"), s),
        "infometrics.fisher_calls": (fisher, c),
        "infometrics.evals_per_fisher": (ratio(count(FAMILY_EVAL, "infometrics.classical_fisher"), fisher), c),
        "infometrics.info_budget_s": (secs("infometrics.info_budget"), s),
        "coupling.evolve_joint_s": (secs("coupling.evolve_joint"), s),
        "coupling.postselect_s": (secs("coupling.postselect"), s),
        "coupling.calls": (count("coupling.evolve_joint") + count("coupling.postselect"), c),
        "meter.quadrature_marginal_s": (secs("meter.quadrature_marginal"), s),
        "meter.calls": (count("meter.quadrature_marginal") + count("meter.to_grid"), c),
        "estimate.sample_s": (secs("estimate.sample"), s),
        "estimate.mle_grid_trial_s": (trial_gap("estimate.sample", "mle_grid"), s),
        "estimate.amr_trial_s": (trial_gap("estimate.sample", "amr_standard"), s),
        "estimate.evals_per_trial": (ratio(count(FAMILY_EVAL, "estimate.mle_grid"), grid_trials), c),
        "estimate.trials": (count("estimate.substream"), c),
        **{f"noise.cm_fisher_s.n{n}": (secs("noise.cm_fisher_correlated", size=n), s)
           for n in (1000, 2000, 4000)},
        "noise.mle_weights_s.n4000": (secs("estimate.mle_weights", size=4000), s),
        "noise.trial_s.n1000": (trial_gap("estimate.substream", "noise_amr"), s),
        "noise.trial_s.n4000": (trial_gap("estimate.substream", "mle_correlated_n4000"), s),
        "noise.dense_bytes": (sum(r[6] for r in first if r[2] == "noise.covariance"), "bytes_computed"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
