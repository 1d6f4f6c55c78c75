import contextlib
import copy
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wvlab.cli import ScenarioConfig, _noise_rows, load_config, main
from wvlab.errors import ConfigError
from wvlab.noise import CorrelatedNoiseModel


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SHIFT_CONFIG = {
    "scheme": {
        "variant": "trapped_ion",
        "gammas": [0.3, 1.0, 3.0],
        "gamma0_t": 0.05,
        "theta": {"start": 0.1, "stop": 1.5, "points": 6},
        "grid_check": True,
    }
}


class TestConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.parse({"scheme": {}, "bogus": {}})

    def test_unknown_block_key(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.parse({"scheme": {"variant": "standard", "oops": 1}})

    def test_missing_scheme(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.parse({"noise": {}})

    def test_json_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "scheme": {,}\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_round_trip(self, tmp_path):
        cfg = ScenarioConfig.parse(SHIFT_CONFIG)
        echoed = json.loads(json.dumps(cfg.to_dict()))
        assert ScenarioConfig.parse(echoed).to_dict() == cfg.to_dict()


class TestCommands:
    def test_shift_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, SHIFT_CONFIG)
        out = tmp_path / "out"
        assert main(["shift", "--config", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out / "shift.csv", delimiter=",", skiprows=1)
        assert table.shape == (18, 4)
        # analytic vs grid columns agree within 1%
        assert np.max(np.abs(table[:, 3] - table[:, 2]) / np.abs(table[:, 2])) < 0.01

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "shift"
        digest = hashlib.sha256((out / "shift.csv").read_bytes()).hexdigest()
        assert manifest["files"]["shift.csv"] == digest
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo == SHIFT_CONFIG

    def test_shift_evolves_one_joint_state_per_gamma(self, tmp_path, monkeypatch):
        import wvlab.cli as cli
        from wvlab.coupling import CouplingConfig, Generator, evolve_joint, postselect
        from wvlab.meter import GaussianMeter, to_grid
        from wvlab.qsys import SIGMA_X, SystemState

        calls = []

        def counted(*args):
            calls.append(args)
            return evolve_joint(*args)

        monkeypatch.setattr(cli, "evolve_joint", counted)
        cfg = write_config(tmp_path, SHIFT_CONFIG)
        out = tmp_path / "out"
        assert main(["shift", "--config", cfg, "--out", str(out)]) == 0
        assert len(calls) == len(SHIFT_CONFIG["scheme"]["gammas"])
        # oracle: the joint state evolved again for each (gamma, theta)
        table = np.loadtxt(out / "shift.csv", delimiter=",", skiprows=1)
        for gamma, theta, _, grid_ratio in table[[0, 8, 17]]:
            pre = SystemState(np.array([0.0, 1.0]))
            post = SystemState(np.array([np.cos(theta), -np.sin(theta)]))
            base = to_grid(GaussianMeter(1.0), 16 * 1.0 + 8 * gamma, 4096)
            joint = evolve_joint(pre, base, CouplingConfig(gamma, Generator.MOMENTUM_KICK, SIGMA_X))
            assert grid_ratio == postselect(joint, post).success_meter.mean_q() / gamma

    def test_budget_end_to_end(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scheme": {
                    "variant": "budget_sweep",
                    "g_over_2sigma": 0.1,
                    "sigma": 1.0,
                    "theta": {"start": 0.1, "stop": 1.5, "points": 8},
                    "pf_sweep": True,
                }
            },
        )
        out = tmp_path / "out"
        assert main(["budget", "--config", cfg, "--out", str(out)]) == 0
        table = np.loadtxt(out / "budget.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(table[:, 5] - 1.0)) < 1e-6  # per-row budget identity
        sweep = np.loadtxt(out / "budget_pf_sweep.csv", delimiter=",", skiprows=1)
        # real-WVA maximal FI is monotone in p_f; imaginary-WVA is not
        order = np.argsort(sweep[:, 1])
        fi_real_sorted = sweep[order, 2]
        assert np.all(np.diff(fi_real_sorted) > -1e-6)
        fi_imag = sweep[:, 4]
        assert np.any(np.diff(fi_imag[np.argsort(sweep[:, 3])]) < 0)

    def test_budget_builds_each_readout_once(self, tmp_path, monkeypatch):
        # the shipped scenario: 40 budget rows of two arms each, then 28 p_f
        # sweep points of two readouts each, whose p_f and Fisher number are
        # read off one build
        from wvlab.infometrics import Conditioning

        build, built = Conditioning.kernels, []

        def kernels(self, g):
            built.append(g)
            return build(self, g)

        monkeypatch.setattr(Conditioning, "kernels", kernels)
        cfg = str(ROOT / "scenarios" / "budget.json")
        assert main(["budget", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 40 * 2 + 28 * 2

    def test_noise_end_to_end(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scheme": {"variant": "noise_table", "wva_p_f": 0.01},
                "noise": {"a": 1.0, "c": 1.0, "dt": 1.0, "tau_c": 1.0, "n": 400},
            },
        )
        out = tmp_path / "out"
        assert main(["noise", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "noise_table.csv").read_text().strip().splitlines()
        assert rows[0] == "regime,quantity,analytic,numeric"
        assert len(rows) == 1 + 12  # white, slow_1, slow_2 x four quantities
        # white rows: all four quantities equal N/(a+c)
        white = [r.split(",") for r in rows[1:5]]
        for r in white:
            assert float(r[2]) == pytest.approx(400 / 2.0, rel=1e-9)
            assert float(r[3]) == pytest.approx(400 / 2.0, rel=1e-9)
        # in slow_1 the thinned WVA information returns to N/(a+c) while the
        # CM average stays pinned near the offset-limited value
        table = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[3]) for r in rows[1:]}
        assert table[("slow_1", "I_WVA")] > 2 * table[("slow_1", "I_CM")]
        # between the two limits F has no closed form: its analytic cell is NaN
        slow_f = [r.split(",") for r in rows[5:] if r.split(",")[1].startswith("F_")]
        assert len(slow_f) == 4 and all(r[2] == "nan" for r in slow_f)

    @pytest.mark.parametrize("tau_over_dt", [1e-3, 1e9])
    def test_noise_analytic_column_at_both_limits(self, tau_over_dt):
        # white, C -> (a+c) I, and fully correlated, C -> a I + c 11': in both
        # limits F = 1'C^-1 1 equals the averaging information of its I row
        model = CorrelatedNoiseModel(1.0, 1.0, 1.0, tau_over_dt, 1000)
        rows = _noise_rows("limit", model, 0.01, at_limit=True)
        assert [r[1] for r in rows] == ["I_CM", "F_CM", "I_WVA", "F_WVA"]
        assert rows[0][2] == rows[1][2] and rows[2][2] == rows[3][2]
        for _, quantity, analytic, numeric in rows:
            assert analytic == pytest.approx(numeric, rel=1e-5), quantity

    def test_scheme_standard(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"scheme": {"variant": "standard", "g": 0.0025, "sigma": 1.0, "epsilon": 0.01}},
        )
        out = tmp_path / "out"
        assert main(["scheme", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["amplification"] == pytest.approx(200.0, abs=0.01)
        dist = np.loadtxt(out / "distribution.csv", delimiter=",", skiprows=1)
        dx = dist[1, 0] - dist[0, 0]
        assert np.sum(dist[:, 1]) * dx == pytest.approx(1.0, abs=1e-6)

    def test_scheme_phase_space_sweep_slope(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scheme": {"variant": "phase_space", "g": 1e-6, "epsilon": 0.1, "nbar": 100.0},
                "sweep": {"parameter": "nbar", "values": [100.0, 1000.0, 10000.0]},
            },
        )
        out = tmp_path / "out"
        assert main(["scheme", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["sweep"]["fitted_slope"] - 2.0) < 0.05

    def test_scheme_entangled_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scheme": {"variant": "entangled", "phi": 0.0, "epsilon": 1e-4, "n": 10},
                "sweep": {"parameter": "n", "values": [10, 100, 1000]},
            },
        )
        out = tmp_path / "out"
        assert main(["scheme", "--config", cfg, "--out", str(out)]) == 0
        sweep = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
        assert np.allclose(sweep[:, 1], 4.0 * sweep[:, 0] ** 2)

    def test_estimate_end_to_end(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scheme": {"variant": "standard", "g": 0.002, "sigma": 1.0, "epsilon": 0.05},
                "experiment": {"nu": 500, "trials": 30, "seed": 3, "estimator": "amr"},
                "output": {"dump_samples": True},
            },
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "estimate.json").read_text())
        assert report["seed"] == 3 and report["trials"] == 30
        samples = np.loadtxt(out / "samples.csv", skiprows=1)
        assert samples.shape == (500,)

    def test_seed_override(self, tmp_path):
        payload = {
            "scheme": {"variant": "standard", "g": 0.002, "sigma": 1.0, "epsilon": 0.05},
            "experiment": {"nu": 200, "trials": 10, "seed": 3, "estimator": "amr"},
        }
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["estimate", "--config", cfg, "--out", str(out1), "--seed", "99"]) == 0
        report = json.loads((out1 / "estimate.json").read_text())
        assert report["seed"] == 99
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_manifest_records_config_seed(self, tmp_path):
        payload = {
            "scheme": {"variant": "standard", "g": 0.002, "sigma": 1.0, "epsilon": 0.05},
            "experiment": {"nu": 200, "trials": 10, "seed": 4, "estimator": "amr"},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        report = json.loads((out / "estimate.json").read_text())
        assert manifest["seed"] == report["seed"] == 4

    def test_estimate_with_noise_model(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "scheme": {"variant": "none"},
                "noise": {"a": 1.0, "c": 1.0, "dt": 1.0, "tau_c": 1000.0, "n": 300},
                "experiment": {
                    "nu": 300, "trials": 40, "seed": 2,
                    "estimator": "mle_correlated", "true_value": 0.1,
                },
            },
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "estimate.json").read_text())
        assert report["estimator"] == "mle_correlated"
        assert 0.5 < report["crb_ratio"] < 2.0

    def test_json_format_flag(self, tmp_path):
        cfg = write_config(tmp_path, SHIFT_CONFIG)
        out = tmp_path / "out"
        assert main(
            ["shift", "--config", cfg, "--out", str(out), "--format", "json"]
        ) == 0
        payload = json.loads((out / "shift.json").read_text())
        assert payload["columns"][:2] == ["gamma", "theta"]
        assert len(payload["rows"]) == 18

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scheme": {"variant": "unknown_variant"}})
        rc = main(["scheme", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["scheme", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert rc == 2


def fresh_interpreter(code):
    """A fresh interpreter running `code`, then printing its loaded modules."""
    code += "; import json, sys; print(json.dumps(list(sys.modules)))"
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)


def scipy_loaded(proc):
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    return [m for m in json.loads(out.splitlines()[-1]) if m.split(".")[0] == "scipy"]


def test_lean_import():
    # the package and its CLI import without any scipy module
    assert scipy_loaded(fresh_interpreter("import wvlab, wvlab.cli")) == []


# ---------------------------------------------------------------------------
# the config schema: one minimal config per variant, the keys each accepts,
# and malformed configs that must all exit 2 with one JSON error on stderr

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = {"shift": "shift", "budget": "budget", "noise": "noise",
             "scheme": "phase_space", "estimate": "estimate"}
NOISE = {"a": 1.0, "c": 1.0, "dt": 1.0, "tau_c": 10.0, "n": 100}
THETA = {"start": 0.1, "stop": 1.5, "points": 3}
STANDARD = {"variant": "standard", "g": 0.0025, "sigma": 1.0, "epsilon": 0.05}
PHASE = {"variant": "phase_space", "g": 1e-6, "epsilon": 0.1}
ENTANGLED = {"variant": "entangled", "phi": 0.01, "epsilon": 0.05, "n": 2}
EXPERIMENT = {"nu": 200, "trials": 5, "seed": 1}

# variant -> (command, a config holding only the required keys)
MINIMAL = {
    "standard": ("scheme", {"scheme": STANDARD}),
    "inverse": ("scheme", {"scheme": {"variant": "inverse", "g": 0.1, "sigma": 1.0}}),
    "abwva": ("scheme", {"scheme": {"variant": "abwva", "g": 1e-4, "epsilon": 0.1, "sigma": 1.0}}),
    "joint_wm": ("scheme", {"scheme": {"variant": "joint_wm", "tau": 0.05, "phi_align": 1.5,
                                       "omega0": 20.0, "delta_omega": 2.0}}),
    "biased": ("scheme", {"scheme": {"variant": "biased", "tau": 0.0, "beta": 0.01,
                                     "epsilon": 0.1, "omega0": 10.0, "delta_omega": 1.0}}),
    "recycle": ("scheme", {"scheme": {"variant": "recycle", "p_f": 0.03}}),
    "phase_space": ("scheme", {"scheme": PHASE}),
    "entangled": ("scheme", {"scheme": ENTANGLED}),
    "trapped_ion": ("shift", {"scheme": {"variant": "trapped_ion", "gammas": [1.0],
                                         "gamma0_t": 0.05, "theta": THETA}}),
    "budget_sweep": ("budget", {"scheme": {"variant": "budget_sweep", "g_over_2sigma": 0.1,
                                           "sigma": 1.0}}),
    "noise_table": ("noise", {"scheme": {"variant": "noise_table"}, "noise": NOISE}),
    "none": ("estimate", {"scheme": {"variant": "none"}, "noise": NOISE,
                          "experiment": {"nu": 100, "trials": 3}}),
}
# every key each scheme variant accepts; no other key of the old 36-key union
ACCEPTED = {
    "standard": {"g", "sigma", "epsilon", "phi", "points"},
    "inverse": {"g", "sigma", "theta_angle", "phi_angle", "points"},
    "abwva": {"g", "epsilon", "sigma", "points"},
    "joint_wm": {"tau", "phi_align", "eps_fluct", "omega0", "delta_omega", "omega_noise"},
    "biased": {"tau", "beta", "epsilon", "omega0", "delta_omega", "resolution", "points"},
    "recycle": {"p_f", "loss", "mode", "mirror_r", "n_input"},
    "phase_space": {"g", "epsilon", "alpha", "nbar", "mixture", "theta_i"},
    "entangled": {"phi", "epsilon", "n", "variant_post"},
    "trapped_ion": {"gammas", "gamma0_t", "theta", "grid_check"},
    "budget_sweep": {"g_over_2sigma", "sigma", "theta", "pf_sweep"},
    "noise_table": {"wva_p_f"},
    "none": set(),
}
BLOCK_KEYS = {
    "noise": set(NOISE),
    "experiment": {"nu", "trials", "seed", "estimator", "true_value"},
    "output": {"dump_samples"},
    "sweep": {"parameter", "values"},
    "theta": {"start", "stop", "points"},
}
COMMAND_BLOCKS = {"shift": {"scheme"}, "budget": {"scheme"}, "noise": {"scheme", "noise"},
                  "scheme": {"scheme", "sweep"},
                  "estimate": {"scheme", "noise", "experiment", "output"}}
DEAD_KEYS = {"n_values", "directory", "formats", "iterative"}
ALL_KEYS = set().union(*ACCEPTED.values(), *BLOCK_KEYS.values(), DEAD_KEYS)
REQUIRED = {
    **{v: {"variant"} | set(config["scheme"]) for v, (_, config) in MINIMAL.items()},
    "noise": set(NOISE), "experiment": {"nu", "trials"}, "output": set(),
    "sweep": {"parameter", "values"}, "theta": {"start", "stop", "points"},
}
INT_KEYS = {"n", "points", "nu", "trials", "seed"}
# block -> (key, a value the block's own checks reject)
OUT_OF_RANGE = {
    "standard": ("sigma", -1.0), "inverse": ("sigma", 0.0), "abwva": ("epsilon", 2.0),
    "joint_wm": ("delta_omega", -1.0), "biased": ("delta_omega", 0.0),
    "recycle": ("p_f", 1.5), "phase_space": ("nbar", -1.0), "entangled": ("n", 0),
    "trapped_ion": ("gamma0_t", 0.0), "budget_sweep": ("sigma", 0.0),
    "noise_table": ("wva_p_f", 0.0), "noise": ("tau_c", 0.0), "experiment": ("trials", 0),
    "sweep": ("values", [100.0]), "theta": ("points", 0),
}

# the malformed-config probes: before, 8 of them exited 0 with a value
# silently ignored and 16 exited 1 with a traceback
PROBES = [
    ("recycle_foreign_keys", "scheme",
     {"scheme": {"variant": "recycle", "p_f": 0.1, "sigma": 1.0, "omega0": 3}}, 2),
    ("standard_nbar", "scheme", {"scheme": {**STANDARD, "nbar": 7}}, 2),
    ("phase_space_alpha_and_nbar", "scheme", {"scheme": {**PHASE, "alpha": 2.0, "nbar": 9.0}}, 2),
    ("nu_non_integral", "estimate", {"scheme": STANDARD, "experiment": {**EXPERIMENT, "nu": 100.7}}, 2),
    ("entangled_n_non_integral", "scheme", {"scheme": {**ENTANGLED, "n": 2.5}}, 2),
    ("phase_space_mixture_and_alpha", "scheme",
     {"scheme": {**PHASE, "mixture": [[0.5, 1.0], [0.5, 2.0]], "alpha": 1.0}}, 2),
    ("dead_key_n_values", "scheme", {"scheme": {**STANDARD, "n_values": [1, 2]}}, 2),
    ("iterative_string", "scheme", {"scheme": {**ENTANGLED, "iterative": "no"}}, 2),
    ("entangled_iterative", "scheme", {"scheme": {**ENTANGLED, "iterative": True}}, 2),
    ("pulsed_recycle_mirror_r", "scheme",
     {"scheme": {"variant": "recycle", "p_f": 0.1, "mirror_r": 0.5}}, 2),
    ("sigma_string", "scheme", {"scheme": {**STANDARD, "sigma": "1"}}, 2),
    ("sigma_negative", "scheme", {"scheme": {**STANDARD, "sigma": -1.0}}, 2),
    ("standard_epsilon_and_phi", "scheme", {"scheme": {**STANDARD, "phi": 0.1}}, 2),
    ("abwva_epsilon_range", "scheme",
     {"scheme": {"variant": "abwva", "g": 1e-4, "epsilon": 2.0, "sigma": 1.0}}, 2),
    ("recycle_mode", "scheme", {"scheme": {"variant": "recycle", "p_f": 0.1, "mode": "cw"}}, 2),
    ("entangled_variant_post", "scheme", {"scheme": {**ENTANGLED, "variant_post": "bogus"}}, 2),
    ("phase_space_nbar_negative", "scheme", {"scheme": {**PHASE, "nbar": -1.0}}, 2),
    ("noise_a_negative", "noise",
     {"scheme": {"variant": "noise_table"}, "noise": {**NOISE, "a": -1.0}}, 2),
    ("experiment_missing_nu", "estimate", {"scheme": STANDARD, "experiment": {"trials": 5}}, 2),
    ("estimator_unknown", "estimate",
     {"scheme": STANDARD, "experiment": {**EXPERIMENT, "estimator": "bayes"}}, 2),
    ("estimate_inverse", "estimate",
     {"scheme": {"variant": "inverse", "g": 0.1, "sigma": 1.0}, "experiment": EXPERIMENT}, 2),
    ("mle_correlated_without_noise", "estimate",
     {"scheme": STANDARD, "experiment": {**EXPERIMENT, "estimator": "mle_correlated"}}, 2),
    ("none_without_noise", "estimate", {"scheme": {"variant": "none"}, "experiment": EXPERIMENT}, 2),
    ("noise_with_phase_space", "estimate",
     {"scheme": {**PHASE, "nbar": 4.0}, "noise": NOISE, "experiment": {**EXPERIMENT, "nu": 100}}, 2),
    ("shift_theta_missing_points", "shift",
     {"scheme": {"variant": "trapped_ion", "gammas": [1.0], "gamma0_t": 0.05,
                 "theta": {"start": 0.1, "stop": 1.5}}}, 2),
    ("budget_sigma_string", "budget",
     {"scheme": {"variant": "budget_sweep", "g_over_2sigma": 0.1, "sigma": "1"}}, 2),
    ("unknown_variant", "scheme", {"scheme": {"variant": "squeezed"}}, 2),
    ("standard_missing_sigma", "scheme",
     {"scheme": {"variant": "standard", "g": 0.0025, "epsilon": 0.05}}, 2),
    ("standard_points_below_256", "scheme", {"scheme": {**STANDARD, "points": 100}}, 2),
    ("inverse_points_below_256", "scheme",
     {"scheme": {"variant": "inverse", "g": 0.1, "sigma": 1.0, "points": 100}}, 2),
    # non-finite numbers, which Python's json reads: before, the first two
    # exited 1 with a traceback and the third exited 0 with NaN in its report
    ("standard_g_nan", "scheme", {"scheme": {**STANDARD, "g": math.nan}}, 2),
    ("entangled_phi_infinity", "scheme", {"scheme": {**ENTANGLED, "phi": math.inf}}, 2),
    ("abwva_g_nan", "scheme",
     {"scheme": {"variant": "abwva", "g": math.nan, "epsilon": 0.1, "sigma": 1.0}}, 2),
    # before, it exited 0 with a negative tau_resolution_standard
    ("biased_resolution_negative", "scheme",
     {"scheme": {**MINIMAL["biased"][1]["scheme"], "resolution": -1.0}}, 2),
    # a valid config whose validity ordering fails: a failed check, exit 1
    ("inverse_validity", "scheme",
     {"scheme": {"variant": "inverse", "g": 0.1, "sigma": 1.0, "theta_angle": 0.5}}, 1),
]


def run_cli(command, config, directory):
    """(exit status, stderr) of one in-process CLI run."""
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(path), "--out", str(directory / "out")])
    return rc, err.getvalue()


def assert_rejected(command, config, directory, rc=2):
    status, err = run_cli(command, config, directory)
    assert status == rc, (config, err)
    assert "Traceback" not in err
    payload = json.loads(err)  # exactly one JSON object
    assert set(payload) == {"error", "message"}
    assert (payload["error"] == "config") == (rc == 2)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.mark.parametrize(
    "variant, header",
    [("inverse", "q,density"), ("abwva", "p,p0,p1,p2,difference"),
     ("joint_wm", "omega,detector_plus,detector_minus"), ("biased", "omega,spectrum"),
     ("recycle", None)],
)
def test_scheme_command_runs_each_catalog_variant(tmp_path, variant, header):
    command, config = MINIMAL[variant]
    assert run_cli(command, config, tmp_path) == (0, "")
    out = tmp_path / "out"
    assert isinstance(json.loads((out / "report.json").read_text())["p_f"], float)
    table = out / "distribution.csv"
    assert (table.read_text().splitlines()[0] if table.exists() else None) == header


def test_inverse_scheme_with_a_wide_meter(tmp_path):
    # p_f = 2.5e-15: this config used to exit 1 with a traceback
    config = {"scheme": {"variant": "inverse", "g": 0.1, "sigma": 1e6}}
    assert run_cli("scheme", config, tmp_path) == (0, "")
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["p_f"] == pytest.approx(report["p_f_closed_form"], rel=1e-6)


@pytest.mark.parametrize("command, scenario", sorted(SCENARIOS.items()))
def test_shipped_scenarios_parse(command, scenario):
    cfg = load_config(str(ROOT / "scenarios" / f"{scenario}.json"), command)
    assert cfg.to_dict() == json.loads((ROOT / "scenarios" / f"{scenario}.json").read_text())


def test_shipped_commands_load_no_scipy(tmp_path):
    # shift, budget, noise, scheme (phase space) and estimate run on numpy
    # alone: the noise table's recursions are numpy scans, not LAPACK
    runs = [[c, "--config", str(ROOT / "scenarios" / f"{SCENARIOS[c]}.json"),
             "--out", str(tmp_path / c)] for c in ("shift", "budget", "noise", "scheme", "estimate")]
    assert scipy_loaded(fresh_interpreter(
        f"from wvlab.cli import main; assert [main(a) for a in {runs!r}] == {[0] * len(runs)}"
    )) == []


def test_noise_engine_loads_no_scipy():
    # F_CM and both estimators of a noise plan; only the dense oracles
    # (covariance, spd_cholesky, mle_weights) need scipy.linalg
    assert scipy_loaded(fresh_interpreter(
        "from wvlab.estimate import ExperimentPlan, run_experiment; "
        "from wvlab.noise import CorrelatedNoiseModel, cm_fisher_correlated; "
        "m = CorrelatedNoiseModel(a=0.05, c=1.0, dt=1.0, tau_c=100.0, n=1000); "
        "assert cm_fisher_correlated(m) > 0; "
        "assert [run_experiment(ExperimentPlan(None, m.n, 5, 3, e, noise=m, true_value=0.2)).trials "
        "for e in ('amr', 'mle_correlated')] == [5, 5]"
    )) == []


@pytest.mark.parametrize("variant", sorted(MINIMAL))
def test_each_variant_accepts_exactly_its_keys(variant):
    command, config = MINIMAL[variant]
    ScenarioConfig.parse(config, command)  # the minimal config itself is valid
    for key in sorted(ALL_KEYS - {"variant"}):
        try:
            ScenarioConfig.parse({**config, "scheme": {**config["scheme"], key: None}}, command)
            unknown = False
        except ConfigError as exc:
            unknown = str(exc).startswith("unknown keys in 'scheme'")
        assert unknown == (key not in ACCEPTED[variant]), key


@pytest.mark.parametrize("name, command, config, rc", PROBES, ids=[p[0] for p in PROBES])
def test_malformed_config_probe(tmp_path, name, command, config, rc):
    assert_rejected(command, config, tmp_path, rc)


def _blocks(config):
    """(path, name) of every JSON object in a config; the scheme block is
    named by its variant."""
    for name, block in config.items():
        if not isinstance(block, dict):
            continue
        yield (name,), block["variant"] if name == "scheme" else name
        if isinstance(block.get("theta"), dict):
            yield (name, "theta"), "theta"


def _wrong_type(value):
    kinds = {"str": st.text(max_size=3), "bool": st.booleans(),
             "number": st.floats(-5, 5) | st.integers(-5, 5),
             "list": st.just([1.0]), "dict": st.just({"x": 1})}
    own = ("bool" if isinstance(value, bool) else "number" if isinstance(value, (int, float))
           else {str: "str", list: "list", dict: "dict"}[type(value)])
    return st.one_of(*(s for k, s in kinds.items() if k != own))


def _floats(value):
    """Whether a value fills a float key: a number or a list of numbers."""
    values = value if isinstance(value, list) and value else [value]
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


NONFINITE = [math.nan, math.inf, -math.inf]


def _in_place(value, x):
    """x in place of a number, or of a list's first number."""
    return [x, *value[1:]] if isinstance(value, list) else x


def _mutations(command, config):
    """(label, path, key, strategy or None to drop) for every malformed
    change of one key: drop a required key, add a foreign key, change a JSON
    type, leave the valid range, make an int non-integral, make a float (or
    the first float of a list) NaN or infinite."""
    needed = {"scheme"}
    if command == "noise" or config["scheme"]["variant"] == "none":
        needed.add("noise")
    if command == "estimate":
        needed.add("experiment")
    out = [("drop", (), b, None) for b in sorted(needed)]
    unread = set().union(*COMMAND_BLOCKS.values()) - COMMAND_BLOCKS[command]
    out += [("foreign", (), b, st.just({})) for b in sorted(unread)]
    out += [("type", (), b, _wrong_type(v)) for b, v in sorted(config.items())]
    for path, name in _blocks(config):
        block = config[path[0]] if len(path) == 1 else config[path[0]][path[1]]
        accepted = ACCEPTED.get(name, BLOCK_KEYS.get(name, set()))
        out += [("drop", path, k, None) for k in sorted(REQUIRED[name] & set(block))]
        out += [("foreign", path, k, st.just(1.0)) for k in sorted(ALL_KEYS - accepted - {"variant"})]
        out += [("type", path, k, _wrong_type(v)) for k, v in sorted(block.items())]
        if name in OUT_OF_RANGE:
            key, value = OUT_OF_RANGE[name]
            out.append(("range", path, key, st.just(value)))
        out += [("int", path, k, st.floats(0.01, 0.99).map(lambda f, v=v: v + f))
                for k, v in sorted(block.items()) if k in INT_KEYS]
        out += [("nonfinite", path, k,
                 st.sampled_from(NONFINITE).map(lambda x, v=v: _in_place(v, x)))
                for k, v in sorted(block.items()) if k not in INT_KEYS and _floats(v)]
    return out


def _block(config, path):
    for name in path:
        config = config[name]
    return config


def _mutated(base, path, key, value):
    """A copy of `base` with `key` of the block at `path` set to `value`, or
    dropped for None."""
    config = copy.deepcopy(base)
    block = _block(config, path)
    if value is None:
        del block[key]
    else:
        block[key] = value
    return config


BASES = [(cmd, json.loads((ROOT / "scenarios" / f"{sc}.json").read_text()))
         for cmd, sc in sorted(SCENARIOS.items())] + list(MINIMAL.values())


@pytest.mark.parametrize("value", NONFINITE)
def test_every_float_key_refuses_nonfinite_numbers(value):
    # each config's every float key, and the first number of a float list
    for command, base in BASES:
        for _, path, key, _ in [m for m in _mutations(command, base) if m[0] == "nonfinite"]:
            config = _mutated(base, path, key, _in_place(_block(base, path)[key], value))
            with pytest.raises(ConfigError, match="must be a finite number"):
                ScenarioConfig.parse(config, command)


@settings(max_examples=200)
@given(st.data())
def test_fuzzed_configs_exit_2(workdir, data):
    command, base = data.draw(st.sampled_from(BASES))
    mutations = _mutations(command, base)
    label = data.draw(st.sampled_from(sorted({m[0] for m in mutations})))
    _, path, key, value = data.draw(st.sampled_from([m for m in mutations if m[0] == label]))
    config = _mutated(base, path, key, None if value is None else data.draw(value))
    assert_rejected(command, config, workdir)
