import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

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


def test_lean_import():
    # the CLI's import stays free of the heavy scipy subpackages
    heavy = ("scipy.optimize", "scipy.stats", "scipy.signal", "scipy.integrate")
    code = (
        "import sys, wvlab, wvlab.cli; "
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
