import functools
import json

import numpy as np
import pytest

from ballbot_lab import cli, harness
from ballbot_lab.control import MpcController
from ballbot_lab.errors import ConfigError
from ballbot_lab.harness import (config_hash, load_config, run_balance,
                                 run_identify, run_lqr, run_track,
                                 over_excitation_sweep, write_telemetry_csv)
from ballbot_lab.qp import QpSettings


def quiet_config(**run_overrides):
    cfg = load_config()
    cfg["run"]["noise"] = False
    for k, v in run_overrides.items():
        cfg["run"][k] = v
    return cfg


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config()
        assert cfg["run"]["Ts_inner"] == 0.005
        assert cfg["mpc"]["N"] == 40

    def test_unknown_key_reports_path(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"mpc": {"horizon": 10}}))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert "mpc.horizon" in str(exc.value)

    def test_bad_mode(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"plant": {"mode": "rocket"}}))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_non_integral_rate_ratio(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"mpc": {"Ts_mpc": 0.012}}))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_hash_stable_and_sensitive(self):
        cfg = load_config()
        h1 = config_hash(cfg)
        assert h1 == config_hash(load_config())
        cfg["run"]["seed"] = 1
        assert config_hash(cfg) != h1

    def test_bad_physical_section(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"plant": {"mode": "nonlinear",
                                           "physical": {"b1": 1.0, "bogus": 2.0}}}))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert "plant.physical" in str(exc.value)

    def test_bad_terminal_weight_length(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"mpc": {"Q_N": [1.0, 2.0]}}))
        with pytest.raises(ConfigError):
            load_config(p)


class TestBalance:
    def test_zero_tilt_stays_zero(self):
        cfg = quiet_config(theta0_deg=0.0)
        res = run_balance(cfg, duration=2.0)
        assert not res.summary["aborted"]
        assert res.summary["metrics"]["max_abs_theta_deg"] == 0.0
        assert all(row["u_y_ticks"] == 0.0 for row in res.telemetry)

    def test_two_degrees_balances(self):
        cfg = quiet_config(theta0_deg=2.0)
        res = run_balance(cfg)
        assert not res.summary["aborted"]
        assert res.summary["metrics"]["balanced_after_10s"]
        assert abs(res.summary["metrics"]["final_theta_x_deg"]) < 1e-4

    def test_beyond_envelope_aborts(self):
        # the linear loop recovers from any sub-envelope tilt, so the abort
        # path is exercised from beyond the envelope
        cfg = quiet_config(theta0_deg=50.0)
        res = run_balance(cfg, duration=2.0)
        assert res.summary["aborted"]
        assert res.summary["abort_time_s"] is not None
        assert "fell over" in res.summary["abort_reason"]

    def test_summary_written_for_aborted_runs(self):
        cfg = quiet_config(theta0_deg=50.0)
        res = run_balance(cfg, duration=2.0)
        assert res.summary["experiment"] == "balance"
        assert res.summary["config_hash"] == config_hash(cfg)


class TestIdentify:
    def test_noiseless_recovery(self):
        cfg = quiet_config()
        res = run_identify(cfg, duration=60.0)
        assert not res.summary["aborted"]
        rel = np.array(res.summary["metrics"]["rel_error_vs_truth"])
        assert np.max(rel) < 1e-3
        fits = res.summary["metrics"]["fit_rates_percent"]
        assert all(v > 99.9 for v in fits.values())

    def test_identified_model_document(self):
        cfg = quiet_config()
        res = run_identify(cfg, duration=60.0)
        doc = res.extra["model"]
        assert len(doc["p_hat"]) == 8
        A = np.array(doc["A"])
        assert A.shape == (4, 4)
        assert np.all(A[:, 0] == 0.0)  # augmented integrator layout

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_noisy_fit_rejects_overflowing_candidates_quietly(self):
        # at this seed and length an LM trial step lands on a candidate
        # whose squared residual norm overflows; it must be rejected as
        # divergent without a RuntimeWarning
        cfg = load_config(overrides={"run": {"seed": 2}})
        assert cfg["run"]["noise"]
        res = run_identify(cfg, duration=80.0)
        assert not res.summary["aborted"]
        assert np.isfinite(res.summary["metrics"]["final_cost"])

    def test_excitation_on_tracking_plane_only(self):
        cfg = quiet_config()
        res = run_identify(cfg, duration=20.0)
        rows = res.telemetry
        assert any(abs(r["d_cms"]) > 0.1 for r in rows)
        # the mirror plane stays at rest without noise
        assert all(abs(r["x_cm"]) < 1e-12 for r in rows)


class TestLqr:
    def test_balances_from_two_degrees(self):
        cfg = quiet_config(theta0_deg=2.0)
        res = run_lqr(cfg)
        m = res.summary["metrics"]
        assert m["theta_settle_time_s"] is not None
        assert m["theta_settle_time_s"] < 5.0
        assert m["spectral_radius"] < 1.0
        # position is left to drift a little and is not pulled back fast
        assert abs(m["final_y_cm"]) > 1e-4

    def test_zero_state_zero_input(self):
        cfg = quiet_config(theta0_deg=0.0)
        res = run_lqr(cfg, duration=1.0)
        assert all(abs(row["u_y_ticks"]) < 1e-12 for row in res.telemetry)


class TestTrack:
    def test_zero_amplitude_stays_at_equilibrium(self):
        cfg = quiet_config()
        cfg["reference"]["amplitude"] = 0.0
        res = run_track(cfg, duration=5.0)
        m = res.summary["metrics"]
        assert m["max_abs_theta_deg"] < 1e-6
        assert m["constraint_violation_count"] == 0

    def test_multirate_bookkeeping(self):
        cfg = quiet_config()
        cfg["reference"]["t0"] = 0.5
        res = run_track(cfg, duration=4.0)
        raw = [row["u_mpc_raw_ticks"] for row in res.telemetry]
        filt = [row["u_mpc_filt_ticks"] for row in res.telemetry]
        changes = [k for k in range(1, len(raw)) if raw[k] != raw[k - 1]]
        assert all(k % 20 == 0 for k in changes)
        # at least one mpc period actually changed the command
        assert changes
        # once the command is nonzero the filter output moves every tick
        active = range(int(1.0 / 0.005), int(3.0 / 0.005))
        filt_changes = sum(1 for k in active if filt[k] != filt[k - 1])
        assert filt_changes == len(active)

    def test_latency_option_delays_application(self):
        cfg = quiet_config()
        cfg["run"]["latency_mpc_periods"] = 1
        res = run_track(cfg, duration=2.0)
        raw = [row["u_mpc_raw_ticks"] for row in res.telemetry]
        assert all(v == 0.0 for v in raw[:20])  # first period runs on zero

    def test_plane_decoupling(self):
        cfg_a = quiet_config()
        cfg_b = quiet_config()
        cfg_b["reference"]["amplitude"] = 5.0
        ra = run_track(cfg_a, duration=3.0)
        rb = run_track(cfg_b, duration=3.0)
        for rowa, rowb in zip(ra.telemetry, rb.telemetry):
            assert rowa["x_cm"] == rowb["x_cm"]
            assert rowa["theta_y_deg"] == rowb["theta_y_deg"]

    def test_every_solve_converges_within_bound(self):
        # default config (noise on), truth model, through the step onset
        res = run_track(load_config(), duration=8.0)
        m = res.summary["metrics"]
        assert m["solver_iterations_max"] <= 25
        assert m["degraded_event_count"] == 0
        assert m["infeasible_event_count"] == 0

    def test_capped_solves_reported(self, monkeypatch):
        capped = functools.partial(MpcController, settings=QpSettings(max_iter=2))
        monkeypatch.setattr(harness, "MpcController", capped)
        res = run_track(quiet_config(), duration=1.0)
        m = res.summary["metrics"]
        assert m["solver_iterations_max"] == 2
        assert m["degraded_event_count"] == 10  # every solve of 1 s at 10 Hz

    def test_correction_clamped_to_box(self, monkeypatch):
        solve = MpcController.mpc_step

        def overshoot(self, x0, ref):
            u, info = solve(self, x0, ref)
            return u + 2.0 * self.cfg.u_max, info

        monkeypatch.setattr(MpcController, "mpc_step", overshoot)
        cfg = quiet_config()
        cfg["mpc"]["u_max"] = 50.0
        res = run_track(cfg, duration=1.0)
        m = res.summary["metrics"]
        assert m["clamped_event_count"] == 10
        assert m["max_abs_u_mpc_ticks"] == 50.0
        assert all(row["u_mpc_raw_ticks"] == 50.0 for row in res.telemetry)

    def test_track_with_identified_model(self):
        cfg = quiet_config()
        ident = run_identify(cfg, duration=40.0)
        lp = ident.extra["id_result"].linear_params(r=cfg["plant"]["linear"]["r"])
        res = run_track(cfg, duration=3.0, model_lp=lp)
        assert not res.summary["aborted"]
        assert res.summary["metrics"]["infeasible_event_count"] == 0


class TestSweep:
    def test_over_excitation_sweep(self):
        cfg = quiet_config()
        out = over_excitation_sweep(cfg, alphas=(0.5, 1.0, 1.5), duration=10.0)
        assert out["largest_usable_alpha"] >= 1.0
        assert all(r["max_abs_theta_deg"] <= 3.0 for r in out["sweep"]
                   if r["alpha"] <= 1.0)


class TestOutputs:
    def test_csv_format(self, tmp_path):
        cfg = quiet_config(theta0_deg=1.0)
        res = run_balance(cfg, duration=0.05)
        path = tmp_path / "t.csv"
        write_telemetry_csv(path, res.telemetry, config_hash(cfg))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        header = lines[1].split(",")
        assert header == harness.TELEMETRY_COLUMNS
        assert "theta_x_deg" in header
        assert len(lines) == 2 + len(res.telemetry)

    def test_csv_determinism(self, tmp_path):
        outs = []
        for i in (1, 2):
            cfg = load_config()
            cfg["run"]["theta0_deg"] = 1.0
            res = run_balance(cfg, duration=1.0)
            p = tmp_path / f"run{i}.csv"
            write_telemetry_csv(p, res.telemetry, config_hash(cfg))
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]


class TestCli:
    def test_balance_subcommand(self, tmp_path):
        rc = cli.main(["balance", "--out", str(tmp_path), "--duration", "1",
                       "--noise", "off"])
        assert rc == 0
        assert (tmp_path / "balance_telemetry.csv").exists()
        summary = json.loads((tmp_path / "balance_summary.json").read_text())
        assert summary["experiment"] == "balance"
        assert not summary["aborted"]

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        rc = cli.main(["balance", "--config", str(bad), "--out", str(tmp_path)])
        assert rc == 2

    def test_abort_exits_1(self, tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"run": {"theta0_deg": 50.0, "noise": False}}))
        rc = cli.main(["balance", "--config", str(over), "--out", str(tmp_path),
                       "--duration", "2"])
        assert rc == 1
        summary = json.loads((tmp_path / "balance_summary.json").read_text())
        assert summary["aborted"]

    def test_identify_writes_model(self, tmp_path):
        rc = cli.main(["identify", "--out", str(tmp_path), "--duration", "40",
                       "--noise", "off"])
        assert rc == 0
        doc = json.loads((tmp_path / "identified_model.json").read_text())
        assert len(doc["p_hat"]) == 8

    def test_seed_flag_changes_hash(self, tmp_path):
        rc = cli.main(["balance", "--out", str(tmp_path), "--duration", "0.5",
                       "--seed", "7"])
        assert rc == 0
        text = (tmp_path / "balance_telemetry.csv").read_text().splitlines()[0]
        cfg = load_config(overrides={"run": {"seed": 7}})
        assert text == f"# config_hash={config_hash(cfg)}"
